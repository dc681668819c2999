"""Tests for the derivation-trace emitter."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubetriples.solver import TripleSystem, candidate_zs, solve
from cubetriples.trace import (
    RENDER_FORMATS,
    derive_trace,
    format_solution_set,
    render,
    solve_linear_diophantus,
)

DATA = Path(__file__).parent / "data"

# Together these cover s = 0, s < 0 and s > 0, d0 of either sign, 3 not
# dividing d0, the degenerate case with s = 0 and s != 0, and every
# per-pivot note: double root, two roots, negative discriminant, non-square.
GOLDEN_SYSTEMS = [(3, 3), (2, 2), (0, 3), (0, 4), (-2, 10), (1, 1), (0, 0)]
GOLDEN_EXTENSIONS = {"plain": "txt", "markdown": "md", "structured-records": "jsonl"}

# SHA-256 of every rendering, in RENDER_FORMATS order, of the systems
# s in [-6, 6], c in [-150, 150] followed by six with d0/3 = +-2*5*7*...*23,
# whose 512 pivots lie mostly outside the cube-root cap
SMOOTH_D0_OVER_3 = 2 * 5 * 7 * 11 * 13 * 17 * 19 * 23
SWEEP_SYSTEMS = [TripleSystem(s, c) for s in range(-6, 7) for c in range(-150, 151)] + [
    TripleSystem(s, s**3 + sign * 3 * SMOOTH_D0_OVER_3) for s in (-3, 0, 5) for sign in (1, -1)
]
SWEEP_SHA256 = "5d2e714b588553c33ca93058d9b25a23d6495a3d8ebefa57c13d85027b25e8e4"

systems = st.builds(
    TripleSystem,
    st.integers(min_value=-15, max_value=15),
    st.integers(min_value=-15, max_value=15),
)


class TestDeriveTrace:
    def test_known_instance_remainder_terms(self):
        text = render(derive_trace(TripleSystem(3, 3)), "plain")
        assert "24/(Z - 3)" in text
        assert "8/(Z - 3)" in text

    def test_known_instance_candidates_shown(self):
        text = render(derive_trace(TripleSystem(3, 3)), "plain")
        assert "-5" in text
        assert "-1" in text

    def test_step_order(self):
        labels = [step.label for step in derive_trace(TripleSystem(3, 3))]
        assert labels[:6] == [
            "rearrange-linear",
            "rearrange-cubic",
            "divide",
            "substitute",
            "divisibility",
            "candidates",
        ]
        assert all(label.startswith("candidate Z = ") for label in labels[6:-1])
        assert labels[-1] == "solutions"

    def test_indices_are_sequential(self):
        trace = derive_trace(TripleSystem(3, 3))
        assert [step.index for step in trace] == list(range(1, len(trace) + 1))

    def test_degenerate_ends_with_family(self):
        trace = derive_trace(TripleSystem(1, 1))
        labels = [step.label for step in trace]
        assert labels == [
            "rearrange-linear",
            "rearrange-cubic",
            "divide",
            "substitute",
            "factor",
            "solutions",
        ]
        assert "(X - 1)(X + Z) = 0" in trace[4].equation_text
        assert "infinite family" in trace[-1].equation_text

    def test_no_factoring_when_three_does_not_divide_d0(self):
        # d0 = 1000003 * 1000033 lies beyond trial division, and d0 = 1 (mod 3)
        trace = derive_trace(TripleSystem(0, 1000036000099))
        assert trace[-1].equation_text == "(X, Y, Z) in {}"

    @given(systems)
    def test_candidates_step_matches_solver(self, system):
        if system.degenerate:
            return
        trace = derive_trace(system)
        step = next(s for s in trace if s.label == "candidates")
        listed = ", ".join(str(c.z) for c in candidate_zs(system))
        assert step.equation_text == f"Z in {{{listed}}}"

    @given(systems)
    def test_final_step_matches_solver(self, system):
        trace = derive_trace(system)
        assert trace[-1].equation_text == format_solution_set(solve(system))


class TestRender:
    def test_empty_trace_is_empty_text(self):
        assert render([], "plain") == ""
        assert render([], "markdown") == ""
        assert render([], "structured-records") == ""

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render([], "latex")

    @pytest.mark.parametrize("format", list(GOLDEN_EXTENSIONS))
    @pytest.mark.parametrize("s,c", GOLDEN_SYSTEMS)
    def test_markdown_golden(self, s, c, format):
        golden = DATA / f"trace_{s}_{c}.{GOLDEN_EXTENSIONS[format]}"
        assert render(derive_trace(TripleSystem(s, c)), format) == golden.read_text()

    def test_sweep_bytes_pinned(self):
        digest = hashlib.sha256()
        for system in SWEEP_SYSTEMS:
            trace = derive_trace(system)
            for format in RENDER_FORMATS:
                digest.update(render(trace, format).encode())
        assert digest.hexdigest() == SWEEP_SHA256

    def test_structured_records_shape(self):
        trace = derive_trace(TripleSystem(3, 3))
        lines = render(trace, "structured-records").splitlines()
        assert len(lines) == len(trace)
        for line, step in zip(lines, trace):
            record = json.loads(line)
            assert record == {
                "index": step.index,
                "label": step.label,
                "equation_text": step.equation_text,
                "note": step.note,
            }

    @given(systems, st.sampled_from(["plain", "markdown", "structured-records"]))
    def test_deterministic(self, system, format):
        trace = derive_trace(system)
        assert render(trace, format) == render(derive_trace(system), format)


class TestSolveLinearDiophantus:
    @pytest.mark.parametrize(
        "a,b,c,expected",
        [(4, 4, 20, -4), (0, 5, 0, 0), (3, 2, 0, None), (10, -2, 4, -3)],
    )
    def test_examples(self, a, b, c, expected):
        assert solve_linear_diophantus(a, b, c) == expected

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            solve_linear_diophantus(1, 0, 1)

    @given(
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-1000, max_value=1000).filter(lambda b: b != 0),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_matches_scan(self, a, b, c):
        scan = [x for x in range(-2001, 2002) if a == b * x + c]
        result = solve_linear_diophantus(a, b, c)
        assert result == (scan[0] if scan else None)
