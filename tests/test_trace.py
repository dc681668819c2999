"""Tests for the derivation-trace emitter."""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubetriples.intmath import IncompleteFactorizationError
from cubetriples.solver import TripleSystem, solve
from cubetriples.trace import (
    RENDER_FORMATS,
    derive_trace,
    format_solution_set,
    render,
    solve_linear_diophantus,
)

DATA = Path(__file__).parent / "data"

# Together these cover s = 0, s < 0 and s > 0, d0 of either sign, 3 not
# dividing d0, the degenerate case with s = 0 and s != 0, the cap step with
# and without the sign step, the sign step with a = 0 and with a > 0 (see
# _tested_pivots), the residue step mod 9 and mod 8, with and without
# pivots left to test, and every per-pivot note: double root, two roots,
# negative discriminant, non-square.
GOLDEN_SYSTEMS = [(3, 3), (2, 2), (0, 3), (0, 4), (-2, 10), (1, 1), (0, 0), (2, 44)]
GOLDEN_EXTENSIONS = {"plain": "txt", "markdown": "md", "structured-records": "jsonl"}

# SHA-256 of every rendering, in RENDER_FORMATS order, of the systems
# s in [-6, 6], c in [-150, 150] followed by six with d0/3 = +-2*5*7*...*23,
# whose 256 positive divisors lie mostly above the cube-root cap 420
SMOOTH_D0_OVER_3 = 2 * 5 * 7 * 11 * 13 * 17 * 19 * 23
SWEEP_SYSTEMS = [TripleSystem(s, c) for s in range(-6, 7) for c in range(-150, 151)] + [
    TripleSystem(s, s**3 + sign * 3 * SMOOTH_D0_OVER_3) for s in (-3, 0, 5) for sign in (1, -1)
]
SWEEP_SHA256 = "d208362cb8dbb9c59db60cb2770943691ab0dc3e8d9389296ed82c10455624d4"
# d0/3 = +-SMOOTH_D0_OVER_3 again, so L = 420 and the sign rule reads
# 420(420 - 2a)^2 < 4 * SMOOTH_D0_OVER_3: it applies at a = -200
# (420 * 820^2 is below) and not at a = -250, and it applies at a = 630
# (420 * 840^2 is below) and not at a = 631
SIGN_EDGE_SYSTEMS = [
    TripleSystem(s, s**3 + sign * 3 * SMOOTH_D0_OVER_3)
    for s in (-631, -630, -250, -200, 200, 250, 630, 631)
    for sign in (1, -1)
]
PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _cube_root_floor(n: int) -> int:
    """The largest L >= 0 with L^3 <= n, by stepping from a float estimate."""
    cap = round(n ** (1 / 3))
    while cap**3 > n:
        cap -= 1
    while (cap + 1) ** 3 <= n:
        cap += 1
    return cap


def _tested_pivots(system: TripleSystem) -> tuple[bool, list[int], list[int]]:
    """Whether the sign rule applies, the ascending pivots Z = s - k that
    solve tests, and the ascending pivots the residue rule drops, found
    without the solver: every k with k | d0/3 and |k|^3 <= |d0/3| by
    dividing d0/3 by each candidate, then only the k with the sign of d0/3
    when L(L - 2a)^2 < 4|d0/3|, where L = icbrt(|d0/3|) and a = s if d0 < 0
    else -s; of those, the residue rule drops each k whose discriminant
    D = (k - 2s)^2 + 4(d0/3)/k is 5 mod 8, or, with 3 not dividing k, not
    in {0, 1, 4, 7} mod 9."""
    if system.d0 % 3:
        return False, [], []
    n = system.d0 // 3
    cap = _cube_root_floor(abs(n))
    ks = [k for d in range(1, cap + 1) if n % d == 0 for k in (d, -d)]
    a = system.s if n < 0 else -system.s
    one_sign = cap * (cap - 2 * a) ** 2 < 4 * abs(n)
    if one_sign:
        ks = [k for k in ks if (k > 0) == (n > 0)]
    tested, dropped = [], []
    for k in ks:
        discriminant = (k - 2 * system.s) ** 2 + 4 * (n // k)
        rejected = discriminant % 8 == 5 or (k % 3 and discriminant % 9 not in (0, 1, 4, 7))
        (dropped if rejected else tested).append(system.s - k)
    return one_sign, sorted(tested), sorted(dropped)


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
        # the pivots with |Z - 3| <= 2 whose discriminant can be a square mod
        # 9: Z = 2 and Z = 5 (k = 1 and k = -2) give -7 and 80, which are 2
        # and 8 mod 9.  Z = -5 (k = 8) lies past the cap, and (4, 4, -5)
        # comes from closing (4, -5, 4) under the permutations
        text = render(derive_trace(TripleSystem(3, 3)), "plain")
        assert " 7. [residue] (k - 2s)^2 + 4(-8)/k mod 9 not in {0, 1, 4, 7}, so Z not in {2, 5}\n" in text
        assert " 8. [candidates] Z in {1, 4}\n" in text
        assert "(4, 4, -5)" in text

    def test_step_order(self):
        head = ["rearrange-linear", "rearrange-cubic", "divide", "substitute", "divisibility", "cap"]
        # the sign rule does not apply to (3, 3) and (2, 44) and does to
        # (0, 3) and (-2, 10); the residue rule drops pivots of all but
        # (-2, 10)
        for system, fixed in (
            (TripleSystem(3, 3), head + ["residue"]),
            (TripleSystem(2, 44), head + ["residue"]),
            (TripleSystem(0, 3), head + ["sign", "residue"]),
            (TripleSystem(-2, 10), head + ["sign"]),
        ):
            labels = [step.label for step in derive_trace(system)]
            assert labels[: len(fixed) + 1] == fixed + ["candidates"]
            assert all(label.startswith("candidate Z = ") for label in labels[len(fixed) + 1 : -1])
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

    def test_candidates_step_matches_solver(self):
        # the candidates step lists exactly the pivots solve tests, the sign
        # step appears exactly when the sign rule applies, the residue step
        # exactly when the residue rule drops a pivot and names those it
        # drops, and the trace ends with solve's set
        residue_steps = 0
        for system in SWEEP_SYSTEMS + SIGN_EDGE_SYSTEMS:
            if system.degenerate:
                continue
            trace = derive_trace(system)
            one_sign, pivots, dropped = _tested_pivots(system)
            step = next(s for s in trace if s.label == "candidates")
            assert step.equation_text == f"Z in {{{', '.join(map(str, pivots))}}}", system
            assert any(s.label == "sign" for s in trace) == one_sign, system
            residue = [s.equation_text for s in trace if s.label == "residue"]
            assert len(residue) == bool(dropped), system
            if dropped:
                residue_steps += 1
                assert residue[0].endswith(f", so Z not in {{{', '.join(map(str, dropped))}}}"), system
                assert ("= 5 (mod 8)" in residue[0]) == (system.d0 // 3 % 2 == 1), system
            assert trace[-1].equation_text == format_solution_set(solve(system)), system
        assert residue_steps == 1164
        # (s, +1) has a = -s and (s, -1) has a = s
        assert [_tested_pivots(system)[0] for system in SIGN_EDGE_SYSTEMS] == [
            False, False, True, False, True, False, True, True,
            True, True, False, True, False, True, False, False,
        ]

    def test_primorial_47_steps_are_the_tested_pivots(self):
        # d0/3 = 2*3*5*...*47 has 32768 positive divisors; with s = 0 the sign
        # rule applies, so the trace holds one step per positive divisor up
        # to the cap and 9 fixed steps
        system = TripleSystem(0, 3 * math.prod(PRIMES_TO_47))
        cap = _cube_root_floor(math.prod(PRIMES_TO_47))
        divisors = [1]
        for p in PRIMES_TO_47:
            divisors += [d * p for d in divisors if d * p <= cap]
        trace = derive_trace(system)
        assert len(trace) == len(divisors) + 9
        assert [step.label for step in trace[4:8]] == ["divisibility", "cap", "sign", "candidates"]
        assert trace[-1].equation_text == format_solution_set(solve(system))

    @pytest.mark.parametrize(
        ("c", "expected"),
        [
            (3000108000297, None),  # d0/3 = 1000003 * 1000033, cap 10^4
            # cap past the trial limit, composite cofactor
            (6 * 1000003 * 1000033 * 1000037, (2 * 1000003 * 1000033 * 1000037, 1000003 * 1000033 * 1000037)),
            (24 * 1000003 * 1000033 * 1000037, (8 * 1000003 * 1000033 * 1000037, 1000003 * 1000033 * 1000037)),
            # cap 1000003, the cofactor 1000003^3 left at the trial limit
            (3 * 1000003**3, (1000003**3, 1000003**3)),
            (3 * (10**19 + 51), None),  # a prime past the trial limit, certified by Miller-Rabin
        ],
    )
    def test_raises_exactly_where_solve_raises(self, c, expected):
        # None when the call answers, else the raised (n, cofactor)
        system = TripleSystem(0, c)
        outcomes = []
        for f in (solve, derive_trace):
            try:
                f(system)
            except IncompleteFactorizationError as error:
                outcomes.append((error.n, error.cofactor))
            else:
                outcomes.append(None)
        assert outcomes == [expected, expected]

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
