"""Tests for the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetriples.oracle import brute_force
from cubetriples.solver import Triple, TripleSystem, completeness_bound, solve, verify

small_systems = st.builds(
    TripleSystem,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
)
bounds = st.integers(min_value=0, max_value=25)


def _full_box(system, bound):
    """Reference: every (x, y) of the box, z = s - x - y, no symmetry used."""
    s, c = system.s, system.c
    out = []
    for x in range(-bound, bound + 1):
        t = s - x
        for y in range(max(-bound, t - bound), min(bound, t + bound) + 1):
            z = t - y
            if x**3 + y**3 + z**3 == c:
                out.append(Triple(x, y, z))
    return out


def _sweep_python(system, bound):
    """Reference: every cell of the sorted triangle x <= y <= z, no walk."""
    s, c = system.s, system.c
    found = set()
    for x in range(-bound, min(bound, s // 3) + 1):
        t = s - x
        for y in range(max(x, t - bound), min(bound, t // 2) + 1):
            z = t - y
            if x**3 + y**3 + z**3 == c:
                found.update(Triple(x, y, z).permutations())
    return sorted(found)


@st.composite
def reference_systems(draw):
    # every residue of s mod 3, negative s, and the degenerate c = s^3
    s = draw(st.integers(min_value=-10, max_value=10))
    c = draw(st.one_of(st.integers(min_value=-60, max_value=60), st.just(s**3)))
    return TripleSystem(s, c)


def test_known_instance_box():
    assert [t.as_tuple() for t in brute_force(TripleSystem(3, 3), 5)] == [
        (-5, 4, 4),
        (1, 1, 1),
        (4, -5, 4),
        (4, 4, -5),
    ]


def test_tight_box_only_contains_ones():
    assert brute_force(TripleSystem(3, 3), 1) == [Triple(1, 1, 1)]


def test_zero_sum_zero_cubes_box():
    assert [t.as_tuple() for t in brute_force(TripleSystem(0, 0), 1)] == [
        (-1, 0, 1),
        (-1, 1, 0),
        (0, -1, 1),
        (0, 0, 0),
        (0, 1, -1),
        (1, -1, 0),
        (1, 0, -1),
    ]


def test_zero_bound():
    assert brute_force(TripleSystem(0, 0), 0) == [Triple(0, 0, 0)]
    assert brute_force(TripleSystem(3, 3), 0) == []


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        brute_force(TripleSystem(3, 3), -1)


@given(small_systems, bounds)
def test_backends_agree(system, bound):
    # the row walk against the plain triangle loop it replaced
    assert brute_force(system, bound) == _sweep_python(system, bound)


def test_walk_equals_triangle_exhaustively():
    for s in range(-6, 7):
        for c in [*range(-40, 41), s**3]:
            system = TripleSystem(s, c)
            for bound in range(13):
                assert brute_force(system, bound) == _sweep_python(system, bound), (s, c, bound)


@given(small_systems, bounds)
def test_everything_verifies_and_is_sorted(system, bound):
    triples = brute_force(system, bound)
    assert triples == sorted(triples)
    for triple in triples:
        assert verify(triple, system)
        assert max(abs(v) for v in triple.as_tuple()) <= bound


@given(small_systems, bounds, bounds)
def test_monotonic_in_bound(system, b1, b2):
    lo, hi = sorted((b1, b2))
    assert set(brute_force(system, lo)) <= set(brute_force(system, hi))


@settings(deadline=None)
@given(small_systems)
def test_agreement_with_solver(system):
    if system.degenerate:
        return
    bound = completeness_bound(system)
    assert brute_force(system, bound) == list(solve(system).triples)


def test_degenerate_box_is_family_slice():
    # no special-casing: a degenerate system just yields the family members
    # that fit in the box
    triples = brute_force(TripleSystem(1, 1), 3)
    expected = {Triple(1, t, -t) for t in range(-3, 4)}
    expected |= {p for t in expected for p in t.permutations()}
    assert set(triples) == {t for t in expected if max(map(abs, t.as_tuple())) <= 3}


@pytest.mark.parametrize("sweep", [_sweep_python, brute_force])
@given(reference_systems(), bounds)
def test_sorted_triangle_equals_full_box(sweep, system, bound):
    assert sweep(system, bound) == _full_box(system, bound)


@pytest.mark.parametrize("sweep", [_sweep_python, brute_force])
@pytest.mark.parametrize(
    "s, c, bound, repeated",
    [
        (3, 3, 5, (1, 1, 1)),
        (3, 3, 5, (-5, 4, 4)),
        (0, 0, 1, (0, 0, 0)),
        (-2, -2, 2, (-1, -1, 0)),
        (-3, -3, 1, (-1, -1, -1)),
    ],
)
def test_repeated_coordinates(sweep, s, c, bound, repeated):
    # sorted representatives with y = x or z = y sit on the triangle's edges
    triples = sweep(TripleSystem(s, c), bound)
    assert Triple(*repeated) in triples
    assert triples == _full_box(TripleSystem(s, c), bound)


@pytest.mark.parametrize("sign", [1, -1])
def test_int64_dispatch_boundary(sign):
    # c around 2^63, where the oracle once switched from int64 numpy to Python ints
    cases = [
        (5, 2**62 - 1),
        (5, 2**62),
        (5, 2**63),
        # (3, 3) has four solutions in the box, so c wrapped to 64 bits would find them
        (3, 3 + 2**64),
        (10**20, 10**60 + 7),
    ]
    for s, c in cases:
        system = TripleSystem(sign * s, sign * c)
        assert brute_force(system, 3) == _full_box(system, 3) == [], (s, c)


@pytest.mark.parametrize(
    "s, c, bound, sorted_hits",
    [
        # t = s - x is positive on rows x < s and negative on rows x > s
        (-6, -24, 12, [(-8, -8, 10), (-2, -2, -2)]),
        (-6, -126, 12, [(-8, -7, 9), (-5, -1, 0)]),
        # the row x = s has t = 0: a degenerate box hits every one of its columns
        (-3, -27, 5, [(-5, -3, 5), (-4, -3, 4), (-3, -3, 3), (-3, -2, 2), (-3, -1, 1), (-3, 0, 0)]),
        (0, 0, 0, [(0, 0, 0)]),
        (1, 1, 0, []),
        # |s| > 3 * bound leaves no row
        (10, 10, 3, []),
        (-10, -10, 3, []),
        (-10, -1000, 3, []),
    ],
)
def test_walk_edges(s, c, bound, sorted_hits):
    triples = brute_force(TripleSystem(s, c), bound)
    assert triples == _full_box(TripleSystem(s, c), bound)
    assert sorted({tuple(sorted(t.as_tuple())) for t in triples}) == sorted_hits


def test_agreement_with_solver_beyond_criterion_6():
    rng = random.Random(13)
    for _ in range(100):
        s, c = rng.randint(-30, 30), rng.randint(-(10**4), 10**4)
        system = TripleSystem(s, c)
        if not system.degenerate:
            assert brute_force(system, completeness_bound(system)) == list(solve(system).triples), (s, c)


@pytest.mark.parametrize(
    "s, c, bound, orbits",
    [
        (-40, 242858, 102326, 0),
        (1, 298621, 99541, 2),
        (-3, 298557, 99531, 2),
    ],
)
def test_agreement_with_solver_at_bound_near_1e5(s, c, bound, orbits):
    system = TripleSystem(s, c)
    assert completeness_bound(system) == bound
    triples = brute_force(system, bound)
    assert triples == list(solve(system).triples)
    assert len({tuple(sorted(t.as_tuple())) for t in triples}) == orbits


def _gallop_boxes():
    # boxes with bounds of 100 to 400, where runs of bracketed rows are long
    # enough to gallop over; s < 0 puts rows on both sides of x = s, and each
    # seeded box holds its planted triple if the triple fits
    rng = random.Random(2012)
    for _ in range(40):
        s, bound = rng.randint(-300, 300), rng.randint(100, 400)
        x, y = rng.randint(-bound, bound), rng.randint(-bound, bound)
        yield s, x**3 + y**3 + (s - x - y) ** 3, bound
    yield from [
        # t > 0 on every row, and one gallop skips 391 of them
        (3, 3, 400),
        # rows run past x = s into t < 0; the run of bracketed rows with
        # y = -53 ends on row -93, and row -92 has its hit on that column
        (-52, -123208, 100),
        # the run with y = -21 ends on row -75, and row -74 has its hit on
        # column y + 1 = -20
        (-25, -84715, 100),
        # a run ends on row s - 1 = -149; its probes of rows at and past
        # x = s find no bracket
        (-148, -3241796, 294),
        # a degenerate box: every column of the row x = s (t = 0) is a hit
        (-60, -216000, 100),
    ]


@pytest.mark.parametrize("s, c, bound", list(_gallop_boxes()))
def test_gallop_equals_triangle(s, c, bound):
    assert brute_force(TripleSystem(s, c), bound) == _sweep_python(TripleSystem(s, c), bound)
