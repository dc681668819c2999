"""Tests for the reduction solver."""

import hashlib
import itertools
import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetriples import solver, trace
from cubetriples.intmath import IncompleteFactorizationError, icbrt, signed_divisors
from cubetriples.oracle import brute_force
from cubetriples.solver import (
    CandidateZ,
    SolutionSet,
    Triple,
    TripleSystem,
    _closure,
    _discriminants,
    _span_solutions,
    candidate_zs,
    completeness_bound,
    solve,
    solve_quadratic_for_x,
    verify,
)
from cubetriples.trace import derive_trace

SYS33 = TripleSystem(3, 3)

# SHA-256 of json.dumps(solve(...).to_json_dict()) + "\n", the bytes of
# `solve --format json`, for s in [-12, 12], c in [-300, 300]
SOLVE_JSON_SWEEP_SHA256 = "ac6583f2f5e63d2d2bcf25e88fc2933309628af4d09e6bbf2a64ca7710f618e0"

# SHA-256 of the same lines over SMOOTH_SWEEP below
SMOOTH_SWEEP_SHA256 = "745f6bda1492853f8786e43ce73491b58db453a478459d508e809a1d28b08305"

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

systems = st.builds(
    TripleSystem,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
)

# kept small enough that the linear-scan oracles below stay fast
small_systems = st.builds(
    TripleSystem,
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-40, max_value=40),
)

# d0 = 3m with m != 0 of either sign.  Every pivot z with roots has
# |s^2 - z^2| <= 2|m|, so for |s| large against |m| an inner band of z is
# rootless as well; solve() does not rely on this, it tests only the pivots
# with |s - z| <= icbrt(|m|)
window_systems = st.builds(
    lambda s, m: TripleSystem(s, s**3 + 3 * m),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-300, max_value=300).filter(bool),
)

# d0 = +-3 * (product of 6-11 distinct primes <= 47): far more divisors of
# d0/3 lie above the solver's divisor limit than in a small-|d0| sweep
smooth_systems = st.builds(
    lambda s, sign, primes: TripleSystem(s, s**3 + sign * 3 * math.prod(primes)),
    st.integers(min_value=-50, max_value=50),
    st.sampled_from((1, -1)),
    st.lists(
        st.sampled_from(SMALL_PRIMES),
        min_size=6,
        max_size=11,
        unique=True,
    ),
)


def _system_of(triple: Triple) -> TripleSystem:
    return TripleSystem(sum(triple), sum(v**3 for v in triple))


def _planted_small_sum_triples() -> list[Triple]:
    """30 triples (x, y, s - x - y) with |s| <= 50 and |x|, |y| <= 3000 whose
    systems are not degenerate; the cap is then large against |s|, so the
    sign rule applies."""
    rng = random.Random(20123)
    found = []
    while len(found) < 30:
        s = rng.randint(-50, 50)
        x, y = rng.randint(-3000, 3000), rng.randint(-3000, 3000)
        triple = Triple(x, y, s - x - y)
        if not _system_of(triple).degenerate:
            found.append(triple)
    return found


PLANTED_SMALL_SUM = _planted_small_sum_triples()


def _smooth(rng: random.Random, count: int) -> int:
    """The product of count distinct primes <= 47, each to a power 1 to 3."""
    return math.prod(p ** rng.randint(1, 3) for p in rng.sample(SMALL_PRIMES, count))


def _smooth_sweep_systems() -> list[TripleSystem]:
    """1000 seeded systems with d0/3 = N smooth and icbrt(|N|) > 128, so
    solve() lists divisors by factoring N, not by direct division.

    Three in four take N = +-(3 to 6 prime powers) with |s| <= 20, where the
    sign rule applies, or |s| up to 4 icbrt(|N|), where it mostly does not.
    The fourth plants a solution: N = -abc with a, b, c smooth of either
    sign and s = (a + b + c)/2, so (s - a, s - b, s - c) solves the system;
    one in four of these has |a| = |b| = |c|, a pivot at the cap itself.
    """
    rng = random.Random(25)
    found = []
    while len(found) < 1000:
        if len(found) % 4 == 3:
            a, b, c = (rng.choice((1, -1)) * _smooth(rng, 2) for _ in range(3))
            if len(found) % 16 == 15:
                # |a| = |b| = |c| = icbrt(|N|): the solution's pivot is the cap
                b, c = rng.choice((1, -1)) * a, rng.choice((1, -1)) * a
            if (a + b + c) % 2:
                continue
            s = (a + b + c) // 2
            n = -a * b * c
        else:
            n = rng.choice((1, -1)) * _smooth(rng, rng.randint(3, 6))
            cap = icbrt(abs(n))
            s = rng.randint(-20, 20) if rng.random() < 0.5 else rng.randint(-4 * cap, 4 * cap)
        if icbrt(abs(n)) > 128:
            found.append(TripleSystem(s, s**3 + 3 * n))
    return found


SMOOTH_SWEEP = _smooth_sweep_systems()


def _side_cubic(system: TripleSystem) -> tuple[int, int, int]:
    """(L, a, 4|N|) with N = d0/3, L = icbrt(|N|) and a = s if N < 0 else -s:
    each pivot of the sign opposite to N's is k = +-t with 1 <= t <= L and
    t * D(k) = t(t - 2a)^2 - 4|N|."""
    n = system.d0 // 3
    return icbrt(abs(n)), system.s if n < 0 else -system.s, 4 * abs(n)


def _sign_rule_applies(system: TripleSystem) -> bool:
    """L(L - 2a)^2 < 4|N| with _side_cubic's L, a and N: the condition under
    which the sign rule of the solver docstring skips every pivot of the
    sign opposite to N's."""
    if system.d0 % 3 != 0:
        return False
    cap, a, n4 = _side_cubic(system)
    return cap * (cap - 2 * a) ** 2 < n4


def _divisors_inside_cap(system: TripleSystem) -> list[int]:
    """The positive divisors d <= icbrt(|d0/3|) of d0/3, from the full
    signed divisor list rather than the solver's capped generator."""
    n = system.d0 // 3
    cap = icbrt(abs(n))
    return [d for d in signed_divisors(n) if 0 < d <= cap]


def _assert_opposite_sign_pivots_rootless(system: TripleSystem) -> None:
    n = system.d0 // 3
    opposite = [-d if n > 0 else d for d in _divisors_inside_cap(system)]
    for k, discriminant in zip(opposite, _discriminants(system.s, n, opposite)):
        assert discriminant < 0, (system, k)


def _listed_pivots(system: TripleSystem) -> list[int]:
    """The pivots k the sign rule leaves, from _divisors_inside_cap: each
    divisor d as k = d and k = -d, or only with the sign of N = d0/3 where
    _sign_rule_applies."""
    divisors = _divisors_inside_cap(system)
    if _sign_rule_applies(system):
        return [d if system.d0 > 0 else -d for d in divisors]
    return divisors + [-d for d in divisors]


def _residue_keeps(s: int, n: int, k: int) -> bool:
    """Whether the residue rule keeps the pivot k | n, decided from its
    discriminant D = (k - 2s)^2 + 4n/k itself rather than from the solver's
    table: the rule drops k when D = 5 (mod 8), or when 3 does not divide k
    and D mod 9 is not in {0, 1, 4, 7}, the squares mod 9."""
    discriminant = (k - 2 * s) ** 2 + 4 * (n // k)
    return not (discriminant % 8 == 5 or (k % 3 and discriminant % 9 not in (0, 1, 4, 7)))


def _residue_tested(system: TripleSystem) -> list[int]:
    """The listed pivots the residue rule keeps: the pivots solve tests."""
    n = system.d0 // 3
    return [k for k in _listed_pivots(system) if _residue_keeps(system.s, n, k)]


def _assert_plan_follows_the_rule(system: TripleSystem) -> bool:
    """Check solver._tested_ks on a non-degenerate system with 3 | d0: it
    applies the sign rule exactly where _sign_rule_applies does, and where
    it does, t(t - 2a)^2 < 4|N| for every integer 1 <= t <= L, not only for
    divisors, and every skipped divisor has a negative discriminant.  It
    lists the _listed_pivots and tests exactly those that _residue_keeps,
    and its shift is _side_cubic's a.  Returns whether the sign rule
    applied."""
    _, cap, shift, signs, divisors, ks = solver._tested_ks(system.s, system.d0)
    assert shift == _side_cubic(system)[1], system
    one_sign = len(signs) == 1
    assert one_sign is _sign_rule_applies(system), system
    listed = [sign * d for sign in signs for d in divisors]
    assert sorted(listed) == sorted(_listed_pivots(system)), system
    assert sorted(ks) == sorted(_residue_tested(system)), system
    if not one_sign:
        return False
    _, a, n4 = _side_cubic(system)
    assert all(t * (t - 2 * a) ** 2 < n4 for t in range(1, cap + 1)), system
    _assert_opposite_sign_pivots_rootless(system)
    return True


def _count_pivots_fed(monkeypatch) -> list[int]:
    """Wrap solver._discriminants, and the name trace imports it under; the
    returned list collects the number of pivots each call is fed."""
    fed: list[int] = []
    original = solver._discriminants

    def counting(s, reduced, ks):
        ks = list(ks)
        fed.append(len(ks))
        return original(s, reduced, ks)

    monkeypatch.setattr(solver, "_discriminants", counting)
    monkeypatch.setattr(trace, "_discriminants", counting)
    return fed


def _count_plans(monkeypatch) -> list[tuple[int, int]]:
    """Wrap solver._tested_ks, and the name trace imports it under; the
    returned list collects the (s, d0) of each call."""
    calls: list[tuple[int, int]] = []
    original = solver._tested_ks

    def counting(s, d0):
        calls.append((s, d0))
        return original(s, d0)

    monkeypatch.setattr(solver, "_tested_ks", counting)
    monkeypatch.setattr(trace, "_tested_ks", counting)
    return calls


def _every_pivot_fold(system: TripleSystem) -> SolutionSet:
    return SolutionSet.finite(
        _closure(
            system.s,
            ((cand.z, solve_quadratic_for_x(cand, system)) for cand in candidate_zs(system)),
        )
    )


def _quadratic_roots_by_scan(candidate: CandidateZ, system: TripleSystem) -> list[int]:
    # any root satisfies |x| <= (|k| + sqrt(disc)) / 2, so scanning that
    # window by substitution is exhaustive
    constant = system.s * candidate.z + candidate.d
    disc = candidate.k * candidate.k + 4 * constant
    radius = 2 if disc < 0 else (abs(candidate.k) + math.isqrt(disc)) // 2 + 2
    return [
        x
        for x in range(-radius, radius + 1)
        if x * x - candidate.k * x - constant == 0
    ]


def _solutions_by_bisection(system: TripleSystem) -> tuple[Triple, ...]:
    """The sorted solutions of a non-degenerate system, found without any
    divisor, factoring, discriminant or square root.

    Every solution has a coordinate w with 0 < |a| <= L = icbrt(|d0/3|),
    a = s - w (the identity in the solver docstring), and its other two
    coordinates are x <= a/2 and a - x.  g(x) = x^3 + (a - x)^3 is strictly
    monotone on x <= a/2, falling for a > 0 and rising for a < 0, so
    bisection finds the one x, if any, with g(x) = c - w^3.
    """
    s, c = system.s, system.c
    cap = icbrt(abs(system.d0) // 3)
    found: set[tuple[int, int, int]] = set()
    for a in range(-cap, cap + 1):
        if a == 0:
            continue
        w = s - a
        # h(x) = sign * g(x) rises strictly on x <= a/2, toward -inf leftward
        sign = -1 if a > 0 else 1
        target = sign * (c - w**3)
        hi = a // 2
        if sign * (hi**3 + (a - hi) ** 3) < target:
            continue
        lo, step = hi, 1
        while sign * (lo**3 + (a - lo) ** 3) > target:
            lo, step = hi - step, 2 * step
        # h(lo) <= target <= h(hi): find the largest x with h(x) <= target
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if sign * (mid**3 + (a - mid) ** 3) <= target:
                lo = mid
            else:
                hi = mid - 1
        if lo**3 + (a - lo) ** 3 == c - w**3:
            found.update(itertools.permutations((lo, a - lo, w)))
    return tuple(Triple(*t) for t in sorted(found))


class TestCandidateZs:
    def test_known_instance_pivots(self):
        cands = candidate_zs(SYS33)
        assert [c.z for c in cands] == [-5, -1, 1, 2, 4, 5, 7, 11]
        assert [c.k for c in cands] == [8, 4, 2, 1, -1, -2, -4, -8]
        assert [c.d for c in cands] == [-1, -2, -4, -8, 8, 4, 2, 1]
        assert all(c.d * 3 * c.k == -24 for c in cands)

    def test_known_instance_negative_pivots(self):
        assert [c.z for c in candidate_zs(SYS33) if c.z < 0] == [-5, -1]

    def test_small_instance(self):
        cands = candidate_zs(TripleSystem(2, 2))
        assert [(c.z, c.k) for c in cands] == [(0, 2), (1, 1), (3, -1), (4, -2)]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            candidate_zs(TripleSystem(1, 1))

    @given(small_systems)
    def test_matches_direct_divisibility_scan(self, system):
        if system.degenerate:
            return
        bound = completeness_bound(system)
        expected = [
            z
            for z in range(-bound, bound + 1)
            if z != system.s and system.d0 % (3 * (system.s - z)) == 0
        ]
        cands = candidate_zs(system)
        assert [c.z for c in cands] == expected
        for c in cands:
            assert c.z == system.s - c.k
            assert c.d * 3 * c.k == system.d0


class TestSolveQuadraticForX:
    def test_known_double_root(self):
        cand = candidate_zs(SYS33)[0]
        assert cand.z == -5
        assert solve_quadratic_for_x(cand, SYS33) == [4]

    def test_known_rejected_pivot(self):
        cand = candidate_zs(SYS33)[1]
        assert cand.z == -1
        assert solve_quadratic_for_x(cand, SYS33) == []

    def test_two_roots(self):
        cand = [c for c in candidate_zs(TripleSystem(2, 2)) if c.z == 1][0]
        assert solve_quadratic_for_x(cand, TripleSystem(2, 2)) == [0, 1]

    @given(small_systems)
    def test_matches_root_scan(self, system):
        if system.degenerate:
            return
        for cand in candidate_zs(system):
            roots = solve_quadratic_for_x(cand, system)
            assert roots == _quadratic_roots_by_scan(cand, system)

    @given(window_systems)
    @example(TripleSystem(20, 20**3 + 15))
    @example(TripleSystem(-20, -(20**3) - 15))
    def test_no_roots_outside_pivot_window(self, system):
        limit = 2 * abs(system.d0 // 3)
        for cand in candidate_zs(system):
            if abs(system.s**2 - cand.z**2) > limit:
                assert solve_quadratic_for_x(cand, system) == []

    @settings(deadline=None)
    @given(st.one_of(window_systems, smooth_systems))
    @example(SYS33)
    def test_every_solution_has_a_pivot_inside_the_cap(self, system):
        # the solutions come from every admissible pivot, not from solve()
        cap = icbrt(abs(system.d0 // 3))
        every_pivot = SolutionSet.finite(
            _closure(
                system.s,
                ((cand.z, solve_quadratic_for_x(cand, system)) for cand in candidate_zs(system)),
            )
        )
        for triple in every_pivot.triples:
            assert min(abs(system.s - w) for w in triple.as_tuple()) <= cap, triple

    def test_solution_whose_only_pivot_is_on_the_cap(self):
        # d0/3 = -8: every coordinate of (1, 1, 1) has k = 3 - 1 = 2 = icbrt(8),
        # so a cap one lower loses that solution
        assert icbrt(abs(SYS33.d0 // 3)) == 2
        assert Triple(1, 1, 1) in solve(SYS33).triples

    @pytest.mark.parametrize(
        "s,c,k,edge",
        [
            (-18, -5940, 1, "s + R"),  # the upper end of the |s^2 - z^2| <= 2|d0/3| window
            (-18, -5718, -38, "s - R"),  # the lower end, with |k| = R + |s|
            (-27, -5745, -101, "|k| > R"),  # above R, below R + |s| = 127
        ],
    )
    def test_rooted_pivot_on_window_edge(self, s, c, k, edge):
        system = TripleSystem(s, c)
        reach = math.isqrt(s * s + 2 * abs(system.d0 // 3))
        assert {"s + R": k == s + reach, "s - R": k == s - reach, "|k| > R": abs(k) > reach}[edge]
        (cand,) = [cand for cand in candidate_zs(system) if cand.k == k]
        roots = solve_quadratic_for_x(cand, system)
        assert roots
        # solve() tests no pivot outside the cube-root cap, so a solution
        # rooted there must come back through a coordinate inside it
        cap = icbrt(abs(system.d0 // 3))
        found = solve(system).triples
        for x in roots:
            triple = Triple(x, s - cand.z - x, cand.z)
            assert triple in found
            assert min(abs(s - w) for w in triple.as_tuple()) <= cap, triple


class TestSignRule:
    """The inequality behind solve()'s sign rule, checked pivot by pivot
    whatever solve() does, the plan _tested_ks makes against it, and solve()
    at the rule's exact boundary."""

    @given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=-(10**14), max_value=10**14))
    @example(n=8000, a=30)
    @example(n=8, a=3)
    @example(n=7, a=2)
    @example(n=101**3, a=151)
    def test_local_maximum_never_decides(self, n, a):
        # for a > 0, t(t - 2a)^2 peaks at t = 2a/3 with 32a^3/27; that peak
        # lies past L when 3L <= 2a, and is below 4L^3 <= 4n otherwise, so
        # L(L - 2a)^2 < 4n alone decides the rule
        cap = icbrt(n)
        assert 3 * cap <= 2 * a or 32 * a**3 < 108 * n

    def test_tested_pivots_on_reference_grid(self):
        # the sign rule skips one side at 12 570 of the 13 490 points with
        # 3 | d0, and leaves 45 218 pivots; the residue rule drops 27 548 of
        # them, and 17 670 are left to test
        plans = [
            solver._tested_ks(s, c - s**3) for s in range(-50, 51) for c in range(-200, 201) if c != s**3
        ]
        plans = [plan for plan in plans if plan is not None]
        assert len(plans) == 13490
        assert sum(len(signs) == 1 for _, _, _, signs, _, _ in plans) == 12570
        assert sum(len(signs) * len(divisors) for _, _, _, signs, divisors, _ in plans) == 45218
        assert sum(len(ks) for _, _, _, _, _, ks in plans) == 17670

    def test_opposite_sign_pivots_rootless_on_sweep(self):
        # fired counts the points where the rule applies, and wide those of
        # them with a > 0, where (t - 2a)^2 < (t + 2|s|)^2
        fired = wide = 0
        for s in range(-30, 31):
            for c in range(-600, 601):
                system = TripleSystem(s, c)
                if system.degenerate or system.d0 % 3:
                    continue
                if _assert_plan_follows_the_rule(system):
                    fired += 1
                    wide += _side_cubic(system)[1] > 0
        assert 0 < wide < fired

    @settings(deadline=None)
    @given(st.one_of(window_systems, smooth_systems))
    @example(TripleSystem(-2, 10))
    @example(TripleSystem(-1, 23))
    def test_opposite_sign_pivots_rootless_on_smooth_d0(self, system):
        # smooth d0 and, through window_systems, |s| large against |d0|
        if not system.degenerate and system.d0 % 3 == 0:
            _assert_plan_follows_the_rule(system)

    def test_opposite_sign_pivots_rootless_on_planted_systems(self):
        for triple in PLANTED_SMALL_SUM:
            system = _system_of(triple)
            assert _sign_rule_applies(system), system
            _assert_opposite_sign_pivots_rootless(system)

    @pytest.mark.parametrize(
        "s,c,solutions,applies",
        [
            # a = -2: L(L - 2a)^2 = 2 * 6^2 = 72 = 4|N| exactly, so the rule must not apply
            (2, 62, 9, False),
            (-2, -62, 9, False),
            # a = -8: 15 * 31^2 = 14415 < 4|N| = 14416, a margin of one
            (8, 11324, 6, True),
            (-8, -11324, 6, True),
            # a = 30 > 0: L(L - 2a)^2 = 20 * 40^2 = 32000 = 4|N| and
            # 32a^3 = 864000 = 108|N| exactly, so the rule must not apply
            (-30, -3000, 10, False),
            (30, 3000, 10, False),
            # a = 28: 18 * 38^2 = 25992 = 4|N| exactly, with 3L = 54 <= 2a
            (-28, -2458, 9, False),
            (28, 2458, 9, False),
            # a = 30: 19 * 41^2 = 31939 < 4|N| = 31940, a margin of one
            (-30, -3045, 0, True),
            (30, 3045, 0, True),
        ],
    )
    def test_boundary(self, monkeypatch, s, c, solutions, applies):
        system = TripleSystem(s, c)
        assert _sign_rule_applies(system) is applies
        fed = _count_pivots_fed(monkeypatch)
        result = solve(system)
        divisors = len(_divisors_inside_cap(system))
        assert len(_listed_pivots(system)) == (divisors if applies else 2 * divisors)
        assert fed == [len(_residue_tested(system))]
        assert len(result.triples) == solutions
        assert result == _every_pivot_fold(system)
        assert result.triples == _solutions_by_bisection(system)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pivot_count_on_primorial_47(self, monkeypatch, sign):
        primorial = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
        system = TripleSystem(0, sign * 3 * primorial)
        fed = _count_pivots_fed(monkeypatch)
        solve(system)
        # N is even, so the mod 8 case never applies, and with 3 | N and
        # s = 0 every k prime to 3 has D = k^2 + 4N/k = 1 (mod 3), a square
        # mod 9: the residue rule drops no pivot
        assert fed == [len(_residue_tested(system))] == [len(_divisors_inside_cap(system))]


def _smooth_signed(sign: int, exponents: tuple[int, ...]) -> int:
    return sign * math.prod(p**e for p, e in zip(SMALL_PRIMES, exponents))


# N = d0/3 of either sign and parity, with 3 | N or not, and up to 1024
# divisors, at s of any size
residue_systems = st.builds(
    lambda s, sign, exponents: TripleSystem(s, s**3 + 3 * _smooth_signed(sign, exponents)),
    st.integers(min_value=-(10**15), max_value=10**15),
    st.sampled_from((1, -1)),
    st.tuples(*2 * [st.integers(0, 3)], *6 * [st.integers(0, 1)]),
)

# (s - u, s - v, s - w) solves the system with s = (u + v + w)/2 and
# N = -uvw, so the pivots k = u, v and w have square discriminants
planted_residue_systems = (
    st.tuples(*3 * [st.builds(_smooth_signed, st.sampled_from((1, -1)), st.tuples(*6 * [st.integers(0, 1)]))])
    .filter(lambda uvw: sum(uvw) % 2 == 0)
    .map(lambda uvw: TripleSystem(sum(uvw) // 2, (sum(uvw) // 2) ** 3 - 3 * math.prod(uvw)))
)


class TestResidueRule:
    """The residue rule of _tested_ks: its table against the discriminant
    itself, class by class, and against every square discriminant."""

    def test_every_table_against_its_discriminants(self):
        # for each s mod 9, N mod 18 and k mod 18 that some k | N reaches,
        # D = (k - 2s)^2 + 4N/k at representatives k = r (18 for r = 0) and
        # r - 18, s = s9 and s9 - 9, and N/k = 1..18: the rule's condition,
        # D = 5 (mod 8) or 3 not dividing k and D mod 9 not in {0, 1, 4, 7},
        # is the same at every representative, and the table drops exactly
        # where it holds
        reached = 0
        for s9 in range(9):
            for n18 in range(18):
                table = solver._residue_table(s9, n18)
                assert len(table) == 18
                for r in range(18):
                    drops = {
                        ((k - 2 * s) ** 2 + 4 * m) % 8 == 5
                        or (k % 3 != 0 and ((k - 2 * s) ** 2 + 4 * m) % 9 not in (0, 1, 4, 7))
                        for k in (r or 18, r - 18)
                        for s in (s9, s9 - 9)
                        for m in range(1, 19)
                        if k * m % 18 == n18
                    }
                    if drops:
                        reached += 1
                        assert drops == {not table[r]}, (s9, n18, r)
        # some k | N has k = r and N = n18 (mod 18) iff gcd(r, 18) divides n18
        assert reached == 9 * sum(18 // math.gcd(r, 18) for r in range(18)) == 1647

    @settings(deadline=None)
    @given(st.one_of(residue_systems, planted_residue_systems))
    @example(TripleSystem(3, 3))
    @example(TripleSystem(-5, -5 ** 3 + 3 * 2 * 3**3 * 5 * 7))
    def test_never_drops_a_square(self, system):
        # the table at every signed divisor of N, not only those inside the
        # cap, and the plan at the listed pivots it drops
        n = system.d0 // 3
        table = solver._residue_table(system.s % 9, n % 18)
        for k in signed_divisors(n):
            discriminant = (k - 2 * system.s) ** 2 + 4 * (n // k)
            if discriminant >= 0 and math.isqrt(discriminant) ** 2 == discriminant:
                assert table[k % 18], (system, k)
        _, _, _, signs, divisors, ks = solver._tested_ks(system.s, system.d0)
        dropped = sorted({sign * d for sign in signs for d in divisors} - set(ks))
        for k, discriminant in zip(dropped, _discriminants(system.s, n, dropped)):
            assert discriminant < 0 or math.isqrt(discriminant) ** 2 != discriminant, (system, k)

    def test_tables_are_built_on_first_use(self):
        # import and systems with 3 not dividing d0 build no table; the
        # reference grid builds at most one per (s mod 9, N mod 18)
        probe = """
from cubetriples import solver
from cubetriples.solver import TripleSystem, solve
sizes = [solver._residue_table.cache_info().currsize]
solve(TripleSystem(0, 4))
sizes.append(solver._residue_table.cache_info().currsize)
for s in range(-50, 51):
    for c in range(-200, 201):
        solve(TripleSystem(s, c))
sizes.append(solver._residue_table.cache_info().currsize)
print(*sizes)
"""
        ran = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
        assert ran.stdout.split() == ["0", "0", "162"]


class TestOneDiscriminant:
    @given(
        st.integers(min_value=-(2**80), max_value=2**80),
        st.integers(min_value=1, max_value=2**70),
        st.integers(min_value=-(2**70), max_value=2**70).filter(bool),
    )
    @example(s=-7, k=2**33 + 1, m=-(2**40 + 3))
    @example(s=10**20, k=3, m=2**66 + 1)
    def test_matches_the_expanded_formula(self, s, k, m):
        # k^2 + 4*constant with constant = s*z + reduced/k and z = s - k, for
        # divisors of both signs of a reduced of either sign, up past 2^64
        reduced = k * m
        ks = [k, -k, m, -m, 1, -1, reduced]
        expected = [d * d + 4 * (s * (s - d) + reduced // d) for d in ks]
        assert _discriminants(s, reduced, ks) == expected

    def test_every_pivot_test_reaches_the_one_formula(self, monkeypatch):
        # solve, the trace and solve_quadratic_for_x all test pivots, and each
        # must get its discriminants from solver._discriminants; candidate_zs
        # only lists the pivots
        fed = _count_pivots_fed(monkeypatch)
        candidates = candidate_zs(SYS33)
        assert fed == []
        assert len(solve(SYS33).triples) == 4
        assert len(fed) == 1
        assert len(derive_trace(SYS33)) > 0
        assert len(fed) == 2
        assert solve_quadratic_for_x(candidates[0], SYS33) == [4]
        assert fed[2:] == [1]


class TestOnePivotPlan:
    # 3 divides d0 at a third of these points; c = s^3 at s in [-3, 3]
    SWEEP = [TripleSystem(s, c) for s in range(-4, 5) for c in range(-30, 31)]

    def test_solve_and_trace_each_plan_once(self, monkeypatch):
        calls = _count_plans(monkeypatch)
        assert {system.d0 % 3 for system in self.SWEEP} == {0, 1, 2}
        assert sum(system.degenerate for system in self.SWEEP) == 7
        for system in self.SWEEP:
            expected = [] if system.degenerate else [(system.s, system.d0)]
            for run in (solve, derive_trace):
                del calls[:]
                run(system)
                assert calls == expected, (run.__name__, system)

    def test_an_empty_plan_empties_solve_and_trace(self, monkeypatch):
        # (3, 3) has four solutions; a plan of no pivot must leave none in
        # either caller, whatever 3 | d0 says, and trace's substitute step
        # then takes the form for 3 not dividing d0
        monkeypatch.setattr(solver, "_tested_ks", lambda s, d0: None)
        monkeypatch.setattr(trace, "_tested_ks", lambda s, d0: None)
        assert solve(SYS33) == SolutionSet.finite(())
        steps = derive_trace(SYS33)
        assert [step.equation_text for step in steps[-2:]] == ["Z in {}", "(X, Y, Z) in {}"]
        (substitute,) = [step for step in steps if step.label == "substitute"]
        assert substitute.equation_text.endswith(" = 24/(3(Z - 3))"), substitute


class TestCompletenessBound:
    @pytest.mark.parametrize(
        "s,c,expected", [(3, 3, 11), (2, 2, 4), (0, 3, 1), (-20, 20, 2693)]
    )
    def test_examples(self, s, c, expected):
        assert completeness_bound(TripleSystem(s, c)) == expected

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            completeness_bound(TripleSystem(2, 8))

    @given(systems)
    def test_contains_every_solution(self, system):
        if system.degenerate:
            return
        bound = completeness_bound(system)
        result = solve(system)
        for triple in result.triples:
            assert max(abs(v) for v in triple.as_tuple()) <= bound


class TestVerify:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            (Triple(1, 1, 1), True),
            (Triple(4, 4, -5), True),
            (Triple(-5, 4, 4), True),
            (Triple(4, 4, 5), False),
            (Triple(0, 0, 3), False),
        ],
    )
    def test_known_instance(self, triple, expected):
        assert verify(triple, SYS33) is expected


class TestSolve:
    def test_known_instance(self):
        result = solve(SYS33)
        assert result.kind == "finite"
        assert [t.as_tuple() for t in result.triples] == [
            (-5, 4, 4),
            (1, 1, 1),
            (4, -5, 4),
            (4, 4, -5),
        ]

    def test_degenerate_instance(self):
        result = solve(TripleSystem(1, 1))
        assert result.kind == "infinite_family"
        assert result.family_anchor == 1
        assert result.triples is None

    def test_small_instance(self):
        result = solve(TripleSystem(2, 2))
        assert [t.as_tuple() for t in result.triples] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_empty_instance(self):
        assert solve(TripleSystem(0, 3)).triples == ()

    def test_no_factoring_when_three_does_not_divide_d0(self):
        # d0 = 1000003 * 1000033: both primes lie above the trial limit, so
        # factoring d0 would fail, but d0 = 1 (mod 3) admits no pivot at all
        assert solve(TripleSystem(0, 1000036000099)) == SolutionSet.finite(())

    def test_window_matches_fold_over_every_pivot(self):
        for s in range(-30, 31):
            for c in range(-600, 601):
                system = TripleSystem(s, c)
                if system.degenerate:
                    continue
                every_pivot = SolutionSet.finite(
                    _closure(
                        s, ((cand.z, solve_quadratic_for_x(cand, system)) for cand in candidate_zs(system))
                    )
                )
                assert solve(system).to_json_dict() == every_pivot.to_json_dict(), (s, c)

    @settings(deadline=None)
    @given(smooth_systems)
    def test_smooth_d0_matches_fold_over_every_pivot(self, system):
        every_pivot = SolutionSet.finite(
            _closure(
                system.s,
                ((cand.z, solve_quadratic_for_x(cand, system)) for cand in candidate_zs(system)),
            )
        )
        assert solve(system).to_json_dict() == every_pivot.to_json_dict()

    def test_cap_below_trial_limit_needs_no_cofactor(self):
        # d0/3 = 1000003 * 1000033 does not factor by trial division, but
        # trial division to its cube-root cap 10**4 proves its only divisor
        # up to the cap is 1; candidate_zs lists every divisor, so it needs
        # the cofactor certified and raises
        assert solve(TripleSystem(0, 3000108000297)) == SolutionSet.finite(())
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            candidate_zs(TripleSystem(0, 3000108000297))
        assert excinfo.value.cofactor == 1000003 * 1000033

    def test_incomplete_factorization_raises(self):
        # d0/3 = 2 * 1000003 * 1000033 * 1000037: the cap, about 1.26e6, lies
        # above the trial limit, and the cofactor left there is composite
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            solve(TripleSystem(0, 6 * 1000003 * 1000033 * 1000037))
        assert excinfo.value.cofactor == 1000003 * 1000033 * 1000037

    def test_incomplete_factorization_past_the_digit_cap(self):
        # d0/3 = -9m^3 has over 4300 digits, too many for int->str by
        # default; the error carries it unformatted instead of failing
        m = 10**1500 + 7
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            solve(TripleSystem(3 * m, 0))
        assert excinfo.value.n == -9 * m**3

    def test_deterministic_output(self):
        a = solve(SYS33)
        b = solve(SYS33)
        assert a == b
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    def test_json_sweep_bytes_pinned(self):
        digest = hashlib.sha256()
        for s in range(-12, 13):
            for c in range(-300, 301):
                line = json.dumps(solve(TripleSystem(s, c)).to_json_dict()) + "\n"
                digest.update(line.encode())
        assert digest.hexdigest() == SOLVE_JSON_SWEEP_SHA256

    def test_smooth_sweep_bytes_pinned(self):
        # the divisor lists built from prime powers, past direct division:
        # both signs of d0/3, both sign-rule regimes, and planted solutions
        regimes = {_sign_rule_applies(system) for system in SMOOTH_SWEEP}
        assert regimes == {True, False}
        assert {system.d0 > 0 for system in SMOOTH_SWEEP} == {True, False}
        digest = hashlib.sha256()
        found = 0
        for system in SMOOTH_SWEEP:
            result = solve(system)
            found += bool(result.triples)
            digest.update((json.dumps(result.to_json_dict()) + "\n").encode())
        assert found >= 250
        assert digest.hexdigest() == SMOOTH_SWEEP_SHA256

    @given(systems)
    def test_degenerate_detection(self, system):
        result = solve(system)
        assert (result.kind == "infinite_family") == (system.c == system.s**3)

    @given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-100, max_value=100))
    def test_family_members_verify(self, s, t):
        system = TripleSystem(s, s**3)
        assert solve(system).family_anchor == s
        assert verify(Triple(s, t, -t), system)

    @given(systems)
    def test_soundness_closure_and_order(self, system):
        result = solve(system)
        if result.kind == "infinite_family":
            return
        triples = result.triples
        assert list(triples) == sorted(set(triples))
        for triple in triples:
            assert verify(triple, system)
            assert triple.permutations() <= set(triples)

    @settings(deadline=None)
    @given(
        st.builds(
            TripleSystem,
            st.integers(min_value=-8, max_value=8),
            st.integers(min_value=-8, max_value=8),
        )
    )
    def test_agrees_with_brute_force(self, system):
        if system.degenerate:
            return
        expected = brute_force(system, completeness_bound(system))
        assert list(solve(system).triples) == expected


class TestDivisorFreeCrossCheck:
    """solve against _solutions_by_bisection, which shares no divisor or
    factoring code with it, also where |d0| is far beyond the oracle's reach."""

    def test_small_grid(self):
        for s in range(-12, 13):
            for c in range(-120, 121):
                system = TripleSystem(s, c)
                if not system.degenerate:
                    assert solve(system).triples == _solutions_by_bisection(system), (s, c)

    def test_planted_triples(self):
        rng = random.Random(20121)
        for _ in range(30):
            x, y, z = (rng.randint(-3000, 3000) for _ in range(3))
            system = TripleSystem(x + y + z, x**3 + y**3 + z**3)
            if system.degenerate:
                continue
            triples = _solutions_by_bisection(system)
            assert Triple(x, y, z) in triples
            assert solve(system).triples == triples, (x, y, z)

    def test_planted_triples_with_small_sum(self):
        # |s| <= 50 against coordinates up to 3000: solve() applies the sign
        # rule on every one of these systems
        for planted in PLANTED_SMALL_SUM:
            system = _system_of(planted)
            triples = _solutions_by_bisection(system)
            assert planted in triples
            assert solve(system).triples == triples, planted

    @pytest.mark.parametrize(
        "s, a, b",
        [
            (0, 1031, 1033),
            (-50, 1031, 2969),
            (17, 2969, 2971),
            (50, 2971, 1039),
            (-3, 5113, 1031),
            (29, 5119, 1049),
            (-41, 7411, 1051),
            (8, 2971, 5113),
        ],
    )
    def test_planted_offsets_from_the_prime_blocks(self, s, a, b):
        # the offsets s - x = a and s - y = b are primes past 1021, among
        # them the first and last of the first three blocks of 256 primes,
        # and the cap lies in [1300, 4967]: trial division finds them by a
        # gcd with a block's product
        planted = Triple(s - a, s - b, a + b - s)
        system = _system_of(planted)
        triples = _solutions_by_bisection(system)
        assert planted in triples
        assert solve(system).triples == triples, planted

    def test_cap_up_to_ten_thousand(self):
        # |d0/3| in [10^11, 10^12], so the pivot cap L lies in [4641, 10^4]
        rng = random.Random(20122)
        for _ in range(10):
            s = rng.randint(-50, 50)
            m = rng.choice((1, -1)) * rng.randint(10**11, 10**12)
            system = TripleSystem(s, s**3 + 3 * m)
            assert solve(system).triples == _solutions_by_bisection(system), (s, m)

    def test_one_n_span_walk_at_large_caps(self):
        # _span_solutions on a span of one N with top = icbrt(|N|), which
        # scan enumerates only up to a cap of ENUMERATION_RATIO, at caps up
        # to 10^4; half the systems are planted with a least coordinate at
        # or near the cap, and every sign of s and of N occurs.  Then on
        # seeded spans of several N, some of them across N = 0, where every
        # N of the span must get solve's triples, and N = 0 none
        rng = random.Random(20124)
        systems = []
        while len(systems) < 1200:
            t = rng.randint(1, 10**4)
            if len(systems) % 2:
                s = rng.randint(-2 * t, 2 * t)
                n = rng.choice((1, -1)) * rng.randint(t**3, (t + 1) ** 3 - 1)
            else:
                # (u, v, w) = (s - X, s - Y, s - Z) with |w| = t least
                u, v, w = ((t + rng.randint(0, 3) * (i < 2)) * rng.choice((-1, 1)) for i in range(3))
                if (u + v + w) % 2:
                    continue
                s, n = (u + v + w) // 2, -u * v * w
            systems.append((s, n))
        found = 0
        for s, n in systems:
            walked = _span_solutions(s, n, n, icbrt(abs(n)))(n)
            assert walked == solve(TripleSystem(s, s**3 + 3 * n)).triples, (s, n)
            found += bool(walked)
        assert {(s > 0, n > 0) for s, n in systems if s} == set(itertools.product((False, True), repeat=2))
        assert found >= 600
        spans = []
        while len(spans) < 300:
            if len(spans) % 2:
                s = rng.randint(-300, 300)
                n = rng.choice((1, -1)) * rng.randint(0, 10**rng.randint(1, 7))
            else:
                # a planted solution with (u, v, w) = (s - X, s - Y, s - Z)
                u, v, w = (rng.choice((-1, 1)) * rng.randint(1, 1000) for _ in range(3))
                if (u + v + w) % 2:
                    continue
                s, n = (u + v + w) // 2, -u * v * w
            spans.append((s, n - rng.randint(0, 20), n + rng.randint(0, 20)))
        found = 0
        for s, n_lo, n_hi in spans:
            triples_of = _span_solutions(s, n_lo, n_hi, icbrt(max(-n_lo, n_hi, 1)))
            for n in range(n_lo, n_hi + 1):
                expected = solve(TripleSystem(s, s**3 + 3 * n)).triples if n else ()
                assert triples_of(n) == expected, (s, n_lo, n_hi, n)
                found += bool(expected)
        assert sum(n_lo <= 0 <= n_hi for _, n_lo, n_hi in spans) >= 10
        assert found >= 150


class TestSolutionSetJson:
    def test_finite_round_trip(self):
        original = solve(SYS33)
        data = json.loads(json.dumps(original.to_json_dict()))
        assert SolutionSet.from_json_dict(data) == original

    def test_infinite_round_trip(self):
        original = solve(TripleSystem(-7, -343))
        data = json.loads(json.dumps(original.to_json_dict()))
        assert SolutionSet.from_json_dict(data) == original

    def test_unknown_kind_rejected(self):
        for data in [
            {"kind": "mystery"},
            # anything else to_json_dict cannot write
            [],
            "finite",
            None,
            {},
            {"kind": "finite"},
            {"kind": "infinite_family"},
            {"kind": "finite", "solutions": None},
            {"kind": "finite", "solutions": (1, 2, 3)},
            {"kind": "finite", "solutions": [1, 2, 3]},
            {"kind": "finite", "solutions": [[1, 2]]},
            {"kind": "finite", "solutions": [[1, 2, 3, 4]]},
            {"kind": "finite", "solutions": [[1.5, 2, 3]]},
            {"kind": "finite", "solutions": [[True, 2, 3]]},
            {"kind": "finite", "solutions": [["12", 2, 3]]},
            {"kind": "finite", "solutions": ["123"]},
            {"kind": "infinite_family", "family_anchor": 1.5},
            {"kind": "infinite_family", "family_anchor": True},
            {"kind": "infinite_family", "family_anchor": "12"},
            {"kind": "infinite_family", "family_anchor": None},
            # keys to_json_dict never writes for the kind
            {"kind": "finite", "solutions": [], "family_anchor": 5},
            {"kind": "infinite_family", "family_anchor": 3, "solutions": [[1, 2, 3]]},
        ]:
            with pytest.raises(ValueError):
                SolutionSet.from_json_dict(data)
