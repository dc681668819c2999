"""Tests for the reduction solver."""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetriples import solver
from cubetriples.intmath import IncompleteFactorizationError, icbrt, signed_divisors
from cubetriples.oracle import brute_force
from cubetriples.solver import (
    CandidateZ,
    SolutionSet,
    Triple,
    TripleSystem,
    _closure,
    _pivot_pass,
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
        st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
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


def _sign_rule_applies(system: TripleSystem) -> bool:
    """L(L + 2|s|)^2 < 4|N| with N = d0/3 and L = icbrt(|N|): the condition
    under which the sign rule of the solver docstring skips every pivot of
    the sign opposite to N's."""
    if system.d0 % 3 != 0:
        return False
    n = abs(system.d0 // 3)
    cap = icbrt(n)
    return cap * (cap + 2 * abs(system.s)) ** 2 < 4 * n


def _divisors_inside_cap(system: TripleSystem) -> list[int]:
    """The positive divisors d <= icbrt(|d0/3|) of d0/3, from the full
    signed divisor list rather than the solver's capped generator."""
    n = system.d0 // 3
    cap = icbrt(abs(n))
    return [d for d in signed_divisors(n) if 0 < d <= cap]


def _assert_opposite_sign_pivots_rootless(system: TripleSystem) -> None:
    n = system.d0 // 3
    opposite = [-d if n > 0 else d for d in _divisors_inside_cap(system)]
    for _, k, _, discriminant, _ in _pivot_pass(system.s, n, opposite):
        assert discriminant < 0, (system, k)


def _count_pivots_fed(monkeypatch) -> list[int]:
    """Wrap solver._discriminants; the returned list collects the number of
    pivots each call is fed."""
    fed: list[int] = []
    original = solver._discriminants

    def counting(s, reduced, ks):
        ks = list(ks)
        fed.append(len(ks))
        return original(s, reduced, ks)

    monkeypatch.setattr(solver, "_discriminants", counting)
    return fed


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
    whatever solve() does, and solve() at the rule's exact boundary."""

    def test_opposite_sign_pivots_rootless_on_sweep(self):
        fired = 0
        for s in range(-30, 31):
            for c in range(-600, 601):
                system = TripleSystem(s, c)
                if not system.degenerate and _sign_rule_applies(system):
                    _assert_opposite_sign_pivots_rootless(system)
                    fired += 1
        assert fired

    @settings(deadline=None)
    @given(smooth_systems)
    def test_opposite_sign_pivots_rootless_on_smooth_d0(self, system):
        if _sign_rule_applies(system):
            _assert_opposite_sign_pivots_rootless(system)

    def test_opposite_sign_pivots_rootless_on_planted_systems(self):
        for triple in PLANTED_SMALL_SUM:
            system = _system_of(triple)
            assert _sign_rule_applies(system), system
            _assert_opposite_sign_pivots_rootless(system)

    @pytest.mark.parametrize(
        "s,c,solutions,applies",
        [
            # L(L + 2|s|)^2 = 2 * 6^2 = 72 = 4|N| exactly: the rule must not apply
            (2, 62, 9, False),
            (-2, -62, 9, False),
            # 15 * 31^2 = 14415 < 4|N| = 14416: the rule applies by a margin of one
            (8, 11324, 6, True),
            (-8, -11324, 6, True),
        ],
    )
    def test_boundary(self, monkeypatch, s, c, solutions, applies):
        system = TripleSystem(s, c)
        assert _sign_rule_applies(system) is applies
        fed = _count_pivots_fed(monkeypatch)
        result = solve(system)
        divisors = len(_divisors_inside_cap(system))
        assert fed == [divisors if applies else 2 * divisors]
        assert len(result.triples) == solutions
        assert result == _every_pivot_fold(system)
        assert result.triples == _solutions_by_bisection(system)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_pivot_count_on_primorial_47(self, monkeypatch, sign):
        primorial = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
        system = TripleSystem(0, sign * 3 * primorial)
        fed = _count_pivots_fed(monkeypatch)
        solve(system)
        assert fed == [len(_divisors_inside_cap(system))]


class TestOneDiscriminant:
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
        # up to the cap is 1
        assert solve(TripleSystem(0, 3000108000297)) == SolutionSet.finite(())

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
        with pytest.raises(ValueError):
            SolutionSet.from_json_dict({"kind": "mystery"})
