"""Tests for the exact integer utilities."""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetriples.intmath import (
    Factorization,
    IncompleteFactorizationError,
    _divisors_up_to,
    factorize,
    icbrt,
    isqrt,
    perfect_square_root,
    signed_divisors,
)

# squares of 0..1000, an independent lookup oracle for n <= 10^6
_SQUARES = {r * r: r for r in range(1001)}


class TestIsqrt:
    @pytest.mark.parametrize("n,expected", [(0, 0), (16, 4), (24, 4), (1, 1), (2, 1)])
    def test_examples(self, n, expected):
        assert isqrt(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)

    def test_small_against_linear_scan(self):
        for n in range(2000):
            r = 0
            while (r + 1) * (r + 1) <= n:
                r += 1
            assert isqrt(n) == r

    @given(st.integers(min_value=0, max_value=10**30))
    def test_bracketing_property(self, n):
        r = isqrt(n)
        assert r >= 0
        assert r * r <= n < (r + 1) * (r + 1)


class TestIcbrt:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (7, 1), (8, 2), (26, 2), (27, 3)])
    def test_examples(self, n, expected):
        assert icbrt(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            icbrt(-1)

    @given(st.integers(min_value=0, max_value=10**300))
    def test_bracketing_property(self, n):
        r = icbrt(n)
        assert r >= 0
        assert r**3 <= n < (r + 1) ** 3

    @given(st.integers(min_value=1, max_value=10**100))
    def test_exact_cubes_and_their_predecessors(self, k):
        assert icbrt(k**3) == k
        assert icbrt(k**3 - 1) == k - 1


class TestPerfectSquareRoot:
    @pytest.mark.parametrize("n,expected", [(0, 0), (16, 4), (-4, None), (33, None)])
    def test_examples(self, n, expected):
        assert perfect_square_root(n) == expected

    def test_negative_always_absent(self):
        for n in range(-50, 0):
            assert perfect_square_root(n) is None

    @given(st.integers(min_value=-(10**6), max_value=10**6))
    def test_against_square_table(self, n):
        expected = _SQUARES.get(n) if n >= 0 else None
        assert perfect_square_root(n) == expected

    @given(st.integers(min_value=0, max_value=10**15))
    def test_root_squares_back(self, n):
        r = perfect_square_root(n)
        if r is not None:
            assert r * r == n


def _is_prime_by_trial(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _assert_factored_in_full(fac: Factorization, n: int) -> None:
    primes = [p for p, _ in fac.factors]
    assert fac.value() == n
    assert primes == sorted(set(primes))
    assert all(_is_prime_by_trial(p) and e >= 1 for p, e in fac.factors)


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (8, Factorization(1, ((2, 3),))),
            (-24, Factorization(-1, ((2, 3), (3, 1)))),
            (1, Factorization(1, ())),
            (-1, Factorization(-1, ())),
            (97, Factorization(1, ((97, 1),))),
        ],
    )
    def test_examples(self, n, expected):
        assert factorize(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_cofactor_is_certified(self):
        p = 10**9 + 7
        fac = factorize(2 * p, trial_limit=1000)
        assert fac == Factorization(1, ((2, 1), (p, 1)))

    def test_composite_cofactor_reports_incomplete(self):
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            factorize(n, trial_limit=1000)
        assert excinfo.value.cofactor == n
        assert str(n) in str(excinfo.value)

    @pytest.mark.parametrize("n", [1, -2, 97, -360, 35 * 2**5, -(5**2), 10**9 + 7, -1000003 * 1000033])
    def test_trial_limit_at_or_above_n_factors_in_full(self, n):
        # trial division finishes before it reaches the trial limit, so the
        # cofactor it leaves is 1 or prime and is kept without certifying
        _assert_factored_in_full(factorize(n, trial_limit=abs(n)), n)

    @pytest.mark.parametrize(
        "n,cofactor",
        [
            (24, None),
            (-2 * 3 * 97, None),
            (2 * 5, None),  # 5 is left, and 5 * 5 > 5 ends trial division
            (6 * (10**9 + 7), None),
            (35 * 2**5, 35),
            (-(5**2), 25),
            (3**4 * 7 * 11, 77),
            (-1000003 * 1000033, 1000003 * 1000033),
        ],
    )
    def test_trial_limit_one_certifies_what_2_and_3_leave(self, n, cofactor):
        if cofactor is None:
            _assert_factored_in_full(factorize(n, trial_limit=1), n)
        else:
            with pytest.raises(IncompleteFactorizationError) as excinfo:
                factorize(n, trial_limit=1)
            assert (excinfo.value.n, excinfo.value.cofactor) == (n, cofactor)

    def test_error_survives_pickle(self):
        # a scan worker's error reaches the parent process pickled
        error = IncompleteFactorizationError(-3000108000297, 1000003 * 1000033)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is IncompleteFactorizationError
        assert (copy.n, copy.cofactor, str(copy)) == (error.n, error.cofactor, str(error))

    @given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
    def test_reconstruction_is_identity(self, n):
        fac = factorize(n)
        assert fac.value() == n

    @given(st.integers(min_value=2, max_value=10**6))
    def test_factors_are_prime_and_sorted(self, n):
        fac = factorize(n)
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in fac.factors)
        assert all(_is_prime_by_trial(p) for p in primes)


def _divisors_by_scan(n: int) -> list[int]:
    m = abs(n)
    positives = [e for e in range(1, m + 1) if m % e == 0]
    return [-d for d in reversed(positives)] + positives


class TestSignedDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (8, [-8, -4, -2, -1, 1, 2, 4, 8]),
            (1, [-1, 1]),
            (-6, [-6, -3, -2, -1, 1, 2, 3, 6]),
        ],
    )
    def test_examples(self, n, expected):
        assert signed_divisors(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            signed_divisors(0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0))
    def test_matches_linear_scan(self, n):
        assert signed_divisors(n) == _divisors_by_scan(n)

    @given(st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0))
    def test_count_is_twice_tau(self, n):
        tau = 1
        for _, e in factorize(n).factors:
            tau *= e + 1
        assert len(signed_divisors(n)) == 2 * tau


# nonzero n of either sign built from prime powers, exponents up to 4
powered_integers = st.builds(
    lambda sign, exponents: sign * math.prod(p**e for p, e in zip((2, 3, 5, 7, 11, 13), exponents)),
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6),
)


@st.composite
def divisor_limits(draw):
    """(n, limit) with limit below 1, exactly 1, strictly between 1 and |n|,
    or at least |n|."""
    n = draw(powered_integers)
    m = abs(n)
    limit = draw(
        st.one_of(
            st.integers(max_value=0),
            st.just(1),
            st.integers(min_value=2, max_value=max(2, m - 1)),
            st.integers(min_value=m, max_value=3 * m),
        )
    )
    return n, limit


def _next_prime(n: int) -> int:
    while not _is_prime_by_trial(n):
        n += 1
    return n


@st.composite
def prime_times_smooth(draw):
    """(n, q, divisors of n / q, limit): n = +-m*q with m a product of primes
    <= 13, q a prime in (10^3, 10^6), and the limit below, at or above q."""
    exponents = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=6, max_size=6))
    powers = [[p**e for e in range(k + 1)] for p, k in zip((2, 3, 5, 7, 11, 13), exponents)]
    smooth_divisors = [math.prod(combo) for combo in itertools.product(*powers)]
    q = _next_prime(draw(st.integers(min_value=1001, max_value=999_983)))
    n = draw(st.sampled_from((1, -1))) * max(smooth_divisors) * q
    limit = draw(
        st.one_of(
            st.integers(min_value=1, max_value=q - 1),
            st.just(q),
            st.integers(min_value=q + 1, max_value=2 * abs(n)),
        )
    )
    return n, q, smooth_divisors, limit


class TestDivisorsUpTo:
    @given(divisor_limits())
    @example((2**4 * 3**3 * 5**2, 100))
    @example((-(2**4) * 3**3 * 5**2, 2**4 * 3**3 * 5**2))
    @example((-720, 1))
    @example((1, 0))
    @example((1, 1))
    def test_matches_filtered_signed_divisors(self, case):
        n, limit = case
        expected = [d for d in signed_divisors(n) if 0 < d <= limit]
        assert sorted(_divisors_up_to(n, limit)) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            _divisors_up_to(0, 10)

    def test_cofactor_above_the_limit_is_dropped(self):
        # both primes lie above the trial limit, and above the limit too, so
        # trial division to the limit proves 1 the only divisor up to it
        assert _divisors_up_to(1000003 * 1000033, 10**4) == [1]

    def test_cofactor_dropped_at_the_trial_limit(self):
        # the limit equals the trial limit, so trial division stopped at the
        # limit and the cofactor holds only primes above it
        assert _divisors_up_to(1000003 * 1000033, 10**6) == [1]

    def test_cofactor_raises_just_above_the_trial_limit(self):
        # one past the trial limit, the composite cofactor must be certified
        n = 1000003 * 1000033
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            _divisors_up_to(n, 10**6 + 1)
        assert (excinfo.value.n, excinfo.value.cofactor) == (n, n)

    def test_composite_cofactor_below_the_limit_raises(self):
        # the limit lies above the trial limit, so the cofactor left there
        # must be certified prime, and it is composite
        n = 1000003 * 1000033
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            _divisors_up_to(n, 1000033)
        assert excinfo.value.cofactor == n

    @settings(max_examples=150)
    @given(prime_times_smooth())
    def test_prime_above_the_small_primes(self, case):
        n, prime, smooth_divisors, limit = case
        expected = sorted(d for d in smooth_divisors + [prime * e for e in smooth_divisors] if d <= limit)
        assert sorted(_divisors_up_to(n, limit)) == expected

    def test_matches_sympy_divisors(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randrange(1, 10**10)
            limit = rng.choice((icbrt(n), rng.randrange(1, n + 1), n))
            expected = [d for d in sympy.divisors(n) if d <= limit]
            assert sorted(_divisors_up_to(rng.choice((n, -n)), limit)) == expected, (n, limit)


def test_cofactor_rule_matches_sympy():
    # factorize and _divisors_up_to raise exactly when the cofactor left by
    # trial division to 10^6 is composite and needed: always for factorize,
    # and for _divisors_up_to only when the limit passes the trial limit
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)

    def prime_above_trial_limit():
        return sympy.nextprime(rng.randrange(10**6, 10**7 - 10**3))

    numbers = [rng.randrange(1, 10**12) for _ in range(300)]
    numbers += [prime_above_trial_limit() * prime_above_trial_limit() for _ in range(20)]
    for m in numbers:
        n = rng.choice((m, -m))
        factors = sympy.factorint(m)
        cofactor = math.prod(p**e for p, e in factors.items() if p > 10**6)
        composite = cofactor > 1 and not sympy.isprime(cofactor)
        limit = rng.choice((10**6, 10**6 + 1, icbrt(m), m))
        if composite:
            with pytest.raises(IncompleteFactorizationError) as excinfo:
                factorize(n)
            assert (excinfo.value.n, excinfo.value.cofactor) == (n, cofactor)
        else:
            assert factorize(n) == Factorization(1 if n > 0 else -1, tuple(sorted(factors.items()))), n
        if composite and limit > 10**6:
            with pytest.raises(IncompleteFactorizationError) as excinfo:
                _divisors_up_to(n, limit)
            assert (excinfo.value.n, excinfo.value.cofactor) == (n, cofactor)
        else:
            expected = [d for d in sympy.divisors(m) if d <= limit]
            assert sorted(_divisors_up_to(n, limit)) == expected, (n, limit)
