"""Tests for the exact integer utilities."""

import itertools
import math
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetriples.intmath import (
    _DIRECT_LIMIT,
    _MR_PROVEN_BOUND,
    Factorization,
    TRIAL_LIMIT,
    IncompleteFactorizationError,
    _divisors_up_to,
    _prime_blocks,
    _prime_powers,
    _proven_prime,
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


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (8, Factorization(1, ((2, 3),))),
            (-24, Factorization(-1, ((2, 3), (3, 1)))),
            (1, Factorization(1, ())),
            (-1, Factorization(-1, ())),
            (97, Factorization(1, ((97, 1),))),
            (-2, Factorization(-1, ((2, 1),))),
            (-360, Factorization(-1, ((2, 3), (3, 2), (5, 1)))),
            (35 * 2**5, Factorization(1, ((2, 5), (5, 1), (7, 1)))),
            (-(5**2), Factorization(-1, ((5, 2),))),
            (10**9 + 7, Factorization(1, ((10**9 + 7, 1),))),
        ],
    )
    def test_examples(self, n, expected):
        assert factorize(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_cofactor_is_certified(self):
        # p lies above (10^6 + 1)^2, so trial division stops at 10^6 and
        # Miller-Rabin must prove the cofactor prime
        p = 10**13 + 37
        fac = factorize(2 * p)
        assert fac == Factorization(1, ((2, 1), (p, 1)))

    def test_largest_prime_below_the_bound_is_certified(self):
        # the last prime before the bound: Miller-Rabin still proves it
        p = _MR_PROVEN_BOUND - 168
        assert factorize(p) == Factorization(1, ((p, 1),))

    def test_prime_cofactor_where_trial_division_ends(self):
        # the next trial divisor after 10^6 is 1000001, whose square passes
        # 10^12 + 39: trial division itself proves the cofactor prime
        p = 10**12 + 39
        assert factorize(2 * p) == Factorization(1, ((2, 1), (p, 1)))

    def test_composite_cofactor_reports_incomplete(self):
        n = (10**9 + 7) * (10**9 + 9)
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            factorize(n)
        assert excinfo.value.cofactor == n
        assert str(n) in str(excinfo.value)

    @pytest.mark.parametrize("n", [1, 97])
    def test_trial_limit_at_or_above_n_factors_in_full(self, n):
        # trial division finishes before it reaches the trial limit, so the
        # cofactor it leaves is 1 or prime and is kept without certifying
        assert abs(n) <= TRIAL_LIMIT
        fac = factorize(n)
        primes = [p for p, _ in fac.factors]
        assert fac.value() == n
        assert primes == sorted(set(primes))
        assert all(_is_prime_by_trial(p) and e >= 1 for p, e in fac.factors)

    @pytest.mark.parametrize(
        "n",
        [
            # strong pseudoprime to every witness 2..37; only 41 rejects it
            pytest.param(399165290221 * 798330580441, id="psi12"),
            # _MR_PROVEN_BOUND itself, a strong pseudoprime to all 13
            # witnesses; only the exclusive bound stops it
            pytest.param(1287836182261 * 2575672364521, id="psi13"),
            pytest.param((10**6 + 3) ** 2, id="square-above-trial-limit"),
        ],
    )
    def test_composite_cofactor_past_the_trial_limit_raises(self, n):
        with pytest.raises(IncompleteFactorizationError) as excinfo:
            factorize(n)
        assert (excinfo.value.n, excinfo.value.cofactor) == (n, n)

    def test_error_survives_pickle(self):
        # a scan worker's error reaches the parent process pickled
        error = IncompleteFactorizationError(-3000108000297, 1000003 * 1000033)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is IncompleteFactorizationError
        assert (copy.n, copy.cofactor, str(copy)) == (error.n, error.cofactor, str(error))

    def test_error_past_the_digit_cap_builds_and_pickles(self):
        # n has more digits than int->str converts by default, so the
        # message must not be formatted until the error is shown
        n = 10**5000 + 1
        error = IncompleteFactorizationError(n, 7)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is IncompleteFactorizationError
        assert (copy.n, copy.cofactor, copy.args) == (n, 7, (n, 7))
        # shown, n is shortened to its ends and digit count, never converted
        message = str(copy)
        assert len(message) < 200 and "\n" not in message
        assert message.startswith("incomplete factorization of 10000000...00000001 (5001 digits): ")
        assert str(IncompleteFactorizationError(-(10**5000) - 1, 7)).startswith(
            "incomplete factorization of -10000000...00000001 (5001 digits): "
        )
        # values of at most 40 digits print in full
        for n, cofactor in ((-3000108000297, 1000003 * 1000033), (10**40 - 1, -(10**39))):
            assert str(IncompleteFactorizationError(n, cofactor)) == (
                f"incomplete factorization of {n}: cofactor {cofactor} "
                "is not certified prime within the trial limit"
            )

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

    @pytest.mark.parametrize("limit", [_DIRECT_LIMIT - 1, _DIRECT_LIMIT, _DIRECT_LIMIT + 1])
    def test_either_side_of_the_direct_limit(self, limit):
        # up to _DIRECT_LIMIT the divisors come from dividing by every d up
        # to the limit, one past it from trial division of n
        values = [
            1,
            113, 127, 131, 137,  # primes around the direct limit
            2**7, 2**20, 127**3, 3 * 43, 11 * 13, 360,  # prime powers and products near it
            12, 120,  # |n| below the limit, 120 with 16 divisors
            math.factorial(40),  # 48 digits, divisible by every d up to 40
            10**45 + 7 * 131,
        ]
        for n in values:
            expected = [d for d in range(1, limit + 1) if n % d == 0]
            for signed in (n, -n):
                assert sorted(_divisors_up_to(signed, limit)) == expected, (signed, limit)

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


def test_proven_prime_matches_sympy():
    # every cofactor that reaches the primality test is odd and above 10^12
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randrange(10**12, 10**25) | 1
        assert _proven_prime(n) == (sympy.isprime(n) and n < _MR_PROVEN_BOUND), n


def _prime_powers_by_candidates(n: int, limit: int) -> list[tuple[int, int]]:
    """Reference: _prime_powers's cofactor rule on trial division by every
    6j +- 1 up to min(limit, TRIAL_LIMIT), with no blocks of primes."""
    m = abs(n)
    stop = min(limit, TRIAL_LIMIT)
    factors: list[tuple[int, int]] = []

    def peel(p: int) -> None:
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))

    if m % 2 == 0:
        peel(2)
    if m % 3 == 0:
        peel(3)
    p = 5
    while p * p <= m:
        if p > stop:
            if limit <= TRIAL_LIMIT:
                return factors
            if not _proven_prime(m):
                raise IncompleteFactorizationError(n, m)
            break
        if m % p == 0:
            peel(p)
        if m % (p + 2) == 0:
            peel(p + 2)
        p += 6
    if m > 1:
        factors.append((m, 1))
    return factors


def _outcome(f, *args):
    """("ok", f(*args)), sorted when it is a list, or ("raised", (n, cofactor))."""
    try:
        result = f(*args)
    except IncompleteFactorizationError as error:
        return "raised", (error.n, error.cofactor)
    return "ok", sorted(result) if isinstance(result, list) else result


def _divisors_of(pairs, limit):
    """The sorted divisors up to limit of the product of the prime powers."""
    divisors = [1]
    for p, e in pairs:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return sorted(d for d in divisors if d <= limit)


# the first and last prime of blocks 0, 1, 2 and 305 of the table
BLOCK_EDGES = (1031, 2969, 2971, 5113, 5119, 7411, 996631, 999983)

BLOCK_CASES = [
    1031**3 * 999983,
    -(1031**3) * 999983**2,
    2 * 3**2 * 1021 * 1031**2 * 2971,
    1033 * 1039,  # two primes of block 0 above the limit 1031
    -6 * 2999 * 3001,  # two primes of block 1 above the limit 2971
    2969 * 2971**2 * 5113,
    5119**3 * 7411,
    -(5113**2) * 996631,
    996631**3,
    1031 * 5113 * 996631 * 999983,
    -7 * 1000003 * 1000033,
    999983 * (10**12 + 39),
]


@pytest.mark.parametrize("n", BLOCK_CASES)
def test_block_division_matches_the_candidate_loop(n):
    # factorize, the divisors up to each limit and every raised (n, cofactor)
    # are those of trial division by every 6j +- 1
    sign = 1 if n > 0 else -1
    kind, factorization = _outcome(factorize, n)
    assert (kind, factorization) == _outcome(
        lambda: Factorization(sign, tuple(_prime_powers_by_candidates(n, abs(n))))
    )
    primes = {p for p, _ in factorization.factors} if kind == "ok" else set()
    limits = {1021, 1024, 1025, *BLOCK_EDGES, 10**6, 10**6 + 1, icbrt(abs(n)), abs(n)}
    for limit in sorted(limits):
        kind, expected = _outcome(_prime_powers_by_candidates, n, limit)
        if kind == "raised":
            assert _outcome(_divisors_up_to, n, limit) == (kind, expected), (n, limit)
            continue
        assert sorted(_divisors_up_to(n, limit)) == _divisors_of(expected, limit), (n, limit)
        # the primes up to stop are those of the candidate loop, and past
        # max(stop, 1021) only the one kept cofactor is listed, a prime of n
        stop = min(limit, TRIAL_LIMIT)
        pairs = _prime_powers(n, limit)
        assert [pe for pe in pairs if pe[0] <= stop] == [pe for pe in expected if pe[0] <= stop], (n, limit)
        tried = [pe for pe in pairs if pe[0] <= max(stop, 1021)]
        rest = pairs[len(tried) :]
        assert pairs[: len(tried)] == tried
        assert rest in ([], [(abs(n) // math.prod(p**e for p, e in tried), 1)]), (n, limit)
        assert all(p in primes for p, _ in rest), (n, limit)


def _primes_by_sieve(limit: int) -> list[int]:
    is_prime = [True] * (limit + 1)
    is_prime[0] = is_prime[1] = False
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    return list(itertools.compress(range(limit + 1), is_prime))


def _blocks_of(primes):
    runs = [primes[i : i + 256] for i in range(0, len(primes), 256)]
    return tuple((run[0], run[-1], math.prod(run)) for run in runs)


class TestPrimeBlocks:
    def test_blocks_hold_every_prime_from_1031_to_999983(self):
        primes = [p for p in _primes_by_sieve(TRIAL_LIMIT) if p > 1023]
        # pi(10^6) - pi(1023) = 78498 - 172
        assert len(primes) == 78326
        blocks = _prime_blocks()
        assert len(blocks) == 306
        assert [block[:2] for block in (*blocks[:3], blocks[-1])] == list(zip(BLOCK_EDGES[::2], BLOCK_EDGES[1::2]))
        assert blocks == _blocks_of(primes)

    def test_blocks_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        # the sieve's primerange: sympy.primerange is about 15 times slower here
        assert _prime_blocks() == _blocks_of(list(sympy.sieve.primerange(1025, TRIAL_LIMIT + 1)))

    def test_table_is_built_on_first_use(self):
        # import, small systems, the smooth primorial-47 system and the trace
        # goldens never try a prime above 1021; a cofactor past 1025^2 does
        probe = """
import math
import cubetriples
from cubetriples import intmath
from cubetriples.solver import TripleSystem, solve
from cubetriples.trace import derive_trace
built = [intmath._blocks is not None]
for s in range(-5, 6):
    for c in range(-200, 201):
        solve(TripleSystem(s, c))
built.append(intmath._blocks is not None)
solve(TripleSystem(0, 3 * math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))))
built.append(intmath._blocks is not None)
for s, c in [(3, 3), (2, 2), (0, 3), (0, 4), (-2, 10), (1, 1), (0, 0)]:
    derive_trace(TripleSystem(s, c))
built.append(intmath._blocks is not None)
solve(TripleSystem(0, 3 * (10**12 + 39)))
built.append(intmath._blocks is not None)
print(*built)
"""
        ran = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert ran.returncode == 0, ran.stderr
        assert ran.stdout.split() == ["False"] * 4 + ["True"]
