"""Exact integer utilities: square roots, factorization, signed divisors.

Everything here works on Python's native arbitrary-precision integers, so
there is no overflow anywhere in the library.
"""

from __future__ import annotations

import functools
import itertools
import math
from math import isqrt  # re-exported: floor square root, ValueError below 0
from typing import NamedTuple

__all__ = [
    "Factorization",
    "IncompleteFactorizationError",
    "factorize",
    "icbrt",
    "isqrt",
    "perfect_square_root",
    "signed_divisors",
]

TRIAL_LIMIT = 10**6

# Miller-Rabin with these witnesses is a proven deterministic primality test
# for everything below this bound (Sorenson & Webster, first 13 primes).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

# (psi_t, t): the first t witnesses decide every n < psi_t, the least strong
# pseudoprime to all of them (Jaeschke 1993 up to t = 8, Sorenson & Webster
# 2017 for 9 to 13); ascending, and _proven_prime takes the first row above n
_MR_WITNESS_COUNTS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_PROVEN_BOUND, 13),
)

# Trial division tries the candidates 6j +- 1 below _BLOCK_START one by one,
# and the primes from there to TRIAL_LIMIT by blocks of _BLOCK_PRIMES: one
# gcd with a block's product.  _BLOCK_START squared exceeds TRIAL_LIMIT, so
# every odd composite in a block has a prime factor tried before the block.
_BLOCK_START = 1025
_BLOCK_PRIMES = 256

# _divisors_up_to divides n by every d up to a limit of at most this, rather
# than factoring n; see its docstring for the measured crossover.
_DIRECT_LIMIT = 128


class IncompleteFactorizationError(ValueError):
    """Trial division exhausted its budget and the leftover cofactor could
    not be certified prime."""

    def __init__(self, n: int, cofactor: int) -> None:
        # args = (n, cofactor) is what BaseException pickles and rebuilds from
        super().__init__(n, cofactor)
        self.n = n
        self.cofactor = cofactor

    def __str__(self) -> str:
        # formatted only when shown, so building, raising or pickling the
        # error never converts a huge n to decimal
        return (
            f"incomplete factorization of {_short_decimal(self.n)}: cofactor "
            f"{_short_decimal(self.cofactor)} is not certified prime within the trial limit"
        )


def _short_decimal(n: int) -> str:
    """n in decimal when it has at most 40 digits, else its first and last
    8 digits and its digit count, e.g. '12345678...90123456 (4501 digits)'.

    Found with integer arithmetic alone, so it stays one short line and
    never meets Python's int->str digit cap.
    """
    m = abs(n)
    if m < 10**40:
        return str(n)
    # 2^(b-1) <= m < 2^b for b = bit_length, so this is at most the digit
    # count and at most 2 below it
    digits = int((m.bit_length() - 1) * math.log10(2))
    while 10**digits <= m:
        digits += 1
    sign = "-" if n < 0 else ""
    return f"{sign}{m // 10 ** (digits - 8)}...{m % 10**8:08d} ({digits} digits)"


class Factorization(NamedTuple):
    """Sign and prime-power decomposition of a nonzero integer.

    ``factors`` is sorted by prime ascending; reconstructing
    ``sign * prod(p**e)`` gives back the original input.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        out = self.sign
        for prime, exponent in self.factors:
            out *= prime**exponent
        return out


def perfect_square_root(n: int) -> int | None:
    """The nonnegative r with r*r == n, or None if no such integer exists."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _proven_prime(n: int) -> bool:
    """Whether n is proven prime by Miller-Rabin to the first t prime
    witnesses, t sized to n; at or above _MR_PROVEN_BOUND nothing is proven.

    psi_t, the least odd composite that is a strong probable prime to each
    of the first t primes, is known for t <= 13: Jaeschke (1993, Math. Comp.
    61) gives it up to t = 8, and Sorenson & Webster (2017, Math. Comp. 86)
    for t = 9 to 13.  So below psi_t those t witnesses decide n, and t is
    taken from the first row of _MR_WITNESS_COUNTS with n < psi_t: 2
    witnesses below 1 373 653, 7 below about 3.4*10^14, all 13 only from
    about 3.2*10^23.  Each witness is one modular power, so a small cofactor
    costs a fraction of the full set.

    n must be odd and above the largest witness: the cofactor left once
    trial division passed 1021 with p*p <= n, so n > 1025^2.
    """
    for bound, count in _MR_WITNESS_COUNTS:
        if n < bound:
            break
    else:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def icbrt(n: int) -> int:
    """Floor of the cube root: the r with r**3 <= n < (r+1)**3.

    Newton's method on integers: from any start above the cube root, each
    step x -> (2x + n // x^2) // 3 stays at or above floor(cbrt(n)) (the
    arithmetic mean of x, x and n/x^2 is at least their geometric mean) and
    strictly decreases while x exceeds it, so the first step that does not
    decrease has found it.
    """
    if n < 0:
        raise ValueError(f"icbrt of negative integer {n}")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) > cbrt(n)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


@functools.cache
def _prime_blocks() -> tuple[tuple[int, int, int], ...]:
    """(first, last, product) for each run of _BLOCK_PRIMES consecutive
    primes from _BLOCK_START to TRIAL_LIMIT, ascending; the last run may be
    shorter.

    Built on the first call from an odd-only sieve, streamed in runs so that
    no list of all the primes exists, and cached: later calls return the
    same tuple.
    """
    half = (TRIAL_LIMIT + 1) // 2
    sieve = bytearray([1]) * half  # sieve[i]: whether 2i + 1 is prime
    for i in range(1, (isqrt(TRIAL_LIMIT) + 1) // 2):
        if sieve[i]:
            start, step = 2 * i * (i + 1), 2 * i + 1  # (2i + 1)^2 = 2 * start + 1
            sieve[start::step] = bytes(len(range(start, half, step)))
    primes = itertools.compress(
        range(_BLOCK_START, TRIAL_LIMIT + 1, 2), memoryview(sieve)[_BLOCK_START // 2 :]
    )
    blocks = []
    while run := list(itertools.islice(primes, _BLOCK_PRIMES)):
        blocks.append((run[0], run[-1], math.prod(run)))
    return tuple(blocks)


def _prime_powers(n: int, limit: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs, sorted by prime, from which every divisor
    of the nonzero n that is <= limit is built.

    Trial division of |n| runs up to stop = min(limit, TRIAL_LIMIT) or until
    p*p passes what is left of |n|.  It divides by 2, 3 and then the numbers
    6j +- 1 up to 1021.  Past that, what is left, m, ends trial division if
    _proven_prime certifies it prime.  Otherwise trial division takes one
    gcd of m with the product of each block of 256 consecutive primes from
    1031 to 999983, and only when the gcd exceeds 1 does it try the block's
    odd numbers up to stop one by one; after such a block it tests m again
    if the block's first prime squared is at most m.  The table of
    blocks (306 products, about 180 KB) is built the first time a call gets
    past a cofactor that is not certified, which costs about 30 ms and
    0.6 MB of peak memory once per process.  This is the one rule for the
    cofactor m > 1 left over:
    - trial division finished (p*p passed m) or certified m prime: m is
      kept, even above limit, where _divisors_up_to drops it;
    - it stopped at limit: every prime factor of m exceeds limit, so m is in
      no divisor up to limit and is dropped unfactored;
    - it stopped at TRIAL_LIMIT, below limit: m, composite or at least
      _MR_PROVEN_BOUND, was not certified, and
      IncompleteFactorizationError(n, m) is raised.
    """
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
    end = stop if stop < _BLOCK_START else _BLOCK_START - 1
    while p * p <= m and p <= end:
        if m % p == 0:
            peel(p)
        if m % (p + 2) == 0:
            peel(p + 2)
        p += 6
    if p * p <= m:
        if p <= stop:
            # the loop stopped at p == _BLOCK_START, every prime below it
            # tried.  From here p is at most the least prime factor m may
            # have: m itself once m is certified prime, else after the
            # blocks the least prime not yet tried, so p*p <= m only where
            # p > stop
            if _proven_prime(m):
                p = m
            else:
                p = stop + 1
                for first, last, product in _prime_blocks():
                    if first > stop or first * first > m:
                        p = min(first, p)
                        break
                    g = math.gcd(m, product)
                    if g > 1:
                        for q in range(first, min(last, stop) + 1, 2):
                            if g % q == 0:
                                peel(q)
                        if first * first <= m and _proven_prime(m):
                            p = m
                            break
        if p * p <= m:
            # p > stop, and a prime from p on may divide m.  Past
            # TRIAL_LIMIT the blocks were walked, and m failed _proven_prime
            # when it was last changed
            if limit <= TRIAL_LIMIT:
                return factors
            raise IncompleteFactorizationError(n, m)
    if m > 1:
        factors.append((m, 1))
    return factors


def factorize(n: int) -> Factorization:
    """Complete prime factorization of a nonzero integer, sign recorded.

    The factors are _prime_powers(n, |n|): trial division runs up to
    min(isqrt(|n|), TRIAL_LIMIT) or stops past 1021 at a cofactor certified
    prime, and a cofactor left above TRIAL_LIMIT must be certified prime or
    IncompleteFactorizationError is raised naming it.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    factors = tuple(_prime_powers(n, abs(n)))
    return Factorization(sign=1 if n > 0 else -1, factors=factors)


def _divisors_up_to(n: int, limit: int) -> list[int]:
    """Every positive divisor of n that is <= limit, proven complete, in no
    particular order.

    A limit up to _DIRECT_LIMIT = 128 is served by dividing n by every d
    from 1 to limit, ascending, which is complete by construction and never
    builds the table of prime blocks.  On 2000 random n with
    icbrt(|n|) = limit each, direct division took 2-3 us against 4-6 us for
    factoring at a limit of 32, and about 6-7 against 7-8 us at 128; the two
    cross between 144 and 192, and at 256 direct division is about 1.4
    times slower (Python 3.11, 2-core Xeon).

    Above that limit the prime powers come from _prime_powers(n, limit),
    whose one cofactor rule drops what holds only primes above limit and
    raises IncompleteFactorizationError for a cofactor above TRIAL_LIMIT
    that is not certified prime.  Each prime power then multiplies into the
    products built so far, and a product above the limit is dropped together
    with every multiple the remaining primes would make of it: multiplying
    only makes a positive product larger.  The primes go in largest first,
    since each prime power scans every product built so far: the large
    primes, which keep few products under the limit, then scan the short
    list built before the small primes grow it, where smallest first each of
    them would rescan the long list of small products and keep little of
    it.  The set of divisors is the same in either order.
    """
    if n == 0:
        raise ValueError("0 has no divisor set")
    if limit <= _DIRECT_LIMIT:
        return [d for d in range(1, limit + 1) if n % d == 0]
    divisors = [1]
    for prime, exponent in reversed(_prime_powers(n, limit)):
        bound = limit // prime  # d * prime <= limit exactly when d <= bound
        grown = divisors
        for _ in range(exponent):
            grown = [d * prime for d in grown if d <= bound]
            divisors += grown
    return divisors


def signed_divisors(n: int) -> list[int]:
    """Every integer d (negative and positive) with d | n, sorted ascending."""
    positives = _divisors_up_to(n, abs(n))
    positives.sort()
    return [-d for d in reversed(positives)] + positives
