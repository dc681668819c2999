"""Exact integer utilities: square roots, factorization, signed divisors.

Everything here works on Python's native arbitrary-precision integers, so
there is no overflow anywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt  # re-exported: floor square root, ValueError below 0

__all__ = [
    "Factorization",
    "IncompleteFactorizationError",
    "factorize",
    "icbrt",
    "isqrt",
    "perfect_square_root",
    "signed_divisors",
]

DEFAULT_TRIAL_LIMIT = 10**6

# Miller-Rabin with these witnesses is a proven deterministic primality test
# for everything below this bound (Sorenson & Webster, first 13 primes).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


class IncompleteFactorizationError(ValueError):
    """Trial division exhausted its budget and the leftover cofactor could
    not be certified prime."""

    def __init__(self, n: int, cofactor: int) -> None:
        self.n = n
        self.cofactor = cofactor
        super().__init__(
            f"incomplete factorization of {n}: cofactor {cofactor} is not "
            f"certified prime within the trial limit"
        )

    def __reduce__(self):
        # rebuild from (n, cofactor) so the error survives a process pool
        return (type(self), (self.n, self.cofactor))


@dataclass(frozen=True)
class Factorization:
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


def _miller_rabin_certified(n: int) -> bool | None:
    """Deterministic primality verdict for odd n > 2.

    True/False when the answer is proven; None when n is beyond the proven
    witness bound and merely *probably* prime.
    """
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < _MR_PROVEN_BOUND else None


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


def _prime_powers(n: int, limit: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs, sorted by prime, from which every divisor
    of the nonzero n that is <= limit is built.

    Trial division of |n| by 2, 3 and then the numbers 6j +- 1, ascending,
    runs up to min(limit, trial_limit) or until p*p passes what is left of
    |n|.  This is the one rule for the cofactor m > 1 left over:
    - trial division finished (p*p passed m): m is prime and is kept;
    - it stopped at limit: every prime factor of m exceeds limit, so m is in
      no divisor up to limit and is dropped unfactored;
    - it stopped at trial_limit, below limit: m is kept if it is certified
      prime, and otherwise IncompleteFactorizationError(n, m) is raised.
    """
    m = abs(n)
    stop = min(limit, trial_limit)
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
            if limit <= trial_limit:
                return factors
            if _miller_rabin_certified(m) is not True:
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


def factorize(n: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> Factorization:
    """Complete prime factorization of a nonzero integer, sign recorded.

    The factors are _prime_powers(n, |n|, trial_limit): trial division runs
    up to min(isqrt(|n|), trial_limit), and a cofactor left above
    trial_limit must be certified prime or IncompleteFactorizationError is
    raised naming it.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    if trial_limit < 1:
        raise ValueError(f"trial_limit must be positive, got {trial_limit}")
    factors = tuple(_prime_powers(n, abs(n), trial_limit))
    return Factorization(sign=1 if n > 0 else -1, factors=factors)


def _divisors_up_to(n: int, limit: int) -> list[int]:
    """Every positive divisor of n that is <= limit, proven complete, in no
    particular order.

    The prime powers come from _prime_powers(n, limit), whose one cofactor
    rule drops what holds only primes above limit and raises
    IncompleteFactorizationError for a cofactor above the trial limit that
    is not certified prime.  Each prime power then multiplies into the
    products built so far, and a product above the limit is dropped together
    with every multiple the remaining primes would make of it: multiplying
    only makes a positive product larger.
    """
    if n == 0:
        raise ValueError("0 has no divisor set")
    if limit < 1:
        return []
    divisors = [1]
    for prime, exponent in _prime_powers(n, limit):
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
