"""Exact integer utilities: square roots, factorization, signed divisors.

Everything here works on Python's native arbitrary-precision integers, so
there is no overflow anywhere in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Factorization",
    "IncompleteFactorizationError",
    "factorize",
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


def isqrt(n: int) -> int:
    """Floor of the square root: the r with r*r <= n < (r+1)*(r+1)."""
    if n < 0:
        raise ValueError(f"isqrt of negative integer {n}")
    return math.isqrt(n)


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


def factorize(n: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> Factorization:
    """Complete prime factorization of a nonzero integer, sign recorded.

    Trial division runs up to min(isqrt(|n|), trial_limit); a surviving
    cofactor must then be certified prime by a deterministic check or
    an IncompleteFactorizationError is raised naming it.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    if trial_limit < 1:
        raise ValueError(f"trial_limit must be positive, got {trial_limit}")

    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: list[tuple[int, int]] = []

    def peel(p: int) -> None:
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))

    peel(2)
    peel(3)
    p = 5
    exhausted = False
    while True:
        if p * p > m:
            exhausted = True
            break
        if p > trial_limit:
            break
        peel(p)
        peel(p + 2)
        p += 6

    if m > 1:
        if exhausted:
            factors.append((m, 1))
        else:
            certified = _miller_rabin_certified(m)
            if certified is not True:
                raise IncompleteFactorizationError(n, m)
            factors.append((m, 1))

    return Factorization(sign=sign, factors=tuple(factors))


def _divisors_up_to(n: int, limit: int) -> list[int]:
    """The positive divisors of n that are <= limit, in no particular order.

    n is factored in full even when limit < 1, so an incomplete
    factorization raises whatever the limit.  Each prime power multiplies
    into the products built so far, and a product above the limit is
    dropped together with every multiple the remaining primes would make
    of it: multiplying only makes a positive product larger.
    """
    if n == 0:
        raise ValueError("0 has no divisor set")
    factors = factorize(n).factors
    if limit < 1:
        return []
    divisors = [1]
    for prime, exponent in factors:
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
