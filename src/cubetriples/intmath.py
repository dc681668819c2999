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


def _trial_divide(m: int, stop: int) -> tuple[list[tuple[int, int]], int, bool]:
    """Trial division of m > 0 by 2, 3 and then the numbers 6j +- 1, ascending,
    up to stop or until p*p exceeds what is left of m.

    Returns (factors, cofactor, whole): the (prime, exponent) pairs divided
    out, sorted by prime, and the cofactor left.  whole is True when p*p
    passed the cofactor, so the cofactor is 1 or prime; otherwise trial
    division passed stop and every prime factor of the cofactor exceeds it.
    """
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
            return factors, m, False
        if m % p == 0:
            peel(p)
        if m % (p + 2) == 0:
            peel(p + 2)
        p += 6
    return factors, m, True


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
    factors, m, whole = _trial_divide(abs(n), trial_limit)
    if m > 1:
        if not whole and _miller_rabin_certified(m) is not True:
            raise IncompleteFactorizationError(n, m)
        factors.append((m, 1))
    return Factorization(sign=1 if n > 0 else -1, factors=tuple(factors))


def _divisors_up_to(n: int, limit: int) -> list[int]:
    """Every positive divisor of n that is <= limit, proven complete, in no
    particular order.

    Every such divisor is a product of primes <= limit, so trial division
    runs only up to min(limit, DEFAULT_TRIAL_LIMIT).  A cofactor left once
    it has passed limit holds only primes above limit and is dropped
    unfactored.  When limit is above the trial limit, n is factored in full
    by factorize(), so IncompleteFactorizationError is raised unless the
    cofactor left there is certified prime.  Each prime power then
    multiplies into the products built so far, and a product above the
    limit is dropped together with every multiple the remaining primes
    would make of it: multiplying only makes a positive product larger.
    """
    if n == 0:
        raise ValueError("0 has no divisor set")
    if limit < 1:
        return []
    if limit > DEFAULT_TRIAL_LIMIT:
        factors = factorize(n).factors
    else:
        factors, m, whole = _trial_divide(abs(n), limit)
        if whole and m > 1:
            factors.append((m, 1))
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
