"""Exact solver for the symmetric system  X + Y + Z = s,  X^3 + Y^3 + Z^3 = c.

The reduction: pick a pivot coordinate Z and put k = s - Z.  Dividing the
cube-sum constraint by the sum constraint (X^3 + Y^3 factors as
(X + Y)(X^2 - XY + Y^2)) and substituting Y = s - Z - X collapses the system
to one quadratic per pivot,

    X^2 - k*X - (s*Z + d) = 0        with  d = (c - s^3) / (3k),

which has integer content only when 3k divides d0 = c - s^3.  That
divisibility condition admits finitely many pivots whenever d0 != 0, so
enumerating the signed divisors k of d0/3 and testing each quadratic's
discriminant yields every solution.  The degenerate case c = s^3 (d0 = 0) makes the quadratic
factor as (X - s)(X + Z) = 0 for every pivot, producing the infinite family
of permutations of (s, t, -t).

Only pivots with |k| <= icbrt(|d0/3|) need testing.  The identity
(X + Y + Z)^3 - X^3 - Y^3 - Z^3 = 3(X + Y)(Y + Z)(Z + X) with X + Y = s - Z
gives d0/3 = -(s - X)(s - Y)(s - Z) for every solution, three nonzero factors
whose smallest, |s - W|, has |s - W|^3 <= |d0/3|.  So the pivot Z = W finds
the solution, and closing under the coordinate permutations finds its every
ordering.

The sign rule halves those pivots once the cap is large against |s|.  Write
N = d0/3 and L = icbrt(|N|).  The pivot k (z = s - k) has discriminant
D(k) = (k - 2s)^2 + 4N/k.  For k of the sign opposite to N's, 4N/k is
-4|N|/|k| and (k - 2s)^2 <= (|k| + 2|s|)^2, so
|k| * D(k) <= |k|(|k| + 2|s|)^2 - 4|N|.  Since t(t + 2|s|)^2 rises with t and
|k| <= L, every such pivot has D(k) < 0, hence no root, whenever
L(L + 2|s|)^2 < 4|N|.  Then only the divisors with the sign of N are tested.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterable, NamedTuple

from .intmath import _divisors_up_to, icbrt, signed_divisors

__all__ = [
    "CandidateZ",
    "SolutionSet",
    "Triple",
    "TripleSystem",
    "candidate_zs",
    "completeness_bound",
    "solve",
    "solve_quadratic_for_x",
    "verify",
]


class TripleSystem(NamedTuple):
    """One problem instance: target sum s and target cube sum c."""

    s: int
    c: int

    @property
    def d0(self) -> int:
        """Remainder constant c - s^3 whose divisors bound the pivot."""
        return self.c - self.s**3

    @property
    def degenerate(self) -> bool:
        """True when c = s^3, the case with infinitely many solutions."""
        return self.d0 == 0


class Triple(NamedTuple):
    """An ordered integer triple (x, y, z); ordering is lexicographic."""

    x: int
    y: int
    z: int

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)

    def permutations(self) -> set["Triple"]:
        return {Triple(*p) for p in itertools.permutations(self)}


class CandidateZ(NamedTuple):
    """An admissible pivot value z with its derived quantities.

    k = s - z is a signed divisor of d0/3, and d = d0 / (3k) is the exact
    remainder the quadratic inherits.
    """

    z: int
    k: int
    d: int


class SolutionSet(NamedTuple):
    """Either a finite, sorted, permutation-closed list of triples, or a
    symbolic descriptor of the infinite family (all permutations of
    (s, t, -t) over every integer t)."""

    kind: str
    triples: tuple[Triple, ...] | None = None
    family_anchor: int | None = None

    @classmethod
    def finite(cls, triples: tuple[Triple, ...]) -> "SolutionSet":
        return cls(kind="finite", triples=triples)

    @classmethod
    def infinite_family(cls, anchor: int) -> "SolutionSet":
        return cls(kind="infinite_family", family_anchor=anchor)

    def to_json_dict(self) -> dict[str, Any]:
        if self.kind == "finite":
            assert self.triples is not None
            return {
                "kind": "finite",
                "solutions": [list(t) for t in self.triples],
            }
        return {"kind": "infinite_family", "family_anchor": self.family_anchor}

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "SolutionSet":
        kind = data.get("kind")
        if kind == "finite":
            triples = tuple(Triple(*map(int, sol)) for sol in data["solutions"])
            return cls.finite(triples)
        if kind == "infinite_family":
            return cls.infinite_family(int(data["family_anchor"]))
        raise ValueError(f"unknown solution-set kind {kind!r}")


def verify(triple: Triple, system: TripleSystem) -> bool:
    """True iff the triple satisfies both constraints exactly."""
    x, y, z = triple
    return x + y + z == system.s and x**3 + y**3 + z**3 == system.c


def _admissible_ks(d0: int) -> Iterable[int]:
    """k = s - z for every admissible pivot z of a system with d0 = c - s^3
    != 0, descending, so that z comes out ascending.

    z is admissible iff z != s and 3(s - z) divides d0; these are the only
    values any solution coordinate can take in a non-degenerate system.  So
    there are none unless 3 | d0, and otherwise k runs over the signed
    divisors of d0/3.
    """
    if d0 % 3 != 0:
        return ()
    return reversed(signed_divisors(d0 // 3))


def candidate_zs(system: TripleSystem) -> list[CandidateZ]:
    """Every admissible pivot z, sorted ascending, with k = s - z from
    _admissible_ks.  The list holds every admissible pivot, including those
    solve() skips: the ones with |k| > icbrt(|d0/3|), since every solution
    has a coordinate z with |s - z|^3 <= |d0/3|, and the ones the sign rule
    proves rootless (see the module docstring).
    """
    d0 = system.d0
    if d0 == 0:
        raise ValueError(
            f"system (s={system.s}, c={system.c}) is degenerate (c = s^3); "
            f"solve() handles this case"
        )
    return [CandidateZ(z=system.s - k, k=k, d=d0 // (3 * k)) for k in _admissible_ks(d0)]


def _discriminants(s: int, reduced: int, ks: Iterable[int]) -> list[int]:
    """The discriminant (k - 2s)^2 + 4*(reduced // k) of each pivot k, in the
    order of ks.

    k runs over divisors of reduced = d0/3 and z = s - k.  The pivot's
    quadratic is X^2 - k*X - constant = 0 with constant = s*z + d0/(3k), and
    k^2 + 4*constant expands to this.  This is the one place the
    discriminant is computed.
    """
    s2 = 2 * s
    return [(k - s2) ** 2 + 4 * (reduced // k) for k in ks]


def _roots(k: int, discriminant: int) -> tuple[int, ...]:
    """The ascending integer roots of X^2 - k*X - constant = 0 from its
    discriminant k^2 + 4*constant: empty when that is negative or not a
    square."""
    root = math.isqrt(discriminant) if discriminant >= 0 else -1
    if root * root != discriminant:
        return ()
    if root:
        # discriminant = k^2 (mod 4), so root = k (mod 2) and both roots are integers
        return ((k - root) // 2, (k + root) // 2)
    return (k // 2,)


def _pivot_pass(
    s: int, reduced: int, ks: Iterable[int]
) -> list[tuple[int, int, int, int, tuple[int, ...]]]:
    """Each pivot's (z, k, constant, discriminant, roots), in the order of ks,
    with the discriminant from _discriminants, the constant s*z + d0/(3k)
    recovered from it exactly (it is k^2 + 4*constant), and the roots from
    _roots."""
    ks = list(ks)
    return [
        (s - k, k, (discriminant - k * k) // 4, discriminant, _roots(k, discriminant))
        for k, discriminant in zip(ks, _discriminants(s, reduced, ks))
    ]


def solve_quadratic_for_x(candidate: CandidateZ, system: TripleSystem) -> list[int]:
    """Integer roots of X^2 - k*X - (s*z + d) = 0, sorted ascending; empty
    when the discriminant k^2 + 4(s*z + d) is negative or not a square.
    The candidate is one of candidate_zs(system), so k*d = d0/3."""
    k = candidate.k
    return list(_pivot_pass(system.s, k * candidate.d, (k,))[0][4])


def _closure(s: int, pivots: Iterable[tuple[int, Iterable[int]]]) -> tuple[Triple, ...]:
    """Every (x, s - z - x, z) closed under permutations and sorted."""
    found: set[tuple[int, int, int]] = set()
    for z, roots in pivots:
        for x in roots:
            found.update(itertools.permutations((x, s - z - x, z)))
    return tuple(Triple(*t) for t in sorted(found))


def _bound(s: int, d0: int) -> int:
    """completeness_bound of the system with sum s and d0 = c - s^3 != 0."""
    return abs(s) + max(1, abs(d0) // 3)


def completeness_bound(system: TripleSystem) -> int:
    """A box radius guaranteed to contain every solution coordinate.

    Any coordinate z of a solution satisfies 3|s - z| <= |d0|, hence
    |z| <= |s| + |d0|/3; the max(1, ...) keeps the bound positive for
    tiny d0.  Used to make brute-force comparisons exhaustive.
    """
    d0 = system.d0
    if d0 == 0:
        raise ValueError("degenerate system has no finite completeness bound")
    return _bound(system.s, d0)


def _solve_finite(s: int, d0: int) -> tuple[Triple, ...]:
    """The sorted solution triples of the system with sum s and
    d0 = c - s^3 != 0; see solve() for the method."""
    if d0 % 3 != 0:
        return ()
    reduced = d0 // 3
    cap = icbrt(abs(reduced))
    divisors = _divisors_up_to(reduced, cap)
    if cap * (cap + 2 * abs(s)) ** 2 < 4 * abs(reduced):
        # the sign rule: no pivot of the sign opposite to reduced has a root
        ks = divisors if reduced > 0 else [-d for d in divisors]
    else:
        ks = divisors + [-d for d in divisors]
    hits = [
        (k, discriminant)
        for k, discriminant in zip(ks, _discriminants(s, reduced, ks))
        if discriminant >= 0 and math.isqrt(discriminant) ** 2 == discriminant
    ]
    if not hits:
        return ()
    return _closure(s, [(s - k, _roots(k, discriminant)) for k, discriminant in hits])


def solve(system: TripleSystem) -> SolutionSet:
    """The complete solution set of the system.

    Degenerate systems (c = s^3) return the symbolic infinite family.
    Otherwise the finite set is assembled by running the quadratic at every
    admissible pivot inside the cube-root cap and closing under the 6
    coordinate permutations; the result is duplicate-free and sorted lexicographically.
    There are no admissible pivots unless 3 | d0.  Every solution
    satisfies d0/3 = -(s - x)(s - y)(s - z), so one of its coordinates z has
    |s - z|^3 <= |d0/3| (see the module docstring): only the positive
    divisors d <= L = icbrt(|d0/3|) are generated, unordered, and each is
    tested as k = d and k = -d, or only with the sign of d0/3 when
    L(L + 2|s|)^2 < 4|d0/3| proves the other sign rootless (the sign rule in
    the module docstring); the permutation closure restores the rest.
    For L up to 128 the divisors are found by dividing d0/3 by every
    k <= L.  Above that, trial division of d0/3 up to min(L, 10^6), and a
    certified-prime cofactor when L is larger, proves the divisor list
    complete.
    """
    d0 = system.d0
    if d0 == 0:
        return SolutionSet.infinite_family(system.s)
    return SolutionSet.finite(_solve_finite(system.s, d0))
