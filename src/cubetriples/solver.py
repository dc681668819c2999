"""Exact solver for the symmetric system  X + Y + Z = s,  X^3 + Y^3 + Z^3 = c.

The reduction: pick a pivot coordinate Z and put k = s - Z.  Dividing the
cube-sum constraint by the sum constraint (X^3 + Y^3 factors as
(X + Y)(X^2 - XY + Y^2)) and substituting Y = s - Z - X collapses the system
to one quadratic per pivot,

    X^2 - k*X - (s*Z + d) = 0        with  d = (c - s^3) / (3k),

which has integer content only when 3k divides d0 = c - s^3.  That
divisibility condition admits finitely many pivots whenever d0 != 0, so
enumerating the signed divisors k of N = d0/3 and testing each quadratic's
discriminant yields every solution.  The degenerate case c = s^3 (d0 = 0)
makes the quadratic factor as (X - s)(X + Z) = 0 for every pivot, producing
the infinite family of permutations of (s, t, -t).

This module draws solutions from that reduction in two ways, and this
docstring is where both are proven.  _tested_ks lists one point's divisor
pivots for solve() and the trace; _span_solutions walks a least coordinate
for a whole span of N at once, for scan.  solve() and the function that
_span_solutions returns both hand back triples closed and sorted by
_closure.

The identity and the cap.  For a solution write u = s - X, v = s - Y and
w = s - Z, so u + v + w = 2s.  The identity (X + Y + Z)^3 - X^3 - Y^3 - Z^3
= 3(X + Y)(Y + Z)(Z + X) with X + Y = s - Z gives

    N = d0/3 = -(s - X)(s - Y)(s - Z) = -uvw,

so N != 0 makes all three factors nonzero.  At the pivot k = w, with
m = u + v = 2s - w, the discriminant of the quadratic is

    D(k) = (k - 2s)^2 + 4N/k = m^2 - 4uv = (u - v)^2,

and u, v = (m +- e)/2 for e = |u - v|.  A coordinate of least |.|, say w
with t = |w|, has t^3 <= |uvw| = |N|, so t <= L = icbrt(|N|).  So only
pivots with |k| <= L need testing, and closing under the coordinate
permutations finds every ordering of the solution.

The sign rule halves those pivots wherever it applies.  Write
a = s if N < 0 else -s.  A pivot of the sign opposite to N's is
k = -t*sign(N) with 1 <= t <= L; then (k - 2s)^2 = (t - 2a)^2 and
4N/k = -4|N|/t, so t * D(k) = f(t) - 4|N| with f(t) = t(t - 2a)^2.
That whole side is rootless, as every such pivot has D(k) < 0, whenever
f(t) < 4|N| for all 0 < t <= L.  For a <= 0, f rises with t.  For a > 0,
f'(t) = (t - 2a)(3t - 2a), so f rises to its local maximum
f(2a/3) = 32a^3/27, falls to 0 at t = 2a, and rises after; over (0, L] its
largest value is f(L), or 32a^3/27 when 3L > 2a.  That second value needs no
test: 3L > 2a and L^3 <= |N| give 32a^3/27 < 4L^3 <= 4|N|.  So the rule is
the one comparison L(L - 2a)^2 < 4|N|, and then only the divisors with the
sign of N are tested.

The residue rule then drops each listed pivot whose class mod 18 makes
D(k) a non-square mod 9 or mod 8.  k divides N, so N/k is an integer.
Mod 9: when 3 does not divide k, k is invertible mod 9 and N/k = N*k^-1
(mod 9), so D(k) = (k - 2s)^2 + 4N*k^-1 (mod 9) depends only on k mod 9,
s mod 9 and N mod 9, and a value outside the squares {0, 1, 4, 7} mod 9
leaves the pivot rootless.  Mod 8: when k and N are both odd, N/k is odd,
(k - 2s)^2 = 1 and 4N/k = 4 (mod 8), so D(k) = 5 (mod 8), which is not a
square.  k mod 18 decides both cases, so the rule is one 18-entry table per
(s mod 9, N mod 18).  When N is odd every divisor is odd and the table
drops every pivot, in line with x^3 = x (mod 2): a solvable system has d0
even.

The enumeration turns the cap around and lists no divisors.  With top at
least the cap of every N of the span, a least coordinate w of each solution
has t = |w| <= top.  So for each t <= top and each side w = +-t, uv runs
over the integers q = -N/w for the N of the span that w divides, and
e^2 = m^2 - 4uv over an interval; every e of the parity of m there is a
solution.  The span is split into its
N < 0 and its N > 0, so that uv has one sign on each side of each part, and
two side bounds end the walk early:

- uv < 0 (w with the sign of N): u and v have opposite signs, so
  e = |u| + |v| and |m| = ||u| - |v||.  |u|, |v| >= t then reads
  e >= |m| + 2t, and |N| = t|u||v| >= t^2(t + |m|).  That bound rises
  with t (|m| changes by 1 per step of t, so its derivative is at least
  2t^2), so once t(t + |m|) passes the largest quotient |N|/t, this side
  is done for good.
- uv > 0 (w with the sign opposite to N's, the side of the sign rule):
  |m| = |u| + |v| and e = ||u| - |v||, so |u|, |v| >= t reads
  e <= |m| - 2t, which needs |m| >= 2t.  Here |m| = |t - 2a|, so that
  holds exactly for t <= 2|a| when a <= 0 and t <= 2a/3 when a > 0, a
  range on which f rises, as the sign rule shows.  And D = e^2 >= 0 needs
  f(t) >= 4|N|.  So if f is below 4 min |N| at the last t of that range
  up to top, this side has no solution in the part and is never walked:
  the sign rule, applied to the whole part.

Both branches test, before any isqrt, whether t has a multiple among the
|N| of the part and whether the bound on e leaves any e, and most t fail
the first test on spans whose top is large.  Since |uv| >= t^2 >= 1, no hit
lands at N = 0.  A solution is found once from each of its coordinates of
least |.|, so one with tied least coordinates is found twice or three
times; _closure's set keeps one of each.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Iterable, NamedTuple

from .intmath import _divisors_up_to, icbrt, isqrt, signed_divisors

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
        return cls("finite", triples)

    @classmethod
    def infinite_family(cls, anchor: int) -> "SolutionSet":
        return cls("infinite_family", None, anchor)

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
        """The solution set whose to_json_dict() is data.  ValueError for
        anything to_json_dict() cannot write: data that is not a dict, an
        unknown kind, a key set other than the kind's two keys, a solution
        that is not a list of exactly three ints, or an anchor that is not
        an int; a bool, a float or a string is not an int here."""
        if not isinstance(data, dict):
            raise ValueError(f"a solution set is a dict, not {type(data).__name__}")
        kind = data.get("kind")
        if kind == "finite":
            solutions = data.get("solutions")
            if data.keys() != {"kind", "solutions"} or type(solutions) is not list or not all(
                type(t) is list and len(t) == 3 and all(type(v) is int for v in t) for t in solutions
            ):
                raise ValueError("a finite set has only kind and solutions, a list of [x, y, z] int lists")
            return cls.finite(tuple(Triple(*t) for t in solutions))
        if kind == "infinite_family":
            anchor = data.get("family_anchor")
            if data.keys() != {"kind", "family_anchor"} or type(anchor) is not int:
                raise ValueError("an infinite family has only kind and family_anchor, an int")
            return cls.infinite_family(anchor)
        raise ValueError(f"unknown solution-set kind {kind!r}")


def verify(triple: Triple, system: TripleSystem) -> bool:
    """True iff the triple satisfies both constraints exactly."""
    x, y, z = triple
    return x + y + z == system.s and x**3 + y**3 + z**3 == system.c


def candidate_zs(system: TripleSystem) -> list[CandidateZ]:
    """Every admissible pivot z, sorted ascending, with k = s - z.

    z is admissible iff z != s and 3(s - z) divides d0; these are the only
    values any solution coordinate can take in a non-degenerate system.  So
    the list is empty unless 3 | d0, and otherwise k runs over every signed
    divisor of d0/3, the pivots that solve() skips by the cap, the sign rule
    or the residue rule included.  Listing every divisor needs d0/3 fully
    factored, so this raises IncompleteFactorizationError where the cofactor
    is not certified prime, also where solve() answers by trial division to
    the cap: (0, 3000108000297) raises here with cofactor 1000036000099, and
    solve() returns the empty set.
    """
    d0 = system.d0
    if d0 == 0:
        raise ValueError(
            f"system (s={system.s}, c={system.c}) is degenerate (c = s^3); "
            f"solve() handles this case"
        )
    if d0 % 3 != 0:
        return []
    reduced = d0 // 3
    return [CandidateZ(z=system.s - k, k=k, d=reduced // k) for k in reversed(signed_divisors(reduced))]


@functools.cache
def _residue_table(s9: int, n18: int) -> bytes:
    """The residue rule's table for s = s9 (mod 9) and N = n18 (mod 18):
    entry r is 0 when the rule drops the pivots k = r (mod 18), mod 9 or
    mod 8, else 1.  The module docstring proves the rule."""
    return bytes(
        not (r % 3 and ((r - 2 * s9) ** 2 + 4 * n18 * pow(r, -1, 9)) % 9 not in (0, 1, 4, 7) or r & n18 & 1)
        for r in range(18)
    )


def _tested_ks(s: int, d0: int) -> tuple[int, int, int, tuple[int, ...], list[int], list[int]] | None:
    """The pivot plan of the system with sum s and d0 = c - s^3 != 0: the
    one place that decides which pivots are tested, for solve() and
    derive_trace alike.  None when no pivot is admissible, which is when 3
    does not divide d0; else (reduced, L, a, signs, divisors, ks) for
    reduced = d0/3, the cap L = icbrt(|reduced|) and the sign rule's shift
    a = s if reduced < 0 else -s.  divisors are the divisors d <= L of
    reduced that _divisors_up_to lists; signs is (1, -1), or only the sign
    of reduced where the sign rule holds; and ks, in no particular order,
    are the pivots k = sign * d that the residue rule keeps.  The module
    docstring proves the cap and both rules.
    """
    if d0 % 3 != 0:
        return None
    reduced = d0 // 3
    cap = icbrt(abs(reduced))
    divisors = _divisors_up_to(reduced, cap)
    a = s if reduced < 0 else -s
    signs = (1 if reduced > 0 else -1,) if cap * (cap - 2 * a) ** 2 < 4 * abs(reduced) else (1, -1)
    ok = _residue_table(s % 9, reduced % 18)
    ks = [d for d in divisors if ok[d % 18]] if 1 in signs else []
    if -1 in signs:
        ks += [-d for d in divisors if ok[-d % 18]]
    return reduced, cap, a, signs, divisors, ks


def _span_solutions(s: int, n_lo: int, n_hi: int, top: int) -> Callable[[int], tuple[Triple, ...]]:
    """A function from each N in n_lo .. n_hi to the triples of the system
    with sum s and d0 = 3N, closed and sorted by _closure exactly as solve()
    gives them, so () where N has none; top is any bound >= icbrt(|N|) for
    every N.  The walk runs once, here, and each call closes one N, so a
    caller that reads the N one by one pays each closure at its own N.  The
    walk finds each solution (x, s - z - x, z) once per coordinate z of
    least |s - z|.  The module docstring proves the bounds."""
    hits: dict[int, list[tuple[int, tuple[int]]]] = {}
    s2 = 2 * s
    # the N < 0 and the N > 0 of the span, as g = sign(N) and low <= |N| <= high
    for g, low, high in ((-1, 1 if n_hi >= 0 else -n_hi, -n_lo), (1, 1 if n_lo <= 0 else n_lo, n_hi)):
        if low > high:
            continue
        # uv > 0 only at w = -g*t with t <= last, the t where |m| >= 2t, and
        # none at all if t*m^2, which rises up to last, is below 4*low there
        a = -g * s
        last = 2 * a // 3 if a > 0 else -2 * a
        if last > top:
            last = top
        if last * (last - 2 * a) ** 2 < 4 * low:
            last = 0
        below = low - 1
        for t in range(1, top + 1):
            q_hi = high // t
            if q_hi == below // t:
                # no multiple of t among the |N| of the part
                continue
            q_lo = below // t + 1
            # uv = -q < 0 at w = g*t: e >= |m| + 2t
            w = g * t
            m = s2 - w
            am = m if m >= 0 else -m
            if t * (am + t) > q_hi:
                # t^2(t + |m|) > high, and so for every later t
                if t > last:
                    break
            else:
                mm = m * m
                e = am + 2 * t if t * (am + t) >= q_lo else isqrt(mm + 4 * q_lo - 1) + 1
                for e in range(e + ((e - m) & 1), isqrt(mm + 4 * q_hi) + 1, 2):
                    u = (m + e) // 2
                    hits.setdefault(-w * u * (m - u), []).append((s - w, (s - u,)))
            if t <= last:
                # uv = q > 0 at w = -g*t: e <= |m| - 2t
                w = -w
                m = s2 - w
                am = m if m >= 0 else -m
                mm = m * m
                least = t * (am - t)
                if least <= q_hi and 4 * q_lo <= mm:
                    r = mm - 4 * q_hi
                    e = isqrt(r - 1) + 1 if r > 0 else 0
                    top_e = am - 2 * t if least >= q_lo else isqrt(mm - 4 * q_lo)
                    for e in range(e + ((e - m) & 1), top_e + 1, 2):
                        u = (m + e) // 2
                        hits.setdefault(-w * u * (m - u), []).append((s - w, (s - u,)))
    return lambda n: _closure(s, hits[n]) if n in hits else ()


def _discriminants(s: int, reduced: int, ks: Iterable[int]) -> list[int]:
    """The discriminant (k - 2s)^2 + 4*reduced/k of each pivot k, in the
    order of ks.

    k runs over divisors of reduced = d0/3 and z = s - k.  The pivot's
    quadratic is X^2 - k*X - constant = 0 with constant = s*z + d0/(3k), and
    k^2 + 4*constant expands to this.  This is the one place the
    discriminant is computed.  4*reduced is formed once: k divides reduced,
    so k divides 4*reduced exactly, and floor division of it by k, of either
    sign, gives 4*(reduced/k) with no remainder to round.
    """
    s2 = 2 * s
    r4 = 4 * reduced
    return [(t := k - s2) * t + r4 // k for k in ks]


def _roots(k: int, discriminant: int) -> tuple[int, ...]:
    """The ascending integer roots of X^2 - k*X - constant = 0 from its
    discriminant k^2 + 4*constant: empty when that is negative or not a
    square."""
    root = isqrt(discriminant) if discriminant >= 0 else -1
    if root * root != discriminant:
        return ()
    if root:
        # discriminant = k^2 (mod 4), so root = k (mod 2) and both roots are integers
        return ((k - root) // 2, (k + root) // 2)
    return (k // 2,)


def solve_quadratic_for_x(candidate: CandidateZ, system: TripleSystem) -> list[int]:
    """Integer roots of X^2 - k*X - (s*z + d) = 0, sorted ascending; empty
    when the discriminant k^2 + 4(s*z + d) is negative or not a square.
    The candidate is one of candidate_zs(system), so k*d = d0/3."""
    k = candidate.k
    (discriminant,) = _discriminants(system.s, k * candidate.d, (k,))
    return list(_roots(k, discriminant))


def _closure(s: int, pivots: Iterable[tuple[int, Iterable[int]]]) -> tuple[Triple, ...]:
    """Every (x, s - z - x, z) closed under permutations and sorted."""
    found: set[tuple[int, int, int]] = set()
    for z, roots in pivots:
        for x in roots:
            found.update(itertools.permutations((x, s - z - x, z)))
    return tuple(Triple(*t) for t in sorted(found))


def completeness_bound(system: TripleSystem) -> int:
    """A box radius guaranteed to contain every solution coordinate.

    Any coordinate z of a solution satisfies 3|s - z| <= |d0|, hence
    |z| <= |s| + |d0|/3; the max(1, ...) keeps the bound positive for
    tiny d0.  Used to make brute-force comparisons exhaustive.
    """
    d0 = system.d0
    if d0 == 0:
        raise ValueError("degenerate system has no finite completeness bound")
    return abs(system.s) + max(1, abs(d0) // 3)


def solve(system: TripleSystem) -> SolutionSet:
    """The complete solution set of the system: the one per-point path,
    which scan's point spans call too.

    Degenerate systems (c = s^3) return the symbolic infinite family.
    Otherwise solve makes the calls derive_trace makes, in the same order:
    _tested_ks for the pivot plan, which is None, and the set empty, unless
    3 | d0; _discriminants at every pivot of the plan; _roots at those whose
    discriminant is a square; and _closure, which closes the roots under the
    6 coordinate permutations, so the result is duplicate-free and sorted
    lexicographically.  The module docstring proves that the plan finds
    every solution.  IncompleteFactorizationError comes from _divisors_up_to,
    where the divisors up to the cap cannot be proven complete.
    """
    s, d0 = system.s, system.d0
    if d0 == 0:
        return SolutionSet.infinite_family(s)
    plan = _tested_ks(s, d0)
    if plan is None:
        return SolutionSet.finite(())
    reduced, _, _, _, _, ks = plan
    hits = [
        (k, discriminant)
        for k, discriminant in zip(ks, _discriminants(s, reduced, ks))
        if discriminant >= 0 and (root := isqrt(discriminant)) * root == discriminant
    ]
    if not hits:
        return SolutionSet.finite(())
    return SolutionSet.finite(_closure(s, [(s - k, _roots(k, discriminant)) for k, discriminant in hits]))
