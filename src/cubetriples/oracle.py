"""Independent brute-force enumeration of solutions inside a box.

This is the ground truth the algebraic solver is checked against, so it
stays deliberately dumb.  Both equations are symmetric in (x, y, z), so it
enumerates only the sorted representatives x <= y <= z of the box
max(|x|,|y|,|z|) <= bound, derives z = s - x - y from the sum constraint,
tests the cube sum, and closes the hits under the six coordinate
permutations.  With x <= y <= z, 3x <= s and 2y <= s - x, which bounds the
rows and columns; z <= bound bounds y from below.  Nothing from the
solver's reduction is reused here: no divisors, no discriminant and no
quadratic, only cubes of exact ints compared with c.

Row x has t = s - x and columns y in [max(x, t - bound), t//2]; the rows
of the box whose columns are not empty are exactly
max(-bound, s - 2*bound) <= x <= min(bound, s//3), and x >= s - 2*bound
gives t//2 <= bound on them.  On those columns g(y) = y^3 + (t - y)^3 is
strictly monotone:

    g(y) - g(y - 1) = 3t(2y - t - 1),  and 2y - t - 1 < 0 for y <= t/2,

so g falls as y rises when t > 0 and rises when t < 0.  A row therefore
holds at most one y with g(y) = r, r = c - x^3, except the row t = 0, where
g is identically 0 and every column is a hit when c = x^3 (a degenerate
box).  Each row walks y from where the previous row stopped: up while the
crossing does not lie below y + 1, else down while it lies below y, so y
ends on the last column at or below the crossing, which is the hit if
there is one.  The walk is exact from any start; the start only sets its
cost.

Where y stays put the loop skips rows.  Call row x bracketed when
x <= y < t//2 and sign*(g(y) - r) > 0 > sign*(g(y + 1) - r), sign the sign
of t: the crossing lies strictly between columns y and y + 1, so the walk
leaves y where it is and the row holds no hit.  The signs alone give
y < t//2: they need sign*(g(y + 1) - g(y)) = 3|t|(2y + 1 - t) < 0.  Fix y
and let m = s - y; row x has z = m - x, and

    F(x + 1) - F(x) = 3m(x - z'),  F(x) = x^3 + (m - x)^3,

where z' is the z of row x + 1, so x < z' whenever x + 1 <= y < t//2 holds
on row x + 1.  Across such rows g(y) - r = F(x) + y^3 - c is therefore
monotone in x, and so is g(y + 1) - r, with m - 1 for m.  As x rises, t
falls, so x <= y and y < t//2 hold on every row before one where they
hold, and y >= t - bound on every row after one where it holds: a bracket
that holds on two rows with the same sign of t holds on every row between
them.  None holds across x = s.  The row t = 0 is never bracketed, g being
constant on it, and rows a < s < b bracketed with the same y would need
y >= b > s, so m < 0 and F rising from a to b, against g(y) - r > 0 on a
and < 0 on b.  So from a bracketed row on, the bracketed rows are one run.
After four bracketed rows in a row the loop probes rows x + 1, x + 3,
x + 7, ... and bisects back to the end of the run (an exponential search,
Bentley and Yao 1976), each probe two cube sums compared with c.
"""

from __future__ import annotations

import itertools

from .solver import Triple, TripleSystem

__all__ = ["brute_force"]


def _bracketed(s: int, c: int, x: int, y: int) -> bool:
    """Whether row x is bracketed with column y (see the module docstring).
    The rest of lo <= y, t - bound <= y, holds on every row after the row
    the gallop starts from, and the signs force y < t//2."""
    if x > y:
        return False
    t = s - x
    r = c - x * x * x
    z, v, w = t - y, y + 1, t - y - 1
    sign = 1 if t > 0 else -1
    return sign * (y * y * y + z * z * z - r) > 0 > sign * (v * v * v + w * w * w - r)


def brute_force(system: TripleSystem, bound: int) -> list[Triple]:
    """All triples with max(|x|,|y|,|z|) <= bound satisfying the system,
    sorted lexicographically."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    s, c = system.s, system.c
    hits = []
    y = -bound
    x, last = max(-bound, s - 2 * bound), min(bound, s // 3)
    while x <= last:
        streak = 0
        for x in range(x, last + 1):
            t = s - x
            r = c - x * x * x
            # max() spelled out: a builtin call would double a row's cost
            lo = t - bound if t - bound > x else x
            # x >= s - 2*bound on every row, so t//2 <= bound
            hi = t // 2
            if t == 0:
                if r == 0:
                    hits.extend((x, v, -v) for v in range(lo, hi + 1))
                continue
            if y < lo:
                y = lo
            elif y > hi:
                y = hi
            # sign * (g(y) - r) is > 0 when the crossing lies above y, 0 on it
            # and < 0 below it; y ends on the last column the crossing is not below
            sign = 1 if t > 0 else -1
            z = t - y
            gap = sign * (y * y * y + z * z * z - r)
            if gap > 0 and y < hi:
                v, w = y + 1, z - 1
                ahead = sign * (v * v * v + w * w * w - r)
                if ahead < 0:
                    # bracketed: y stays put and the row holds no hit
                    streak += 1
                    if streak == 4:
                        break
                    continue
                y, z, gap = v, w, ahead
                while gap > 0 and y < hi:
                    v, w = y + 1, z - 1
                    ahead = sign * (v * v * v + w * w * w - r)
                    if ahead < 0:
                        break
                    y, z, gap = v, w, ahead
            else:
                while gap < 0 and y > lo:
                    y, z = y - 1, z + 1
                    gap = sign * (y * y * y + z * z * z - r)
            streak = 0
            if gap == 0:
                hits.append((x, y, z))
        else:
            break
        # four bracketed rows in a row: gallop to the end of their run
        good, bad, step = x, last + 1, 1
        while good + step < bad:
            if not _bracketed(s, c, good + step, y):
                bad = good + step
                break
            good, step = good + step, 2 * step
        while bad - good > 1:
            mid = (good + bad) // 2
            if _bracketed(s, c, mid, y):
                good = mid
            else:
                bad = mid
        x = good + 1
    found = {p for hit in hits for p in itertools.permutations(hit)}
    return [Triple(*p) for p in sorted(found)]
