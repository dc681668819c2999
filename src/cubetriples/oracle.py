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

Row x has t = s - x and columns y in [max(x, t - bound), min(bound, t//2)];
the rows of the box whose columns are not empty are exactly
max(-bound, s - 2*bound) <= x <= min(bound, s//3).  On those columns
g(y) = y^3 + (t - y)^3 is strictly monotone:

    g(y) - g(y - 1) = 3t(2y - t - 1),  and 2y - t - 1 < 0 for y <= t/2,

so g falls as y rises when t > 0 and rises when t < 0.  A row therefore
holds at most one y with g(y) = c - x^3, except the row t = 0, where g is
identically 0 and every column is a hit when c = x^3 (a degenerate box).
Each row walks y from where the previous row stopped: up while the
crossing does not lie below y + 1, then down while it lies below y, so y
ends on the last column at or below the crossing, which is the hit if
there is one.  The walk is exact from any start; the start only sets its
cost.  The crossing moves little from one row to the next, so a row
usually costs two cube sums and a call O(bound) of them, instead of one
per cell of the triangle.
"""

from __future__ import annotations

import itertools

from .solver import Triple, TripleSystem

__all__ = ["brute_force"]


def brute_force(system: TripleSystem, bound: int) -> list[Triple]:
    """All triples with max(|x|,|y|,|z|) <= bound satisfying the system,
    sorted lexicographically."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    s, c = system.s, system.c
    hits = []
    y = -bound
    for x in range(max(-bound, s - 2 * bound), min(bound, s // 3) + 1):
        t = s - x
        r = c - x * x * x
        # max() and min() spelled out: builtin calls would double a row's cost
        lo = t - bound if t - bound > x else x
        hi = t // 2 if t // 2 < bound else bound
        if t == 0:
            if r == 0:
                hits.extend((x, v, -v) for v in range(lo, hi + 1))
            continue
        if y < lo:
            y = lo
        elif y > hi:
            y = hi
        # sign * (g(y) - r) is > 0 when the crossing lies above y, 0 on it and
        # < 0 below it; y ends on the last column the crossing is not below
        sign = 1 if t > 0 else -1
        while y < hi:
            v, w = y + 1, t - y - 1
            if sign * (v * v * v + w * w * w - r) < 0:
                break
            y = v
        z = t - y
        gap = sign * (y * y * y + z * z * z - r)
        while gap < 0 and y > lo:
            y, z = y - 1, z + 1
            gap = sign * (y * y * y + z * z * z - r)
        if gap == 0:
            hits.append((x, y, z))
    found = {p for hit in hits for p in itertools.permutations(hit)}
    return [Triple(*p) for p in sorted(found)]
