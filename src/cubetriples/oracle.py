"""Independent brute-force enumeration of solutions inside a box.

This is the ground truth the algebraic solver is checked against, so it
stays deliberately dumb.  Both equations are symmetric in (x, y, z), so it
enumerates only the sorted representatives x <= y <= z of the box
max(|x|,|y|,|z|) <= bound, derives z = s - x - y from the sum constraint,
tests the cube sum, and closes the hits under the six coordinate
permutations.  With x <= y <= z, 3x <= s and 2y <= s - x, which bounds the
rows and columns; z <= bound bounds y from below.  Nothing from the
solver's reduction is reused here.

Two interchangeable backends: a pure-Python loop that is exact for any
bound, and a numpy sweep used when every intermediate value provably fits
in int64.  Both enumerate the identical triangle; tests cross-check them
against each other and against a full-box enumeration.
"""

from __future__ import annotations

import itertools

from .solver import Triple, TripleSystem

__all__ = ["brute_force"]

# 2 * bound^3 + |c| must stay below 2^63; bounds up to ~10^6 are safe.
_INT64_SAFE_BOUND = 1_000_000


def brute_force(system: TripleSystem, bound: int) -> list[Triple]:
    """All triples with max(|x|,|y|,|z|) <= bound satisfying the system,
    sorted lexicographically."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if bound <= _INT64_SAFE_BOUND and abs(system.c) < 2**62:
        return _sweep_numpy(system, bound)
    return _sweep_python(system, bound)


def _permuted(hits: list[tuple[int, int, int]]) -> list[Triple]:
    """The sorted hits closed under the six coordinate permutations."""
    found = {p for hit in hits for p in itertools.permutations(hit)}
    return [Triple(*p) for p in sorted(found)]


def _sweep_python(system: TripleSystem, bound: int) -> list[Triple]:
    s, c = system.s, system.c
    hits = []
    for x in range(-bound, min(bound, s // 3) + 1):
        t = s - x
        r = c - x * x * x
        # x <= y <= z = t - y <= bound
        for y in range(max(x, t - bound), min(bound, t // 2) + 1):
            z = t - y
            if y * y * y + z * z * z == r:
                hits.append((x, y, z))
    return _permuted(hits)


def _sweep_numpy(system: TripleSystem, bound: int) -> list[Triple]:
    # imported here so that solve, trace and scan never pay for numpy
    import numpy as np

    s, c = system.s, system.c
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    cubes = values * values * values
    cubes_rev = cubes[::-1]
    hits = []
    for x in range(-bound, min(bound, s // 3) + 1):
        t = s - x
        ylo = max(x, t - bound)
        yhi = min(bound, t // 2)
        if ylo > yhi:
            continue
        m = yhi - ylo + 1
        ycubes = cubes[ylo + bound : ylo + bound + m]
        # z = t - y runs downward as y rises, so its cubes are a reversed
        # slice of the same table: index of z in cubes_rev is bound - z.
        j0 = bound - t + ylo
        zcubes = cubes_rev[j0 : j0 + m]
        (found,) = (ycubes + zcubes == c - x * x * x).nonzero()
        for i in found.tolist():
            y = ylo + i
            hits.append((x, y, t - y))
    return _permuted(hits)
