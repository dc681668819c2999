"""Independent brute-force enumeration of solutions inside a box.

This is the ground truth the algebraic solver is checked against, so it
stays deliberately dumb: enumerate every (x, y) in the box, derive
z = s - x - y from the sum constraint, and test the cube sum.  Nothing
from the solver's reduction is reused here.

Two interchangeable backends: a pure-Python loop that is exact for any
bound, and a numpy sweep used when every intermediate value provably fits
in int64.  Both enumerate the identical box; tests cross-check them.
"""

from __future__ import annotations

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


def _sweep_python(system: TripleSystem, bound: int) -> list[Triple]:
    s, c = system.s, system.c
    out = []
    for x in range(-bound, bound + 1):
        t = s - x
        xc = x * x * x
        # restrict y so that z = t - y also lies inside the box
        for y in range(max(-bound, t - bound), min(bound, t + bound) + 1):
            z = t - y
            if xc + y * y * y + z * z * z == c:
                out.append(Triple(x, y, z))
    return out


def _sweep_numpy(system: TripleSystem, bound: int) -> list[Triple]:
    # imported here so that solve, trace and scan never pay for numpy
    import numpy as np

    s, c = system.s, system.c
    values = np.arange(-bound, bound + 1, dtype=np.int64)
    cubes = values * values * values
    cubes_rev = cubes[::-1]
    out = []
    for x in range(-bound, bound + 1):
        t = s - x
        ylo = max(-bound, t - bound)
        yhi = min(bound, t + bound)
        if ylo > yhi:
            continue
        m = yhi - ylo + 1
        ycubes = cubes[ylo + bound : ylo + bound + m]
        # z = t - y runs downward as y rises, so its cubes are a reversed
        # slice of the same table: index of z in cubes_rev is bound - z.
        j0 = bound - t + ylo
        zcubes = cubes_rev[j0 : j0 + m]
        hits = np.flatnonzero(ycubes + zcubes == c - x * x * x)
        for i in hits.tolist():
            y = ylo + int(i)
            out.append(Triple(x, y, t - y))
    return out
