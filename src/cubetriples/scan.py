"""Batch sweep of a rectangular (s, c) grid.

Every grid point is classified independently (solver calls are pure).  One
row worker, _row, classifies the points of one span of a row of fixed s on
plain ints.  The worker count is first capped at the number of row spans of
at most SPAN_POINTS points and at the CPU count (1 when that is unknown).
Every worker count walks the same spans in the same order.  With one
worker, scan_grid yields their records one at a time in the calling
process.  With more, a pool of that many processes classifies the spans, at
most TASKS_PER_WORKER spans per process are in flight at once, and the
spans' records are yielded in submission order.  Either way the stream is
in (s, c) ascending order and identical at every worker count.

Along a span, the points with 3 | d0 have N = d0/3 running over the
consecutive integers n_lo .. n_hi.  _row walks every span with one loop
over c.  A point with 3 not dividing d0 gets the empty record, c = s^3 the
infinite family, and every other point the record its solutions give, built
by the same lines.  Only where the solutions come from depends on the span.
Where the largest cap K = icbrt(max |N|) is small next to the count of N,
the solver's _span_solutions walks the whole span at once and hands back
the triples of each N, closed and sorted as solve() gives them.
Elsewhere each point calls solve(), which divides or factors N.  A span
with no point where 3 | d0 calls neither.  The solver's module docstring
proves both sources complete.

A span is enumerated when K <= ENUMERATION_RATIO * (n_hi - n_lo + 1).  The
enumeration costs about K cheap steps plus a few per N with a small
divisor, against per-point division up to L <= 128 and trial division
above that.  Enumeration time over point-path time of _row (best of 5,
range over s = 0, -7, 31, 200 and -1000 with the largest N at K^3 + 100,
Python 3.11 on a shared 2-core Xeon):

    count of N    K = 50 * count   100 * count   200 * count   400 * count
    171           0.15-0.17        0.21-0.23     0.30-0.34     0.41-0.45
    34            0.21-0.30        0.29-0.32     0.39-0.43     0.55-0.64
    11            0.45-0.48        0.44-0.54     0.65-0.68     0.71-0.76
    3             0.74-0.81        0.80-0.90     0.85-0.88     1.27-1.44
    1             1.17-1.50        1.32-1.46     1.55-1.68     2.12-2.48

Full spans keep winning far past 100: 171 values of N read 0.65-0.68 at
K = 1000 * 171 and 1.02-1.15 at 2000 * 171.  But short spans, such as
those at the ends of rows, lose between 200 and 400, so the switch stays
at ENUMERATION_RATIO = 100.  A span of one N loses at every ratio, by
about 14 against 10 microseconds at K = 100.

The largest enumerated cap is 100 * ceil(SPAN_POINTS/3) = 17 100, below
TRIAL_LIMIT.  That is the invariant the two paths rest on: an enumerated
span never holds a point where solve() could raise, so its records are
the ones solve() gives, and only spans that are not enumerated can raise
IncompleteFactorizationError, at the point where they call solve().
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Iterator, NamedTuple

from .intmath import icbrt
from .solver import Triple, TripleSystem, _span_solutions, solve

__all__ = ["ScanRecord", "record_to_json", "scan_grid"]

# Most points one pool task classifies; a task never spans two rows.
SPAN_POINTS = 512
# Pool tasks submitted but not yet yielded, per worker process.
TASKS_PER_WORKER = 2
# _row enumerates a span's solutions when its largest cap is at most this
# many times its count of points with 3 | d0; see the module docstring.
ENUMERATION_RATIO = 100


class ScanRecord(NamedTuple):
    """Classification of one grid point; finite-only fields are None for
    the infinite-family kind and are omitted from serialized records."""

    s: int
    c: int
    kind: str
    solution_count: int | None = None
    solutions: tuple[Triple, ...] | None = None
    bound_used: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """Every field that is not None, in declaration order, with the
        solutions as lists."""
        out = {name: value for name, value in zip(self._fields, self) if value is not None}
        if self.solutions is not None:
            out["solutions"] = [list(t) for t in self.solutions]
        return out


def record_to_json(record: ScanRecord) -> str:
    """The record as compact JSON: json.dumps(record.to_json_dict(),
    separators=(",", ":")) byte for byte, for a kind that needs no escaping
    ("finite" or "infinite_family")."""
    s, c, kind, count, solutions, bound = record
    if solutions is not None:
        # most points have none, and skipping the join for them is cheaper
        triples = ",".join([f"[{x},{y},{z}]" for x, y, z in solutions]) if solutions else ""
        if count is not None and bound is not None:
            # the finite record scan_grid yields with include_solutions
            return (
                f'{{"s":{s},"c":{c},"kind":"{kind}","solution_count":{count},'
                f'"solutions":[{triples}],"bound_used":{bound}}}'
            )
    line = f'{{"s":{s},"c":{c},"kind":"{kind}"'
    if count is not None:
        line += f',"solution_count":{count}'
    if solutions is not None:
        line += f',"solutions":[{triples}]'
    if bound is not None:
        line += f',"bound_used":{bound}'
    return line + "}"


def _row(s: int, c_lo: int, c_hi: int, include_solutions: bool) -> Iterator[ScanRecord]:
    """The records of the points (s, c_lo) .. (s, c_hi), in c order."""
    s3 = s**3
    abs_s = abs(s)
    # the points with 3 | d0 have N = d0/3 = n_lo .. n_hi, ascending
    n_lo = -((s3 - c_lo) // 3)
    n_hi = (c_hi - s3) // 3
    top = icbrt(max(-n_lo, n_hi, 1))
    triples_of = _span_solutions(s, n_lo, n_hi, top) if top <= ENUMERATION_RATIO * (n_hi - n_lo + 1) else None
    # finite records are built with tuple.__new__, which skips ScanRecord's
    # Python-level __new__, and write the last field out as
    # completeness_bound: both are per-point costs
    empty = () if include_solutions else None
    for c in range(c_lo, c_hi + 1):
        d0 = c - s3
        if d0 % 3:
            yield tuple.__new__(ScanRecord, (s, c, "finite", 0, empty, abs_s + (abs(d0) // 3 or 1)))
            continue
        n = d0 // 3
        if n == 0:
            yield ScanRecord(s, c, "infinite_family")
            continue
        triples = solve(TripleSystem(s, c)).triples if triples_of is None else triples_of(n)
        yield tuple.__new__(
            ScanRecord, (s, c, "finite", len(triples), triples if include_solutions else None, abs_s + abs(n))
        )


def _span(s: int, c_lo: int, c_hi: int, include_solutions: bool) -> list[ScanRecord]:
    """One pool task: the records of one row span."""
    return list(_row(s, c_lo, c_hi, include_solutions))


def scan_grid(
    s_range: tuple[int, int],
    c_range: tuple[int, int],
    workers: int = 1,
    include_solutions: bool = False,
) -> Iterator[ScanRecord]:
    """One ScanRecord per grid point, streamed in (s, c) ascending order."""
    s_min, s_max = s_range
    c_min, c_max = c_range
    if s_min > s_max or c_min > c_max:
        raise ValueError(
            f"empty grid: s range {s_min}:{s_max}, c range {c_min}:{c_max}"
        )
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    # the pool may start all its workers at the first submit, so ask for no
    # more than can be busy at once; a pool of one would only add pickling
    span_count = (s_max - s_min + 1) * -(-(c_max - c_min + 1) // SPAN_POINTS)
    workers = min(workers, span_count, os.cpu_count() or 1)
    # the one (s, c) order both paths walk
    spans = (
        (s, lo, min(lo + SPAN_POINTS - 1, c_max))
        for s in range(s_min, s_max + 1)
        for lo in range(c_min, c_max + 1, SPAN_POINTS)
    )
    if workers == 1:
        for span in spans:
            yield from _row(*span, include_solutions)
        return
    # imported here so that importing the package never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    in_flight = TASKS_PER_WORKER * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for span in spans:
            pending.append(pool.submit(_span, *span, include_solutions))
            if len(pending) == in_flight:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
