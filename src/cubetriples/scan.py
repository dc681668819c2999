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
consecutive integers n_lo .. n_hi, and the solver tests the divisors
k <= L = icbrt(|N|) of each.  _row walks every span with one loop over c.
A point with 3 not dividing d0 gets the empty record, c = s^3 the infinite
family, and every other point the pivots of one plan, run through
_solutions and built into its record by the same lines.  Only the plan's
source depends on the span.  Where the largest cap K = icbrt(max |N|) is
small next to the count of N, the span is sieved: one lazy divisor sieve
(O'Neill 2009, J. Functional Programming 19) lists the divisors, and
_pivot_plan applies the sign rule to them.  Elsewhere each point takes
solve()'s plan, _tested_ks(s, d0), which divides or factors N.  A span with
no point where 3 | d0 calls neither.

The sieve is a dict of buckets keyed by N.  It starts with each k <= K in
the bucket of its first multiple from n_lo on, ceil(n_lo/k)*k.  At each N
the bucket of N is popped and each k in it is pushed to N + k, its next
multiple.  By induction every k sits in the bucket of its least multiple
not yet passed, so the bucket popped at N holds exactly the k <= K that
divide N: for N = 0 at c = s^3 every k, and for negative N as for
positive.  L is kept by stepping it up or down by one as |N| moves by one,
and the k <= L go to _pivot_plan.  Bucket seeding and the stepped cap run
on sieved spans only.

A span is sieved when K <= SIEVE_RATIO * (n_hi - n_lo + 1).  Its cost is
about K for the first buckets plus ln K per N, against per-point division
up to L <= 128 and trial division above that.  With SIEVE_RATIO = 100, a
sieved span of ceil(SPAN_POINTS/3) = 171 values of N took 0.51 of the
per-point time, one of 34 values 0.83 and one of 11 about 1.0; at 200
those read 1.01, 1.02 and 1.57 (best of 5, median over s = 0, -7, 31 and
200, Python 3.11 on a 2-core Xeon).  So the largest sieved cap is
100 * 171 = 17 100, below TRIAL_LIMIT.  That is the invariant the two
sources rest on: a sieved span never holds a point where _tested_ks could
raise, so its records are the ones solve() gives, and only spans that are
not sieved can raise IncompleteFactorizationError, at the point where
solve() would.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Iterator, NamedTuple

from .intmath import icbrt
from .solver import Triple, _pivot_plan, _solutions, _tested_ks

__all__ = ["ScanRecord", "record_to_json", "scan_grid"]

# Most points one pool task classifies; a task never spans two rows.
SPAN_POINTS = 512
# Pool tasks submitted but not yet yielded, per worker process.
TASKS_PER_WORKER = 2
# _row sieves a span when its largest cap is at most this many times its
# count of points with 3 | d0; see the module docstring for the measurement.
SIEVE_RATIO = 100


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
    # the largest cap, at least 1 so that every n's bucket holds k = 1
    top = icbrt(max(-n_lo, n_hi, 1))
    sieved = top <= SIEVE_RATIO * (n_hi - n_lo + 1)
    if sieved:
        # buckets[n] holds each k <= top whose next multiple from n_lo on is n
        buckets: dict[int, list[int]] = {}
        for k in range(1, top + 1):
            buckets.setdefault(-(-n_lo // k) * k, []).append(k)
        # cap = icbrt(|n|) with low = cap^3 <= |n| < high = (cap + 1)^3
        cap = icbrt(abs(n_lo))
        low = cap**3
        high = (cap + 1) ** 3
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
        size = abs(n)
        if sieved:
            ks = buckets.pop(n)
            for k in ks:
                buckets.setdefault(n + k, []).append(k)
            if size < low:
                cap -= 1
                high = low
                low = cap**3
            elif size >= high:
                cap += 1
                low = high
                high = (cap + 1) ** 3
        if n == 0:
            yield ScanRecord(s, c, "infinite_family")
            continue
        if sieved:
            plan = _pivot_plan(s, n, cap, ks if cap == top else [k for k in ks if k <= cap])
        else:
            plan = _tested_ks(s, d0)
        triples = _solutions(s, n, plan[3])
        yield tuple.__new__(
            ScanRecord, (s, c, "finite", len(triples), triples if include_solutions else None, abs_s + size)
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
