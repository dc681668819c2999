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
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Iterator, NamedTuple

from .solver import Triple, _solve_finite

__all__ = ["ScanRecord", "record_to_json", "scan_grid"]

# Most points one pool task classifies; a task never spans two rows.
SPAN_POINTS = 512
# Pool tasks submitted but not yet yielded, per worker process.
TASKS_PER_WORKER = 2


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
    for c in range(c_lo, c_hi + 1):
        d0 = c - s3
        if d0 == 0:
            yield ScanRecord(s, c, "infinite_family")
            continue
        triples = _solve_finite(s, d0)
        # tuple.__new__ skips ScanRecord's Python-level __new__, and the last
        # field is completeness_bound written out: both are per-point costs
        yield tuple.__new__(
            ScanRecord,
            (s, c, "finite", len(triples), triples if include_solutions else None, abs_s + (abs(d0) // 3 or 1)),
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
