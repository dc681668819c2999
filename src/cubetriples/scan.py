"""Batch sweep of a rectangular (s, c) grid.

Every grid point is classified independently (solver calls are pure), so
points may be evaluated by any number of worker processes; results are
re-sequenced into (s, c) ascending order before emission, making the
output stream identical regardless of worker count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterator

from .solver import Triple, TripleSystem, completeness_bound, solve

__all__ = ["ScanRecord", "record_to_json", "scan_grid"]


@dataclass(frozen=True)
class ScanRecord:
    """Classification of one grid point; finite-only fields are None for
    the infinite-family kind and are omitted from serialized records."""

    s: int
    c: int
    kind: str
    solution_count: int | None = None
    solutions: tuple[Triple, ...] | None = None
    bound_used: int | None = None

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"s": self.s, "c": self.c, "kind": self.kind}
        if self.solution_count is not None:
            out["solution_count"] = self.solution_count
        if self.solutions is not None:
            out["solutions"] = [list(t.as_tuple()) for t in self.solutions]
        if self.bound_used is not None:
            out["bound_used"] = self.bound_used
        return out


def record_to_json(record: ScanRecord) -> str:
    return json.dumps(record.to_json_dict(), separators=(",", ":"))


def _classify(point: tuple[int, int], include_solutions: bool) -> ScanRecord:
    s, c = point
    system = TripleSystem(s, c)
    result = solve(system)
    if result.kind == "infinite_family":
        return ScanRecord(s=s, c=c, kind="infinite_family")
    assert result.triples is not None
    return ScanRecord(
        s=s,
        c=c,
        kind="finite",
        solution_count=len(result.triples),
        solutions=result.triples if include_solutions else None,
        bound_used=completeness_bound(system),
    )


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

    points = itertools.product(range(s_min, s_max + 1), range(c_min, c_max + 1))
    classify = partial(_classify, include_solutions=include_solutions)
    if workers == 1:
        yield from map(classify, points)
        return
    # imported here so that importing the package never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    point_list = list(points)
    chunksize = max(1, len(point_list) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(classify, point_list, chunksize=chunksize)
