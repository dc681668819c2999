"""In-memory spans recorded around calls into the package, and the per-layer
metrics derived from them.

Spans are recorded only by the benchmark's own code, around calls into the
public functions of ``cubetriples``; the package itself is not instrumented.
They are called spans (not traces) so they are not confused with
``cubetriples.trace``, which is one of the layers being measured.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

# The end-to-end metric and workload each per-layer metric should move; the
# names and units are listed in BENCHMARK.json.
LAYER_LINKS = {
    "intmath.factorize.s": "solve_pps, solve_tail_us on hard_d0; small on grid, ~0 on smooth_d0",
    "intmath.factorize.calls": "solve_pps, solve_tail_us on hard_d0",
    "intmath.factorize.fail": "fail_frac on hard_d0",
    "intmath.signed_divisors.self_s": "solve_pps on smooth_d0",
    "intmath.divisors": "solve_pps on smooth_d0",
    "solver.candidate_zs.self_s": "solve_pps on smooth_d0, scan_pps_j1 on grid",
    "solver.pivots": "solve_pps on smooth_d0, scan_pps_j1 on grid",
    "solver.pivot_yield": "solve_pps on smooth_d0, scan_pps_j1 on grid",
    "solver.quadratic.s": "solve_pps on smooth_d0",
    "solver.quadratic.hit_ratio": "solve_pps on smooth_d0",
    "solver.solve.self_s": "scan_pps_j1 on grid",
    "solver.empty_mod3_frac": "scan_pps_j1 on grid",
    "scan.self_s": "scan_pps_j1 on grid",
    "scan.record_to_json.s": "scan_pps_j1 on grid",
    "scan.bytes": "scan_pps_j1 on grid",
    "scan.j2_speedup": "scan_pps_j2, peak_rss_mb on grid",
    "oracle.brute_force.s": "check_sps on oracle_check",
    "oracle.brute_force.calls": "check_sps on oracle_check",
    "oracle.cells": "check_sps on oracle_check",
    "oracle.share": "check_sps on oracle_check",
    "trace.derive_trace.self_s": "trace_p50_us on smooth_d0",
    "trace.render.s": "trace_p50_us on smooth_d0",
    "trace.steps": "trace_p50_us on smooth_d0",
    "trace.bytes": "trace_p50_us on smooth_d0",
    "cli.cold_start_s": "setup_s on grid, hard_d0, smooth_d0 (not oracle_check)",
    "cli.numpy_loaded": "setup_s on grid, hard_d0, smooth_d0 (not oracle_check)",
    "spans.overhead_frac": "none: traced over untraced time of the same calls, minus 1",
    "spans.count": "none: spans recorded per traced round",
}


class SpanLog:
    """Spans as rows of [name, request, parent, start, end, ok].

    A span's id is its row index; ``parent`` is the id of the enclosing
    span and ``request`` identifies the system (or grid point) it serves.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []

    def start(self, name: str, request: int | None = None, parent: int | None = None) -> int:
        self.rows.append([name, request, parent, perf_counter(), None, True])
        return len(self.rows) - 1

    def end(self, span: int, ok: bool = True) -> None:
        row = self.rows[span]
        row[4] = perf_counter()
        row[5] = ok

    def call(self, name: str, request: int | None, parent: int | None, fn, *args):
        """``fn(*args)`` inside a span; an exception closes it as failed."""
        span = self.start(name, request, parent)
        try:
            out = fn(*args)
        except Exception:
            self.end(span, ok=False)
            raise
        self.end(span)
        return out

    def durations(self, name: str) -> list[float]:
        return [row[4] - row[3] for row in self.rows if row[0] == name]

    def write(self, sink, round_index: int) -> None:
        for span, (name, request, parent, start, end, ok) in enumerate(self.rows):
            sink.write(json.dumps([round_index, span, name, request, parent, start, end, ok]) + "\n")


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(log: SpanLog, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    Self times subtract the separately timed inner stages of the same
    request (system), so they count only systems where every stage ran.
    A layer the workload does not exercise reads 0.
    """
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    fails: Counter = Counter()
    per_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    for name, request, parent, start, end, ok in log.rows:
        elapsed = end - start
        total[name] += elapsed
        calls[name] += 1
        fails[name] += not ok
        if request is not None:
            per_request[request][name] += elapsed
        if parent is not None:
            child_time[parent] += elapsed

    def self_time(name: str, *inner: str) -> float:
        return sum(
            stages[name] - sum(stages[i] for i in inner)
            for stages in per_request.values()
            if name in stages and all(i in stages for i in inner)
        )

    scan_j1 = [i for i, row in enumerate(log.rows) if row[0] == "scan.scan_grid.j1"]
    scan_self = sum(log.rows[i][4] - log.rows[i][3] - child_time[i] for i in scan_j1)
    if scan_j1:
        scan_self -= total["solver.solve"]

    return {
        "intmath.factorize.s": total["intmath.factorize"],
        "intmath.factorize.calls": calls["intmath.factorize"],
        "intmath.factorize.fail": fails["intmath.factorize"],
        "intmath.signed_divisors.self_s": self_time("intmath.signed_divisors", "intmath.factorize"),
        "intmath.divisors": counts["divisors"],
        "solver.candidate_zs.self_s": self_time("solver.candidate_zs", "intmath.signed_divisors"),
        "solver.pivots": counts["pivots"],
        "solver.pivot_yield": _ratio(counts["pivots"], counts["divisors"]),
        "solver.quadratic.s": total["solver.quadratic"],
        "solver.quadratic.hit_ratio": _ratio(counts["pivot_hits"], counts["pivots"]),
        "solver.solve.self_s": self_time("solver.solve", "solver.candidate_zs", "solver.quadratic"),
        "solver.empty_mod3_frac": _ratio(counts["mod3_empty"], counts["nondegenerate"]),
        "scan.self_s": scan_self,
        "scan.record_to_json.s": sum(
            row[4] - row[3] for row in log.rows if row[0] == "scan.record_to_json" and row[2] in scan_j1
        ),
        "scan.bytes": counts["scan_bytes"],
        "scan.j2_speedup": _ratio(total["scan.scan_grid.j1"], total["scan.scan_grid.j2"]),
        "oracle.brute_force.s": total["oracle.brute_force"],
        "oracle.brute_force.calls": calls["oracle.brute_force"],
        "oracle.cells": counts["oracle_cells"],
        "oracle.share": _ratio(total["oracle.brute_force"], total["oracle.check"]),
        "trace.derive_trace.self_s": self_time("trace.derive_trace", "solver.candidate_zs", "solver.solve"),
        "trace.render.s": total["trace.render"],
        "trace.steps": counts["trace_steps"],
        "trace.bytes": counts["trace_bytes"],
        "spans.count": len(log.rows),
    }
