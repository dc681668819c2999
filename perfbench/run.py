"""Benchmark of the cubetriples pipeline: one workload per run, or all four.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, which alternates untraced and traced rounds over the same
inputs.  The lines before it print every metric under its workload-specific
name, with its unit and sample count.  A full report (and, when traced, every
span) is written to ``.perfbench_out/``.  Any wrong answer exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCH = Path(__file__).resolve().parent

# Metric names, units and workload rationales live in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None
# Each workload also prints the shared end-to-end metrics under its own names.
OWN_NAMES = {
    "grid": ("scan_pps_j1", "scan_p50_us", "scan_tail_us"),
    "hard_d0": ("solve_pps", "solve_p50_us", "solve_tail_us"),
    "smooth_d0": ("solve_pps", "solve_p50_us", "solve_tail_us"),
    "oracle_check": ("check_sps", "check_p50_us", "check_tail_us"),
}
SETUP_PROBES = 7
COLD_STARTS = 3
# Tail percentiles in per mille, highest first; the tail is the highest one
# with at least ten samples beyond it.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(workload: str) -> list[float]:
    """Fresh interpreters, one after another: start until warm-up ends."""
    probe = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads; workloads.WORKLOADS[sys.argv[3]].warm_up(); print('ready', flush=True)\n"
    )
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", probe, str(SRC), str(BENCH), workload],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed with exit code {child.returncode}")
        samples.append(elapsed)
    return samples


def cli_probes(log, tally) -> dict[str, float]:
    """Cold start of `python -m cubetriples solve --sum 3 --cubes 3`, and
    whether importing the package loads numpy."""
    from check import finite_problem

    seconds = []
    for request in range(COLD_STARTS):
        span = log.start("cli.cold_start", request)
        done = subprocess.run(
            [sys.executable, "-m", "cubetriples", "solve", "--sum", "3", "--cubes", "3"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        log.end(span, ok=done.returncode == 0)
        seconds.append(log.rows[span][4] - log.rows[span][3])
        triples = [tuple(int(v) for v in line.strip("()").split(", ")) for line in done.stdout.splitlines()]
        if done.returncode != 0 or not triples or finite_problem(3, 3, triples):
            tally.wrong.append(f"cubetriples solve --sum 3 --cubes 3 printed {done.stdout!r}")
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, cubetriples; print(int('numpy' in sys.modules))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return {"cli.cold_start_s": statistics.median(seconds), "cli.numpy_loaded": int(loaded.stdout)}


def percentile(values: list[float], per_mille: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-per_mille * len(ordered) // 1000)) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples
    beyond it, or the maximum when there are too few samples for any."""
    for per_mille in TAIL_LADDER:
        if len(values) - -(-per_mille * len(values) // 1000) >= 10:
            return per_mille / 10, percentile(values, per_mille)
    return 100.0, max(values)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(workload, tally) -> None:
    for inputs in workload.rounds:
        tally.start_round()
        workload.run_round(inputs, tally)


def measure_traced(workload, tally, logs):
    """Alternate untraced and traced rounds on the same inputs; per-layer
    metrics are medians over traced rounds."""
    from spans import SpanLog, layer_metrics

    per_round, traced, untraced = [], 0.0, 0.0
    for inputs in workload.rounds:
        tally.start_round()
        untraced += workload.run_round(inputs, tally)
        log, counts = SpanLog(), Counter()
        workload.trace_round(inputs, tally, log, counts)
        traced += sum(sum(log.durations(name)) for name in workload.primary_spans)
        per_round.append(layer_metrics(log, counts))
        logs.append(log)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["spans.overhead_frac"] = traced / untraced - 1
    return metrics


def report_lines(workload, tally, metrics, setup) -> list[str]:
    """Every metric under the workload's own name, unit and sample count;
    timings are paced, with the unpaced value beside them."""
    own = dict(zip(("ops_per_s", "op_p50_us", "op_tail_us"), OWN_NAMES[workload.name]))
    lines = []

    def timing(name, unit, paced, raw, detail, alias=""):
        lines.append(f"{name} = {paced:.6g} {unit}  ({alias}{detail}; unpaced {raw:.6g})")

    def rate(name, alias=""):
        values = tally.rates(name)
        timing(name, "1/s", statistics.median(values), statistics.median(tally.rates(name, paced=False)),
               f"median of {len(values)} rounds", alias)

    def latency(name, p50_name, tail_name, alias_p50="", alias_tail=""):
        values, raw = tally.latencies_us(name), tally.latencies_us(name, paced=False)
        timing(p50_name, "us", percentile(values, 500), percentile(raw, 500), f"n={len(values)}", alias_p50)
        p, value = tail(values)
        timing(tail_name, "us", value, tail(raw)[1], f"p{p:g}, n={len(values)}", alias_tail)

    rate(workload.rate_name, "ops_per_s; ")
    latency(workload.latency_name, own["op_p50_us"], own["op_tail_us"], "op_p50_us; ", "op_tail_us; ")
    if workload.name == "grid":
        rate("scan_pps_j2")
    if workload.name == "smooth_d0":
        latency("trace", "trace_p50_us", "trace_tail_us")
    slowdowns = [r.slowdown for r in tally.rounds]
    lines += [
        f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(setup)} fresh interpreters, paced by the run; "
        f"unpaced {statistics.median(setup):.6g})",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB  (this process)",
        f"fail_frac = {tally.failed / tally.attempted:.6g}  ({tally.failed} of {tally.attempted} attempted)",
        *(f"  failures {label}: {count}" for label, count in sorted(tally.errors.items())),
        f"pace: reference loop ran {statistics.median(slowdowns):.3g}x its reference time "
        f"(median of {len(slowdowns)} rounds, {sum(len(r.pace) for r in tally.rounds)} samples)",
    ]
    return lines


def run_one(args) -> int:
    if SPEC is None or not (SRC / "cubetriples" / "__init__.py").is_file():
        print("perfbench: run from a checkout holding BENCHMARK.json and src/cubetriples", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cubetriples
    import workloads

    if not Path(cubetriples.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cubetriples from {cubetriples.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    if args.trace:
        # each traced pair runs the round untraced, then traced with every
        # pipeline stage called again on its own: about four rounds of work
        rounds = max(1, rounds // 4)
    workload = cls(args.seed, rounds, args.tiny)
    cls.warm_up()
    tally = workloads.Tally()
    logs = []
    started = time.perf_counter()
    if args.trace:
        from spans import LAYER_LINKS, SpanLog

        cli_log = SpanLog()
        metrics = {**measure_traced(workload, tally, logs), **cli_probes(cli_log, tally)}
        logs.append(cli_log)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        lines = [f"{name} = {metrics[name]:.6g} {unit}  (moves {LAYER_LINKS[name]})" for name, unit in units.items()]
        lines.append(f"traced rounds: {len(logs) - 1}, spans: {sum(len(log.rows) for log in logs)}")
    else:
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        setup = setup_seconds(args.workload)
        measure(workload, tally)
        latencies = tally.latencies_us(workload.latency_name)
        # set-up drifts with the machine like every timing, but a few pace
        # samples around each interpreter are too noisy: use the whole run's
        metrics = {
            "ops_per_s": statistics.median(tally.rates(workload.rate_name)),
            "op_p50_us": percentile(latencies, 500),
            "op_tail_us": tail(latencies)[1],
            "setup_s": statistics.median(setup) / statistics.median(r.slowdown for r in tally.rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines = report_lines(workload, tally, metrics, setup)
    measured = time.perf_counter() - started

    header = [
        f"workload {args.workload}: {next(w['why'] for w in SPEC['workloads'] if w['name'] == args.workload)}",
        f"inputs: seed {args.seed}, {rounds} rounds, {workload.describe()}; closed loop, one caller",
        f"python {platform.python_version()}, {os.cpu_count()} cores, git {git_sha()}, measured {measured:.1f} s",
    ]
    for line in header + lines + [f"WRONG: {problem}" for problem in tally.wrong[:10]]:
        print(line)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"header": header, "report": lines, "metrics": metrics, "wrong": tally.wrong}, indent=1)
    )
    if logs:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as sink:
            sink.write(json.dumps(["round", "span", "name", "request", "parent", "start", "end", "ok"]) + "\n")
            for index, log in enumerate(logs):
                log.write(sink, index)

    correct = not tally.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in OWN_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *(["--tiny"] if args.tiny else []),
        ])
        status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*OWN_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16, help="run length on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one round of tiny inputs, for the smoke test")
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
