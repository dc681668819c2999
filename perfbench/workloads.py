"""The four closed-loop workloads: seeded inputs, timed rounds, traced rounds.

Each workload runs a list of rounds.  A round is a fixed mix of inputs, so
every round costs about the same and a run's sample counts depend only on
its length, never on how fast the code under test is.  One caller waits on
each result; only ``grid`` starts a second process, in its jobs=2 pass.

Between timed calls a fixed reference loop is timed now and then (its pace).
On a shared machine the speed of the core drifts by up to 2x over seconds
to minutes, and every timed call drifts with it; dividing each round's times
by the round's pace relative to ``REFERENCE_LOOP_SECONDS`` cancels most of
that drift.  The loop's own time is never counted in a timed call.

``run_round`` times the calls with no spans and returns the seconds spent
in the workload's timed calls.  ``trace_round`` makes the same calls inside
spans and then, after them, each pipeline stage of ``solve`` called on its
own (factorize, signed divisors, candidate pivots, quadratic tests) inside a
``stages`` span, so the per-layer metrics can be derived by subtraction.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from cubetriples import (
    TripleSystem,
    brute_force,
    candidate_zs,
    completeness_bound,
    derive_trace,
    factorize,
    render,
    scan_grid,
    signed_divisors,
    solve,
    solve_quadratic_for_x,
)
from cubetriples.scan import record_to_json

from check import grid_problems, solution_problem, trace_problem
from spans import SpanLog

DEFAULT_SEED = 0

# SHA-256 of the reference grid's `scan --include-solutions` bytes (seed 0).
REFERENCE_GRID_SHA256 = "87ed222a9419d3de21353035fdae4b659631ea17f90f3a52cfdf2ddaf0855ff6"

# Proven bound of deterministic Miller-Rabin with the first 13 prime bases.
MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Typical time of reference_loop() between timed calls on a 2-core x86-64
# container with Python 3.11; paced times are times at this pace.
REFERENCE_LOOP_SECONDS = 360e-6
# Time the reference loop at most this often, so it costs about 4% of a run.
PACE_INTERVAL_SECONDS = 0.02


@dataclass(frozen=True)
class _Item:
    a: int
    b: int
    c: int


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the solver's: frozen dataclasses
    built, hashed into a set and sorted by a key function.  Call-heavy code
    like this slows down with the machine far more than a tight arithmetic
    loop does, so it paces the solver's calls much more closely."""
    items = {_Item(i * 7919 % 1009, i, -i) for i in range(300)}
    return len(sorted(items, key=lambda item: item.a))


def pace_sample() -> float:
    """Slowdown against the reference from one timed loop, run after an
    untimed one that refills the caches the last timed call evicted."""
    reference_loop()
    start = perf_counter()
    reference_loop()
    return (perf_counter() - start) / REFERENCE_LOOP_SECONDS


@dataclass
class Round:
    """Samples of one round, with the reference-loop times taken meanwhile."""

    pace: list[float] = field(default_factory=list)  # slowdowns of single loops
    rates: dict[str, list[float]] = field(default_factory=dict)
    latencies_us: dict[str, list[float]] = field(default_factory=dict)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran this round."""
        return statistics.fmean(self.pace) if self.pace else 1.0


@dataclass
class Tally:
    """What one run attempted, how much failed, what was wrong, and samples."""

    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong: list[str] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    last_pace: float = 0.0

    def start_round(self) -> None:
        self.rounds.append(Round())

    def pace(self) -> bool:
        """Time the reference loop if it is due; True when it ran."""
        if perf_counter() - self.last_pace < PACE_INTERVAL_SECONDS:
            return False
        self.rounds[-1].pace.append(pace_sample())
        self.last_pace = perf_counter()
        return True

    def rate(self, name: str, value: float) -> None:
        self.rounds[-1].rates.setdefault(name, []).append(value)

    def latency(self, name: str, seconds: float) -> None:
        self.rounds[-1].latencies_us.setdefault(name, []).append(seconds * 1e6)

    def rates(self, name: str, paced: bool = True) -> list[float]:
        """Per-round rates, scaled to the reference pace unless ``paced`` is off."""
        return [v * (r.slowdown if paced else 1) for r in self.rounds for v in r.rates.get(name, ())]

    def latencies_us(self, name: str, paced: bool = True) -> list[float]:
        return [v / (r.slowdown if paced else 1) for r in self.rounds for v in r.latencies_us.get(name, ())]

    def fail(self, exc: Exception, label: str) -> None:
        self.failed += 1
        self.errors[f"{label}: {type(exc).__name__}"] += 1

    def judge(self, problem: str | None) -> None:
        if problem:
            self.wrong.append(problem)


def timed(fn, *args):
    """(seconds, result, exception) of one call; a failing call is kept."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # every failure is counted, never dropped
        return perf_counter() - start, None, exc
    return perf_counter() - start, out, None


def stages(system: TripleSystem, request: int, log: SpanLog, counts: Counter, with_solve: bool = False) -> None:
    """Call each pipeline stage of ``solve`` on its own, each in a span."""
    if system.degenerate:
        return
    counts["nondegenerate"] += 1
    counts["mod3_empty"] += system.d0 % 3 != 0
    parent = log.start("stages", request)
    try:
        log.call("intmath.factorize", request, parent, factorize, system.d0)
        divisors = log.call("intmath.signed_divisors", request, parent, signed_divisors, system.d0)
        pivots = log.call("solver.candidate_zs", request, parent, candidate_zs, system)
        span = log.start("solver.quadratic", request, parent)
        hits = sum(1 for pivot in pivots if solve_quadratic_for_x(pivot, system))
        log.end(span)
        if with_solve:
            log.call("solver.solve", request, parent, solve, system)
    except Exception:  # the primary call records the failure itself
        log.end(parent, ok=False)
        return
    log.end(parent)
    counts["divisors"] += len(divisors)
    counts["pivots"] += len(pivots)
    counts["pivot_hits"] += hits


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the 16 prime bases up to 53, independent of
    ``cubetriples.intmath``: proven below 3.3e24, and above it a composite
    passing all 16 bases is too unlikely to matter for input generation."""
    if n < 2:
        return False
    bases = PRIMES_TO_47 + (53,)
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(rng: random.Random, lo_exp: float, hi_exp: float) -> int:
    """The first prime at or above a log-uniform draw from [10^lo, 10^hi)."""
    n = int(10 ** rng.uniform(lo_exp, hi_exp)) | 1
    while not _is_prime(n):
        n += 2
    return n


def _stratum(lo: float, hi: float, j: int, strata: int) -> tuple[float, float]:
    width = (hi - lo) / strata
    return lo + j * width, lo + (j + 1) * width


def _system(rng: random.Random, d0_magnitude: int) -> TripleSystem:
    s = rng.randint(-50, 50)
    return TripleSystem(s, s**3 + rng.choice((-1, 1)) * d0_magnitude)


class Grid:
    """The reference grid scanned at jobs=1 then jobs=2, every record
    serialized with ``record_to_json``.  Seed 0 is the ROADMAP grid
    s in [-50, 50] x c in [-200, 200]; other seeds shift it slightly."""

    name = "grid"
    rate_name = "scan_pps_j1"
    latency_name = "scan_j1"
    primary_spans = ("scan.scan_grid.j1", "scan.scan_grid.j2")

    def __init__(self, seed: int, rounds: int, tiny: bool) -> None:
        if tiny:
            self.s_range, self.c_range = (-4, 4), (-15, 15)
        else:
            rng = random.Random(seed)
            ds, dc = (0, 0) if seed == DEFAULT_SEED else (rng.randint(-5, 5), rng.randint(-20, 20))
            self.s_range, self.c_range = (-50 + ds, 50 + ds), (-200 + dc, 200 + dc)
        self.points = [
            (s, c) for s in range(self.s_range[0], self.s_range[1] + 1) for c in range(self.c_range[0], self.c_range[1] + 1)
        ]
        self.expected_sha = REFERENCE_GRID_SHA256 if seed == DEFAULT_SEED and not tiny else None
        self.digest: str | None = None
        self.rounds = [None] * rounds

    def describe(self) -> str:
        return f"s {self.s_range[0]}:{self.s_range[1]} x c {self.c_range[0]}:{self.c_range[1]} ({len(self.points)} points)"

    @staticmethod
    def warm_up() -> None:
        for record in scan_grid((0, 1), (0, 3), workers=1, include_solutions=True):
            record_to_json(record)

    def _scan(self, workers: int, tally: Tally, log: SpanLog | None = None, paced: bool = False):
        """One pass; returns (seconds, lines) and checks the output bytes.

        A paced pass times the reference loop every 512 records and records
        each record's latency, leaving the loop's time out of both."""
        lines: list[str] = []
        tally.attempted += len(self.points)
        span = log.start(f"scan.scan_grid.j{workers}") if log else None
        elapsed = 0.0
        previous = perf_counter()
        try:
            for record in scan_grid(self.s_range, self.c_range, workers=workers, include_solutions=True):
                if log:
                    lines.append(log.call("scan.record_to_json", len(lines), span, record_to_json, record))
                else:
                    lines.append(record_to_json(record))
                if paced:
                    now = perf_counter()
                    tally.latency("scan_j1", now - previous)
                    elapsed += now - previous
                    previous = perf_counter() if len(lines) % 512 == 0 and tally.pace() else now
        except Exception as exc:  # the points not yet emitted count as failed
            tally.fail(exc, f"scan j{workers}")
            tally.failed += len(self.points) - len(lines) - 1
            if log:
                log.end(span, ok=False)
            return elapsed + perf_counter() - previous, lines
        if not paced:
            elapsed = perf_counter() - previous
        if log:
            log.end(span)
        self._check(lines, tally)
        return elapsed, lines

    def _check(self, lines: list[str], tally: Tally) -> None:
        digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
            tally.wrong.extend(grid_problems(lines, self.s_range, self.c_range))
            if self.expected_sha and digest != self.expected_sha:
                tally.wrong.append(f"reference grid SHA-256 {digest} != pinned {self.expected_sha}")
        elif digest != self.digest:
            tally.wrong.append("scan output bytes differ between passes or job counts")

    def run_round(self, _inputs, tally: Tally) -> float:
        # j2 is not paced: the reference loop would compete with its workers
        j1, _ = self._scan(1, tally, paced=True)
        j2, _ = self._scan(2, tally)
        tally.rate("scan_pps_j1", len(self.points) / j1)
        tally.rate("scan_pps_j2", len(self.points) / j2)
        return j1 + j2

    def trace_round(self, _inputs, tally: Tally, log: SpanLog, counts: Counter) -> None:
        _, lines = self._scan(1, tally, log)
        counts["scan_bytes"] += sum(len(line) + 1 for line in lines)
        self._scan(2, tally, log)
        for request, (s, c) in enumerate(self.points):
            stages(TripleSystem(s, c), request, log, counts, with_solve=True)


class HardD0:
    """Systems whose d0 = +-3m is hard to factor: m is drawn in equal shares
    from five classes, each split into magnitude strata."""

    name = "hard_d0"
    rate_name = "solve_pps"
    latency_name = "solve"
    primary_spans = ("solver.solve",)
    strata = 4

    def __init__(self, seed: int, rounds: int, tiny: bool) -> None:
        rng = random.Random(seed)
        strata = 1 if tiny else self.strata
        self.rounds = [
            [(label, _system(rng, 3 * make(rng, j, strata))) for j in range(strata) for label, make in self.CLASSES]
            for _ in range(rounds)
        ]

    def describe(self) -> str:
        per_class = len(self.rounds[0]) // len(self.CLASSES)
        return f"{len(self.rounds[0])} systems per round: {per_class} per class of {', '.join(l for l, _ in self.CLASSES)}"

    @staticmethod
    def _prime_to_1e12(rng, j, strata):
        return _prime_near(rng, *_stratum(3, 11.99, j, strata))

    @staticmethod
    def _unbalanced_semiprime(rng, j, strata):
        return _prime_near(rng, 2, 5.99) * _prime_near(rng, *_stratum(7, 16, j, strata))

    @staticmethod
    def _balanced_semiprime(rng, j, strata):
        p = _prime_near(rng, *_stratum(6.01, 6.99, j, strata))
        q = p
        while q == p:
            q = _prime_near(rng, 6.01, 6.99)
        return p * q

    @staticmethod
    def _prime_below_mr_bound(rng, j, strata):
        return _prime_near(rng, *_stratum(18, math.log10(MR_PROVEN_BOUND) - 0.01, j, strata))

    @staticmethod
    def _prime_above_mr_bound(rng, j, strata):
        return _prime_near(rng, *_stratum(math.log10(MR_PROVEN_BOUND) + 0.01, 30, j, strata))

    CLASSES = (
        ("prime<=1e12", _prime_to_1e12),
        ("p<1e6*q", _unbalanced_semiprime),
        ("p*q in (1e6,1e7)", _balanced_semiprime),
        ("prime<MR bound", _prime_below_mr_bound),
        ("prime>MR bound", _prime_above_mr_bound),
    )

    @staticmethod
    def warm_up() -> None:
        solve(TripleSystem(3, 3))

    def run_round(self, systems, tally: Tally) -> float:
        busy = 0.0
        for label, system in systems:
            tally.attempted += 1
            tally.pace()
            elapsed, result, exc = timed(solve, system)
            busy += elapsed
            tally.latency("solve", elapsed)
            if exc:
                tally.fail(exc, label)
            else:
                tally.judge(solution_problem(system.s, system.c, result))
        tally.rate("solve_pps", len(systems) / busy)
        return busy

    def trace_round(self, systems, tally: Tally, log: SpanLog, counts: Counter) -> None:
        for request, (label, system) in enumerate(systems):
            tally.attempted += 1
            try:
                result = log.call("solver.solve", request, None, solve, system)
            except Exception as exc:
                tally.fail(exc, label)
            else:
                tally.judge(solution_problem(system.s, system.c, result))
            stages(system, request, log, counts)


class SmoothD0:
    """Highly composite d0 = +-3 * (product of 8-13 distinct primes <= 47),
    plus the primorial-47 case once per run, at the end of the first round
    (it alone would take half of every round); each system is solved, then
    explained with ``derive_trace`` and ``render(..., "plain")``, timed
    separately.

    The primes are drawn without 3, so d0 holds 3 exactly once and every
    system of n primes has the same 2^(n+1) signed divisors and pivots."""

    name = "smooth_d0"
    rate_name = "solve_pps"
    latency_name = "solve"
    primary_spans = ("solver.solve", "trace.derive_trace", "trace.render")
    # systems per round by number of primes.  Cost doubles with each prime
    # and varies with the primes drawn, so neighbouring sizes overlap; the
    # median falls mid-way through the 10-prime share and the 95th
    # percentile inside the 13-prime share, never on a boundary.
    MIX = {8: 4, 9: 4, 10: 12, 11: 4, 12: 3, 13: 2}
    TINY_MIX = {8: 2, 9: 1}
    PRIMES = tuple(p for p in PRIMES_TO_47 if p != 3)
    PRIMORIAL_47 = TripleSystem(0, 3 * math.prod(PRIMES_TO_47))

    def __init__(self, seed: int, rounds: int, tiny: bool) -> None:
        rng = random.Random(seed)
        mix = self.TINY_MIX if tiny else self.MIX
        self.rounds = []
        for index in range(rounds):
            systems = [
                _system(rng, 3 * math.prod(rng.sample(self.PRIMES, size)))
                for size, copies in mix.items()
                for _ in range(copies)
            ]
            rng.shuffle(systems)
            self.rounds.append(systems + [self.PRIMORIAL_47] if index == 0 and not tiny else systems)

    def describe(self) -> str:
        mix = ", ".join(f"{copies}x{size}" for size, copies in self.MIX.items())
        return f"{sum(self.MIX.values())} systems per round: {mix} primes, plus primorial 47 once"

    @staticmethod
    def warm_up() -> None:
        system = TripleSystem(3, 3)
        solve(system)
        SmoothD0._explain(system)

    @staticmethod
    def _explain(system: TripleSystem):
        steps = derive_trace(system)
        return steps, render(steps, "plain")

    def run_round(self, systems, tally: Tally) -> float:
        busy = solving = 0.0
        for system in systems:
            tally.attempted += 1
            tally.pace()
            elapsed, result, exc = timed(solve, system)
            busy += elapsed
            solving += elapsed
            tally.latency("solve", elapsed)
            if exc:
                tally.fail(exc, "solve")
                continue
            tally.judge(solution_problem(system.s, system.c, result))
            tally.pace()
            elapsed, out, exc = timed(self._explain, system)
            busy += elapsed
            tally.latency("trace", elapsed)
            if exc:
                tally.fail(exc, "trace")
            else:
                tally.judge(trace_problem(system.s, system.c, result, *out))
        tally.rate("solve_pps", len(systems) / solving)
        return busy

    def trace_round(self, systems, tally: Tally, log: SpanLog, counts: Counter) -> None:
        for request, system in enumerate(systems):
            tally.attempted += 1
            try:
                result = log.call("solver.solve", request, None, solve, system)
                steps = log.call("trace.derive_trace", request, None, derive_trace, system)
                text = log.call("trace.render", request, None, render, steps, "plain")
            except Exception as exc:
                tally.fail(exc, "solve or trace")
            else:
                counts["trace_steps"] += len(steps)
                counts["trace_bytes"] += len(text.encode())
                tally.judge(solution_problem(system.s, system.c, result))
                tally.judge(trace_problem(system.s, system.c, result, steps, text))
            stages(system, request, log, counts)


class OracleCheck:
    """``solve`` against ``brute_force(sys, completeness_bound(sys))`` on a
    seeded sample of the 1676 non-degenerate systems with |s|, |c| <= 20.
    The systems are sorted by box size into strata and each round draws one
    system from every stratum."""

    name = "oracle_check"
    rate_name = "check_sps"
    latency_name = "check"
    primary_spans = ("oracle.check",)
    strata = 32

    def __init__(self, seed: int, rounds: int, tiny: bool) -> None:
        rng = random.Random(seed)
        radius, strata = (3, 4) if tiny else (20, self.strata)
        domain = sorted(
            (TripleSystem(s, c) for s in range(-radius, radius + 1) for c in range(-radius, radius + 1) if c != s**3),
            key=lambda system: (completeness_bound(system), system.s, system.c),
        )
        self.domain_size = len(domain)
        groups = [domain[len(domain) * j // strata : len(domain) * (j + 1) // strata] for j in range(strata)]
        self.rounds = []
        for _ in range(rounds):
            systems = [rng.choice(group) for group in groups]
            rng.shuffle(systems)
            self.rounds.append(systems)

    def describe(self) -> str:
        return f"{len(self.rounds[0])} systems per round, one per stratum of the {self.domain_size}-system domain"

    @staticmethod
    def warm_up() -> None:
        system = TripleSystem(3, 3)
        solve(system)
        brute_force(system, completeness_bound(system))

    @staticmethod
    def _check(system: TripleSystem):
        got = solve(system)
        want = brute_force(system, completeness_bound(system))
        return got, want

    def _judge(self, system: TripleSystem, got, want, tally: Tally) -> None:
        tally.judge(solution_problem(system.s, system.c, got))
        if got.triples != tuple(want):
            tally.wrong.append(f"(s={system.s}, c={system.c}): solve and brute_force disagree")

    def run_round(self, systems, tally: Tally) -> float:
        busy = 0.0
        for system in systems:
            tally.attempted += 1
            tally.pace()
            elapsed, out, exc = timed(self._check, system)
            busy += elapsed
            tally.latency("check", elapsed)
            if exc:
                tally.fail(exc, "check")
            else:
                self._judge(system, *out, tally)
        tally.rate("check_sps", len(systems) / busy)
        return busy

    def trace_round(self, systems, tally: Tally, log: SpanLog, counts: Counter) -> None:
        for request, system in enumerate(systems):
            tally.attempted += 1
            bound = completeness_bound(system)
            counts["oracle_cells"] += (2 * bound + 1) ** 2
            check = log.start("oracle.check", request)
            try:
                got = log.call("solver.solve", request, check, solve, system)
                want = log.call("oracle.brute_force", request, check, brute_force, system, bound)
            except Exception as exc:
                log.end(check, ok=False)
                tally.fail(exc, "check")
            else:
                log.end(check)
                self._judge(system, got, want, tally)
            stages(system, request, log, counts)


WORKLOADS = {w.name: w for w in (Grid, HardD0, SmoothD0, OracleCheck)}

# Seconds one round took at the first measured commit, on a 2-core x86-64
# container with Python 3.11.  --seconds becomes a round count through these,
# so a run does the same work, with the same sample counts, on every commit.
ROUND_SECONDS = {"grid": 3.5, "hard_d0": 1.05, "smooth_d0": 1.6, "oracle_check": 0.52}
