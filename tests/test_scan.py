"""Tests for the grid scanner."""

import concurrent.futures
import hashlib
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubetriples import intmath, scan
from cubetriples.oracle import brute_force
from cubetriples.scan import ScanRecord, record_to_json, scan_grid
from cubetriples.solver import Triple, TripleSystem, completeness_bound, solve, verify

# SHA-256 of the reference grid s in [-50, 50], c in [-200, 200] scanned
# with solutions, one record_to_json line per point
REFERENCE_GRID_SHA256 = "87ed222a9419d3de21353035fdae4b659631ea17f90f3a52cfdf2ddaf0855ff6"

# up to multi-hundred-digit ints of either sign
big_ints = st.integers(min_value=-(10**300), max_value=10**300)

records = st.builds(
    ScanRecord,
    s=big_ints,
    c=big_ints,
    kind=st.sampled_from(("finite", "infinite_family")),
    solution_count=st.none() | big_ints,
    solutions=st.none() | st.lists(st.builds(Triple, big_ints, big_ints, big_ints), max_size=4).map(tuple),
    bound_used=st.none() | big_ints,
)


def test_single_point_known_instance():
    records = list(scan_grid((3, 3), (3, 3)))
    assert records == [
        ScanRecord(s=3, c=3, kind="finite", solution_count=4, bound_used=11)
    ]


def test_single_point_degenerate():
    assert list(scan_grid((1, 1), (1, 1))) == [
        ScanRecord(s=1, c=1, kind="infinite_family")
    ]


def test_single_point_small():
    records = list(scan_grid((2, 2), (2, 2)))
    assert records[0].solution_count == 3


def test_one_record_per_point_in_order():
    records = list(scan_grid((-1, 1), (-2, 2)))
    assert [(r.s, r.c) for r in records] == [
        (s, c) for s in range(-1, 2) for c in range(-2, 3)
    ]


def test_include_solutions_flag():
    with_sols = list(scan_grid((3, 3), (3, 3), include_solutions=True))[0]
    without = list(scan_grid((3, 3), (3, 3)))[0]
    assert without.solutions is None
    assert with_sols.solution_count == len(with_sols.solutions) == 4
    assert [t.as_tuple() for t in with_sols.solutions] == [
        (-5, 4, 4),
        (1, 1, 1),
        (4, -5, 4),
        (4, 4, -5),
    ]


def test_worker_count_independence():
    grid = ((-2, 2), (-2, 2))
    sequential = list(scan_grid(*grid, workers=1, include_solutions=True))
    parallel = list(scan_grid(*grid, workers=4, include_solutions=True))
    assert sequential == parallel
    assert [record_to_json(r) for r in sequential] == [
        record_to_json(r) for r in parallel
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("include_solutions", [False, True])
def test_records_are_the_constructors_records(workers, include_solutions):
    # scan builds its finite records without ScanRecord's constructor and
    # writes completeness_bound out inline; the first grid has d0 of both
    # signs, |d0| <= 3 and c = s^3 on every row, and is enumerated, the
    # second a 4 501-digit d0 with 3 not dividing it, and the third two
    # point-path spans with K = 16 750, a solution at (0, 14100002311728)
    # and one at (1, 14100002311771)
    grids = [
        ((-3, 3), (-30, 30)),
        ((10**1500 + 7, 10**1500 + 7), (0, 0)),
        ((0, 1), (14100002311708, 14100002311784)),
    ]
    kinds = set()
    for s_range, c_range in grids:
        for record in scan_grid(s_range, c_range, workers=workers, include_solutions=include_solutions):
            assert type(record) is ScanRecord
            assert record == ScanRecord(*record)
            kinds.add(record.kind)
            if record.kind == "finite":
                assert record.bound_used == completeness_bound(TripleSystem(record.s, record.c))
                assert (record.solutions is not None) == include_solutions
    assert kinds == {"finite", "infinite_family"}


def test_finite_records_reverified_by_oracle():
    for record in scan_grid((-2, 2), (-2, 2), include_solutions=True):
        system = TripleSystem(record.s, record.c)
        if record.kind == "infinite_family":
            assert system.degenerate
            continue
        boxed = brute_force(system, record.bound_used)
        assert list(record.solutions) == boxed
        assert all(verify(t, system) for t in record.solutions)


def test_reference_grid_agrees_with_the_oracle():
    # the box search shares neither the reduction nor _closure with the
    # solver, so this certifies the records REFERENCE_GRID_SHA256 pins: each
    # finite one lists the oracle's solutions at its completeness bound
    checked = 0
    for record in scan_grid((-50, 50), (-200, 200), include_solutions=True):
        if record.kind == "finite":
            system = TripleSystem(record.s, record.c)
            assert list(record.solutions) == brute_force(system, record.bound_used), record
            checked += 1
    assert checked == 40490


def test_empty_ranges_rejected():
    with pytest.raises(ValueError):
        list(scan_grid((2, 1), (0, 0)))
    with pytest.raises(ValueError):
        list(scan_grid((0, 0), (5, -5)))


def test_bad_worker_count_rejected():
    with pytest.raises(ValueError):
        list(scan_grid((0, 0), (0, 0), workers=0))


def test_json_field_order_and_omission():
    finite = json.loads(record_to_json(list(scan_grid((3, 3), (3, 3)))[0]))
    assert list(finite) == ["s", "c", "kind", "solution_count", "bound_used"]
    family = json.loads(record_to_json(list(scan_grid((0, 0), (0, 0)))[0]))
    assert list(family) == ["s", "c", "kind"]
    assert "solution_count" not in family and "solutions" not in family
    full = json.loads(
        record_to_json(list(scan_grid((3, 3), (3, 3), include_solutions=True))[0])
    )
    assert list(full) == ["s", "c", "kind", "solution_count", "solutions", "bound_used"]


@given(records)
def test_record_to_json_matches_json_dumps(record):
    assert record_to_json(record) == json.dumps(record.to_json_dict(), separators=(",", ":"))


@pytest.mark.parametrize("workers", [1, 2])
def test_reference_grid_bytes_pinned(workers):
    lines = (
        record_to_json(record) + "\n"
        for record in scan_grid((-50, 50), (-200, 200), workers=workers, include_solutions=True)
    )
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == REFERENCE_GRID_SHA256


def test_parallel_scan_submits_a_bounded_number_of_tasks(monkeypatch):
    # six records: row 0 in full and two points of row 1, so at most the
    # in-flight bound plus row 0's task may have been submitted
    limit = scan.TASKS_PER_WORKER * 2 + 1
    submitted = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def counting_submit(pool, *args, **kwargs):
        submitted.append(args[1:])
        # fail at once rather than after submitting all 10**6 rows
        assert len(submitted) <= limit
        return submit(pool, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", counting_submit)
    records = scan_grid((0, 10**6 - 1), (0, 3), workers=2)
    first = [next(records) for _ in range(6)]
    records.close()
    assert [(r.s, r.c) for r in first] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
    # one task per row span, submitted in (s, c) order
    assert submitted == [(s, 0, 3, False) for s in range(len(submitted))]


def _record_point_solves(monkeypatch) -> list[tuple[int, int]]:
    """Wrap scan.solve, which only spans that are not enumerated call; the
    returned list collects the (s, d0) of each call."""
    solved: list[tuple[int, int]] = []
    original = scan.solve

    def counting(system):
        solved.append((system.s, system.d0))
        return original(system)

    monkeypatch.setattr(scan, "solve", counting)
    return solved


def _record_enumerations(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Wrap scan._span_solutions; the returned list collects the
    (s, n_lo, n_hi, top) of each call."""
    spans: list[tuple[int, int, int, int]] = []
    original = scan._span_solutions

    def recording(s, n_lo, n_hi, top):
        spans.append((s, n_lo, n_hi, top))
        return original(s, n_lo, n_hi, top)

    monkeypatch.setattr(scan, "_span_solutions", recording)
    return spans


def test_one_worker_streams_point_by_point(monkeypatch):
    # the first record costs the first span's work only: one enumeration of
    # that span and no solve() call where the span is enumerated, and one
    # solve() call on a span with a cap of about 2.2e5 that is not; both
    # start at a point with 3 | d0
    solved = _record_point_solves(monkeypatch)
    enumerated = _record_enumerations(monkeypatch)
    # at s = 7 the first span's c = 346 .. 857 have N = 1 .. 171, capped at 5
    for s, c_lo, first_enumeration in [(7, 346, (7, 1, 171, 5)), (0, 3 * 10**16, None)]:
        records = scan_grid((s, s), (c_lo, c_lo + 2 * scan.SPAN_POINTS), workers=1)
        first = next(records)
        assert (first.s, first.c) == (s, c_lo)
        records.close()
        if first_enumeration:
            assert enumerated == [first_enumeration]
            assert solved == []
        else:
            assert enumerated == []
            assert solved == [(s, c_lo - s**3)]
        solved.clear()
        enumerated.clear()


def _switch_boundary_span(side: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A grid of one full span at s = 0 whose ceil(SPAN_POINTS/3) values of
    N end at K^3 + 100, so that K is its largest cap: ENUMERATION_RATIO
    times that count, plus side."""
    cap = scan.ENUMERATION_RATIO * -(-scan.SPAN_POINTS // 3) + side
    c_hi = 3 * (cap**3 + 100)
    return (0, 0), (c_hi - scan.SPAN_POINTS + 1, c_hi)


def _random_grids(count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Seeded grids of one row each, 1 to 600 points wide, near c = s^3."""
    rng = random.Random(29)
    grids = []
    for _ in range(count):
        s = rng.randint(-40, 40)
        c_lo = s**3 + rng.randint(-3000, 3000)
        grids.append(((s, s), (c_lo, c_lo + rng.randint(0, 599))))
    return grids


def _solve_records(s_range, c_range) -> list[ScanRecord]:
    """The record of each grid point, from solve() and the constructor."""
    records = []
    for s in range(s_range[0], s_range[1] + 1):
        for c in range(c_range[0], c_range[1] + 1):
            system = TripleSystem(s, c)
            result = solve(system)
            if result.kind == "infinite_family":
                records.append(ScanRecord(s, c, "infinite_family"))
            else:
                records.append(
                    ScanRecord(s, c, "finite", len(result.triples), result.triples, completeness_bound(system))
                )
    return records


@pytest.mark.parametrize(
    "s_range,c_range,point_spans",
    [
        # N from -85 to 85: c = s^3 mid-span, and |N| crosses 1, 8, 27 and 64
        # both falling and rising
        pytest.param((4, 4), (64 - 255, 64 + 256), 0, id="through-c-equals-s-cubed"),
        # N from -1100 to -934 only, so |N| falls through 1000
        pytest.param((0, 0), (-3300, -2800), 0, id="negative-n-only"),
        # N from 934 to 1100, so |N| rises through 1000
        pytest.param((0, 0), (2800, 3300), 0, id="positive-n-only"),
        # no point with 3 | d0, so neither source of solutions is called
        pytest.param((1, 1), (2, 3), 0, id="two-points-no-n"),
        pytest.param((0, 0), (1, 1), 0, id="one-point-no-n"),
        # two rows of two full spans, with c = s^3 in the first, and a last
        # partial span of 61 points
        pytest.param((9, 10), (700, 700 + 2 * scan.SPAN_POINTS + 60), 0, id="last-partial-span"),
        pytest.param(*_switch_boundary_span(0), 0, id="largest-enumerated-cap"),
        pytest.param(*_switch_boundary_span(1), 1, id="smallest-point-path-cap"),
        # the CI switch rows' last spans, both on the point path, with
        # solutions at (0, 14100002311728) and (1, 14100002311771)
        pytest.param((0, 1), (14100002311708, 14100002311784), 2, id="point-path-solutions"),
        *(pytest.param(*grid, None, id=f"random-{i}") for i, grid in enumerate(_random_grids(12))),
    ],
)
def test_span_records_match_solve(monkeypatch, s_range, c_range, point_spans):
    # every record is the one solve() gives, and only spans that are not
    # enumerated call scan.solve, at every point with 3 | d0 but c = s^3
    records = _solve_records(s_range, c_range)
    solved = _record_point_solves(monkeypatch)
    assert list(scan_grid(s_range, c_range, include_solutions=True)) == records
    if point_spans is not None:
        assert len({(s, (s**3 + d0 - c_range[0]) // scan.SPAN_POINTS) for s, d0 in solved}) == point_spans


def test_enumerated_spans_are_spans_the_point_path_completes():
    # a span is enumerated only when its largest cap is at most
    # ENUMERATION_RATIO times its count of N, at most ceil(SPAN_POINTS / 3);
    # up to TRIAL_LIMIT the per-point path proves its divisors complete and
    # never raises, so both paths give the same records wherever the
    # enumeration runs
    assert scan.ENUMERATION_RATIO * -(-scan.SPAN_POINTS // 3) <= intmath.TRIAL_LIMIT


def _planted_grids(rng, count, least, most, width):
    """Seeded one-row grids of width points, each around a planted solution
    whose (u, v, w) = (s - X, s - Y, s - Z) has least <= |w| <= most and
    |u|, |v| within 3 of |w|, with signs at random and ties allowed, so that
    its least coordinate sits at or near the cap icbrt(|d0/3|)."""
    grids = []
    while len(grids) < count:
        t = rng.randint(least, most)
        u, v, w = ((t + rng.randint(0, 3) * (i < 2)) * rng.choice((-1, 1)) for i in range(3))
        if (u + v + w) % 2:
            continue
        s = (u + v + w) // 2
        c = s**3 - 3 * u * v * w
        c_lo = c - rng.randint(0, width - 1)
        grids.append(((s, s), (c_lo, c_lo + width - 1)))
    return grids


def test_enumerated_spans_are_complete_where_solve_is(monkeypatch):
    # the enumeration lists no divisors and uses no cap rule, sign rule,
    # direct division, prime block or Miller-Rabin; it shares only the
    # identity and the cap lemma with solve(), so equal records over many
    # spans check both.  Planted solutions put the least coordinate at the
    # cap, where random spans rarely do; the second set has caps past 1025,
    # where solve() walks the prime blocks
    rng = random.Random(10)
    grids = _planted_grids(rng, 400, 1, 400, 96) + _planted_grids(rng, 60, 1026, 1600, 96)
    for _ in range(6):
        s = rng.randint(-1000, 1000)
        c_lo = s**3 + rng.randint(-(10**9), 10**9)
        grids.append(((s, s), (c_lo, c_lo + 191)))
    solved = _record_point_solves(monkeypatch)
    found = 0
    for s_range, c_range in grids:
        records = list(scan_grid(s_range, c_range, include_solutions=True))
        assert records == _solve_records(s_range, c_range)
        found += sum(1 for record in records if record.solution_count)
    # every span was enumerated, and every planted one holds its plant
    assert solved == []
    assert found >= 460


# d0/3 = 8 * 1000003 * 1000033 * 1000037 at (0, C): its cap passes the trial
# limit and the 60-bit cofactor left there is composite
PQR = 1000003 * 1000033 * 1000037
UNFACTORED_C = 24 * PQR


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "s_range,c_range,n",
    [
        ((0, 1), (UNFACTORED_C - 2, UNFACTORED_C + 2), 8 * PQR),
        ((0, 0), (-UNFACTORED_C - 2, -UNFACTORED_C + 2), -8 * PQR),
    ],
    ids=["two-rows", "negative-row"],
)
def test_scan_raises_where_solve_raises(s_range, c_range, n, workers):
    # the error is solve's first one in (s, c) order, and with one worker
    # every record before it is solve's
    points = [(s, c) for s in range(s_range[0], s_range[1] + 1) for c in range(c_range[0], c_range[1] + 1)]
    expected, first_failure = [], None
    for s, c in points:
        try:
            result = solve(TripleSystem(s, c))
        except intmath.IncompleteFactorizationError as error:
            first_failure = (error.n, error.cofactor)
            break
        expected.append(ScanRecord(s, c, "finite", len(result.triples), None, completeness_bound(TripleSystem(s, c))))
    assert first_failure == (n, PQR)
    assert len(expected) == 2
    seen = []
    with pytest.raises(intmath.IncompleteFactorizationError) as raised:
        for record in scan_grid(s_range, c_range, workers=workers):
            seen.append(record)
    assert (raised.value.n, raised.value.cofactor) == first_failure
    if workers == 1:
        assert seen == expected


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs each task
    at submit, and tracks how many results are submitted but not yet read."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = self.peak_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return _InlineFuture(self, fn(*args))


class _InlineFuture:
    def __init__(self, pool, value):
        self.pool = pool
        self.value = value

    def result(self):
        self.pool.in_flight -= 1
        return self.value


@pytest.mark.parametrize(
    "s_range,c_range,cpus,workers,peak_in_flight",
    [
        # a worker count capped at 1 streams in the calling process, and no
        # pool starts; the explicit ids keep these two cases' names stable
        pytest.param((3, 3), (3, 3), 64, 1, None, id="s_range0-c_range0-64-1-1"),  # one span
        ((0, 4), (0, 2 * scan.SPAN_POINTS), 64, 15, 15),  # 5 rows of 3 spans
        ((0, 4), (0, 2 * scan.SPAN_POINTS), 4, 4, 4 * scan.TASKS_PER_WORKER),
        pytest.param(  # CPU count unknown
            (0, 4), (0, 2 * scan.SPAN_POINTS), None, 1, None, id="s_range3-c_range3-None-1-2"
        ),
    ],
)
def test_parallel_scan_caps_workers(monkeypatch, s_range, c_range, cpus, workers, peak_in_flight):
    # a fake pool only: asking a real one for 10**5 workers would try to
    # start that many processes; peak_in_flight is None where none starts
    pools = []

    def make_pool(max_workers):
        pools.append(_InlinePool(max_workers))
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make_pool)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
    records = list(scan_grid(s_range, c_range, workers=10**5, include_solutions=True))
    expected = [] if workers == 1 else [(workers, peak_in_flight)]
    assert [(pool.max_workers, pool.peak_in_flight) for pool in pools] == expected
    assert records == list(scan_grid(s_range, c_range, include_solutions=True))
