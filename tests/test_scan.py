"""Tests for the grid scanner."""

import concurrent.futures
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubetriples import scan
from cubetriples.oracle import brute_force
from cubetriples.scan import ScanRecord, record_to_json, scan_grid
from cubetriples.solver import Triple, TripleSystem, verify

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


def test_finite_records_reverified_by_oracle():
    for record in scan_grid((-2, 2), (-2, 2), include_solutions=True):
        system = TripleSystem(record.s, record.c)
        if record.kind == "infinite_family":
            assert system.degenerate
            continue
        boxed = brute_force(system, record.bound_used)
        assert list(record.solutions) == boxed
        assert all(verify(t, system) for t in record.solutions)


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
