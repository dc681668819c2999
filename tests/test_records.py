"""The contract shared by the package's value records: each is a tuple."""

import pickle

import pytest

from cubetriples.intmath import Factorization
from cubetriples.scan import ScanRecord
from cubetriples.solver import CandidateZ, SolutionSet, Triple, TripleSystem
from cubetriples.trace import TraceStep

# (builder of one sample, its field names in order, its repr)
SAMPLES = {
    "Factorization": (
        lambda: Factorization(sign=-1, factors=((2, 1), (3, 2))),
        ("sign", "factors"),
        "Factorization(sign=-1, factors=((2, 1), (3, 2)))",
    ),
    "TripleSystem": (
        lambda: TripleSystem(3, 3),
        ("s", "c"),
        "TripleSystem(s=3, c=3)",
    ),
    "Triple": (
        lambda: Triple(-5, 4, 4),
        ("x", "y", "z"),
        "Triple(x=-5, y=4, z=4)",
    ),
    "CandidateZ": (
        lambda: CandidateZ(z=4, k=-1, d=8),
        ("z", "k", "d"),
        "CandidateZ(z=4, k=-1, d=8)",
    ),
    "SolutionSet": (
        lambda: SolutionSet.finite((Triple(1, 1, 1),)),
        ("kind", "triples", "family_anchor"),
        "SolutionSet(kind='finite', triples=(Triple(x=1, y=1, z=1),), family_anchor=None)",
    ),
    "ScanRecord": (
        lambda: ScanRecord(3, 3, "finite", 1, (Triple(1, 1, 1),), 4),
        ("s", "c", "kind", "solution_count", "solutions", "bound_used"),
        "ScanRecord(s=3, c=3, kind='finite', solution_count=1, "
        "solutions=(Triple(x=1, y=1, z=1),), bound_used=4)",
    ),
    "TraceStep": (
        lambda: TraceStep(1, "rearrange-linear", "X + Y = 3 - Z", "Isolate Z."),
        ("index", "label", "equation_text", "note"),
        "TraceStep(index=1, label='rearrange-linear', equation_text='X + Y = 3 - Z', "
        "note='Isolate Z.')",
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_record_contract(name):
    build, fields, text = SAMPLES[name]
    record = build()
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    twin = build()
    assert twin == record and twin is not record
    assert hash(twin) == hash(record)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and type(restored) is type(record)
    assert repr(record) == text


def test_triples_sort_lexicographically():
    triples = [Triple(4, 4, -5), Triple(-5, 4, 4), Triple(4, -5, 4), Triple(1, 1, 1), Triple(-5, 4, 3)]
    assert sorted(triples) == sorted(triples, key=lambda t: (t.x, t.y, t.z))
    assert sorted(triples)[:2] == [Triple(-5, 4, 3), Triple(-5, 4, 4)]
    assert type(Triple(-5, 4, 4).as_tuple()) is tuple


def test_json_dicts_hold_solutions_as_lists():
    triples = (Triple(-5, 4, 4), Triple(1, 1, 1))
    for data in (
        SolutionSet.finite(triples).to_json_dict(),
        ScanRecord(3, 3, "finite", 2, triples, 4).to_json_dict(),
    ):
        assert data["solutions"] == [[-5, 4, 4], [1, 1, 1]]
        assert all(type(solution) is list for solution in data["solutions"])
