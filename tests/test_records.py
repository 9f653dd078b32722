"""The result records of the direct, sequence, skeletal and axiom layers.

Each is a ``NamedTuple``: its fields cannot be assigned, an equal copy is
equal and hashes equal, and ``copy``, ``deepcopy`` and ``pickle`` give back
an equal record of the same class.
"""

import copy
import pickle

import pytest

from persax import (
    GF3,
    QQ,
    AxiomReport,
    BettiGrid,
    DirectSumGroup,
    ExactSequence,
    ExactnessReport,
    FilteredSet,
    HomologyGroup,
    Interval,
    LinearMap,
    SkeletalChainGroup,
    SkeletalHomology,
    betti_grid,
    check_exact,
    direct_sum_check,
    homology,
    identity_map,
    les_pair,
    pair_of,
    skeletal_chain_group,
    skeletal_homology,
    skeleton,
    standard_simplex,
    verify_axiom,
)
from persax.sequences import DirectSumVerdict, NodeCheck

RIM = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
)
EDGE = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
INTERVAL = Interval(1, 2)


def _records():
    """One record of each class, built by the function that returns it."""
    pair = pair_of(RIM, EDGE)
    group = homology(pair_of(RIM), 1, INTERVAL, GF3)
    seq = les_pair(pair, INTERVAL, GF3)
    report = check_exact(seq)
    parts = (standard_simplex(1, 0, ("a", "b")), standard_simplex(1, 0, ("c", "d")))
    return {
        HomologyGroup: group,
        LinearMap: seq.arrows[seq.labels.index("d_1")],
        DirectSumGroup: DirectSumGroup((group, homology(pair_of(EDGE), 0, INTERVAL, GF3))),
        BettiGrid: betti_grid(RIM, 1, QQ),
        ExactSequence: seq,
        NodeCheck: report.checks[0],
        ExactnessReport: report,
        DirectSumVerdict: direct_sum_check(parts, skeleton(EDGE, -1), 0, Interval(0, 1)),
        SkeletalChainGroup: skeletal_chain_group(pair, 1, INTERVAL, GF3),
        SkeletalHomology: skeletal_homology(pair, 1, INTERVAL, GF3),
        AxiomReport: verify_axiom("A1", GF3, pair=pair, interval=INTERVAL, tag="rim"),
    }


RECORDS = _records()


def test_every_record_class_is_covered():
    assert len(RECORDS) == 11
    assert all(type(rec) is cls for cls, rec in RECORDS.items())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_fields_cannot_be_assigned(self, cls):
        rec = RECORDS[cls]
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = None  # no instance dict either

    def test_an_equal_copy_is_equal_and_hashes_equal(self, cls):
        rec = RECORDS[cls]
        again = cls(*rec)
        assert again == rec and hash(again) == hash(rec) and again is not rec
        assert cls(**rec._asdict()) == rec

    def test_copy_deepcopy_and_pickle_round_trip(self, cls):
        rec = RECORDS[cls]
        for back in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(back) is cls
            assert back == rec and hash(back) == hash(rec)


def test_defaults_and_properties_survive():
    assert LinearMap(None, None, RECORDS[LinearMap].matrix).label == ""
    assert NodeCheck(1, 0, 0).witness is None and NodeCheck(1, 0, 0).ok
    assert AxiomReport("A1", "-", "pass")[3:] == ((), None)
    group = RECORDS[HomologyGroup]
    assert group.dim == group.reps.ncols == 1
    assert RECORDS[DirectSumGroup].dim == 1 + 2
    assert RECORDS[SkeletalChainGroup].dim == len(RECORDS[SkeletalChainGroup].generators)
    assert RECORDS[BettiGrid].value(1, 1) == 1


def test_a_record_equals_the_plain_tuple_of_its_fields():
    # tuple equality: the record's class takes no part in ==
    for rec in RECORDS.values():
        assert rec == tuple(rec)
