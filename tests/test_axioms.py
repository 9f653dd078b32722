"""The axiom checker: verdicts, witnesses, and configuration equivalences."""

import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from persax import (
    GF2,
    GF3,
    FilteredSet,
    Interval,
    MalformedInstance,
    Matrix,
    PreservingMap,
    fin,
    identity_map,
    pair_of,
    point,
    standard_boundary,
    standard_simplex,
    verify_axiom,
)
from persax import axioms, filtration, fuzz
from persax.axioms import AXIOM_IDS, FAIL, PASS, VACUOUS
from persax.fuzz import fuzz_axiom_reports

from ._cli import fake_cpus, main_on_cpus


TRIANGLE_RIM = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
)


def test_identity_axiom_on_a_pair():
    rep = verify_axiom("A1", pair=pair_of(TRIANGLE_RIM), interval=Interval(1, 2))
    assert rep.verdict == PASS


def test_dimension_axiom_across_a_grid():
    for alpha in (0, 1, fin("5/2")):
        grid = []
        lows = sorted({fin(alpha).finite - 1, fin(alpha).finite, fin(alpha).finite + 1})
        for lo in lows:
            for width in (0, 1):
                grid.append(Interval(lo, lo + width))
        rep = verify_axiom("A6", alpha=alpha, intervals=tuple(grid))
        assert rep.verdict == PASS


def test_excision_on_two_glued_triangles():
    left = standard_simplex(2, 0, ("a", "b", "c"))
    right = standard_simplex(2, 0, ("b", "c", "d"))
    rep = verify_axiom("A7", x_part=left, a=right, interval=Interval(0, 1))
    assert rep.verdict == PASS


def test_excision_and_s1_agree_verdict_for_verdict():
    master = random.Random(17)
    from persax.fuzz import random_excision_parts
    from persax.fuzz import random_interval
    from persax import union

    for _ in range(10):
        rng = random.Random(master.getrandbits(64))
        x_part, carved = random_excision_parts(rng)
        iv = random_interval(rng, union(x_part, carved))
        a7 = verify_axiom("A7", x_part=x_part, a=carved, interval=iv)
        s1 = verify_axiom("S1", x=x_part, y=carved, interval=iv)
        assert a7.verdict == s1.verdict == PASS


def test_contiguity_axiom_vacuous_for_noncontiguous_maps():
    edge = standard_simplex(1, 0, ("x", "y"))
    rim = standard_boundary(2, 0, ("a", "b", "c"))
    f = PreservingMap(pair_of(edge), pair_of(rim), {"x": "a", "y": "b"})
    g = PreservingMap(pair_of(edge), pair_of(rim), {"x": "a", "y": "c"})
    rep = verify_axiom("A5", f=f, g=g, interval=Interval(0, 1))
    assert rep.verdict == VACUOUS


def test_contiguity_axiom_passes_for_contiguous_maps():
    edge = standard_simplex(1, 0, ("x", "y"))
    solid = standard_simplex(2, 0, ("a", "b", "c"))
    f = PreservingMap(pair_of(edge), pair_of(solid), {"x": "a", "y": "b"})
    g = PreservingMap(pair_of(edge), pair_of(solid), {"x": "a", "y": "c"})
    rep = verify_axiom("A5", f=f, g=g, interval=Interval(0, 1))
    assert rep.verdict == PASS


def test_simplex_dimension_axiom_through_degree_four():
    # the solid 3-simplex is checked in degrees 0 to 4; the depth is fixed
    intervals = (Interval(-1, 0), Interval(0, 0), Interval(0, 2))
    assert verify_axiom("S3", alpha=0, intervals=intervals).verdict == PASS
    with pytest.raises(MalformedInstance, match="q_max"):
        verify_axiom("S3", alpha=0, intervals=intervals, q_max=4)


def test_exactness_axiom_passes_on_degenerate_interval():
    x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
    a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
    rep = verify_axiom("A4", pair=pair_of(x, a), interval=Interval(1, 1))
    assert rep.verdict == PASS


def test_exactness_axiom_reports_the_pinned_counterexample():
    # the interval construction is not exact here; the report must say so
    x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
    a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
    rep = verify_axiom("A4", pair=pair_of(x, a), interval=Interval(0, 1))
    assert rep.verdict == FAIL
    assert rep.witness is not None


def test_composition_and_naturality_on_concrete_maps():
    x = TRIANGLE_RIM
    rot = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "c", "c": "a"})
    swap = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "a", "c": "c"})
    assert verify_axiom("A2", f=rot, g=swap, interval=Interval(1, 2), field=GF3).verdict == PASS
    a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
    incl = PreservingMap(pair_of(x), pair_of(x, a), {v: v for v in x.vertices})
    assert verify_axiom("A3", f=incl, interval=Interval(1, 2), field=GF3).verdict == PASS


def test_missing_instance_pieces_are_rejected():
    with pytest.raises(MalformedInstance):
        verify_axiom("A1", interval=Interval(0, 1))
    with pytest.raises(MalformedInstance):
        verify_axiom("Z9", pair=pair_of(TRIANGLE_RIM), interval=Interval(0, 1))


_POINT_A = identity_map(pair_of(point(0, "a")))
_POINT_B = identity_map(pair_of(point(0, "b")))


@pytest.mark.parametrize("axiom_id, bundle, message", [
    ("A2", dict(f=_POINT_A, g=_POINT_B, interval=Interval(0, 1)), "maps do not compose"),
    ("A5", dict(f=_POINT_A, g=_POINT_B, interval=Interval(0, 1)),
     "maps do not share endpoints"),
    ("A6", dict(alpha=0, intervals=()), "dimension check needs intervals"),
    ("S3", dict(alpha=0, intervals=()), "simplex dimension check needs intervals"),
], ids=["A2-apart", "A5-apart", "A6-no-intervals", "S3-no-intervals"])
def test_instances_the_check_cannot_run_on_are_rejected(axiom_id, bundle, message):
    with pytest.raises(MalformedInstance, match=f"^{message}$"):
        verify_axiom(axiom_id, **bundle)


@pytest.mark.parametrize("axiom_id, bundle, key", [
    ("S3", dict(alpha=0, intervals=(Interval(0, 0),), qmax=1), "qmax"),
    ("A1", dict(pair=pair_of(TRIANGLE_RIM), interval=Interval(0, 1), intervall=1), "intervall"),
    ("S1", dict(x_part=TRIANGLE_RIM, a=TRIANGLE_RIM, interval=Interval(0, 1)), "x_part"),
], ids=["S3-qmax", "A1-intervall", "S1-x_part"])
def test_keys_outside_the_axiom_row_are_rejected(axiom_id, bundle, key):
    with pytest.raises(MalformedInstance, match=key):
        verify_axiom(axiom_id, **bundle)


def test_one_fuzz_instance_reports_every_axiom_id_in_order():
    assert AXIOM_IDS == ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "S1", "S2", "S3")
    assert tuple(r.axiom for r in fuzz_axiom_reports(1, seed=7)) == AXIOM_IDS
    assert tuple(r.axiom for r in fuzz_axiom_reports(3, seed=7)) == AXIOM_IDS * 3


def test_fuzz_reports_are_deterministic_and_cover_every_axiom():
    first = fuzz_axiom_reports(5, seed=7)
    second = fuzz_axiom_reports(5, seed=7)
    assert [(r.axiom, r.instance, r.verdict) for r in first] == [
        (r.axiom, r.instance, r.verdict) for r in second
    ]
    assert {r.axiom for r in first} == {"A1", "A2", "A3", "A4", "A5", "A6", "A7",
                                        "S1", "S2", "S3"}


def test_fuzz_failures_are_confined_to_the_exactness_axioms():
    reports = fuzz_axiom_reports(15, seed=11)
    failing = {r.axiom for r in reports if r.verdict == FAIL}
    assert failing <= {"A4", "S2"}


def test_rows_that_share_a_check_and_its_objects_run_it_once(monkeypatch):
    # A4/S2 share one bundle and A7/S1 one cut-out; A1 shares A4's bundle,
    # and A6 and S3 their point value, with another check
    runs = {}

    def counted(check):
        def run(*args, **kwargs):
            runs[check.__name__] = runs.get(check.__name__, 0) + 1
            return check(*args, **kwargs)
        return run

    wrapped = {row.check: counted(row.check) for row in axioms._AXIOMS.values()}
    for axiom_id, row in axioms._AXIOMS.items():
        monkeypatch.setitem(axioms._AXIOMS, axiom_id, row._replace(check=wrapped[row.check]))
    reports = fuzz_axiom_reports(4, seed=7)
    assert runs == {check.__name__: 4 for check in wrapped}
    assert len(reports) == len({id(r) for r in reports}) == 40
    assert tuple(r.axiom for r in reports) == AXIOM_IDS * 4
    monkeypatch.undo()
    # each report equals the row checked on its own
    master, alone = random.Random(7), []
    for _ in range(4):
        instances = fuzz._fuzz_instances(random.Random(master.getrandbits(64)))
        alone += [verify_axiom(axiom_id, **instances[axiom_id]) for axiom_id in AXIOM_IDS]
    assert reports == alone


def _clear_memos():
    # the interned sets' lru caches, and the memos of the sets still alive,
    # such as EMPTY_SET's, so that a count does not depend on earlier tests
    for name, module in list(sys.modules.items()):
        if name.startswith("persax."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for memo in list(filtration._MEMOS):
        memo.clear()


def test_fuzz_compares_few_fractions(monkeypatch):
    # sets compare by identity or by rank tables, and groups with no chains
    # skip the reduction.  Groups and chain-level entries are keyed on int
    # levels, bisected on the Fraction parts, and the set operations compare
    # with < only; keys on FiltValues and Intervals took 8,091.  Contiguity
    # checks each simplex once, where it enters, and levels are bisected
    # afresh: probing every level, through a memo keyed on eps, took 6,396.
    # The memos start empty: a warm memo compares its keys' values on every hit.
    _clear_memos()
    calls = []

    def counted(self, other, _original=Fraction.__eq__):
        calls.append(1)
        return _original(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counted)
    fuzz_axiom_reports(20, 7)
    monkeypatch.undo()
    assert len(calls) <= 4_479


def test_fuzz_stays_within_the_reduction_budget(monkeypatch):
    # one reduction per canonical subspace, and none for a zero one: a kernel
    # reduces its columns once, and a group's representatives come from one
    # reduction of the boundaries beside the persisted cycles.  Two reductions
    # per kernel and an intersection per group took 19,029.  The values
    # between two critical values share one level, and so one group and one
    # set of chains, cycles and boundaries: keys on FiltValues and Intervals
    # took 7,340.
    _clear_memos()
    calls = []
    real = Matrix.rref
    monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(1) or real(self))
    fuzz_axiom_reports(100, 7, GF2)
    monkeypatch.undo()
    assert len(calls) <= 7_043


def _double_induced_maps(monkeypatch):
    """Every induced map the verifier reads, times 2: over GF(3) the identity
    fails, and so does a composite, since 2 * 2 = 1."""
    real = axioms.induced_map

    def doubled(f, n, interval, field):
        lm = real(f, n, interval, field)
        m = lm.matrix
        return lm._replace(matrix=Matrix(field, [[a + a for a in row] for row in m.rows],
                                         m.nrows, m.ncols))

    monkeypatch.setattr(axioms, "induced_map", doubled)


def _shift_dimensions(monkeypatch):
    """Every group dimension the verifier reads, one too high."""
    real = axioms.homology

    def shifted(pair, n, interval, field):
        return SimpleNamespace(dim=real(pair, n, interval, field).dim + 1)

    monkeypatch.setattr(axioms, "homology", shifted)


def test_doubled_induced_maps_fail_identity_and_composition(monkeypatch):
    _double_induced_maps(monkeypatch)
    pair = pair_of(TRIANGLE_RIM)
    rep = verify_axiom("A1", GF3, pair=pair, interval=Interval(0, 0))
    # three points at 0: the first degree is 0, and the witness is 2 * I
    assert (rep.verdict, rep.details) == (FAIL, (("degree", "0"),))
    assert rep.witness == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    rot = PreservingMap(pair, pair, {"a": "b", "b": "c", "c": "a"})
    rep = verify_axiom("A2", GF3, f=rot, g=rot, interval=Interval(1, 2))
    # one class at [1,2]: (f g)_* reads 2, f_* g_* reads 2 * 2 = 1
    assert (rep.verdict, rep.details) == (FAIL, (("degree", "0"),))
    assert rep.witness == (((2,),), ((1,),))


def test_shifted_dimensions_fail_both_dimension_axioms(monkeypatch):
    _shift_dimensions(monkeypatch)
    intervals = (Interval(0, 0), Interval(1, 2))
    rep = verify_axiom("A6", alpha=1, intervals=intervals)
    # the point is born at 1, so [0,0] wants 0 in degree 0
    assert rep.verdict == FAIL
    assert rep.details == (("interval", "[0,0]"), ("degree", "0"), ("got", "1"), ("want", "0"))
    rep = verify_axiom("S3", alpha=0, intervals=intervals)
    assert rep.verdict == FAIL
    assert rep.details == (("q", "0"), ("degree", "0"), ("interval", "[0,0]"),
                           ("got", "2"), ("want", "1"))


def test_failures_cross_the_worker_pipes_unchanged(monkeypatch, capsys):
    # details and witnesses are pickled by a forked worker and read back;
    # the first A2 failure is instance 21's, which the child runs
    _double_induced_maps(monkeypatch)
    _shift_dimensions(monkeypatch)
    serial = fuzz_axiom_reports(23, 7, GF3)
    failing = {r.axiom for r in serial if r.verdict == FAIL}
    assert {"A1", "A2", "A6", "S3"} <= failing
    fake_cpus(monkeypatch, 2)
    assert fuzz._spread_fuzz_reports(23, 7, GF3) == serial
    argv = ["verify-axioms", "--fuzz", "23", "--seed", "7", "--field", "3"]
    text = main_on_cpus(1, argv, monkeypatch, capsys)
    assert main_on_cpus(2, argv, monkeypatch, capsys) == (*text[:3], 1)
    assert text[0] == 1
    assert {ln.split(" [")[0] for ln in text[1].splitlines() if ": fail (" in ln} == failing
