"""The bars path against an independent reduction, a pinned dump and naive counts."""

import ast
import hashlib
import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from persax import (
    GF2,
    GF3,
    INF,
    QQ,
    FilteredSet,
    Interval,
    bars_alive,
    barcode,
    critical_intervals,
    critical_values,
    fin,
    pair_barcode,
    pair_of,
    reduced_barcode,
)
from persax.barcode import cone_off_subset
from persax.formats import parse_pair_text, serialize_pair
from persax.fuzz import random_filtration, random_pair, random_subset_of

from .oracles import reference_bars, reference_pair_bars, values_of

REPO = Path(__file__).resolve().parent.parent
BARCODE_SOURCE = REPO / "src" / "persax" / "barcode.py"
FIELDS = ((GF2, 2), (GF3, 3), (QQ, None))


def _instances(count, seed):
    """Seeded fuzz pairs: small default ones, then every third on a larger pool."""
    master = random.Random(seed)
    pool = ("a", "b", "c", "d", "e", "f", "g")
    for i in range(count):
        rng = random.Random(master.getrandbits(64))
        if i % 3:
            yield random_pair(rng)
        else:
            x = random_filtration(rng, pool=pool, max_simplices=40, max_span=5)
            yield pair_of(x, random_subset_of(rng, x))


def _plain(bars):
    return [(b.degree, b.birth.finite, None if b.death == INF else b.death.finite)
            for b in bars]


class TestAgainstReferenceReduction:
    def test_bars_match_the_reduction_without_clearing(self):
        essential = finite = 0
        for pair in _instances(210, 401):
            total, sub = values_of(pair.total), values_of(pair.sub)
            for field, p in FIELDS:
                absolute = _plain(barcode(pair.total, field))
                relative = _plain(pair_barcode(pair, field))
                assert absolute == reference_bars(total, p)
                assert relative == reference_pair_bars(total, sub, p)
                essential += sum(d is None for _, _, d in absolute + relative)
                finite += sum(d is not None for _, _, d in absolute + relative)
        assert essential > 500 and finite > 200


class TestTiedValues:
    # three levels on a Rips set tie most simplices, so the pairing depends on
    # the order within each value; the reference reduces boundary columns
    @pytest.mark.parametrize("seed, rows, cols, top_dim", [
        (3, 2, 4, 3), (8, 3, 3, 2), (21, 2, 5, 2),
    ])
    def test_bars_match_the_reference_on_three_level_rips_sets(self, seed, rows, cols, top_dim):
        pair = parse_pair_text(_rips_pair_text(seed, rows, cols, top_dim, levels=3))
        assert 100 <= len(pair.total.entries) <= 300 and pair.sub.entries
        assert len(critical_values(pair)) <= 5
        total, sub = values_of(pair.total), values_of(pair.sub)
        finite = 0
        for field, p in FIELDS:
            absolute = _plain(barcode(pair.total, field))
            assert absolute == reference_bars(total, p)
            assert _plain(pair_barcode(pair, field)) == reference_pair_bars(total, sub, p)
            finite += sum(d is not None for _, _, d in absolute)
        assert finite > 0

    @pytest.mark.parametrize("total, sub", [
        ({}, {}),
        ({("a",): 0}, {}),
        ({("a",): 0, ("b",): 0, ("c",): 1}, {}),
        ({("a",): 0, ("b",): 0, ("c",): 1}, {("b",): 1, ("c",): 2}),
        ({("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}, {}),
        ({("a",): 0, ("b",): 0, ("a", "b"): 1}, {("a",): 0, ("b",): 0, ("a", "b"): 1}),
    ], ids=["empty", "one-vertex", "vertices-only", "vertices-only-pair",
            "empty-subset", "subset-is-everything"])
    def test_small_cases_match_the_reference(self, total, sub):
        vertices = {v for sk in total for v in sk}
        pair = pair_of(FilteredSet(vertices, total), FilteredSet(vertices, sub))
        plain_total = {sk: Fraction(v) for sk, v in total.items()}
        plain_sub = {sk: Fraction(v) for sk, v in sub.items()}
        for field, p in FIELDS:
            assert _plain(barcode(pair.total, field)) == reference_bars(plain_total, p)
            assert _plain(pair_barcode(pair, field)) == reference_pair_bars(plain_total, plain_sub, p)


class TestPinnedBarcodes:
    # sha256 of the dump below, recorded from the boundary-matrix reduction
    DIGEST = "a82577dcf1b6c0cdea54f35be993711fac0925c0a4ca8e9279f6d2285e64ea38"

    def test_barcode_dump_matches_the_pinned_digest(self):
        lines = []
        for i, pair in enumerate(_instances(120, 503)):
            field = (GF2, GF3)[i % 2]
            lines.append(f"{i} abs {barcode(pair.total, field)}")
            lines.append(f"{i} pair {pair_barcode(pair, field)}")
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


def _rips_pair_text(seed, rows=2, cols=7, top_dim=3, levels=12):
    """A seeded Rips pair file from the benchmark's recipe (1,470 + 98 simplices by default)."""
    spec = importlib.util.spec_from_file_location("persax_bench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    total = gen.rips(random.Random(seed), rows, cols, top_dim, levels=levels)
    return gen.pair_text(total, gen.left_half_subset(total))


class TestLargerInput:
    # sha256 of the canonical pair file and of the bars and alive-count dump,
    # recorded before the filtration layer stopped re-validating derived sets
    PAIR_DIGEST = "5e6b4283292e5aa17bd73d42a7469eb0bff9f4016833b50759a08d698accc771"
    DUMP_DIGEST = "cb09432faecd84b2021ec48b99b11ab0770489d2d77e0a09900ab82aca562c27"

    def test_rips_pair_round_trips_and_keeps_its_bars(self):
        pair = parse_pair_text(_rips_pair_text(13))
        assert (len(pair.total.entries), len(pair.sub.entries)) == (1470, 98)
        text = serialize_pair(pair)
        assert serialize_pair(parse_pair_text(text)) == text
        assert hashlib.sha256(text.encode()).hexdigest() == self.PAIR_DIGEST
        lines = []
        for p in (pair, pair_of(pair.total)):
            bars = pair_barcode(p)
            lines += [f"bar\t{b.degree}\t{b.birth}\t{b.death}" for b in bars]
            for n in range(p.total.dimension + 2):
                for iv in critical_intervals(p):
                    lines.append(f"alive\t{n}\t{iv}\t{bars_alive(bars, n, iv)}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DUMP_DIGEST

    def test_parse_and_bars_compare_values_by_rank(self, monkeypatch):
        # validation and the reduction order simplices by integer rank, so
        # Fraction work grows with the distinct values, not with the simplices
        text = _rips_pair_text(13)
        calls = []
        for name in ("__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__hash__"):
            def counted(*args, _original=getattr(Fraction, name)):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        pair = parse_pair_text(text)
        pair_barcode(pair)
        made = len(calls)
        monkeypatch.undo()
        distinct = len(critical_values(pair))
        assert distinct == 13
        assert made <= 20 * distinct

    def test_rational_bars_do_little_fraction_arithmetic(self, monkeypatch):
        # only reductions of columns whose oldest cofacet is already a pivot
        # do arithmetic; the boundary-matrix reduction made 56,207 calls here
        pair = parse_pair_text(_rips_pair_text(13))
        calls = []
        for name in ("__mul__", "__rmul__", "__sub__", "__rsub__", "__add__", "__radd__",
                     "__truediv__", "__rtruediv__", "__neg__"):
            def counted(*args, _original=getattr(Fraction, name)):
                calls.append(1)
                return _original(*args)

            monkeypatch.setattr(Fraction, name, counted)
        pair_barcode(pair, QQ)
        made = len(calls)
        monkeypatch.undo()
        assert 0 < made <= 5_000


class TestBuiltOnce:
    @staticmethod
    def _validated_during(monkeypatch, build):
        from persax import filtration

        built = []
        original_init = filtration.FilteredSet.__init__

        def counted_init(self, vertices, values):
            built.append(len(values))
            original_init(self, vertices, values)

        with monkeypatch.context() as patch:
            patch.setattr(filtration.FilteredSet, "__init__", counted_init)
            build()
        return built

    def test_pair_barcode_validates_nothing_on_a_built_pair(self, monkeypatch):
        pairs = list(_instances(30, 709)) + [parse_pair_text(_rips_pair_text(13))]
        for pair in pairs:
            for p in (pair, pair_of(pair.total)):
                assert self._validated_during(monkeypatch, lambda: pair_barcode(p)) == []
        # the hook does see a validating build
        assert self._validated_during(monkeypatch, lambda: FilteredSet({"a"}, {("a",): 0})) == [1]

    def test_critical_values_read_no_entries(self, monkeypatch):
        pairs = list(_instances(30, 709))
        slot = FilteredSet.__dict__["entries"]
        reads = []

        def counted(self):
            reads.append(self)
            return slot.__get__(self)

        with monkeypatch.context() as patch:
            patch.setattr(FilteredSet, "entries", property(counted))
            for pair in pairs:
                critical_values(pair)
                critical_values(pair.total)
                critical_values(pair.sub)
            assert reads == []
            pairs[0].total.entries  # the hook does see a read
        assert reads == [pairs[0].total]


def _naive_alive(bars, degree, lo, hi):
    return sum(1 for b in bars if b.degree == degree and b.birth <= lo and hi < b.death)


class TestBarsAlive:
    def test_counts_match_a_naive_scan(self):
        intervals_with_lo_below_hi = infinite_hits = 0
        for pair in _instances(90, 607):
            vals = critical_values(pair)
            # critical values, points between and around them
            probes = sorted(set(vals) | {fin(Fraction(-1)), fin(Fraction(5))}
                            | {fin((a.finite + b.finite) / 2) for a, b in zip(vals, vals[1:])})
            for bars in (barcode(pair.total), pair_barcode(pair, GF3)):
                for n in range(pair.total.dimension + 2):
                    for i, lo in enumerate(probes):
                        for hi in probes[i:]:
                            expect = _naive_alive(bars, n, lo, hi)
                            assert bars_alive(bars, n, Interval(lo, hi)) == expect
                            intervals_with_lo_below_hi += lo < hi and expect > 0
                            infinite_hits += any(b.death == INF and b.degree == n
                                                 and b.birth <= lo for b in bars)
        assert intervals_with_lo_below_hi > 500 and infinite_hits > 500

    def test_degree_outside_the_barcode_counts_nothing(self):
        pair = next(iter(_instances(1, 607)))
        bars = pair_barcode(pair)
        iv = Interval(0, 2)
        assert bars_alive(bars, -1, iv) == 0
        assert bars_alive(bars, pair.total.dimension + 5, iv) == 0
        assert bars_alive((), 0, iv) == 0


class TestCone:
    # the apex is named "w" unless a vertex is, then "w_", "w__" and so on
    TOTAL = {("a",): 0, ("w",): 0, ("w_",): 0, ("a", "w"): 1, ("a", "w_"): 1, ("w", "w_"): 1,
             ("a", "w", "w_"): 2, ("b",): 1, ("a", "b"): 2}
    SUB = {("w",): 1, ("w_",): 0, ("w", "w_"): 1, ("b",): 1}

    def pair(self):
        return pair_of(FilteredSet({"a", "b", "w", "w_"}, self.TOTAL),
                       FilteredSet({"b", "w", "w_"}, self.SUB))

    def test_an_apex_name_taken_twice_gives_the_reference_bars(self):
        pair = self.pair()
        cone = cone_off_subset(pair)
        assert cone.vertices == pair.total.vertices | {"w__"}
        assert cone.value(("w__",)) == fin(0) and cone.value(("w", "w_", "w__")) == fin(1)
        total = {sk: Fraction(v) for sk, v in self.TOTAL.items()}
        sub = {sk: Fraction(v) for sk, v in self.SUB.items()}
        degrees = set()
        for field, p in FIELDS:
            bars = _plain(pair_barcode(pair, field))
            assert bars == reference_pair_bars(total, sub, p)
            degrees |= {n for n, _, _ in bars}
        assert degrees == {0, 1}

    def test_an_absolute_pair_builds_no_cone(self, monkeypatch):
        # coning off nothing adds one point, whose bar the reduced theory removes
        module = importlib.import_module("persax.barcode")
        master = random.Random(727)
        sets = [random_filtration(random.Random(master.getrandbits(64))) for _ in range(60)]
        coned = {(i, field): reduced_barcode(cone_off_subset(pair_of(x)), field)
                 for i, x in enumerate(sets) for field, _ in FIELDS}

        def refused(pair):
            raise AssertionError("an absolute pair was coned")

        monkeypatch.setattr(module, "cone_off_subset", refused)
        for i, x in enumerate(sets):
            for field, _ in FIELDS:
                assert pair_barcode(pair_of(x), field) == barcode(x, field) == coned[i, field]
                assert pair_barcode(x, field) == coned[i, field]

        calls = []

        def counted(pair):
            calls.append(pair)
            return cone_off_subset(pair)

        monkeypatch.setattr(module, "cone_off_subset", counted)
        pair = self.pair()
        pair_barcode(pair)
        assert calls == [pair]


def test_bars_path_imports_nothing_from_linalg():
    # the bars path is an oracle for the linalg kernels, so it must not load them
    tree = ast.parse(BARCODE_SOURCE.read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert "fields" in modules
    assert not [name for name in modules if "linalg" in name]
