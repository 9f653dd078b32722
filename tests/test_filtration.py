"""Filtered sets, pairs, maps, and the combinatorial constructions."""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from persax import (
    INF,
    Bar,
    FilteredSet,
    FiltrationError,
    FiltValue,
    Interval,
    MissingFace,
    MonotonicityViolation,
    NotFiltrationPreserving,
    PreservingMap,
    RelativeFilteredPair,
    SubNotMappedIntoSub,
    UnknownVertex,
    closed_star,
    complex_at,
    compose,
    critical_intervals,
    critical_values,
    cylinder,
    fin,
    identity_map,
    intersection,
    is_star_shaped,
    pair_of,
    point,
    skeleton,
    standard_boundary,
    standard_simplex,
    union,
)
from persax.barcode import cone_off_subset
from persax.formats import canonical_text, serialize_pair
from persax.fuzz import random_filtration, random_pair, restrict_to_vertices

TRIANGLE_RIM = {
    ("a",): 0, ("b",): 0, ("c",): 0,
    ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1,
}


def triangle_rim():
    return FilteredSet({"a", "b", "c"}, TRIANGLE_RIM)


class TestFiltValue:
    def test_inf_tops_everything(self):
        assert fin(10**9) < INF
        assert INF == INF and not (INF < INF)

    def test_string_forms(self):
        assert fin("1/2") == fin(Fraction(1, 2))
        assert fin("inf") == INF

    def test_total_order(self):
        vals = [INF, fin(1), fin("1/2"), fin(0), fin(-3)]
        assert sorted(vals) == [fin(-3), fin(0), fin("1/2"), fin(1), INF]

    def test_equal_values_are_equal_and_hash_equal(self):
        built = [fin("1/2"), fin(Fraction(1, 2)), FiltValue(Fraction(1, 2))]
        assert all(v == built[0] for v in built)
        assert len({hash(v) for v in built}) == 1

    def test_never_equal_to_a_number(self):
        assert fin(1) != 1
        assert fin(1) != Fraction(1)
        assert INF != float("inf")

    def test_finite_part_must_be_a_fraction(self):
        with pytest.raises(TypeError):
            FiltValue(1)

    def test_immutable(self):
        v = fin(1)
        with pytest.raises(AttributeError):
            v.finite = Fraction(2)
        with pytest.raises(AttributeError):
            v.other = 0
        assert v.finite == Fraction(1)

    def test_str_and_repr(self):
        assert str(INF) == "inf"
        assert str(fin("1/2")) == "1/2"
        assert repr(fin("1/2")) == "FiltValue(1/2)"
        assert repr(INF) == "FiltValue(inf)"

    def test_sorted_bars_follow_the_explicit_key(self):
        from persax import barcode, pair_barcode
        from persax.fuzz import random_pair

        def old_key(b):
            return (b.degree, b.birth, b.death == INF, b.death)

        master = random.Random(11)
        for _ in range(40):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for bars in (barcode(pair.total), pair_barcode(pair)):
                shuffled = list(bars)
                master.shuffle(shuffled)
                assert sorted(shuffled) == sorted(shuffled, key=old_key) == list(bars)


class TestInterval:
    def test_str_and_repr(self):
        assert repr(Interval(0, 1)) == "Interval(0, 1)"
        assert str(Interval(0, 1)) == "[0,1]"
        assert str(Interval("1/2", 2)) == "[1/2,2]"

    def test_infinite_hi_and_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, INF)
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_equal_endpoints_are_equal_and_hash_equal(self):
        assert Interval(0, "1/2") == Interval(fin(0), fin(Fraction(1, 2)))
        assert hash(Interval(0, "1/2")) == hash(Interval(fin(0), fin(Fraction(1, 2))))
        assert Interval(0, 1).lo == fin(0) and Interval(0, 1).hi == fin(1)

    def test_immutable(self):
        iv = Interval(0, 1)
        with pytest.raises(AttributeError):
            iv.lo = fin(1)
        with pytest.raises(AttributeError):
            iv.other = 0


class TestRelativeFilteredPair:
    def test_equal_pairs_are_equal_and_hash_equal(self):
        sub = FilteredSet({"a"}, {("a",): 1})
        built = [pair_of(triangle_rim(), sub),
                 RelativeFilteredPair(triangle_rim(), FilteredSet({"a"}, {("a",): "1"}))]
        assert built[0] is not built[1] and built[0].total is not built[1].total
        assert built[0] == built[1]
        assert hash(built[0]) == hash(built[1])
        assert built[0] != pair_of(triangle_rim())
        assert built[0].total == triangle_rim() and built[0].sub == sub

    def test_immutable(self):
        pair = pair_of(triangle_rim())
        with pytest.raises(AttributeError):
            pair.total = triangle_rim()
        with pytest.raises(AttributeError):
            pair.sub = triangle_rim()
        with pytest.raises(AttributeError):
            pair.other = 0

    def test_repr(self):
        assert repr(pair_of(triangle_rim())) == (
            "RelativeFilteredPair(FilteredSet(3 vertices, 6 simplices), "
            "FilteredSet(0 vertices, 0 simplices))"
        )

    def test_constructor_rejects_escaping_or_early_subsets(self):
        with pytest.raises(UnknownVertex, match="^subset vertices must lie in the total vertex set$"):
            RelativeFilteredPair(triangle_rim(), FilteredSet({"z"}, {("z",): 0}))
        early = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 0})
        with pytest.raises(FiltrationError) as info:
            RelativeFilteredPair(triangle_rim(), early)
        assert type(info.value) is FiltrationError
        assert str(info.value) == "subset value 0 for ('a', 'b') is below the total value 1"
        # of two early edges, the first in entry order is named, not the first given
        early = FilteredSet({"a", "b", "c"}, {("b", "c"): 0, ("a", "c"): 0, ("a",): 0,
                                              ("b",): 0, ("c",): 0})
        with pytest.raises(FiltrationError) as info:
            RelativeFilteredPair(triangle_rim(), early)
        assert type(info.value) is FiltrationError
        assert str(info.value) == "subset value 0 for ('a', 'c') is below the total value 1"

    def test_canonical_text_is_the_pair_file(self):
        pair = pair_of(triangle_rim(), FilteredSet({"a"}, {("a",): 1}))
        assert canonical_text(pair) == serialize_pair(pair)
        assert canonical_text(pair).startswith("[X]\n")


class TestCopyAndPickle:
    """Copies and pickles rebuild through the validating constructors."""

    @staticmethod
    def _objects():
        sub = FilteredSet({"a"}, {("a",): 1})
        pair = pair_of(triangle_rim(), sub)
        return [fin("1/2"), INF, Interval(0, "3/2"), triangle_rim(), pair,
                pair_of(triangle_rim()), identity_map(pair), Bar(1, fin(1), INF),
                (Interval(1, 1), Bar(0, fin(0), fin("1/3")))]

    @pytest.mark.parametrize("how", ["copy", "deepcopy"] + [
        f"pickle{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)])
    def test_round_trip_is_equal(self, how):
        for obj in self._objects():
            if how == "copy":
                back = copy.copy(obj)
            elif how == "deepcopy":
                back = copy.deepcopy(obj)
            else:
                back = pickle.loads(pickle.dumps(obj, protocol=int(how[6:])))
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)


class TestValidate:
    def test_monotone_input_accepted(self):
        fs = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        assert fs.value(("a", "b")) == fin(1)

    def test_face_value_above_coface_rejected(self):
        with pytest.raises(MonotonicityViolation):
            FilteredSet({"a", "b"}, {("a",): 2, ("b",): 0, ("a", "b"): 1})

    def test_missing_face_rejected_not_filled(self):
        with pytest.raises(MissingFace):
            FilteredSet({"a", "b"}, {("a", "b"): 1, ("b",): 0})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            FilteredSet({"a"}, {("z",): 0})

    def test_inf_entries_treated_as_absent(self):
        fs = FilteredSet({"a", "b"}, {("a",): 0, ("a", "b"): "inf", ("b",): "inf"})
        assert fs.support == (("a",),)

    @pytest.mark.parametrize("tail", [
        {("b", "a"): "inf", ("a", "b"): 1},
        {("a", "b"): 1, ("b", "a"): "inf"},
    ], ids=["inf-first", "inf-last"])
    def test_inf_conflict_rejected_in_either_key_order(self, tail):
        with pytest.raises(FiltrationError, match=r"conflicting values for simplex \('a', 'b'\)"):
            FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, **tail})

    def test_repeated_identical_inf_accepted(self):
        fs = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): "inf", ("b", "a"): "inf"})
        assert fs.support == (("a",), ("b",))

    @pytest.mark.parametrize("missing, late, error, message", [
        (("acd", "abd"), (), MissingFace,
         "face ('a', 'c', 'd') of ('a', 'b', 'c', 'd') is absent from the support"),
        (("abc", "bcd"), (), MissingFace,
         "face ('b', 'c', 'd') of ('a', 'b', 'c', 'd') is absent from the support"),
        ((), ("acd", "abd"), MonotonicityViolation,
         "face ('a', 'c', 'd') at 5 exceeds ('a', 'b', 'c', 'd') at 3"),
        ((), ("abc", "bcd"), MonotonicityViolation,
         "face ('b', 'c', 'd') at 5 exceeds ('a', 'b', 'c', 'd') at 3"),
        (("abc",), ("bcd",), MonotonicityViolation,
         "face ('b', 'c', 'd') at 5 exceeds ('a', 'b', 'c', 'd') at 3"),
        (("bcd",), ("abc",), MissingFace,
         "face ('b', 'c', 'd') of ('a', 'b', 'c', 'd') is absent from the support"),
    ], ids=["two-missing", "two-missing-ends", "two-late", "two-late-ends",
            "late-before-missing", "missing-before-late"])
    def test_the_facet_with_the_lowest_omitted_position_is_reported(
            self, missing, late, error, message):
        # a solid tetrahedron at 3 with two bad facets; the message names the
        # bad facet that omits the earliest vertex
        table = {sk: min(len(sk) - 1, 3)
                 for k in range(1, 5) for sk in itertools.combinations("abcd", k)}
        for sk in missing:
            del table[tuple(sk)]
        table.update({tuple(sk): 5 for sk in late})
        with pytest.raises(error) as raised:
            FilteredSet(set("abcd"), table)
        assert str(raised.value) == message

    def test_pair_requires_dominating_subset_values(self):
        x = FilteredSet({"a"}, {("a",): 0})
        low = FilteredSet({"a"}, {("a",): 0})
        assert pair_of(x, low).sub is low
        with pytest.raises(FiltrationError):
            pair_of(FilteredSet({"a"}, {("a",): 1}), low)


class TestValue:
    def test_canonical_key_is_found_as_given(self):
        fs = triangle_rim()
        assert fs.value(("a", "b")) == fin(1) and fs.value(("c",)) == fin(0)

    @pytest.mark.parametrize("key", [("b", "a"), ["b", "a"], {"a", "b"}, "ab"],
                             ids=["reordered", "list", "set", "string"])
    def test_non_canonical_key_finds_its_simplex(self, key):
        assert triangle_rim().value(key) == fin(1)

    @pytest.mark.parametrize("key", [("a", "b", "c"), ("c", "b", "a"), ("z",), ("a", "z")])
    def test_missing_key_is_inf(self, key):
        assert triangle_rim().value(key) == INF

    @pytest.mark.parametrize("key, message", [
        ((), "a simplex needs at least one vertex"),
        (("a", "a"), r"repeated vertex in simplex \('a', 'a'\)"),
        (["b", "b"], r"repeated vertex in simplex \('b', 'b'\)"),
    ], ids=["empty", "repeated", "repeated-list"])
    def test_malformed_key_raises(self, key, message):
        with pytest.raises(ValueError, match=message):
            triangle_rim().value(key)


def _brute_force_valid(raw: dict) -> bool:
    # independent re-check: explicit downward closure and monotonicity
    table = {tuple(sorted(k)): v for k, v in raw.items() if v is not None}
    for sk, v in table.items():
        for r in range(1, len(sk)):
            for face in itertools.combinations(sk, r):
                if face not in table or table[face] > v:
                    return False
    return True


@st.composite
def raw_tables(draw):
    verts = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    n = draw(st.integers(0, 8))
    table = {}
    for _ in range(n):
        size = draw(st.integers(1, len(verts)))
        sk = tuple(sorted(draw(st.permutations(verts))[:size]))
        table[sk] = draw(st.sampled_from([0, 1, 2, None]))
    return verts, {k: v for k, v in table.items() if v is not None}


@settings(max_examples=60, deadline=None)
@given(raw_tables())
def test_validate_agrees_with_brute_force(case):
    verts, raw = case
    try:
        FilteredSet(verts, raw)
        accepted = True
    except FiltrationError:
        accepted = False
    assert accepted == _brute_force_valid(raw)


class TestComplexAt:
    def test_triangle_rim_levels(self):
        fs = triangle_rim()
        assert complex_at(fs, fin(0)) == {("a",), ("b",), ("c",)}
        assert len(complex_at(fs, fin(1))) == 6
        assert complex_at(fs, fin(-1)) == frozenset()

    def test_sublevels_nest_and_are_closed(self):
        fs = triangle_rim()
        levels = [complex_at(fs, v) for v in critical_values(fs)]
        for small, large in zip(levels, levels[1:]):
            assert small <= large
        for level in levels:
            for sk in level:
                for i in range(len(sk)):
                    face = sk[:i] + sk[i + 1 :]
                    assert not face or face in level


class TestUnionIntersection:
    def test_shared_simplex_takes_min_and_max(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        y = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 2})
        assert union(x, y).value(("a", "b")) == fin(1)
        assert intersection(x, y).value(("a", "b")) == fin(2)

    def test_one_sided_simplex_keeps_its_value(self):
        x = FilteredSet({"a"}, {("a",): 3})
        y = FilteredSet({"b"}, {("b",): 1})
        u = union(x, y)
        assert u.value(("a",)) == fin(3)
        assert u.value(("b",)) == fin(1)

    def test_spanning_simplex_stays_absent(self):
        x = FilteredSet({"a"}, {("a",): 0})
        y = FilteredSet({"b"}, {("b",): 0})
        assert union(x, y).value(("a", "b")) == INF

    def test_sublevels_match_set_operations(self):
        x = triangle_rim()
        y = FilteredSet({"b", "c", "d"}, {("b",): 0, ("c",): 0, ("d",): 0, ("b", "c"): "1/2",
                                          ("b", "d"): 2, ("c", "d"): 2})
        for eps in critical_values(union(x, y)):
            got = complex_at(union(x, y), eps)
            assert got == complex_at(x, eps) | complex_at(y, eps)
        for eps in critical_values(intersection(x, y)):
            got = complex_at(intersection(x, y), eps)
            assert got == complex_at(x, eps) & complex_at(y, eps)


class TestSkeleton:
    def test_minus_one_empties_support(self):
        fs = skeleton(triangle_rim(), -1)
        assert fs.support == ()
        assert fs.vertices == {"a", "b", "c"}

    def test_filled_triangle_keeps_dimension_filter(self):
        solid = standard_simplex(2, 0, ("a", "b", "c"))
        one = skeleton(solid, 1)
        assert one.value(("a", "b", "c")) == INF
        assert one.value(("a", "b")) == fin(0)

    def test_idempotent_and_full_for_large_degree(self):
        fs = triangle_rim()
        assert skeleton(skeleton(fs, 1), 1) == skeleton(fs, 1)
        assert skeleton(fs, 5) == fs


class TestStandardObjects:
    def test_boundary_of_edge_is_two_points(self):
        fs = standard_boundary(1, "1/2")
        assert len(fs.support) == 2
        assert all(len(sk) == 1 for sk in fs.support)

    def test_closed_star_omits_top_and_opposite_face(self):
        fs = closed_star(2, 0, "v0")
        assert fs.value(("v0", "v1", "v2")) == INF
        assert fs.value(("v1", "v2")) == INF
        assert fs.value(("v0", "v1")) == fin(0)
        assert fs.value(("v0",)) == fin(0)

    def test_zero_simplex_is_a_point(self):
        assert standard_simplex(0, 2, ("p",)) == point(2)

    def test_equal_arguments_give_one_shared_set(self):
        # values and vertex lists are normalised before the memo looks them up
        assert standard_simplex(2, "1/2") is standard_simplex(2, Fraction(1, 2))
        assert standard_simplex(1, 0, ["a", "b"]) is standard_simplex(1, fin(0), ("a", "b"))
        assert standard_boundary(3, 1) is standard_boundary(3, "1")
        assert standard_boundary(2, 0, iter("xyz")) is standard_boundary(2, 0, ("x", "y", "z"))
        assert closed_star(2, 0, "v0") is closed_star(2, Fraction(0), "v0")
        assert point(2) is point("2") is standard_simplex(0, 2, ("p",))
        assert point(2, "q") is point(2, "q") and point(2, "q") is not point(2)
        assert standard_simplex(1, 0) is not standard_simplex(1, 1)

    def test_the_shared_sets_are_kept_in_bounded_memos(self):
        from persax import filtration

        memos = [f for f in vars(filtration).values() if hasattr(f, "cache_info")]
        assert len(memos) == 3
        bound = max(f.cache_info().maxsize for f in memos)
        assert all(f.cache_info().maxsize is not None for f in memos)
        for i in range(bound + 10):
            point(i, "bounded")
        assert all(f.cache_info().currsize <= f.cache_info().maxsize for f in memos)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: standard_simplex(-1, 0), ValueError, "simplex dimension must be >= 0"),
        (lambda: standard_simplex(1, "inf"), ValueError, "the birth value must be finite"),
        (lambda: standard_simplex(1, 0, ("a",)), ValueError, "need exactly 2 vertices"),
        (lambda: standard_simplex(1, 0, ("a", "a")), ValueError,
         "repeated vertex in simplex ('a', 'a')"),
        (lambda: standard_simplex(1, [0]), TypeError, "cannot interpret [0] as a filtration value"),
        # q = 1 is in the memo; the equal q = 1.0 is not taken for it
        (lambda: (standard_simplex(1, 0), standard_simplex(1.0, 0)), TypeError,
         "'float' object cannot be interpreted as an integer"),
        (lambda: standard_boundary(2, 0, ("a", "b")), ValueError, "need exactly 3 vertices"),
        (lambda: closed_star(2, 0, "zz"), UnknownVertex, "'zz' is not a vertex of the simplex"),
        (lambda: point("inf"), ValueError, "the birth value must be finite"),
    ])
    def test_invalid_arguments_raise_on_every_call(self, build, error, message):
        for _ in range(3):
            with pytest.raises(error) as caught:
                build()
            assert type(caught.value) is error and str(caught.value) == message


class TestEquality:
    """Sets compare by vertices, sorted values and rank tables."""

    RAW = {("a",): 0, ("b",): "1/2", ("c",): 1, ("a", "b"): 1, ("b", "c"): 2}

    def test_sets_built_apart_are_equal(self):
        x, y = FilteredSet("abc", self.RAW), FilteredSet(["c", "b", "a"], dict(self.RAW))
        assert x is not y and x == y and hash(x) == hash(y)
        assert x == x and not (x != y)

    @pytest.mark.parametrize("change", [
        {("b", "c"): 3},  # one value: the ranks stay, the values do not
        {("c",): "1/2"},  # one value: the values stay, the ranks do not
        {("a", "c"): 2},  # one more simplex
    ], ids=["value-same-ranks", "value-same-values", "simplex"])
    def test_one_changed_entry_breaks_equality(self, change):
        x = FilteredSet("abc", self.RAW)
        y = FilteredSet("abc", {**self.RAW, **change})
        assert x != y and y != x

    def test_the_vertex_set_counts(self):
        assert FilteredSet("abc", self.RAW) != FilteredSet("abcd", self.RAW)

    def test_other_objects_are_unequal(self):
        x = FilteredSet("abc", self.RAW)
        for other in (None, 0, dict(x.entries), x.entries, pair_of(x)):
            assert x != other and not (x == other)


def _derived_sets(count, seed):
    """Every set the package builds without re-validating, from seeded fuzz input."""
    master = random.Random(seed)
    for i in range(count):
        rng = random.Random(master.getrandbits(64))
        pair, y = random_pair(rng), random_filtration(rng)
        x = pair.total
        yield union(x, y)
        yield intersection(x, y)
        for q in range(-1, x.dimension + 2):
            yield skeleton(x, q)
        yield cone_off_subset(pair)
        yield cone_off_subset(pair_of(x))
        yield standard_boundary(i % 4, "1/2")
        yield closed_star(1 + i % 3, 3, "v0")
        yield restrict_to_vertices(x, sorted(x.vertices)[i % 2 :: 2])
        yield restrict_to_vertices(pair.sub, sorted(pair.sub.vertices)[1:])


class TestTrustedConstruction:
    """Derived sets match the validating constructor on the same table."""

    def test_derived_sets_equal_their_validated_rebuild(self):
        checked = 0
        for fs in _derived_sets(200, 811):
            rebuilt = FilteredSet(fs.vertices, dict(fs.entries))
            assert fs == rebuilt and hash(fs) == hash(rebuilt)
            assert fs.entries == rebuilt.entries and fs.vertices == rebuilt.vertices
            assert critical_values(fs) == tuple(sorted({v for _, v in fs.entries}))
            assert critical_values(fs) == critical_values(rebuilt)
            for back in (copy.copy(fs), copy.deepcopy(fs), pickle.loads(pickle.dumps(fs))):
                assert back == fs and hash(back) == hash(fs)
                assert critical_values(back) == critical_values(fs)
            checked += 1
        assert checked > 2000

    def test_values_are_found_through_the_rank_table(self):
        checked = 0
        for fs in _derived_sets(60, 853):
            absent = tuple(sorted(fs.vertices | {"zz"}))
            for back in (fs, copy.copy(fs), copy.deepcopy(fs), pickle.loads(pickle.dumps(fs))):
                for sk, val in fs.entries:
                    assert back.value(sk) == val and back.value(sk[::-1]) == val
                assert back.value(absent) == INF
            checked += 1
        assert checked > 700

    def test_pair_values_pool_both_parts(self):
        master = random.Random(829)
        for _ in range(200):
            pair = random_pair(random.Random(master.getrandbits(64)))
            pooled = {v for _, v in pair.total.entries} | {v for _, v in pair.sub.entries}
            assert critical_values(pair) == tuple(sorted(pooled))


class TestCylinder:
    def test_single_vertex_doubles_into_a_segment(self):
        x = point(Fraction(1, 2), "a")
        cyl, h0, h1, k = cylinder(x)
        assert cyl.value(("a",)) == fin("1/2")
        assert cyl.value(("a'",)) == fin("1/2")
        assert cyl.value(("a", "a'")) == fin("1/2")

    def test_edge_produces_both_prisms(self):
        x = FilteredSet({"a", "b"}, {("a",): 1, ("b",): 1, ("a", "b"): 1})
        cyl, *_ = cylinder(x, order=("a", "b"))
        assert cyl.value(("a", "a'", "b")) == fin(1)
        assert cyl.value(("a'", "b", "b'")) == fin(1)
        assert cyl.value(("a'", "b")) == fin(1)
        assert cyl.value(("a", "b'")) == INF  # wrong-order diagonal

    def test_maps_validate_and_collapse_is_left_inverse(self):
        x = triangle_rim()
        cyl, h0, h1, k = cylinder(x)
        for v in x.vertices:
            assert k.vertex_map[h0.vertex_map[v]] == v
            assert k.vertex_map[h1.vertex_map[v]] == v

    def test_order_must_cover_the_vertices(self):
        with pytest.raises(UnknownVertex):
            cylinder(triangle_rim(), order=("a", "b"))


class TestStarShaped:
    def test_solid_simplex_is_star_shaped_everywhere(self):
        solid = standard_simplex(2, 0)
        assert is_star_shaped(solid, "v0", Interval(0, 1))

    def test_two_points_are_not(self):
        fs = standard_boundary(1, 0, ("a", "b"))
        assert not is_star_shaped(fs, "a", Interval(0, 1))

    def test_interval_below_all_births_is_vacuously_star_shaped(self):
        fs = triangle_rim()
        assert is_star_shaped(fs, "a", Interval(-2, -1))

    def test_a_lower_endpoint_between_critical_values_is_probed(self):
        # the edge enters at 2, so at 1 the two points are not coned at a;
        # 1 is no critical value, and only the interval's endpoint probes it
        fs = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 2})
        assert not is_star_shaped(fs, "a", Interval(1, 3))
        assert is_star_shaped(fs, "a", Interval(2, 3))

    def test_unknown_center_rejected(self):
        with pytest.raises(UnknownVertex):
            is_star_shaped(triangle_rim(), "z", Interval(0, 1))


class TestValidateMap:
    def test_identity_is_valid(self):
        pair = pair_of(triangle_rim())
        identity_map(pair)

    def test_constant_map_to_early_point(self):
        x = triangle_rim()
        target = pair_of(point(0))
        PreservingMap(pair_of(x), target, {v: "p" for v in x.vertices})

    def test_late_target_rejected(self):
        x = point(0, "a")
        y = point(2, "b")
        with pytest.raises(NotFiltrationPreserving):
            PreservingMap(pair_of(x), pair_of(y), {"a": "b"})

    def test_subset_must_land_in_subset(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        a = FilteredSet({"a"}, {("a",): 0})
        dom = pair_of(x, a)
        cod = pair_of(x, FilteredSet({"b"}, {("b",): 0}))
        with pytest.raises(SubNotMappedIntoSub):
            PreservingMap(dom, cod, {"a": "a", "b": "b"})

    def test_composition_associates_with_vertex_maps(self):
        x = triangle_rim()
        f = PreservingMap(pair_of(x), pair_of(point(0)), {v: "p" for v in x.vertices})
        g = identity_map(pair_of(x))
        assert compose(f, g).vertex_map == f.vertex_map

    # the edge a b at 0, alone and with the subset {a}; x y as a late edge,
    # and as an early edge whose subset {x} comes late
    EDGE = pair_of(standard_simplex(1, 0, ("a", "b")))
    EDGE_A = pair_of(EDGE.total, point(0, "a"))
    LATE = pair_of(FilteredSet({"x", "y"}, {("x",): 0, ("y",): 0, ("x", "y"): 5}))
    LATE_X = pair_of(standard_simplex(1, 0, ("x", "y")), point(1, "x"))

    @pytest.mark.parametrize("domain, codomain, vm, error, message", [
        (EDGE, EDGE, {"a": "a"}, UnknownVertex, "vertex 'b' has no image"),
        (EDGE, EDGE, {"a": "a", "b": "q"}, UnknownVertex, "image 'q' is not a codomain vertex"),
        (EDGE_A, EDGE_A, {"a": "b", "b": "b"}, SubNotMappedIntoSub,
         "subset vertex 'a' maps outside the codomain subset"),
        (EDGE, LATE, {"a": "x", "b": "y"}, NotFiltrationPreserving,
         "simplex ('a', 'b') at 0 maps to ('x', 'y') born later"),
        (EDGE_A, LATE_X, {"a": "x", "b": "y"}, NotFiltrationPreserving,
         "subset simplex ('a',) at 0 maps to ('x',) born later in the codomain subset"),
        (EDGE, EDGE, {"a": "a", "b": "b", "zz": "q", "z": "a"}, UnknownVertex,
         "vertex 'z' is not a domain vertex"),
    ], ids=["missing-image", "image-outside", "sub-outside-sub", "born-later",
            "born-later-in-sub", "extra-arrow"])
    def test_invalid_maps_are_rejected_with_their_cause(self, domain, codomain, vm, error,
                                                        message):
        with pytest.raises(error) as info:
            PreservingMap(domain, codomain, vm)
        assert str(info.value) == message

    def test_vertex_map_is_read_only(self):
        f = identity_map(self.EDGE)
        with pytest.raises(TypeError):
            f.vertex_map["a"] = "b"
        assert f.vertex_map == {"a": "a", "b": "b"}


class TestCriticalValues:
    def test_triangle_rim(self):
        assert critical_values(triangle_rim()) == (fin(0), fin(1))

    def test_point_and_empty(self):
        assert critical_values(point("1/2")) == (fin("1/2"),)
        assert critical_values(skeleton(point(0), -1)) == ()

    def test_intervals_enumerate_ordered_pairs(self):
        assert len(critical_intervals(triangle_rim())) == 3

    def test_pair_pools_both_filtrations(self):
        x = FilteredSet({"a"}, {("a",): 0})
        a = FilteredSet({"a"}, {("a",): 2})
        assert critical_values(pair_of(x, a)) == (fin(0), fin(2))


@st.composite
def small_filtrations(draw):
    from persax.fuzz import random_filtration

    seed = draw(st.integers(0, 10**9))
    return random_filtration(random.Random(seed))


@settings(max_examples=40, deadline=None)
@given(small_filtrations(), small_filtrations())
def test_union_intersection_membership_properties(x, y):
    u, i = union(x, y), intersection(x, y)
    for eps in critical_values(u):
        assert complex_at(u, eps) == complex_at(x, eps) | complex_at(y, eps)
    for eps in critical_values(i):
        assert complex_at(i, eps) == complex_at(x, eps) & complex_at(y, eps)


@settings(max_examples=40, deadline=None)
@given(small_filtrations(), st.integers(-1, 4))
def test_skeleton_idempotence_property(x, q):
    assert skeleton(skeleton(x, q), q) == skeleton(x, q)


@settings(max_examples=30, deadline=None)
@given(small_filtrations())
def test_cylinder_maps_always_validate(x):
    cyl, h0, h1, k = cylinder(x)
    for v in x.vertices:
        assert k.vertex_map[h0.vertex_map[v]] == v
        assert k.vertex_map[h1.vertex_map[v]] == v
