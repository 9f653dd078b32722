"""Interval homology groups, induced and connecting maps, grids, barcodes."""

import hashlib
import importlib
import random

import pytest

from persax import (
    GF2,
    GF3,
    QQ,
    FilteredSet,
    Interval,
    HomologyGroup,
    Matrix,
    PreservingMap,
    VertexNotPresent,
    bars_alive,
    betti_grid,
    boundary_matrix,
    chain_space,
    coefficient_group,
    compose,
    connecting,
    critical_intervals,
    fin,
    h0_decomposition,
    homology,
    identity_map,
    image,
    induced_map,
    inclusion,
    is_star_shaped,
    kernel,
    pair_barcode,
    pair_of,
    point,
    point_class,
    reduced_homology,
    skeleton,
    standard_boundary,
    standard_simplex,
)
from persax.fuzz import random_composable_maps, random_map_to_cone, random_pair, random_pair_map
from persax.homology import NotRepresentableAtLowerEndpoint, _degrees
from persax.linalg import _move_rows, chain_map_matrix

from .oracles import brute_pair_dim, reference_chain_map
from .test_linalg import _typed, inclusion_as_matrix

TRIANGLE_RIM = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
)


class TestHomologyExamples:
    def test_point_dimensions(self):
        pt = point(1)
        assert homology(pt, 0, Interval(1, 3)).dim == 1
        assert homology(pt, 0, Interval(0, 3)).dim == 0
        assert homology(pt, 1, Interval(1, 3)).dim == 0

    def test_pair_with_itself_vanishes(self):
        pair = pair_of(TRIANGLE_RIM, TRIANGLE_RIM)
        for n in range(3):
            for iv in critical_intervals(pair):
                assert homology(pair, n, iv).dim == 0

    def test_triangle_rim_frozen_values(self):
        # frozen from the exhaustive GF(2) oracle
        assert homology(TRIANGLE_RIM, 1, Interval(1, 2)).dim == 1
        assert homology(TRIANGLE_RIM, 1, Interval(0, 1)).dim == 0
        assert homology(TRIANGLE_RIM, 0, Interval(0, 1)).dim == 1
        assert homology(TRIANGLE_RIM, 0, Interval(0, 0)).dim == 3

    def test_negative_degree_is_zero_without_computation(self):
        assert homology(TRIANGLE_RIM, -3, Interval(0, 1)).dim == 0

    def test_representatives_are_persisted_cycles(self):
        group = homology(TRIANGLE_RIM, 1, Interval(1, 2), GF3)
        from persax import boundary_matrix

        d = boundary_matrix(pair_of(TRIANGLE_RIM), 1, fin(2), GF3)
        for j in range(group.dim):
            rep = group.reps.column(j)
            assert all(v == 0 for v in d.apply(rep))
            assert group.cycles.basis.solve(rep) is not None

    def test_persisted_cycles_are_the_included_lower_cycles(self):
        master = random.Random(5)
        for _ in range(10):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for n in range(pair.total.dimension + 2):
                    lower = kernel(boundary_matrix(pair, n, iv.lo, GF3)).basis
                    included = image(inclusion_as_matrix(pair, n, iv, GF3) * lower)
                    assert homology(pair, n, iv, GF3).cycles == included


def test_dims_match_brute_force_oracle_on_fuzzed_pairs():
    master = random.Random(2024)
    checked = 0
    for _ in range(12):
        rng = random.Random(master.getrandbits(64))
        pair = random_pair(rng)
        for iv in critical_intervals(pair):
            for n in range(0, pair.total.dimension + 2):
                want = brute_pair_dim(pair, n, iv)
                assert homology(pair, n, iv).dim == want
                checked += 1
    assert checked > 100


def _group_by_reduction(pair, n, interval, field):
    """The group as the reduction builds it, with no shortcut for empty chains."""
    simplices = chain_space(pair, n, interval.hi)
    cycles = kernel(boundary_matrix(pair, n, interval.lo, field))
    moved = inclusion_as_matrix(pair, n, interval, field) * cycles.basis
    persisted = image(moved)
    bnd = image(boundary_matrix(pair, n + 1, interval.hi, field))
    return HomologyGroup(simplices, persisted, bnd,
                         persisted.complement_in(persisted.intersect(bnd)))


class TestGroupsWithNoChains:
    """A group with no upper-endpoint chains is the zero group the reduction gives."""

    @staticmethod
    def _assert_same_group(got, want):
        assert got == want
        for part in ("cycles", "boundaries"):
            a, b = getattr(got, part), getattr(want, part)
            assert (a.ambient, a.basis, a.pivots) == (b.ambient, b.basis, b.pivots)
        assert got.reps.shape == want.reps.shape == (0, 0)
        assert got.simplices == ()

    def test_above_the_top_degree(self):
        master = random.Random(61)
        for _ in range(20):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair)[:4]:
                for n in range(pair.total.dimension + 1, pair.total.dimension + 3):
                    for field in (GF2, GF3):
                        self._assert_same_group(homology(pair, n, iv, field),
                                                _group_by_reduction(pair, n, iv, field))

    def test_when_the_subset_absorbs_every_chain_by_the_upper_endpoint(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 2})
        a = FilteredSet({"a", "b"}, {("a",): 1, ("b",): 1})
        pair, iv = pair_of(x, a), Interval(0, 1)
        assert chain_space(pair, 0, iv.hi) == ()
        assert chain_space(pair, 0, iv.lo) == (("a",), ("b",))
        for field in (GF2, GF3):
            want = _group_by_reduction(pair, 0, iv, field)
            assert want.cycles.basis.shape == (0, 0)
            self._assert_same_group(homology(pair, 0, iv, field), want)


class TestGroupsMatchTheReduction:
    """Every group equals, bit for bit, the one the intersection builds.

    ``homology`` reads the representatives off one reduction of the
    boundaries beside the persisted cycles, and keeps the moved lower cycles
    as they are when no pivot simplex of theirs is absorbed;
    ``_group_by_reduction`` intersects and takes the complement.
    """

    @staticmethod
    def _assert_bit_identical(got, want):
        assert got.simplices == want.simplices
        for part in ("cycles", "boundaries"):
            a, b = getattr(got, part), getattr(want, part)
            assert (a.ambient, a.pivots, a.basis.shape) == (b.ambient, b.pivots, b.basis.shape)
            assert _typed(a.basis.rows) == _typed(b.basis.rows)
        assert got.reps.shape == want.reps.shape
        assert _typed(got.reps.rows) == _typed(want.reps.rows)

    def test_every_degree_and_critical_interval_of_forty_pairs(self):
        master = random.Random(83)
        moves = {True: 0, False: 0}  # by whether a pivot simplex was absorbed
        for _ in range(40):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for n in range(pair.total.dimension + 2):
                    lower = chain_space(pair, n, iv.lo)
                    upper = set(chain_space(pair, n, iv.hi))
                    for field in (GF2, GF3, QQ):
                        self._assert_bit_identical(homology(pair, n, iv, field),
                                                   _group_by_reduction(pair, n, iv, field))
                        pivots = kernel(boundary_matrix(pair, n, iv.lo, field)).pivots
                        if upper and pivots:
                            moves[any(lower[p] not in upper for p in pivots)] += 1
        assert moves[True] > 0 and moves[False] > 0


class TestInducedMaps:
    def test_identity_induces_identity(self):
        pair = pair_of(TRIANGLE_RIM)
        for n in (0, 1):
            assert induced_map(identity_map(pair), n, Interval(1, 2)).is_identity()

    def test_vertex_into_star_shaped_set_is_iso_in_degree_zero(self):
        solid = standard_simplex(2, 0)
        iv = Interval(0, 1)
        assert is_star_shaped(solid, "v0", iv)
        vertex = FilteredSet({"v0"}, {("v0",): 0})
        inc = inclusion(pair_of(vertex), pair_of(solid))
        for n in range(3):
            lm = induced_map(inc, n, iv)
            assert lm.is_isomorphism()

    def test_functoriality_on_concrete_composable_maps(self):
        x = TRIANGLE_RIM
        rot = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "c", "c": "a"})
        swap = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "a", "c": "c"})
        for fld in (GF2, GF3):
            for n in (0, 1):
                lhs = induced_map(compose(rot, swap), n, Interval(1, 2), fld)
                rhs = induced_map(rot, n, Interval(1, 2), fld).compose(
                    induced_map(swap, n, Interval(1, 2), fld))
                assert lhs.matrix == rhs.matrix

    def test_map_well_defined_under_regauged_representatives(self):
        # replacing reps by boundary-shifted invertible combinations must
        # change matrices by exactly the change of basis
        from persax.homology import HomologyGroup
        from persax.linalg import hstack

        pair = pair_of(TRIANGLE_RIM)
        iv = Interval(0, 1)
        group = homology(pair, 0, iv, GF3)
        assert group.dim == 1
        # twice the rep plus a boundary: [rep, boundary] times the column (2, 2)
        shifted = hstack(group.reps, Matrix.from_columns(
            GF3, [group.boundaries.basis.column(0)], len(group.simplices)))
        regauged = HomologyGroup(group.simplices, group.cycles, group.boundaries,
                                 shifted * Matrix(GF3, [[2], [2]]))
        f = identity_map(pair)
        push = chain_map_matrix(f, 0, iv.hi)
        cols = regauged.coords_of(_move_rows(group.reps, push, group.simplices)).columns
        # [rep] = 2^{-1} * [regauged rep]  =>  coords double back
        assert cols[0] == (2,)


class TestConnecting:
    def test_edge_pair_boundary_hits_vertex_difference(self):
        pair = pair_of(standard_simplex(1, 0, ("a", "b")),
                       standard_boundary(1, 0, ("a", "b")))
        for fld, want in ((GF2, (1, 1)), (GF3, (2, 1))):
            d = connecting(pair, 1, Interval(0, 1), fld)
            assert d.source.dim == 1
            assert d.matrix.column(0) == want  # [b] - [a] over reps (a, b)

    def test_star_shaped_subset_kills_the_connecting_map(self):
        x = standard_simplex(2, 0)
        a = FilteredSet({"v0", "v1"}, {("v0",): 0, ("v1",): 0, ("v0", "v1"): 0})
        pair = pair_of(x, a)
        iv = Interval(0, 1)
        assert is_star_shaped(a, "v0", iv)
        for n in (1, 2):
            assert connecting(pair, n, iv).matrix.is_zero()

    def test_empty_subset_gives_map_into_zero_group(self):
        d = connecting(pair_of(TRIANGLE_RIM), 1, Interval(1, 1))
        assert d.target.dim == 0
        assert d.matrix.shape == (0, 1)

    def test_a_subset_simplex_missing_from_the_total_is_caught(self, monkeypatch):
        module = importlib.import_module("persax.homology")
        pair = pair_of(standard_simplex(1, 0, ("a", "b")), standard_boundary(1, 0, ("a", "b")))
        x_abs, real = pair_of(pair.total), module.chain_space

        def dropping_a(p, n, eps):
            basis = real(p, n, eps)
            return basis[1:] if p == x_abs and n == 0 else basis

        monkeypatch.setattr(module, "chain_space", dropping_a)
        with pytest.raises(AssertionError) as info:
            connecting(pair, 1, Interval(0, 1), GF3)
        assert str(info.value) == "subset simplex missing from the ambient complex"

    def test_a_boundary_outside_the_subset_is_caught(self, monkeypatch):
        module = importlib.import_module("persax.homology")
        x = FilteredSet({"a", "b", "c"}, {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 0})
        pair = pair_of(x, FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0}))
        assert homology(pair, 1, Interval(0, 1), GF3).dim == 1
        monkeypatch.setattr(module, "_face_columns",
                            lambda basis: tuple(((("c",), 1),) for _ in basis))
        with pytest.raises(AssertionError) as info:
            connecting(pair, 1, Interval(0, 1), GF3)
        assert str(info.value) == "boundary of a relative cycle escaped the subset"


class TestChainMapsMatchTheDenseProducts:
    """The rows ``induced_map`` and ``connecting`` hand to ``coords_of`` are,
    entry for entry, the dense products: the reference chain map times the
    source representatives, and the total's boundary times the lifted
    representatives, restricted to the subset's chains."""

    @staticmethod
    def _handed(monkeypatch, build):
        """The one matrix ``build`` hands to ``HomologyGroup.coords_of``."""
        handed, real = [], HomologyGroup.coords_of
        with monkeypatch.context() as patch:
            patch.setattr(HomologyGroup, "coords_of",
                          lambda self, vectors: handed.append(vectors) or real(self, vectors))
            try:
                build()
            except NotRepresentableAtLowerEndpoint:
                pass  # the rows were handed over before the solve failed
        assert len(handed) == 1
        return handed[0]

    @staticmethod
    def _assert_same_entries(got, want):
        assert got.shape == want.shape
        assert repr(got.rows) == repr(want.rows)  # equal values of the same types

    def _check_induced(self, monkeypatch, f, n, iv, field):
        source = homology(f.domain, n, iv, field)
        target = homology(f.codomain, n, iv, field)
        dense = Matrix(field, reference_chain_map(f.vertex_map, source.simplices, target.simplices),
                       len(target.simplices), len(source.simplices))
        want = dense * source.reps
        self._assert_same_entries(self._handed(monkeypatch, lambda: induced_map(f, n, iv, field)), want)
        return not want.is_zero()

    def _check_connecting(self, monkeypatch, pair, n, iv, field):
        source = homology(pair, n, iv, field)
        x_abs = pair_of(pair.total)
        upper = chain_space(x_abs, n, iv.hi)
        reps = dict(zip(source.simplices, source.reps.rows))
        absent = (field.zero,) * source.dim
        lift = Matrix(field, [reps.get(sk, absent) for sk in upper], len(upper), source.dim)
        dchains = dict(zip(chain_space(x_abs, n - 1, iv.hi),
                           (boundary_matrix(x_abs, n, iv.hi, field) * lift).rows))
        sub = chain_space(pair_of(pair.sub), n - 1, iv.hi)
        want = Matrix(field, [dchains[sk] for sk in sub], len(sub), source.dim)
        self._assert_same_entries(self._handed(monkeypatch, lambda: connecting(pair, n, iv, field)), want)
        return not want.is_zero()

    def test_on_seeded_maps_over_three_fields(self, monkeypatch):
        maps = []
        for i in range(12):
            rng = random.Random(i)
            maps.append(random_pair_map(rng))
            maps.append(random_map_to_cone(rng, random_pair(rng)))
            maps.extend(random_composable_maps(rng))
        nonzero = {"f*": 0, "d": 0}
        for f in maps:
            for field in (GF2, GF3, QQ):
                for iv in critical_intervals(f.domain) or (Interval(0, 0),):
                    for n in _degrees(f.domain.total, f.codomain.total):
                        nonzero["f*"] += self._check_induced(monkeypatch, f, n, iv, field)
                # a skeleton subset gives connecting maps with nonzero sources
                x = f.domain.total
                for pair in (f.domain, f.codomain, pair_of(x, skeleton(x, 0))):
                    for iv in critical_intervals(pair) or (Interval(0, 0),):
                        for n in _degrees(pair.total, start=1):
                            nonzero["d"] += self._check_connecting(monkeypatch, pair, n, iv, field)
        assert nonzero["f*"] >= 100 and nonzero["d"] >= 200

    def test_a_fold_sums_two_edges_with_opposite_signs(self, monkeypatch):
        path = FilteredSet({"a", "b", "c"}, {("a",): 0, ("b",): 0, ("c",): 0,
                                             ("a", "b"): 0, ("b", "c"): 0})
        edge = standard_simplex(1, 0, ("x", "y"))
        fold = PreservingMap(pair_of(path), pair_of(edge), {"a": "x", "b": "y", "c": "x"})
        columns = chain_map_matrix(fold, 1, fin(0))
        assert columns == (((("x", "y"), 1),), ((("x", "y"), -1),))  # ab, then bc
        moved = _move_rows(Matrix.identity(GF3, 2), columns, chain_space(pair_of(edge), 1, fin(0)))
        assert moved.rows == ((1, 2),)
        assert moved == Matrix(GF3, reference_chain_map(fold.vertex_map, [("a", "b"), ("b", "c")],
                                                        [("x", "y")]))
        for field in (GF2, GF3, QQ):
            for n in (0, 1, 2):
                self._check_induced(monkeypatch, fold, n, Interval(0, 0), field)


class TestReduced:
    def test_point_has_no_reduced_homology(self):
        assert reduced_homology(point(0), 0, Interval(0, 2)).dim == 0

    def test_two_points_have_one_reduced_class(self):
        two = standard_boundary(1, 0, ("a", "b"))
        assert reduced_homology(two, 0, Interval(0, 1)).dim == 1
        assert homology(two, 0, Interval(0, 1)).dim == 2

    def test_equals_unreduced_in_positive_degrees(self):
        for n in (1, 2):
            for iv in critical_intervals(TRIANGLE_RIM):
                assert (reduced_homology(TRIANGLE_RIM, n, iv).dim
                        == homology(TRIANGLE_RIM, n, iv).dim)

    def test_empty_set_yields_zero_group(self):
        from persax import skeleton

        empty = skeleton(point(0), -1)
        assert reduced_homology(empty, 0, Interval(0, 1)).dim == 0


class TestPointClasses:
    def test_generator_of_the_point_group(self):
        cg = coefficient_group(Interval(1, 2), 1)
        assert cg.dim == 1
        assert coefficient_group(Interval(0, 2), 1).dim == 0
        # the class of the point itself is the group's basis vector
        assert point_class(1, "p", point(1), Interval(1, 2)) == (1,)

    def test_zero_scalar_gives_zero_class(self):
        assert point_class(0, "a", TRIANGLE_RIM, Interval(0, 1)) == (0,)

    def test_late_vertex_rejected(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 2})
        with pytest.raises(VertexNotPresent):
            point_class(1, "b", x, Interval(0, 1))

    def test_components_give_independent_classes(self):
        two = standard_boundary(1, 0, ("a", "b"))
        iv = Interval(0, 1)
        pa = point_class(1, "a", two, iv)
        pb = point_class(1, "b", two, iv)
        joint = Matrix.from_columns(GF2, [pa, pb], 2)
        assert image(joint).dim == 2

    def test_h0_splits_off_the_vertex_line(self):
        three = FilteredSet({"a", "b", "c"}, {("a",): 0, ("b",): 0, ("c",): 0})
        assert h0_decomposition(three, "a", Interval(0, 1)) == (2, 1)
        assert h0_decomposition(point(0), "p", Interval(0, 1)) == (0, 1)
        one_component = standard_simplex(2, 0)
        assert h0_decomposition(one_component, "v1", Interval(0, 1)) == (0, 1)


class TestDefensiveChecks:
    """The checks of h0_decomposition and coefficient_group, and connecting's
    lower-endpoint check, reached through a patched dependency."""

    TWO = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})

    def test_a_vertex_class_inside_the_reduced_part_is_caught(self, monkeypatch):
        module = importlib.import_module("persax.homology")
        iv = Interval(0, 1)
        group = homology(self.TWO, 0, iv, GF3)
        inside = group.coords_of(reduced_homology(self.TWO, 0, iv, GF3).reps).column(0)
        monkeypatch.setattr(module, "point_class", lambda *args: inside)
        with pytest.raises(AssertionError) as info:
            h0_decomposition(self.TWO, "a", iv, GF3)
        assert str(info.value) == "vertex class meets the reduced part"

    def test_a_reduced_part_too_small_is_caught(self, monkeypatch):
        module = importlib.import_module("persax.homology")
        real = module.reduced_homology

        def no_reduced_classes(x, n, interval, field):
            group = real(x, n, interval, field)
            return group._replace(reps=Matrix.zero(field, group.reps.nrows, 0))

        monkeypatch.setattr(module, "reduced_homology", no_reduced_classes)
        with pytest.raises(AssertionError) as info:
            h0_decomposition(self.TWO, "a", Interval(0, 1), GF3)
        assert str(info.value) == "degree-0 homology does not split as expected"

    def test_a_point_group_of_the_wrong_dimension_is_caught(self, monkeypatch):
        module = importlib.import_module("persax.homology")
        monkeypatch.setattr(module, "homology",
                            lambda pair, n, interval, field: module._zero_group(field))
        with pytest.raises(AssertionError) as info:
            coefficient_group(Interval(1, 2), 1, GF3)
        assert str(info.value) == "one-point group has unexpected dimension"

    def test_a_boundary_class_missing_at_the_lower_endpoint_is_caught(self, monkeypatch):
        # (edge, its two ends): the boundary of the edge class is [b] - [a]
        module = importlib.import_module("persax.homology")
        pair = pair_of(standard_simplex(1, 0, ("a", "b")), standard_boundary(1, 0, ("a", "b")))
        real, ends = module.homology, pair_of(pair.sub)

        def ends_without_classes(p, n, interval, field):
            group = real(p, n, interval, field)
            if p == ends:
                return group._replace(reps=Matrix.zero(field, group.reps.nrows, 0))
            return group

        monkeypatch.setattr(module, "homology", ends_without_classes)
        with pytest.raises(NotRepresentableAtLowerEndpoint) as info:
            connecting(pair, 1, Interval(0, 1), GF3)
        assert str(info.value) == "degree 1 boundary class has no lower-endpoint representative"


class TestBettiGrid:
    def test_triangle_rim_degree_one_grid(self):
        grid = betti_grid(TRIANGLE_RIM, 1)
        assert grid.values == (fin(0), fin(1))
        assert grid.value(0, 0) == 0
        assert grid.value(0, 1) == 0
        assert grid.value(1, 1) == 1

    def test_beyond_top_dimension_all_zero(self):
        grid = betti_grid(TRIANGLE_RIM, 4)
        assert all(v == 0 for row in grid.entries for v in row if v is not None)

    def test_diagonal_matches_classical_betti_numbers(self):
        # brute-force classical homology of each sublevel complex
        from .oracles import brute_interval_dim, values_of

        vals = values_of(TRIANGLE_RIM)
        for n in (0, 1):
            grid = betti_grid(TRIANGLE_RIM, n)
            for i, eps in enumerate(grid.values):
                want = brute_interval_dim(vals, {}, n, eps.finite, eps.finite)
                assert grid.value(i, i) == want

    def test_entries_bounded_by_endpoint_diagonals(self):
        master = random.Random(11)
        for _ in range(8):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for n in range(0, pair.total.dimension + 2):
                grid = betti_grid(pair, n)
                k = len(grid.values)
                for i in range(k):
                    for j in range(i, k):
                        assert grid.value(i, j) <= min(grid.value(i, i), grid.value(j, j))

    def test_entries_match_barcode_counts(self):
        master = random.Random(13)
        for _ in range(8):
            pair = random_pair(random.Random(master.getrandbits(64)))
            bars = pair_barcode(pair)
            for n in range(0, pair.total.dimension + 2):
                grid = betti_grid(pair, n)
                for i, lo in enumerate(grid.values):
                    for j in range(i, len(grid.values)):
                        iv = Interval(lo, grid.values[j])
                        assert grid.value(i, j) == bars_alive(bars, n, iv)


def test_direct_and_barcode_paths_agree_on_larger_instances():
    # seven-vertex pools with deeper simplices stress both pipelines
    master = random.Random(307)
    pool = ("a", "b", "c", "d", "e", "f", "g")
    cells = 0
    from persax.fuzz import random_filtration, random_subset_of

    for _ in range(12):
        rng = random.Random(master.getrandbits(64))
        x = random_filtration(rng, pool=pool, max_simplices=20, max_span=5)
        pair = pair_of(x, random_subset_of(rng, x))
        bars = pair_barcode(pair)
        for iv in critical_intervals(pair):
            for n in range(0, pair.total.dimension + 2):
                assert homology(pair, n, iv).dim == bars_alive(bars, n, iv)
                cells += 1
    assert cells > 150


def test_h0_decomposition_across_the_corpus():
    master = random.Random(311)
    checked = 0
    for _ in range(10):
        rng = random.Random(master.getrandbits(64))
        x = random_pair(rng).total
        for iv in critical_intervals(x):
            alive = [v for v, in (sk for sk, val in x.entries
                                  if len(sk) == 1 and val <= iv.lo)]
            if not alive:
                continue
            vertex = alive[0]
            reduced_dim, line = h0_decomposition(x, vertex, iv)
            assert line == 1
            assert reduced_dim == homology(x, 0, iv).dim - 1
            checked += 1
    assert checked > 10


def test_growing_the_interval_never_grows_the_group():
    master = random.Random(17)
    for _ in range(8):
        pair = random_pair(random.Random(master.getrandbits(64)))
        vals = critical_intervals(pair)
        for small in vals:
            for big in vals:
                if big.lo <= small.lo and small.hi <= big.hi:
                    for n in range(0, pair.total.dimension + 2):
                        assert (homology(pair, n, big).dim
                                <= homology(pair, n, small).dim)


def test_reduced_dimension_drops_by_presence_of_the_complex():
    from persax import complex_at

    master = random.Random(19)
    for _ in range(8):
        rng = random.Random(master.getrandbits(64))
        x = random_pair(rng).total
        for iv in critical_intervals(x):
            occupied = 1 if complex_at(x, iv.lo) else 0
            assert (reduced_homology(x, 0, iv).dim
                    == homology(x, 0, iv).dim - occupied)


class TestBarcode:
    def test_triangle_rim_bars(self):
        from persax import INF, Bar, barcode

        bars = barcode(TRIANGLE_RIM)
        assert Bar(1, fin(1), INF) in bars
        deg0 = [b for b in bars if b.degree == 0]
        assert len([b for b in deg0 if b.death == INF]) == 1
        assert len(deg0) == 3

    def test_pair_barcode_handles_growing_subset(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        a = FilteredSet({"a", "b"}, {("a",): 1, ("b",): 1})
        pair = pair_of(x, a)
        bars = pair_barcode(pair)
        for iv in critical_intervals(pair):
            for n in (0, 1):
                assert bars_alive(bars, n, iv) == homology(pair, n, iv).dim

    def test_empty_support_has_no_bars(self):
        from persax import skeleton, barcode

        assert barcode(skeleton(point(0), -1)) == ()


def _dump(build) -> str:
    """What a call returns, or the type and message of what it raised."""
    try:
        return str(build())
    except Exception as exc:
        return f"raise\t{type(exc).__name__}\t{exc}"


def _some_intervals(rng, obj, k=3):
    ivs = critical_intervals(obj) or (Interval(0, 0),)
    return [ivs[j] for j in sorted(rng.sample(range(len(ivs)), min(k, len(ivs))))]


class TestPinnedCoordinateMaps:
    # sha256 of the dump below, recorded from the per-column coordinate solves
    DIGEST = "eeaebcc5dfa5398e64a3934e12aa9108012917f88fa6aa56bb763b1e78e8e246"

    def test_maps_read_off_in_group_bases_match_the_pinned_dump(self):
        from persax import direct_to_skeletal, skeleton
        from persax.fuzz import random_pair_map

        lines = []
        for i in range(30):
            rng = random.Random(i)
            field = (GF2, GF3)[i % 2]
            pair = random_pair(rng)
            f = random_pair_map(rng)
            for iv in _some_intervals(rng, f.domain):
                for n in range(f.domain.total.dimension + 2):
                    lines.append(f"f* {n} {iv}\t"
                                 + _dump(lambda: induced_map(f, n, iv, field).matrix.rows))
            x = pair.total
            # a skeleton subset gives connecting maps with nonzero sources
            for p in (pair, pair_of(x, skeleton(x, rng.randint(0, 1)))):
                for iv in _some_intervals(rng, p):
                    for q in range(x.dimension + 2):
                        lines.append(f"iso {q} {iv}\t"
                                     + _dump(lambda: direct_to_skeletal(p, q, iv, field).matrix.rows))
                        if q > 0:
                            lines.append(f"d {q} {iv}\t"
                                         + _dump(lambda: connecting(p, q, iv, field).matrix.rows))
                    v = rng.choice(sorted(x.vertices))
                    lines.append(f"h0 {v} {iv}\t" + _dump(lambda: h0_decomposition(x, v, iv, field)))
        text = "\n".join(lines)
        assert "raise\tOracleMismatch" in text and "raise\tVertexNotPresent" in text
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
