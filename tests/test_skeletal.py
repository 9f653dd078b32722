"""The skeleton-based chain theory: generators, boundary, homology, and the
explicit comparison with the direct construction.

The comparison isomorphism and the short exact sequence of chain groups are
asserted on degenerate intervals and single-birth instances, where they
provably hold; the pinned counterexample documents the mixed-absorption
failure of both, matching the direct construction's own exactness boundary.
"""

import dataclasses
import hashlib
import importlib
import random
import sys

import pytest

from persax import (
    GF2,
    GF3,
    FilteredSet,
    Interval,
    Matrix,
    OracleMismatch,
    PreservingMap,
    UnknownVertex,
    critical_intervals,
    critical_values,
    homology,
    inclusion,
    induced_map,
    kernel,
    image,
    pair_of,
    point,
    preimage,
    skeletal_boundary,
    skeletal_chain_group,
    skeletal_homology,
    skeletal_pair,
    standard_boundary,
    standard_simplex,
)
from persax.skeletal import _skeleton, direct_to_skeletal, generator, incidence_iso
from persax.fuzz import random_pair
from persax.homology import LinearMap, _degrees

RIM_AT_ZERO = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 0, ("a", "c"): 0, ("b", "c"): 0},
)

TRIANGLE_RIM = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
)


class TestChainGroups:
    def test_negative_degree_vanishes(self):
        cg = skeletal_chain_group(pair_of(TRIANGLE_RIM), -1, Interval(0, 1))
        assert cg.dim == 0

    def test_rim_at_zero_has_three_edge_generators(self):
        cg = skeletal_chain_group(pair_of(RIM_AT_ZERO), 1, Interval(0, 1))
        assert cg.generators == (("a", "b"), ("a", "c"), ("b", "c"))

    def test_everything_inside_subset_vanishes(self):
        pair = pair_of(RIM_AT_ZERO, RIM_AT_ZERO)
        for q in range(0, 3):
            assert skeletal_chain_group(pair, q, Interval(0, 1)).dim == 0

    def test_degrees_above_the_top_simplex_build_no_skeleton(self):
        # a solid triangle and a lone vertex: dimension 2 on four vertices
        values = {sk: 0 for sk in standard_simplex(2, 0, ("p", "q", "r")).support}
        pair = pair_of(FilteredSet({"p", "q", "r", "s"}, {**values, ("s",): 0}))
        built = _skeleton.cache_info().currsize
        for q in (3, 4, 5):
            cg = skeletal_chain_group(pair, q, Interval(0, 1), GF3)
            assert cg.generators == () and cg.group.dim == 0
        assert _skeleton.cache_info().currsize == built

    def test_generator_count_matches_group_dimension(self):
        master = random.Random(101)
        for _ in range(10):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for q in range(0, pair.total.dimension + 2):
                    cg = skeletal_chain_group(pair, q, iv)
                    assert cg.dim == cg.group.dim == len(cg.generators)

    def test_representatives_off_the_generators_are_a_broken_oracle(self, monkeypatch):
        # the memo would answer an earlier call: run the construction itself
        from persax import skeletal

        real = skeletal.homology

        def reversed_reps(pair, q, interval, field):
            group = real(pair, q, interval, field)
            return dataclasses.replace(group, reps=Matrix.from_columns(
                field, group.reps.columns[::-1], group.reps.nrows))

        monkeypatch.setattr(skeletal, "homology", reversed_reps)
        with pytest.raises(OracleMismatch) as info:
            skeletal_chain_group.__wrapped__(pair_of(RIM_AT_ZERO), 1, Interval(0, 1), GF2)
        assert str(info.value) == "chain group representatives are not the generator simplices"


class TestGenerators:
    def test_sorted_sequence_is_the_unit_vector(self):
        pair = pair_of(RIM_AT_ZERO)
        vec = generator(1, ("a", "b"), pair, Interval(0, 1), GF3)
        assert vec == (1, 0, 0)

    def test_odd_permutation_negates_and_even_fixes(self):
        pair = pair_of(RIM_AT_ZERO)
        iv = Interval(0, 1)
        assert generator(1, ("b", "a"), pair, iv, GF3) == (2, 0, 0)
        assert generator(1, ("b", "a"), pair, iv, GF2) == (1, 0, 0)
        solid = pair_of(standard_simplex(2, 0, ("a", "b", "c")))
        assert generator(1, ("a", "b", "c"), solid, iv, GF3) == (1,)
        assert generator(1, ("b", "c", "a"), solid, iv, GF3) == (1,)  # even
        assert generator(1, ("b", "a", "c"), solid, iv, GF3) == (2,)  # odd

    def test_repeated_vertex_gives_zero(self):
        solid = pair_of(standard_simplex(2, 0, ("a", "b", "c")))
        assert generator(1, ("a", "a", "b"), solid, Interval(0, 1), GF3) == (0,)
        assert generator(1, ("a", "a"), solid, Interval(0, 1), GF3) == (0, 0, 0)
        # four entries name a degree above the solid triangle, which has no chains there
        assert generator(1, ("a", "a", "b", "c"), solid, Interval(0, 1), GF3) == ()
        assert generator(1, ("c", "b", "a", "a", "b"), solid, Interval(0, 1), GF2) == ()

    def test_sequence_inside_subset_gives_zero(self):
        sub = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 0})
        pair = pair_of(RIM_AT_ZERO, sub)
        vec = generator(1, ("a", "b"), pair, Interval(0, 1), GF3)
        assert all(v == 0 for v in vec)

    def test_additive_in_the_scalar(self):
        pair = pair_of(RIM_AT_ZERO)
        iv = Interval(0, 1)
        one = generator(1, ("a", "c"), pair, iv, GF3)
        two = generator(2, ("a", "c"), pair, iv, GF3)
        assert tuple(GF3.add(a, a) for a in one) == two

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            generator(1, ("a", "q"), pair_of(RIM_AT_ZERO), Interval(0, 1))

    def test_unborn_simplex_gives_zero(self):
        pair = pair_of(TRIANGLE_RIM)
        assert generator(1, ("a", "b"), pair, Interval(0, 0), GF2) == ()


class TestSkeletalBoundary:
    def test_edge_maps_to_vertex_difference(self):
        pair = pair_of(RIM_AT_ZERO)
        iv = Interval(0, 1)
        d1 = skeletal_boundary(pair, 1, iv, GF3)
        # column of edge (a, b) over vertex generators (a, b, c)
        assert d1.column(0) == (2, 1, 0)

    def test_closed_face_formula(self):
        master = random.Random(103)
        for _ in range(8):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for q in range(1, pair.total.dimension + 1):
                    cg = skeletal_chain_group(pair, q, iv, GF3)
                    d = skeletal_boundary(pair, q, iv, GF3)
                    for j, sk in enumerate(cg.generators):
                        total = (0,) * d.nrows
                        sign = 1
                        for k in range(len(sk)):
                            face = sk[:k] + sk[k + 1 :]
                            term = generator(sign, face, pair, iv, GF3)
                            total = tuple(GF3.add(a, b) for a, b in zip(total, term))
                            sign = GF3.neg(sign)
                        assert d.column(j) == total

    def test_boundary_squares_to_zero(self):
        master = random.Random(107)
        for _ in range(8):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for q in range(1, pair.total.dimension + 2):
                    dq = skeletal_boundary(pair, q, iv, GF3)
                    dq1 = skeletal_boundary(pair, q + 1, iv, GF3)
                    assert (dq * dq1).is_zero()

    def test_natural_under_chain_maps(self):
        solid = standard_simplex(2, 0, ("a", "b", "c"))
        target = standard_simplex(2, 0, ("x", "y", "z"))
        f = PreservingMap(pair_of(solid), pair_of(target), {"a": "y", "b": "x", "c": "z"})
        iv = Interval(0, 1)
        for q in (1, 2):
            dom_q = skeletal_chain_group(pair_of(solid), q, iv, GF3).group
            # chain maps between the skeleton pairs, in generator coordinates
            fq = induced_map(
                PreservingMap(skeletal_pair(pair_of(solid), q),
                              skeletal_pair(pair_of(target), q), f.vertex_map), q, iv, GF3)
            fq1 = induced_map(
                PreservingMap(skeletal_pair(pair_of(solid), q - 1),
                              skeletal_pair(pair_of(target), q - 1), f.vertex_map), q - 1, iv, GF3)
            left = fq1.matrix * skeletal_boundary(pair_of(solid), q, iv, GF3)
            right = skeletal_boundary(pair_of(target), q, iv, GF3) * fq.matrix
            assert left == right

    def test_chain_map_formula_on_generators(self):
        solid = standard_simplex(2, 0, ("a", "b", "c"))
        target = standard_simplex(2, 0, ("x", "y", "z"))
        vm = {"a": "z", "b": "x", "c": "x"}
        iv = Interval(0, 1)
        for q in (1, 2):
            fq = induced_map(
                PreservingMap(skeletal_pair(pair_of(solid), q),
                              skeletal_pair(pair_of(target), q), vm), q, iv, GF3)
            cg = skeletal_chain_group(pair_of(solid), q, iv, GF3)
            for j, sk in enumerate(cg.generators):
                pushed = fq.matrix.column(j)
                direct = generator(1, tuple(vm[v] for v in sk),
                                   pair_of(target), iv, GF3)
                assert pushed == direct


class TestUniqueDecomposition:
    def test_coordinates_solve_identically_under_permuted_bases(self):
        pair = pair_of(RIM_AT_ZERO)
        iv = Interval(0, 1)
        cg = skeletal_chain_group(pair, 1, iv, GF3)
        cols = [generator(1, sk, pair, iv, GF3) for sk in cg.generators]
        target = (1, 2, 0)
        m = Matrix.from_columns(GF3, cols, cg.dim)
        sol1 = m.solve(target)
        perm = [2, 0, 1]
        m2 = Matrix.from_columns(GF3, [cols[i] for i in perm], cg.dim)
        sol2 = m2.solve(target)
        assert sol1 is not None and sol2 is not None
        assert tuple(sol2[perm.index(i)] for i in range(3)) == sol1


class TestPreimageGroups:
    def test_preimage_cycle_and_boundary_identities_at_equal_endpoints(self):
        # j-preimages of cycles are boundary preimages of the subset's chains
        master = random.Random(109)
        for _ in range(8):
            rng = random.Random(master.getrandbits(64))
            pair = random_pair(rng)
            if not pair.sub.vertices:
                continue
            for c in critical_values(pair):
                iv = Interval(c, c)
                for q in range(0, pair.total.dimension + 1):
                    x_abs = pair_of(pair.total)
                    a_abs = pair_of(pair.sub)
                    jq = induced_map(
                        inclusion(skeletal_pair(x_abs, q), skeletal_pair(pair, q)),
                        q, iv, GF2)
                    iq = induced_map(
                        inclusion(skeletal_pair(a_abs, q), skeletal_pair(x_abs, q)),
                        q, iv, GF2)
                    iq1 = induced_map(
                        inclusion(skeletal_pair(a_abs, q - 1), skeletal_pair(x_abs, q - 1)),
                        q - 1, iv, GF2)
                    dq_rel = skeletal_boundary(pair, q, iv, GF2)
                    dq_abs = skeletal_boundary(x_abs, q, iv, GF2)
                    dq1_abs = skeletal_boundary(x_abs, q + 1, iv, GF2)
                    preimage_cycles = preimage(jq.matrix, kernel(dq_rel))
                    assert preimage_cycles == preimage(dq_abs, image(iq1.matrix))
                    preimage_boundaries = preimage(jq.matrix, image(skeletal_boundary(pair, q + 1, iv, GF2)))
                    assert preimage_boundaries == image(dq1_abs).sum(image(iq.matrix))


class TestShortExactSequenceOfChains:
    def test_holds_at_equal_endpoints(self):
        master = random.Random(113)
        for _ in range(10):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for c in critical_values(pair):
                iv = Interval(c, c)
                for q in range(0, pair.total.dimension + 1):
                    x_abs, a_abs = pair_of(pair.total), pair_of(pair.sub)
                    iq = induced_map(
                        inclusion(skeletal_pair(a_abs, q), skeletal_pair(x_abs, q)),
                        q, iv, GF2)
                    jq = induced_map(
                        inclusion(skeletal_pair(x_abs, q), skeletal_pair(pair, q)),
                        q, iv, GF2)
                    assert iq.matrix.rank() == iq.matrix.ncols  # injective
                    assert jq.matrix.rank() == jq.matrix.nrows  # surjective
                    assert kernel(jq.matrix) == image(iq.matrix)

    def test_pinned_mixed_absorption_failure(self):
        # a simplex present at eps but absorbed inside the interval lies in
        # ker(j) without being an image from the subset's chains
        x = FilteredSet({"a"}, {("a",): 0})
        a = FilteredSet({"a"}, {("a",): 1})
        pair = pair_of(x, a)
        iv = Interval(0, 1)
        x_abs, a_abs = pair_of(x), pair_of(a)
        iq = induced_map(inclusion(skeletal_pair(a_abs, 0), skeletal_pair(x_abs, 0)),
                         0, iv, GF2)
        jq = induced_map(inclusion(skeletal_pair(x_abs, 0), skeletal_pair(pair, 0)),
                         0, iv, GF2)
        assert kernel(jq.matrix) != image(iq.matrix)


class TestVanishingOffDegree:
    def test_skeleton_pairs_concentrate_in_their_degree(self):
        master = random.Random(127)
        for _ in range(10):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                for q in range(0, pair.total.dimension + 2):
                    sp = skeletal_pair(pair, q)
                    for p in range(0, pair.total.dimension + 2):
                        if p != q:
                            assert homology(sp, p, iv).dim == 0


class TestSkeletalHomology:
    def test_negative_degree_vanishes(self):
        assert skeletal_homology(pair_of(TRIANGLE_RIM), -1, Interval(0, 1)).dim == 0

    def test_a_non_differential_boundary_is_a_broken_oracle(self, monkeypatch):
        # d_1 d_2 = 1 on one generator: the boundary image holds no cycle
        from persax import skeletal

        monkeypatch.setattr(skeletal, "skeletal_boundary",
                            lambda pair, q, interval, field: Matrix.identity(field, 1))
        with pytest.raises(OracleMismatch) as info:
            skeletal_homology(pair_of(TRIANGLE_RIM), 1, Interval(0, 1), GF2)
        assert str(info.value) == "boundary image is not made of cycles"

    def test_triangle_rim_matches_direct_theory(self):
        pair = pair_of(TRIANGLE_RIM)
        iv = Interval(1, 2)
        assert skeletal_homology(pair, 1, iv).dim == 1
        assert skeletal_homology(pair, 1, iv).dim == homology(pair, 1, iv).dim

    def test_simplex_pairs_concentrate_in_top_degree(self):
        for q in (1, 2, 3):
            pair = pair_of(standard_simplex(q, 0), standard_boundary(q, 0))
            iv = Interval(0, 1)
            for p in range(0, q + 2):
                want = 1 if p == q else 0
                assert skeletal_homology(pair, p, iv).dim == want


class TestComparisonIsomorphism:
    def test_zero_groups_give_empty_matrix(self):
        pair = pair_of(point(0), point(0))
        lm = direct_to_skeletal(pair, 1, Interval(0, 0))
        assert lm.matrix.shape == (0, 0)

    def test_simplex_pair_is_one_by_one_invertible(self):
        pair = pair_of(standard_simplex(2, 0), standard_boundary(2, 0))
        lm = direct_to_skeletal(pair, 2, Interval(0, 1), GF3)
        assert lm.matrix.shape == (1, 1)
        assert lm.is_isomorphism()

    def test_invertible_on_degenerate_intervals_for_fuzzed_pairs(self):
        master = random.Random(131)
        count = 0
        for _ in range(20):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for c in critical_values(pair):
                iv = Interval(c, c)
                for q in range(0, pair.total.dimension + 2):
                    lm = direct_to_skeletal(pair, q, iv)
                    assert lm.matrix.is_invertible()
                    count += 1
        assert count > 50

    def test_pinned_interior_death_breaks_the_comparison(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        pair = pair_of(x)
        iv = Interval(0, 1)
        assert homology(pair, 0, iv).dim == 1
        assert skeletal_homology(pair, 0, iv).dim == 2
        # unequal dimensions make the comparison matrix non-square
        with pytest.raises(OracleMismatch) as info:
            direct_to_skeletal(pair, 0, iv)
        assert str(info.value) == "direct/skeletal comparison failed in degree 0: 1 vs 2"

    @staticmethod
    def _patch_induced(monkeypatch, inclusion_map, matrix_of):
        """Make ``induced_map`` of one inclusion return ``matrix_of`` its real matrix."""
        from persax import skeletal

        real = skeletal.induced_map

        def patched(f, n, interval, field):
            lm = real(f, n, interval, field)
            if f is not inclusion_map:
                return lm
            return LinearMap(lm.source, lm.target, matrix_of(lm.matrix), lm.label)

        monkeypatch.setattr(skeletal, "induced_map", patched)

    def test_a_lift_that_misses_a_direct_class_is_a_broken_oracle(self, monkeypatch):
        pair = pair_of(TRIANGLE_RIM)
        self._patch_induced(monkeypatch, _skeleton(pair, 1).to_direct,
                            lambda m: Matrix.zero(m.field, m.nrows, m.ncols))
        with pytest.raises(OracleMismatch) as info:
            direct_to_skeletal(pair, 1, Interval(1, 2))
        assert str(info.value) == "skeleton inclusion fails to reach a direct class"

    def test_a_class_off_the_skeletal_cycles_is_a_broken_oracle(self, monkeypatch):
        # one edge of the rim in place of its cycle: coords_of finds no class
        pair = pair_of(TRIANGLE_RIM)

        def one_edge(m):
            return Matrix.from_columns(m.field, [(1,) + (0,) * (m.nrows - 1)] * m.ncols, m.nrows)

        self._patch_induced(monkeypatch, _skeleton(pair, 1).to_chains, one_edge)
        assert skeletal_chain_group(pair, 1, Interval(1, 2)).dim == 3
        with pytest.raises(OracleMismatch) as info:
            direct_to_skeletal(pair, 1, Interval(1, 2))
        assert str(info.value) == "vector's class lies outside the skeletal homology"

    def test_inclusions_are_validated_once_per_skeleton_pair(self, monkeypatch):
        # the inclusions between skeleton pairs do not depend on the interval,
        # so covering more intervals must not validate more maps
        from persax import filtration, skeletal

        x = FilteredSet({"a", "b", "c"}, {("a",): 0, ("b",): 0, ("c",): 1,
                                          ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 2})
        pair = pair_of(x, FilteredSet({"a"}, {("a",): 0}))
        real = filtration.PreservingMap.__init__

        def count_validations(intervals):
            for value in vars(skeletal).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            calls = []
            monkeypatch.setattr(filtration.PreservingMap, "__init__",
                                lambda *args: calls.append(args) or real(*args))
            for iv in intervals:
                for q in range(0, x.dimension + 2):
                    try:
                        direct_to_skeletal(pair, q, iv, GF3)
                    except OracleMismatch:
                        pass  # interior deaths break the comparison, not its inputs
            monkeypatch.setattr(filtration.PreservingMap, "__init__", real)
            return len(calls)

        intervals = critical_intervals(pair)
        assert len(intervals) == 6
        once = count_validations(intervals[:1])
        assert once > 0
        assert count_validations(intervals) == once

    def test_forty_pairs_compare_within_the_product_budget(self, monkeypatch):
        # chain maps move rows, so induced_map and connecting take no product:
        # these 582 cells take 872 products, against 2,298 when each map was a
        # dense product with a dense chain-map matrix.  The memos start empty.
        for name, module in list(sys.modules.items()):
            if name.startswith("persax."):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()
        homology_module = importlib.import_module("persax.homology")
        maps = {homology_module.induced_map.__code__, homology_module.connecting.__code__}
        calls, in_maps = [], []
        real = Matrix.__mul__

        def counted(self, other):
            calls.append(1)
            if sys._getframe(1).f_code in maps:
                in_maps.append(sys._getframe(1).f_code.co_name)
            return real(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        cells = 0
        for i in range(40):
            pair = random_pair(random.Random(i))
            for iv in critical_intervals(pair) or (Interval(0, 0),):
                for q in _degrees(pair.total):
                    cells += 1
                    try:
                        direct_to_skeletal(pair, q, iv, GF3)
                    except OracleMismatch:
                        pass  # interior deaths break the comparison, not its inputs
        monkeypatch.undo()
        assert cells == 582
        assert in_maps == []
        assert len(calls) <= 1_000


class TestIncidence:
    def test_degree_one_sends_edge_class_to_vertex_class(self):
        lm = incidence_iso(1, 0, Interval(0, 1), GF3)
        assert lm.matrix == Matrix(GF3, [[1]])

    def test_iterating_down_reaches_the_coefficient_group(self):
        iv = Interval(0, 1)
        verts = ("v0", "v1", "v2", "v3")
        total = None
        for q in (3, 2, 1):
            lm = incidence_iso(q, 0, iv, GF3, vertices=verts[3 - q:])
            total = lm if total is None else lm.compose(total)
        assert total.matrix.shape == (1, 1)
        assert total.matrix.is_invertible()
        end = homology(pair_of(standard_simplex(0, 0, ("v3",)),
                               standard_boundary(0, 0, ("v3",))), 0, iv, GF3)
        assert total.target.dim == end.dim == 1

    def test_commutes_with_order_preserving_maps(self):
        iv = Interval(0, 1)
        src_verts = ("a", "b", "c")
        dst_verts = ("x", "y", "z")
        inc_src = incidence_iso(2, 0, iv, GF3, vertices=src_verts)
        inc_dst = incidence_iso(2, 0, iv, GF3, vertices=dst_verts)
        vm = dict(zip(src_verts, dst_verts))
        top_map = PreservingMap(
            pair_of(standard_simplex(2, 0, src_verts), standard_boundary(2, 0, src_verts)),
            pair_of(standard_simplex(2, 0, dst_verts), standard_boundary(2, 0, dst_verts)),
            vm,
        )
        face_map = PreservingMap(
            pair_of(standard_simplex(1, 0, src_verts[1:]), standard_boundary(1, 0, src_verts[1:])),
            pair_of(standard_simplex(1, 0, dst_verts[1:]), standard_boundary(1, 0, dst_verts[1:])),
            {k: vm[k] for k in src_verts[1:]},
        )
        left = induced_map(face_map, 1, iv, GF3).matrix * inc_src.matrix
        right = inc_dst.matrix * induced_map(top_map, 2, iv, GF3).matrix
        assert left == right


def _dump(build) -> str:
    """What a call returns, or the type and message of what it raised."""
    try:
        return str(build())
    except Exception as exc:
        return f"raise\t{type(exc).__name__}\t{exc}"


class TestPinnedSkeletalOutputs:
    # sha256 of the dump below, recorded from the skeletal path before the
    # unused linear-algebra operations were removed
    DIGEST = "1bd9c9fb6759d8f64ca8307c19cf19ba28b9abbef00d82b6d842882264e3e45b"

    def test_boundaries_homology_and_comparison_match_the_pinned_dump(self):
        lines = []
        for i in range(40):
            field = (GF2, GF3)[i % 2]
            pair = random_pair(random.Random(i))
            for iv in critical_intervals(pair):
                for q in range(pair.total.dimension + 2):
                    lines += [
                        f"{i} {q} {iv}",
                        "d\t" + _dump(lambda: skeletal_boundary(pair, q, iv, field).rows),
                        "h\t" + _dump(lambda: skeletal_homology(pair, q, iv, field).reps.rows),
                        "iso\t" + _dump(lambda: direct_to_skeletal(pair, q, iv, field).matrix.rows),
                    ]
        text = "\n".join(lines)
        assert "raise\tOracleMismatch" in text
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
