"""Exact sequences, covers, contiguity, triviality, retracts, splittings.

Exactness of the interval sequences holds whenever no class dies strictly
inside the interval; it is asserted here on degenerate intervals (always),
on single-birth objects (always), and on the concrete instances below.  The
two pinned counterexamples document where the interval construction stops
being exact: the sequences remain chain complexes, but a class can die
inside the interval before its witness is born.
"""

import hashlib
import random

import pytest

from persax import (
    GF2,
    GF3,
    QQ,
    ExactSequence,
    FilteredSet,
    Interval,
    LinearMap,
    Matrix,
    NotARetraction,
    PreservingMap,
    are_contiguous,
    are_contiguously_equivalent,
    boundary_matrix,
    chain_space,
    check_exact,
    closed_star,
    critical_intervals,
    critical_values,
    deformation_retract_check,
    direct_sum_check,
    homology,
    identity_map,
    inclusion,
    induced_map,
    intersection,
    is_homologically_trivial,
    is_proper_triad,
    les_pair,
    les_triple,
    mayer_vietoris,
    pair_of,
    point,
    reduced_les_pair,
    standard_boundary,
    standard_simplex,
    triad_sequence,
    union,
)
from persax.fuzz import random_cover, random_pair, random_triple
from persax import sequences
from persax.sequences import HypothesisViolated

TRIANGLE_RIM = FilteredSet(
    {"a", "b", "c"},
    {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
)


class TestLesPair:
    def test_simplex_pair_nodes_and_exactness(self):
        pair = pair_of(standard_simplex(2, 0), standard_boundary(2, 0))
        seq = les_pair(pair, Interval(0, 1), field=GF3)
        # degree 2 relative class only; the rim contributes H_1 = H_0 = 1
        assert seq.dims() == (0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0)
        assert check_exact(seq).ok

    def test_empty_subset_degenerates_to_isomorphisms(self):
        seq = les_pair(pair_of(TRIANGLE_RIM), Interval(1, 2))
        assert check_exact(seq).ok
        # j arrows are isomorphisms when the subset is empty
        for label, arrow in zip(seq.labels, seq.arrows):
            if label.startswith("j"):
                assert arrow.is_isomorphism()

    def test_self_pair_kills_relative_nodes(self):
        seq = les_pair(pair_of(TRIANGLE_RIM, TRIANGLE_RIM), Interval(1, 2))
        assert check_exact(seq).ok
        for node, label in zip(seq.nodes[2::3], seq.labels[2::3]):
            assert node.dim == 0

    def test_exact_on_degenerate_intervals_for_fuzzed_pairs(self):
        master = random.Random(31)
        for _ in range(15):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for c in critical_values(pair):
                assert check_exact(les_pair(pair, Interval(c, c))).ok

    def test_exact_on_single_birth_pairs_over_wide_intervals(self):
        pair = pair_of(standard_simplex(3, 1), standard_boundary(3, 1))
        for iv in (Interval(0, 2), Interval(1, 1), Interval(1, 5)):
            assert check_exact(les_pair(pair, iv, field=GF3)).ok

    def test_pinned_nonexactness_of_the_interval_construction(self):
        # two vertices at 0, edge at 1, subset = the two vertices: the class
        # [a]-[b] of the subset dies inside [0,1] with no early witness
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        report = check_exact(les_pair(pair_of(x, a), Interval(0, 1)))
        assert not report.ok
        kinds = {c.witness[0] for c in report.failures()}
        assert kinds == {"kernel_not_in_image"}

    def test_sequences_are_always_chain_complexes(self):
        # composites of consecutive arrows vanish even where exactness fails
        master = random.Random(37)
        for _ in range(12):
            pair = random_pair(random.Random(master.getrandbits(64)))
            for iv in critical_intervals(pair):
                seq = les_pair(pair, iv)
                for first, second in zip(seq.arrows, seq.arrows[1:]):
                    assert (second.matrix * first.matrix).is_zero()


class TestCheckExact:
    def test_corrupted_arrow_yields_recheckable_witness(self):
        pair = pair_of(TRIANGLE_RIM)
        seq = les_pair(pair, Interval(1, 2))
        idx = seq.labels.index("j_1")
        arrow = seq.arrows[idx]
        bad = LinearMap(arrow.source, arrow.target,
                        Matrix.zero(arrow.matrix.field, arrow.matrix.nrows,
                                    arrow.matrix.ncols), "corrupt")
        report = check_exact(seq.with_arrow(idx, bad))
        assert not report.ok
        for c in report.failures():
            kind, vec = c.witness
            incoming = seq.arrows[c.index - 1] if c.index - 1 != idx else bad
            outgoing = seq.arrows[c.index] if c.index != idx else bad
            if kind == "image_not_in_kernel":
                pushed = outgoing.matrix.apply(incoming.matrix.apply(vec))
                assert any(v != 0 for v in pushed)
            else:
                assert all(v == 0 for v in outgoing.matrix.apply(vec))
                from persax import image

                assert image(incoming.matrix).basis.solve(vec) is None

    def test_zero_sequence_is_exact(self):
        pair = pair_of(point(0), point(0))
        assert check_exact(les_pair(pair, Interval(0, 0))).ok

    def test_nonzero_composite_names_the_first_bad_column(self):
        # H_1(x, a) -> H_0(a) -> H_0(x) on two vertices of the rim: corrupt
        # d_1 so that only its second column survives i_0
        a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        seq = les_pair(pair_of(TRIANGLE_RIM, a), Interval(1, 2))
        idx = seq.labels.index("d_1")
        arrow, outgoing = seq.arrows[idx].matrix, seq.arrows[idx + 1].matrix
        assert arrow.ncols >= 2
        live = next(r for r in range(outgoing.ncols) if any(outgoing.column(r)))
        columns = [(arrow.field.zero,) * arrow.nrows] * arrow.ncols
        columns[1] = Matrix.identity(arrow.field, arrow.nrows).column(live)
        bad = LinearMap(seq.arrows[idx].source, seq.arrows[idx].target,
                        Matrix.from_columns(arrow.field, columns, arrow.nrows), "corrupt")
        check = check_exact(seq.with_arrow(idx, bad)).checks[idx]
        assert check.index == idx + 1 and not check.ok
        kind, vec = check.witness
        units = Matrix.identity(arrow.field, arrow.ncols).columns
        assert kind == "image_not_in_kernel" and vec == units[1]
        assert any(outgoing.apply(bad.matrix.apply(vec)))
        assert not any(outgoing.apply(bad.matrix.apply(units[0])))

    def test_forty_pair_sequences_stay_within_the_reduction_budget(self, monkeypatch):
        # equal canonical bases decide these nodes with 1,080 reductions;
        # two containment solves per node took 1,798
        seqs = []
        for i in range(40):
            rng = random.Random(i)
            pair = random_pair(rng)
            iv = rng.choice(critical_intervals(pair) or (Interval(0, 0),))
            seqs.append(les_pair(pair, iv, field=(GF2, GF3)[i % 2]))
        calls = []
        real = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self) or real(self))
        for seq in seqs:
            check_exact(seq)
        assert len(calls) <= 1_200


class TestExactSequenceShape:
    """Building a sequence checks that its arrows fit its nodes."""

    @pytest.fixture()
    def seq(self):
        seq = les_pair(pair_of(TRIANGLE_RIM), Interval(1, 2))
        assert seq.dims() == (0, 0, 0, 0, 1, 1, 0, 1, 1, 0)
        return seq

    @staticmethod
    def reshaped(arrow, nrows, ncols):
        return LinearMap(arrow.source, arrow.target,
                         Matrix.zero(arrow.matrix.field, nrows, ncols), "reshaped")

    def test_nodes_arrows_and_labels_line_up(self, seq):
        for arrows, labels in ((seq.arrows[:-1], seq.labels), (seq.arrows, seq.labels[1:])):
            with pytest.raises(ValueError, match="^nodes, arrows, and labels do not line up$"):
                ExactSequence(seq.nodes, arrows, labels, seq.description)

    def test_arrow_source_dimension(self, seq):
        idx = seq.labels.index("i_1")  # H_1(a) = 0 -> H_1(x) = 1
        arrows = list(seq.arrows)
        arrows[idx] = self.reshaped(arrows[idx], 1, 1)
        with pytest.raises(ValueError, match="^arrow source dimension mismatch$"):
            ExactSequence(seq.nodes, tuple(arrows), seq.labels, seq.description)

    def test_arrow_target_dimension(self, seq):
        idx = seq.labels.index("j_1")  # H_1(x) = 1 -> H_1(x, a) = 1
        arrows = list(seq.arrows)
        arrows[idx] = self.reshaped(arrows[idx], 2, 1)
        with pytest.raises(ValueError, match="^arrow target dimension mismatch$"):
            ExactSequence(seq.nodes, tuple(arrows), seq.labels, seq.description)

    def test_with_arrow_checks_the_new_arrow(self, seq):
        idx = seq.labels.index("j_1")
        with pytest.raises(ValueError, match="^arrow source dimension mismatch$"):
            seq.with_arrow(idx, self.reshaped(seq.arrows[idx], 1, 2))
        edited = seq.with_arrow(idx, self.reshaped(seq.arrows[idx], 1, 1))
        assert edited.nodes == seq.nodes and edited.labels == seq.labels
        assert edited.description == seq.description + " (edited)"
        assert edited.arrows[idx].label == "reshaped"

    def test_replace_checks_like_the_constructor(self, seq):
        with pytest.raises(ValueError, match="^nodes, arrows, and labels do not line up$"):
            seq._replace(labels=seq.labels[1:])
        assert seq._replace(description="renamed").description == "renamed"


class TestLesTriple:
    def test_empty_inner_set_reduces_to_pair_sequence(self):
        x, a = TRIANGLE_RIM, FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        from persax import skeleton

        b = skeleton(point(0, "a"), -1)  # empty support, vertex inside a
        triple = les_triple(x, a, b, Interval(1, 2))
        pair = les_pair(pair_of(x, a), Interval(1, 2))
        assert triple.dims() == pair.dims()
        assert check_exact(triple).ok

    def test_full_middle_set_turns_inclusions_into_isos(self):
        x = TRIANGLE_RIM
        b = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        seq = les_triple(x, x, b, Interval(1, 2))
        assert check_exact(seq).ok
        for label, arrow in zip(seq.labels, seq.arrows):
            if label.startswith("i"):
                assert arrow.is_isomorphism()

    def test_simplex_star_triple_is_exact(self):
        q = 2
        solid = standard_simplex(q, 0)
        rim = standard_boundary(q, 0)
        star = closed_star(q, 0, "v0")
        seq = les_triple(solid, rim, star, Interval(0, 1), field=GF3)
        assert check_exact(seq).ok

    def test_degenerate_intervals_always_exact(self):
        master = random.Random(41)
        for _ in range(10):
            rng = random.Random(master.getrandbits(64))
            x, a, b = random_triple(rng)
            for c in critical_values(pair_of(x, a)):
                assert check_exact(les_triple(x, a, b, Interval(c, c))).ok


    @pytest.mark.parametrize("a, b", [
        # the middle set has a vertex outside x, or enters before x
        (FilteredSet({"a", "z"}, {("a",): 0, ("z",): 0}), FilteredSet({"a"}, {("a",): 0})),
        (FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 0}),
         FilteredSet({"a"}, {("a",): 0})),
        # the inner set has a vertex outside a, or enters before a
        (FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0}), FilteredSet({"c"}, {("c",): 0})),
        (FilteredSet({"a", "b"}, {("a",): 1, ("b",): 1}), FilteredSet({"a"}, {("a",): 0})),
    ], ids=["a-vertex-escapes", "a-enters-early", "b-vertex-escapes", "b-enters-early"])
    def test_sets_that_are_not_nested_are_rejected(self, a, b):
        with pytest.raises(ValueError):
            les_triple(TRIANGLE_RIM, a, b, Interval(1, 2))


class TestMayerVietoris:
    def test_circle_from_two_arcs(self):
        x1 = FilteredSet({"a", "b", "c"},
                         {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 0, ("b", "c"): 0})
        x2 = FilteredSet({"a", "c", "d"},
                         {("a",): 0, ("c",): 0, ("d",): 0, ("a", "d"): 0, ("c", "d"): 0})
        iv = Interval(0, 1)
        seq = mayer_vietoris(x1, x2, iv, field=GF3)
        assert check_exact(seq).ok
        assert homology(union(x1, x2), 1, iv).dim == 1

    def test_covering_with_itself_is_exact(self):
        seq = mayer_vietoris(TRIANGLE_RIM, TRIANGLE_RIM, Interval(1, 2))
        assert check_exact(seq).ok

    def test_empty_second_set_collapses(self):
        from persax import skeleton

        empty = skeleton(point(0, "z"), -1)
        seq = mayer_vietoris(TRIANGLE_RIM, empty, Interval(1, 2))
        assert check_exact(seq).ok

    def test_degenerate_intervals_always_exact(self):
        master = random.Random(43)
        for _ in range(10):
            rng = random.Random(master.getrandbits(64))
            x1, x2 = random_cover(rng)
            for c in critical_values(union(x1, x2)):
                assert check_exact(mayer_vietoris(x1, x2, Interval(c, c))).ok

    def test_pinned_nonexactness_with_two_late_paths(self):
        # both covers kill [a]-[b]; the witness square is born too late
        x1 = FilteredSet({"a", "b", "c"},
                         {("a",): 0, ("b",): 0, ("c",): 0, ("a", "c"): 0, ("b", "c"): 0})
        x2 = FilteredSet({"a", "b", "d"},
                         {("a",): 0, ("b",): 0, ("d",): 0, ("a", "d"): 1, ("b", "d"): 1})
        report = check_exact(mayer_vietoris(x1, x2, Interval(0, 1)))
        assert not report.ok
        assert {c.witness[0] for c in report.failures()} == {"kernel_not_in_image"}


class TestProperTriads:
    def test_cut_out_configuration_is_proper(self):
        x1 = standard_simplex(2, 0, ("a", "b", "c"))
        x2 = standard_simplex(2, 0, ("b", "c", "d"))
        assert is_proper_triad(union(x1, x2), x1, x2, Interval(0, 1))

    def test_vertex_restricted_covers_are_proper(self):
        master = random.Random(47)
        for _ in range(10):
            rng = random.Random(master.getrandbits(64))
            x1, x2 = random_cover(rng)
            u = union(x1, x2)
            for iv in critical_intervals(u) or (Interval(0, 0),):
                assert is_proper_triad(u, x1, x2, iv)

    def test_properness_comes_with_the_direct_sum_representation(self):
        # the two cross inclusions are isomorphisms exactly when the parts'
        # relative groups represent the union's relative group injectively
        master = random.Random(151)
        for _ in range(8):
            rng = random.Random(master.getrandbits(64))
            x1, x2 = random_cover(rng)
            u = union(x1, x2)
            meet = intersection(x1, x2)
            for iv in critical_intervals(u) or (Interval(0, 0),):
                assert is_proper_triad(u, x1, x2, iv)
                for q in range(0, u.dimension + 2):
                    assert direct_sum_check([x1, x2], meet, q, iv).ok

    @pytest.mark.parametrize("x1, reason", [
        (FilteredSet({"a", "z"}, {("a",): 0, ("z",): 0}), "vertices escape the ambient set"),
        (FilteredSet({"a"}, {("a",): -1}), "value for ('a',) drops below the ambient value"),
        # two edges enter before the rim's; entry order names (a, c) first
        (FilteredSet({"a", "b", "c"}, {("b", "c"): 0, ("a", "c"): 0, ("a",): 0, ("b",): 0,
                                       ("c",): 0}),
         "value for ('a', 'c') drops below the ambient value"),
    ], ids=["vertex-escapes", "enters-early", "first-early-in-entry-order"])
    def test_cover_sets_outside_the_ambient_set_are_named(self, x1, reason):
        x2 = FilteredSet({"b"}, {("b",): 0})
        for args, role in (((x1, x2), "first"), ((x2, x1), "second")):
            with pytest.raises(ValueError) as info:
                is_proper_triad(TRIANGLE_RIM, *args, Interval(0, 1))
            assert type(info.value) is ValueError
            assert str(info.value) == f"{role} cover set: {reason}"

    @pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=["GF2", "GF3", "QQ"])
    def test_the_cross_inclusion_is_excision_on_chains(self, field):
        # every cover is proper without a check: at each level (x1, x1 & x2)
        # and (x1 | x2, x2) share their relative chains and boundary, so the
        # cross inclusion the sequences invert is the identity on homology
        master = random.Random(157)
        for _ in range(50):
            x1, x2 = random_cover(random.Random(master.getrandbits(64)))
            u, _, k1 = sequences._cover(x1, x2)
            source, target = k1.domain, k1.codomain
            assert (source.total, target.total, target.sub) == (x1, u, x2)
            degrees = range(u.dimension + 2)
            for level in sorted(set(critical_values(source)) | set(critical_values(target))):
                for n in degrees:
                    assert chain_space(source, n, level) == chain_space(target, n, level)
                    assert (boundary_matrix(source, n, level, field)
                            == boundary_matrix(target, n, level, field))
            for iv in critical_intervals(u):
                for n in degrees:
                    group = homology(source, n, iv, field)
                    assert homology(target, n, iv, field) == group
                    assert induced_map(k1, n, iv, field).matrix == Matrix.identity(field, group.dim)

    def test_nested_cover_reduces_to_triple(self):
        x2 = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        x1 = TRIANGLE_RIM
        iv = Interval(1, 2)
        assert is_proper_triad(TRIANGLE_RIM, x1, x2, iv)
        triad = triad_sequence(TRIANGLE_RIM, x1, x2, iv)
        triple = les_triple(TRIANGLE_RIM, x1, x2, iv)
        assert triad.dims() == triple.dims()
        assert check_exact(triad).ok

    def test_simplex_star_triad_extracts_the_incidence_pattern(self):
        q = 2
        solid = standard_simplex(q, 0)
        rim = standard_boundary(q, 0)
        star = closed_star(q, 0, "v0")
        iv = Interval(0, 1)
        seq = triad_sequence(solid, rim, star, iv, field=GF3)
        assert check_exact(seq).ok
        # flanks vanish around the degree-q relative node
        labels_to_dims = dict(zip(seq.labels, (a.matrix for a in seq.arrows)))
        d_q = labels_to_dims[f"d_{q}"]
        assert d_q.nrows == d_q.ncols == 1
        assert d_q.is_invertible()


class TestCoverPlumbing:
    """Each sequence of a cover builds its union, intersection and maps once."""

    @staticmethod
    def _covers(count):
        master = random.Random(53)
        for _ in range(count):
            x1, x2 = random_cover(random.Random(master.getrandbits(64)))
            u = union(x1, x2)
            yield x1, x2, u, (critical_intervals(u) or (Interval(0, 0),))[-1]

    @staticmethod
    def _built_during(monkeypatch, build):
        from persax import filtration, sequences

        calls = {"union": 0, "intersection": 0}
        maps = []

        def counted(name):
            original = getattr(sequences, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        original_init = filtration.PreservingMap.__init__

        def counted_init(self, domain, codomain, vertex_map):
            maps.append((domain, codomain))
            original_init(self, domain, codomain, vertex_map)

        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(sequences, name, counted(name))
            patch.setattr(filtration.PreservingMap, "__init__", counted_init)
            build()
        return calls, maps

    def test_mayer_vietoris_builds_each_cover_map_once(self, monkeypatch):
        nested = 0
        for x1, x2, u, iv in self._covers(6):
            calls, maps = self._built_during(monkeypatch, lambda: mayer_vietoris(x1, x2, iv))
            assert calls == {"union": 1, "intersection": 1}
            meet = intersection(x1, x2)
            needed = {
                (pair_of(meet), pair_of(x1)), (pair_of(meet), pair_of(x2)),
                (pair_of(x1), pair_of(u)), (pair_of(x2), pair_of(u)),
                (pair_of(u), pair_of(u, x2)), (pair_of(x1, meet), pair_of(u, x2)),
            }
            assert len(maps) == len(set(maps)) == len(needed)
            assert set(maps) == needed
            # nested parts make two of the six maps one map
            nested += len(needed) < 6
        assert nested

    @pytest.mark.parametrize("extra, built", [(False, 3), (True, 4)],
                             ids=["in-the-union", "in-a-larger-set"])
    def test_triad_sequence_builds_each_cover_map_once(self, monkeypatch, extra, built):
        for x1, x2, u, iv in self._covers(6):
            x = union(u, point(0, "zz")) if extra else u
            calls, maps = self._built_during(monkeypatch, lambda: triad_sequence(x, x1, x2, iv))
            assert calls == {"union": 1, "intersection": 1}
            assert len(maps) == len(set(maps)) == built


class TestContiguity:
    def test_equal_maps_are_contiguous(self):
        pair = pair_of(TRIANGLE_RIM)
        f = identity_map(pair)
        assert are_contiguous(f, f, Interval(0, 2))

    def test_two_edges_of_a_filled_triangle_are_contiguous(self):
        edge = standard_simplex(1, 0, ("x", "y"))
        solid = standard_simplex(2, 0, ("a", "b", "c"))
        rim = standard_boundary(2, 0, ("a", "b", "c"))
        f = PreservingMap(pair_of(edge), pair_of(solid), {"x": "a", "y": "b"})
        g = PreservingMap(pair_of(edge), pair_of(solid), {"x": "a", "y": "c"})
        assert are_contiguous(f, g, Interval(0, 1))
        f2 = PreservingMap(pair_of(edge), pair_of(rim), {"x": "a", "y": "b"})
        g2 = PreservingMap(pair_of(edge), pair_of(rim), {"x": "a", "y": "c"})
        assert not are_contiguous(f2, g2, Interval(0, 1))

    def test_a_joint_image_outside_the_codomain_subset_is_not_contiguous(self):
        # y lies in the domain subset; its two images b and c stay in the
        # codomain subset, but their edge joins that subset only at 1
        edge = standard_simplex(1, 0, ("x", "y"))
        solid = standard_simplex(2, 0, ("a", "b", "c"))
        domain = pair_of(edge, point(0, "y"))
        late_edge = FilteredSet({"b", "c"}, {("b",): 0, ("c",): 0, ("b", "c"): 1})
        for sub, iv, expected in ((late_edge, Interval(0, 1), False),
                                  (late_edge, Interval(1, 1), True),
                                  (standard_simplex(1, 0, ("b", "c")), Interval(0, 1), True)):
            codomain = pair_of(solid, sub)
            f = PreservingMap(domain, codomain, {"x": "a", "y": "b"})
            g = PreservingMap(domain, codomain, {"x": "a", "y": "c"})
            assert are_contiguous(f, g, iv) is expected

    def test_matches_exhaustive_coface_search(self):
        # oracle: search all codomain simplices for a shared coface
        from persax import complex_at

        master = random.Random(53)
        from persax.fuzz import random_contiguous_pair

        for _ in range(10):
            rng = random.Random(master.getrandbits(64))
            f, g = random_contiguous_pair(rng)
            iv = Interval(0, 2)
            levels = {iv.lo, iv.hi}
            levels.update(c for c in critical_values(f.domain) if iv.lo <= c <= iv.hi)
            levels.update(c for c in critical_values(f.codomain) if iv.lo <= c <= iv.hi)
            expected = True
            for level in levels:
                for sk in complex_at(f.domain.total, level):
                    joint = set(f.apply(sk)) | set(g.apply(sk))
                    cofaces = [
                        tau for tau in complex_at(f.codomain.total, level)
                        if joint <= set(tau)
                    ]
                    if not cofaces:
                        expected = False
                    if sk in complex_at(f.domain.sub, level) and not any(
                        tau in complex_at(f.codomain.sub, level) for tau in cofaces
                    ):
                        expected = False
            assert are_contiguous(f, g, iv) == expected

    def test_contiguous_maps_induce_equal_matrices(self):
        from persax.fuzz import random_contiguous_pair

        master = random.Random(59)
        for _ in range(10):
            rng = random.Random(master.getrandbits(64))
            f, g = random_contiguous_pair(rng)
            for iv in critical_intervals(f.domain):
                if not are_contiguous(f, g, iv):
                    continue
                for n in range(0, 3):
                    assert (induced_map(f, n, iv).matrix
                            == induced_map(g, n, iv).matrix)


class TestContiguousEquivalence:
    def test_identity_with_itself(self):
        pair = pair_of(TRIANGLE_RIM)
        ident = identity_map(pair)
        assert are_contiguously_equivalent(ident, ident)

    def test_simplex_and_point_are_equivalent(self):
        solid = standard_simplex(2, 0)
        pt = point(0)
        collapse = PreservingMap(pair_of(solid), pair_of(pt), {v: "p" for v in solid.vertices})
        include = PreservingMap(pair_of(pt), pair_of(solid), {"p": "v0"})
        assert are_contiguously_equivalent(collapse, include)

    def test_two_points_are_not_equivalent_to_one(self):
        two = standard_boundary(1, 0, ("a", "b"))
        pt = point(0)
        collapse = PreservingMap(pair_of(two), pair_of(pt), {"a": "p", "b": "p"})
        include = PreservingMap(pair_of(pt), pair_of(two), {"p": "a"})
        assert not are_contiguously_equivalent(collapse, include)

    def test_maps_between_other_pairs_are_rejected(self):
        ident = identity_map(pair_of(point(0)))
        other = identity_map(pair_of(point(0, "q")))
        with pytest.raises(ValueError, match="^contiguity needs a shared domain and codomain$"):
            are_contiguous(ident, other)
        with pytest.raises(ValueError, match="^maps must point in opposite directions"):
            are_contiguously_equivalent(ident, other)


class TestHomologicalTriviality:
    def test_solid_simplices_are_trivial(self):
        for q in (0, 1, 2, 3):
            assert is_homologically_trivial(standard_simplex(q, 0), Interval(0, 1))

    def test_triangle_rim_is_not(self):
        assert not is_homologically_trivial(TRIANGLE_RIM, Interval(1, 2))

    def test_pair_of_trivial_sets_is_trivial(self):
        solid = standard_simplex(2, 0)
        edge = FilteredSet({"v0", "v1"}, {("v0",): 0, ("v1",): 0, ("v0", "v1"): 0})
        assert is_homologically_trivial(solid, Interval(0, 1))
        assert is_homologically_trivial(edge, Interval(0, 1))
        assert is_homologically_trivial(pair_of(solid, edge), Interval(0, 1))

    def test_pair_without_finite_simplices_is_trivial(self):
        vertex = FilteredSet({"a"}, {("a",): "inf"})
        assert is_homologically_trivial(pair_of(vertex, vertex), Interval(0, 1))


class TestDeformationRetract:
    def test_collapse_of_an_edge_onto_a_vertex(self):
        edge = standard_simplex(1, 0, ("a", "b"))
        vertex = FilteredSet({"a"}, {("a",): 0})
        pair, sub = pair_of(edge), pair_of(vertex)
        assert deformation_retract_check(pair, sub, {"a": "a", "b": "a"})

    def test_identity_retraction(self):
        pair = pair_of(TRIANGLE_RIM)
        assert deformation_retract_check(pair, pair, {v: v for v in TRIANGLE_RIM.vertices})

    def test_two_components_cannot_retract_to_one(self):
        two = standard_boundary(1, 0, ("a", "b"))
        vertex = FilteredSet({"a"}, {("a",): 0})
        assert not deformation_retract_check(pair_of(two), pair_of(vertex),
                                             {"a": "a", "b": "a"})

    def test_moving_a_subpair_vertex_is_rejected(self):
        edge = standard_simplex(1, 0, ("a", "b"))
        with pytest.raises(NotARetraction):
            deformation_retract_check(pair_of(edge), pair_of(edge),
                                      {"a": "b", "b": "a"})

    def test_true_retracts_induce_sequence_isomorphisms(self):
        edge = standard_simplex(1, 0, ("a", "b"))
        vertex = FilteredSet({"a"}, {("a",): 0})
        pair, sub = pair_of(edge), pair_of(vertex)
        assert deformation_retract_check(pair, sub, {"a": "a", "b": "a"})
        inc = inclusion(sub, pair)
        for n in range(0, 3):
            assert induced_map(inc, n, Interval(0, 1)).is_isomorphism()


class TestDirectSum:
    def test_two_disjoint_simplices_add(self):
        from persax import skeleton

        x1 = standard_simplex(1, 0, ("a", "b"))
        x2 = standard_simplex(1, 0, ("c", "d"))
        empty = skeleton(point(0, "a"), -1)
        verdict = direct_sum_check([x1, x2], empty, 0, Interval(0, 1))
        assert verdict.ok
        assert verdict.total_dim == 2 and verdict.part_dims == (1, 1)

    def test_overlap_outside_subset_rejected(self):
        x1 = standard_simplex(1, 0, ("a", "b"))
        x2 = standard_simplex(1, 0, ("b", "c"))
        lonely = point(0, "z")
        with pytest.raises(HypothesisViolated):
            direct_sum_check([x1, x2], lonely, 0, Interval(0, 1))

    def test_overlap_entering_before_the_subset_rejected(self):
        x1 = standard_simplex(1, 0, ("a", "b"))
        x2 = standard_simplex(1, 0, ("b", "c"))
        with pytest.raises(HypothesisViolated, match="parts 0 and 1"):
            direct_sum_check([x1, x2], point(1, "b"), 0, Interval(0, 1))

    def test_single_part_is_the_cut_out_instance(self):
        x1 = standard_simplex(2, 0, ("a", "b", "c"))
        a = standard_simplex(2, 0, ("b", "c", "d"))
        for q in (0, 1, 2):
            assert direct_sum_check([x1], a, q, Interval(0, 1)).ok

    def test_skeleton_pairs_decompose_by_top_simplices(self):
        from persax.skeletal import skeletal_pair

        master = random.Random(61)
        for _ in range(6):
            pair = random_pair(random.Random(master.getrandbits(64)))
            q = max(pair.total.dimension, 1)
            sp = skeletal_pair(pair, q)
            tops = [
                FilteredSet(set(sk),
                            {face: pair.total.value(face)
                             for k in range(1, len(sk) + 1)
                             for face in __import__("itertools").combinations(sk, k)})
                for sk, val in pair.total.entries if len(sk) == q + 1
            ]
            if not tops:
                continue
            for iv in critical_intervals(pair):
                verdict = direct_sum_check(tops, sp.sub, q, iv)
                assert verdict.ok


class TestTripleTrivialityEquivalences:
    def test_vanishing_flank_makes_arrows_isomorphisms(self):
        # degenerate intervals: classical homological algebra applies
        master = random.Random(67)
        checked = 0
        for _ in range(12):
            rng = random.Random(master.getrandbits(64))
            x, a, b = random_triple(rng)
            for c in critical_values(pair_of(x, a)):
                iv = Interval(c, c)
                seq = les_triple(x, a, b, iv)
                n_max = max(pair_of(x, a).total.dimension, 0) + 1
                groups = {
                    "AB": [homology(pair_of(a, b), q, iv).dim for q in range(n_max + 2)],
                    "XB": [homology(pair_of(x, b), q, iv).dim for q in range(n_max + 2)],
                    "XA": [homology(pair_of(x, a), q, iv).dim for q in range(n_max + 2)],
                }
                arrows = dict(zip(seq.labels, seq.arrows))
                if all(d == 0 for d in groups["XA"]):
                    for q in range(n_max + 1):
                        assert arrows[f"i_{q}"].is_isomorphism()
                    checked += 1
                if all(d == 0 for d in groups["AB"]):
                    for q in range(n_max + 1):
                        assert arrows[f"j_{q}"].is_isomorphism()
                    checked += 1
        assert checked > 0


class TestReducedSequence:
    def test_differs_from_unreduced_only_at_the_tail(self):
        x = TRIANGLE_RIM
        a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        pair = pair_of(x, a)
        iv = Interval(1, 2)
        full = les_pair(pair, iv)
        reduced = reduced_les_pair(pair, iv)
        assert full.dims()[:-4] == reduced.dims()[:-4]
        # reduced degree-0 groups drop one dimension (both sets nonempty here)
        assert reduced.dims()[-4] == full.dims()[-4] - 1
        assert reduced.dims()[-3] == full.dims()[-3] - 1

    def test_reduced_sequence_is_exact_when_subset_is_present(self):
        x = TRIANGLE_RIM
        a = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 1})
        for iv in (Interval(0, 0), Interval(1, 1), Interval(1, 2), Interval(0, 1)):
            assert check_exact(reduced_les_pair(pair_of(x, a), iv)).ok


class TestStarShapedLemmas:
    def test_vertex_inclusion_into_star_shaped_set_is_iso(self):
        # a filled cone with apex z; star shaped at every level in [1, 2]
        apex_cone = FilteredSet(
            {"a", "b", "z"},
            {("a",): 0, ("b",): 0, ("z",): 0,
             ("a", "z"): 1, ("b", "z"): 1, ("a", "b"): 1, ("a", "b", "z"): 1},
        )
        from persax import is_star_shaped

        iv = Interval(1, 2)
        assert is_star_shaped(apex_cone, "z", iv)
        vertex = FilteredSet({"z"}, {("z",): 0})
        inc = inclusion(pair_of(vertex), pair_of(apex_cone))
        for n in range(3):
            assert induced_map(inc, n, iv).is_isomorphism()

    def test_star_shaped_subset_splits_dimensions(self):
        # single-birth instance: connecting vanishes and dims add
        solid = standard_simplex(2, 0)
        a = FilteredSet({"v0", "v1"}, {("v0",): 0, ("v1",): 0, ("v0", "v1"): 0})
        pair = pair_of(solid, a)
        iv = Interval(0, 1)
        from persax import connecting

        for n in (1, 2):
            assert connecting(pair, n, iv).matrix.is_zero()
        for n in range(3):
            assert (homology(solid, n, iv).dim
                    == homology(a, n, iv).dim + homology(pair, n, iv).dim)


class TestCylinderTheorem:
    def test_ends_agree_and_invert_the_collapse(self):
        from persax import cylinder
        from persax.fuzz import random_filtration

        master = random.Random(71)
        for _ in range(8):
            x = random_filtration(random.Random(master.getrandbits(64)))
            cyl, h0, h1, k = cylinder(x)
            for iv in critical_intervals(x):
                for n in range(0, x.dimension + 2):
                    m0 = induced_map(h0, n, iv, GF3).matrix
                    m1 = induced_map(h1, n, iv, GF3).matrix
                    mk = induced_map(k, n, iv, GF3).matrix
                    assert m0 == m1
                    assert mk.is_invertible()
                    assert (mk * m0).is_identity()


def _dump_sequence(build) -> list[str]:
    """Description, labels, dims, matrices and exactness report, or the error."""
    try:
        seq = build()
    except Exception as exc:
        return [f"raise\t{type(exc).__name__}\t{exc}"]
    lines = [seq.description, "\t".join(seq.labels), " ".join(map(str, seq.dims()))]
    lines += [f"{arrow.label}\t{arrow.matrix.rows}" for arrow in seq.arrows]
    lines += [f"{c.index}\t{c.image_dim}\t{c.kernel_dim}\t{c.ok}\t{c.witness}"
              for c in check_exact(seq).checks]
    return lines


def _some_interval(rng, obj):
    return rng.choice(critical_intervals(obj) or (Interval(0, 0),))


class TestPinnedSequenceOutputs:
    # sha256 of the dump below, recorded from the constructors as first written
    DIGEST = "0e47893b1a99f5c7b89f41e3f8bed3130afce6b9ccfdfceedeec0748061b5652"

    def test_all_constructors_match_the_pinned_dump(self):
        lines = []
        for i in range(60):
            rng = random.Random(i)
            field = (GF2, GF3)[i % 2]
            pair = random_pair(rng)
            x, a, b = random_triple(rng)
            x1, x2 = random_cover(rng)
            pi, ti, ci = (_some_interval(rng, pair), _some_interval(rng, x),
                          _some_interval(rng, union(x1, x2)))
            for build in (
                lambda: les_pair(pair, pi, field=field),
                lambda: reduced_les_pair(pair, pi, field=field),
                lambda: les_triple(x, a, b, ti, field=field),
                lambda: mayer_vietoris(x1, x2, ci, field=field),
                lambda: triad_sequence(union(x1, x2), x1, x2, ci, field=field),
                # the cover comes from another filtration: mostly rejected
                lambda: triad_sequence(x, x1, x2, ti, field=field),
            ):
                lines += _dump_sequence(build)
        text = "\n".join(lines)
        assert "raise\tValueError" in text and "\tFalse\t" in text
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
