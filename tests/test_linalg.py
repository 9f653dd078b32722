"""Exact field arithmetic, echelon forms, subspace calculus, chain matrices."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from persax import (
    GF,
    GF2,
    GF3,
    PreservingMap,
    QQ,
    DimensionMismatch,
    FilteredSet,
    Interval,
    Matrix,
    SubspaceNotContained,
    boundary_matrix,
    chain_map_matrix,
    chain_space,
    complex_at,
    critical_intervals,
    critical_values,
    fin,
    image,
    kernel,
    pair_of,
    preimage,
    standard_simplex,
)
from persax.fuzz import random_pair
from persax.linalg import _inclusion_columns, _move_rows


def test_gf_requires_prime():
    GF(7)
    with pytest.raises(ValueError):
        GF(6)


def test_gf_rejects_characteristics_from_two_to_the_31():
    assert GF(2147483647).p == 2**31 - 1
    with pytest.raises(ValueError, match="not below 2\\*\\*31"):
        GF(1000000000000000003)


def test_field_arithmetic_is_modular():
    f = GF3
    assert f.add(2, 2) == 1
    assert f.inv(2) == 2
    assert f.coerce(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
def test_fields_take_only_ints_and_fractions(field):
    assert field.coerce(True) == field.coerce(1) == field.one
    assert field.coerce(Fraction(4, 2)) == field.coerce(2)
    for bad in (1.5, 2.0, "1", None):
        with pytest.raises(TypeError) as info:
            field.coerce(bad)
        assert str(info.value) == f"cannot interpret {bad!r} as an element of {field}"
    with pytest.raises(TypeError, match=r"cannot interpret 1\.5 as an element"):
        Matrix(field, [[1.5, 2.7]])


def test_rationals_mode_is_exact():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    m = Matrix(QQ, [[Fraction(1, 3), 1], [0, 2]])
    assert m.inverse() * m == Matrix.identity(QQ, 2)


class TestMatrix:
    def test_multiply_and_identity(self):
        a = Matrix(GF2, [[1, 0, 1], [0, 1, 1]])
        assert (Matrix.identity(GF2, 2) * a) == a

    def test_zero_shapes_compose(self):
        a = Matrix.zero(GF2, 0, 3)
        b = Matrix.zero(GF2, 3, 2)
        assert (a * b).shape == (0, 2)
        assert a.transpose().shape == (3, 0)

    def test_solve_finds_a_solution_or_none(self):
        m = Matrix(GF3, [[1, 2], [2, 1]])
        x = m.solve((0, 0))
        assert x == (0, 0)
        m2 = Matrix(GF2, [[1, 1], [1, 1]])
        assert m2.solve((1, 0)) is None

    def test_inverse_round_trip(self):
        m = Matrix(GF3, [[1, 2], [0, 1]])
        assert m.inverse() * m == Matrix.identity(GF3, 2)


class TestEchelonDeterminism:
    def test_reducing_twice_is_bit_identical(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
            m = Matrix(GF2, rows)
            s1 = image(m)
            s2 = image(s1.basis)
            assert s1.basis.rows == s2.basis.rows

    def test_rank_nullity_checked_on_every_reduction(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = [[rng.randrange(3) for _ in range(6)] for _ in range(4)]
            m = Matrix(GF3, rows)
            assert m.rank() + kernel(m).dim == m.ncols


class TestSubspaces:
    def test_kernel_of_zero_map_is_everything(self):
        assert kernel(Matrix.zero(GF2, 3, 4)).dim == 4

    def test_image_of_identity_is_everything(self):
        assert image(Matrix.identity(GF2, 3)).dim == 3

    def test_two_lines_meet_only_at_zero(self):
        u = image(Matrix(GF2, [[1], [0]]))
        v = image(Matrix(GF2, [[0], [1]]))
        assert u.intersect(v).dim == 0
        assert u.sum(v).dim == 2

    def test_quotient_requires_containment(self):
        u = image(Matrix(GF2, [[1], [0]]))
        v = image(Matrix(GF2, [[0], [1]]))
        with pytest.raises(SubspaceNotContained):
            u.complement_in(v)
        assert u.sum(v).complement_in(v).ncols == 1

    def test_preimage_contains_kernel(self):
        m = Matrix(GF2, [[1, 1, 0], [0, 1, 1]])
        target = image(Matrix(GF2, [[1], [0]]))
        pre = preimage(m, target)
        assert pre.contains_subspace(kernel(m))
        for j in range(pre.dim):
            assert target.basis.solve(m.apply(pre.basis.column(j))) is not None

    def test_quotient_coordinates_are_unique(self):
        from persax.linalg import quotient_coords

        u = image(Matrix.identity(GF3, 3))
        v = image(Matrix(GF3, [[1], [1], [0]]))
        vec = (2, 0, 1)
        comp = u.complement_in(v)
        coords = quotient_coords(comp, v, Matrix.from_columns(GF3, [vec], 3)).column(0)
        rebuilt = comp.apply(coords)
        assert v.basis.solve(tuple(GF3.sub(a, b) for a, b in zip(vec, rebuilt))) is not None

    def test_batched_quotient_coords_match_column_solves(self):
        from persax.linalg import hstack, quotient_coords

        rng = random.Random(11)
        solved = unsolved = 0
        for _ in range(60):
            fld = rng.choice((GF2, GF3))
            n, k, m = rng.randint(1, 6), rng.randint(0, 3), rng.randint(1, 4)
            rand = lambda r, c: Matrix(fld, [[rng.randrange(fld.p) for _ in range(c)]
                                             for _ in range(r)], r, c)
            reps, sub = rand(n, k), image(rand(n, rng.randint(0, 3)))
            vectors = hstack(reps, sub.basis) * rand(k + sub.dim, m)
            if rng.random() < 0.3:
                vectors = rand(n, m)
            sols = [hstack(reps, sub.basis).solve(col) for col in vectors.columns]
            coords = quotient_coords(reps, sub, vectors)
            if None in sols:
                unsolved += 1
                assert coords is None
            else:
                solved += 1
                assert coords.columns == tuple(sol[:k] for sol in sols)
            assert quotient_coords(reps, sub, rand(n, 0)) == Matrix.zero(fld, k, 0)
        assert solved and unsolved


def _gf2_span(vectors, ambient):
    span = {(0,) * ambient}
    for v in vectors:
        if v not in span:
            span |= {tuple(a ^ b for a, b in zip(v, s)) for s in span}
    return span


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_kernel_image_intersect_match_exhaustive_gf2(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
    m = Matrix(GF2, [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)],
               nrows, ncols)
    ker_brute = {
        x for x in itertools.product((0, 1), repeat=ncols)
        if all(v == 0 for v in m.apply(x))
    }
    ker = kernel(m)
    assert _gf2_span(ker.basis.columns, ncols) == ker_brute
    img_brute = {tuple(m.apply(x)) for x in itertools.product((0, 1), repeat=ncols)}
    assert _gf2_span(image(m).basis.columns, nrows) == img_brute
    other = Matrix(GF2, [[rng.randrange(2) for _ in range(ncols)] for _ in range(nrows)],
                   nrows, ncols)
    meet = image(m).intersect(image(other))
    assert _gf2_span(meet.basis.columns, nrows) == img_brute & _gf2_span(
        image(other).basis.columns, nrows
    )


TRIANGLE = {
    ("a",): 0, ("b",): 0, ("c",): 0,
    ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1, ("a", "b", "c"): 2,
}


def filled_triangle():
    return pair_of(FilteredSet({"a", "b", "c"}, TRIANGLE))


def inclusion_as_matrix(pair, n, interval, field):
    """The chain inclusion from the lower- into the upper-endpoint basis, as a matrix."""
    src = chain_space(pair, n, interval.lo)
    return _move_rows(Matrix.identity(field, len(src)), _inclusion_columns(src),
                      chain_space(pair, n, interval.hi))


def chain_map_as_matrix(f, n, eps, field):
    """A vertex map's chain columns at one level, as a matrix."""
    return _move_rows(Matrix.identity(field, len(chain_space(f.domain, n, eps))),
                      chain_map_matrix(f, n, eps), chain_space(f.codomain, n, eps))


class TestChainMatrices:
    def test_edge_boundary_signs(self):
        pair = filled_triangle()
        d1 = boundary_matrix(pair, 1, fin(1), GF3)
        # columns: ab, ac, bc over rows a, b, c
        assert d1.column(0) == (2, 1, 0)
        assert d1.column(1) == (2, 0, 1)
        assert d1.column(2) == (0, 2, 1)

    def test_degree_zero_has_trivial_target(self):
        pair = filled_triangle()
        assert boundary_matrix(pair, 0, fin(1), GF2).shape == (0, 3)

    def test_triangle_face_boundary_alternates(self):
        pair = filled_triangle()
        d2 = boundary_matrix(pair, 2, fin(2), GF3)
        assert d2.column(0) == (1, 2, 1)  # bc - ac + ab
        assert boundary_matrix(pair, 2, fin(2), GF2).column(0) == (1, 1, 1)

    def test_boundary_squares_to_zero(self):
        pair = filled_triangle()
        for fld in (GF2, GF3, QQ):
            d1 = boundary_matrix(pair, 1, fin(2), fld)
            d2 = boundary_matrix(pair, 2, fin(2), fld)
            assert (d1 * d2).is_zero()

    def test_inclusion_naturality_with_boundaries(self):
        pair = filled_triangle()
        iv = Interval(1, 2)
        for n in (1, 2):
            left = inclusion_as_matrix(pair, n - 1, iv, GF3) * boundary_matrix(pair, n, fin(1), GF3)
            right = boundary_matrix(pair, n, fin(2), GF3) * inclusion_as_matrix(pair, n, iv, GF3)
            assert left == right

    def test_inclusion_absorbs_into_growing_subset(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
        a = FilteredSet({"a"}, {("a",): 1})
        pair = pair_of(x, a)
        m = inclusion_as_matrix(pair, 0, Interval(0, 1), GF2)
        # source basis (a, b); a is absorbed by level 1, b persists
        assert m.shape == (1, 2)
        assert m.column(0) == (0,)
        assert m.column(1) == (1,)

    def test_equal_endpoints_give_identity(self):
        pair = filled_triangle()
        assert inclusion_as_matrix(pair, 1, Interval(1, 1), GF2).is_identity()


class TestChainMaps:
    def test_identity_map_is_identity_matrix(self):
        pair = filled_triangle()
        from persax import identity_map

        m = chain_map_as_matrix(identity_map(pair), 1, fin(1), GF3)
        assert m.is_identity()

    def test_collapsed_edge_maps_to_zero(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 0})
        f = PreservingMap(pair_of(x), pair_of(standard_simplex(0, 0, ("p",))), {"a": "p", "b": "p"})
        assert chain_map_as_matrix(f, 1, fin(0), GF2).is_zero()

    def test_vertex_swap_carries_permutation_sign(self):
        x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0, ("a", "b"): 0})
        f = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "a"})
        assert chain_map_as_matrix(f, 1, fin(0), GF2) == Matrix(GF2, [[1]])
        assert chain_map_as_matrix(f, 1, fin(0), GF3) == Matrix(GF3, [[2]])

    def test_chain_maps_commute_with_boundaries(self):
        x = FilteredSet({"a", "b", "c"}, TRIANGLE)
        f = PreservingMap(pair_of(x), pair_of(x), {"a": "b", "b": "c", "c": "a"})
        for n in (1, 2):
            left = chain_map_as_matrix(f, n - 1, fin(2), GF3) * boundary_matrix(pair_of(x), n, fin(2), GF3)
            right = boundary_matrix(pair_of(x), n, fin(2), GF3) * chain_map_as_matrix(f, n, fin(2), GF3)
            assert left == right


def test_chain_space_excludes_absorbed_simplices():
    x = FilteredSet({"a", "b"}, {("a",): 0, ("b",): 0})
    a = FilteredSet({"a"}, {("a",): 0})
    assert chain_space(pair_of(x, a), 0, fin(0)) == (("b",),)


def test_chain_space_is_deterministically_ordered():
    pair = filled_triangle()
    assert chain_space(pair, 1, fin(1)) == (("a", "b"), ("a", "c"), ("b", "c"))


def _chain_space_by_complexes(pair, n, eps):
    """The basis by definition: sorted degree-n simplices of the total's
    sublevel complex at eps that the subset's sublevel complex lacks."""
    total, sub = complex_at(pair.total, eps), complex_at(pair.sub, eps)
    return tuple(sorted(sk for sk in total if len(sk) == n + 1 and sk not in sub))


def test_chain_space_matches_the_sublevel_complex_definition():
    master = random.Random(37)
    for _ in range(120):
        pair = random_pair(random.Random(master.getrandbits(64)))
        for eps in critical_values(pair):
            for n in range(-1, pair.total.dimension + 2):
                assert chain_space(pair, n, eps) == _chain_space_by_complexes(pair, n, eps)


def _levels(values):
    """The values, the midpoints between neighbours, and one level below and
    one above them all."""
    finite = [v.finite for v in values]
    mids = [(a + b) / 2 for a, b in zip(finite, finite[1:])]
    ends = [finite[0] - 1, finite[-1] + 1] if finite else [Fraction(0)]
    return [fin(q) for q in sorted(finite + mids + ends)]


def test_rank_tests_match_the_value_definition_at_every_level():
    # chain_space and complex_at bisect the level into each part's values
    # and compare ranks; the definition compares each simplex's value
    master = random.Random(41)
    levels_seen = set()
    for _ in range(80):
        pair = random_pair(random.Random(master.getrandbits(64)))
        critical = set(critical_values(pair))
        for eps in _levels(critical_values(pair)):
            levels_seen.add(eps in critical)
            for x in pair:
                assert complex_at(x, eps) == {sk for sk, val in x.entries if val <= eps}
            for n in range(-1, pair.total.dimension + 2):
                want = tuple(sk for sk, val in pair.total.entries if len(sk) == n + 1
                             and val <= eps and pair.sub.value(sk) > eps)
                assert chain_space(pair, n, eps) == want
    assert levels_seen == {True, False}


def _dump_matrix(m):
    return f"{m.field} {m.nrows}x{m.ncols} " + ";".join(",".join(map(str, r)) for r in m.rows)


def _dump_space(s):
    return f"{s.ambient} {s.pivots} " + _dump_matrix(s.basis)


def _random_matrix(rng, field, nrows, ncols):
    if field == QQ:
        entry = lambda: Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * (rng.random() < 0.6)
    else:
        entry = lambda: rng.randrange(field.p) if rng.random() < 0.6 else 0
    return Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)], nrows, ncols)


class TestPinnedCanonicalBases:
    # sha256 of the dump below, recorded before the column space and kernel shared one canonicalizer
    DIGEST = "f672c743c2ea20cd53fef384b232b5a7fc51d15d5be22c9e9d2a26f7020307a3"

    def _dump_instance(self, i):
        rng = random.Random(i)
        field = (GF2, GF3, QQ)[i % 3]
        n, m, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 3)
        a = _random_matrix(rng, field, n, m)
        other = image(_random_matrix(rng, field, n, rng.randint(0, 4)))
        red, pivots = a.rref()
        span = image(a)
        lines = [
            _dump_matrix(red) + f" {pivots}",
            _dump_space(kernel(a)),
            _dump_space(span),
            _dump_space(span.intersect(other)),
            _dump_space(span.sum(other)),
            _dump_matrix(span.sum(other).complement_in(other)),
            _dump_space(preimage(a, other)),
            _dump_matrix(a.transpose()),
            _dump_matrix(Matrix.from_columns(field, a.transpose().rows, n)),
            _dump_matrix(a * _random_matrix(rng, field, m, k)),
        ]
        for rhs in (a * _random_matrix(rng, field, m, k), _random_matrix(rng, field, n, k)):
            sol = a.solve_matrix(rhs)
            lines.append("none" if sol is None else _dump_matrix(sol))
        # equal objects built by other routes hash equal
        same = Matrix(field, [[Fraction(x) for x in r] for r in a.rows], n, m)
        assert same == a and hash(same) == hash(a)
        for again in (image(span.basis),
                      image(Matrix.from_columns(field, a.columns, n))):
            assert again == span and hash(again) == hash(span)
        if field != QQ:
            pair = random_pair(rng)
            interval = rng.choice(critical_intervals(pair) or (Interval(0, 0),))
            for deg in range(3):
                lines.append(_dump_matrix(inclusion_as_matrix(pair, deg, interval, field)))
        return lines

    def test_canonical_bases_match_the_pinned_dump(self):
        lines = [line for i in range(120) for line in self._dump_instance(i)]
        text = "\n".join(lines)
        assert "QQ 0x" in text and "x0 " in text and "none" in text and "/" in text
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


# The method-call elimination and dot product that Matrix.rref and Matrix.__mul__
# used before their native-arithmetic kernels, kept as the reference.
def _reference_rref(m):
    fld = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, m.nrows) if rows[i][c] != fld.zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = fld.inv(rows[r][c])
        rows[r] = [fld.mul(inv, a) for a in rows[r]]
        for i in range(m.nrows):
            if i != r and rows[i][c] != fld.zero:
                factor = rows[i][c]
                rows[i] = [fld.sub(a, fld.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.nrows:
            break
    return tuple(map(tuple, rows)), tuple(pivots)


def _reference_dot(fld, u, v):
    acc = fld.zero
    for a, b in zip(u, v):
        acc = fld.add(acc, fld.mul(a, b))
    return acc


def _reference_product(a, b):
    cols = [[row[j] for row in b.rows] for j in range(b.ncols)]
    return tuple(tuple(_reference_dot(a.field, row, col) for col in cols) for row in a.rows)


def _typed(rows):
    """Entries with their types, so that an int never passes for a Fraction."""
    return tuple(tuple((type(x).__name__, x) for x in row) for row in rows)


KERNEL_FIELDS = (GF2, GF3, GF(5), GF(2147483647), QQ)


def _kernel_instance(i):
    """A seeded pair (a, b) with a * b defined.  By ``i % 7``, a is 0 x n,
    n x 0, all zero, of rank at most 2, wide and sparse over GF(2) (else
    random), or random."""
    rng = random.Random(7000 + i)
    field = KERNEL_FIELDS[i % len(KERNEL_FIELDS)]
    kind = i % 7
    n, m = rng.randint(1, 8), rng.randint(1, 8)
    if kind == 0:
        n = 0
    elif kind == 1:
        m = 0
    if kind == 2:
        a = Matrix.zero(field, n, m)
    elif kind == 3:  # rank at most 2, so most rows reduce to zero
        left, right = _random_matrix(rng, field, n, 2), _random_matrix(rng, field, 2, m)
        a = Matrix(field, _reference_product(left, right), n, m)
    elif kind == 4 and field == GF2:
        n, m = rng.randint(2, 40), rng.randint(65, 200)
        a = Matrix(field, [[int(rng.random() < 0.05) for _ in range(m)] for _ in range(n)], n, m)
    else:
        a = _random_matrix(rng, field, n, m)
    return a, _random_matrix(rng, field, m, rng.randint(0, 5))


class TestNativeKernels:
    def test_rref_and_products_match_the_method_call_reference(self):
        shapes = set()
        for i in range(280):
            a, b = _kernel_instance(i)
            shapes.add((str(a.field), a.nrows == 0, a.ncols == 0, a.is_zero(), a.ncols > 64))
            red, pivots = a.rref()
            ref_rows, ref_pivots = _reference_rref(a)
            assert pivots == ref_pivots
            assert _typed(red.rows) == _typed(ref_rows)
            assert red == Matrix(a.field, ref_rows, a.nrows, a.ncols)
            product = a * b
            assert product.shape == (a.nrows, b.ncols)
            assert _typed(product.rows) == _typed(_reference_product(a, b))
            if b.ncols:
                assert _typed([a.apply(b.column(0))]) == _typed([[r[0] for r in product.rows]])
        for name in ("GF(2)", "GF(3)", "GF(5)", "GF(2147483647)", "QQ"):
            assert (name, True, False, True, False) in shapes  # 0 x n
            assert (name, False, True, True, False) in shapes  # n x 0
            assert (name, False, False, True, False) in shapes  # all zero, nonempty
        assert ("GF(2)", False, False, False, True) in shapes  # wider than one machine word

    def test_wide_gf2_rref_keeps_the_pivot_rule(self):
        rng = random.Random(11)
        for _ in range(20):
            n, m = rng.randint(1, 30), rng.randint(65, 300)
            base = [[int(rng.random() < 0.1) for _ in range(m)] for _ in range(n)]
            # repeated and summed rows make the rank fall short of the height
            base += [[x ^ y for x, y in zip(base[0], base[-1])], base[0]]
            a = Matrix(GF2, base)
            red, pivots = a.rref()
            assert (red.rows, pivots) == _reference_rref(a)
            assert all(red.rows[r][p] == 1 for r, p in enumerate(pivots))
            assert all(not any(row) for row in red.rows[len(pivots):])

    def test_trusted_matrix_equals_and_hashes_like_a_coerced_one(self):
        cases = [
            (GF2, ((1, 0, 1), (0, 1, 1)), 2, 3),
            (GF(5), ((4, 0), (2, 3), (1, 1)), 3, 2),
            (GF(2147483647), ((2147483646,),), 1, 1),
            (QQ, ((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(2, 7))), 2, 2),
            (GF3, (), 0, 4),
            (QQ, ((), ()), 2, 0),
        ]
        for field, rows, n, m in cases:
            trusted = Matrix._trusted(field, rows, n, m)
            built = Matrix(field, [list(r) for r in rows], n, m)
            assert trusted == built and hash(trusted) == hash(built)
            assert _typed(trusted.rows) == _typed(built.rows)
            with pytest.raises(AttributeError):
                trusted.rows = ()
        # the public constructor still coerces and still rejects ragged rows
        assert Matrix(GF3, [[4, -1]]).rows == ((1, 2),)
        assert Matrix(QQ, [[1]]).rows[0][0].__class__ is Fraction
        with pytest.raises(DimensionMismatch):
            Matrix(GF2, [[1], [1, 0]])
