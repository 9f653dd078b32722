"""Exact linear algebra, plus chain spaces and their matrices.

The coefficient fields, GF(p) and QQ, are defined in ``fields``; this module
computes over them.  Matrices are immutable tuples of field elements; every
reduction is an exact Gaussian elimination with a fixed pivoting rule (first
nonzero entry in row order), so all echelon bases are canonical and
bit-identical across runs.

``Matrix.rref`` is the one elimination, with one arithmetic per field: over
GF(2) each row is a Python int reduced by XOR; over any other GF(p) each row
is updated in place at the pivot row's nonzero columns only, one ``% p`` per
updated entry on plain ints; over QQ (reachable from the library only) it
calls the field's methods on ``Fraction`` entries.  Products list each
right-hand column's nonzero entries once and reduce each output entry once.

One reduction per subspace: ``image`` reduces the spanning vectors, and
``kernel`` reduces the matrix's columns last to first, which leaves the null
vectors already in reduced echelon form; the zero subspace takes none.

The chain-level constructions live here too: ordered simplex bases for the
relative chain groups of a pair at a level, and boundary matrices.  Chain
maps (inclusions between levels, faces, vertex maps) are sparse signed
columns, and ``_move_rows`` is the one routine that applies them to rows.

Bases and boundary matrices are memoised on the pair's total set
(``filtration.memoized``) and keyed on the pair's integer level, the number
of the total's and of the subset's values at or below eps, so every eps
between two critical values shares one entry and no key holds a
``Fraction``.  ``boundary_matrix.cache_info()`` reports the boundary
matrices computed and those alive.
"""

from __future__ import annotations

from functools import reduce
from operator import mul, or_
from typing import Sequence

from .fields import GF, GF2
from .filtration import (
    FiltValue,
    PreservingMap,
    RelativeFilteredPair,
    Simplex,
    _level,
    facets,
    memoized,
    simplex,
)


class SubspaceNotContained(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class Matrix:
    """An immutable exact matrix with an explicit shape and field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Sequence[Sequence], nrows: int | None = None, ncols: int | None = None):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return type(self), (self.field, self.rows, self.nrows, self.ncols)

    @classmethod
    def _trusted(cls, field, rows: tuple[tuple, ...], nrows: int, ncols: int) -> "Matrix":
        """A matrix over a tuple of equal-length tuples of already reduced entries.

        Skips the coercion and shape check of ``__init__``; for results
        computed inside this module only.
        """
        m = object.__new__(cls)
        _set_field(m, field)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_rows(m, rows)
        return m

    @classmethod
    def zero(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._trusted(field, ((field.zero,) * ncols,) * nrows, nrows, ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls._trusted(
            field,
            tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)),
            n,
            n,
        )

    @classmethod
    def from_columns(cls, field, columns: Sequence[Sequence], nrows: int) -> "Matrix":
        if any(len(c) != nrows for c in columns):
            raise DimensionMismatch("column length mismatch")
        rows = tuple(zip(*columns)) if columns else ((),) * nrows
        return cls(field, rows, nrows, len(columns))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    @property
    def columns(self) -> tuple[tuple, ...]:
        return tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, self.columns, self.ncols, self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.ncols != other.nrows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        fld = self.field
        coerce, zero = fld.coerce, fld.zero
        # each column's nonzero (index, entry) pairs, listed once
        cols = [[(k, b) for k, b in enumerate(col) if b] for col in other.columns]
        out = tuple(
            tuple([coerce(sum([row[k] * b for k, b in col], zero)) for col in cols])
            for row in self.rows
        )
        return Matrix._trusted(fld, out, self.nrows, other.ncols)

    def __neg__(self) -> "Matrix":
        fld = self.field
        return Matrix._trusted(fld, tuple(tuple(fld.neg(a) for a in row) for row in self.rows),
                               self.nrows, self.ncols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        return (self * Matrix.from_columns(self.field, [vec], self.ncols)).column(0)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(a == z for row in self.rows for a in row)

    def is_identity(self) -> bool:
        return self.nrows == self.ncols and self == Matrix.identity(self.field, self.nrows)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        if not self.nrows or not self.ncols:
            return self, ()
        fld = self.field
        if fld == GF2:
            rows, pivots = _rref_bits(self.rows, self.ncols)
        else:
            rows, pivots = _rref_rows(fld, self.rows, self.nrows, self.ncols)
        return Matrix._trusted(fld, rows, self.nrows, self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def solve(self, b: Sequence) -> tuple | None:
        """One solution of self @ x = b (free variables zero), or None."""
        sols = self.solve_matrix(Matrix.from_columns(self.field, [b], self.nrows))
        return sols.column(0) if sols is not None else None

    def solve_matrix(self, b: "Matrix") -> "Matrix | None":
        """Solve self @ X = B column-wise; None when any column is insoluble."""
        if b.nrows != self.nrows:
            raise DimensionMismatch("right-hand side has wrong height")
        fld = self.field
        n = self.ncols
        red, pivots = hstack(self, b).rref()
        if pivots and pivots[-1] >= n:
            return None  # a pivot in the augmented block: inconsistent system
        # free variables zero: unknown p takes the right-hand part of its pivot row
        out = [(fld.zero,) * b.ncols] * n
        for r, p in enumerate(pivots):
            out[p] = red.rows[r][n:]
        return Matrix._trusted(fld, tuple(out), n, b.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices invert")
        sol = self.solve_matrix(Matrix.identity(self.field, self.nrows))
        if sol is None or (self * sol) != Matrix.identity(self.field, self.nrows):
            raise DimensionMismatch("matrix is singular")
        return sol

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"

    def pretty(self) -> str:
        """Plain text grid, for debug output."""
        if self.nrows == 0 or self.ncols == 0:
            return f"(empty {self.nrows}x{self.ncols})"
        cells = [[str(a) for a in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


# the slot setters, called directly: about twice as fast as object.__setattr__
_set_field, _set_nrows, _set_ncols, _set_rows = (
    vars(Matrix)[name].__set__ for name in ("field", "nrows", "ncols", "rows")
)

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_ENTRIES = bytes.maketrans(b"01", b"\x00\x01")


def _rref_bits(rows: tuple[tuple, ...], ncols: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """``Matrix.rref`` over GF(2), for a matrix with at least one column.

    Each row is an int whose most significant of ``ncols`` bits is column 0.
    The pivot column is the first with a set bit in a row >= r, found as the
    highest bit of their OR; the pivot row is the first such row, and every
    other row with that bit is cleared by XOR.
    """
    bits = [int(bytes(row).translate(_DIGITS), 2) for row in rows]
    pivots = []
    for r in range(len(bits)):
        rest = reduce(or_, bits[r:], 0)
        if not rest:
            break
        width = rest.bit_length()
        bit = 1 << (width - 1)
        i = r
        while not bits[i] & bit:
            i += 1
        prow = bits[i]
        bits[i] = bits[r]
        bits = [x ^ prow if x & bit else x for x in bits]
        bits[r] = prow
        pivots.append(ncols - width)
    form = f"0{ncols}b"
    return tuple([tuple(format(x, form).encode().translate(_ENTRIES)) for x in bits]), tuple(pivots)


def _rref_rows(fld, rows: tuple[tuple, ...], nrows: int, ncols: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """``Matrix.rref`` row by row, over GF(p) for p > 2 or over QQ.

    ``clear(r, c)`` scales row r to a unit at column c and clears column c
    in every other row.  Over GF(p) it lists the pivot row's nonzero
    ``(column, entry)`` pairs once and updates the other rows in place at
    those columns only, one ``% p`` per updated entry; over QQ it calls the
    field's methods on every entry.
    """
    zero = fld.zero
    rows = [list(r) for r in rows]
    if isinstance(fld, GF):
        p = fld.p

        def clear(r, c):
            # rows r and below are zero left of column c
            prow = rows[r]
            inv = fld.inv(prow[c])
            entries = [(j, inv * prow[j] % p) for j in range(c, ncols) if prow[j]]
            for j, b in entries:
                prow[j] = b
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j, b in entries:
                        row[j] = (row[j] - f * b) % p
    else:
        mul, sub = fld.mul, fld.sub

        def clear(r, c):
            inv = fld.inv(rows[r][c])
            prow = rows[r] = [mul(inv, a) for a in rows[r]]
            for i in range(nrows):
                factor = rows[i][c]
                if i != r and factor != zero:
                    rows[i] = [sub(a, mul(factor, b)) for a, b in zip(rows[i], prow)]

    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        clear(r, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, rows)), tuple(pivots)


def hstack(left: Matrix, right: Matrix) -> Matrix:
    if left.nrows != right.nrows or left.field != right.field:
        raise DimensionMismatch("hstack height mismatch")
    rows = tuple(r1 + r2 for r1, r2 in zip(left.rows, right.rows))
    return Matrix._trusted(left.field, rows, left.nrows, left.ncols + right.ncols)


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.ncols != bottom.ncols or top.field != bottom.field:
        raise DimensionMismatch("vstack width mismatch")
    return Matrix._trusted(top.field, top.rows + bottom.rows, top.nrows + bottom.nrows, top.ncols)


class Subspace:
    """A subspace of a coordinate space, held as a canonical echelon basis.

    The basis matrix is the unique reduced column echelon form of any spanning
    set: unit pivots strictly descending the rows, pivot rows zero elsewhere.
    Two computations of the same subspace are therefore bit-identical.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: Matrix, pivots: tuple[int, ...]):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return type(self), (self.ambient, self.basis, self.pivots)

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls(ambient, Matrix.zero(field, ambient, 0), ())

    @property
    def dim(self) -> int:
        return self.basis.ncols

    @property
    def field(self):
        return self.basis.field

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.basis.solve_matrix(other.basis) is not None

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"

    def intersect(self, other: "Subspace") -> "Subspace":
        _check_same_ambient(self, other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        # solutions of B1 x = B2 y, read off through B1
        ker = kernel(hstack(self.basis, -other.basis))
        coeffs = Matrix._trusted(self.field, ker.basis.rows[: self.dim], self.dim, ker.basis.ncols)
        return image(self.basis * coeffs)

    def sum(self, other: "Subspace") -> "Subspace":
        _check_same_ambient(self, other)
        return image(hstack(self.basis, other.basis))

    def complement_in(self, sub: "Subspace") -> Matrix:
        """Canonical complement of ``sub`` inside self, as basis columns.

        Picks the echelon basis columns of self whose pivot rows are not
        pivot rows of ``sub``; with canonical bases this always splits.
        """
        if not self.contains_subspace(sub):
            raise SubspaceNotContained("complement requires a contained subspace")
        absorbed = set(sub.pivots)
        keep = [j for j, p in enumerate(self.pivots) if p not in absorbed]
        rows = tuple(tuple(row[j] for j in keep) for row in self.basis.rows)
        return Matrix._trusted(self.field, rows, self.ambient, len(keep))


def _echelon(field, vectors: Sequence[Sequence], ambient: int) -> Subspace:
    """The canonical basis of the span of ``vectors``, tuples of ``ambient`` reduced entries.

    The vectors, taken as rows, go through ``Matrix.rref``; its nonzero rows
    are the basis columns, so every subspace is reduced by the one loop.
    """
    red, pivots = Matrix._trusted(field, tuple(vectors), len(vectors), ambient).rref()
    return _from_rows(field, red.rows[: len(pivots)], pivots, ambient)


def _from_rows(field, rows: tuple[tuple, ...], pivots: tuple[int, ...], ambient: int) -> Subspace:
    """The subspace whose canonical basis, taken as rows, is already ``rows``."""
    basis = Matrix._trusted(field, rows, len(rows), ambient).transpose()
    return Subspace(ambient, basis, pivots)


def _check_same_ambient(u: Subspace, v: Subspace):
    if u.ambient != v.ambient or u.field != v.field:
        raise DimensionMismatch("subspaces live in different ambient spaces")


def kernel(m: Matrix) -> Subspace:
    """Null space of a matrix, canonicalized with one reduction per subspace; checks rank-nullity.

    The columns are reduced last to first.  A free column's null vector then
    has its leading 1 on that column and its other nonzero entries only on
    later pivot columns, so the null vectors are already the reduced echelon
    basis, and no second reduction is needed.
    """
    fld, ncols = m.field, m.ncols
    last = ncols - 1
    red, pivots = Matrix._trusted(fld, tuple(row[::-1] for row in m.rows), m.nrows, ncols).rref()
    lead = set(pivots)
    neg, zero = fld.neg, fld.zero
    vectors, free = [], []
    for j in range(ncols):
        c = last - j  # column j of m is column c of the reversed matrix
        if c in lead:
            continue
        vec = [zero] * ncols
        vec[j] = fld.one
        for row, p in zip(red.rows, pivots):
            if p > c:  # a row is zero left of its pivot
                break
            vec[last - p] = neg(row[c])
        vectors.append(tuple(vec))
        free.append(j)
    space = _from_rows(fld, tuple(vectors), tuple(free), ncols)
    if space.dim + len(pivots) != ncols:
        raise AssertionError("rank-nullity failed; reduction is broken")
    return space


def image(m: Matrix) -> Subspace:
    """Column space of a matrix, canonicalized."""
    return _echelon(m.field, m.columns, m.nrows)


def preimage(m: Matrix, target: Subspace) -> Subspace:
    """All x with m @ x inside the target subspace."""
    if target.ambient != m.nrows:
        raise DimensionMismatch("target lives in the wrong ambient space")
    if target.dim == 0:
        return kernel(m)
    ker = kernel(hstack(m, target.basis))
    coeffs = Matrix._trusted(m.field, ker.basis.rows[: m.ncols], m.ncols, ker.basis.ncols)
    return image(coeffs)


def quotient_coords(reps: Matrix, sub: Subspace, vectors: Matrix) -> Matrix | None:
    """Coordinates over ``reps``, modulo ``sub``, of each column of ``vectors``.

    One reduction solves rep-combination + sub-vector = column for every
    column at once; the rep part is unique when the reps are independent
    modulo ``sub``.  None when some column lies outside their span.
    """
    if vectors.ncols == 0:
        return Matrix.zero(reps.field, reps.ncols, 0)
    sol = hstack(reps, sub.basis).solve_matrix(vectors)
    if sol is None:
        return None
    return Matrix._trusted(reps.field, sol.rows[: reps.ncols], reps.ncols, sol.ncols)


# ---------------------------------------------------------------------------
# Chain spaces and chain-level matrices


def chain_space(pair: RelativeFilteredPair, n: int, eps: FiltValue) -> tuple[Simplex, ...]:
    """Ordered simplex basis of the relative chains of a pair at one finite level.

    The basis lists the degree-n simplices present in the total sublevel
    complex but absent from the subset's, in the total's entry order, which
    is canonical simplex order.
    """
    return _chains(pair, n, _level(pair, eps))


@memoized
def _chains(pair: RelativeFilteredPair, n: int, level: tuple[int, int]) -> tuple[Simplex, ...]:
    """``chain_space`` at a level of the pair; the simplices compare int ranks."""
    if n < 0:
        return ()
    top, sub_top = level
    sub_rank = pair[1]._lookup.get
    size = n + 1
    # a simplex the subset lacks has no rank: it takes sub_top, never below it
    return tuple(sk for sk, r in pair[0]._lookup.items()
                 if r < top and len(sk) == size and sub_rank(sk, sub_top) >= sub_top)


def boundary_matrix(pair: RelativeFilteredPair, n: int, eps: FiltValue, field=GF2) -> Matrix:
    """Alternating-sign face map on the relative chain bases at one level.

    Faces absorbed into the subset's sublevel complex project to zero.
    """
    return _boundary(pair, n, _level(pair, eps), field)


@memoized
def _boundary(pair: RelativeFilteredPair, n: int, level: tuple[int, int], field) -> Matrix:
    """``boundary_matrix`` at a level of the pair."""
    rows = _chains(pair, n - 1, level)
    cols = _chains(pair, n, level)
    index = {sk: i for i, sk in enumerate(rows)}
    out = [[field.zero] * len(cols) for _ in range(len(rows))]
    for j, terms in enumerate(_face_columns(cols)):
        for face, sign in terms:
            r = index.get(face)
            if r is not None:
                out[r][j] = field.add(out[r][j], sign)
    return Matrix._trusted(field, tuple(map(tuple, out)), len(rows), len(cols))


boundary_matrix.cache_info = _boundary.memo_info  # read under this name by perfbench/tracer.py


def _inclusion_columns(basis) -> tuple:
    """Each simplex onto itself."""
    return tuple(((sk, 1),) for sk in basis)


def _face_columns(basis) -> tuple:
    """Each simplex onto its facets, with alternating signs."""
    return tuple(tuple((face, (1, -1)[i % 2]) for i, face in enumerate(facets(sk))) for sk in basis)


def chain_map_matrix(f: PreservingMap, n: int, eps: FiltValue) -> tuple:
    """Columns of a vertex map on the domain's relative chains at one level.

    A simplex maps to its image with the sign of the permutation sorting the
    image vertices; a collapsed simplex maps to zero.
    """
    out = []
    for sk in chain_space(f.domain, n, eps):
        images = [f.vertex_map[v] for v in sk]
        inversions = sum(1 for i, a in enumerate(images) for b in images[i + 1:] if a > b)
        distinct = len(set(images)) == len(images)
        out.append(((simplex(images), (1, -1)[inversions % 2]),) if distinct else ())
    return tuple(out)


def _move_rows(m: Matrix, columns, new_basis) -> Matrix:
    """A chain-level map applied to m, whose rows follow a simplex basis.

    The map comes as sparse columns: each row's image as (simplex, +1 or -1)
    terms, with int signs, so the columns serve every field.  Each simplex of
    ``new_basis`` takes the signed sum of the rows sent to it; a term on a
    simplex that ``new_basis`` lacks, because the subset absorbed it, is
    dropped.
    """
    fld = m.field
    index = {sk: i for i, sk in enumerate(new_basis)}
    sent = [[] for _ in new_basis]
    for row, terms in zip(m.rows, columns):
        for sk, sign in terms:
            if sk in index:
                sent[index[sk]].append((sign, row))
    coerce, absent = fld.coerce, (fld.zero,) * m.ncols
    out = []
    for terms in sent:
        if not terms:
            out.append(absent)
        elif len(terms) == 1 and terms[0][0] == 1:
            out.append(terms[0][1])  # one row, unsigned: already reduced
        else:
            signs = [sign for sign, _ in terms]
            out.append(tuple([coerce(sum(map(mul, signs, entries)))
                              for entries in zip(*(row for _, row in terms))]))
    return Matrix._trusted(fld, tuple(out), len(new_basis), m.ncols)
