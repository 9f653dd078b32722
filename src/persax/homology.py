"""Interval-indexed homology of filtered pairs and the maps between groups.

For an interval [e, e'], the group in degree n is the image of the level-e
cycles inside the level-e' chains, modulo the level-e' boundaries meeting
that image.  Groups carry explicit representative cycles; maps between groups
are matrices over those representatives.  A group holds only what was
computed; the pair, degree, interval and field it was computed for stay with
the caller.  Everything is exact over the chosen coefficient field and fully
deterministic.  The echelon bases belong to ``linalg``, which gives the
persisted cycles and the representatives; this module reads no pivots.

Groups, and the cycle and boundary spaces they are reduced from, are
memoised on the pair's total set (``filtration.memoized``), so they go when
that set goes.  They are keyed on the pair's integer levels at the
endpoints, as ``linalg`` keys chains, so the intervals whose endpoints lie
between the same critical values share one group.
``_homology_cached.cache_info()`` reports the groups computed and those
alive.  A pair with no chains at any level, such as ``EMPTY_SET``'s, gets
its zero group without a memo.
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import GF2
from .filtration import (
    EMPTY_SET,
    FiltValue,
    FilteredSet,
    Interval,
    PreservingMap,
    RelativeFilteredPair,
    _as_pair,
    _level,
    critical_values,
    fin,
    memoized,
    pair_of,
    point,
)
from .linalg import (
    Matrix,
    Subspace,
    _boundary,
    _chains,
    _face_columns,
    _included,
    _inclusion_columns,
    _independent_columns,
    _move_rows,
    chain_space,
    chain_map_matrix,
    image,
    kernel,
    quotient_coords,
)


class ClassNotInTarget(ValueError):
    """A pushed-forward class misses the target group; signals a bug."""


class NotRepresentableAtLowerEndpoint(ValueError):
    """A connecting image admits no representative among lower-endpoint cycles."""


class VertexNotPresent(ValueError):
    pass


@memoized
def _cycles(pair: RelativeFilteredPair, n: int, level: tuple[int, int], fld) -> Subspace:
    return kernel(_boundary(pair, n, level, fld))


@memoized
def _boundaries(pair: RelativeFilteredPair, n: int, level: tuple[int, int], fld) -> Subspace:
    return image(_boundary(pair, n + 1, level, fld))


class HomologyGroup(NamedTuple):
    """A computed interval homology group with chosen representative cycles.

    ``simplices`` is the upper-endpoint chain basis, as ``chain_space``
    orders it.  ``reps`` holds chain vectors (columns over ``simplices``)
    whose classes form a basis of the group.  ``cycles`` is the image of the
    lower-endpoint cycle space; ``boundaries`` the full upper-endpoint
    boundary space.  ``coords_of`` expresses chain vectors' classes in the
    chosen basis, when the classes lie in the group's span.
    """

    simplices: tuple
    cycles: Subspace
    boundaries: Subspace
    reps: Matrix

    @property
    def dim(self) -> int:
        return self.reps.ncols

    def coords_of(self, chain_vectors: Matrix) -> Matrix:
        """Basis coordinates of the class of each chain-vector column."""
        coords = quotient_coords(self.reps, self.boundaries, chain_vectors)
        if coords is None:
            raise ClassNotInTarget("chain's class lies outside the group")
        return coords


class LinearMap(NamedTuple):
    """A homomorphism between computed groups, as a matrix over their bases."""

    source: object
    target: object
    matrix: Matrix
    label: str = ""

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.matrix.nrows != self.matrix.ncols:
            raise ValueError("maps do not compose")
        return LinearMap(other.source, self.target, self.matrix * other.matrix,
                         f"{self.label}.{other.label}".strip("."))

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "LinearMap":
        return LinearMap(self.target, self.source, self.matrix.inverse(), f"{self.label}^-1")


class DirectSumGroup(NamedTuple):
    """Formal direct sum node used by Mayer-Vietoris sequences."""

    parts: tuple

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)


def _zero_group(fld) -> HomologyGroup:
    empty = Subspace.zero(fld, 0)
    return HomologyGroup((), empty, empty, Matrix.zero(fld, 0, 0))


@memoized
def _homology_cached(pair: RelativeFilteredPair, n: int, lo: tuple[int, int], hi: tuple[int, int],
                     fld) -> HomologyGroup:
    """The group over every interval from level lo to level hi of the pair."""
    simplices = _chains(pair, n, hi)
    if not simplices:  # no chains: the zero group, with no reduction
        return _zero_group(fld)
    # the lower-endpoint cycles, moved into the upper-endpoint chains; a
    # persisted cycle dies when it lies in the boundaries plus the later ones
    persisted = _included(_cycles(pair, n, lo, fld), _chains(pair, n, lo), simplices)
    bnd = _boundaries(pair, n, hi, fld)
    return HomologyGroup(simplices, persisted, bnd, _independent_columns(persisted, bnd))


_homology_cached.cache_info = _homology_cached.memo_info  # read under this name by perfbench/tracer.py


def _degrees(*sets: FilteredSet, start: int = 0) -> range:
    """Degrees from ``start`` through one past the largest dimension of the
    sets, counting an empty set as dimension 0."""
    return range(start, max(0, *(s.dimension for s in sets)) + 2)


def homology(pair_or_set, n: int, interval: Interval, field=GF2) -> HomologyGroup:
    """The degree-n homology group of a pair (or absolute set) over an interval."""
    pair = _as_pair(pair_or_set)
    if n < 0 or not pair[0]._critical:  # no chains at any level
        return _zero_group(field)
    lo, hi = interval
    return _homology_cached(pair, n, _level(pair, lo), _level(pair, hi), field)


def zero_group(field, interval: Interval) -> HomologyGroup:
    """A formal zero group, used to cap sequences."""
    return homology(pair_of(EMPTY_SET), -1, interval, field)


def induced_map(f: PreservingMap, n: int, interval: Interval, field=GF2) -> LinearMap:
    """Map on homology induced by a filtration-preserving map.

    Moves the source representatives through the vertex map's chain columns
    at the upper endpoint and reads the result off in the target's basis.
    """
    source = homology(f.domain, n, interval, field)
    target = homology(f.codomain, n, interval, field)
    pushed = _move_rows(source.reps, chain_map_matrix(f, n, interval.hi), target.simplices)
    return LinearMap(source, target, target.coords_of(pushed), "f*")


def connecting(pair: RelativeFilteredPair, n: int, interval: Interval, field=GF2) -> LinearMap:
    """Degree-lowering boundary map from the pair's homology to the subset's.

    Each relative representative's rows move onto their faces in the total's
    chains at the upper endpoint; the boundary is a cycle supported on the
    subset, and its class must be representable by lower-endpoint subset cycles.
    """
    if n < 1:
        raise ValueError("the connecting map needs degree >= 1")
    source = homology(pair, n, interval, field)
    target = homology(pair_of(pair.sub), n - 1, interval, field)
    lower = chain_space(pair_of(pair.total), n - 1, interval.hi)
    dchains = _move_rows(source.reps, _face_columns(source.simplices), lower)
    sub_basis = set(target.simplices)
    if not sub_basis <= set(lower):
        raise AssertionError("subset simplex missing from the ambient complex")
    if any(any(row) for sk, row in zip(lower, dchains.rows) if sk not in sub_basis):
        raise AssertionError("boundary of a relative cycle escaped the subset")
    try:
        coords = target.coords_of(_move_rows(dchains, _inclusion_columns(lower), target.simplices))
    except ClassNotInTarget as exc:
        raise NotRepresentableAtLowerEndpoint(
            f"degree {n} boundary class has no lower-endpoint representative"
        ) from exc
    return LinearMap(source, target, coords, "d")


def _min_value(x: FilteredSet) -> FiltValue | None:
    vals = critical_values(x)
    return vals[0] if vals else None


def constant_map_to_point(x: FilteredSet) -> PreservingMap:
    """Collapse onto the single vertex ``p`` born at the minimum filtration value."""
    alpha = _min_value(x)
    if alpha is None:
        raise ValueError("an empty filtered set has no constant map")
    return PreservingMap(pair_of(x), pair_of(point(alpha)), {v: "p" for v in x.vertices})


def reduced_homology(x: FilteredSet, n: int, interval: Interval, field=GF2) -> HomologyGroup:
    """Kernel of the collapse onto a minimum-value point; equals homology for n > 0."""
    if _min_value(x) is None:
        return zero_group(field, interval)
    group = homology(pair_of(x), n, interval, field)
    if n != 0:
        return group
    aug = induced_map(constant_map_to_point(x), 0, interval, field)
    ker = kernel(aug.matrix)
    reps = group.reps * ker.basis
    return HomologyGroup(group.simplices, group.cycles, group.boundaries, reps)


def point_class(g, x_vertex: str, x: FilteredSet, interval: Interval, field=GF2) -> tuple:
    """Class of one vertex, scaled by g, in the degree-0 group's coordinates."""
    alpha = x.value((x_vertex,))
    if alpha > interval.lo:
        raise VertexNotPresent(f"vertex {x_vertex!r} is born after {interval.lo}")
    f = PreservingMap(pair_of(point(alpha)), pair_of(x), {"p": x_vertex})
    pushed = induced_map(f, 0, interval, field)
    return pushed.matrix.apply((field.coerce(g),))


def h0_decomposition(x: FilteredSet, x_vertex: str, interval: Interval, field=GF2) -> tuple[int, int]:
    """Split degree-0 homology as reduced part plus the chosen vertex's line.

    Returns (reduced dimension, 1) after checking the two spans are
    independent and fill the group.
    """
    group = homology(pair_of(x), 0, interval, field)
    reduced = reduced_homology(x, 0, interval, field)
    pc = point_class(1, x_vertex, x, interval, field)
    line = image(Matrix.from_columns(field, [pc], group.dim))
    red_span = image(group.coords_of(reduced.reps))
    if line.intersect(red_span).dim != 0:
        raise AssertionError("vertex class meets the reduced part")
    if group.dim != reduced.dim + 1:
        raise AssertionError("degree-0 homology does not split as expected")
    return (reduced.dim, 1)


def coefficient_group(interval: Interval, alpha, field=GF2) -> HomologyGroup:
    """The theory's value on a one-point set born at ``alpha``."""
    alpha = fin(alpha)
    group = homology(pair_of(point(alpha)), 0, interval, field)
    expected = 1 if interval.lo >= alpha else 0
    if group.dim != expected:
        raise AssertionError("one-point group has unexpected dimension")
    return group


class BettiGrid(NamedTuple):
    """Interval homology dimensions over all critical-value endpoint pairs."""

    values: tuple[FiltValue, ...]
    entries: tuple[tuple[int | None, ...], ...]  # entries[i][j], None below diagonal

    def value(self, i: int, j: int) -> int:
        out = self.entries[i][j]
        if out is None:
            raise ValueError("grid entries need i <= j")
        return out


def betti_grid(pair_or_set, n: int, field=GF2) -> BettiGrid:
    """Tabulate interval homology dimensions over critical endpoint pairs."""
    pair = _as_pair(pair_or_set)
    vals = critical_values(pair)
    rows = []
    for i, lo in enumerate(vals):
        row: list[int | None] = [None] * len(vals)
        for j in range(i, len(vals)):
            row[j] = homology(pair, n, Interval(lo, vals[j]), field).dim
        rows.append(tuple(row))
    return BettiGrid(vals, tuple(rows))
