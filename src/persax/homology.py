"""Interval-indexed homology of filtered pairs and the maps between groups.

For an interval [e, e'], the group in degree n is the image of the level-e
cycles inside the level-e' chains, modulo the level-e' boundaries meeting
that image.  Groups carry explicit representative cycles; maps between groups
are matrices over those representatives.  Everything is exact over the chosen
coefficient field and fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .filtration import (
    FiltValue,
    FilteredSet,
    Interval,
    PreservingMap,
    RelativeFilteredPair,
    absolute,
    critical_values,
    fin,
    point,
    validate_map,
)
from .linalg import (
    GF2,
    ChainSpace,
    Matrix,
    Subspace,
    boundary_matrix,
    chain_space,
    chain_map_matrix,
    hstack,
    image,
    kernel,
)


class ClassNotInTarget(ValueError):
    """A pushed-forward class misses the target group; signals a bug."""


class NotRepresentableAtLowerEndpoint(ValueError):
    """A connecting image admits no representative among lower-endpoint cycles."""


class VertexNotPresent(ValueError):
    pass


def _as_pair(obj) -> RelativeFilteredPair:
    return obj if isinstance(obj, RelativeFilteredPair) else absolute(obj)


@lru_cache(maxsize=None)
def _cycles(pair: RelativeFilteredPair, n: int, eps: FiltValue, fld) -> Subspace:
    return kernel(boundary_matrix(pair, n, eps, fld))


@lru_cache(maxsize=None)
def _boundaries(pair: RelativeFilteredPair, n: int, eps: FiltValue, fld) -> Subspace:
    return image(boundary_matrix(pair, n + 1, eps, fld))


@dataclass(frozen=True)
class HomologyGroup:
    """A computed interval homology group with chosen representative cycles.

    ``reps`` holds chain vectors (columns, in the upper-endpoint basis) whose
    classes form a basis of the group.  ``cycles`` is the image of the
    lower-endpoint cycle space; ``boundaries`` the full upper-endpoint
    boundary space.  ``coords_of`` expresses any chain vector's class in the
    chosen basis, when the class lies in the group's span.
    """

    pair: RelativeFilteredPair
    degree: int
    interval: Interval
    field: object
    space: ChainSpace
    cycles: Subspace
    boundaries: Subspace
    reps: Matrix

    @property
    def dim(self) -> int:
        return self.reps.ncols

    def coords_of(self, chain_vector) -> tuple:
        """Basis coordinates of a chain vector's class.

        Solves rep-combination + boundary = vector; the rep part is unique
        because representative classes are independent modulo boundaries.
        """
        sol = hstack(self.reps, self.boundaries.basis).solve(tuple(chain_vector))
        if sol is None:
            raise ClassNotInTarget("chain's class lies outside the group")
        return tuple(sol[: self.dim])

    def rep_vector(self, coords) -> tuple:
        """Chain vector representing the class with the given coordinates."""
        return self.reps.apply(tuple(coords))

    def describe(self) -> str:
        return f"H_{self.degree}{self.interval} dim {self.dim}"


@dataclass(frozen=True)
class LinearMap:
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


@dataclass(frozen=True)
class DirectSumGroup:
    """Formal direct sum node used by Mayer-Vietoris sequences."""

    parts: tuple

    @property
    def dim(self) -> int:
        return sum(p.dim for p in self.parts)

    def describe(self) -> str:
        return " (+) ".join(p.describe() for p in self.parts)


@lru_cache(maxsize=None)
def _homology_cached(pair: RelativeFilteredPair, n: int, interval: Interval, fld) -> HomologyGroup:
    space = chain_space(pair, n, interval.hi)
    if n < 0:
        empty = Subspace.zero(fld, space.dim)
        return HomologyGroup(pair, n, interval, fld, space, empty, empty,
                             Matrix.zero(fld, space.dim, 0))
    # inclusion_matrix times the lower-endpoint cycles, as the row selection it
    # is: each upper-endpoint simplex takes its lower-endpoint row, if it has one
    lower = _cycles(pair, n, interval.lo, fld).basis
    rows = dict(zip(chain_space(pair, n, interval.lo).basis, lower.rows))
    absent = (fld.zero,) * lower.ncols
    persisted = image(Matrix(fld, [rows.get(sk, absent) for sk in space.basis], space.dim, lower.ncols))
    bnd = _boundaries(pair, n, interval.hi, fld)
    dying = persisted.intersect(bnd)
    reps = persisted.complement_in(dying)
    return HomologyGroup(pair, n, interval, fld, space, persisted, bnd, reps)


def homology(pair_or_set, n: int, interval: Interval, field=GF2) -> HomologyGroup:
    """The degree-n homology group of a pair (or absolute set) over an interval."""
    return _homology_cached(_as_pair(pair_or_set), n, interval, field)


def zero_group(field=GF2, interval: Interval | None = None) -> HomologyGroup:
    """A formal zero group, used to cap sequences."""
    interval = interval if interval is not None else Interval(0, 0)
    return homology(absolute(point(interval.lo)), -1, interval, field)


def induced_map(f: PreservingMap, n: int, interval: Interval, field=GF2) -> LinearMap:
    """Map on homology induced by a filtration-preserving map.

    Pushes each source representative through the chain map at the upper
    endpoint and reads the result off in the target's basis.
    """
    source = homology(f.domain, n, interval, field)
    target = homology(f.codomain, n, interval, field)
    push = chain_map_matrix(f, n, interval.hi, field)
    cols = [target.coords_of(push.apply(source.reps.column(j))) for j in range(source.dim)]
    return LinearMap(source, target, Matrix.from_columns(field, cols, target.dim), "f*")


def connecting(pair: RelativeFilteredPair, n: int, interval: Interval, field=GF2) -> LinearMap:
    """Degree-lowering boundary map from the pair's homology to the subset's.

    Each relative representative is lifted to an absolute chain at the upper
    endpoint; its boundary is a cycle supported on the subset, and its class
    must be representable by lower-endpoint subset cycles.
    """
    if n < 1:
        raise ValueError("the connecting map needs degree >= 1")
    source = homology(pair, n, interval, field)
    target = homology(absolute(pair.sub), n - 1, interval, field)
    x_abs = absolute(pair.total)
    abs_space = chain_space(x_abs, n, interval.hi)
    abs_index = {sk: i for i, sk in enumerate(abs_space.basis)}
    bnd = boundary_matrix(x_abs, n, interval.hi, field)
    lower = chain_space(x_abs, n - 1, interval.hi)
    sub_space = chain_space(absolute(pair.sub), n - 1, interval.hi)
    sub_basis = set(sub_space.basis)
    sub_positions = []
    for sk in sub_space.basis:
        pos = lower.index(sk)
        if pos is None:
            raise AssertionError("subset simplex missing from the ambient complex")
        sub_positions.append(pos)
    cols = []
    for j in range(source.dim):
        rel = source.reps.column(j)
        lift = [field.zero] * abs_space.dim
        for i, sk in enumerate(source.space.basis):
            lift[abs_index[sk]] = rel[i]
        dchain = bnd.apply(tuple(lift))
        if any(
            dchain[i] != field.zero and sk not in sub_basis
            for i, sk in enumerate(lower.basis)
        ):
            raise AssertionError("boundary of a relative cycle escaped the subset")
        vec = tuple(dchain[pos] for pos in sub_positions)
        try:
            cols.append(target.coords_of(vec))
        except ClassNotInTarget as exc:
            raise NotRepresentableAtLowerEndpoint(
                f"degree {n} boundary class has no lower-endpoint representative"
            ) from exc
    return LinearMap(source, target, Matrix.from_columns(field, cols, target.dim), "d")


def _min_value(x: FilteredSet) -> FiltValue | None:
    vals = critical_values(x)
    return vals[0] if vals else None


def constant_map_to_point(x: FilteredSet, name: str = "p") -> PreservingMap:
    """Collapse onto a single vertex born at the minimum filtration value."""
    alpha = _min_value(x)
    if alpha is None:
        raise ValueError("an empty filtered set has no constant map")
    target = absolute(point(alpha, name))
    return validate_map({v: name for v in x.vertices}, absolute(x), target)


def reduced_homology(x: FilteredSet, n: int, interval: Interval, field=GF2) -> HomologyGroup:
    """Kernel of the collapse onto a minimum-value point; equals homology for n > 0."""
    if _min_value(x) is None:
        return zero_group(field, interval)
    group = homology(absolute(x), n, interval, field)
    if n != 0:
        return group
    aug = induced_map(constant_map_to_point(x), 0, interval, field)
    ker = kernel(aug.matrix)
    reps = group.reps * ker.basis
    return HomologyGroup(group.pair, n, interval, field, group.space,
                         group.cycles, group.boundaries, reps)


def point_class(g, x_vertex: str, x: FilteredSet, interval: Interval, field=GF2) -> tuple:
    """Class of one vertex, scaled by g, in the degree-0 group's coordinates."""
    alpha = x.value((x_vertex,))
    if alpha > interval.lo:
        raise VertexNotPresent(f"vertex {x_vertex!r} is born after {interval.lo}")
    f = validate_map({"p": x_vertex}, absolute(point(alpha)), absolute(x))
    pushed = induced_map(f, 0, interval, field)
    return pushed.matrix.apply((field.coerce(g),))


def h0_decomposition(x: FilteredSet, x_vertex: str, interval: Interval, field=GF2) -> tuple[int, int]:
    """Split degree-0 homology as reduced part plus the chosen vertex's line.

    Returns (reduced dimension, 1) after checking the two spans are
    independent and fill the group.
    """
    group = homology(absolute(x), 0, interval, field)
    reduced = reduced_homology(x, 0, interval, field)
    pc = point_class(1, x_vertex, x, interval, field)
    line = image(Matrix.from_columns(field, [pc], group.dim))
    red_coords = [group.coords_of(reduced.reps.column(j)) for j in range(reduced.dim)]
    red_span = image(Matrix.from_columns(field, red_coords, group.dim))
    if line.intersect(red_span).dim != 0:
        raise AssertionError("vertex class meets the reduced part")
    if group.dim != reduced.dim + 1:
        raise AssertionError("degree-0 homology does not split as expected")
    return (reduced.dim, 1)


@dataclass(frozen=True)
class CoefficientGroup:
    """The theory's value on a one-point set born at ``birth``."""

    interval: Interval
    birth: FiltValue
    field: object
    group: HomologyGroup
    generator_vertex: str = "p"

    @property
    def dim(self) -> int:
        return self.group.dim


def coefficient_group(interval: Interval, alpha, field=GF2, name: str = "p") -> CoefficientGroup:
    alpha = fin(alpha)
    group = homology(absolute(point(alpha, name)), 0, interval, field)
    expected = 1 if interval.lo >= alpha else 0
    if group.dim != expected:
        raise AssertionError("one-point group has unexpected dimension")
    return CoefficientGroup(interval, alpha, field, group, name)


@dataclass(frozen=True)
class BettiGrid:
    """Interval homology dimensions over all critical-value endpoint pairs."""

    pair: RelativeFilteredPair
    degree: int
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
    return BettiGrid(pair, n, vals, tuple(rows))
