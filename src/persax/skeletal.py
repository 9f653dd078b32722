"""A second, independent construction of interval homology through skeleta.

Chain groups in degree q are the interval homology of the pair formed by the
q-skeleton and the (q-1)-skeleton, each merged with the subset; they come
with one generator per surviving q-simplex.  The boundary operator is the
composite of the connecting map with the quotient onto the next chain group.
Homology of this chain complex must agree with the direct construction, and
the agreement is witnessed by an explicit invertible matrix built from the
inclusion maps, not just by dimension counts.

Skeleton pairs, chain groups and boundaries are memoised on the pair's
total set (``filtration.memoized``), so they go when that set goes.  Each
level, the q-skeleton merged with the subset, is built once per pair, so
that the skeleton pairs of degrees q and q + 1 share it, and their memos.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .fields import GF2
from .filtration import (
    FilteredSet,
    Interval,
    OracleMismatch,
    PreservingMap,
    RelativeFilteredPair,
    Simplex,
    UnknownVertex,
    closed_star,
    inclusion,
    memoized,
    pair_of,
    skeleton,
    standard_boundary,
    standard_simplex,
    union,
)
from .homology import (
    HomologyGroup,
    LinearMap,
    connecting,
    homology,
    induced_map,
)
from .linalg import (Matrix, Subspace, SubspaceNotContained, _dense, _inclusion_columns, image,
                     kernel, quotient_coords)


class _Skeleton(NamedTuple):
    """The degree-q skeleton pair and the interval-independent inclusions on it."""

    pair: RelativeFilteredPair
    to_direct: PreservingMap  # (q-skeleton, subset) into the original pair
    to_chains: PreservingMap  # (q-skeleton, subset) into the skeleton pair
    quotient: PreservingMap  # the absolute q-skeleton onto the skeleton pair


@memoized
def _merged_skeleton(pair: RelativeFilteredPair, q: int) -> FilteredSet:
    """The q-skeleton of the total merged with the subset; below degree 0,
    the subset on the total's vertices."""
    return union(skeleton(pair.total, max(q, -1)), pair.sub)


@memoized
def _skeleton(pair: RelativeFilteredPair, q: int) -> _Skeleton:
    total = _merged_skeleton(pair, q)
    sub = _merged_skeleton(pair, q - 1)
    skel = RelativeFilteredPair(total, sub)
    mid = RelativeFilteredPair(total, pair.sub)
    return _Skeleton(skel, inclusion(mid, pair), inclusion(mid, skel),
                     inclusion(pair_of(total), skel))


def skeletal_pair(pair: RelativeFilteredPair, q: int) -> RelativeFilteredPair:
    """The pair (q-skeleton merged with subset, (q-1)-skeleton merged with subset)."""
    return _skeleton(pair, q).pair


class SkeletalChainGroup(NamedTuple):
    """Degree-q chains with one generator per surviving q-simplex.

    A q-simplex generates when it is present by the lower endpoint and the
    subset has not absorbed it by the upper endpoint.  The underlying group
    is computed by the direct construction on the skeleton pair, and its
    canonical representatives must be exactly the generator unit vectors.
    """

    generators: tuple[Simplex, ...]
    group: HomologyGroup

    @property
    def dim(self) -> int:
        return len(self.generators)


def skeletal_chain_group(pair: RelativeFilteredPair, q: int, interval: Interval,
                         field=GF2) -> SkeletalChainGroup:
    return _chain_group(pair, q, interval, field)


@memoized
def _chain_group(pair: RelativeFilteredPair, q: int, interval: Interval, field) -> SkeletalChainGroup:
    if q < 0 or q > pair.total.dimension:
        group = homology(pair, -1, interval, field)
        return SkeletalChainGroup((), group)
    generators = tuple(
        sk
        for sk, val in pair.total.entries
        if len(sk) == q + 1 and val <= interval.lo and pair.sub.value(sk) > interval.hi
    )
    group = homology(skeletal_pair(pair, q), q, interval, field)
    expected = _dense(field, _inclusion_columns(generators), group.simplices)
    if group.reps != expected:
        raise OracleMismatch("chain group representatives are not the generator simplices")
    return SkeletalChainGroup(generators, group)


def generator(g, vertices: Sequence[str], pair: RelativeFilteredPair, interval: Interval,
              field=GF2) -> tuple:
    """The chain generated by a vertex sequence, in generator coordinates.

    Pushes the canonical class of an abstract ordered simplex through the map
    sending its i-th vertex to the i-th sequence entry.  Repeated vertices,
    unsupported images, and absorbed images all give zero.
    """
    for v in vertices:
        if v not in pair.total.vertices:
            raise UnknownVertex(f"{v!r} is not a vertex")
    q = len(vertices) - 1
    chains = skeletal_chain_group(pair, q, interval, field)
    alpha = pair.total.value(set(vertices))
    if not alpha.is_finite:
        return (field.zero,) * chains.dim
    model = standard_simplex(q, alpha)
    model_pair = RelativeFilteredPair(model, standard_boundary(q, alpha))
    ordered = tuple(sorted(model.vertices))
    f = PreservingMap(model_pair, skeletal_pair(pair, q), dict(zip(ordered, vertices)))
    pushed = induced_map(f, q, interval, field)
    source = pushed.source
    if source.dim == 0:
        return (field.zero,) * chains.dim
    return pushed.matrix.apply((field.coerce(g),))


def skeletal_boundary(pair: RelativeFilteredPair, q: int, interval: Interval,
                      field=GF2) -> Matrix:
    """Boundary matrix between chain groups, over generator coordinates.

    Built from the connecting map of the skeleton pair followed by the
    quotient onto the next skeleton pair, never from a face formula; the
    face formula is a theorem about this matrix, not its definition.
    """
    return _skeletal_boundary(pair, q, interval, field)


@memoized
def _skeletal_boundary(pair: RelativeFilteredPair, q: int, interval: Interval, field) -> Matrix:
    source = skeletal_chain_group(pair, q, interval, field)
    target = skeletal_chain_group(pair, q - 1, interval, field)
    if q < 1 or source.dim == 0:
        return Matrix.zero(field, target.dim, source.dim)
    alpha = connecting(skeletal_pair(pair, q), q, interval, field)
    jmat = induced_map(_skeleton(pair, q - 1).quotient, q - 1, interval, field)
    return jmat.matrix * alpha.matrix


class SkeletalHomology(NamedTuple):
    """Homology of the skeletal chain complex in one degree."""

    cycles: Subspace
    boundaries: Subspace
    reps: Matrix  # generator-coordinate columns spanning the homology

    @property
    def dim(self) -> int:
        return self.reps.ncols

    def coords_of(self, chain_vectors: Matrix) -> Matrix:
        """Basis coordinates of the class of each generator-coordinate column."""
        coords = quotient_coords(self.reps, self.boundaries, chain_vectors)
        if coords is None:
            raise OracleMismatch("vector's class lies outside the skeletal homology")
        return coords


def skeletal_homology(pair: RelativeFilteredPair, q: int, interval: Interval,
                      field=GF2) -> SkeletalHomology:
    """Kernel of the boundary modulo its image, over generator coordinates."""
    if q < 0:
        empty = Subspace.zero(field, 0)
        return SkeletalHomology(empty, empty, Matrix.zero(field, 0, 0))
    cycles = kernel(skeletal_boundary(pair, q, interval, field))
    bounds = image(skeletal_boundary(pair, q + 1, interval, field))
    try:
        reps = cycles.complement_in(bounds)
    except SubspaceNotContained:
        raise OracleMismatch("boundary image is not made of cycles") from None
    return SkeletalHomology(cycles, bounds, reps)


def direct_to_skeletal(pair: RelativeFilteredPair, q: int, interval: Interval,
                       field=GF2) -> LinearMap:
    """The explicit isomorphism from the direct groups to the skeletal ones.

    Each direct class is lifted through the (surjective) inclusion of the
    q-skeleton pair, pushed into the chain group, where it must be a cycle,
    and read off in skeletal homology coordinates.  Any failure along the
    way, or a non-invertible result, is a broken oracle.
    """
    direct = homology(pair, q, interval, field)
    skel = skeletal_homology(pair, q, interval, field)
    if q < 0:
        return LinearMap(direct, skel, Matrix.zero(field, 0, 0), "iso")
    maps = _skeleton(pair, q)
    to_direct = induced_map(maps.to_direct, q, interval, field)
    to_chains = induced_map(maps.to_chains, q, interval, field)
    lifts = to_direct.matrix.solve_matrix(Matrix.identity(field, direct.dim))
    if lifts is None:
        raise OracleMismatch("skeleton inclusion fails to reach a direct class")
    # reps and boundaries span the cycles, so this also fails off the cycles
    matrix = skel.coords_of(to_chains.matrix * lifts)
    if not matrix.is_invertible():
        raise OracleMismatch(
            f"direct/skeletal comparison failed in degree {q}: "
            f"{direct.dim} vs {skel.dim}"
        )
    return LinearMap(direct, skel, matrix, "iso")


def incidence_iso(q: int, alpha, interval: Interval, field=GF2,
                  vertices: Sequence[str] | None = None) -> LinearMap:
    """The canonical degree-lowering isomorphism between simplex pairs.

    Goes from the relative group of the solid q-simplex modulo its boundary
    to that of its last-q-vertices face, through the boundary sphere modulo
    the closed star of the first vertex.
    """
    if q < 1:
        raise ValueError("the incidence isomorphism needs degree >= 1")
    solid = standard_simplex(q, alpha, vertices)
    verts = tuple(sorted(solid.vertices))
    sphere = standard_boundary(q, alpha, verts)
    star = closed_star(q, alpha, verts[0], verts)
    face_verts = verts[1:]
    face = standard_simplex(q - 1, alpha, face_verts)
    face_sphere = standard_boundary(q - 1, alpha, face_verts)

    src = RelativeFilteredPair(solid, sphere)
    mid = RelativeFilteredPair(sphere, star)
    dst = RelativeFilteredPair(face, face_sphere)

    bnd = connecting(src, q, interval, field)
    into_mid = induced_map(inclusion(pair_of(sphere), mid), q - 1, interval, field)
    from_face = induced_map(inclusion(dst, mid), q - 1, interval, field)
    matrix = from_face.matrix.inverse() * into_mid.matrix * bnd.matrix
    return LinearMap(bnd.source, from_face.source, matrix, "incidence")
