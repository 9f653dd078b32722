"""Homology sequences of pairs, triples, and covers, and their exactness.

Sequences are concrete: nodes are computed groups, arrows are matrices, and
exactness at each interior node is decided by equality of the canonical
echelon bases of the incoming image and the outgoing kernel (equal exactly
when each space lies in the other), never by dimension counting alone.
Failed checks carry re-checkable witness vectors.

Also here: contiguity of maps, contiguous equivalence, homological
triviality, deformation retracts, covers and their triads, and direct-sum
splittings.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .fields import GF2
from .filtration import (
    FilteredSet,
    FiltrationError,
    Interval,
    PreservingMap,
    RelativeFilteredPair,
    UnknownVertex,
    _as_pair,
    _entry_levels,
    compose,
    identity_map,
    inclusion,
    intersection,
    pair_of,
    simplex,
    union,
)
from .homology import (
    DirectSumGroup,
    HomologyGroup,
    LinearMap,
    ClassNotInTarget,
    _degrees,
    connecting,
    homology,
    induced_map,
    reduced_homology,
    zero_group,
)
from .linalg import Matrix, _first_outside, hstack, image, kernel, vstack


class NotARetraction(ValueError):
    pass


class HypothesisViolated(ValueError):
    pass


class _SequenceFields(NamedTuple):
    nodes: tuple
    arrows: tuple[LinearMap, ...]
    labels: tuple[str, ...]
    description: str


class ExactSequence(_SequenceFields):
    """A finite chain of groups and arrows, truncated with a zero cap.

    The fields are those of a ``NamedTuple``; building one, ``_replace``
    included, first checks that the arrows line up with the nodes.
    """

    __slots__ = ()

    def __new__(cls, nodes, arrows, labels, description):
        if len(arrows) != len(nodes) - 1 or len(labels) != len(arrows):
            raise ValueError("nodes, arrows, and labels do not line up")
        for node, arrow in zip(nodes, arrows):
            if arrow.matrix.ncols != node.dim:
                raise ValueError("arrow source dimension mismatch")
        for node, arrow in zip(nodes[1:], arrows):
            if arrow.matrix.nrows != node.dim:
                raise ValueError("arrow target dimension mismatch")
        return tuple.__new__(cls, (nodes, arrows, labels, description))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def dims(self) -> tuple[int, ...]:
        return tuple(node.dim for node in self.nodes)

    def with_arrow(self, index: int, arrow: LinearMap) -> "ExactSequence":
        """Replace one arrow; used to build corrupted negative controls."""
        arrows = list(self.arrows)
        arrows[index] = arrow
        return ExactSequence(self.nodes, tuple(arrows), self.labels, self.description + " (edited)")


class NodeCheck(NamedTuple):
    index: int
    image_dim: int
    kernel_dim: int
    witness: tuple | None = None  # (kind, vector) on failure

    @property
    def ok(self) -> bool:
        return self.witness is None


class ExactnessReport(NamedTuple):
    checks: tuple[NodeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[NodeCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_exact(seq: ExactSequence) -> ExactnessReport:
    """Verify image = kernel at every interior node by equal canonical bases, with witnesses."""
    checks = []
    for i in range(1, len(seq.nodes) - 1):
        incoming = seq.arrows[i - 1]
        outgoing = seq.arrows[i]
        im = image(incoming.matrix)
        ker = kernel(outgoing.matrix)
        witness = None
        if im != ker:
            composite = outgoing.matrix * incoming.matrix
            bad = next((j for j, col in enumerate(composite.columns) if any(col)), None)
            if bad is not None:
                field = composite.field
                unit = tuple(field.one if k == bad else field.zero for k in range(composite.ncols))
                witness = ("image_not_in_kernel", unit)
            else:
                # the image lies in the kernel, so some kernel column lies outside it
                witness = ("kernel_not_in_image", _first_outside(im, ker))
        checks.append(NodeCheck(i, im.dim, ker.dim, witness))
    return ExactnessReport(tuple(checks))


def _default_degree(pair: RelativeFilteredPair) -> int:
    return max(pair.total.dimension + 1, 0)


def _long_sequence(top: int, interval: Interval, field, triangle, delta, kind: str) -> ExactSequence:
    """Degree-n triangles from ``top`` down to 0, joined by ``delta`` and capped by zero.

    ``triangle(n)`` gives three groups and the two (map, label) arrows between
    them; ``delta(n)`` gives the (map, label) arrow from the last degree-n
    group to the first degree-(n-1) group.
    """
    nodes, steps = [], []
    for n in range(top, -1, -1):
        groups, arrows = triangle(n)
        nodes += groups
        steps += arrows
        if n > 0:
            steps.append(delta(n))
    last = nodes[-1]
    nodes.append(zero_group(field, interval))
    steps.append((LinearMap(last, nodes[-1], Matrix.zero(field, 0, last.dim), "0"), "0"))
    arrows, labels = zip(*steps)
    return ExactSequence(tuple(nodes), arrows, labels, f"{kind} sequence over {interval}")


def _inclusion_triangle(inc_i: PreservingMap, c, interval: Interval, field):
    """The triangle H(a) -> H(b) -> H(c) of inc_i: a -> b and b into c, as i_n and j_n."""
    inc_j = inclusion(inc_i.codomain, c)

    def triangle(n):
        i_n = induced_map(inc_i, n, interval, field)
        j_n = induced_map(inc_j, n, interval, field)
        return [i_n.source, i_n.target, j_n.target], [(i_n, f"i_{n}"), (j_n, f"j_{n}")]

    return triangle


def les_pair(pair: RelativeFilteredPair, interval: Interval, field=GF2) -> ExactSequence:
    """The long homology sequence of a pair.

    It starts one degree above the top simplex of the total set, where every
    group is zero, and runs down to the zero cap after degree 0.
    """
    triangle = _inclusion_triangle(inclusion(pair_of(pair.sub), pair_of(pair.total)), pair,
                                   interval, field)
    return _long_sequence(_default_degree(pair), interval, field, triangle,
                          lambda n: (connecting(pair, n, interval, field), f"d_{n}"), "pair")


def _require_filtered_subset(sub: FilteredSet, ambient: FilteredSet, what: str):
    """The pair check of ``pair_of(ambient, sub)``, reworded under the role ``what``."""
    try:
        pair_of(ambient, sub)
    except UnknownVertex:
        raise ValueError(f"{what}: vertices escape the ambient set") from None
    except FiltrationError as exc:
        raise ValueError(f"{what}: value for {exc.simplex} drops below the ambient value") from None


def les_triple(x: FilteredSet, a: FilteredSet, b: FilteredSet, interval: Interval,
               field=GF2) -> ExactSequence:
    """The homology sequence of nested filtered sets x >= a >= b; its pairs reject others."""
    xa = pair_of(x, a)
    xb = pair_of(x, b)
    ab = pair_of(a, b)
    triangle = _inclusion_triangle(inclusion(ab, xb), xa, interval, field)
    inc_quot = inclusion(pair_of(a), ab)

    def delta(n):
        bnd = induced_map(inc_quot, n - 1, interval, field).compose(connecting(xa, n, interval, field))
        return bnd, f"d_{n}"

    return _long_sequence(_default_degree(xa), interval, field, triangle, delta, "triple")


def _cover(x1: FilteredSet, x2: FilteredSet) -> tuple[FilteredSet, FilteredSet, PreservingMap]:
    """A cover's union, its intersection, and its cross inclusion k1:
    (x1, intersection) into (union, x2)."""
    u = union(x1, x2)
    meet = intersection(x1, x2)
    return u, meet, inclusion(pair_of(x1, meet), pair_of(u, x2))


def is_proper_triad(x: FilteredSet, x1: FilteredSet, x2: FilteredSet, interval: Interval,
                    field=GF2) -> bool:
    """Check that x1 and x2 are filtered subsets of x; every such cover is a proper triad.

    Excision holds on chains, level by level.  At each level the union takes
    the lower value of the two sets and the intersection the higher one, so
    (x1, x1 & x2) and (x1 | x2, x2) have the same relative chain basis, the
    simplices of x1 absent from x2, and the same relative boundary.  Both
    cross inclusions are therefore the identity on chains at every level and
    induce isomorphisms on every interval group (Eilenberg & Steenrod 1952,
    ch. I; Munkres 1984, ch. 1), whatever the interval and field.
    """
    _require_filtered_subset(x1, x, "first cover set")
    _require_filtered_subset(x2, x, "second cover set")
    return True


def mayer_vietoris(x1: FilteredSet, x2: FilteredSet, interval: Interval,
                   field=GF2) -> ExactSequence:
    """The Mayer-Vietoris sequence of two filtered sets.

    Nodes run intersection -> sum of the parts -> union, stitched by the
    boundary operator of the cover.  That operator inverts the cross
    inclusion (x1, meet) -> (union, x2), an isomorphism by excision (see
    is_proper_triad).
    """
    u, meet, k1 = _cover(x1, x2)
    meet_abs = pair_of(meet)
    built = {}

    def include(a, b):
        # nested parts make two of these maps one: build each (a, b) once
        if (a, b) not in built:
            built[a, b] = inclusion(a, b)
        return built[a, b]

    inc1 = include(meet_abs, pair_of(x1))
    inc2 = include(meet_abs, pair_of(x2))
    j1 = include(pair_of(x1), pair_of(u))
    j2 = include(pair_of(x2), pair_of(u))
    l1 = include(pair_of(u), pair_of(u, x2))

    def triangle(n):
        i1n, i2n, j1n, j2n = (induced_map(m, n, interval, field) for m in (inc1, inc2, j1, j2))
        summed = DirectSumGroup((i1n.target, i2n.target))
        split = LinearMap(i1n.source, summed, vstack(i1n.matrix, -i2n.matrix), f"(i,-i)_{n}")
        merge = LinearMap(summed, j1n.target, hstack(j1n.matrix, j2n.matrix), f"(j+j)_{n}")
        return [split.source, summed, merge.target], [(split, split.label), (merge, merge.label)]

    def delta(n):
        k1n = induced_map(k1, n, interval, field)
        bnd = (
            connecting(k1.domain, n, interval, field)
            .compose(k1n.inverse())
            .compose(induced_map(l1, n, interval, field))
        )._replace(label=f"D_{n}")
        return bnd, bnd.label

    return _long_sequence(max(u.dimension, 0) + 1, interval, field, triangle, delta,
                          "Mayer-Vietoris")


def triad_sequence(x: FilteredSet, x1: FilteredSet, x2: FilteredSet, interval: Interval,
                   field=GF2) -> ExactSequence:
    """The homology sequence of a cover inside x; its boundary inverts the
    cross inclusion, an isomorphism by excision (see is_proper_triad)."""
    is_proper_triad(x, x1, x2, interval, field)
    u, _, k1 = _cover(x1, x2)
    rel_u = pair_of(x, u)
    # inside the union itself, (x1, meet) -> (x, x2) is the cross inclusion k1
    inc_i = k1 if x == u else inclusion(k1.domain, pair_of(x, x2))
    triangle = _inclusion_triangle(inc_i, rel_u, interval, field)
    l2 = inclusion(pair_of(u), pair_of(u, x2))

    def delta(q):
        bnd = (
            induced_map(k1, q - 1, interval, field)
            .inverse()
            .compose(induced_map(l2, q - 1, interval, field))
            .compose(connecting(rel_u, q, interval, field))
        )
        return bnd, f"d_{q}"

    return _long_sequence(_default_degree(rel_u), interval, field, triangle, delta, "triad")


def _restrict_to_subgroup(lmap: LinearMap, subgroup: HomologyGroup, side: str) -> LinearMap:
    """Re-express a map through a subgroup of its source or target."""
    parent = lmap.source if side == "source" else lmap.target
    embed = parent.coords_of(subgroup.reps)
    if side == "source":
        return LinearMap(subgroup, lmap.target, lmap.matrix * embed, lmap.label + "~")
    solved = embed.solve_matrix(lmap.matrix)
    if solved is None:
        raise ClassNotInTarget("map does not land in the subgroup")
    return LinearMap(lmap.source, subgroup, solved, lmap.label + "~")


def reduced_les_pair(pair: RelativeFilteredPair, interval: Interval,
                     field=GF2) -> ExactSequence:
    """The pair sequence with the degree-0 tail replaced by reduced groups.

    Meaningful when the subset is present at the lower endpoint; away from
    the tail the nodes agree with the unreduced sequence.
    """
    unreduced = _inclusion_triangle(inclusion(pair_of(pair.sub), pair_of(pair.total)), pair,
                                    interval, field)

    def triangle(n):
        groups, arrows = unreduced(n)
        if n > 0:
            return groups, arrows
        (i_0, _), (j_0, _) = arrows
        red_a = reduced_homology(pair.sub, 0, interval, field)
        red_x = reduced_homology(pair.total, 0, interval, field)
        i_0 = _restrict_to_subgroup(_restrict_to_subgroup(i_0, red_a, "source"), red_x, "target")
        j_0 = _restrict_to_subgroup(j_0, red_x, "source")
        return [red_a, red_x, groups[2]], [(i_0, "i~_0"), (j_0, "j~_0")]

    def delta(n):
        bnd = connecting(pair, n, interval, field)
        if n > 1:
            return bnd, f"d_{n}"
        return _restrict_to_subgroup(bnd, reduced_homology(pair.sub, 0, interval, field), "target"), "d~_1"

    return _long_sequence(max(_default_degree(pair), 1), interval, field, triangle, delta,
                          "reduced pair")


def are_contiguous(f: PreservingMap, g: PreservingMap, interval: Interval | None = None) -> bool:
    """Whether the two maps' images always share a common coface.

    At every level, the union of both images of every simplex must be
    present in the codomain complex, and land in the codomain subset whenever
    the simplex lies in the domain subset.  Each simplex of each part is
    checked once, at the level where it enters that part; unqualified
    contiguity (interval None) covers every level.
    """
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("contiguity needs a shared domain and codomain")
    fv, gv = f.vertex_map, g.vertex_map
    for dom, cod in zip(f.domain, f.codomain):  # the total parts, then the subsets
        for sk, level in _entry_levels(dom.entries, interval):
            if cod.value(simplex({fv[v] for v in sk} | {gv[v] for v in sk})) > level:
                return False
    return True


def are_contiguously_equivalent(f: PreservingMap, g: PreservingMap) -> bool:
    """Whether the two maps invert each other up to contiguity."""
    if f.domain != g.codomain or f.codomain != g.domain:
        raise ValueError("maps must point in opposite directions between the same pairs")
    return are_contiguous(compose(g, f), identity_map(f.domain)) and are_contiguous(
        compose(f, g), identity_map(g.domain)
    )


def is_homologically_trivial(obj, interval: Interval, field=GF2) -> bool:
    """All reduced groups vanish (sets); all relative groups vanish (pairs)."""
    pair = _as_pair(obj)
    degrees = _degrees(pair.total)
    if pair.sub.vertices:
        return all(homology(pair, q, interval, field).dim == 0 for q in degrees)
    return all(reduced_homology(pair.total, q, interval, field).dim == 0 for q in degrees)


def deformation_retract_check(pair: RelativeFilteredPair, subpair: RelativeFilteredPair,
                              retraction: Mapping[str, str]) -> bool:
    """Whether the retraction deforms the pair onto the subpair.

    The retraction is a vertex dict, built into a map from the pair to the
    subpair.  It must fix the subpair pointwise; the check is contiguity of
    inclusion-after-retraction with the identity, at every critical value.
    """
    _require_filtered_subset(subpair.total, pair.total, "subpair total")
    _require_filtered_subset(subpair.sub, pair.sub, "subpair subset")
    r = PreservingMap(pair, subpair, retraction)
    for v in subpair.total.vertices:
        if r.vertex_map[v] != v:
            raise NotARetraction(f"vertex {v!r} moves under the retraction")
    return are_contiguous(compose(inclusion(subpair, pair), r), identity_map(pair))


class DirectSumVerdict(NamedTuple):
    total_dim: int
    part_dims: tuple[int, ...]
    joint_rank: int

    @property
    def ok(self) -> bool:
        return self.total_dim == sum(self.part_dims) and self.joint_rank == self.total_dim


def direct_sum_check(parts: Sequence[FilteredSet], a: FilteredSet, q: int,
                     interval: Interval, field=GF2) -> DirectSumVerdict:
    """Check the parts' relative groups sum injectively onto the whole.

    Requires every pairwise intersection of parts to sit inside the common
    subset; the whole set is the union of the parts with the subset.
    """
    parts = list(parts)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            try:
                pair_of(a, intersection(parts[i], parts[j]))
            except ValueError as exc:
                raise HypothesisViolated(
                    f"parts {i} and {j} must overlap inside the subset: {exc}") from None
    whole = a
    for part in parts:
        whole = union(whole, part)
    target_pair = pair_of(whole, a)
    target = homology(target_pair, q, interval, field)
    mats = []
    dims = []
    for part in parts:
        sub_i = intersection(part, a)
        ki = inclusion(pair_of(part, sub_i), target_pair)
        m = induced_map(ki, q, interval, field).matrix
        mats.append(m)
        dims.append(m.ncols)
    joint = Matrix.zero(field, target.dim, 0)
    for m in mats:
        joint = hstack(joint, m)
    return DirectSumVerdict(target.dim, tuple(dims), joint.rank())
