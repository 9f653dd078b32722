"""Mechanical verification of the homology axioms on concrete instances.

Each check takes the objects the axiom quantifies over, runs the stated
property exactly, and returns a structured report: pass, fail (with an
independently re-checkable witness), or vacuous when the axiom's hypothesis
is not met by the instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .filtration import (
    FilteredSet,
    Interval,
    PreservingMap,
    RelativeFilteredPair,
    compose,
    critical_values,
    identity_map,
    inclusion,
    intersection,
    pair_of,
    point,
    standard_boundary,
    standard_simplex,
    union,
)
from .formats import instance_tag
from .fuzz import (
    DEFAULT_VALUES,
    random_composable_maps,
    random_contiguous_pair,
    random_excision_parts,
    random_filtration,
    random_pair,
    random_pair_map,
)
from .homology import connecting, homology, induced_map
from .linalg import GF2
from .sequences import are_contiguous, check_exact, les_pair

AXIOM_IDS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "S1", "S2", "S3")

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


class MalformedInstance(ValueError):
    pass


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    instance: str
    verdict: str
    details: tuple[tuple[str, str], ...] = ()
    witness: object = None


def _need(bundle, *keys):
    missing = [k for k in keys if k not in bundle or bundle[k] is None]
    if missing:
        raise MalformedInstance(f"instance is missing {missing}")
    return [bundle[k] for k in keys]


def _degrees(pair: RelativeFilteredPair) -> range:
    return range(0, max(pair.total.dimension, 0) + 2)


def _identity_check(field, **bundle) -> AxiomReport:
    pair, interval = _need(bundle, "pair", "interval")
    ident = identity_map(pair)
    for n in _degrees(pair):
        lm = induced_map(ident, n, interval, field)
        if not lm.is_identity():
            return AxiomReport("A1", bundle["tag"], FAIL,
                               (("degree", str(n)),), lm.matrix.rows)
    return AxiomReport("A1", bundle["tag"], PASS)


def _composition_check(field, **bundle) -> AxiomReport:
    f, g, interval = _need(bundle, "f", "g", "interval")
    if g.codomain != f.domain:
        raise MalformedInstance("maps do not compose")
    fg = compose(f, g)
    for n in _degrees(fg.domain):
        lhs = induced_map(fg, n, interval, field)
        rhs = induced_map(f, n, interval, field).compose(induced_map(g, n, interval, field))
        if lhs.matrix != rhs.matrix:
            return AxiomReport("A2", bundle["tag"], FAIL, (("degree", str(n)),),
                               (lhs.matrix.rows, rhs.matrix.rows))
    return AxiomReport("A2", bundle["tag"], PASS)


def _naturality_check(field, **bundle) -> AxiomReport:
    f, interval = _need(bundle, "f", "interval")
    restricted = f.restrict_to_sub()
    top = max(f.domain.total.dimension, f.codomain.total.dimension, 0) + 1
    for n in range(1, top + 1):
        left = induced_map(restricted, n - 1, interval, field).compose(
            connecting(f.domain, n, interval, field))
        right = connecting(f.codomain, n, interval, field).compose(
            induced_map(f, n, interval, field))
        if left.matrix != right.matrix:
            return AxiomReport("A3", bundle["tag"], FAIL, (("degree", str(n)),),
                               (left.matrix.rows, right.matrix.rows))
    return AxiomReport("A3", bundle["tag"], PASS)


def _exactness_check(field, axiom_id, **bundle) -> AxiomReport:
    pair, interval = _need(bundle, "pair", "interval")
    report = check_exact(les_pair(pair, interval, field))
    if report.ok:
        return AxiomReport(axiom_id, bundle["tag"], PASS,
                           (("nodes", str(len(report.checks))),))
    bad = report.failures()[0]
    return AxiomReport(axiom_id, bundle["tag"], FAIL,
                       (("node", str(bad.index)),), bad.witness)


def _contiguity_check(field, **bundle) -> AxiomReport:
    f, g, interval = _need(bundle, "f", "g", "interval")
    if f.domain != g.domain or f.codomain != g.codomain:
        raise MalformedInstance("maps do not share endpoints")
    if not are_contiguous(f, g, interval):
        return AxiomReport("A5", bundle["tag"], VACUOUS,
                           (("reason", "maps are not contiguous"),))
    top = max(f.domain.total.dimension, 0) + 1
    for n in range(0, top + 1):
        mf = induced_map(f, n, interval, field)
        mg = induced_map(g, n, interval, field)
        if mf.matrix != mg.matrix:
            return AxiomReport("A5", bundle["tag"], FAIL, (("degree", str(n)),),
                               (mf.matrix.rows, mg.matrix.rows))
    return AxiomReport("A5", bundle["tag"], PASS)


def _dimension_check(field, **bundle) -> AxiomReport:
    (alpha,) = _need(bundle, "alpha")
    intervals = bundle.get("intervals")
    if not intervals:
        raise MalformedInstance("dimension check needs intervals")
    pt = pair_of(point(alpha))
    for interval in intervals:
        for n in range(0, 3):
            want = 1 if n == 0 and interval.lo >= pt.total.value(("p",)) else 0
            got = homology(pt, n, interval, field).dim
            if got != want:
                return AxiomReport("A6", bundle["tag"], FAIL,
                                   (("interval", str(interval)), ("degree", str(n)),
                                    ("got", str(got)), ("want", str(want))))
    return AxiomReport("A6", bundle["tag"], PASS)


def excision_instance(x_part: FilteredSet, a: FilteredSet):
    """Assemble the cut-out configuration from a piece and the carved part."""
    total = union(x_part, a)
    overlap = intersection(x_part, a)
    inner = pair_of(x_part, overlap)
    outer = pair_of(total, a)
    return inner, outer


def _excision_check(field, axiom_id, **bundle) -> AxiomReport:
    if axiom_id == "A7":
        x_part, a, interval = _need(bundle, "x_part", "a", "interval")
    else:
        x_part, a, interval = _need(bundle, "x", "y", "interval")
    inner, outer = excision_instance(x_part, a)
    inc = inclusion(inner, outer)
    top = max(outer.total.dimension, 0) + 1
    for n in range(0, top + 1):
        lm = induced_map(inc, n, interval, field)
        if not lm.is_isomorphism():
            return AxiomReport(axiom_id, bundle["tag"], FAIL,
                               (("degree", str(n)), ("shape", str(lm.matrix.shape))))
    return AxiomReport(axiom_id, bundle["tag"], PASS)


def _simplex_dimension_check(field, **bundle) -> AxiomReport:
    (alpha,) = _need(bundle, "alpha")
    intervals = bundle.get("intervals")
    if not intervals:
        raise MalformedInstance("simplex dimension check needs intervals")
    q_max = bundle.get("q_max", 4)
    for q in range(0, q_max + 1):
        solid = pair_of(standard_simplex(q, alpha))
        birth = solid.total.value(sorted(solid.total.vertices)[:1])
        for interval in intervals:
            for k in range(0, q + 2):
                want = 1 if k == 0 and interval.lo >= birth else 0
                got = homology(solid, k, interval, field).dim
                if got != want:
                    return AxiomReport("S3", bundle["tag"], FAIL,
                                       (("q", str(q)), ("degree", str(k)),
                                        ("interval", str(interval)),
                                        ("got", str(got)), ("want", str(want))))
    return AxiomReport("S3", bundle["tag"], PASS)


def random_interval(rng, obj) -> Interval:
    """An interval with endpoints at the object's critical values."""
    vals = critical_values(obj)
    if not vals:
        return Interval(0, 0)
    i = rng.randrange(len(vals))
    j = rng.randrange(i, len(vals))
    return Interval(vals[i], vals[j])


def _boundary_target_maps(rng):
    """Two maps into a hollow simplex boundary; contiguity is not guaranteed."""
    domain = pair_of(random_filtration(rng))
    target = pair_of(standard_boundary(4, 0, tuple(f"t{i}" for i in range(5))))
    verts = sorted(target.total.vertices)
    f, g = (
        PreservingMap(domain, target,
                      {v: rng.choice(verts) for v in sorted(domain.total.vertices)})
        for _ in range(2)
    )
    return f, g


def fuzz_axiom_reports(count: int, seed: int, field=GF2) -> list[AxiomReport]:
    """Seeded random instances for every axiom; deterministic for a seed."""
    master = random.Random(seed)
    reports = []
    for index in range(count):
        rng = random.Random(master.getrandbits(64))
        pair = random_pair(rng)
        interval = random_interval(rng, pair)
        reports.append(verify_axiom("A1", field, pair=pair, interval=interval,
                                    tag=instance_tag(pair)))
        f, g = random_composable_maps(rng)
        reports.append(verify_axiom("A2", field, f=f, g=g,
                                    interval=random_interval(rng, g.domain),
                                    tag=instance_tag((f, g))))
        h = random_pair_map(rng)
        reports.append(verify_axiom("A3", field, f=h,
                                    interval=random_interval(rng, h.domain),
                                    tag=instance_tag(h)))
        reports.append(verify_axiom("A4", field, pair=pair, interval=interval,
                                    tag=instance_tag(pair)))
        if rng.random() < 0.25:
            cf, cg = _boundary_target_maps(rng)
        else:
            cf, cg = random_contiguous_pair(rng)
        reports.append(verify_axiom("A5", field, f=cf, g=cg,
                                    interval=random_interval(rng, cf.domain),
                                    tag=instance_tag((cf, cg))))
        alpha = rng.choice(list(DEFAULT_VALUES))
        ivs = tuple(
            Interval(lo, lo + rng.choice((0, 1, 2)))
            for lo in (alpha - 1, alpha, alpha + 1)
        )
        reports.append(verify_axiom("A6", field, alpha=alpha, intervals=ivs,
                                    tag=f"point-{alpha}"))
        x_part, carved = random_excision_parts(rng)
        cut_interval = random_interval(rng, union(x_part, carved))
        reports.append(verify_axiom("A7", field, x_part=x_part, a=carved,
                                    interval=cut_interval,
                                    tag=instance_tag((x_part, carved))))
        reports.append(verify_axiom("S1", field, x=x_part, y=carved,
                                    interval=cut_interval,
                                    tag=instance_tag((x_part, carved))))
        reports.append(verify_axiom("S2", field, pair=pair, interval=interval,
                                    tag=instance_tag(pair)))
        reports.append(verify_axiom("S3", field, alpha=alpha, intervals=ivs,
                                    q_max=3, tag=f"simplex-{alpha}"))
    return reports


def verify_axiom(axiom_id: str, field=GF2, **bundle) -> AxiomReport:
    """Run one axiom check on an instance bundle.

    The bundle supplies whatever the axiom quantifies over: ``pair`` and
    ``interval`` for identity/exactness; ``f``/``g`` for composition,
    naturality, and contiguity; ``alpha`` and ``intervals`` for the point and
    simplex dimension patterns; ``x_part``/``a`` (or ``x``/``y``) for the two
    cut-out isomorphism checks.  ``tag`` names the instance in the report.
    """
    bundle.setdefault("tag", "-")
    if axiom_id == "A1":
        return _identity_check(field, **bundle)
    if axiom_id == "A2":
        return _composition_check(field, **bundle)
    if axiom_id == "A3":
        return _naturality_check(field, **bundle)
    if axiom_id in ("A4", "S2"):
        return _exactness_check(field, axiom_id, **bundle)
    if axiom_id == "A5":
        return _contiguity_check(field, **bundle)
    if axiom_id == "A6":
        return _dimension_check(field, **bundle)
    if axiom_id in ("A7", "S1"):
        return _excision_check(field, axiom_id, **bundle)
    if axiom_id == "S3":
        return _simplex_dimension_check(field, **bundle)
    raise MalformedInstance(f"unknown axiom id {axiom_id!r}")
