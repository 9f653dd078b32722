"""Mechanical verification of the homology axioms on concrete instances.

Each check takes the objects the axiom quantifies over, runs the stated
property exactly, and returns its verdict: pass, fail (with an
independently re-checkable witness), or vacuous when the axiom's hypothesis
is not met by the instance.  One table names each axiom id's check and
instance keys, and ``verify_axiom`` turns a verdict into a report.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .fields import GF2
from .filtration import (
    FilteredSet,
    compose,
    identity_map,
    inclusion,
    intersection,
    pair_of,
    point,
    standard_simplex,
    union,
)
from .homology import _degrees, connecting, homology, induced_map
from .sequences import are_contiguous, check_exact, les_pair

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


class MalformedInstance(ValueError):
    pass


class AxiomReport(NamedTuple):
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


def _first_failing_degree(degrees: range, failure):
    """FAIL at the first degree where ``failure(n)`` gives ``(details, witness)``,
    with the degree ahead of those details; PASS when it gives None throughout."""
    for n in degrees:
        found = failure(n)
        if found is not None:
            details, witness = found
            return FAIL, (("degree", str(n)), *details), witness
    return PASS, (), None


def _unequal(left, right):
    """Both matrices as the witness when two maps differ; None when they agree."""
    if left.matrix == right.matrix:
        return None
    return (), (left.matrix.rows, right.matrix.rows)


def _identity_check(field, pair, interval):
    ident = identity_map(pair)

    def failure(n):
        lm = induced_map(ident, n, interval, field)
        return None if lm.is_identity() else ((), lm.matrix.rows)

    return _first_failing_degree(_degrees(pair.total), failure)


def _composition_check(field, f, g, interval):
    if g.codomain != f.domain:
        raise MalformedInstance("maps do not compose")
    fg = compose(f, g)
    return _first_failing_degree(_degrees(fg.domain.total), lambda n: _unequal(
        induced_map(fg, n, interval, field),
        induced_map(f, n, interval, field).compose(induced_map(g, n, interval, field))))


def _naturality_check(field, f, interval):
    restricted = f.restrict_to_sub()
    return _first_failing_degree(
        _degrees(f.domain.total, f.codomain.total, start=1), lambda n: _unequal(
            induced_map(restricted, n - 1, interval, field).compose(
                connecting(f.domain, n, interval, field)),
            connecting(f.codomain, n, interval, field).compose(
                induced_map(f, n, interval, field))))


def _exactness_check(field, pair, interval):
    report = check_exact(les_pair(pair, interval, field))
    if report.ok:
        return PASS, (("nodes", str(len(report.checks))),), None
    bad = report.failures()[0]
    return FAIL, (("node", str(bad.index)),), bad.witness


def _contiguity_check(field, f, g, interval):
    if f.domain != g.domain or f.codomain != g.codomain:
        raise MalformedInstance("maps do not share endpoints")
    if not are_contiguous(f, g, interval):
        return VACUOUS, (("reason", "maps are not contiguous"),), None
    return _first_failing_degree(_degrees(f.domain.total), lambda n: _unequal(
        induced_map(f, n, interval, field), induced_map(g, n, interval, field)))


def _dimension_check(field, alpha, intervals):
    if not intervals:
        raise MalformedInstance("dimension check needs intervals")
    pt = pair_of(point(alpha))
    for interval in intervals:
        for n in range(0, 3):
            want = 1 if n == 0 and interval.lo >= pt.total.value(("p",)) else 0
            got = homology(pt, n, interval, field).dim
            if got != want:
                return FAIL, (("interval", str(interval)), ("degree", str(n)),
                              ("got", str(got)), ("want", str(want))), None
    return PASS, (), None


def excision_instance(x_part: FilteredSet, a: FilteredSet):
    """Assemble the cut-out configuration from a piece and the carved part."""
    total = union(x_part, a)
    overlap = intersection(x_part, a)
    inner = pair_of(x_part, overlap)
    outer = pair_of(total, a)
    return inner, outer


def _excision_check(field, x_part, a, interval):
    inner, outer = excision_instance(x_part, a)
    inc = inclusion(inner, outer)

    def failure(n):
        lm = induced_map(inc, n, interval, field)
        return None if lm.is_isomorphism() else ((("shape", str(lm.matrix.shape)),), None)

    return _first_failing_degree(_degrees(outer.total), failure)


def _simplex_dimension_check(field, alpha, intervals):
    """Solid simplices of dimensions 0 to 3, each in degrees 0 to q + 1."""
    if not intervals:
        raise MalformedInstance("simplex dimension check needs intervals")
    for q in range(0, 4):
        solid = pair_of(standard_simplex(q, alpha))
        birth = solid.total.value(sorted(solid.total.vertices)[:1])
        for interval in intervals:
            for k in range(0, q + 2):
                want = 1 if k == 0 and interval.lo >= birth else 0
                got = homology(solid, k, interval, field).dim
                if got != want:
                    return FAIL, (("q", str(q)), ("degree", str(k)),
                                  ("interval", str(interval)),
                                  ("got", str(got)), ("want", str(want))), None
    return PASS, (), None


class _Axiom(NamedTuple):
    check: Callable
    keys: tuple[str, ...]


# Each axiom id with its check and instance keys.  A check takes the field
# and the values of ``keys`` in order, and returns ``(verdict, details, witness)``.
_AXIOMS = {
    "A1": _Axiom(_identity_check, ("pair", "interval")),
    "A2": _Axiom(_composition_check, ("f", "g", "interval")),
    "A3": _Axiom(_naturality_check, ("f", "interval")),
    "A4": _Axiom(_exactness_check, ("pair", "interval")),
    "A5": _Axiom(_contiguity_check, ("f", "g", "interval")),
    "A6": _Axiom(_dimension_check, ("alpha", "intervals")),
    "A7": _Axiom(_excision_check, ("x_part", "a", "interval")),
    "S1": _Axiom(_excision_check, ("x", "y", "interval")),
    "S2": _Axiom(_exactness_check, ("pair", "interval")),
    "S3": _Axiom(_simplex_dimension_check, ("alpha", "intervals")),
}

AXIOM_IDS = tuple(_AXIOMS)


def verify_axiom(axiom_id: str, field=GF2, *, _runs=None, **bundle) -> AxiomReport:
    """Run one axiom check on an instance bundle.

    The bundle supplies the instance keys that the id's row of ``_AXIOMS``
    names, and ``tag`` names the instance in the report.  An unknown id, or
    a key missing from the bundle or outside its row, is a MalformedInstance.
    ``_runs``, a dict that the caller keeps while the bundles' objects live,
    lets rows that name the same check on the same objects share one run.
    """
    row = _AXIOMS.get(axiom_id)
    if row is None:
        raise MalformedInstance(f"unknown axiom id {axiom_id!r}")
    tag = bundle.pop("tag", "-")
    extra = sorted(set(bundle) - set(row.keys))
    if extra:
        raise MalformedInstance(f"{axiom_id} does not take {extra}")
    args = _need(bundle, *row.keys)
    runs = {} if _runs is None else _runs
    key = (row.check, field, *map(id, args))
    if key not in runs:
        runs[key] = row.check(field, *args)
    verdict, details, witness = runs[key]
    return AxiomReport(axiom_id, tag, verdict, details, witness)
