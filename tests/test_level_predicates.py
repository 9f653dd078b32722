"""Contiguity and star-shapedness, checked once per simplex where it enters,
against references that probe every sublevel complex.

The package checks each simplex of value v <= hi once, at max(v, lo), or at
v without an interval.  The references in ``oracles`` rebuild the complex at
every level where one can change and check all of it.  Intervals include
None, degenerate ones, and endpoints off every value (-1, 3/4 and 3), so
each part of the entry rule decides some verdicts.
"""

import random
from fractions import Fraction

from persax import (
    FilteredSet,
    FiltrationError,
    Interval,
    PreservingMap,
    are_contiguous,
    inclusion,
    is_star_shaped,
    pair_of,
    union,
)
from persax.fuzz import random_filtration, random_pair

from .oracles import reference_contiguous, reference_star_shaped, values_of

ENDPOINTS = tuple(map(Fraction, ("-1", "0", "1/2", "3/4", "1", "2", "3")))
INSTANCES = 2_000


def _interval(rng, allow_none: bool):
    """(lo, hi) as Fractions, or None: a fifth none when allowed, a fifth degenerate."""
    roll = rng.random()
    if allow_none and roll < 0.2:
        return None
    if roll < 0.4:
        return (rng.choice(ENDPOINTS),) * 2
    return tuple(sorted(rng.sample(ENDPOINTS, 2)))


def _coned(rng, x: FilteredSet, apex: str) -> FilteredSet:
    """x with a cone at ``apex`` over every simplex, each cone entering no
    earlier than its base and its faces' cones, at a random later value."""
    values = values_of(x)
    cone = {(apex,): rng.choice(ENDPOINTS[1:-1])}
    for sk in sorted(values, key=lambda sk: (len(sk), sk)):
        faces = [cone[tuple(sorted(set(sk[:i] + sk[i + 1:]) | {apex}))] for i in range(len(sk))]
        cone[tuple(sorted(sk + (apex,)))] = max(values[sk], rng.choice(ENDPOINTS[1:-1]), *faces)
    return FilteredSet(x.vertices | {apex}, {**values, **cone})


def _star_instance(rng):
    x = random_filtration(rng)
    if rng.random() < 0.7:
        x, a = _coned(rng, x, "z"), "z"
    else:
        a = rng.choice(sorted(x.vertices))
    return x, a, _interval(rng, allow_none=False)


def _merge_instance(rng):
    """The inclusion of a random pair (x, a) into (x | y, a | b), and the map
    that sends one vertex of x to another vertex of the union; None when that
    map delays a simplex or leaves the codomain subset."""
    x, a = random_pair(rng, pool=("a", "b", "c", "d"))
    y, b = random_pair(rng, pool=("c", "d", "e", "f"))
    domain, codomain = pair_of(x, a), pair_of(union(x, y), union(a, b))
    u = rng.choice(sorted(x.vertices))
    w = rng.choice(sorted(codomain.total.vertices - {u}))
    try:
        merge = PreservingMap(domain, codomain, {v: w if v == u else v for v in x.vertices})
    except FiltrationError:
        return None
    return inclusion(domain, codomain), merge, _interval(rng, allow_none=True)


def _verdicts(draw, decide, seed: int):
    """The verdicts of ``decide`` on the first INSTANCES instances ``draw`` gives."""
    master = random.Random(seed)
    verdicts = []
    while len(verdicts) < INSTANCES:
        instance = draw(random.Random(master.getrandbits(64)))
        if instance is not None:
            verdicts.append(decide(*instance))
    return verdicts


def _both_verdicts_common(verdicts):
    assert min(verdicts.count(True), verdicts.count(False)) >= 100


def _as_interval(bounds):
    return None if bounds is None else Interval(*bounds)


def test_star_shapedness_matches_probing_every_level():
    def decide(x, a, bounds):
        want = reference_star_shaped(values_of(x), a, bounds)
        assert is_star_shaped(x, a, _as_interval(bounds)) is want, (x.entries, a, bounds)
        return want

    _both_verdicts_common(_verdicts(_star_instance, decide, 61))


def test_contiguity_matches_probing_every_level():
    def decide(f, g, bounds):
        tables = [tuple(map(values_of, p)) for p in (f.domain, f.codomain)]
        want = reference_contiguous(*tables, dict(f.vertex_map), dict(g.vertex_map), bounds)
        assert are_contiguous(f, g, _as_interval(bounds)) is want, (tables, g.vertex_map, bounds)
        assert are_contiguous(g, f, _as_interval(bounds)) is want
        return want

    _both_verdicts_common(_verdicts(_merge_instance, decide, 67))

