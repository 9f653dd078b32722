"""Seeded random instance generation for the verification suites.

Everything is driven by an explicit ``random.Random``; the same seed always
produces the same instances, byte for byte, on every platform.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .filtration import (
    FilteredSet,
    PreservingMap,
    RelativeFilteredPair,
    facets,
    fin,
    inclusion,
    pair_of,
    standard_simplex,
)

DEFAULT_POOL = ("a", "b", "c", "d", "e")
DEFAULT_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def random_filtration(rng: random.Random, pool: Sequence[str] = DEFAULT_POOL,
                      max_simplices: int = 12, max_span: int = 4,
                      values: Sequence[Fraction] = DEFAULT_VALUES) -> FilteredSet:
    """Random monotone filtration built by inserting simplices with all faces.

    Each insertion adds a random simplex at a random value and lowers faces as
    needed, which preserves closure and monotonicity by construction.
    """
    table: dict[tuple, Fraction] = {}
    attempts = rng.randint(1, 6)
    for _ in range(attempts):
        k = rng.randint(1, min(max_span, len(pool)))
        sigma = tuple(sorted(rng.sample(list(pool), k)))
        val = rng.choice(list(values))
        closure = [face for size in range(1, k + 1) for face in combinations(sigma, size)]
        if len(table) + sum(face not in table for face in closure) > max_simplices:
            continue
        for key in closure:
            prev = table.get(key)
            if prev is None or val < prev:
                table[key] = val
    return FilteredSet(pool, table)


def restrict_to_vertices(x: FilteredSet, keep: Sequence[str]) -> FilteredSet:
    """The full filtered subset on a vertex subset, values unchanged.

    Faces of a kept simplex are kept, at the same values, so the restriction
    of a valid set is valid by construction and is not checked again.
    """
    keep_set = frozenset(keep)
    values = {sk: val for sk, val in x.entries if keep_set.issuperset(sk)}
    return FilteredSet._trusted(keep_set, values)


def random_subset_of(rng: random.Random, x: FilteredSet) -> FilteredSet:
    """A random filtered subset of x: restricted support, values bumped up."""
    verts = sorted(x.vertices)
    keep = [v for v in verts if rng.random() < 0.7]
    restricted = restrict_to_vertices(x, keep)
    style = rng.random()
    if style < 0.25 or not restricted.entries:
        return restricted
    bumped = {}
    bumps = sorted(fin(v) for v in DEFAULT_VALUES)
    # faces first, so each simplex can rise to dominate its bumped faces
    for sk, val in sorted(restricted.entries, key=lambda e: (len(e[0]), e[0])):
        bump = rng.choice(bumps)
        candidate = max(val, bump)
        for face in facets(sk):
            if face in bumped and bumped[face] > candidate:
                candidate = bumped[face]
        bumped[sk] = candidate
    return FilteredSet(keep, bumped)


def random_pair(rng: random.Random, **kw) -> RelativeFilteredPair:
    x = random_filtration(rng, **kw)
    roll = rng.random()
    if roll < 0.15:
        return pair_of(x)
    if roll < 0.25:
        return pair_of(x, x)
    return pair_of(x, random_subset_of(rng, x))


def random_triple(rng: random.Random) -> tuple[FilteredSet, FilteredSet, FilteredSet]:
    """Nested filtered sets x >= a >= b."""
    x = random_filtration(rng)
    a = random_subset_of(rng, x)
    b = random_subset_of(rng, a)
    return x, a, b


def random_cover(rng: random.Random) -> tuple[FilteredSet, FilteredSet]:
    """Two vertex-restricted subsets whose vertex sets cover the whole."""
    x = random_filtration(rng)
    verts = sorted(x.vertices)
    first = [v for v in verts if rng.random() < 0.6]
    second = [v for v in verts if v not in first or rng.random() < 0.4]
    second = sorted(set(second) | (set(verts) - set(first)))
    if not first:
        first = verts[:1]
    if not second:
        second = verts[-1:]
    return restrict_to_vertices(x, first), restrict_to_vertices(x, second)


def random_excision_parts(rng: random.Random) -> tuple[FilteredSet, FilteredSet]:
    """Two overlapping filtered sets to assemble into a cut-out instance."""
    x_part = random_filtration(rng, pool=("a", "b", "c", "d"))
    carved = random_filtration(rng, pool=("c", "d", "e", "f"))
    return x_part, carved


def _simplex_target(rng: random.Random, sub_needed: bool) -> RelativeFilteredPair:
    """A solid simplex at value 0 with a solid face as subset: a cone target."""
    total_verts = tuple(f"t{i}" for i in range(rng.randint(1, 3)))
    total = standard_simplex(len(total_verts) - 1, 0, total_verts)
    if sub_needed:
        keep = total_verts[: rng.randint(1, len(total_verts))]
        sub = standard_simplex(len(keep) - 1, 0, keep)
        return RelativeFilteredPair(total, sub)
    return pair_of(total)


def random_map_to_cone(rng: random.Random, domain: RelativeFilteredPair,
                       target: RelativeFilteredPair | None = None):
    """A random map into a solid simplex; always valid, and any two such maps
    with the same target are contiguous."""
    if target is None:
        target = _simplex_target(rng, bool(domain.sub.vertices))
    sub_verts = sorted(target.sub.vertices) or sorted(target.total.vertices)
    all_verts = sorted(target.total.vertices)
    vm = {}
    for v in sorted(domain.total.vertices):
        choices = sub_verts if v in domain.sub.vertices else all_verts
        vm[v] = rng.choice(choices)
    return PreservingMap(domain, target, vm)


def random_contiguous_pair(rng: random.Random):
    """Two contiguous maps with the same endpoints."""
    domain = random_pair(rng)
    if rng.random() < 0.3:
        f = random_map_to_cone(rng, domain)
        return f, f
    target = _simplex_target(rng, bool(domain.sub.vertices))
    return (random_map_to_cone(rng, domain, target),
            random_map_to_cone(rng, domain, target))


def random_composable_maps(rng: random.Random):
    """Maps g then f that compose, drawn from a few reliable shapes."""
    style = rng.random()
    if style < 0.5:
        x, a, b = random_triple(rng)
        g = inclusion(pair_of(a, b), pair_of(x, b))
        f = inclusion(pair_of(x, b), pair_of(x, a))
        return f, g
    domain = random_pair(rng)
    mid_target = _simplex_target(rng, bool(domain.sub.vertices))
    g = random_map_to_cone(rng, domain, mid_target)
    f = random_map_to_cone(rng, mid_target)
    return f, g


def random_pair_map(rng: random.Random):
    """A single valid map between pairs, mixing inclusions and collapses."""
    style = rng.random()
    if style < 0.4:
        x, a, b = random_triple(rng)
        return inclusion(pair_of(x, b), pair_of(x, a))
    if style < 0.7:
        x, a, _ = random_triple(rng)
        return inclusion(pair_of(a), pair_of(x))
    domain = random_pair(rng)
    return random_map_to_cone(rng, domain)
