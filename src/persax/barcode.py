"""Classical one-pass column reduction producing birth/death bars.

This is an independent computation path: one global boundary matrix over the
whole filtration, reduced left to right, instead of per-interval subspace
arithmetic.  Interval homology dimensions are then bar counts.

Relative pairs reduce to the absolute case by coning the subset off: a fresh
apex enters at the global minimum value, the cone over each subset simplex
enters when the subset absorbs it, and reduced bar counts of the coned
complex match the pair's interval homology in every degree.
"""

from __future__ import annotations

from typing import NamedTuple

from .filtration import (
    INF,
    FiltValue,
    FilteredSet,
    Interval,
    RelativeFilteredPair,
    Simplex,
    _as_pair,
    critical_values,
    simplex,
)
from .linalg import GF2


class Bar(NamedTuple):
    """A bar; tuple order sorts by degree, then birth, then death (INF last)."""

    degree: int
    birth: FiltValue
    death: FiltValue  # INF when the class never dies


def _filtration_order(x: FilteredSet) -> list[tuple[Simplex, FiltValue]]:
    return sorted(x.entries, key=lambda item: (item[1], len(item[0]), item[0]))


def barcode(x: FilteredSet, field=GF2) -> tuple[Bar, ...]:
    """Bars of an absolute filtered set; zero-length bars are dropped."""
    ordered = _filtration_order(x)
    index = {sk: i for i, (sk, _) in enumerate(ordered)}
    columns: list[dict[int, object]] = []
    for sk, _ in ordered:
        col: dict[int, object] = {}
        if len(sk) > 1:
            sign = field.one
            for i in range(len(sk)):
                face = sk[:i] + sk[i + 1 :]
                col[index[face]] = sign
                sign = field.neg(sign)
        columns.append(col)

    low_owner: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            owner = low_owner.get(low)
            if owner is None:
                low_owner[low] = j
                pairs.append((low, j))
                break
            factor = field.mul(col[low], field.inv(columns[owner][low]))
            for r, val in columns[owner].items():
                merged = field.sub(col.get(r, field.zero), field.mul(factor, val))
                if merged == field.zero:
                    col.pop(r, None)
                else:
                    col[r] = merged

    bars = []
    killed = set()
    for i, j in pairs:
        killed.add(j)
        killed.add(i)
        birth = ordered[i][1]
        death = ordered[j][1]
        if birth != death:
            bars.append(Bar(len(ordered[i][0]) - 1, birth, death))
    for j, (sk, val) in enumerate(ordered):
        if j not in killed and not columns[j]:
            bars.append(Bar(len(sk) - 1, val, INF))
    return tuple(sorted(bars))


def reduced_barcode(x: FilteredSet, field=GF2) -> tuple[Bar, ...]:
    """Bars of the reduced theory: one never-dying degree-0 bar removed.

    The removed bar is born at the global minimum value, where the very first
    vertex founds the oldest component.
    """
    bars = list(barcode(x, field))
    vals = critical_values(x)
    if not vals:
        return tuple(bars)
    oldest = Bar(0, vals[0], INF)
    if oldest not in bars:
        raise AssertionError("no essential component bar at the global minimum")
    bars.remove(oldest)
    return tuple(bars)


def _fresh_apex(vertices) -> str:
    name = "w"
    while name in vertices:
        name += "_"
    return name


def cone_off_subset(pair: RelativeFilteredPair) -> FilteredSet:
    """Adjoin an apex joined to the subset, entering at the global minimum.

    Sublevel by sublevel, the result is the total complex with the subset's
    complex coned off (or plus a disjoint apex while the subset is empty),
    whose reduced homology matches the pair's relative homology.
    """
    vals = critical_values(pair.total)
    if not vals:
        return pair.total
    apex = _fresh_apex(pair.total.vertices)
    values = dict(pair.total.entries)
    values[(apex,)] = vals[0]
    for sk, val in pair.sub.entries:
        values[simplex(sk + (apex,))] = val
    return FilteredSet(pair.total.vertices | {apex}, values)


def pair_barcode(pair_or_set, field=GF2) -> tuple[Bar, ...]:
    """Bars whose interval counts equal the pair's interval homology dims."""
    return reduced_barcode(cone_off_subset(_as_pair(pair_or_set)), field)


def bars_alive(bars, degree: int, interval: Interval) -> int:
    """Number of bars of one degree containing the whole interval."""
    lo, hi = interval
    return sum(1 for b in bars if b.degree == degree and b.birth <= lo and hi < b.death)
