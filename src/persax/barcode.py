"""Classical column reduction producing birth/death bars.

This is an independent computation path: one global boundary matrix over the
whole filtration instead of per-interval subspace arithmetic, and none of the
``linalg`` kernels.  Simplices are ordered by the rank of their value, then
dimension, then vertices.  The matrix is reduced degree by degree from the
top, each degree left to right, with clearing: a simplex that is the low of a
column one degree up pairs with that column and its own column is never
built (Chen & Kerber, "Persistent homology computation with a twist", 2011).
Over GF(2) a column is an int bitset reduced by XOR.  Interval homology
dimensions are then bar counts, which ``bars_alive`` reads off the sorted
barcode by bisection.

Relative pairs reduce to the absolute case by coning the subset off: a fresh
apex enters at the global minimum value, the cone over each subset simplex
enters when the subset absorbs it, and reduced bar counts of the coned
complex match the pair's interval homology in every degree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _reduce(faces: list[int], pivots: dict, field):
    """Reduce one boundary column against the pivot columns of its degree.

    ``faces`` are the row indices of the column's faces in omitted-position
    order.  A column that keeps a low is stored in ``pivots`` under that low,
    which is returned; a column that vanishes returns None.  Over GF(2) a
    column is an int bitset reduced by XOR; over any other field it is a
    {row: entry} dict.
    """
    if field == GF2:
        col = 0
        for r in faces:
            col ^= 1 << r
        while col:
            low = col.bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                return low
            col ^= other
        return None
    col = {}
    sign = field.one
    for r in faces:
        col[r] = sign
        sign = field.neg(sign)
    while col:
        low = max(col)
        other = pivots.get(low)
        if other is None:
            pivots[low] = col
            return low
        factor = field.mul(col[low], field.inv(other[low]))
        for r, val in other.items():
            merged = field.sub(col.get(r, field.zero), field.mul(factor, val))
            if merged == field.zero:
                col.pop(r, None)
            else:
                col[r] = merged
    return None


def barcode(x: FilteredSet, field=GF2) -> tuple[Bar, ...]:
    """Bars of an absolute filtered set; zero-length bars are dropped."""
    values = critical_values(x)
    never = len(values)  # the rank of INF
    # per degree, (rank, simplex) in filtration order; rows are positions here
    top = x.dimension
    by_degree: list[list[tuple[int, Simplex]]] = [[] for _ in range(top + 1)]
    for r, size, sk in sorted((r, len(sk), sk) for sk, r in x._lookup.items()):
        by_degree[size - 1].append((r, sk))
    row = {sk: i for cells in by_degree for i, (_, sk) in enumerate(cells)}

    bars: list[tuple[int, int, int]] = []  # (degree, birth rank, death rank)
    cleared: dict[int, int] = {}  # row of degree q -> rank of the column it pairs with
    for q in range(top, -1, -1):
        cells = by_degree[q]
        pivots: dict = {}
        lows: dict[int, int] = {}
        for j, (r, sk) in enumerate(cells):
            death = cleared.get(j)
            if death is not None:
                if death != r:
                    bars.append((q, r, death))
                continue
            low = None
            if q:
                faces = [row[sk[:i] + sk[i + 1 :]] for i in range(q + 1)]
                low = _reduce(faces, pivots, field)
            if low is None:
                bars.append((q, r, never))
            else:
                lows[low] = r
        cleared = lows
    values += (INF,)
    return tuple(Bar(q, values[b], values[d]) for q, b, d in sorted(bars))


def reduced_barcode(x: FilteredSet, field=GF2) -> tuple[Bar, ...]:
    """Bars of the reduced theory: one never-dying degree-0 bar removed.

    The removed bar is born at the global minimum value, where the very first
    vertex founds the oldest component; the sorted barcode starts there.
    """
    bars = list(barcode(x, field))
    if not bars:
        return ()
    oldest = Bar(0, bars[0].birth, INF)
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
    whose reduced homology matches the pair's relative homology.  Both parts
    are validated and the subset's values dominate, so the cone is a valid
    set by construction, and its values are exactly the pair's.
    """
    vals = critical_values(pair.total)
    if not vals:
        return pair.total
    apex = _fresh_apex(pair.total.vertices)
    values = dict(pair.total.entries)
    values[(apex,)] = vals[0]
    for sk, val in pair.sub.entries:
        values[simplex(sk + (apex,))] = val
    return FilteredSet._trusted(pair.total.vertices | {apex}, values)


def pair_barcode(pair_or_set, field=GF2) -> tuple[Bar, ...]:
    """Bars whose interval counts equal the pair's interval homology dims."""
    return reduced_barcode(cone_off_subset(_as_pair(pair_or_set)), field)


def bars_alive(bars, degree: int, interval: Interval) -> int:
    """Number of bars of one degree containing the whole interval.

    ``bars`` is the sorted tuple that ``barcode``, ``reduced_barcode`` or
    ``pair_barcode`` returns.  Bisection finds the degree's bars born by the
    lower endpoint, then, within each birth, those dying after the upper one.
    """
    lo, hi = interval
    i = bisect_left(bars, (degree,))
    born = bisect_right(bars, (degree, lo, INF), i)
    alive = 0
    while i < born:
        birth = bars[i].birth
        end = bisect_right(bars, (degree, birth, INF), i, born)
        alive += end - bisect_right(bars, (degree, birth, hi), i, end)
        i = end
    return alive
