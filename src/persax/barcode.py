"""Persistent cohomology by column reduction, producing birth/death bars.

This is an independent computation path: one global coboundary matrix over the
whole filtration instead of per-interval subspace arithmetic.  It imports
nothing from ``linalg``, only the field objects of ``fields``.  Simplices are
ordered by the rank of their value, then dimension, then vertices.  With field
coefficients, reducing the coboundary matrix in the reverse order gives the
same pairs as reducing the boundary matrix (de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", 2011), and it is
the cheaper direction (Bauer, "Ripser", 2021): degrees go from the bottom up,
each degree from the youngest simplex to the oldest, and a column's pivot is
its oldest remaining cofacet.  With clearing, a simplex that is the pivot of
a column one degree down pairs with that column and its own column is never
built (Chen & Kerber, "Persistent homology computation with a twist", 2011),
so top-degree simplices, which have no cofacets, never become columns.  A
column is kept as its list of cofacets until it must be reduced; over GF(2)
it is then an int bitset reduced by XOR.  Interval homology dimensions are
bar counts, which ``bars_alive`` reads off the sorted barcode by bisection.

Relative pairs reduce to the absolute case by coning the subset off: a fresh
apex enters at the global minimum value, the cone over each subset simplex
enters when the subset absorbs it, and reduced bar counts of the coned
complex match the pair's interval homology in every degree.  The cone is
merged from the rank tables of the pair's two parts, without ranking the
total again.  An absolute pair needs no cone: coning off nothing adds one
point at the global minimum, whose bar the reduced theory removes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .fields import GF2
from .filtration import (
    INF,
    FiltValue,
    FilteredSet,
    Interval,
    RelativeFilteredPair,
    Simplex,
    _as_pair,
    _sorted_values,
    critical_values,
    simplex,
)


class Bar(NamedTuple):
    """A bar; tuple order sorts by degree, then birth, then death (INF last)."""

    degree: int
    birth: FiltValue
    death: FiltValue  # INF when the class never dies


def _cofacets(upper, field) -> dict:
    """Each facet of the simplices ``upper`` mapped to its cofacets among them.

    Cofacets are rows (positions in ``upper``) in ascending order, so the
    first is the oldest; over a field other than GF(2) each comes with its
    coboundary entry, the sign of the facet's omitted position.
    ``combinations`` yields a simplex's facets from the last omitted position
    down, so the t-th facet of a q-simplex omits position q - t.  A simplex
    with no cofacet has no key.
    """
    cofacets = defaultdict(list)
    q = len(upper[0][1]) - 1
    if field == GF2:
        for row, (_, sk) in enumerate(upper):
            for fc in combinations(sk, q):
                cofacets[fc].append(row)
        return cofacets
    signs = [(field.one, field.neg(field.one))[(q - t) & 1] for t in range(q + 1)]
    for row, (_, sk) in enumerate(upper):
        for fc, sign in zip(combinations(sk, q), signs):
            cofacets[fc].append((row, sign))
    return cofacets


def _reduce(column: list, pivots: dict, field):
    """Reduce one coboundary column against the pivot columns of its degree.

    ``column`` lists at least one cofacet, in ascending row order, as
    ``_cofacets`` gives them.  A column that keeps a pivot, its lowest row, is
    stored in ``pivots`` under it, which is returned; a column that vanishes
    returns None.  A column whose first cofacet is free is stored as its
    list.  Only a column that is reduced, or reduces another, is converted:
    over GF(2) to an int bitset reduced by XOR, over any other field to a
    {row: entry} dict.
    """
    low = column[0] if field == GF2 else column[0][0]
    other = pivots.get(low)
    if other is None:
        pivots[low] = column
        return low
    if field == GF2:
        col = _bitset(column)
        while True:
            if type(other) is list:
                other = pivots[low] = _bitset(other)
            col ^= other
            if not col:
                return None
            low = (col & -col).bit_length() - 1
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                return low
    col = dict(column)
    zero = field.zero
    while True:
        if type(other) is list:
            other = pivots[low] = dict(other)
        factor = field.mul(col[low], field.inv(other[low]))
        for r, val in other.items():
            merged = field.sub(col.get(r, zero), field.mul(factor, val))
            if merged == zero:
                col.pop(r, None)
            else:
                col[r] = merged
        if not col:
            return None
        low = min(col)
        other = pivots.get(low)
        if other is None:
            pivots[low] = col
            return low


def _bitset(rows: list[int]) -> int:
    col = 0
    for r in rows:
        col |= 1 << r
    return col


def barcode(x: FilteredSet, field=GF2) -> tuple[Bar, ...]:
    """Bars of an absolute filtered set; zero-length bars are dropped."""
    values = critical_values(x)
    never = len(values)  # the rank of INF
    # per degree, (rank, simplex) in filtration order; rows are positions here
    top = x.dimension
    by_degree: list[list[tuple[int, Simplex]]] = [[] for _ in range(top + 1)]
    for sk, r in x._lookup.items():
        by_degree[len(sk) - 1].append((r, sk))
    for cells in by_degree:
        cells.sort(key=itemgetter(0))  # stable: the lookup is in simplex order

    bars: list[tuple[int, int, int]] = []  # (degree, birth rank, death rank)
    cleared: set[int] = set()  # rows of degree q that are pivots of degree q - 1
    for q, cells in enumerate(by_degree):
        if q == top:  # no cofacets: each simplex not cleared is essential
            bars += [(q, r, never) for j, (r, _) in enumerate(cells) if j not in cleared]
            break
        upper = by_degree[q + 1]
        cofacets = _cofacets(upper, field)
        pivots: dict = {}
        for j in range(len(cells) - 1, -1, -1):
            if j in cleared:
                continue
            r, sk = cells[j]
            column = cofacets.get(sk)
            low = None if column is None else _reduce(column, pivots, field)
            if low is None:
                bars.append((q, r, never))
            elif upper[low][0] != r:
                bars.append((q, r, upper[low][0]))
        cleared = set(pivots)
        del cofacets, pivots  # before the next degree builds its own
    values += (INF,)
    make = Bar._make  # no Python-level __new__ per bar
    return tuple(make((q, values[b], values[d])) for q, b, d in sorted(bars))


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

    The cone is merged from the parts' tables: each value object of either
    part has its rank among the pair's values, the total's entries are kept
    as they are, and one sort puts them in simplex order with the new ones.
    """
    total, sub = pair
    if not total.entries:
        return total
    values, rank_of_id = _sorted_values(total._critical + sub._critical)
    apex = _fresh_apex(total.vertices)
    # _sorted_values keeps the first object of each value and the total's
    # come first, so every entry carries the object at its rank, as _fill needs
    entries = [*total.entries, ((apex,), values[0])]
    entries += [(simplex((*sk, apex)), values[rank_of_id[id(val)]]) for sk, val in sub.entries]
    entries.sort(key=itemgetter(0))
    lookup = {sk: rank_of_id[id(val)] for sk, val in entries}
    return FilteredSet._sorted(total.vertices | {apex}, values, lookup, tuple(entries))


def pair_barcode(pair_or_set, field=GF2) -> tuple[Bar, ...]:
    """Bars whose interval counts equal the pair's interval homology dims.

    Coning off an empty subset adds one point at the global minimum, whose
    bar ``reduced_barcode`` removes again, so an absolute pair needs no cone.
    """
    pair = _as_pair(pair_or_set)
    if not pair.sub.entries:
        return barcode(pair.total, field)
    return reduced_barcode(cone_off_subset(pair), field)


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
