"""Independent brute-force oracles used to freeze expected values.

The interval oracle works over GF(2) with chains represented as frozensets of
simplices (addition = symmetric difference) and subgroups enumerated
exhaustively.  The reference barcode is the textbook reduction of the
boundary matrix, over GF(p) or the rationals; the package reduces the dual,
coboundary matrix.  The reference chain map is the dense matrix of a vertex
map; the package moves rows through sparse signed columns.  Nothing imports
the package, so agreement with the main path is a genuine cross-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


INF = None  # absent simplex


def sublevel(values: dict, eps) -> set:
    return {sk for sk, v in values.items() if v is not None and v <= eps}


def chain_boundary(chain: frozenset) -> frozenset:
    out = set()
    for sk in chain:
        for i in range(len(sk)):
            face = sk[:i] + sk[i + 1 :]
            if face:
                out ^= {face}
    return frozenset(out)


def relative_project(chain: frozenset, absorbed: set) -> frozenset:
    return frozenset(sk for sk in chain if sk not in absorbed)


def all_chains(basis: list) -> list:
    out = []
    for r in range(len(basis) + 1):
        for combo in itertools.combinations(basis, r):
            out.append(frozenset(combo))
    return out


def span_size(vectors) -> int:
    span = {frozenset()}
    for v in vectors:
        if v not in span:
            span |= {v ^ s for s in span}
    return len(span)


def brute_interval_dim(x_values: dict, a_values: dict, n: int, lo, hi) -> int:
    """Interval homology dimension over GF(2) by exhaustive enumeration.

    Enumerates the relative cycles at the lower endpoint, pushes them to the
    upper endpoint, enumerates the boundaries there, and counts the quotient
    by subgroup sizes.  Only usable for tiny instances.
    """
    if n < 0:
        return 0
    k_lo, k_hi = sublevel(x_values, lo), sublevel(x_values, hi)
    a_lo, a_hi = sublevel(a_values, lo), sublevel(a_values, hi)
    basis_lo = sorted(sk for sk in k_lo if len(sk) == n + 1 and sk not in a_lo)
    if len(basis_lo) > 14:
        raise ValueError("instance too large for the brute-force oracle")
    cycles = [
        c for c in all_chains(basis_lo)
        if not relative_project(chain_boundary(c), a_lo)
    ]
    pushed = [relative_project(c, a_hi) for c in cycles]
    basis_hi_up = sorted(sk for sk in k_hi if len(sk) == n + 2 and sk not in a_hi)
    if len(basis_hi_up) > 14:
        raise ValueError("instance too large for the brute-force oracle")
    boundaries = [
        relative_project(chain_boundary(w), a_hi) for w in all_chains(basis_hi_up)
    ]
    u = {frozenset()}
    for v in pushed:
        if v not in u:
            u |= {v ^ s for s in u}
    b = {frozenset()}
    for v in boundaries:
        if v not in b:
            b |= {v ^ s for s in b}
    inter = u & b
    dim_u = len(u).bit_length() - 1
    dim_i = len(inter).bit_length() - 1
    return dim_u - dim_i


def values_of(filtered_set) -> dict:
    """Extract a plain {simplex: Fraction-or-None} table from a FilteredSet."""
    return {sk: v.finite for sk, v in filtered_set.entries}


def brute_pair_dim(pair, n: int, interval) -> int:
    return brute_interval_dim(
        values_of(pair.total), values_of(pair.sub), n,
        interval.lo.finite, interval.hi.finite,
    )


def reference_chain_map(vertex_map: dict, source, target) -> list:
    """Dense matrix of a vertex map on chains, as rows of ints 0 and +-1.

    Rows follow the ``target`` simplices and columns the ``source`` ones.  A
    simplex goes to the sorted tuple of its images with the sign of the
    sorting permutation; it goes to zero when two of its vertices share an
    image or when ``target`` lacks the image.
    """
    index = {sk: i for i, sk in enumerate(target)}
    out = [[0] * len(source) for _ in target]
    for j, sk in enumerate(source):
        images = [vertex_map[v] for v in sk]
        if len(set(images)) != len(images):
            continue
        inversions = sum(1 for i in range(len(images)) for k in range(i + 1, len(images))
                         if images[i] > images[k])
        r = index.get(tuple(sorted(images)))
        if r is not None:
            out[r][j] = (-1) ** inversions
    return out


def reference_bars(values: dict, p: int | None = None) -> list:
    """Bars of a plain {simplex: Fraction} table by the textbook reduction.

    One boundary column per simplex, in (value, dimension, simplex) order,
    each reduced left to right against every earlier column: no clearing, no
    skipped column.  Arithmetic is mod p, or over the rationals when p is
    None.  Bars are sorted (degree, birth, death) triples; zero-length bars
    are dropped and death None means the class never dies.
    """
    order = sorted(values, key=lambda sk: (values[sk], len(sk), sk))
    index = {sk: i for i, sk in enumerate(order)}

    def unit(x):
        return x % p if p else Fraction(x)

    def inverse(x):
        return pow(x, -1, p) if p else 1 / x

    columns = []
    for sk in order:
        col = {}
        for i in range(len(sk) if len(sk) > 1 else 0):
            col[index[sk[:i] + sk[i + 1 :]]] = unit((-1) ** i)
        columns.append(col)
    lows = {}
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            if low not in lows:
                lows[low] = j
                break
            other = columns[lows[low]]
            factor = col[low] * inverse(other[low])
            for r, val in other.items():
                merged = unit(col.get(r, 0) - factor * val)
                if merged:
                    col[r] = merged
                else:
                    col.pop(r, None)
    bars = [
        (len(order[i]) - 1, values[order[i]], values[order[j]])
        for i, j in lows.items()
        if values[order[i]] != values[order[j]]
    ]
    bars += [
        (len(sk) - 1, values[sk], None)
        for j, sk in enumerate(order)
        if not columns[j] and j not in lows
    ]
    return sorted(bars, key=lambda b: (b[0], b[1], b[2] is None, b[2] or 0))


def reference_pair_bars(total: dict, sub: dict, p: int | None = None) -> list:
    """Bars of a pair: the subset coned off by a fresh apex, reduced.

    The apex enters at the least total value, the cone over each subset
    simplex at that simplex's subset value, and one never-dying degree-0 bar
    at the least value is removed.
    """
    if not total:
        return []
    vertices = {v for sk in total for v in sk}
    apex = "apex"
    while apex in vertices:
        apex += "_"
    start = min(total.values())
    table = dict(total)
    table[(apex,)] = start
    for sk, val in sub.items():
        table[tuple(sorted(sk + (apex,)))] = val
    bars = reference_bars(table, p)
    bars.remove((0, start, None))
    return bars
