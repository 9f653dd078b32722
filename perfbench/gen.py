"""Seeded inputs for the benchmark: Vietoris-Rips filtrations and relative pairs.

Points have integer coordinates, so every squared distance is an exact
integer and every filtration value is an exact rational.  A filtration is a
plain ``{simplex: int}`` table, where a simplex is a sorted tuple of vertex
names; the same table is written out as a persax text file for the program
and handed, in memory, to the independent checker.  The same seed always
gives the same table and the same bytes.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path


SPACING = 10
JITTER = 3


def rips(rng: random.Random, rows: int, cols: int, top_dim: int,
         levels: int | None = None) -> dict:
    """Rips filtration of a seeded, jittered ``rows`` x ``cols`` lattice.

    Each lattice point moves by up to JITTER in each coordinate.  The seed
    changes the order in which simplices enter, while the lattice keeps the
    sizes of the sublevel complexes, and so the cost of the work, close from
    one seed to the next; a smaller jitter made that worse, not better.
    """
    points = [(SPACING * c + rng.randint(-JITTER, JITTER),
               SPACING * r + rng.randint(-JITTER, JITTER))
              for r in range(rows) for c in range(cols)]
    return rips_of_points(points, top_dim, levels)


def rips_of_points(points, top_dim: int, levels: int | None = None) -> dict[tuple[str, ...], int]:
    """Rips filtration of integer points, up to simplices of dimension ``top_dim``.

    A simplex enters at the largest squared length among its edges; vertices
    enter at 0.  With ``levels``, squared lengths are first replaced by their
    bucket among ``levels`` equal-count buckets of the distinct lengths (1 ..
    levels).  The map is monotone, so the result is still a filtration.
    """
    npoints = len(points)
    width = len(str(npoints - 1))
    names = [f"p{i:0{width}d}" for i in range(npoints)]
    edge = {}
    for i, j in itertools.combinations(range(npoints), 2):
        (x0, y0), (x1, y1) = points[i], points[j]
        edge[i, j] = (x0 - x1) ** 2 + (y0 - y1) ** 2
    if levels is not None:
        distinct = sorted(set(edge.values()))
        bucket = {d: 1 + k * levels // len(distinct) for k, d in enumerate(distinct)}
        edge = {key: bucket[d] for key, d in edge.items()}
    table = {(names[i],): 0 for i in range(npoints)}
    for k in range(2, top_dim + 2):
        for combo in itertools.combinations(range(npoints), k):
            table[tuple(names[i] for i in combo)] = max(
                edge[pair] for pair in itertools.combinations(combo, 2))
    return table


def left_half_subset(table: dict[tuple[str, ...], int]) -> dict[tuple[str, ...], int]:
    """The rule-based subset of a Rips table built by :func:`rips`.

    It keeps the simplices spanned by the first half of the vertices in name
    order, and delays each one until all of its vertices have joined: a
    vertex joins at the value of its third-shortest edge, so short edges
    and the triangles on them are absorbed after they are born.  Values are
    maxima of monotone functions over a downward-closed family, so the subset
    is a filtration and never enters before the total.
    """
    names = sorted(sk[0] for sk in table if len(sk) == 1)
    keep = set(names[: len(names) // 2])
    lengths = {v: [] for v in names}
    for sk, val in table.items():
        if len(sk) == 2:
            for v in sk:
                lengths[v].append(val)
    joins = {v: sorted(vals)[min(2, len(vals) - 1)] if vals else 0
             for v, vals in lengths.items()}
    return {
        sk: max(val, max(joins[v] for v in sk))
        for sk, val in table.items()
        if set(sk) <= keep
    }


def filtration_text(table: dict[tuple[str, ...], int]) -> str:
    ordered = sorted(table.items(), key=lambda item: (len(item[0]), item[0]))
    return "".join(f"{val} {' '.join(sk)}\n" for sk, val in ordered)


def pair_text(total: dict, sub: dict) -> str:
    return "[X]\n" + filtration_text(total) + "[A]\n" + filtration_text(sub)


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path
