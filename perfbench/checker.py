"""Independent exact checker for interval homology dimensions.

Written apart from persax: it imports nothing from the package and works
on plain ``{simplex: value}`` tables, where a simplex is a sorted tuple of
vertex names.  It follows the persistent Betti number formula of
Edelsbrunner, Letscher and Zomorodian ("Topological persistence and
simplification", 2002), extended to relative pairs:

    dim H_n[lo, hi] = rank [P Z_n(lo) | B_n(hi)] - rank B_n(hi)

where Z_n(lo) are the relative n-cycles at the lower endpoint, P sends the
lower-endpoint relative basis to the upper-endpoint one (a simplex the
subset has absorbed by ``hi`` goes to zero), and B_n(hi) are the relative
n-boundaries at the upper endpoint.  Ranks come from sparse column
elimination over GF(p); a column is a ``{row: coefficient}`` dict.
"""

from __future__ import annotations

from functools import lru_cache


def _reduce(col: dict, pivots: dict, p: int):
    """Eliminate ``col`` against ``pivots`` in place; return its low row or None.

    ``pivots`` maps a low row to a column normalised to 1 at that row.  Rows
    below zero are bookkeeping and never become a low.
    """
    while col:
        low = max(col)
        if low < 0:
            return None
        piv = pivots.get(low)
        if piv is None:
            return low
        factor = col[low]
        for r, v in piv.items():
            x = (col.get(r, 0) - factor * v) % p
            if x:
                col[r] = x
            else:
                del col[r]
    return None


def _add_pivot(col: dict, low: int, pivots: dict, p: int) -> None:
    inv = pow(col[low], -1, p)
    pivots[low] = {r: v * inv % p for r, v in col.items()}


class PairChecker:
    """Interval homology of a filtered pair (total, sub) over GF(p).

    ``sub`` may be empty for the absolute case.  Every simplex of ``sub``
    must lie in ``total`` with a value no smaller than its total value.
    """

    def __init__(self, total: dict, sub: dict | None = None, p: int = 2):
        self.total = total
        self.sub = sub or {}
        self.p = p
        self.values = tuple(sorted(set(self.total.values()) | set(self.sub.values())))
        self.top = max((len(sk) - 1 for sk in total), default=-1)
        self._by_dim: dict[int, list] = {}
        for sk in sorted(total):
            self._by_dim.setdefault(len(sk) - 1, []).append(sk)
        self._basis = lru_cache(maxsize=None)(self._basis_at)
        self._cycles = lru_cache(maxsize=None)(self._cycles_at)
        self._boundaries = lru_cache(maxsize=None)(self._boundaries_at)

    def _absorbed(self, sk, level) -> bool:
        val = self.sub.get(sk)
        return val is not None and val <= level

    def _basis_at(self, n: int, level) -> tuple[tuple, dict]:
        """Relative n-simplices at ``level`` and their row positions."""
        basis = tuple(sk for sk in self._by_dim.get(n, ())
                      if self.total[sk] <= level and not self._absorbed(sk, level))
        return basis, {sk: i for i, sk in enumerate(basis)}

    def _boundary(self, sk, index: dict) -> dict:
        col = {}
        for i in range(len(sk)):
            row = index.get(sk[:i] + sk[i + 1:])
            if row is not None:
                col[row] = (-1) ** i % self.p
        return col

    def _cycles_at(self, n: int, level) -> tuple[dict, ...]:
        """A basis of Z_n(level), each cycle keyed by simplex.

        Each column carries its own identity on rows -1, -2, ...; a column
        whose boundary part reduces to nothing leaves a cycle there.
        """
        basis, _ = self._basis(n, level)
        _, lower = self._basis(n - 1, level)
        pivots: dict = {}
        cycles = []
        for j, sk in enumerate(basis):
            col = self._boundary(sk, lower)
            col[-1 - j] = 1
            low = _reduce(col, pivots, self.p)
            if low is None:
                cycles.append({basis[-1 - r]: v for r, v in col.items()})
            else:
                _add_pivot(col, low, pivots, self.p)
        return tuple(cycles)

    def _boundaries_at(self, n: int, level) -> dict:
        """Reduced pivots spanning B_n(level), rows in the level-n basis."""
        _, index = self._basis(n, level)
        upper, _ = self._basis(n + 1, level)
        pivots: dict = {}
        for sk in upper:
            col = self._boundary(sk, index)
            low = _reduce(col, pivots, self.p)
            if low is not None:
                _add_pivot(col, low, pivots, self.p)
        return pivots

    def dim(self, n: int, lo, hi) -> int:
        """dim H_n[lo, hi] = rank [P Z_n(lo) | B_n(hi)] - rank B_n(hi)."""
        if n < 0 or n > self.top or lo > hi:
            return 0
        _, index = self._basis(n, hi)
        pivots = dict(self._boundaries(n, hi))
        rank = 0
        for z in self._cycles(n, lo):
            col = {index[sk]: v for sk, v in z.items() if sk in index}
            low = _reduce(col, pivots, self.p)
            if low is not None:
                _add_pivot(col, low, pivots, self.p)
                rank += 1
        return rank

    def euler(self, level) -> int:
        """Alternating count of relative simplices: the Euler characteristic
        that the dimensions over the degenerate interval [level, level] must sum to."""
        return sum((-1) ** n * len(self._basis(n, level)[0]) for n in range(self.top + 1))

    def components(self, level) -> int:
        """dim H_0[level, level] by union-find: components missing the subset."""
        parent = {}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for sk in self._by_dim.get(0, ()):
            if self.total[sk] <= level:
                parent[sk[0]] = sk[0]
        for a, b in (sk for sk in self._by_dim.get(1, ()) if self.total[sk] <= level):
            parent[find(a)] = find(b)
        touched = {find(sk[0]) for sk in self._by_dim.get(0, ())
                   if sk[0] in parent and self._absorbed(sk, level)}
        return len({find(v) for v in parent} - touched)


def injective_on(checkers, lo, hi, degrees) -> bool:
    """The injectivity certificate of the pair sequence over [lo, hi].

    H_n(lo) -> H_n(hi) is injective exactly when dim H_n[lo, hi] equals
    dim H_n[lo, lo].  When that holds for the subset, the total and the pair
    in every degree, the interval sequence is isomorphic to the pointwise
    sequence at ``lo``, which is exact.
    """
    return all(c.dim(n, lo, hi) == c.dim(n, lo, lo) for c in checkers for n in degrees)
