"""Filtered sets over finite vertex sets and the constructions built on them.

A filtration assigns to every simplex (a set of vertices) an exact rational
value, or the sentinel ``INF`` for "never present".  Sublevel sets are
simplicial complexes nested along the value axis; everything downstream is
computed from these complexes.  A value is the tuple ``(is_inf, Fraction)``
and an interval the tuple ``(lo, hi)``, so tuple order is value order, and
sublevel membership is exact and never subject to rounding.  A relative pair
is the validated tuple ``(total, sub)``.

Storage is sparse: only finitely-valued simplices are kept, and the stored
support must be downward closed (every face of a stored simplex is stored)
and monotone (faces never carry larger values than their cofaces).  Each set
keeps its sorted distinct values and every simplex's integer rank among them,
so the checks and orderings that need only the order of the values compare
ints, not ``Fraction``s.

The memos of the direct and skeletal paths live here too, one per set: what
is computed for a pair is stored on the pair's total set (``memoized``), so
an entry lives exactly as long as the set it describes.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, wraps
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple
from weakref import WeakSet


class FiltrationError(ValueError):
    """Base class for invalid filtrations, pairs, and maps."""


class UnknownVertex(FiltrationError):
    pass


class MissingFace(FiltrationError):
    pass


class MonotonicityViolation(FiltrationError):
    pass


class NotFiltrationPreserving(FiltrationError):
    pass


class SubNotMappedIntoSub(FiltrationError):
    pass


class OracleMismatch(RuntimeError):
    """The two homology constructions disagree; something is broken.

    The skeletal path raises it.  It is defined here, in the module every
    command loads, so that the command line can report it without importing
    that path.
    """


class FiltValue(tuple):
    """An exact filtration value: the tuple ``(is_inf, Fraction)``.

    Finite values are ``(False, q)`` and ``INF`` is ``(True, None)``, so tuple
    order is value order and ``INF`` lies strictly above every finite value.
    A simplex at INF belongs to no sublevel complex; intervals never reach it.
    """

    __slots__ = ()

    def __new__(cls, finite: Fraction | None):
        if finite is not None and not isinstance(finite, Fraction):
            raise TypeError("finite part must be a Fraction or None")
        return tuple.__new__(cls, (finite is None, finite))

    def __reduce__(self):
        return type(self), (self.finite,)

    finite = property(itemgetter(1))

    @property
    def is_finite(self) -> bool:
        return self.finite is not None

    def __str__(self):
        return "inf" if self.finite is None else str(self.finite)

    def __repr__(self):
        return f"FiltValue({self})"


INF = FiltValue(None)


def _check_digit_limit(text: str) -> None:
    """Reject a decimal exponent that would give more digits than int() allows.

    Fraction builds 10**exponent before reducing, so a long exponent would
    otherwise run for minutes.  Digits are counted as written.
    """
    mantissa, _, exp = text.lower().partition("e")
    try:
        exp = int(exp)
    except ValueError:
        return  # no exponent, or a malformed one that Fraction rejects
    whole, _, decimal = mantissa.partition(".")
    places = sum(ch.isdigit() for ch in decimal)
    numerator = sum(ch.isdigit() for ch in whole) + places + max(exp, 0)
    denominator = 1 + places + max(-exp, 0)
    # interpreters before 3.10.7 lack the int() limit: take its default there
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if limit and max(numerator, denominator) > limit:
        raise ValueError(f"{text!r} has more than {limit} digits")


def fin(value) -> FiltValue:
    """Coerce an int, Fraction, string ('3', '1/2', 'inf'), or FiltValue."""
    if isinstance(value, FiltValue):
        return value
    if isinstance(value, str):
        if value.strip() == "inf":
            return INF
        _check_digit_limit(value)
        try:
            return FiltValue(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, (int, Fraction)):
        return FiltValue(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a filtration value")


Simplex = tuple[str, ...]


def simplex(vertices: Iterable[str]) -> Simplex:
    """Canonical simplex key: sorted tuple of distinct vertex tokens."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise ValueError("a simplex needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertex in simplex {vs}")
    return vs


def _sorted_values(values: Iterable[FiltValue]):
    """Sorted distinct values, and each value object's rank among them, by id.

    Value objects are deduplicated by identity and equal values are found
    next to each other after sorting, so no ``Fraction`` is hashed: shared
    parsed values cost one int hash each.
    """
    critical: list[FiltValue] = []
    rank_of_id = {}
    for v in sorted({id(v): v for v in values}.values()):
        if not critical or critical[-1] != v:
            critical.append(v)
        rank_of_id[id(v)] = len(critical) - 1
    return tuple(critical), rank_of_id


def _ranked(table: Mapping[Simplex, FiltValue]):
    """A value table's sorted distinct values, and the table as ranks into them."""
    critical, rank_of_id = _sorted_values(table.values())
    return critical, {sk: rank_of_id[id(v)] for sk, v in table.items()}


def _in_simplex_order(critical, ranks: Mapping[Simplex, int]):
    """A rank table in simplex order, and its (simplex, value) pairs."""
    lookup = dict(sorted(ranks.items()))
    return lookup, tuple(zip(lookup, map(critical.__getitem__, lookup.values())))


def facets(sigma: Simplex) -> list[Simplex]:
    """Codimension-1 faces, in the order of the omitted position."""
    return [sigma[:i] + sigma[i + 1 :] for i in range(len(sigma))]


class FilteredSet:
    """A finite vertex set with a monotone, downward-closed sparse filtration.

    Absent simplices are implicitly at INF.  Instances are immutable and
    hashable; all operations on them are pure functions.  ``FilteredSet(...)``
    is the one public constructor that validates; the parser, whose keys and
    values are already canonical, enters the same checks through
    ``_canonical``, and sets derived from validated sets are built by
    ``_trusted`` without checking again.  Each set keeps its
    sorted distinct values, which ``critical_values`` reads, and maps each
    supported simplex, in entry order, to its rank among them.  ``_memo``
    holds what ``memoized`` functions computed for pairs with this total; it
    is made on first use, and a copy starts without one.
    """

    __slots__ = ("vertices", "entries", "_lookup", "_critical", "_hash", "_memo")

    def __init__(self, vertices: Iterable[str], values: Mapping):
        verts = frozenset(vertices)
        given: dict[Simplex, FiltValue] = {}
        for key, raw in values.items():
            sk = simplex(key)
            val = fin(raw)
            if not verts.issuperset(sk):
                raise UnknownVertex(f"simplex {sk} uses vertices outside {sorted(verts)}")
            # INF entries take part in the conflict check, so key order never decides it
            if given.setdefault(sk, val) != val:
                raise FiltrationError(f"conflicting values for simplex {sk}")
        self._check_and_fill(verts, given)

    @classmethod
    def _canonical(cls, vertices: frozenset[str], given: dict[Simplex, FiltValue]) -> "FilteredSet":
        """A set from a table that is canonical but not yet checked.

        The caller guarantees what ``__init__`` establishes before its face
        checks: keys are canonical simplices over ``vertices``, each value is
        a ``FiltValue`` (``INF`` included), and no key repeats.  The
        downward-closure and monotonicity checks run here as in ``__init__``.
        """
        self = object.__new__(cls)
        self._check_and_fill(vertices, given)
        return self

    def _check_and_fill(self, verts, given) -> None:
        """Rank the finite values, check faces and monotonicity, and fill the set."""
        table = {sk: val for sk, val in given.items() if not val[0]}  # val[0] flags INF
        critical, ranks = _ranked(table)
        get, absent = ranks.get, itertools.repeat(len(critical))  # above every rank
        for sk, r in ranks.items():
            q = len(sk) - 1
            if not q or max(map(get, itertools.combinations(sk, q), absent)) <= r:
                continue
            # report the first bad facet in omitted-position order
            for fc in facets(sk):
                fr = ranks.get(fc)
                if fr is None:
                    raise MissingFace(f"face {fc} of {sk} is absent from the support")
                if fr > r:
                    raise MonotonicityViolation(
                        f"face {fc} at {table[fc]} exceeds {sk} at {table[sk]}"
                    )
        self._fill(verts, critical, *_in_simplex_order(critical, ranks))

    @classmethod
    def _trusted(cls, vertices: frozenset[str], table: dict[Simplex, FiltValue]) -> "FilteredSet":
        """A set from a table that is valid by construction; nothing is checked.

        The caller guarantees what ``__init__`` checks: canonical keys over
        ``vertices``, finite values, a downward-closed support and monotone
        values.
        """
        critical, ranks = _ranked(table)
        return cls._sorted(vertices, critical, *_in_simplex_order(critical, ranks))

    @classmethod
    def _sorted(cls, vertices, critical, lookup, entries) -> "FilteredSet":
        """A set from its parts, already in simplex order; nothing is checked.

        The caller guarantees what ``_trusted`` requires of its table, and
        that the parts are those ``_fill`` takes.
        """
        self = object.__new__(cls)
        self._fill(vertices, critical, lookup, entries)
        return self

    def _fill(self, verts, critical, lookup, entries) -> None:
        """Fill the slots.  ``lookup`` maps each simplex to its rank in
        ``critical``; ``entries`` pairs each simplex with the value object in
        ``critical`` at that rank; both are in simplex order."""
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_critical", critical)
        object.__setattr__(self, "_hash", None)  # on first use: the bars path never hashes
        object.__setattr__(self, "_memo", None)  # on first use: the bars path keeps no memo

    def __setattr__(self, name, value):
        raise AttributeError("FilteredSet is immutable")

    def __reduce__(self):
        return type(self), (self.vertices, dict(self.entries))

    def value(self, sigma) -> FiltValue:
        """Filtration value of a simplex; INF when unsupported.

        A stored key is found as given; any other key is canonicalised first,
        so a reordered simplex finds its value and a malformed one raises.
        """
        if isinstance(sigma, tuple):
            r = self._lookup.get(sigma)
            if r is not None:
                return self._critical[r]
        r = self._lookup.get(simplex(sigma))
        return INF if r is None else self._critical[r]

    @property
    def support(self) -> tuple[Simplex, ...]:
        return tuple(sk for sk, _ in self.entries)

    @property
    def dimension(self) -> int:
        """Largest simplex dimension in the support; -1 when empty."""
        return max(map(len, self._lookup), default=0) - 1

    def __eq__(self, other):
        # equal values and equal ranks give equal entries, with int compares
        return self is other or (
            isinstance(other, FilteredSet)
            and self.vertices == other.vertices
            and self._critical == other._critical
            and self._lookup == other._lookup
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertices, self.entries)))
        return self._hash

    def __repr__(self):
        return f"FilteredSet({len(self.vertices)} vertices, {len(self.entries)} simplices)"


EMPTY_SET = FilteredSet((), {})


class RelativeFilteredPair(tuple):
    """A filtered set together with a filtered subset whose values dominate.

    The pair is the tuple ``(total, sub)``, so equality, hash and
    immutability come from ``tuple``.  The subset's sublevel complexes are
    then subcomplexes of the total's.  The empty subset gives the absolute
    case.
    """

    __slots__ = ()

    def __new__(cls, total: FilteredSet, sub: FilteredSet):
        if not sub.vertices <= total.vertices:
            raise UnknownVertex("subset vertices must lie in the total vertex set")
        for sk, val in sub.entries:
            if val < total.value(sk):
                err = FiltrationError(
                    f"subset value {val} for {sk} is below the total value {total.value(sk)}"
                )
                err.simplex = sk  # the first early simplex, for callers that reword the error
                raise err
        return tuple.__new__(cls, (total, sub))

    def __reduce__(self):
        return type(self), (self.total, self.sub)

    total = property(itemgetter(0))
    sub = property(itemgetter(1))

    def __repr__(self):
        return f"RelativeFilteredPair({self.total!r}, {self.sub!r})"


def pair_of(total: FilteredSet, sub: FilteredSet | None = None) -> RelativeFilteredPair:
    """The pair (total, sub); without a subset, the absolute pair (total, empty)."""
    return RelativeFilteredPair(total, EMPTY_SET if sub is None else sub)


def _as_pair(obj) -> RelativeFilteredPair:
    """A pair as it is; a filtered set as the absolute pair."""
    return obj if isinstance(obj, RelativeFilteredPair) else pair_of(obj)


class _Memo(dict):
    """One set's memo: keys ``(function, subset, *arguments)``, values what
    the function returned for the pair (set, subset) and those arguments.
    Memos compare and hash by identity, as members of ``_MEMOS``."""

    __slots__ = ("__weakref__",)
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


_MEMOS: WeakSet = WeakSet()  # the live memos, read only for statistics


class MemoInfo(NamedTuple):
    """Computations and live entries of one memoized function."""

    misses: int
    currsize: int


def memoized(fn):
    """``fn(pair, *args)``, kept in the memo of the pair's total set.

    There is no global cache: an entry goes when its total set goes, and
    ``EMPTY_SET`` and the interned standard sets keep theirs for the
    process.  Arguments are positional, and an exception is not kept.
    ``memo_info()`` gives the function's misses and live entries.
    """
    misses = 0

    @wraps(fn)
    def lookup(pair, *args):
        nonlocal misses
        total, sub = pair
        memo = total._memo
        if memo is None:
            memo = _Memo()
            object.__setattr__(total, "_memo", memo)
            _MEMOS.add(memo)
        key = (lookup, sub, *args)
        try:
            return memo[key]
        except KeyError:
            pass
        misses += 1
        value = memo[key] = fn(pair, *args)
        return value

    def memo_info() -> MemoInfo:
        return MemoInfo(misses, sum(key[0] is lookup for memo in list(_MEMOS) for key in memo))

    lookup.memo_info = memo_info
    return lookup


class Interval(tuple):
    """A closed interval ``(lo, hi)`` of filtration values with finite hi."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = fin(lo), fin(hi)
        if not hi.is_finite:
            raise ValueError("interval upper endpoint must be finite")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        return tuple.__new__(cls, (lo, hi))

    def __reduce__(self):
        return type(self), (self.lo, self.hi)

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


_FINITE = itemgetter(1)


def _top(x: FilteredSet, eps: FiltValue) -> int:
    """The number of the set's values at most eps: a simplex lies in the
    sublevel complex at eps when its rank is below that number.

    The ``Fraction`` parts are bisected, so only ``Fraction.__lt__`` runs;
    the values themselves would compare their ``Fraction``s for equality
    first.  Every eps between two critical values gets the same number.
    """
    critical = x._critical
    return len(critical) if eps[0] else bisect_right(critical, eps[1], key=_FINITE)


def _level(pair: RelativeFilteredPair, eps: FiltValue) -> tuple[int, int]:
    """The pair's level at eps: ``_top`` of the total and of the subset.

    Levels key the chain-level memos and the groups, so every eps between
    two critical values of the pair shares their entries.
    """
    return _top(pair[0], eps), _top(pair[1], eps)


def complex_at(x: FilteredSet, eps: FiltValue) -> frozenset[Simplex]:
    """Sublevel complex at eps: all supported simplices with value <= eps."""
    top = _top(x, eps)
    return frozenset(sk for sk, r in x._lookup.items() if r < top)


# Entries are finite, so the operations below compare their Fraction parts,
# with ``<`` only.  An operation that would rebuild one of its inputs
# unchanged returns that input, so equal sets stay one object, and one memo.


def union(x: FilteredSet, y: FilteredSet) -> FilteredSet:
    """Union of filtered sets: pointwise minimum of the two filtrations.

    A simplex carried by only one side keeps that side's value; simplices
    spanning both sides but contained in neither support stay at INF.  When
    one input is a filtered subset of the other, the other is returned.
    """
    values: dict[Simplex, FiltValue] = dict(x.entries)
    y_in_x = x_in_y = True
    shared = 0
    for sk, val in y.entries:
        prev = values.get(sk)
        if prev is None:
            values[sk] = val
            y_in_x = False
        else:
            shared += 1
            if val[1] < prev[1]:
                values[sk] = val
                y_in_x = False
            elif prev[1] < val[1]:
                x_in_y = False
    if y_in_x and y.vertices <= x.vertices:
        return x
    if x_in_y and shared == len(x.entries) and x.vertices <= y.vertices:
        return y
    return FilteredSet._trusted(x.vertices | y.vertices, values)


def intersection(x: FilteredSet, y: FilteredSet) -> FilteredSet:
    """Intersection of filtered sets: pointwise maximum on common simplices.

    When one input is a filtered subset of the other, it is returned.
    """
    values = {}
    xmap = dict(x.entries)
    y_in_x = x_in_y = True
    for sk, val in y.entries:
        xval = xmap.get(sk)
        if xval is None:
            y_in_x = False
        elif val[1] < xval[1]:
            values[sk] = xval
            y_in_x = False
        else:
            values[sk] = val
            if xval[1] < val[1]:
                x_in_y = False
    if y_in_x and y.vertices <= x.vertices:
        return y
    if x_in_y and len(values) == len(xmap) and x.vertices <= y.vertices:
        return x
    return FilteredSet._trusted(x.vertices & y.vertices, values)


def skeleton(x: FilteredSet, q: int) -> FilteredSet:
    """Keep simplices of dimension <= q; push higher ones to INF.

    q = -1 empties the support while keeping the vertex set.  From the set's
    dimension up, the set itself is returned.
    """
    if q < -1:
        raise ValueError("skeleton degree must be >= -1")
    if q >= x.dimension:
        return x
    values = {sk: val for sk, val in x.entries if len(sk) - 1 <= q}
    return FilteredSet._trusted(x.vertices, values)


def _default_vertices(count: int) -> tuple[str, ...]:
    width = len(str(count - 1)) if count > 1 else 1
    return tuple(f"v{i:0{width}d}" for i in range(count))


# The standard sets, and so ``point``, are interned: equal arguments give one
# shared set, so comparisons between them stop at identity.  Each public
# constructor normalises its arguments and builds through a bounded memo.  The
# memo keeps no exception, so invalid arguments raise on every call, and it is
# typed, so q = 1.0 still fails where q = 1 succeeds.
_INTERNED = 256


def standard_simplex(q: int, alpha, vertices: Iterable[str] | None = None) -> FilteredSet:
    """The solid q-simplex: every nonempty subset of q+1 vertices at alpha."""
    return _standard_simplex(q, fin(alpha), None if vertices is None else tuple(vertices))


@lru_cache(maxsize=_INTERNED, typed=True)
def _standard_simplex(q: int, alpha: FiltValue, vertices: tuple | None) -> FilteredSet:
    if q < 0:
        raise ValueError("simplex dimension must be >= 0")
    if not alpha.is_finite:
        raise ValueError("the birth value must be finite")
    verts = _default_vertices(q + 1) if vertices is None else vertices
    if len(verts) != q + 1:
        raise ValueError(f"need exactly {q + 1} vertices")
    values = {}
    for k in range(1, q + 2):
        for sub in itertools.combinations(sorted(verts), k):
            values[sub] = alpha
    return FilteredSet(verts, values)


def standard_boundary(q: int, alpha, vertices: Iterable[str] | None = None) -> FilteredSet:
    """The q-simplex boundary: the top cell at INF, every proper face at alpha."""
    return _standard_boundary(q, fin(alpha), None if vertices is None else tuple(vertices))


@lru_cache(maxsize=_INTERNED, typed=True)
def _standard_boundary(q: int, alpha: FiltValue, vertices: tuple | None) -> FilteredSet:
    solid = _standard_simplex(q, alpha, vertices)
    top = simplex(solid.vertices)
    values = {sk: val for sk, val in solid.entries if sk != top}
    return FilteredSet._trusted(solid.vertices, values)


def closed_star(q: int, alpha, center: str, vertices: Iterable[str] | None = None) -> FilteredSet:
    """Closed star of one vertex inside the q-simplex boundary.

    The top cell and the single facet opposite ``center`` sit at INF; every
    other face of the q-simplex sits at alpha.
    """
    return _closed_star(q, fin(alpha), center, None if vertices is None else tuple(vertices))


@lru_cache(maxsize=_INTERNED, typed=True)
def _closed_star(q: int, alpha: FiltValue, center: str, vertices: tuple | None) -> FilteredSet:
    solid = _standard_simplex(q, alpha, vertices)
    if center not in solid.vertices:
        raise UnknownVertex(f"{center!r} is not a vertex of the simplex")
    top = simplex(solid.vertices)
    opposite = simplex(v for v in solid.vertices if v != center)
    values = {sk: val for sk, val in solid.entries if sk not in (top, opposite)}
    return FilteredSet._trusted(solid.vertices, values)


def point(alpha, name: str = "p") -> FilteredSet:
    """A single vertex born at alpha."""
    return standard_simplex(0, alpha, (name,))


class PreservingMap:
    """A vertex map between pairs that never delays a simplex.

    Every domain vertex, and no other, has an image among the codomain
    vertices; subset vertices land in the codomain subset.  Images of
    supported simplices (duplicates collapsed) carry values at most those of
    their sources, in the total sets and in the subsets alike.  The checked
    ``vertex_map`` is a read-only view.
    """

    __slots__ = ("domain", "codomain", "vertex_map", "_items", "_hash")

    def __init__(
        self,
        domain: RelativeFilteredPair,
        codomain: RelativeFilteredPair,
        vertex_map: Mapping[str, str],
    ):
        vm = dict(vertex_map)
        for v in domain.total.vertices:
            if v not in vm:
                raise UnknownVertex(f"vertex {v!r} has no image")
            if vm[v] not in codomain.total.vertices:
                raise UnknownVertex(f"image {vm[v]!r} is not a codomain vertex")
        for v in domain.sub.vertices:
            if vm[v] not in codomain.sub.vertices:
                raise SubNotMappedIntoSub(f"subset vertex {v!r} maps outside the codomain subset")
        object.__setattr__(self, "vertex_map", MappingProxyType(vm))  # apply reads it
        for sk, val in domain.total.entries:
            image = self.apply(sk)
            if codomain.total.value(image) > val:
                raise NotFiltrationPreserving(f"simplex {sk} at {val} maps to {image} born later")
        for sk, val in domain.sub.entries:
            image = self.apply(sk)
            if codomain.sub.value(image) > val:
                raise NotFiltrationPreserving(
                    f"subset simplex {sk} at {val} maps to {image} born later in the codomain subset"
                )
        extra = vm.keys() - domain.total.vertices
        if extra:
            raise UnknownVertex(f"vertex {min(extra)!r} is not a domain vertex")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "_items", tuple(sorted(vm.items())))
        object.__setattr__(self, "_hash", hash((domain, codomain, self._items)))

    def __setattr__(self, name, value):
        raise AttributeError("PreservingMap is immutable")

    def __reduce__(self):
        return type(self), (self.domain, self.codomain, dict(self.vertex_map))

    def __eq__(self, other):
        return (
            isinstance(other, PreservingMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self._items == other._items
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PreservingMap({len(self._items)} vertices)"

    def apply(self, sigma) -> Simplex:
        """Image simplex, with duplicate image vertices collapsed."""
        return simplex(set(self.vertex_map[v] for v in sigma))

    def restrict_to_sub(self) -> "PreservingMap":
        """The induced map between the subsets, as absolute pairs."""
        vm = {v: self.vertex_map[v] for v in self.domain.sub.vertices}
        return PreservingMap(pair_of(self.domain.sub), pair_of(self.codomain.sub), vm)


def identity_map(pair: RelativeFilteredPair) -> PreservingMap:
    return inclusion(pair, pair)


def inclusion(domain: RelativeFilteredPair, codomain: RelativeFilteredPair) -> PreservingMap:
    """The identity vertex map viewed as a map of pairs."""
    return PreservingMap(domain, codomain, {v: v for v in domain.total.vertices})


def compose(f: PreservingMap, g: PreservingMap) -> PreservingMap:
    """The composite f after g."""
    if g.codomain != f.domain:
        raise ValueError("maps are not composable")
    vm = {v: f.vertex_map[w] for v, w in g.vertex_map.items()}
    return PreservingMap(g.domain, f.codomain, vm)


def critical_values(obj) -> tuple[FiltValue, ...]:
    """Sorted distinct finite values of the support; pairs pool both parts."""
    if isinstance(obj, RelativeFilteredPair):
        return _sorted_values(obj.total._critical + obj.sub._critical)[0]
    return obj._critical


def critical_intervals(obj) -> tuple[Interval, ...]:
    """All intervals with both endpoints at critical values."""
    vals = critical_values(obj)
    return tuple(Interval(a, b) for i, a in enumerate(vals) for b in vals[i:])


def _entry_levels(entries, interval: Interval | None = None):
    """Each (simplex, value) entry present at some level of the interval,
    with the level where it enters: the larger of its value and lo.

    Sublevel complexes only grow, so a simplex that meets a condition on
    them where it enters meets it at every later level.  Without an
    interval, each entry enters at its value.
    """
    if interval is None:
        return entries
    lo, hi = interval
    return [(sk, max(v, lo)) for sk, v in entries if v <= hi]


def is_star_shaped(x: FilteredSet, a: str, interval: Interval) -> bool:
    """True when every sublevel complex in the interval is empty or coned at a.

    A complex is coned at ``a`` when every simplex extends to one containing
    ``a`` -- equivalently, adjoining ``a`` to any simplex stays in the complex.
    Each simplex is checked once, at the level where it enters.
    """
    if a not in x.vertices:
        raise UnknownVertex(f"{a!r} is not a vertex")
    return all(x.value(set(sk) | {a}) <= level
               for sk, level in _entry_levels(x.entries, interval))


def _primed_names(vertices: frozenset[str]) -> dict[str, str]:
    suffix = "'"
    while any(v + suffix in vertices for v in vertices):
        suffix += "'"
    return {v: v + suffix for v in vertices}


def cylinder(x: FilteredSet, order: Iterable[str] | None = None):
    """Double a filtered set into a prism, with the two ends and the collapse.

    Vertices are duplicated into a primed copy.  For each supported simplex,
    written in the given vertex order, the construction supports every mixed
    copy whose primed part precedes its unprimed part (sharing at most the
    pivot vertex), at the value of the collapsed simplex.

    Returns ``(cyl, h0, h1, k)``: the prism, the two end inclusions, and the
    collapse, all as maps of absolute pairs.  ``k`` is a left inverse of both
    ends at the vertex level.
    """
    order = tuple(sorted(x.vertices)) if order is None else tuple(order)
    if set(order) != x.vertices or len(order) != len(x.vertices):
        raise UnknownVertex("the order must list every vertex exactly once")
    position = {v: i for i, v in enumerate(order)}
    prime = _primed_names(x.vertices)

    values: dict[Simplex, FiltValue] = {}
    for sk, val in x.entries:
        ordered = sorted(sk, key=position.get)
        m = len(ordered)
        # copies with no doubled vertex: primed prefix + unprimed suffix
        for i in range(m + 1):
            key = simplex([prime[v] for v in ordered[:i]] + ordered[i:])
            values[key] = val
        # prisms: the pivot vertex appears in both copies
        for i in range(1, m + 1):
            key = simplex([prime[v] for v in ordered[:i]] + ordered[i - 1 :])
            values[key] = val

    cyl = FilteredSet(x.vertices | set(prime.values()), values)
    x_abs = pair_of(x)
    cyl_abs = pair_of(cyl)
    h0 = PreservingMap(x_abs, cyl_abs, {v: v for v in x.vertices})
    h1 = PreservingMap(x_abs, cyl_abs, prime)
    back = {v: v for v in x.vertices}
    back.update({prime[v]: v for v in x.vertices})
    k = PreservingMap(cyl_abs, x_abs, back)
    return cyl, h0, h1, k
