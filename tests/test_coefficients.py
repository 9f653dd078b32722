"""Coefficient independence and the representability contract.

Dimensions over every prime field and over the rationals agree on complexes
without torsion phenomena in the tested range; the connecting map's
lower-endpoint representability never fails on the fuzz corpus, which is
exactly what its construction guarantees (boundaries of pushed level-e
relative cycles are pushed level-e subset cycles).
"""

import random

from persax import (
    GF,
    GF2,
    GF3,
    QQ,
    FilteredSet,
    Interval,
    NotRepresentableAtLowerEndpoint,
    check_exact,
    connecting,
    critical_intervals,
    homology,
    les_pair,
    pair_of,
    standard_boundary,
    standard_simplex,
)
from persax.fuzz import random_pair


def test_field_choice_does_not_change_dimensions_here():
    # small complexes built from simplices have field-independent dimensions
    fields = (GF2, GF3, GF(5), GF(97), QQ)
    rim = FilteredSet(
        {"a", "b", "c"},
        {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
    )
    objects = [
        pair_of(rim),
        pair_of(standard_simplex(3, 0), standard_boundary(3, 0)),
    ]
    for pair in objects:
        for iv in critical_intervals(pair):
            for n in range(0, pair.total.dimension + 2):
                dims = {str(f): homology(pair, n, iv, f).dim for f in fields}
                assert len(set(dims.values())) == 1, dims


def test_rational_sequences_check_exact_like_prime_fields():
    pair = pair_of(standard_simplex(2, 0), standard_boundary(2, 0))
    iv = Interval(0, 1)
    assert check_exact(les_pair(pair, iv, field=QQ)).ok


def test_bar_counts_match_the_direct_path_in_odd_characteristic():
    # exercises the general-p cancellation inside the column reduction
    from persax import bars_alive, pair_barcode

    master = random.Random(401)
    cells = 0
    for _ in range(10):
        pair = random_pair(random.Random(master.getrandbits(64)))
        for fld in (GF3, GF(5)):
            bars = pair_barcode(pair, fld)
            for iv in critical_intervals(pair):
                for n in range(0, pair.total.dimension + 2):
                    assert homology(pair, n, iv, fld).dim == bars_alive(bars, n, iv)
                    cells += 1
    assert cells > 100


def test_connecting_representability_never_fails_on_the_corpus():
    # every boundary class of a pushed relative cycle is hit by a
    # lower-endpoint subset cycle; the guard exists but must stay silent
    master = random.Random(301)
    calls = 0
    for _ in range(30):
        pair = random_pair(random.Random(master.getrandbits(64)))
        if not pair.sub.vertices:
            continue
        for iv in critical_intervals(pair):
            for n in range(1, pair.total.dimension + 2):
                try:
                    connecting(pair, n, iv)
                except NotRepresentableAtLowerEndpoint as exc:  # pragma: no cover
                    raise AssertionError(f"representability failed: {exc}")
                calls += 1
    assert calls > 100
