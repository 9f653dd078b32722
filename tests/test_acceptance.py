"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Three criteria (exactness fuzz, triple-oracle equivalence, and the short
exact sequence inside the skeletal identities) assert claims that are not
theorems of the interval construction this package is contracted to compute;
they fail on instances where a class dies strictly inside the interval, and
are left failing deliberately, with the counts printed.  The pinned minimal
counterexamples live in test_sequences.py and test_skeletal.py; the analysis
lives outside the package tree.
"""

import random
import time
from fractions import Fraction

from persax import (
    GF2,
    GF3,
    FilteredSet,
    Interval,
    LinearMap,
    Matrix,
    NotFiltrationPreserving,
    PreservingMap,
    are_contiguous,
    check_exact,
    critical_intervals,
    cylinder,
    fin,
    homology,
    induced_map,
    inclusion,
    bars_alive,
    kernel,
    image,
    les_pair,
    les_triple,
    mayer_vietoris,
    pair_barcode,
    pair_of,
    point,
    skeletal_boundary,
    skeletal_chain_group,
    skeletal_homology,
    skeletal_pair,
    standard_boundary,
    standard_simplex,
    union,
    verify_axiom,
)
from persax.axioms import PASS
from persax.fuzz import (
    random_contiguous_pair,
    random_cover,
    random_excision_parts,
    random_filtration,
    random_pair,
    random_triple,
)
from persax.skeletal import OracleMismatch, direct_to_skeletal, generator
from persax.sequences import is_proper_triad

from ._cli import run_persax


def _verdict(name: str, ok: bool, detail: str = ""):
    word = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {word}{suffix}")


def _corpus(count: int, seed: int = 7):
    master = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_pair(random.Random(master.getrandbits(64))))
    return out


def test_criterion_1_dimension_axiom():
    start = time.time()
    ok = True
    for alpha in (Fraction(0), Fraction(1), Fraction(5, 2)):
        lows = [alpha - 1, alpha - Fraction(1, 2), alpha, alpha + 1, alpha + 2]
        grid = [Interval(lo, hi) for lo in lows for hi in lows if lo <= hi]
        pt = pair_of(point(alpha))
        for iv in grid:
            for n in range(0, 3):
                want = 1 if n == 0 and iv.lo >= fin(alpha) else 0
                ok = ok and homology(pt, n, iv).dim == want
    elapsed = time.time() - start
    _verdict("1 dimension-axiom", ok and elapsed < 1.0, f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_simplex_tables():
    start = time.time()
    ok = True
    for alpha in (0, 1):
        a = fin(alpha)
        intervals = [Interval(alpha - 1, alpha - 1), Interval(alpha - 1, alpha),
                     Interval(alpha, alpha), Interval(alpha, alpha + 1),
                     Interval(alpha + 1, alpha + 2)]
        for q in range(0, 5):
            solid = pair_of(standard_simplex(q, alpha))
            rel = pair_of(standard_simplex(q, alpha), standard_boundary(q, alpha))
            for iv in intervals:
                born = iv.lo >= a
                for k in range(0, q + 2):
                    ok = ok and homology(solid, k, iv).dim == (1 if k == 0 and born else 0)
                for p in range(0, q + 2):
                    ok = ok and homology(rel, p, iv).dim == (1 if p == q and born else 0)
    elapsed = time.time() - start
    _verdict("2 simplex-tables", ok and elapsed < 5.0, f"{elapsed:.2f}s")
    assert ok
    assert elapsed < 5.0


def test_criterion_3_exactness_fuzz():
    start = time.time()
    master = random.Random(7)
    total = failed = 0
    for _ in range(100):
        rng = random.Random(master.getrandbits(64))
        pair = random_pair(rng)
        x, a, b = random_triple(rng)
        x1, x2 = random_cover(rng)
        for iv in critical_intervals(pair):
            total += 1
            failed += not check_exact(les_pair(pair, iv)).ok
        for iv in critical_intervals(pair_of(x, a)):
            total += 1
            failed += not check_exact(les_triple(x, a, b, iv)).ok
        u = union(x1, x2)
        if is_proper_triad(u, x1, x2, Interval(0, 2)):
            for iv in critical_intervals(u):
                total += 1
                failed += not check_exact(mayer_vietoris(x1, x2, iv)).ok
    elapsed = time.time() - start
    ok = failed == 0 and elapsed < 120.0
    _verdict("3 exactness-fuzz", ok,
             f"{failed}/{total} sequences not exact, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert failed == 0, (
        f"{failed} of {total} interval sequences are not exact: the interval "
        "construction only satisfies the sequence axiom when no class dies "
        "strictly inside the interval (see the pinned counterexamples in "
        "test_sequences.py)"
    )


def test_criterion_4_excision_and_s1():
    start = time.time()
    master = random.Random(7)
    ok = True
    for _ in range(25):
        rng = random.Random(master.getrandbits(64))
        x_part, carved = random_excision_parts(rng)
        u = union(x_part, carved)
        ivs = critical_intervals(u) or (Interval(0, 0),)
        iv = ivs[rng.randrange(len(ivs))]
        from persax.axioms import excision_instance

        inner, outer = excision_instance(x_part, carved)
        inc = inclusion(inner, outer)
        for n in range(0, max(outer.total.dimension, 0) + 2):
            lm = induced_map(inc, n, iv)
            ok = ok and lm.matrix.nrows == lm.matrix.ncols and lm.is_isomorphism()
        a7 = verify_axiom("A7", x_part=x_part, a=carved, interval=iv)
        s1 = verify_axiom("S1", x=x_part, y=carved, interval=iv)
        ok = ok and a7.verdict == s1.verdict == PASS
    elapsed = time.time() - start
    _verdict("4 excision", ok and elapsed < 30.0, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_5_contiguity_and_cylinder():
    start = time.time()
    master = random.Random(7)
    ok = True
    kept = 0
    while kept < 50:
        rng = random.Random(master.getrandbits(64))
        f, g = random_contiguous_pair(rng)
        if not are_contiguous(f, g):
            continue
        kept += 1
        for iv in critical_intervals(f.domain) or (Interval(0, 0),):
            if not are_contiguous(f, g, iv):
                continue
            for n in range(0, f.domain.total.dimension + 2):
                ok = ok and (induced_map(f, n, iv).matrix
                             == induced_map(g, n, iv).matrix)
    for _ in range(20):
        rng = random.Random(master.getrandbits(64))
        x = random_filtration(rng)
        order = sorted(x.vertices)
        rng.shuffle(order)
        cyl, h0, h1, k = cylinder(x, order=tuple(order))
        for iv in critical_intervals(x) or (Interval(0, 0),):
            for n in range(0, x.dimension + 2):
                m0 = induced_map(h0, n, iv, GF3).matrix
                m1 = induced_map(h1, n, iv, GF3).matrix
                mk = induced_map(k, n, iv, GF3).matrix
                ok = ok and m0 == m1 and mk.is_invertible() and (mk * m0).is_identity()
    elapsed = time.time() - start
    _verdict("5 contiguity-cylinder", ok and elapsed < 60.0, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 60.0


def test_criterion_6_triple_oracle_equivalence():
    start = time.time()
    cells = direct_vs_bars = skeletal_mismatch = iso_failures = 0
    for pair in _corpus(100):
        bars = pair_barcode(pair)
        for iv in critical_intervals(pair):
            for n in range(0, pair.total.dimension + 2):
                cells += 1
                direct = homology(pair, n, iv).dim
                direct_vs_bars += direct != bars_alive(bars, n, iv)
                skeletal_mismatch += direct != skeletal_homology(pair, n, iv).dim
                try:
                    direct_to_skeletal(pair, n, iv)
                except OracleMismatch:
                    iso_failures += 1
    elapsed = time.time() - start
    ok = direct_vs_bars == skeletal_mismatch == iso_failures == 0 and elapsed < 120.0
    _verdict("6 triple-oracle", ok,
             f"{cells} cells: bars!=direct {direct_vs_bars}, "
             f"skeletal!=direct {skeletal_mismatch}, iso failures {iso_failures}, "
             f"{elapsed:.1f}s")
    assert elapsed < 120.0
    assert direct_vs_bars == 0, "column reduction disagrees with the direct path"
    assert skeletal_mismatch == 0 and iso_failures == 0, (
        f"the skeletal theory disagrees with the direct construction on "
        f"{skeletal_mismatch} of {cells} cells (comparison not invertible on "
        f"{iso_failures}): the claimed isomorphism between the two holds only "
        "when no class dies strictly inside the interval (see the pinned "
        "counterexample in test_skeletal.py)"
    )


def test_criterion_7_skeletal_identities():
    start = time.time()
    dd_bad = formula_bad = ses_bad = lema5_bad = unique_bad = checks = 0
    for pair in _corpus(60, seed=11):
        x_abs, a_abs = pair_of(pair.total), pair_of(pair.sub)
        for iv in critical_intervals(pair):
            for q in range(0, pair.total.dimension + 2):
                checks += 1
                dq = skeletal_boundary(pair, q, iv, GF3)
                dq1 = skeletal_boundary(pair, q + 1, iv, GF3)
                dd_bad += not (dq * dq1).is_zero()
                cg = skeletal_chain_group(pair, q, iv, GF3)
                for j, sk in enumerate(cg.generators):
                    if q < 1:
                        break
                    want = (0,) * dq.nrows
                    sign = 1
                    for kk in range(len(sk)):
                        term = generator(sign, sk[:kk] + sk[kk + 1:], pair, iv, GF3)
                        want = tuple(GF3.add(a, b) for a, b in zip(want, term))
                        sign = GF3.neg(sign)
                    formula_bad += dq.column(j) != want
                # unique decomposition: generators are a basis
                unique_bad += cg.group.reps.rank() != cg.dim
                for p in range(0, pair.total.dimension + 2):
                    if p != q:
                        lema5_bad += homology(skeletal_pair(pair, q), p, iv).dim != 0
                iq = induced_map(
                    inclusion(skeletal_pair(a_abs, q), skeletal_pair(x_abs, q)),
                    q, iv)
                jq = induced_map(
                    inclusion(skeletal_pair(x_abs, q), skeletal_pair(pair, q)),
                    q, iv)
                injective = iq.matrix.rank() == iq.matrix.ncols
                surjective = jq.matrix.rank() == jq.matrix.nrows
                middle = kernel(jq.matrix) == image(iq.matrix)
                ses_bad += not (injective and surjective and middle)
    elapsed = time.time() - start
    ok = (dd_bad == formula_bad == ses_bad == lema5_bad == unique_bad == 0
          and elapsed < 60.0)
    _verdict("7 skeletal-identities", ok,
             f"{checks} checks: dd!=0 {dd_bad}, formula {formula_bad}, "
             f"ses {ses_bad}, vanishing {lema5_bad}, uniqueness {unique_bad}, "
             f"{elapsed:.1f}s")
    assert elapsed < 60.0
    assert dd_bad == 0 and formula_bad == 0 and lema5_bad == 0 and unique_bad == 0
    assert ses_bad == 0, (
        f"the chain-group sequence fails to be short exact on {ses_bad} of "
        f"{checks} cells: a simplex absorbed strictly inside the interval lies "
        "in the kernel of the quotient without coming from the subset (see the "
        "pinned counterexample in test_skeletal.py)"
    )


def test_criterion_8_negative_controls():
    ok = True
    # corrupted sequence fails with a re-checkable witness
    rim = FilteredSet({"a", "b", "c"}, {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1,
                                        ("a", "c"): 1, ("b", "c"): 1})
    seq = les_pair(pair_of(rim), Interval(1, 2))
    idx = seq.labels.index("j_1")
    zeroed = LinearMap(seq.arrows[idx].source, seq.arrows[idx].target,
                       Matrix.zero(GF2, seq.arrows[idx].matrix.nrows,
                                   seq.arrows[idx].matrix.ncols), "corrupt")
    report = check_exact(seq.with_arrow(idx, zeroed))
    ok = ok and not report.ok and all(c.witness for c in report.failures())
    # non-monotone input rejected at parse
    from persax.formats import ParseError, parse_filtration_text

    try:
        parse_filtration_text("2 a\n0 b\n1 a b\n")
        ok = False
    except ParseError:
        pass
    # non-preserving map rejected
    try:
        PreservingMap(pair_of(point(0, "p")), pair_of(point(2, "q")), {"p": "q"})
        ok = False
    except NotFiltrationPreserving:
        pass
    _verdict("8 negative-controls", ok)
    assert ok


def test_criterion_9_deterministic_reports():
    args = ["verify-axioms", "--fuzz", "100", "--seed", "7", "--format", "records"]
    first = run_persax(*args, capture_output=True)
    second = run_persax(*args, capture_output=True)
    ok = first.stdout == second.stdout and first.stdout.count(b"axiom\t") == 1000
    _verdict("9 determinism", ok, f"{len(first.stdout)} bytes")
    assert ok
