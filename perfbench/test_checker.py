"""Tests of the benchmark's independent checker and output checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

The checker is compared with the brute-force oracle of ``tests/oracles.py``
on tiny seeded pairs and with dimensions worked out by hand.  persax itself
only generates the random instances, and in the last tests plays the part
of the program whose output the run checks.
"""

from __future__ import annotations

import random
import sys

import pytest

import calibrate
import checker
import gen
import run
from persax import GF, Interval, check_exact, critical_intervals, les_pair
from persax.fuzz import random_pair
from tests.oracles import brute_pair_dim


def _tables(pair):
    return ({sk: v.finite for sk, v in pair.total.entries},
            {sk: v.finite for sk, v in pair.sub.entries})


def _pairs(count):
    return [random_pair(random.Random(seed)) for seed in range(count)]


def test_matches_the_brute_force_oracle_on_tiny_pairs():
    cells = 0
    for pair in _pairs(60):
        chk = checker.PairChecker(*_tables(pair), p=2)
        for iv in critical_intervals(pair):
            for n in range(pair.total.dimension + 2):
                assert chk.dim(n, iv.lo.finite, iv.hi.finite) == brute_pair_dim(pair, n, iv)
                cells += 1
    assert cells > 500


HOLLOW = {("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


@pytest.mark.parametrize("p", [2, 3])
def test_hollow_triangle(p):
    chk = checker.PairChecker(HOLLOW, p=p)
    assert [chk.dim(0, 0, 0), chk.dim(0, 0, 1), chk.dim(0, 1, 1)] == [3, 1, 1]
    assert [chk.dim(1, 0, 1), chk.dim(1, 1, 1), chk.dim(2, 1, 1)] == [0, 1, 0]
    filled = checker.PairChecker({**HOLLOW, ("a", "b", "c"): 2}, p=p)
    assert [filled.dim(1, 1, 1), filled.dim(1, 1, 2), filled.dim(1, 2, 2)] == [1, 0, 0]


@pytest.mark.parametrize("p", [2, 3])
def test_hollow_triangle_relative_to_an_edge(p):
    edge = {("a",): 1, ("b",): 1, ("a", "b"): 1}
    chk = checker.PairChecker(HOLLOW, edge, p=p)
    assert [chk.dim(0, 0, 0), chk.dim(0, 0, 1), chk.dim(0, 1, 1)] == [3, 0, 0]
    assert chk.dim(1, 1, 1) == 1


# eight integer points on a circle of radius 5: neighbours alternate at squared
# lengths 10 and 20, second neighbours sit at 50, opposite points at 100
CIRCLE = [(5, 0), (4, 3), (0, 5), (-3, 4), (-5, 0), (-4, -3), (0, -5), (3, -4)]


@pytest.mark.parametrize("p", [2, 3])
def test_noisy_circle(p):
    chk = checker.PairChecker(gen.rips_of_points(CIRCLE, 2), p=p)
    assert chk.values[-1] == 100
    h0 = [chk.dim(0, 0, 0), chk.dim(0, 10, 10), chk.dim(0, 20, 20), chk.dim(0, 0, 100)]
    assert h0 == [8, 4, 1, 1]
    # the 8-cycle is born at 20; the triangles at 50 leave one free chord
    # each, so it survives them, and it dies in the full complex
    h1 = [chk.dim(1, 10, 10), chk.dim(1, 20, 20), chk.dim(1, 20, 50),
          chk.dim(1, 50, 50), chk.dim(1, 20, 100)]
    assert h1 == [0, 1, 1, 1, 0]


@pytest.mark.parametrize("p", [2, 3])
def test_square_with_diagonals(p):
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hollow = checker.PairChecker(gen.rips_of_points(square, 2), p=p)
    assert [hollow.dim(1, 1, 1), hollow.dim(1, 1, 2), hollow.dim(2, 2, 2)] == [1, 0, 1]
    solid = checker.PairChecker(gen.rips_of_points(square, 3), p=p)
    assert solid.dim(2, 2, 2) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_euler_characteristic_and_components_at_degenerate_intervals(p):
    for pair in _pairs(40):
        chk = checker.PairChecker(*_tables(pair), p=p)
        for c in chk.values:
            dims = [chk.dim(n, c, c) for n in range(chk.top + 2)]
            assert sum((-1) ** n * d for n, d in enumerate(dims)) == chk.euler(c)
            assert chk.components(c) == dims[0]


def test_certified_intervals_give_exact_pair_sequences():
    certified = 0
    for pair in _pairs(60):
        total, sub = _tables(pair)
        trio = (checker.PairChecker(sub), checker.PairChecker(total),
                checker.PairChecker(total, sub))
        degrees = range(max(pair.total.dimension, 0) + 2)
        for iv in critical_intervals(pair):
            if checker.injective_on(trio, iv.lo.finite, iv.hi.finite, degrees):
                certified += 1
                assert check_exact(les_pair(pair, iv, field=GF(2))).ok
    assert certified > 100


def test_rule_based_subset_is_a_filtered_subset():
    total = gen.rips(random.Random(5), 3, 4, 2, levels=8)
    sub = gen.left_half_subset(total)
    assert sub and all(sub[sk] >= total[sk] for sk in sub)
    assert any(sub[sk] > total[sk] for sk in sub if len(sk) > 1)
    for sk in sub:
        for i in range(len(sk)):
            face = sk[:i] + sk[i + 1:]
            assert not face or sub[face] <= sub[sk]


def test_generator_is_deterministic_per_seed():
    first = gen.filtration_text(gen.rips(random.Random(9), 2, 4, 2, levels=6))
    again = gen.filtration_text(gen.rips(random.Random(9), 2, 4, 2, levels=6))
    other = gen.filtration_text(gen.rips(random.Random(10), 2, 4, 2, levels=6))
    assert first == again != other


def test_output_checks_catch_a_wrong_dimension():
    chk = checker.PairChecker(HOLLOW)
    check = run.check_dims("dim", chk, [(1, 1, 1)])
    assert check("dim\t1\t1\t1\t1\n", 0) == []
    assert check("dim\t1\t1\t1\t0\n", 0)
    assert check("dim\t1\t1\t1\t1\n", 1)


def test_malformed_output_is_a_failed_operation(tmp_path):
    op = run.Op("echo", "cli", [], run.check_dims("dim", checker.PairChecker(HOLLOW), []))
    op.command = lambda probe: [sys.executable, "-c", "print('dim\\tnot-a-number')"]
    assert run.run_op(op, tmp_path, calibrate.SpeedLog(run.WINDOW_S)).problems


def test_sequence_check_reads_exact_only_where_certified():
    pair = random_pair(random.Random(3))
    total, sub = _tables(pair)
    trio = (checker.PairChecker(sub), checker.PairChecker(total),
            checker.PairChecker(total, sub))
    iv = critical_intervals(pair)[0]
    seq = les_pair(pair, Interval(iv.lo, iv.lo), field=GF(2))
    verdicts = {c.index: ("exact" if c.ok else "FAIL") for c in check_exact(seq).checks}
    lines = [f"sequence\t{i}\t{node.dim}\t{seq.labels[i] if i < len(seq.labels) else ''}"
             f"\t{verdicts.get(i, '-')}" for i, node in enumerate(seq.nodes)]
    check = run.check_sequence(trio, iv.lo.finite, iv.lo.finite, True)
    assert check("\n".join(lines) + "\n", 0) == []
    broken = lines[:1] + [lines[1].replace("exact", "FAIL")] + lines[2:]
    assert check("\n".join(broken) + "\n", 1)


def test_speed_factor_reads_only_the_probes_near_the_operation():
    log = calibrate.SpeedLog(10.0)
    log.probes = [(0.0, 0.1), (5.0, 0.05), (8.0, 0.05), (30.0, 0.5)]
    assert log.factor(6.0, 7.0) == calibrate.REFERENCE_S / 0.05
    assert log.factor(25.0, 26.0) == calibrate.REFERENCE_S / 0.5
