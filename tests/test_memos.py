"""Memos live on the filtered set they describe.

What the direct and skeletal paths compute for a pair is stored on the
pair's total set, so an entry goes when that set goes, and a fuzz run's
memory does not grow with its instance count.
"""

import copy
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from persax import GF3, FilteredSet, Interval, boundary_matrix, fin, homology, pair_of
from persax import filtration
from persax.fuzz import fuzz_axiom_reports
from persax.linalg import _boundary

from ._cli import SOURCE_ROOT

STATUS = Path("/proc/self/status")


def _live_entries() -> int:
    """Entries held by every live memo, once unreachable sets are collected."""
    gc.collect()
    return sum(map(len, list(filtration._MEMOS)))


def _edge() -> FilteredSet:
    return FilteredSet("ab", {("a",): 0, ("b",): 0, ("a", "b"): 1})


class TestLifetime:
    def test_a_pair_keeps_its_entries_on_its_total_set(self):
        pair = pair_of(_edge())
        assert pair.total._memo is None  # made on first use
        group = homology(pair, 0, Interval(0, 1), GF3)
        memo = pair.total._memo
        assert memo and all(key[1] is pair.sub for key in memo)
        assert homology(pair, 0, Interval(0, 1), GF3) is group

    def test_entries_go_with_their_set(self):
        before = _live_entries()
        boundary = _boundary.memo_info()
        pair = pair_of(_edge())
        boundary_matrix(pair, 1, fin(1), GF3)
        homology(pair, 1, Interval(0, 1), GF3)
        assert _live_entries() > before
        assert _boundary.memo_info().currsize > boundary.currsize
        assert boundary_matrix.cache_info() == _boundary.memo_info()
        del pair
        assert _live_entries() == before
        assert _boundary.memo_info().currsize == boundary.currsize

    def test_a_copy_starts_without_a_memo(self):
        x = _edge()
        homology(pair_of(x), 1, Interval(0, 1), GF3)
        assert x._memo
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and twin._memo is None

    def test_live_entries_do_not_grow_with_the_fuzz_count(self):
        # what stays alive between instances is the memos of EMPTY_SET and of
        # the interned standard sets; their entries are keyed on levels, so
        # they grow with the distinct sets and values met, not with the
        # intervals or instances: 790 -> 909 in a fresh process.  Groups keyed on
        # Intervals added 391 over the same 30 instances.
        fuzz_axiom_reports(10, 7)
        ten = _live_entries()
        fuzz_axiom_reports(40, 7)
        assert _live_entries() - ten <= 200


def _own_peak_mb(count: int) -> float:
    """The VmHWM of a child that runs ``verify-axioms --fuzz count --seed 7``.

    The child reads its own high-water mark: its ``ru_maxrss`` would carry
    the RSS of this test process, which starts it.
    """
    code = ("import contextlib, os, persax.cli\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            f"    persax.cli.main(['verify-axioms', '--fuzz', '{count}', '--seed', '7'])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return int(proc.stdout) / 1024


@pytest.mark.skipif(not STATUS.exists(), reason="reads VmHWM from Linux's /proc/self/status")
def test_fuzz_memory_is_flat_in_the_instance_count():
    # with global memos, 23.2 -> 32.6 MB; on the sets, 20.6 -> 21.3 MB
    fifty, two_hundred = _own_peak_mb(50), _own_peak_mb(200)
    assert abs(two_hundred - fifty) <= 0.10 * fifty, (fifty, two_hundred)
