"""The persax benchmark: seeded workloads through the CLI and the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for their make-up and why each was chosen):
``rips-cli`` (the ``verify-axioms`` fuzz, direct-path and ``oracle-compare``
commands) and ``rips-bars`` (the library bars path).

The load is one closed-loop client: this process runs one operation at a
time, each in a fresh Python process, as a command-line user meets the
package (cold import, cold caches).  A round is the workload's fixed list of
operations; rounds repeat until ``--seconds`` have passed, and only whole
rounds run.  Every output is checked against the independent checker
(checker.py) or against properties the method must have, and every
operation's stdout must be byte-identical in every round.  Times are
normalised to a reference speed of the machine by the calibration probes
taken within WINDOW_S seconds of each operation (see calibrate.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and traced
(see tracer.py), one extra pass measures the tracemalloc peak, and the
metrics are the per-layer ones.  Each run also writes a record to
``perfbench/_records``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import calibrate
import checker
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP = HERE / "op.py"
SETUP_REPEATS = 5
# how far from an operation the calibration probes that normalise its time
# may lie (see calibrate.py): a single 43 ms probe is noisy, and the spells
# in which the machine runs slower or faster last tens of seconds, so the
# median over a few operations' probes follows them more closely
WINDOW_S = 10.0
OP_TIMEOUT_S = 150.0

AXIOM_ORDER = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "S1", "S2", "S3")
MUST_PASS = {"A1", "A2", "A3", "A6", "A7", "S1", "S3"}

# per-layer metrics of the traced run, with their units; see README.md for
# the end-to-end metric each one should move
PER_LAYER = (
    [("formats.parse.calls", "count"), ("formats.parse.self_s", "s"),
     ("filtration.validate.calls", "count"), ("filtration.validate.self_s", "s"),
     ("filtration.complex_at.self_s", "s"),
     ("linalg.chain_space.self_s", "s"),
     ("linalg.boundary_matrix.self_s", "s"), ("linalg.boundary_matrix.misses", "count"),
     ("linalg.chain_map_matrix.self_s", "s"),
     ("linalg.matrix_init.calls", "count"), ("linalg.matrix_init.self_s", "s"),
     ("linalg.rref.calls", "count"), ("linalg.rref.cells", "count"),
     ("linalg.rref.self_s", "s"),
     ("linalg.kernel.self_s", "s"),
     ("linalg.intersect.calls", "count"), ("linalg.intersect.self_s", "s"),
     ("linalg.complement.self_s", "s"),
     ("linalg.solve.calls", "count"), ("linalg.solve.self_s", "s"),
     ("linalg.matmul.self_s", "s"),
     ("homology.homology.calls", "count"), ("homology.homology.misses", "count"),
     ("homology.homology.self_s", "s"),
     ("homology.coords_of.calls", "count"), ("homology.coords_of.self_s", "s"),
     ("homology.induced_map.self_s", "s"), ("homology.connecting.self_s", "s"),
     ("homology.betti_grid.self_s", "s"),
     ("barcode.barcode.self_s", "s"), ("barcode.cone_off_subset.self_s", "s"),
     ("barcode.bars_alive.self_s", "s"), ("barcode.columns", "count"),
     ("sequences.build.self_s", "s"),
     ("sequences.check_exact.calls", "count"), ("sequences.check_exact.self_s", "s"),
     ("sequences.are_contiguous.self_s", "s"),
     ("skeletal.chain_group.self_s", "s"), ("skeletal.boundary.self_s", "s"),
     ("skeletal.homology.self_s", "s"), ("skeletal.direct_to_skeletal.self_s", "s"),
     ("skeletal.coords_of.calls", "count")]
    + [(f"axioms.{a}.s", "s") for a in AXIOM_ORDER]
    + [("fuzz.generate.self_s", "s"),
       ("cli.import_s", "s"), ("cli.main.self_s", "s"),
       ("mem.cache_entries", "count"), ("mem.tracemalloc_peak_mb", "MB"),
       ("trace.overhead_s", "s")]
)


@dataclass
class Op:
    """One operation: a CLI command or the library bars path, and its check.

    ``check(stdout, status)`` returns the problems found; an empty list
    means the output is correct.
    """

    name: str
    mode: str  # "cli", "bars" or "setup"
    args: list[str]
    check: Callable[[str, int], list[str]]

    def command(self, probe: list[str]) -> list[str]:
        if self.mode == "cli" and not probe:
            return [sys.executable, "-m", "persax", *self.args]
        return [sys.executable, str(OP), *probe, self.mode, *self.args]


@dataclass
class Workload:
    ops: list[Op]
    setup_items: list[str]
    facts: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_mb: float
    stdout: bytes
    status: int | None
    problems: list[str]
    probe: dict | None = None
    start: float = 0.0
    norm_s: float = 0.0  # wall_s at the reference speed, set when the run ends

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


# ---------------------------------------------------------------------------
# running one process


def run_process(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S):
    """Run to completion; return (wall seconds, peak RSS MB, stdout, stderr, status).

    The peak RSS is the child's own, read through ``os.wait4``; status is
    None when the process was killed at the timeout.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = status = os.waitstatus_to_exitcode(wait_status)
    if status < 0:
        status = None
    return wall, usage.ru_maxrss / 1024, out_path.read_bytes(), err_path.read_bytes(), status


def run_op(op: Op, workdir: Path, speed: calibrate.SpeedLog,
           probe: str | None = None) -> Result:
    """Run one operation and check it, with a calibration probe just
    before and just after it."""
    probe_path = workdir / "probe.json"
    probe_args = [probe, str(probe_path)] if probe else []
    probe_path.unlink(missing_ok=True)
    speed.probe()
    start = time.perf_counter()
    wall, rss, out, err, status = run_process(op.command(probe_args), workdir)
    speed.probe()
    problems = []
    if status is None:
        problems.append("timed out")
    elif b"Traceback" in err or status == 2:
        problems.append(f"exit {status}: {err.decode(errors='replace')[-400:]}")
    else:
        try:
            problems.extend(op.check(out.decode(), status))
        except (ValueError, IndexError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    record = json.loads(probe_path.read_text()) if probe and probe_path.exists() else None
    if probe and record is None and not problems:
        problems.append("no probe record written")
    return Result(op, wall, rss, out, status, problems, record, start)


# ---------------------------------------------------------------------------
# output checks


def _num(text: str):
    return None if text == "inf" else Fraction(text)


def _records(stdout: str, tag: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines() if line.startswith(tag + "\t")]


def _status_matches(status: int, failing: bool, what: str) -> list[str]:
    want = 1 if failing else 0
    return [] if status == want else [f"exit {status} but {what} gives {want}"]


def check_dims(tag: str, chk: checker.PairChecker, want_cells) -> Callable:
    """``dim``/``grid`` records: exactly the wanted (degree, lo, hi) cells,
    each with the checker's dimension."""
    want = {(n, Fraction(lo), Fraction(hi)) for n, lo, hi in want_cells}

    def check(stdout: str, status: int) -> list[str]:
        problems = _status_matches(status, False, tag)
        seen = set()
        for _, n, lo, hi, got in _records(stdout, tag):
            cell = (int(n), _num(lo), _num(hi))
            seen.add(cell)
            expect = chk.dim(*cell)
            if int(got) != expect:
                problems.append(f"{tag} {n} [{lo},{hi}]: {got}, checker {expect}")
        if seen != want:
            problems.append(f"{tag} records cover {len(seen)} cells, want {len(want)}")
        return problems

    return check


def check_sequence(checkers, lo, hi, certified: bool) -> Callable:
    """Pair sequence nodes: H(A), H(X), H(X, A) from the top degree down,
    then the zero cap; every node dimension from the checker, and every
    checked node exact when the injectivity certificate holds."""
    sub, total, pair = checkers
    top = max(total.top, 0) + 1
    want = []
    for n in range(top, -1, -1):
        want += [(c.dim(n, lo, hi), label) for c, label in
                 ((sub, f"i_{n}"), (total, f"j_{n}"), (pair, f"d_{n}" if n else "0"))]
    want.append((0, ""))

    def check(stdout: str, status: int) -> list[str]:
        rows = _records(stdout, "sequence")
        if [(int(r[2]), r[3]) for r in rows] != want:
            return [f"sequence dims/labels {[(r[2], r[3]) for r in rows]}, want {want}"]
        verdicts = [r[4] for r in rows]
        inner = verdicts[1:-1]
        problems = []
        if verdicts[0] != "-" or verdicts[-1] != "-" or not set(inner) <= {"exact", "FAIL"}:
            problems.append(f"bad verdict column {verdicts}")
        if certified and "FAIL" in inner:
            problems.append(f"[{lo},{hi}] is certified injective but a node is not exact")
        return problems + _status_matches(status, "FAIL" in inner, "the verdicts")

    return check


def check_oracle(chk: checker.PairChecker) -> Callable:
    """Every critical interval and degree once; direct = bars = checker."""
    top = max(chk.top, 0) + 1
    want = {(n, Fraction(lo), Fraction(hi)) for i, lo in enumerate(chk.values)
            for hi in chk.values[i:] for n in range(top + 1)}

    def check(stdout: str, status: int) -> list[str]:
        problems = []
        seen = set()
        mismatch = False
        for _, n, lo, hi, direct, skel, bars, word in _records(stdout, "oracle"):
            cell = (int(n), _num(lo), _num(hi))
            seen.add(cell)
            expect = chk.dim(*cell)
            if not int(direct) == int(bars) == expect:
                problems.append(f"oracle {n} [{lo},{hi}]: direct {direct} bars {bars}, "
                                f"checker {expect}")
            if word not in ("ok", "MISMATCH") or (skel != direct and word == "ok"):
                problems.append(f"oracle {n} [{lo},{hi}]: verdict {word} with skeletal {skel}")
            mismatch |= word == "MISMATCH"
        if seen != want:
            problems.append(f"oracle rows cover {len(seen)} cells, want {len(want)}")
        return problems + _status_matches(status, mismatch, "a MISMATCH row")

    return check


def check_bars(chk: checker.PairChecker) -> Callable:
    """Bars born before they die, at critical values; alive counts that
    recount from the bars, sum to the Euler characteristic and give the
    union-find component count in degree 0."""
    values = set(chk.values)
    degrees = range(chk.top + 2)

    def check(stdout: str, status: int) -> list[str]:
        problems = _status_matches(status, False, "the bars path")
        bars = [(int(n), _num(b), _num(d)) for _, n, b, d in _records(stdout, "bar")]
        for n, birth, death in bars:
            if birth not in values or (death is not None and (death not in values
                                                                or death <= birth)):
                problems.append(f"bar {n} [{birth},{death}) is not at critical values "
                                "with birth < death")
                break
        alive = {(int(n), _num(c)): int(k) for _, n, c, k in _records(stdout, "alive")}
        if set(alive) != {(n, c) for n in degrees for c in values}:
            return problems + [f"alive lines cover {len(alive)} cells"]
        recount = {key: 0 for key in alive}
        for n, birth, death in bars:
            for c in values:
                if birth <= c and (death is None or death > c):
                    recount[n, c] += 1
        if recount != alive:
            problems.append("alive counts differ from a recount of the bars")
        for c in sorted(values):
            euler = sum((-1) ** n * alive[n, c] for n in degrees)
            if euler != chk.euler(c):
                problems.append(f"Euler characteristic at {c}: bars {euler}, "
                                f"simplices {chk.euler(c)}")
            if alive[0, c] != chk.components(c):
                problems.append(f"H0 at {c}: bars {alive[0, c]}, "
                                f"components {chk.components(c)}")
        return problems

    return check


def check_fuzz(count: int) -> Callable:
    """10 verdicts per instance in axiom order and a summary that counts
    them; the axioms that must hold pass, A5 passes or is vacuous, and A4
    and S2 agree instance by instance."""

    def check(stdout: str, status: int) -> list[str]:
        rows = _records(stdout, "axiom")
        if len(rows) != 10 * count:
            return [f"{len(rows)} verdicts, want {10 * count}"]
        problems = []
        counts: dict[str, int] = {}
        for i in range(count):
            block = rows[10 * i: 10 * i + 10]
            if tuple(r[1] for r in block) != AXIOM_ORDER:
                problems.append(f"instance {i}: axioms {[r[1] for r in block]}")
                continue
            verdict = {r[1]: r[3] for r in block}
            for r in block:
                counts[r[3]] = counts.get(r[3], 0) + 1
            bad = [a for a in MUST_PASS if verdict[a] != "pass"]
            if bad or verdict["A5"] not in ("pass", "vacuous"):
                problems.append(f"instance {i}: {sorted(bad) or 'A5'} not passing")
            if (verdict["A4"], block[3][2]) != (verdict["S2"], block[8][2]):
                problems.append(f"instance {i}: A4 and S2 disagree")
        summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        if stdout.splitlines()[-1:] != [f"summary\t{summary}"]:
            problems.append(f"summary line does not read {summary!r}")
        return problems + _status_matches(status, "fail" in counts, "the verdicts")

    return check


# ---------------------------------------------------------------------------
# workloads


def _interval(lo, hi) -> str:
    return f"{Fraction(lo)},{Fraction(hi)}"


def axioms_fuzz(rng: random.Random, work: Path) -> Workload:
    count = 100
    seed = rng.randrange(2**31)
    op = Op("verify-axioms", "cli",
            ["verify-axioms", "--fuzz", str(count), "--seed", str(seed), "--format", "records"],
            check_fuzz(count))
    return Workload([op], [], {"instances": count, "fuzz_seed": seed})


def _entry(table: dict, size: int, rank: float):
    """The value at which the given share of the size-``size`` simplices is in."""
    vals = sorted(v for sk, v in table.items() if len(sk) == size)
    return vals[int(rank * (len(vals) - 1))]


def rips_direct(rng: random.Random, work: Path) -> Workload:
    big = gen.rips(rng, 3, 6, 2)
    grid = gen.rips(rng, 3, 4, 2, levels=8)
    total = gen.rips(rng, 3, 4, 2, levels=8)
    sub = gen.left_half_subset(total)
    big_path = gen.write(work / "direct.txt", gen.filtration_text(big))
    grid_path = gen.write(work / "grid.txt", gen.filtration_text(grid))
    pair_path = gen.write(work / "pair.txt", gen.pair_text(total, sub))

    # endpoints at fixed shares of the edges or triangles present, so that
    # the matrix sizes, and the cost, barely move with the seed; five
    # operations a round, so that the median operation is one of them
    chk = checker.PairChecker(big, p=2)
    top = chk.values[-1]
    cells = [(1, _entry(big, 2, 0.35), top), (2, _entry(big, 3, 0.15), top)]
    ops = [
        Op(f"compute-H{n}-{i}", "cli",
           ["compute", "--input", str(big_path), "--degree", str(n),
            "--interval", _interval(lo, hi), "--field", "2", "--format", "records"],
           check_dims("dim", chk, [(n, lo, hi)]))
        for i, (n, lo, hi) in enumerate(cells)
    ]
    grid_chk = checker.PairChecker(grid, p=2)
    gv = grid_chk.values
    ops.append(Op("grid-H1", "cli",
                  ["grid", "--input", str(grid_path), "--degree", "1", "--field", "2",
                   "--format", "records"],
                  check_dims("grid", grid_chk,
                             [(1, lo, hi) for i, lo in enumerate(gv) for hi in gv[i:]])))

    trio = (checker.PairChecker(sub, p=2), checker.PairChecker(total, p=2),
            checker.PairChecker(total, sub, p=2))
    degrees = range(max(trio[1].top, 0) + 2)
    pv = trio[2].values
    certified = 0
    for i, (lo, hi) in enumerate(((pv[2], pv[4]), (pv[4], pv[7]))):
        injective = checker.injective_on(trio, lo, hi, degrees)
        certified += injective
        ops.append(Op(f"sequence-{i}", "cli",
                      ["sequence", "--pair", str(pair_path), "--interval", _interval(lo, hi),
                       "--field", "2", "--format", "records"],
                      check_sequence(trio, lo, hi, injective)))
    setup = [f"filtration:{big_path}", f"filtration:{grid_path}", f"pair:{pair_path}"]
    facts = {"simplices": {"direct": len(big), "grid": len(grid), "pair": len(total)},
             "critical_values": {"direct": len(chk.values), "grid": len(gv), "pair": len(pv)},
             "certified_sequences": certified}
    return Workload(ops, setup, facts)


def rips_oracle(rng: random.Random, work: Path) -> Workload:
    # the absolute and the relative command get filtrations drawn apart, so
    # that the part of their cost that follows the seed averages out in part
    absolute = gen.rips(rng, 2, 4, 2, levels=6)
    total = gen.rips(rng, 2, 4, 2, levels=6)
    sub = gen.left_half_subset(total)
    abs_path = gen.write(work / "oracle.txt", gen.filtration_text(absolute))
    pair_path = gen.write(work / "oracle_pair.txt", gen.pair_text(total, sub))
    ops = [
        Op("oracle-absolute", "cli",
           ["oracle-compare", "--input", str(abs_path), "--field", "3", "--format", "records"],
           check_oracle(checker.PairChecker(absolute, p=3))),
        Op("oracle-pair", "cli",
           ["oracle-compare", "--input", str(pair_path), "--pair", "--field", "3",
            "--format", "records"],
           check_oracle(checker.PairChecker(total, sub, p=3))),
    ]
    return Workload(ops, [f"filtration:{abs_path}", f"pair:{pair_path}"],
                    {"simplices": [len(absolute), len(total)],
                     "critical_values": [len(set(absolute.values())), len(set(total.values()))]})


def rips_bars(rng: random.Random, work: Path) -> Workload:
    total = gen.rips(rng, 4, 7, 3, levels=12)
    sub = gen.left_half_subset(total)
    abs_path = gen.write(work / "bars.txt", gen.filtration_text(total))
    pair_path = gen.write(work / "bars_pair.txt", gen.pair_text(total, sub))
    ops = [
        Op("bars-absolute", "bars", ["2", f"filtration:{abs_path}"],
           check_bars(checker.PairChecker(total, p=2))),
        Op("bars-pair", "bars", ["2", f"pair:{pair_path}"],
           check_bars(checker.PairChecker(total, sub, p=2))),
    ]
    return Workload(ops, [f"filtration:{abs_path}", f"pair:{pair_path}"],
                    {"simplices": len(total), "subset_simplices": len(sub)})


def rips_cli(rng: random.Random, work: Path) -> Workload:
    """The command-line workloads in one round: fuzz, direct path, oracle.

    They share one round, rather than each having its own, so that a run
    is long enough to average over the spells in which this shared machine
    runs slower; ``rips-bars`` stays apart because it must bypass linalg.
    """
    parts = {"axioms-fuzz": axioms_fuzz(rng, work), "rips-direct": rips_direct(rng, work),
             "rips-oracle": rips_oracle(rng, work)}
    return Workload([op for part in parts.values() for op in part.ops],
                    [item for part in parts.values() for item in part.setup_items],
                    {name: part.facts for name, part in parts.items()})


WORKLOADS = {
    "rips-cli": rips_cli,
    "rips-bars": rips_bars,
}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(results: list[Result]) -> dict[str, float]:
    """Per-layer figures of one traced round, summed over its operations."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for r in results:
        for into, key in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s"),
                          (counters, "counters")):
            for name, value in r.probe[key].items():
                into[name] = into.get(name, 0) + value
    out = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name in counters:
            out[name] = counters[name]
        elif stat == "calls":
            out[name] = calls.get(layer, 0)
        elif stat == "self_s":
            out[name] = self_s.get(layer, 0.0)
        elif stat == "s":
            out[name] = total_s.get(layer, 0.0)
    out["cli.import_s"] = statistics.median(r.probe["import_s"] for r in results)
    out["mem.cache_entries"] = max(r.probe["cache_entries"] for r in results)
    return out


def median_round(rounds: list[list[Result]], key: str = "norm_s") -> float:
    """A round's total time, from each operation's median over the rounds.

    A slow spell of the machine during one operation of one round then
    moves the figure less than it moves the median of the round totals.
    """
    return sum(statistics.median(getattr(rnd[i], key) for rnd in rounds)
               for i in range(len(rounds[0])))


def median_op(times: dict[str, list[float]]) -> float:
    """The time of the median operation: the median, over the workload's
    operations, of each one's median time over the rounds.

    Pooling every time instead puts the median in the gap between two kinds
    of operation whenever a round has an even number of them, where a
    little noise moves it far.
    """
    return statistics.median(statistics.median(t) for t in times.values())


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "persax").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "persax" / "__init__.py").is_file():
        print(f"error: no persax sources under {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    workload = WORKLOADS[args.workload](random.Random(args.seed), workdir)
    setup_op = Op("setup", "setup", workload.setup_items,
                  lambda out, status: [] if status == 0 else [f"exit {status}"])
    speed = calibrate.SpeedLog(WINDOW_S)
    first = run_op(setup_op, workdir, speed)  # untimed: compiles bytecode on a fresh checkout
    if first.problems:
        print(f"error: setup failed: {first.problems}", file=sys.stderr)
        return 2
    setups = [run_op(setup_op, workdir, speed) for _ in range(SETUP_REPEATS)]

    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    malloc: list[Result] = []
    start = time.perf_counter()
    while True:
        plain.append([run_op(op, workdir, speed) for op in workload.ops])
        if args.trace:
            traced.append([run_op(op, workdir, speed, "--spans") for op in workload.ops])
        if time.perf_counter() - start >= args.seconds:
            break
    if args.trace:
        # tracemalloc slows Python code about five times, so only the
        # operation with the largest peak RSS runs under it
        biggest = max((r for rnd in plain for r in rnd), key=lambda r: r.rss_mb)
        malloc = [run_op(biggest.op, workdir, speed, "--malloc")]

    everything = [r for rnd in plain + traced for r in rnd] + malloc
    for r in setups + everything:
        r.norm_s = r.wall_s * speed.factor(r.start, r.start + r.wall_s)
    attempted = len(everything)
    failed = sum(1 for r in everything if r.problems)
    problems = [f"{r.op.name}: {p}" for r in everything for p in r.problems]
    digests = {}
    for r in everything:
        if r.status is not None and digests.setdefault(r.op.name, r.digest) != r.digest:
            problems.append(f"{r.op.name}: stdout differs between runs"
                            + (" (traced vs untraced)" if r.probe else ""))
    correct = not problems

    op_walls = {op.name: [rnd[i].wall_s for rnd in plain] for i, op in enumerate(workload.ops)}
    op_norm = {op.name: [rnd[i].norm_s for rnd in plain] for i, op in enumerate(workload.ops)}
    # the same figures in plain seconds, not normalised; reported, not gated
    raw = {"setup_s": statistics.median(r.wall_s for r in setups),
           "wall_s": median_round(plain, "wall_s"),
           "cmd_p50_s": median_op(op_walls)}
    if args.trace:
        per_round = [layer_metrics(rnd) for rnd in traced if not any(r.problems for r in rnd)]
        layers = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]} \
            if per_round else {}
        if malloc and not any(r.problems for r in malloc):
            layers["mem.tracemalloc_peak_mb"] = max(r.probe["tracemalloc_peak_mb"] for r in malloc)
        layers["trace.overhead_s"] = median_round(traced) - median_round(plain)
        units = dict(PER_LAYER)
        metrics = {name: {"value": layers.get(name, 0), "unit": units[name]}
                   for name, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r.norm_s for r in setups), "unit": "s"},
            "wall_s": {"value": median_round(plain), "unit": "s"},
            "cmd_p50_s": {"value": median_op(op_norm), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for rnd in plain for r in rnd), "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "rounds": len(plain),
        "setup_walls_s": [r.wall_s for r in setups],
        "setup_norm_s": [r.norm_s for r in setups], "op_walls_s": op_walls,
        "op_norm_s": op_norm, "raw": raw,
        "probes": speed.probes,
        "op_starts": {op.name: [rnd[i].start for rnd in plain]
                      for i, op in enumerate(workload.ops)},
        "setup_starts": [r.start for r in setups],
        "by_design": {r.op.name: {word.strip(): r.stdout.count(word.encode())
                                  for word in ("\tfail\n", "\tMISMATCH\n", "\tFAIL\n")}
                      for r in plain[0]},
        "workload_facts": workload.facts, "metrics": metrics,
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "stdout_sha256": digests,
    }
    records = HERE / "_records"
    records.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if traced:
        spans = {r.op.name: r.probe.get("spans") for r in traced[-1] if r.probe}
        (records / f"{stem}.spans.json").write_text(json.dumps(spans))

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in raw.items():
            print(f"{args.workload} {name} {value:.6g} s (plain, not normalised)")
    print(f"{args.workload} attempted {attempted} failed {failed} rounds {len(plain)}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
