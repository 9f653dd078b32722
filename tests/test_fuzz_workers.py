"""``verify-axioms --fuzz`` on forked workers.

The command spreads its fuzz instances over one process per CPU that it may
run on.  Its output must be the serial run's, byte for byte, whatever the
CPU count; a failing worker must end the command as the serial run ends,
and no worker may outlive the command.
"""

import os
import signal
import time

import pytest

from persax import GF2, OracleMismatch, cli, fuzz
from persax.fuzz import fuzz_axiom_reports

from ._cli import fake_cpus, main_on_cpus

PAIR_TEXT = "[X]\n0 a\n0 b\n1 c\n1 a b\n2 b c\n[A]\n0 a\n0 b\n"
RIM_TEXT = "0 a\n0 b\n0 c\n1 a b\n1 a c\n1 b c\n"


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_lines(reports, records: bool) -> str:
    """The command's stdout for these reports, built without the fan-out."""
    lines, _ = cli._axiom_lines(reports, records)
    counts = {}
    for rep in reports:
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
    summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    lines.append(f"summary\t{summary}" if records else f"summary: {summary}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 25])
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_output_is_the_serial_output(cpus, count, fmt, monkeypatch, capsys):
    argv = ["verify-axioms", "--fuzz", str(count), "--seed", "13", "--format", fmt]
    code, out, err, forks = main_on_cpus(cpus, argv, monkeypatch, capsys)
    assert forks == min(cpus, count) - 1
    assert out == serial_lines(fuzz_axiom_reports(count, 13), fmt == "records")
    assert (code, err) == (1 if "fail" in out.split("summary")[-1] else 0, "")
    assert_no_child_is_left()


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_input_reports_come_before_the_forked_ones(cpus, fmt, tmp_path, monkeypatch, capsys):
    (tmp_path / "pair.txt").write_text(PAIR_TEXT)
    (tmp_path / "rim.txt").write_text(RIM_TEXT)
    argv = ["verify-axioms", "--input", str(tmp_path / "pair.txt"),
            "--input", str(tmp_path / "rim.txt"), "--fuzz", "7", "--seed", "3",
            "--format", fmt]
    serial = main_on_cpus(1, argv, monkeypatch, capsys)
    forked = main_on_cpus(cpus, argv, monkeypatch, capsys)
    assert (serial[3], forked[3]) == (0, cpus - 1)
    assert forked[:3] == serial[:3]
    fuzz_part = serial_lines(fuzz_axiom_reports(7, 3), fmt == "records").splitlines()[:-1]
    body = serial[1].splitlines()[:-1]
    assert len(body) > len(fuzz_part) and body[-len(fuzz_part):] == fuzz_part
    assert_no_child_is_left()


def test_one_cpu_never_forks(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["verify-axioms", "--fuzz", "5", "--seed", "13", "--format", "records"]) == 0
    assert capsys.readouterr() == (serial_lines(fuzz_axiom_reports(5, 13), True), "")


def test_a_second_thread_keeps_the_run_in_process(monkeypatch):
    fake_cpus(monkeypatch, 2)
    assert fuzz._allowed_cpus() == {0, 1}
    monkeypatch.setattr(fuzz.threading, "active_count", lambda: 2)
    assert fuzz._allowed_cpus() == set()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(fuzz.threading, "active_count", lambda: 1)
    assert fuzz._allowed_cpus() == set()


def test_this_process_is_pinned_while_its_workers_run(monkeypatch, capsys):
    pins = fake_cpus(monkeypatch, 3)
    assert cli.main(["verify-axioms", "--fuzz", "5", "--seed", "13"]) == 0
    assert pins == [{0}, {0, 1, 2}]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two CPUs to pin to")
def test_each_worker_runs_on_its_own_cpu(monkeypatch, capsys):
    # worker 1 raises with its affinity, which comes back through its pipe
    allowed = os.sched_getaffinity(0)
    seeds = fuzz._instance_seeds(2, 13)
    real = fuzz._instance_reports

    def patched(instance_seed, field):
        if instance_seed == seeds[1]:
            raise AssertionError(sorted(os.sched_getaffinity(0)))
        return real(instance_seed, field)

    monkeypatch.setattr(fuzz, "_instance_reports", patched)
    assert cli.main(["verify-axioms", "--fuzz", "2", "--seed", "13"]) == 2
    second = sorted(allowed)[1]
    assert capsys.readouterr().err == f"error: internal check failed: [{second}]\n"
    assert os.sched_getaffinity(0) == allowed
    assert_no_child_is_left()


def raising_at(monkeypatch, errors: dict):
    """Make the instances at the given indices raise the given exceptions."""
    seeds = fuzz._instance_seeds(4, 13)
    real = fuzz._instance_reports

    def patched(instance_seed, field):
        i = seeds.index(instance_seed)
        if i in errors:
            raise errors[i]
        return real(instance_seed, field)

    monkeypatch.setattr(fuzz, "_instance_reports", patched)


# with two workers, instances 1 and 3 run in the child and 0 and 2 here;
# instance 0 runs before the fork, so when it raises nothing is forked
@pytest.mark.parametrize("errors, stderr, forks", [
    ({1: OracleMismatch("boundary image is not made of cycles")},
     "error: boundary image is not made of cycles\n", 1),
    ({1: AssertionError("rank-nullity failed")},
     "error: internal check failed: rank-nullity failed\n", 1),
    ({3: AssertionError("third"), 2: OracleMismatch("second")}, "error: second\n", 1),
    ({1: AssertionError("first"), 2: OracleMismatch("second")},
     "error: internal check failed: first\n", 1),
    ({0: OracleMismatch("zeroth"), 1: AssertionError("first")}, "error: zeroth\n", 0),
], ids=["mismatch-in-child", "assertion-in-child", "parent-first", "child-first", "zeroth"])
def test_the_first_raising_instance_ends_the_run(errors, stderr, forks, monkeypatch, capsys):
    raising_at(monkeypatch, errors)
    argv = ["verify-axioms", "--fuzz", "4", "--seed", "13"]
    serial = main_on_cpus(1, argv, monkeypatch, capsys)
    forked = main_on_cpus(2, argv, monkeypatch, capsys)
    assert serial == (2, "", stderr, 0)
    assert forked == (2, "", stderr, forks)
    assert_no_child_is_left()


def test_a_killed_worker_is_an_error_not_a_hang(monkeypatch, capsys):
    parent = os.getpid()
    seeds = fuzz._instance_seeds(4, 13)
    real = fuzz._instance_reports

    def patched(instance_seed, field):
        if instance_seed == seeds[1]:
            assert os.getpid() != parent, "instance 1 ran in the parent"
            os.kill(os.getpid(), signal.SIGKILL)
        return real(instance_seed, field)

    monkeypatch.setattr(fuzz, "_instance_reports", patched)
    code, out, err, forks = main_on_cpus(2, ["verify-axioms", "--fuzz", "4", "--seed", "13"],
                                         monkeypatch, capsys)
    assert (code, out, forks) == (2, "", 1)
    assert err == "error: fuzz worker 1 was killed by signal 9 without a result\n"
    assert_no_child_is_left()


def test_a_worker_that_exits_early_is_an_error(monkeypatch, capsys):
    seeds = fuzz._instance_seeds(4, 13)
    real = fuzz._instance_reports

    def patched(instance_seed, field):
        if instance_seed == seeds[3]:
            os._exit(3)
        return real(instance_seed, field)

    monkeypatch.setattr(fuzz, "_instance_reports", patched)
    code, out, err, _ = main_on_cpus(2, ["verify-axioms", "--fuzz", "4", "--seed", "13"],
                                     monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == "error: fuzz worker 1 exited with status 3 without a result\n"
    assert_no_child_is_left()


def test_an_interrupted_run_kills_its_workers(monkeypatch):
    # the child would sleep for a minute: it is killed, not waited for
    parent = os.getpid()
    seeds = fuzz._instance_seeds(4, 13)
    real = fuzz._instance_reports

    def patched(instance_seed, field):
        if os.getpid() != parent:
            time.sleep(60)
        elif instance_seed == seeds[2]:
            raise KeyboardInterrupt
        return real(instance_seed, field)

    monkeypatch.setattr(fuzz, "_instance_reports", patched)
    pins = fake_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fuzz._spread_fuzz_reports(4, 13, GF2)
    assert time.monotonic() - start < 30
    assert pins == [{0}, {0, 1}]
    assert_no_child_is_left()
