"""Run the persax command line in a child process, or in this one as if
the process may run on a given number of CPUs.

The child imports the same ``persax`` source tree as the test process, from
any checkout and any working directory: ``PYTHONPATH`` is led by the absolute
directory that holds the imported package, followed by any existing
``PYTHONPATH``.  Input files are passed as absolute paths, so no working
directory is set.
"""

import os
import subprocess
import sys
from pathlib import Path

import persax
from persax import cli

SOURCE_ROOT = str(Path(persax.__file__).resolve().parents[1])


def run_persax(*args, **kwargs):
    """``subprocess.run([python, -m, persax, *args], **kwargs)`` on this source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "persax", *args],
                          env=env, **kwargs)


def fake_cpus(patch, cpus: int) -> list:
    """Make ``os.sched_getaffinity`` report ``cpus`` CPUs, and make
    ``os.sched_setaffinity`` record each mask in the returned list instead
    of pinning, since those CPUs need not exist."""
    pins = []
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    patch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(set(mask)))
    return pins


def main_on_cpus(cpus: int, argv, monkeypatch, capsys):
    """``cli.main(argv)`` in this process as if it may run on ``cpus`` CPUs
    (``fake_cpus``): its exit code, stdout, stderr and the number of times
    this process called ``os.fork``."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    capsys.readouterr()
    with monkeypatch.context() as patch:
        fake_cpus(patch, cpus)
        patch.setattr(os, "fork", counted_fork)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, len(forks)
