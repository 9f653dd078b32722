"""Line census: the executable lines of ``src/persax`` that no test runs.

An opt-in tool, not a test: pytest does not collect this file.  It runs the
test suite in this process under a ``sys.settrace`` line collector, and
reaches the ``python -m persax`` children through a temporary
``sitecustomize`` on ``PYTHONPATH`` that installs the same collector in each
of them; the fuzz workers that a process forks count too.  It prints the
unrun lines of each module of ``src/persax`` and their total.

Run it from anywhere; extra arguments go to pytest (default ``-q``).  The
traced suite takes about three times as long as the plain one::

    python tests/line_census.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "persax"

# Runs as the children's sitecustomize, and in this process by exec; each
# child writes its hits to a file of its own when it exits.  A forked child
# starts with no hits and ends through ``os._exit``, which skips ``atexit``,
# so the collector wraps ``os._exit`` to write them first.
COLLECTOR = """\
import os, sys

_prefix = os.environ["LINE_CENSUS_PREFIX"]
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_prefix) else None


def _dump():
    sys.settrace(None)
    path = os.path.join(os.environ["LINE_CENSUS_DIR"], f"{os.getpid()}.txt")
    with open(path, "a") as out:
        out.writelines(f"{name}\\t{line}\\n" for name, line in _hits)


def _exit(status, _real_exit=os._exit):
    _dump()
    _real_exit(status)


sys.settrace(_call)
os.register_at_fork(after_in_child=_hits.clear)
os._exit = _exit
if __name__ == "sitecustomize":
    import atexit
    atexit.register(_dump)
"""


def executable_lines(path: Path) -> set[int]:
    """The source lines that some instruction of the module's code carries."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(numbers) -> str:
    """``1, 3-5, 9`` for the sorted numbers 1, 3, 4, 5, 9."""
    spans = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    with tempfile.TemporaryDirectory(prefix="line_census_") as scratch:
        os.environ["LINE_CENSUS_PREFIX"] = str(PACKAGE)
        os.environ["LINE_CENSUS_DIR"] = scratch
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (scratch, os.environ.get("PYTHONPATH")) if p)
        Path(scratch, "sitecustomize.py").write_text(COLLECTOR)
        collector = {"__name__": "line_census_collector"}
        os.chdir(ROOT)
        exec(COLLECTOR, collector)
        pytest.main(argv or ["-q"])
        collector["_dump"]()
        hits: dict[str, set[int]] = {}
        for record in Path(scratch).glob("*.txt"):
            for row in record.read_text().splitlines():
                name, line = row.rsplit("\t", 1)
                hits.setdefault(os.path.realpath(name), set()).add(int(line))

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = executable_lines(path) - hits.get(os.path.realpath(path), set())
        total += len(unrun)
        if unrun:
            print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun: {ranges(unrun)}")
    print(f"total: {total} unrun lines in {PACKAGE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
