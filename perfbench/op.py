"""One benchmark operation, run in a fresh Python process.

    python3 perfbench/op.py [--spans OUT | --malloc OUT] setup KIND:PATH ...
    python3 perfbench/op.py [--spans OUT | --malloc OUT] bars FIELD KIND:PATH
    python3 perfbench/op.py [--spans OUT | --malloc OUT] cli ARG ...

KIND is ``filtration`` or ``pair``.  ``setup`` imports persax and parses and
validates the files, and nothing more.  ``bars`` is the library path of the
bars workload: parse, ``pair_barcode``, then ``bars_alive`` in every degree
at every critical value; it prints one ``bar`` line per bar and one
``alive`` line per (degree, value).  ``cli`` runs ``persax.cli.main`` on the
arguments, as ``python3 -m persax`` would.

With ``--spans``, the persax entry points are wrapped (see tracer.py), and
the import time, calls, self times, counters, lru_cache sizes and kept spans
go to OUT as JSON.  With ``--malloc``, tracemalloc runs instead and its peak
goes to OUT; it is a separate pass because it slows Python code several
times over and would swamp the self times.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_persax():
    start = time.perf_counter()
    import persax
    import persax.cli
    took = time.perf_counter() - start
    where = Path(persax.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"persax imported from {where}, not from {SRC}")
    return persax, took


def _load(px, item: str):
    kind, _, path = item.partition(":")
    if kind == "pair":
        return px.formats.parse_pair(path)
    if kind == "filtration":
        return px.pair_of(px.formats.parse_filtration(path))
    raise SystemExit(f"unknown input kind {kind!r}")


def _bars(px, field: str, item: str) -> None:
    pair = _load(px, item)
    bars = px.pair_barcode(pair, px.GF(int(field)))
    lines = [f"bar\t{b.degree}\t{b.birth}\t{b.death}" for b in bars]
    for n in range(pair.total.dimension + 2):
        for c in px.critical_values(pair):
            alive = px.bars_alive(bars, n, px.Interval(c, c))
            lines.append(f"alive\t{n}\t{c}\t{alive}")
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv: list[str]) -> int:
    probe = out = None
    if argv[:1] in (["--spans"], ["--malloc"]):
        probe, out, argv = argv[0], Path(argv[1]), argv[2:]
    mode, args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    px, import_s = _import_persax()
    if probe:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        if probe == "--spans":
            tracer.install()
        else:
            tracemalloc.start()
    status = 0
    if mode == "setup":
        for item in args:
            _load(px, item)
    elif mode == "bars":
        _bars(px, args[0], args[1])
    elif mode == "cli":
        status = px.cli.main(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if probe == "--spans":
        record = tracer.report()
        record.update(import_s=import_s, cache_entries=tracer.cache_entries(),
                      spans=tracer.spans())
        out.write_text(json.dumps(record))
    elif probe == "--malloc":
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.write_text(json.dumps({"tracemalloc_peak_mb": peak / 2**20,
                                   "cache_entries": tracer.cache_entries()}))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
