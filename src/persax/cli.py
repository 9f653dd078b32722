"""Command-line entry points.

Commands: ``compute`` (one group), ``grid`` (dimensions over all critical
endpoint pairs), ``sequence`` (build and check an exact sequence),
``verify-axioms`` (the full axiom suite on files and/or seeded random
instances), ``oracle-compare`` (direct vs skeletal vs bar-count dimensions),
and ``induced`` (the matrix of a map file).  Exit code 0 means every verdict
passed, 1 that some verdict failed, and 2 a usage error or a failed internal
check.  With a fixed seed the output bytes are fully reproducible.

Each command imports the modules it runs when it runs, so a process loads
only what its command reaches.
"""

from __future__ import annotations

import argparse
import sys

from .filtration import Interval, OracleMismatch, critical_intervals, fin, pair_of, union
from .formats import (instance_tag, parse_any, parse_cover, parse_filtration, parse_map, parse_pair,
                      parse_sections, parse_triple)


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad interval {text!r}: expected 'lo,hi'")
    return Interval(fin(parts[0].strip()), fin(parts[1].strip()))


def _load_input(path: str, as_pair: bool):
    if as_pair:
        return parse_pair(path)
    return pair_of(parse_filtration(path))


def _format_chain(simplices, vector, field) -> str:
    terms = [
        f"{coef}*{{{','.join(sk)}}}"
        for sk, coef in zip(simplices, vector)
        if coef != field.zero
    ]
    return " + ".join(terms) if terms else "0"


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))


def _cmd_compute(args, field) -> int:
    from .homology import homology

    pair = _load_input(args.input, args.pair)
    interval = _parse_interval(args.interval)
    group = homology(pair, args.degree, interval, field)
    lines = []
    if args.format == "records":
        lines.append(f"dim\t{args.degree}\t{interval.lo}\t{interval.hi}\t{group.dim}")
    else:
        lines.append(f"H_{args.degree}{interval} over {field}: dim {group.dim}")
        for j in range(group.dim):
            lines.append(f"  rep {j}: {_format_chain(group.simplices, group.reps.column(j), field)}")
    _emit(lines)
    return 0


def _cmd_grid(args, field) -> int:
    from .homology import betti_grid

    pair = _load_input(args.input, args.pair)
    grid = betti_grid(pair, args.degree, field)
    lines = []
    if args.format == "records":
        for i, lo in enumerate(grid.values):
            for j in range(i, len(grid.values)):
                lines.append(f"grid\t{args.degree}\t{lo}\t{grid.values[j]}\t{grid.value(i, j)}")
    else:
        lines.append(f"degree {args.degree} grid over critical values "
                     f"{[str(v) for v in grid.values]}")
        for i, row in enumerate(grid.entries):
            cells = ["." if c is None else str(c) for c in row]
            lines.append(f"  {grid.values[i]}: " + " ".join(cells))
    _emit(lines)
    return 0


def _cmd_sequence(args, field) -> int:
    from .sequences import check_exact, les_pair, les_triple, mayer_vietoris, triad_sequence

    interval = _parse_interval(args.interval)
    if args.triple:
        x, a, b = parse_triple(args.pair)
        seq = les_triple(x, a, b, interval, field=field)
    elif args.mv:
        x1, x2 = parse_cover(args.pair)
        seq = mayer_vietoris(x1, x2, interval, field=field)
    elif args.triad:
        sections = parse_sections(args.pair, "cover")
        x1, x2 = sections["X1"], sections["X2"]
        ambient = sections["X"] if "X" in sections else union(x1, x2)
        seq = triad_sequence(ambient, x1, x2, interval, field=field)
    else:
        seq = les_pair(parse_pair(args.pair), interval, field=field)
    report = check_exact(seq)
    verdicts = {c.index: c for c in report.checks}
    lines = []
    for i, node in enumerate(seq.nodes):
        check = verdicts.get(i)
        verdict = "-" if check is None else ("exact" if check.ok else "FAIL")
        label = seq.labels[i] if i < len(seq.labels) else ""
        if args.format == "records":
            lines.append(f"sequence\t{i}\t{node.dim}\t{label}\t{verdict}")
        else:
            arrow = f" --{label}-->" if label else ""
            lines.append(f"node {i}: dim {node.dim} [{verdict}]{arrow}")
    _emit(lines)
    return 0 if report.ok else 1


def _axiom_lines(reports, records: bool) -> tuple[list[str], bool]:
    from .axioms import FAIL

    lines = []
    all_ok = True
    for rep in reports:
        if rep.verdict == FAIL:
            all_ok = False
        if records:
            lines.append(f"axiom\t{rep.axiom}\t{rep.instance}\t{rep.verdict}")
        else:
            detail = "; ".join(f"{k}={v}" for k, v in rep.details)
            suffix = f" ({detail})" if detail else ""
            lines.append(f"{rep.axiom} [{rep.instance}]: {rep.verdict}{suffix}")
    return lines, all_ok


def _cmd_verify_axioms(args, field) -> int:
    from .axioms import _AXIOMS, verify_axiom
    from .fuzz import _spread_fuzz_reports

    if args.fuzz < 0:
        raise ValueError(f"--fuzz must not be negative, got {args.fuzz}")
    if not args.input and not args.fuzz:
        raise ValueError("verify-axioms needs --input or a positive --fuzz")
    on_pair = [a for a, row in _AXIOMS.items() if row.keys == ("pair", "interval")]
    reports = []
    for path in args.input or ():
        pair = parse_any(path)
        tag = instance_tag(pair)
        for interval in critical_intervals(pair) or (Interval(0, 0),):
            runs = {}  # A4 and S2 run one check on the same objects
            reports.extend(verify_axiom(axiom, field, _runs=runs, pair=pair,
                                        interval=interval, tag=tag) for axiom in on_pair)
    if args.fuzz:
        reports.extend(_spread_fuzz_reports(args.fuzz, args.seed, field))
    lines, all_ok = _axiom_lines(reports, args.format == "records")
    counts = {}
    for rep in reports:
        counts[rep.verdict] = counts.get(rep.verdict, 0) + 1
    summary = " ".join(f"{k}={counts[k]}" for k in sorted(counts))
    lines.append(f"summary\t{summary}" if args.format == "records" else f"summary: {summary}")
    _emit(lines)
    return 0 if all_ok else 1


def _cmd_oracle_compare(args, field) -> int:
    from .barcode import bars_alive, pair_barcode
    from .homology import _degrees, homology
    from .skeletal import direct_to_skeletal, skeletal_homology

    pair = _load_input(args.input, args.pair)
    bars = pair_barcode(pair, field)
    lines = []
    ok = True
    for interval in critical_intervals(pair) or (Interval(0, 0),):
        for n in _degrees(pair.total):
            counted = bars_alive(bars, n, interval)
            try:
                iso = direct_to_skeletal(pair, n, interval, field)
            except OracleMismatch:
                direct = homology(pair, n, interval, field).dim
                skeletal = skeletal_homology(pair, n, interval, field).dim
                agree = False
            else:
                direct, skeletal = iso.source.dim, iso.target.dim
                agree = direct == skeletal == counted
            ok = ok and agree
            word = "ok" if agree else "MISMATCH"
            if args.format == "records":
                lines.append(
                    f"oracle\t{n}\t{interval.lo}\t{interval.hi}\t{direct}\t{skeletal}\t{counted}\t{word}"
                )
            else:
                lines.append(
                    f"degree {n} {interval}: direct={direct} skeletal={skeletal} "
                    f"bars={counted} [{word}]"
                )
    _emit(lines)
    return 0 if ok else 1


def _cmd_induced(args, field) -> int:
    from .homology import induced_map

    f = parse_map(args.map)
    interval = _parse_interval(args.interval)
    lm = induced_map(f, args.degree, interval, field)
    lines = []
    if args.format == "records":
        lines.append(f"induced\t{args.degree}\t{interval.lo}\t{interval.hi}"
                     f"\t{lm.matrix.nrows}x{lm.matrix.ncols}")
        for row in lm.matrix.rows:
            lines.append("row\t" + "\t".join(str(a) for a in row))
    else:
        lines.append(f"induced map in degree {args.degree} over {interval}: "
                     f"{lm.matrix.nrows}x{lm.matrix.ncols}")
        text = lm.matrix.pretty()
        lines.extend("  " + ln for ln in text.splitlines())
    _emit(lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="persax",
                                     description="interval homology of filtered sets")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", type=int, default=2, help="prime field characteristic")
    common.add_argument("--format", choices=("text", "records"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="one homology group with representatives")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", action="store_true")
    p.add_argument("--interval", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=_cmd_compute)

    p = sub.add_parser("grid", parents=[common],
                       help="dimensions over all critical endpoint pairs")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", action="store_true")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=_cmd_grid)

    p = sub.add_parser("sequence", parents=[common],
                       help="build a homology sequence and check exactness")
    p.add_argument("--pair", required=True, help="pair/triple/cover file")
    p.add_argument("--interval", required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--triple", action="store_true")
    kind.add_argument("--triad", action="store_true")
    kind.add_argument("--mv", action="store_true")
    p.set_defaults(run=_cmd_sequence)

    p = sub.add_parser("verify-axioms", parents=[common], help="run the axiom suite")
    p.add_argument("--input", action="append")
    p.add_argument("--fuzz", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_verify_axioms)

    p = sub.add_parser("oracle-compare", parents=[common],
                       help="direct vs skeletal vs bar counts")
    p.add_argument("--input", required=True)
    p.add_argument("--pair", action="store_true")
    p.set_defaults(run=_cmd_oracle_compare)

    p = sub.add_parser("induced", parents=[common], help="matrix induced by a map file")
    p.add_argument("--map", required=True)
    p.add_argument("--interval", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(run=_cmd_induced)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .fields import GF

    try:
        return args.run(args, GF(args.field))
    except (ValueError, OSError, OracleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
