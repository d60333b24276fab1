"""Command line interface.

Subcommands: verify, histogram, metrics, scan. Exit codes: 0 on success
(or a consistent verdict), 1 for an inconsistent verdict, 2 on usage
errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bitlinalg import load_matrix
from .errors import FormatError, QvmpError
from .grover import plan_iterations, scan_success_probability
from .runner import (
    DEFAULT_METRICS_GRID,
    ExperimentConfig,
    emit_histogram,
    emit_metrics,
    generate_instance,
    histogram_to_csv,
    metrics_to_csv,
    qvmp_verify,
)


def _parse_mismatches(text: str):
    if "," in text:
        return tuple(int(t) for t in text.split(",") if t.strip())
    return int(text)


def _write(path: str | None, content: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
    else:
        sys.stdout.write(content)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=8, help="matrix rows (power of two)")
    p.add_argument("--m", type=int, default=8, help="matrix columns")
    p.add_argument("--mismatches", type=_parse_mismatches, default=1,
                   help="count, or comma-separated row indices")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qvmp",
                                     description="Grover-search verification of binary matrix products")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="decide whether A*B = C")
    v.add_argument("a", metavar="A", help="matrix file (text or JSON)")
    v.add_argument("b", metavar="B")
    v.add_argument("c", metavar="C")
    v.add_argument("--mode", default="optimal",
                   choices=["optimal", "qvmp", "explicit", "dual"])
    v.add_argument("--iterations", type=int, default=None,
                   help="iteration count for --mode explicit")
    v.add_argument("--shots", type=int, default=1024)
    v.add_argument("--trials", type=int, default=4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="write the full report as JSON")

    h = sub.add_parser("histogram", help="sample the search circuit address register")
    _add_common(h)
    h.add_argument("--mode", default="optimal",
                   choices=["optimal", "qvmp", "explicit", "dual"])
    h.add_argument("--iterations", type=int, default=None)
    h.add_argument("--shots", type=int, default=4096)
    h.add_argument("--out", default=None)
    h.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])

    m = sub.add_parser("metrics", help="circuit metrics over a dimension grid")
    m.add_argument("--grid", default=None,
                   help="JSON file: list of {n, m, mismatches} rows")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default=None)
    m.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])

    s = sub.add_parser("scan", help="exact success mass for k = 0..max iterations")
    _add_common(s)
    s.add_argument("--max-iters", type=int, default=4)
    s.add_argument("--dual", action="store_true", help="track matching rows instead")
    return parser


def _cmd_verify(args) -> int:
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    c = load_matrix(args.c)
    cfg = ExperimentConfig(
        n=a.rows, m=a.cols,
        mismatches=0,
        iteration_mode=args.mode,
        explicit_iterations=args.iterations,
        shots=args.shots,
        seed=args.seed,
        trials=args.trials,
    )
    report = qvmp_verify(a, b, c, cfg)
    if args.out:
        _write(args.out, report.to_json() + "\n")
    if report.decision == "inconsistent":
        bi, row = report.witness
        print(f"inconsistent: block {bi}, row {row}")
        return 1
    print("consistent")
    return 0


def _cmd_histogram(args) -> int:
    inst = generate_instance(args.n, args.m, args.mismatches, args.seed)
    plan = plan_iterations(args.n, len(inst.solutions), args.mode, args.iterations)
    payload = emit_histogram(inst, plan, args.shots, args.seed)
    if args.fmt == "json":
        _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _write(args.out, histogram_to_csv(payload))
    return 0


def _load_grid(path: str) -> list[tuple]:
    """(n, m, mismatches) rows of a ``--grid`` file; FormatError unless it
    is a JSON list of objects that each hold those three keys, with integer
    n and m and a mismatch count or list of row indices."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            spec = json.load(f)
        except ValueError as e:
            raise FormatError(f"grid file {path} is not JSON: {e}") from e
    if not isinstance(spec, list) or not all(isinstance(row, dict) for row in spec):
        raise FormatError(f"grid file {path} is not a list of {{n, m, mismatches}} objects")
    for row in spec:
        missing = [key for key in ("n", "m", "mismatches") if key not in row]
        if missing:
            raise FormatError(f"grid row {json.dumps(row)} lacks {', '.join(missing)}")
        mismatches = row["mismatches"]
        if not (isinstance(row["n"], int) and isinstance(row["m"], int)
                and (isinstance(mismatches, int) or isinstance(mismatches, list)
                     and all(isinstance(r, int) for r in mismatches))):
            raise FormatError(f"grid row {json.dumps(row)} needs integer n, m and mismatches")
    return [(row["n"], row["m"], row["mismatches"]) for row in spec]


def _cmd_metrics(args) -> int:
    grid = _load_grid(args.grid) if args.grid else DEFAULT_METRICS_GRID
    rows = emit_metrics(grid, seed=args.seed)
    if args.fmt == "json":
        _write(args.out, json.dumps(rows, sort_keys=True) + "\n")
    else:
        _write(args.out, metrics_to_csv(rows))
    return 0


def _cmd_scan(args) -> int:
    inst = generate_instance(args.n, args.m, args.mismatches, args.seed)
    points = scan_success_probability(inst, args.max_iters, dual=args.dual)
    print("iterations,probability")
    for k, p in points:
        print(f"{k},{p!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "histogram": _cmd_histogram,
        "metrics": _cmd_metrics,
        "scan": _cmd_scan,
    }
    try:
        return handlers[args.command](args)
    except (QvmpError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
