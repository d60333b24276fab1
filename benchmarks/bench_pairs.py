#!/usr/bin/env python3
"""Paired before/after runs of perfbench, written as ``BENCH_<label>.json``.

    python3 benchmarks/bench_pairs.py --parent ../parent --change . \\
        --workloads metrics_grid verify_flipped --seeds 31-40 --seconds 55 \\
        --label lowered_metrics

For each workload and seed, runs ``perfbench/run.py --trace 0`` once from
each checkout, one process at a time; the side that goes first alternates
by seed (even seeds start with the parent). Each checkout imports its own
``src``. The output holds, per workload and end-to-end metric, each side's
median, quartiles and runs, the pairs the change won, the metric's bound
and whether the change's median is within it (no worse than the parent's
median by more than that fraction, in the metric's better direction),
whether the change meets the gain rule (it wins at least 9 of every 10
pairs, and its median beats the parent's by more than the parent's
q3 - q1), whether the metric is unresolved (the parent's q3 - q1 is wider
than the bound times its median, and not every change run beats every
parent run), and the attempted and failed operation counts; each metric
outside its bound or unresolved is also named on stderr. Metric names,
directions and bounds come from the change's ``BENCHMARK.json``; the file
is written in the current directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """"31-40" or "1,4,9" (ranges and items may mix)."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5),
            "runs": [round(v, 5) for v in runs]}


def workload_entry(results: dict, seeds: list[int], spec: list[dict]) -> dict:
    """``results[side]`` lists one perfbench result per seed."""
    metrics = {}
    for metric in spec:
        name, better = metric["name"], metric["better"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(runs["parent"], runs["change"]))
        entry = {"better": better, **{side: summary(runs[side]) for side in SIDES},
                 "change_wins": wins}
        parent_median, change_median = entry["parent"]["median"], entry["change"]["median"]
        if parent_median:
            entry["median_ratio_change_over_parent"] = round(change_median / parent_median, 4)
        bound = metric["bound"]
        entry["bound"] = bound
        entry["within_bound"] = (change_median <= parent_median * (1 + bound)
                                 if better == "lower"
                                 else change_median >= parent_median * (1 - bound))
        gain = parent_median - change_median if better == "lower" else change_median - parent_median
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["meets_gain_rule"] = 10 * wins >= 9 * len(runs["parent"]) and gain > spread
        beats_all = (max(runs["change"]) < min(runs["parent"]) if better == "lower"
                     else min(runs["change"]) > max(runs["parent"]))
        entry["unresolved"] = spread > bound * parent_median and not beats_all
        metrics[name] = entry
    return {
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='e.g. "31-40"')
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--summary", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="the gain the change claims")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    end_to_end = {}
    for workload in args.workloads:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        for seed in args.seeds:
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                results[side].append(result)
                print(f"{workload} seed {seed} {side}: op_s "
                      f"{result['metrics']['op_s']['value']:.5g}", file=sys.stderr)
        end_to_end[workload] = entry = workload_entry(results, args.seeds, spec)
        for name, metric in entry["metrics"].items():
            if not metric["within_bound"]:
                print(f"{workload} {name}: change median {metric['change']['median']:.5g} is "
                      f"worse than the parent's {metric['parent']['median']:.5g} by more "
                      f"than its bound of {metric['bound']:.0%}", file=sys.stderr)
            if metric["unresolved"]:
                parent = metric["parent"]
                print(f"{workload} {name}: unresolved, the parent's quartile spread "
                      f"{parent['q3'] - parent['q1']:.5g} is wider than its bound of "
                      f"{metric['bound']:.0%} of the parent's median {parent['median']:.5g}",
                      file=sys.stderr)

    record = {
        "label": args.label,
        "parent_commit": commit(checkouts["parent"]),
        "change_commit": commit(checkouts["change"]),
        "change": args.summary,
        "harness": (f"python3 perfbench/run.py --workload <name> --seed <s> "
                    f"--seconds {args.seconds:g} --trace 0, run from a checkout of each side "
                    f"by benchmarks/bench_pairs.py; {len(args.seeds)} pairs per workload, "
                    f"seeds {args.seeds[0]}-{args.seeds[-1]}, the side run first "
                    f"alternating by seed"),
        "machine": (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}, one process at a time"),
        "claim": args.claim,
        "end_to_end": end_to_end,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
