#!/usr/bin/env python3
"""Compare a change with its parent revision on the benchmark in alternating
pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change . --pr N \\
        profile-l2:301 certify-sup:201 verify-members:101 \\
        --pairs 10 --seconds 15 --claim profile-l2:wall_s

`--parent` is a git revision of the repository that holds this script.  It
is exported with `git archive REV | tar -x` into a temporary directory,
removed at exit, and `git rev-parse --short REV` is written as `"parent"`.
`--change` is a checkout directory.  Each WORKLOAD:FIRST_SEED runs
`python3 perfbench/run.py` in both trees, pair k (k = 0, 1, ...) with seed
FIRST_SEED + k in both.  Pairs alternate the order: odd pairs (the 1st, 3rd,
...) run the parent first.  The summary gives, per end-to-end metric of the
change's BENCHMARK.json, the quartiles of each side, the number of pairs the
change won, the relative change of the median and the parent's
interquartile range.  Per operation it gives each side's
median reference seconds over all rounds of all its runs, read from the
`per_op_ref_s` of the run's perfbench/results/<workload>-seed<seed>-trace0.json.
It is rewritten after each workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent git revision")
    ap.add_argument("--change", required=True, type=Path, help="change checkout")
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD:FIRST_SEED")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the metric the change claims to improve")
    return ap.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """The JSON summary line of one perfbench run in `checkout`, and the
    reference seconds of each of its operations, {name: [one per round]}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    detail = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    per_op = json.loads(detail.read_text())["per_op_ref_s"]
    return json.loads(out.stdout.strip().splitlines()[-1]), per_op


def quartiles(values: list) -> dict:
    """q1, median and q3; all three are the value itself when there is one."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def per_op_medians(per_op: dict) -> dict:
    """{op: {parent, change, median_change_rel}}: each side's median seconds of
    an operation over all rounds of all its runs (null where it never
    succeeded); `per_op[side]` holds one {op: [seconds]} per run."""
    names = dict.fromkeys(name for runs in per_op.values() for run in runs for name in run)
    out = {}
    for name in names:
        med = {}
        for side, runs in per_op.items():
            values = [t for run in runs for t in run.get(name, [])]
            med[side] = round(statistics.median(values), 6) if values else None
        rel = (round(med["change"] / med["parent"] - 1.0, 4)
               if med["parent"] and med["change"] is not None else None)
        out[name] = {**med, "median_change_rel": rel}
    return out


def summarize(seeds: list, results: dict, metrics: list) -> dict:
    """`results[side]` holds one perfbench summary per pair."""
    runs = {side: {"correct": all(r["correct"] for r in rs),
                   "attempted": sum(r["attempted"] for r in rs),
                   "failed": sum(r["failed"] for r in rs)}
            for side, rs in results.items()}
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
        par, chg = quartiles(vals["parent"]), quartiles(vals["change"])
        out[name] = {
            "unit": m["unit"], "parent": par, "change": chg,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"])),
            "median_change_rel": round(chg["median"] / par["median"] - 1.0, 4),
            "parent_iqr": round(par["q3"] - par["q1"], 6),
        }
    return {"seeds": seeds, "runs": runs, "metrics": out}


def detect_host() -> str:
    model = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return (f"{os.cpu_count()}-CPU {model} {platform.system()} host; "
            f"Python {platform.python_version()}, numpy {versions[0]}, scipy {versions[1]}")


def git(*args: str) -> bytes:
    """The output of `git ARGS` in the repository that holds this script."""
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
        claim = {"workload": workload, "metric": metric, "better": better}
    summary = {
        "pr": args.pr, "parent": git("rev-parse", "--short", args.parent).decode().strip(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "seconds": int(args.seconds) if args.seconds.is_integer() else args.seconds,
        "pairs": args.pairs,
        "order": "alternating; odd pairs run the parent first",
        "host": detect_host(),
        "units": "end-to-end times in reference seconds (perfbench/refspeed.py), memory in MB",
        "claim": claim, "workloads": {},
    }
    out_path = Path(f"BENCH_{args.pr}.json")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        subprocess.run(["tar", "-x", "-C", parent], input=git("archive", args.parent), check=True)
        checkouts = {"parent": Path(parent), "change": args.change}
        for item in args.runs:
            workload, first = item.split(":")
            seeds = [int(first) + k for k in range(args.pairs)]
            results = {"parent": [], "change": []}
            per_op = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    r, ops = run_once(checkouts[side], workload, seed, args.seconds)
                    results[side].append(r)
                    per_op[side].append(ops)
                    print(f"{workload} pair {k + 1} seed {seed} {side}: correct={r['correct']} "
                          f"failed={r['failed']} wall_s={r['metrics']['wall_s']['value']:.4f}",
                          file=sys.stderr, flush=True)
            summary["workloads"][workload] = {**summarize(seeds, results, bench["end_to_end"]),
                                              "per_op_s": per_op_medians(per_op)}
            out_path.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
