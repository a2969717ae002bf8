#!/usr/bin/env python3
"""Print a digest of every sup fit of two benchmark rounds.

    python3 scripts/sup_fit_digest.py > digest.jsonl

Run from the root of a checkout.  It wraps `solve._sup_fit` and runs one
round of the certify-sup and one of the verify-members workload, as
perfbench/workloads.py lists them for benchmark seed SEED (replaying the
reports that the workload replays).  Each call prints one JSON line: the workload,
the operation, the call's number within it, the `repr` of the answer's
value and lower bound, the solver, the iterations and the sha256 of the
minimizer's bytes, and `"below_incumbent": true` for a fit stopped below
its caller's incumbent.  The solver is "exchange" or "single-point-exchange",
or "least-squares" (iterations 0, lower 0) for a fit that the least-squares
screen stopped before the first exchange step.  BLAS runs on one thread, as
in the benchmark.  Diffing the output of two checkouts shows whether a change
to the sup fit moved any fit by a single bit.  Per workload, the number of
fits and of stopped fits by solver goes to standard error, e.g.
`certify-sup: 152 sup fits, 120 stopped (64 least-squares, 56 exchange)`.
"""

import hashlib
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-sup", "verify-members")
SEED = 5


def main() -> int:
    # the benchmark's BLAS threading, set before numpy loads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads

    from lethargy import cli, solve

    fit = solve._sup_fit
    where = {}

    def digest(cols, x, *incumbent):
        res = fit(cols, x, *incumbent)
        where["call"] += 1
        line = {
            "workload": where["workload"], "op": where["op"], "call": where["call"],
            "value": repr(res.value), "lower": repr(res.lower), "solver": res.info["solver"],
            "iterations": res.info["iterations"],
            "approx": hashlib.sha256(np.ascontiguousarray(res.minimizer).tobytes()).hexdigest(),
        }
        if "below_incumbent" in res.info:
            line["below_incumbent"] = True
            where["stopped"][res.info["solver"]] += 1
        print(json.dumps(line))
        return res

    solve._sup_fit = digest
    for workload in WORKLOADS:
        calls, where["stopped"] = 0, Counter()
        for op in workloads.round_ops(workload, np.random.default_rng(SEED)):
            where.update(workload=workload, op=op.name, call=0)
            try:
                report = cli.run_task(op.config)
                if op.replay:
                    cli.replay_report(json.loads(json.dumps(report, sort_keys=True)))
            except Exception as exc:  # a known fault of the op is part of its digest
                print(json.dumps({"workload": workload, "op": op.name,
                                  "error": type(exc).__name__}))
            calls += where["call"]
        stopped = where["stopped"]
        by_solver = ", ".join(f"{n} {solver}" for solver, n in stopped.most_common())
        print(f"{workload}: {calls} sup fits, {stopped.total()} stopped"
              + (f" ({by_solver})" if stopped else ""), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
