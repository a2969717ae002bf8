#!/usr/bin/env python3
"""Print a digest of every sup fit and quantizer solve of two benchmark rounds.

    python3 scripts/sup_fit_digest.py > digest.jsonl

Run from the root of a checkout.  It wraps `solve._sup_fit` and
`solve.best_m_value_sup` and runs one round of the certify-sup and one of
the verify-members workload, as perfbench/workloads.py lists them for
benchmark seed SEED (replaying the reports that the workload replays).
BLAS runs on one thread, as in the benchmark.

Each sup fit prints one JSON line: the workload, the operation, the call's
number within it, the `repr` of the answer's value and lower bound, the
solver, the iterations and the sha256 of the minimizer's bytes.  The solver
is "exchange" or "single-point-exchange", or "least-squares" for a fit that
the incumbent screen stopped below its caller's incumbent (lower 0,
iterations the screen's reweighting steps).  Each quantizer solve prints
one line with "quantizer_call" in place of "call": the `repr` of value and
lower, the greedy passes of its segmentation and the minimizer's sha256.
`grep -v quantizer_call` keeps the sup fits alone.  Diffing the output of
two checkouts shows whether a change to either solver moved any answer by
a single bit.

Per workload, standard error gets the number of sup fits, of fits stopped
by the screen and of fits it passed on to the exchange, with the screen's
reweighting steps as counts at 0, 1, ... steps: `certify-sup: 152 sup fits,
120 stopped by the screen (64/25/18/6/6/1 at 0-5 steps), 0 passed on`; then
the number of quantizer solves and of those stopped at their incumbent
(lower 0 below the value; a full solve has lower = value).
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

    fit, screen, linalg_solve = solve._sup_fit, solve._incumbent_screen, np.linalg.solve
    quantize = solve.best_m_value_sup
    where = {}

    def sha256(minimizer) -> str:
        return hashlib.sha256(np.ascontiguousarray(minimizer).tobytes()).hexdigest()

    def digest(cols, x, *incumbent):
        res = fit(cols, x, *incumbent)
        where["call"] += 1
        line = {
            "workload": where["workload"], "op": where["op"], "call": where["call"],
            "value": repr(res.value), "lower": repr(res.lower), "solver": res.info["solver"],
            "iterations": res.info["iterations"], "approx": sha256(res.minimizer),
        }
        if res.info["solver"] == "least-squares":
            where["stopped"][res.info["iterations"]] += 1
        print(json.dumps(line))
        return res

    def quantized(*args):
        res = quantize(*args)
        where["quantizer"] += 1
        where["quantizer_stopped"] += res.lower < res.value
        print(json.dumps({
            "workload": where["workload"], "op": where["op"], "quantizer_call": where["quantizer"],
            "value": repr(res.value), "lower": repr(res.lower),
            "passes": res.info["iterations"], "approx": sha256(res.minimizer),
        }))
        return res

    def screened(*args):
        """The screen, counting the steps of a fit it passes on: one solve
        each, the first unweighted."""
        solves = []

        def counted(*solve_args):
            solves.append(1)
            return linalg_solve(*solve_args)

        np.linalg.solve = counted
        try:
            res = screen(*args)
        finally:
            np.linalg.solve = linalg_solve
        if res is None:
            where["passed"][len(solves) - 1] += 1
        return res

    def histogram(steps: Counter) -> str:
        if not steps:
            return ""
        lo, hi = min(steps), max(steps)
        counts = "/".join(str(steps[k]) for k in range(lo, hi + 1))
        return f" ({counts} at {lo}{'' if lo == hi else f'-{hi}'} steps)"

    solve._sup_fit, solve._incumbent_screen, solve.best_m_value_sup = digest, screened, quantized
    for workload in WORKLOADS:
        calls, quantizer_calls, where["stopped"], where["passed"] = 0, 0, Counter(), Counter()
        where["quantizer_stopped"] = 0
        for op in workloads.round_ops(workload, np.random.default_rng(SEED)):
            where.update(workload=workload, op=op.name, call=0, quantizer=0)
            try:
                report = cli.run_task(op.config)
                if op.replay:
                    cli.replay_report(json.loads(json.dumps(report, sort_keys=True)))
            except Exception as exc:  # a known fault of the op is part of its digest
                print(json.dumps({"workload": workload, "op": op.name,
                                  "error": type(exc).__name__}))
            calls += where["call"]
            quantizer_calls += where["quantizer"]
        stopped, passed = where["stopped"], where["passed"]
        print(f"{workload}: {calls} sup fits, {stopped.total()} stopped by the screen"
              f"{histogram(stopped)}, {passed.total()} passed on{histogram(passed)}", file=sys.stderr)
        print(f"{workload}: {quantizer_calls} quantizer solves, {where['quantizer_stopped']} "
              f"stopped at the incumbent", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
