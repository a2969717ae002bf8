#!/usr/bin/env python3
"""Print every golden config's report and one benchmark round's, one per line.

    python3 scripts/report_digest.py > reports.jsonl

Run from the root of a checkout.  It runs `cli.run_task` on each config of
`scripts/golden_reports.py` and on each operation of one round of every
workload in perfbench/workloads.py, drawn for benchmark seed SEED.  Each
report prints as one JSON line, {"source", "op", "report"}, with the report's
keys sorted and its `timestamp` removed; an operation that raises prints its
exception type instead.  BLAS runs on one thread, as in the benchmark.
Diffing the output of two checkouts shows whether a change moved any
reported number by a single bit.
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def main() -> int:
    # the benchmark's BLAS threading, set before numpy loads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]
    import numpy as np
    import golden_reports
    import workloads

    from lethargy import cli

    def emit(source: str, op: str, config: dict) -> None:
        line = {"source": source, "op": op}
        try:
            report = json.loads(json.dumps(cli.run_task(config)))
            report.pop("timestamp", None)
            line["report"] = report
        except Exception as exc:  # a known fault of the op is part of its digest
            line["error"] = type(exc).__name__
        print(json.dumps(line, sort_keys=True))

    for i, config in enumerate(golden_reports.configs()):
        scheme = config["scheme"]
        emit("golden", f"{i}:{config['task']}:{scheme if isinstance(scheme, str) else scheme['label']}",
             config)
    for workload in workloads.ROUNDS:
        for op in workloads.round_ops(workload, np.random.default_rng(SEED)):
            emit(workload, op.name, op.config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
