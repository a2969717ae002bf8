#!/usr/bin/env python3
"""Write a fixture of reports that later checkouts must replay unchanged.

    PYTHONPATH=src python3 scripts/golden_reports.py [--out tests/data/golden_reports.json]

Runs `cli.run_task` on small configs: validate, density at the levels 0..3
inside the window and a whole-window "random" profile on every registry scheme
and on four inline descriptors; shapiro on quantizer-linear and
interleaved-c0; slowdecay on monomial-chain; jackson and bernstein audits on
one chain.  The reports go to one JSON list,
after a JSON round trip, so that `tests/test_golden.py` can replay each with
`cli.replay_report`.  Written from one checkout and replayed in another, the
fixture shows that a change kept every claimed number.
"""

import argparse
import json
from pathlib import Path

from lethargy.cli import run_task
from lethargy.scheme import build_scheme, list_schemes

SEED = 7
# kinds and norms the registry lacks: a coordinate chain, an L1 chain (IRLS),
# a sup-norm spline and a sup-norm n-term search
INLINE = [
    {"kind": "chain", "family": "coordinate", "n_max": 5, "label": "coordinate-chain",
     "space": {"carrier": "coords", "dim": 8, "norm": "sup"}},
    {"kind": "chain", "family": "monomial", "n_max": 4, "label": "monomial-chain-l1",
     "space": {"carrier": "grid", "nodes": 129, "norm": "lp", "p": 1.0}},
    {"kind": "spline", "degree": 2, "n_max": 3, "label": "sup-spline",
     "space": {"carrier": "grid", "nodes": 65, "norm": "sup"}},
    {"kind": "nterm", "n_max": 2, "label": "trig-nterm-sup",
     "dictionary": {"family": "trig", "levels": 3},
     "space": {"carrier": "grid", "domain": "torus", "nodes": 32, "norm": "sup"}},
]


def configs() -> list:
    out = []
    for name in [*list_schemes(), *INLINE]:
        n_max = build_scheme(name).n_max
        out.append({"task": "validate", "scheme": name, "seed": SEED, "params": {"trials": 40}})
        out.append({"task": "density", "scheme": name, "seed": SEED,
                    "params": {"levels": list(range(min(n_max, 3) + 1))}})
        out.append({"task": "profile", "scheme": name, "seed": SEED,
                    "params": {"n_max": n_max, "element": "random"}})
    out.append({"task": "shapiro", "scheme": "quantizer-linear", "seed": SEED,
                "params": {"probes": 2, "levels": [1, 2, 3]}})
    out.append({"task": "shapiro", "scheme": "interleaved-c0", "seed": SEED,
                "params": {"probes": 2, "levels": [0, 1, 2, 3]}})
    out.append({"task": "slowdecay", "scheme": "monomial-chain", "seed": SEED,
                "params": {"i_max": 3}})
    out.append({"task": "audit", "scheme": "monomial-chain", "seed": SEED,
                "params": {"audit": "jackson"}})
    out.append({"task": "audit", "scheme": "monomial-chain", "seed": SEED,
                "params": {"audit": "bernstein", "budget": 10}})
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=Path("tests/data/golden_reports.json"))
    args = ap.parse_args(argv)
    reports = [json.loads(json.dumps(run_task(c))) for c in configs()]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {args.out}")


if __name__ == "__main__":
    main()
