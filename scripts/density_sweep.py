#!/usr/bin/env python3
"""Sweep density lower-bound certificates over the levels of a scheme.

Prints each level's certified lower bound, its monotone envelope and its
status; with --csv, also writes those rows as (n, bound, envelope, status).
"""

import argparse
import csv

from lethargy.analyze import density_lower_bound, monotone_envelope
from lethargy.scheme import build_scheme, list_schemes


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scheme", choices=list_schemes())
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    s = build_scheme(args.scheme)
    certs = [density_lower_bound(s, n, rng_seed=args.seed + 17 * n)
             for n in range(s.n_max + 1)]
    envelope = monotone_envelope([c.bound for c in certs])
    print(f"{'n':>3} {'bound':>12} {'envelope':>12}  status")
    for c, env in zip(certs, envelope):
        print(f"{c.level:>3} {c.bound:>12.6g} {env:>12.6g}  {c.status}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "bound", "envelope", "status"])
            for c, env in zip(certs, envelope):
                w.writerow([c.level, repr(c.bound), repr(env), c.status])
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
