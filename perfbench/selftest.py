"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs one cheap operation of each kind the workloads check, then requires that
its check accepts the real report and rejects a copy with one returned value
perturbed or one verdict flipped.  A few copies model other correct outputs
(a proved lower bound below the solver value, a quantizer ladder re-solved
as a mended solver would) and must be accepted.  Exits 1
if any check misses a tampered report or rejects a correct one.
"""

import copy
import sys

import run  # sets the thread environment and finds the checkout's sources

run.load_program()

import numpy as np  # noqa: E402

from lethargy import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _at(path, change):
    """A tampering that replaces the value at `path` by change(value)."""
    def mutate(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
    return mutate


def _add(path, delta):
    return _at(path, lambda v: v + delta)


def _scale(path, factor):
    return _at(path, lambda v: v * factor)


def _set(path, value):
    return _at(path, lambda v: value)


def _both(*mutations):
    def mutate(report):
        for m in mutations:
            m(report)
    return mutate


def _resolve_ladder(verified):
    """A quantizer ladder whose errors are re-solved by the oracle, as a
    mended solver would give them, reported with the given verdict."""
    def mutate(report):
        p = report["payload"]
        x = np.asarray(p["element"])
        budgets = checks.QUANTIZER_BUDGETS[report["config"]["scheme"]]
        for v in p["verifications"]:
            v["observed"] = checks.quantizer_oracle(x, budgets[v["level"]])
        report["verified"] = verified
    return mutate


CERT = ("payload", "certificates", 0)

# (workload, operation name, tampering, what it models)
CASES = (
    ("certify-sup", "density:monomial-chain:4",
     _both(_add((*CERT, "bound"), -0.05), _add((*CERT, "solver_value"), -0.05)),
     "Chebyshev certificate below the de la Vallee Poussin bound"),
    ("certify-sup", "density:monomial-chain:4",
     _set((*CERT, "status"), "empirical"), "certificate demoted to empirical"),
    ("certify-sup", "density:monomial-chain:4",
     _add((*CERT, "bound"), 1e-6), "bound above the solver value"),
    ("certify-sup", "density:monomial-chain:4",
     _set((*CERT, "bound"), checks.chebyshev_lower(4)), "'exact' bound off the solver value"),
    ("certify-sup", "density:quantizer-geometric:2",
     _both(_scale((*CERT, "bound"), 1.5), _scale((*CERT, "solver_value"), 1.5)),
     "quantizer certificate above the midpoint envelope"),
    ("certify-sup", "density:interleaved-c0:38",
     _both(_add((*CERT, "bound"), 1e-6), _add((*CERT, "solver_value"), 1e-6)),
     "interleaved-c0 certificate off its closed form"),
    ("certify-sup", "shapiro:interleaved-c0:37",
     _set(("payload", "verdict"), "Shapiro-fails"), "flipped verdict"),
    ("certify-sup", "shapiro:interleaved-c0:37",
     _add(("payload", "gamma"), 1e-6), "gap constant off 1/(k+1)"),
    ("profile-l2", "profile:monomial-chain-l2",
     _add(("payload", "entries", 5, "value"), 1e-7), "L2-chain entry off the QR residual"),
    ("profile-l2", "profile:trig-l2-4096",
     _add(("payload", "entries", 7, "value"), 1e-7), "trig entry off the Fourier tail"),
    ("profile-l2", "profile:rank-8-hs",
     _scale(("payload", "entries", 3, "value"), 1 + 1e-6), "rank entry off Eckart-Young"),
    ("profile-l2", "profile:orthonormal-nterm",
     _scale(("payload", "entries", 4, "value"), 1 - 1e-6), "n-term entry off the sorted tail"),
    ("profile-l2", "profile:free-knot-spline",
     _add(("payload", "entries", 6, "value"), 0.5), "spline worse than uniform knots"),
    ("profile-l2", "profile:haar-wavelet-nterm",
     _add(("payload", "entries", 0, "value"), 1e-3), "level-0 error off the norm"),
    ("verify-members", "validate:rank-8-hs",
     _set(("payload", "passed"), False), "flipped validation verdict"),
    ("verify-members", "witness:tensor:n=6,norm=hs",
     _add(("payload", "verifications", 2, "observed"), 1e-9), "rank witness off sqrt(n-k)/n"),
    ("verify-members", "witness:quantizer:m=5",
     _add(("payload", "verifications", 0, "observed"), -1e-6), "ramp error off its pinch"),
    ("verify-members", "witness:haar-bumps:n=3,p=2.0,attempts=20",
     _add(("payload", "verifications", 0, "observed"), 1e-6), "bump error off the L2 projection"),
    ("verify-members", "slowdecay:monomial-chain#0",
     _set(("payload", "verifications", 1, "observed"), 0.75), "ladder error above the envelope"),
    ("verify-members", "slowdecay:quantizer-linear",
     _resolve_ladder(True), "member ladder with zero errors reported verified"),
)

# (workload, operation name, change, what it models): correct outputs
ACCEPTED = (
    ("certify-sup", "density:monomial-chain:4",
     _both(_set((*CERT, "status"), "certified"), _set((*CERT, "bound"), checks.chebyshev_lower(4))),
     "certified bound at the de la Vallee Poussin level"),
    ("certify-sup", "density:quantizer-linear:12",
     _both(_set((*CERT, "status"), "certified"),
           _set((*CERT, "bound"), checks.quantizer_range(12)[0])),
     "certified quantizer bound at the discrete ramp value"),
    ("verify-members", "slowdecay:quantizer-linear",
     _resolve_ladder(False), "member ladder with zero errors reported unverified"),
)


def main() -> int:
    bad = 0
    ops = {w: {op.name: op for op in workloads.round_ops(w, np.random.default_rng(7))}
           for w in {c[0] for c in CASES}}
    reports = {}
    cases = [(*c, True) for c in CASES] + [(*c, False) for c in ACCEPTED]
    for workload, name, mutate, what, tampered in cases:
        op = ops[workload][name]
        if name not in reports:
            _, report, replay_ok, exc = run.run_op(cli, op)
            if exc is not None:
                raise exc
            reports[name] = (report, replay_ok)
        report, replay_ok = reports[name]
        real = checks.check(op, report, replay_ok)
        if op.known_fault and all(op.known_fault in e for e in real):
            real = []   # the fault the benchmark counts in `failed`
        changed = copy.deepcopy(report)
        mutate(changed)
        rejected = checks.check(op, changed, replay_ok)
        ok = not real and bool(rejected) == tampered
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}"
              + (f" (real report rejected: {real})" if real else "")
              + ("" if bool(rejected) == tampered else
                 " (tampered report accepted)" if tampered else f" (rejected: {rejected})"))
    print(f"{len(CASES)} tampered and {len(ACCEPTED)} correct copies, {bad} misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
