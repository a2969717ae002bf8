"""Spans around the calls into lethargy's modules, recorded from outside.

`Tracer.install` replaces each traced public function by a timing wrapper in
every lethargy module that binds it by name (``best_approx`` is imported into
``analyze``, ``witness`` and ``solve``; ``norm`` into most modules), and
``linprog`` where ``lethargy.solve`` looks it up.  Spans (name, start, end,
parent, tag) stay in memory; `layer_metrics` turns them into per-layer
numbers and `dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

from lethargy import analyze, cli, scheme, solve, space, witness

MODULES = (space, scheme, solve, witness, analyze, cli)  # seq binds none of the traced names

WITNESS_CONSTRUCTORS = ("witness_c0", "witness_quantizer", "witness_haar_bumps", "witness_bv",
                        "witness_ridge", "witness_orthonormal_nterm", "witness_wavelet",
                        "witness_translates", "witness_tensor", "construct_slow_decay")

# (defining module, function name, span name)
TARGETS = (
    [(space, "norm", "space.norm"),
     (scheme, "build_scheme", "scheme.build"),
     (scheme, "density_candidates", "scheme.candidates"),
     (scheme, "gap_candidates", "scheme.candidates"),
     (scheme, "probe_elements", "scheme.candidates"),
     (scheme, "sample_element", "scheme.candidates"),
     (scheme, "validate_scheme", "scheme.validate"),
     (scheme, "membership", "scheme.membership"),
     (solve, "best_approx", "solve.best_approx"),
     (solve, "error_profile", "solve.error_profile"),
     (analyze, "density_lower_bound", "analyze.density"),
     (analyze, "brudnyi_gap", "analyze.gap"),
     (analyze, "shapiro_check", "analyze.shapiro"),
     (witness, "verify_witness", "witness.verify"),
     (witness, "verify_slow_decay", "witness.verify"),
     (cli, "run_task", "cli.run_task"),
     (cli, "replay_report", "cli.replay")]
    + [(witness, name, "witness.construct") for name in WITNESS_CONSTRUCTORS]
)

# solver classes of best_approx, by scheme kind and norm
SOLVER_CLASSES = ("chain_sup", "chain_l2", "quantizer", "rank", "nterm", "spline", "c0")


def solver_class(sp, s) -> str:
    if s.kind == "chain":
        if sp.norm_kind == "sup":
            return "chain_sup"
        return "chain_l2" if sp.norm_kind == "lp" and sp.p == 2.0 else "chain_other"
    return {"interleaved-c0": "c0", "wavelet-haar": "nterm"}.get(s.kind, s.kind)


def _best_approx_tag(args, kwargs, result) -> tuple:
    sp = kwargs.get("space", args[0] if args else None)
    s = kwargs.get("s", args[2] if len(args) > 2 else None)
    return solver_class(sp, s), getattr(result, "status", None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []   # [name, start, end, parent index, tag]
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    def _wrap(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if tag is not None:
                    rec[4] = tag(args, kwargs, out)
                return out
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def install(self) -> None:
        for home, attr, name in TARGETS:
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, _best_approx_tag if attr == "best_approx" else None)
            for mod in MODULES:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        self._saved.append((solve, "linprog", solve.linprog))
        solve.linprog = self._wrap("solve.lp", solve.linprog)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a span adds to one call: the median over `repeats` of a wrapped
    no-op's time per call minus the bare no-op's."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(((time.perf_counter() - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def layer_metrics(spans: list, rounds: int, report_bytes: int) -> dict:
    """Per-layer (value, unit) per round of the workload, from one run's spans."""
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child_time[rec[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    count = Counter()
    outer = defaultdict(float)      # inclusive time of spans not nested in their own kind
    self_s = defaultdict(float)
    by_class = defaultdict(float)
    calls_by_class = Counter()
    exact = solves_in_density = solves_in_witness = 0
    for i, (name, _, _, _, tag) in enumerate(spans):
        count[name] += 1
        self_s[name] += dur[i] - child_time[i]
        up = set(ancestors(i))
        if name not in up:
            outer[name] += dur[i]
        if name == "solve.best_approx":
            cls, status = tag or (None, None)
            by_class[cls] += dur[i]
            calls_by_class[cls] += 1
            exact += status == "exact"
            solves_in_density += "analyze.density" in up
            solves_in_witness += bool(up & {"witness.construct", "witness.verify"})

    r = max(rounds, 1)
    solves = count["solve.best_approx"]
    densities = count["analyze.density"]
    m = {
        "solve.best_approx.calls": (solves / r, "count"),
        "solve.best_approx.s": (outer["solve.best_approx"] / r, "s"),
        "solve.exact_ratio": (exact / solves if solves else 0.0, "ratio"),
        "solve.lp.calls": (count["solve.lp"] / r, "count"),
        "solve.lp.s": (outer["solve.lp"] / r, "s"),
        "solve.quantizer.calls": (calls_by_class["quantizer"] / r, "count"),
        "solve.error_profile.self_s": (self_s["solve.error_profile"] / r, "s"),
        "analyze.density.calls": (densities / r, "count"),
        "analyze.density.self_s": (self_s["analyze.density"] / r, "s"),
        "analyze.solves_per_cert": (solves_in_density / densities if densities else 0.0, "ratio"),
        "analyze.gap.s": (outer["analyze.gap"] / r, "s"),
        "analyze.shapiro.self_s": (self_s["analyze.shapiro"] / r, "s"),
        "scheme.build.s": (outer["scheme.build"] / r, "s"),
        "scheme.candidates.s": (outer["scheme.candidates"] / r, "s"),
        "scheme.validate.self_s": (self_s["scheme.validate"] / r, "s"),
        "scheme.membership.calls": (count["scheme.membership"] / r, "count"),
        "space.norm.calls": (count["space.norm"] / r, "count"),
        "space.norm.s": (outer["space.norm"] / r, "s"),
        "witness.construct.s": (outer["witness.construct"] / r, "s"),
        "witness.verify.s": (outer["witness.verify"] / r, "s"),
        "witness.solves": (solves_in_witness / r, "count"),
        "cli.self_s": ((self_s["cli.run_task"] + self_s["cli.replay"]) / r, "s"),
        "cli.replay.s": (outer["cli.replay"] / r, "s"),
        "cli.report_kb": (report_bytes / 1024.0 / r, "KB"),
    }
    for cls in SOLVER_CLASSES:
        m[f"solve.{cls}.s"] = (by_class[cls] / r, "s")
    return m
