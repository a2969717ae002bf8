"""Command-line front end: run tasks from JSON configs into machine-readable
reports, and replay reports.

Every task, witness op and audit is one TABLE entry whose runner declares its
params; a key the task does not read, a missing required key or a value of the
wrong JSON type is a usage error.  A profile element is `{"values": [...]}`,
`{"f64": <base64 of little-endian float64 bytes>, "shape": [...]}`, a probe name
or "random"; a report (version 1.1) stores a `values` element as `f64`, and the
config hash covers that form.  Replay reads versions 1.0 and 1.1: it checks the
config hash, re-runs the task and compares every field but `timestamp` and
`version`, floats at 1e-9 relative, and writes no side files.  Exit codes: 0
success, 1 usage, configuration or solver error, 2 verification failure (a report
did not reproduce).  All randomness flows from the 64-bit seed in the report.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import copy
import functools
import hashlib
import json
import math
import sys
import time
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import analyze, witness as wit
from .scheme import (INTEGER, INTEGERS, NUMBER, NUMBERS, OBJECT, POSITIVE, REQUIRED, STRING,
                     SchemeError, _checked, _real, build_scheme, canonical_json, declared_keys,
                     list_schemes, named_probes, validate_scheme)
from .seq import NullSequence
from .solve import NoSolverError, SolverError, error_profile
from .space import SpaceError

REPORT_VERSION = "1.1"
READS_VERSIONS = ("1.0", "1.1")  # 1.0 reports keep a profile element as plain values
REL_TOL = 1e-9  # replay tolerance for floats, relative to max(1, |fresh value|)
# report fields that are not claims; the config is covered by its hash, and
# the version is checked against READS_VERSIONS before the re-run
NOT_CLAIMS = ("timestamp", "version", "config", "config_hash")


class UsageError(ValueError):
    pass


# errors that `run` and `replay` report as `error: <message>` with exit code 1
HANDLED_ERRORS = (UsageError, SchemeError, SpaceError, KeyError, OSError,
                  json.JSONDecodeError, ValueError, SolverError, NoSolverError)


def hash_text(text: str) -> str:
    """The hash of a config's canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: dict) -> str:
    return hash_text(canonical_json(config))


def _apply_override(config: dict, item: str) -> None:
    key, eq, raw = item.partition("=")
    if not eq:
        raise UsageError(f"--set needs KEY=VALUE, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *path, last = key.split(".")
    node = config
    for part in path:
        node = node.setdefault(part, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise UsageError(f"--set {key}: the path does not lead into a JSON object")
    node[last] = value


def encode_element(x: np.ndarray) -> dict:
    """The exact, compact form of an element: base64 of its little-endian
    float64 bytes, with its shape."""
    raw = np.ascontiguousarray(x, dtype="<f8").tobytes()
    return {"f64": base64.b64encode(raw).decode("ascii"), "shape": list(x.shape)}


def make_element(space, desc, rng: np.random.Generator) -> np.ndarray:
    """An element from `{"values": [...]}`, `{"f64": ..., "shape": [...]}`
    (see encode_element), a probe name (bare or as `{"probe": name}`) or
    `"random"`."""
    size = math.prod(space.shape)
    where = f"element for shape {list(space.shape)}"
    if isinstance(desc, dict) and sorted(desc) not in (["values"], ["f64", "shape"], ["probe"]):
        raise UsageError(f"{where}: an element object holds values, f64 with shape, or probe, "
                         f"not the keys {sorted(desc)}")
    if isinstance(desc, dict) and "values" in desc:
        try:
            x = np.asarray(desc["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{where}: values are not numbers: {exc}") from None
        if x.size != size:
            raise UsageError(f"{where}: {x.size} values, expected {size}")
        return x.reshape(space.shape)
    if isinstance(desc, dict) and "f64" in desc:
        shape = desc["shape"]
        if not isinstance(shape, (list, tuple)) or list(shape) != list(space.shape):
            raise UsageError(f"{where}: f64 has shape {shape!r}")
        try:
            raw = base64.b64decode(desc["f64"], validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise UsageError(f"{where}: f64 is not valid base64: {exc}") from None
        if len(raw) != 8 * size:
            raise UsageError(f"{where}: f64 holds {len(raw)} bytes, expected {8 * size}")
        return np.frombuffer(raw, dtype="<f8").astype(float).reshape(space.shape)
    name = desc["probe"] if isinstance(desc, dict) else desc
    if name == "random":
        return rng.standard_normal(space.shape)
    probes = named_probes(space)
    if name not in probes:
        raise UsageError(f"unknown {space.carrier} probe {name!r}; expected random or one of "
                         f"{', '.join(probes)}")
    return probes[name]


# -- the task table, and the one check of a config -------------------------------


# the JSON type of every config and params key; a key means the same in every
# task (descriptors have their own table, scheme.DESC_TYPES)
KEY_TYPES = {
    **dict.fromkeys("seed n m n_max attempts dim cap i_max probes samples "
                    "max_degree budget".split(), INTEGER),
    **dict.fromkeys(("trials", "starts"), POSITIVE),
    **dict.fromkeys("task family norm csv plot_data".split(), STRING),
    **dict.fromkeys(("scheme", "element"),
                    ("a string or an object", lambda v: isinstance(v, (str, dict)))),
    **dict.fromkeys(("params", "seminorm"), OBJECT),
    "p": NUMBER, "levels": INTEGERS, "eps": NUMBERS,
}
# the param that picks the entry of a task with several, and its default
SELECTORS = {"witness": ("op", None), "audit": ("audit", "dolzhenko")}


class Entry:
    """`run(r, **params)` returns (payload, verified); its keyword-only parameters
    are the params, required unless they have a default.  `keys` are the other
    top-level keys it reads: "scheme", required and built into `r.s`, and the side
    files it writes.  `r` holds all checked top-level keys, `r.params` as given."""
    def __init__(self, run: Callable, keys: tuple = ()):
        self.run, self.keys = run, keys
        self.params = declared_keys(run)  # name -> default, or REQUIRED


def check_config(config) -> tuple:
    """(entry, config, top, params): a config's table entry, a private copy of
    it (payloads carry parts of it; a profile element, read only by make_element,
    is not copied), and its checked top-level keys and params, defaults filled in."""
    if not isinstance(config, dict):
        raise UsageError(f"config must be a JSON object, not {type(config).__name__}")
    given = config.get("params", {})
    if not isinstance(given, dict):
        raise UsageError("config params must be a JSON object")
    element = given.get("element")
    config = copy.deepcopy(config, {id(element): element})
    task = config.get("task")
    if task not in TASKS:
        raise UsageError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    selector, default = SELECTORS.get(task, (None, None))
    name = f"{task} {given.get(selector, default)}" if selector else task
    if name not in TABLE:
        choices = [key.split()[1] for key in TABLE if key.startswith(task + " ")]
        raise UsageError(f"{task} task: params.{selector} must be one of "
                         f"{', '.join(choices)}, not {given.get(selector)!r}")
    entry = TABLE[name]
    top = _checked("config", config, {"task": REQUIRED, "seed": 0, "params": {}, **{
        key: REQUIRED if key == "scheme" else None for key in entry.keys}}, KEY_TYPES, UsageError)
    given = {key: value for key, value in top["params"].items() if key != selector}
    return entry, config, top, _checked(f"params of {name}", given, entry.params, KEY_TYPES,
                                        UsageError)


def _witness(op: str, build, verify: str = "verify_witness"):
    """The runner of `build(r, **params) -> Witness`: it checks the witness
    with `witness.<verify>`, then reports it with its constructor."""
    @functools.wraps(build)  # so the runner's params are build's
    def run(r, **params):
        w = build(r, **params)
        verified = getattr(wit, verify)(w, seed=r.seed)
        payload = {**w.to_json(), "constructor": {"op": op, "params": r.params}}
        if len(payload.get("element", [])) > 100_000:
            payload["element"] = "omitted (rebuild via constructor)"
        return payload, verified
    return run


def _validate(r, *, trials=200):
    report = validate_scheme(r.s, trials=trials, rng_seed=r.seed)
    return report.to_json(), report.passed


def _profile(r, *, n_max, element="random"):
    x = make_element(r.s.space, element, np.random.default_rng(r.seed))
    if isinstance(element, dict) and "values" in element:
        r.params.update(element=encode_element(x))
    profile = error_profile(r.s.space, x, r.s, n_max, seed=r.seed)
    if r.csv:
        profile.dump_csv(r.csv)
    if r.plot_data:
        profile.dump_plot_data(r.plot_data)
    slack = 1e-9 * max(1.0, profile.element_norm)  # the replay tolerance's form
    return profile.to_json(), bool(np.all(np.diff(profile.values()) <= slack))


def _density(r, *, levels=None):
    levels = levels or list(range(r.s.n_max + 1))
    certs = [analyze.density_lower_bound(r.s, n, rng_seed=r.seed + 17 * n) for n in levels]
    if r.csv:
        with open(r.csv, "w") as fh:
            fh.write("n,bound,status\n")
            fh.writelines(f"{c.level},{c.bound!r},{c.status}\n" for c in certs)
    certificates = [c.to_json(with_element=r.s.space.carrier != "grid") for c in certs]
    return ({"schema": analyze.REPORT_SCHEMA, "scheme": r.s.label, "levels": levels,
             "certificates": certificates}, all(c.solver_value >= c.bound - 1e-9 for c in certs))


def _shapiro(r, *, probes=8, levels=None):
    verdict = analyze.shapiro_check(r.s, probe_budget=probes, rng_seed=r.seed, levels=levels)
    env = verdict.envelope
    if r.csv and env:
        with open(r.csv, "w") as fh:
            fh.write("n,envelope\n")
            fh.writelines(f"{n},{v!r}\n" for n, v in zip(env["levels"], env["values"]))
    return verdict.to_json(), verdict.verdict != "inconclusive"


def _ladder(r, *, eps=None, i_max=8):
    eps = NullSequence.harmonic(i_max + 4) if eps is None else NullSequence(np.asarray(eps, float))
    return wit.construct_slow_decay(r.s, eps, i_max, rng_seed=r.seed)


def _dolzhenko(r, *, samples=1000, max_degree=5):
    payload = analyze.dolzhenko_variation_audit(samples, max_degree, rng_seed=r.seed)
    return payload, payload["passed"]


WITNESS_OPS = {
    "c0": lambda r, *, eps, cap=None: wit.witness_c0(NullSequence(np.asarray(eps, float)), cap),
    "quantizer": lambda r, *, m: wit.witness_quantizer(m),
    "haar-bumps": lambda r, *, n, p=1.0, family="poly", attempts=100: wit.witness_haar_bumps(
        n, p, family=family, n_attempts=attempts, seed=r.seed),
    "bv": lambda r, *, n, attempts=100: wit.witness_bv(n, seed=r.seed, n_attempts=attempts),
    "ridge": lambda r, *, n, starts=100: wit.witness_ridge(n, seed=r.seed, n_starts=starts),
    "orthonormal": lambda r, *, n, dim=12: wit.witness_orthonormal_nterm(n, dim),
    "wavelet": lambda r, *, n, attempts=100: wit.witness_wavelet(n, r.seed, n_attempts=attempts),
    "translates": lambda r, *, n, m, p=1.0, trials=1000: wit.witness_translates(
        n, m, p, seed=r.seed, n_trials=trials),
    "tensor": lambda r, *, n, norm="hs": wit.witness_tensor(n, norm),
}
# a task, or "witness <op>" and "audit <audit>" -> Entry.  Runners look library functions
# up when they run, so wrappers put on module attributes (perfbench's tracer) see the calls.
TABLE = {
    "validate": Entry(_validate, ("scheme",)),
    "profile": Entry(_profile, ("scheme", "csv", "plot_data")),
    **{f"witness {op}": Entry(_witness(op, build)) for op, build in WITNESS_OPS.items()},
    "density": Entry(_density, ("scheme", "csv")),
    "shapiro": Entry(_shapiro, ("scheme", "csv")),
    "audit dolzhenko": Entry(_dolzhenko),
    "audit jackson": Entry(lambda r, *, seminorm={"kind": "lipschitz"}: (
        analyze.jackson_audit(r.s, seminorm, rng_seed=r.seed), True), ("scheme",)),
    "audit bernstein": Entry(lambda r, *, seminorm={"kind": "deriv-sup"}, budget=200: (
        analyze.bernstein_audit(r.s, seminorm, budget=budget, rng_seed=r.seed), True), ("scheme",)),
    "slowdecay": Entry(_witness("slowdecay", _ladder, "verify_slow_decay"), ("scheme",)),
}
TASKS = tuple(dict.fromkeys(name.split()[0] for name in TABLE))


def run_task(config: dict) -> dict:
    """Run one task.  The report owns its `config`, a copy in which a profile
    element given as `values` is stored as `f64` (see encode_element), and
    shares no list or dict with the caller's config."""
    entry, config, top, params = check_config(config)
    r = SimpleNamespace(**top, s=build_scheme(top["scheme"]) if "scheme" in top else None)
    payload, verified = entry.run(r, **params)
    text = canonical_json(config)
    return {"version": REPORT_VERSION, "task": r.task, "config": json.loads(text),
            "config_hash": hash_text(text), "seed": r.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "payload": payload, "verified": verified}


def _same(a, b) -> bool:
    """Deep equality of report content, `b` the fresh value.  Floats match
    within REL_TOL relative, NaN matches NaN and an infinity only itself;
    integers, strings, booleans, None, list lengths and key sets match exactly."""
    if type(a) is type(b) and a == b:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if _real(a) and _real(b) and (isinstance(a, float) or isinstance(b, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= REL_TOL * max(1.0, abs(b))
    return False


def replay_report(report: dict) -> bool:
    """Re-run the task behind a report; True iff every field but NOT_CLAIMS
    reproduces.  Side files (`csv`, `plot_data`) are not written again."""
    if not isinstance(report, dict):
        raise UsageError(f"report must be a JSON object, not {type(report).__name__}")
    version = report.get("version")
    if version not in READS_VERSIONS:
        raise UsageError(f"report version {version!r} is incompatible with "
                         f"{', '.join(READS_VERSIONS)}")
    config = report.get("config")
    if not isinstance(config, dict):
        raise UsageError(f"report config must be a JSON object, not {type(config).__name__}")
    if config_hash(config) != report.get("config_hash"):
        raise UsageError("config hash mismatch; report was edited")
    fresh = run_task({k: v for k, v in config.items() if k not in ("csv", "plot_data")})
    return _same({k: v for k, v in report.items() if k not in NOT_CLAIMS},
                 {k: v for k, v in fresh.items() if k not in NOT_CLAIMS})


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="lethargy", description="approximation-scheme laboratory")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run a task from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dot paths, JSON values)")
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.add_parser("replay", help="re-verify a report").add_argument("report")
    sub.add_parser("list-schemes", help="print registered scheme names")

    args = parser.parse_args(argv)
    if args.command == "list-schemes":
        print("\n".join(list_schemes()))
        return 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        with open(args.report if args.command == "replay" else args.config) as fh:
            doc = json.load(fh)
        if args.command == "replay":
            ok = replay_report(doc)
        else:
            for item in args.set:
                _apply_override(doc, item)
            report = run_task(doc)
    except HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "replay":
        print("replay: all claims reproduced" if ok else "replay: verification did not reproduce",
              file=sys.stdout if ok else sys.stderr)
        return 0 if ok else 2
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not report["verified"]:
        print("verification failure", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
