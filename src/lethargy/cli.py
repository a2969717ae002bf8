"""Command-line front end: materialize schemes from JSON configs, run witness
constructions and analyses, and emit machine-readable reports.

A profile element is given as `{"values": [...]}`, as
`{"f64": <base64 of little-endian float64 bytes>, "shape": [...]}`, as a probe
name or as "random".  Reports are version 1.1: their config stores a `values`
element in the exact, compact `f64` form, and the config hash covers that form.

Replay reads versions 1.0 and 1.1.  It re-runs a report's task and compares
every field except `timestamp` and `version`, floats at 1e-9 relative; the
config is checked by its hash, and replay writes no side files.  Exit codes: 0
success, 1 usage, configuration or solver error, 2 verification failure (a
report did not reproduce).  All randomness flows from the single 64-bit seed
recorded in the report.
"""

from __future__ import annotations

import argparse
import base64
import copy
import hashlib
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import analyze, witness as wit
from .scheme import SchemeError, build_scheme, list_schemes, named_probes, validate_scheme
from .seq import NullSequence
from .solve import NoSolverError, SolverError, error_profile
from .space import SpaceError

REPORT_VERSION = "1.1"
READS_VERSIONS = ("1.0", "1.1")  # 1.0 reports keep a profile element as plain values
TASKS = ("validate", "profile", "witness", "density", "shapiro", "audit", "slowdecay")
REL_TOL = 1e-9  # replay tolerance for floats, relative to max(1, |fresh value|)
# report fields that are not claims; the config is covered by its hash, and
# the version is checked against READS_VERSIONS before the re-run
NOT_CLAIMS = ("timestamp", "version", "config", "config_hash")


class UsageError(ValueError):
    pass


# errors that `run` and `replay` report as `error: <message>` with exit code 1
HANDLED_ERRORS = (UsageError, SchemeError, SpaceError, KeyError, OSError,
                  json.JSONDecodeError, ValueError, SolverError, NoSolverError)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def hash_text(text: str) -> str:
    """The hash of a config's canonical JSON text."""
    return hashlib.sha256(text.encode()).hexdigest()


def config_hash(config: dict) -> str:
    return hash_text(canonical_json(config))


def _apply_override(config: dict, key: str, raw: str) -> None:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    *path, last = key.split(".")
    for part in path:
        if not isinstance(node, dict):
            break
        node = node.setdefault(part, {})
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
    if isinstance(desc, dict) and "values" in desc:
        try:
            x = np.asarray(desc["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{where}: values are not numbers: {exc}") from None
        if x.size != size:
            raise UsageError(f"{where}: {x.size} values, expected {size}")
        return x.reshape(space.shape)
    if isinstance(desc, dict) and "f64" in desc:
        shape = desc.get("shape")
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


def witness_from_config(op: str, params: dict, seed: int) -> wit.Witness:
    if op == "c0":
        eps = NullSequence(np.asarray(params["eps"], dtype=float))
        return wit.witness_c0(eps, cap=params.get("cap"))
    if op == "quantizer":
        return wit.witness_quantizer(int(params["m"]))
    if op == "haar-bumps":
        return wit.witness_haar_bumps(int(params["n"]), float(params.get("p", 1.0)),
                                      family=params.get("family", "poly"),
                                      n_attempts=int(params.get("attempts", 100)),
                                      seed=seed)
    if op == "bv":
        return wit.witness_bv(int(params["n"]), seed=seed,
                              n_attempts=int(params.get("attempts", 100)))
    if op == "ridge":
        return wit.witness_ridge(int(params["n"]), seed=seed,
                                 n_starts=int(params.get("starts", 100)))
    if op == "orthonormal":
        return wit.witness_orthonormal_nterm(int(params["n"]), int(params.get("dim", 12)))
    if op == "wavelet":
        return wit.witness_wavelet(int(params["n"]), seed=seed,
                                   n_attempts=int(params.get("attempts", 100)))
    if op == "translates":
        return wit.witness_translates(int(params["n"]), int(params["m"]),
                                      float(params.get("p", 1.0)), seed=seed,
                                      n_trials=int(params.get("trials", 1000)))
    if op == "tensor":
        return wit.witness_tensor(int(params["n"]), params.get("norm", "hs"))
    raise UsageError(f"unknown witness op {op!r}")


def _witness_payload(w: wit.Witness, op: str, params: dict) -> dict:
    payload = w.to_json()
    payload["constructor"] = {"op": op, "params": params}
    if len(payload.get("element", [])) > 100_000:
        payload["element"] = "omitted (rebuild via constructor)"
    return payload


def run_task(config: dict) -> dict:
    """Run one task.  The report owns its `config`, a copy in which a profile
    element given as `values` is stored as `f64` (see encode_element), and
    shares no list or dict with the caller's config."""
    if not isinstance(config, dict):
        raise UsageError(f"config must be a JSON object, not {type(config).__name__}")
    if not isinstance(config.get("params", {}), dict):
        raise UsageError("config params must be a JSON object")
    # payloads carry parts of the config, so they get a private copy; a
    # profile element is only read by make_element and is not copied
    element = config.get("params", {}).get("element")
    memo = {id(element): element} if config.get("task") == "profile" else None
    config = copy.deepcopy(config, memo)
    task = config.get("task")
    if task not in TASKS:
        raise UsageError(f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    seed = int(config.get("seed", 0))
    params = config.get("params", {})
    rng = np.random.default_rng(seed)
    payload: dict
    verified = True

    if task == "validate":
        s = build_scheme(config["scheme"])
        report = validate_scheme(s, trials=int(params.get("trials", 200)), rng_seed=seed)
        payload = report.to_json()
        verified = report.passed

    elif task == "profile":
        s = build_scheme(config["scheme"])
        if "n_max" not in params:
            raise UsageError("profile task needs params.n_max")
        desc = params.get("element", "random")
        x = make_element(s.space, desc, rng)
        if isinstance(desc, dict) and "values" in desc:
            params["element"] = encode_element(x)
        profile = error_profile(s.space, x, s, int(params["n_max"]), seed=seed)
        payload = profile.to_json()
        vals = profile.values()
        verified = bool(np.all(np.diff(vals) <= 1e-9)) if vals.size else True
        if config.get("csv"):
            profile.dump_csv(config["csv"])
        if config.get("plot_data"):
            profile.dump_plot_data(config["plot_data"])

    elif task == "witness":
        op = params.get("op")
        if not op:
            raise UsageError("witness task needs params.op")
        w = witness_from_config(op, params, seed)
        verified = wit.verify_witness(w, seed=seed)
        payload = _witness_payload(w, op, params)

    elif task == "density":
        s = build_scheme(config["scheme"])
        levels = params.get("levels") or list(range(s.n_max + 1))
        certs = [analyze.density_lower_bound(s, int(n), rng_seed=seed + 17 * int(n))
                 for n in levels]
        payload = {"schema": analyze.REPORT_SCHEMA, "scheme": s.label, "levels": levels,
                   "certificates": [c.to_json(with_element=s.space.carrier != "grid")
                                    for c in certs]}
        verified = all(c.solver_value >= c.bound - 1e-9 for c in certs)
        if config.get("csv"):
            with open(config["csv"], "w") as fh:
                fh.write("n,bound,status\n")
                for c in certs:
                    fh.write(f"{c.level},{c.bound!r},{c.status}\n")

    elif task == "shapiro":
        s = build_scheme(config["scheme"])
        verdict = analyze.shapiro_check(s, probe_budget=int(params.get("probes", 8)),
                                        rng_seed=seed, levels=params.get("levels"))
        payload = verdict.to_json()
        verified = verdict.verdict != "inconclusive"
        if config.get("csv") and verdict.envelope:
            with open(config["csv"], "w") as fh:
                fh.write("n,envelope\n")
                for n, v in zip(verdict.envelope["levels"], verdict.envelope["values"]):
                    fh.write(f"{n},{v!r}\n")

    elif task == "audit":
        which = params.get("audit", "dolzhenko")
        if which == "dolzhenko":
            payload = analyze.dolzhenko_variation_audit(
                n_samples=int(params.get("samples", 1000)),
                max_degree=int(params.get("max_degree", 5)), rng_seed=seed)
            verified = payload["passed"]
        elif which == "jackson":
            s = build_scheme(config["scheme"])
            payload = analyze.jackson_audit(s, params.get("seminorm", {"kind": "lipschitz"}),
                                            rng_seed=seed)
        elif which == "bernstein":
            s = build_scheme(config["scheme"])
            payload = analyze.bernstein_audit(s, params.get("seminorm", {"kind": "deriv-sup"}),
                                              budget=int(params.get("budget", 200)),
                                              rng_seed=seed)
        else:
            raise UsageError(f"unknown audit {which!r}")

    elif task == "slowdecay":
        s = build_scheme(config["scheme"])
        eps_vals = params.get("eps")
        if eps_vals is None:
            window = int(params.get("i_max", 8)) + 4
            eps = NullSequence.harmonic(window)
        else:
            eps = NullSequence(np.asarray(eps_vals, dtype=float))
        w = wit.construct_slow_decay(s, eps, int(params.get("i_max", 8)), rng_seed=seed)
        verified = wit.verify_slow_decay(w, seed=seed)
        payload = _witness_payload(w, "slowdecay", params)

    text = canonical_json(config)
    return {"version": REPORT_VERSION, "task": task, "config": json.loads(text),
            "config_hash": hash_text(text), "seed": seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "payload": payload, "verified": verified}


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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
    parser = argparse.ArgumentParser(prog="lethargy",
                                     description="approximation-scheme laboratory")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a task from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dot paths, JSON values)")
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")

    p_replay = sub.add_parser("replay", help="re-verify a report")
    p_replay.add_argument("report")

    sub.add_parser("list-schemes", help="print registered scheme names")

    args = parser.parse_args(argv)
    if args.command == "list-schemes":
        for name in list_schemes():
            print(name)
        return 0

    if args.command == "run":
        try:
            with open(args.config) as fh:
                config = json.load(fh)
            for item in args.set:
                if "=" not in item:
                    raise UsageError(f"--set needs KEY=VALUE, got {item!r}")
                key, raw = item.split("=", 1)
                _apply_override(config, key, raw)
            report = run_task(config)
        except HANDLED_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if not report["verified"]:
            print("verification failure", file=sys.stderr)
            return 2
        return 0

    if args.command == "replay":
        try:
            with open(args.report) as fh:
                report = json.load(fh)
            ok = replay_report(report)
        except HANDLED_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not ok:
            print("replay: verification did not reproduce", file=sys.stderr)
            return 2
        print("replay: all claims reproduced")
        return 0

    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
