"""End-to-end benchmark of lethargy's task entry points.

    python3 perfbench/run.py --workload certify-sup --seed 1 --seconds 15 --trace 0

Runs the workload's fixed list of operations (``cli.run_task``, plus
``cli.replay_report`` where the workload replays) in this process, in whole
rounds, for as close to ``--seconds`` as whole rounds allow and for at
least MIN_OPS timed operations.  Every output is checked (see checks.py).  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with times in
reference seconds (see refspeed.py); with ``--trace 1``
every round is traced and the metrics are the per-layer numbers (see
spans.py).  Details of each run go to perfbench/results/.
"""

import os

# fixed thread environment, set before numpy loads its BLAS
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
os.environ.pop("LETHARGY_THREADS", None)  # level parallelism at its default (1)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import refspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("certify-sup", "profile-l2", "verify-members")
MIN_OPS = 40            # a run times at least this many operations (tail needs 10 beyond it)
TAIL_BEYOND = 10        # task_s.tail: a percentile with this many operations above it
SETUP_RUNS = 5          # setup_s is the median set-up time of this many fresh processes


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit (timed from outside for setup_s)")
    return ap.parse_args(argv)


def load_program():
    """Import lethargy from this checkout's src/, never from elsewhere."""
    if not (SRC / "lethargy" / "__init__.py").is_file():
        sys.exit(f"error: no lethargy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lethargy

    if Path(lethargy.__file__).resolve().parent != SRC / "lethargy":
        sys.exit(f"error: imported lethargy from {lethargy.__file__}, not {SRC}")


def run_op(cli, op) -> tuple:
    """Time one operation; returns (seconds, report, replay_ok, exception)."""
    t = time.perf_counter()
    try:
        report = cli.run_task(op.config)
        replay_ok = True
        if op.replay:
            text = json.dumps(report, indent=2, sort_keys=True)
            replay_ok = cli.replay_report(json.loads(text))
    except Exception as exc:  # an operation's failure is a result, not a crash
        return time.perf_counter() - t, None, False, exc
    return time.perf_counter() - t, report, replay_ok, None


class Run:
    """Outcome counts, latencies and check failures of the timed rounds.

    Untraced runs time the reference kernel (refspeed.py) before every
    operation and after the last one of each round; an operation's seconds
    become reference seconds by the samples around it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = self.failed = 0
        self.latencies = []    # reference seconds of successful operations
        self.round_s = []      # reference seconds per round
        self.raw_round_s = []  # seconds per round
        self.raw_op_s = []     # seconds per operation, per round
        self.ref_samples = []  # seconds per kernel call, per round
        self.errors = []
        self.report_bytes = 0
        self.per_op = {}

    def do_round(self, cli, checks, ops) -> None:
        timed = []             # (op, seconds, ok)
        refs = []
        for op in ops:
            if not self.traced:
                refs.append(refspeed.sample())
            dt, report, replay_ok, exc = run_op(cli, op)
            self.attempted += 1
            if exc is not None:
                self.failed += 1
                if type(exc).__name__ != op.known_fault:
                    self.errors.append(f"{op.name}: unexpected {type(exc).__name__}: {exc}")
                timed.append((op, dt, False))
                continue
            errs = checks.check(op, report, replay_ok)
            if errs and op.known_fault and all(op.known_fault in e for e in errs):
                self.failed += 1   # the op's known wrong answer
                timed.append((op, dt, False))
                continue
            self.errors += errs
            timed.append((op, dt, True))
            if self.traced:
                self.report_bytes += len(json.dumps(report, indent=2, sort_keys=True))
        if not self.traced:
            refs.append(refspeed.sample())
            self.ref_samples.append(refs)
        wall = raw = 0.0
        for i, (op, dt, ok) in enumerate(timed):
            ref_dt = dt if self.traced else dt * refspeed.local_scale(refs, i)
            wall += ref_dt
            raw += dt
            if ok:
                self.latencies.append(ref_dt)
                self.per_op.setdefault(op.name, []).append(ref_dt)
        self.round_s.append(wall)
        self.raw_round_s.append(raw)
        self.raw_op_s.append([dt for _, dt, _ in timed])


def tail(values: list, per_round: int) -> float:
    """The highest percentile with at least TAIL_BEYOND values above it in the
    fewest whole rounds that time MIN_OPS operations.

    The level is fixed per workload, so runs with more rounds (a faster
    program, a quieter machine) report the same percentile, from more samples.
    """
    n = -(-MIN_OPS // per_round) * per_round
    return float(np.quantile(values, 1.0 - TAIL_BEYOND / n))


def timed_setups(args) -> list:
    """Seconds of SETUP_RUNS fresh `--setup-only` processes, one after
    another, each from its start to its exit.  No timeout: with one,
    subprocess polls for the exit in steps of up to 50 ms."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_RUNS):
        t = time.perf_counter()
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
        out.append(time.perf_counter() - t)
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in (*THREAD_ENV, "LETHARGY_THREADS")}}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from lethargy import cli, scheme

    sys.path.insert(0, str(HERE))
    import checks
    import workloads

    # -- set-up: imports (above), scheme builds, inputs, one untimed warm-up op
    for desc in workloads.schemes(args.workload):
        scheme.build_scheme(desc)
    rng = np.random.default_rng(args.seed)
    first = workloads.round_ops(args.workload, rng)
    warm = workloads.round_ops(args.workload, np.random.default_rng([args.seed, 1]))
    warm_op = warm[workloads.WARMUP[args.workload]]
    _, report, replay_ok, exc = run_op(cli, warm_op)
    if exc is not None:
        sys.exit(f"error: warm-up operation {warm_op.name} raised {exc!r}")
    if checks.check(warm_op, report, replay_ok):
        sys.exit(f"error: warm-up operation {warm_op.name} failed its check")
    if args.setup_only:
        return 0

    # -- measurement
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    run = Run(traced=bool(tracer))
    if not tracer:
        refspeed.warm_up()
    ops = first
    start = time.perf_counter()
    while True:
        run.do_round(cli, checks, ops)
        # stop once another round would end further from --seconds than now
        elapsed = time.perf_counter() - start
        rounds = len(run.round_s)
        if elapsed + 0.5 * elapsed / rounds >= args.seconds and len(run.latencies) >= MIN_OPS:
            break
        ops = workloads.round_ops(args.workload, rng)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = None
    if tracer:
        tracer.uninstall()
        rounds = len(run.round_s)
        metrics = spans.layer_metrics(tracer.spans, rounds, run.report_bytes)
        # spans per round times the cost of one span, over the traced round time
        metrics["trace.overhead"] = (len(tracer.spans) / rounds * spans.span_cost()
                                     / statistics.median(run.round_s), "ratio")
    else:
        setups = timed_setups(args)
        per_round = len(run.latencies) // len(run.round_s)
        # set-up is scaled by the host speed over the whole measurement
        run_scale = refspeed.median_scale([r for refs in run.ref_samples for r in refs])
        metrics = {
            "setup_s": (statistics.median(setups) * run_scale, "s"),
            "wall_s": (statistics.median(run.round_s), "s"),
            "task_s.p50": (statistics.median(run.latencies), "s"),
            "task_s.tail": (tail(run.latencies, per_round), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "environment": environment(), "metrics": metrics,
              "reference_nominal_s": refspeed.NOMINAL_S, "rounds_ref_s": run.round_s,
              "rounds_s": run.raw_round_s, "reference_samples_s": run.ref_samples,
              "ops_s": run.raw_op_s,
              "per_op_ref_s": run.per_op, "setups_s": setups,
              "errors": run.errors}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)

    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
