"""Operation lists of the three workloads.

A workload is a fixed list of operations (one *round*); a run repeats whole
rounds.  Every operation is a lethargy task config handed to
``cli.run_task``; profile, witness and slow-decay reports are also
serialized to JSON, parsed back and handed to ``cli.replay_report``.

The benchmark seed only feeds the inputs: the config ``seed`` field of every
task and the random elements of profile tasks.  The list of tasks, their
schemes, levels and sizes never depend on it, so every round does the same
amount of work and fails the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

GRID_NODES = 2049          # registry interval grids (sup and L2 chains, quantizers)
TORUS_NODES = 4096         # registry torus grid (trig-chain)
C0_CAP = 20                # registry interleaved-c0 dimension cap

# registry value budgets m(n), restated here so checks do not ask the program
QUANTIZER_BUDGETS = {
    "quantizer-linear": [max(n, 1) for n in range(13)],
    "quantizer-geometric": [2**n for n in range(9)],
}

# larger inline schemes of the profile-l2 workload
MONO_L2_2049 = {"kind": "chain", "family": "monomial", "n_max": 60, "label": "mono-l2-2049",
                "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                          "nodes": 2049, "norm": "lp", "p": 2.0}}
MONO_L2_4097 = {"kind": "chain", "family": "monomial", "n_max": 48, "label": "mono-l2-4097",
                "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                          "nodes": 4097, "norm": "lp", "p": 2.0}}
TRIG_L2_4096 = {"kind": "chain", "family": "trig", "n_max": 24, "label": "trig-l2-4096",
                "space": {"carrier": "grid", "domain": "torus", "nodes": 4096,
                          "norm": "lp", "p": 2.0}}
RANK_64_HS = {"kind": "rank", "label": "rank-64-hs",
              "space": {"carrier": "matrix", "side": 64, "norm": "hs"}}
RANK_64_OP = {"kind": "rank", "label": "rank-64-operator",
              "space": {"carrier": "matrix", "side": 64, "norm": "operator"}}


@dataclass(frozen=True)
class Op:
    """One timed operation: a task config plus what the check needs to know."""

    name: str                 # stable label, the same in every round
    config: dict
    replay: bool = False      # serialize the report and replay it inside the op
    element: Optional[np.ndarray] = None   # profile element, kept for the checks
    # a fault the op shows today, if any: the exception type it raises, or a
    # phrase that every failure message of its check contains
    known_fault: str = ""


# -- certify-sup ----------------------------------------------------------------

# (task, scheme, level, copies).  The shapiro levels avoid m(n) = 1, where a
# quantizer's single-level verdict is rightly consistent-with-Shapiro.  Shapiro
# on trig-chain and quantizer-linear (about 6 s each, mostly the all-level gap
# estimate) is left out so that a run holds two rounds within its time.  The
# round is built so that both percentiles fall inside blocks of like LP-bound
# operations: nine operations take at most 0.3 s, eight copies of density at
# monomial-chain level 8 take about 0.3 s and hold the median, and of the
# eleven slower ones, the three copies of trig-chain level 6 hold the tail.
CERTIFY_SUP = (
    [("density", "monomial-chain", n, 1) for n in (0, 4)]
    + [("density", "monomial-chain", 8, 8), ("density", "monomial-chain", 12, 1)]
    + [("density", "trig-chain", n, 1) for n in (0, 1, 2, 4)]
    + [("density", "trig-chain", 6, 3), ("density", "trig-chain", 8, 1)]
    + [("density", "quantizer-linear", 12, 1), ("density", "quantizer-geometric", 2, 1)]
    + [("density", "interleaved-c0", n, 1) for n in (1, 9, 37, 38)]
    + [("shapiro", "monomial-chain", 9, 1), ("shapiro", "quantizer-geometric", 4, 1),
       ("shapiro", "interleaved-c0", 37, 1)]
)


def _certify_sup(rng: np.random.Generator) -> list:
    ops = []
    for task, scheme, level, copies in CERTIFY_SUP:
        for copy in range(copies):
            cfg = {"task": task, "scheme": scheme, "seed": _seed(rng),
                   "params": {"levels": [level]}}
            ops.append(Op(f"{task}:{scheme}:{level}" + _copy(copy, copies), cfg))
    return ops


# -- profile-l2 -------------------------------------------------------------------

# (label, scheme descriptor or registry name, n_max, element shape, copies).
# The round's median falls inside the block of eight 64x64 rank profiles
# (about 0.16 s each, LAPACK-bound): five operations are faster and six slower.
PROFILE_L2 = (
    ("monomial-chain-l2", "monomial-chain-l2", 12, (GRID_NODES,), 1),
    ("orthonormal-nterm", "orthonormal-nterm", 10, (64,), 1),
    ("char-binary-intervals", "char-binary-intervals", 8, (1024,), 1),
    ("haar-wavelet-nterm", "haar-wavelet-nterm", 6, (512,), 1),
    ("free-knot-spline", "free-knot-spline", 6, (257,), 1),
    ("rank-8-hs", "rank-8-hs", 8, (8, 8), 1),
    ("rank-8-operator", "rank-8-operator", 8, (8, 8), 1),
    ("mono-l2-2049", MONO_L2_2049, 60, (2049,), 1),
    ("mono-l2-4097", MONO_L2_4097, 48, (4097,), 1),
    ("trig-l2-4096", TRIG_L2_4096, 24, (4096,), 1),
    ("rank-64-hs", RANK_64_HS, 64, (64, 64), 4),
    ("rank-64-operator", RANK_64_OP, 64, (64, 64), 4),
)

# density on the L2 grid chain; n = 12 = n_max indexes past the basis
# (scheme.density_candidates -> _orthonormal_tail_column) and raises IndexError
L2_DENSITY_LEVELS = (4, 12)
L2_DENSITY_FAULT = {12: "IndexError"}


def _profile_l2(rng: np.random.Generator) -> list:
    ops = []
    for label, scheme, n_max, shape, copies in PROFILE_L2:
        for copy in range(copies):
            x = rng.standard_normal(shape)
            cfg = {"task": "profile", "scheme": scheme, "seed": _seed(rng),
                   "params": {"n_max": n_max, "element": {"values": x.ravel().tolist()}}}
            ops.append(Op(f"profile:{label}" + _copy(copy, copies), cfg, replay=True, element=x))
    for n in L2_DENSITY_LEVELS:
        cfg = {"task": "density", "scheme": "monomial-chain-l2", "seed": _seed(rng),
               "params": {"levels": [n]}}
        ops.append(Op(f"density:monomial-chain-l2:{n}", cfg,
                      known_fault=L2_DENSITY_FAULT.get(n, "")))
    return ops


# -- verify-members -----------------------------------------------------------------

# (scheme, trials or i_max, copies per round).  The pure-Python quantizer and
# Nelder-Mead code slows most when the host is contended, so the round is built
# for the median to fall among the LP-bound monomial-chain validations and the
# tail among the slow-decay ladders and the spline validation.
VALIDATE = (("monomial-chain", 4, 10), ("quantizer-linear", 200, 1), ("free-knot-spline", 12, 1),
            ("char-binary-intervals", 200, 1), ("rank-8-hs", 200, 1))
WITNESS = (
    ("quantizer", {"m": 5}),
    ("haar-bumps", {"n": 3, "p": 2.0, "attempts": 20}),
    ("ridge", {"n": 2, "starts": 5}),
    ("translates", {"n": 2, "m": 5, "p": 1.0, "trials": 50}),
    ("c0", {"eps": [1.0, 0.5, 0.25, 0.2, 0.125, 0.1, 0.05]}),
    ("orthonormal", {"n": 4, "dim": 12}),
    ("tensor", {"n": 6, "norm": "hs"}),
)
SLOWDECAY = (("monomial-chain", 4, 3), ("trig-chain", 2, 2))
# slowdecay on quantizer-linear builds a two-valued ladder element.  At the
# levels where m(n) >= 2 it is a member, yet solve.best_m_value_sup returns
# (max - min)/2 instead of 0, so the check against the quantizer oracle fails.
# The op runs on a fixed task seed, not one drawn from the benchmark seed, so it
# fails in every round; it is counted in `failed` until the fault is fixed.
SLOWDECAY_TIED = {"scheme": "quantizer-linear", "i_max": 4, "seed": 1,
                  "fault": "quantizer errors differ from the oracle"}


def _verify_members(rng: np.random.Generator) -> list:
    ops = []
    for scheme, trials, copies in VALIDATE:
        for copy in range(copies):
            cfg = {"task": "validate", "scheme": scheme, "seed": _seed(rng),
                   "params": {"trials": trials}}
            ops.append(Op(f"validate:{scheme}" + _copy(copy, copies), cfg))
    for op, params in WITNESS:
        cfg = {"task": "witness", "seed": _seed(rng), "params": {"op": op, **params}}
        ops.append(Op(f"witness:{op}:{_label(params)}", cfg, replay=True))
    for scheme, i_max, copies in SLOWDECAY:
        for copy in range(copies):
            cfg = {"task": "slowdecay", "scheme": scheme, "seed": _seed(rng),
                   "params": {"i_max": i_max}}
            ops.append(Op(f"slowdecay:{scheme}" + _copy(copy, copies), cfg, replay=True))
    tied = SLOWDECAY_TIED
    cfg = {"task": "slowdecay", "scheme": tied["scheme"], "seed": tied["seed"],
           "params": {"i_max": tied["i_max"]}}
    ops.append(Op(f"slowdecay:{tied['scheme']}", cfg, replay=True, known_fault=tied["fault"]))
    return ops


# -- registry -------------------------------------------------------------------------

ROUNDS = {"certify-sup": _certify_sup, "profile-l2": _profile_l2,
          "verify-members": _verify_members}

# one cheap operation per workload, run untimed at the end of set-up
WARMUP = {"certify-sup": 0, "profile-l2": 0, "verify-members": 14}


def _copy(copy: int, copies: int) -> str:
    """Name suffix that tells copies of one operation in a round apart."""
    return f"#{copy}" if copies > 1 else ""


def _label(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items() if k != "eps")


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def round_ops(workload: str, rng: np.random.Generator) -> list:
    return ROUNDS[workload](rng)


def schemes(workload: str) -> list:
    """Every scheme a workload names, for the set-up build."""
    out = []
    for op in round_ops(workload, np.random.default_rng(0)):
        if "scheme" in op.config and op.config["scheme"] not in out:
            out.append(op.config["scheme"])
    return out
