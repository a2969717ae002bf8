"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget."""

import math
import time

import numpy as np
import pytest

from lethargy.analyze import brudnyi_gap, dolzhenko_variation_audit, shapiro_check
from lethargy.scheme import build_scheme
from lethargy.seq import IndexMap, NullSequence, lethargy_majorant
from lethargy.solve import best_approx, quantizer_error, midpoint_quantizer, _nterm_exhaustive
from lethargy.space import Grid, Space
from lethargy.witness import (
    construct_slow_decay,
    verify_slow_decay,
    verify_witness,
    witness_haar_bumps,
    witness_quantizer,
)

from conftest import random_nonincreasing
from test_solve import brute_force_partition_value


def report_line(idx, name, failures, elapsed, budget):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {idx:02d} {name}: {status} ({elapsed:.2f}s / {budget:.0f}s budget)")
    for f in failures:
        print(f"    failure: {f}")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded {budget}s"


def test_01_exact_c0_equality():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    scheme = build_scheme({"kind": "interleaved-c0", "cap": 16})
    for trial in range(20):
        length = int(rng.integers(2, 17))
        eps = random_nonincreasing(rng, length)
        x = np.zeros(16)
        x[:length] = eps
        for n in range(1, length):
            level = 2 * n - 1
            if level > scheme.n_max:
                break
            got = best_approx(scheme.space, x, scheme, level).value
            if abs(got - eps[n]) > 1e-12:
                failures.append(f"trial {trial}: |E(x, A_{level}) - eps_{n}| = {abs(got - eps[n])}")
    report_line(1, "exact-c0-equality", failures, time.perf_counter() - t0, 1.0)


def test_02_quantizer_pinch():
    t0 = time.perf_counter()
    failures = []
    grid = Grid.interval(0.0, 1.0, 2049)
    space = Space.sup_grid(grid)
    x = 2.0 * grid.nodes - 1.0
    for m in (1, 2, 4, 8, 16, 64):
        value = quantizer_error(space, x, m).value
        if not (1.0 / m - 2e-3 <= value <= 1.0 / m):
            failures.append(f"m={m}: value {value} outside [1/m - 2e-3, 1/m]")
        mid = midpoint_quantizer(x, m, radius=1.0)
        if np.max(np.abs(x - mid)) > 1.0 / m + 1e-15:
            failures.append(f"m={m}: midpoint quantizer exceeds 1/m")
    rng = np.random.default_rng(202)
    for m in (2, 3, 4):
        for _ in range(4):
            sample = rng.standard_normal(64)
            got = quantizer_error(Space.sup_grid(Grid.interval(0, 1, 64)), sample, m).value
            want = brute_force_partition_value(sample, m)
            if got != want:
                failures.append(f"64-point m={m}: solver {got!r} != oracle {want!r}")
    report_line(2, "quantizer-pinch", failures, time.perf_counter() - t0, 5.0)


def test_03_tensor_eckart_young():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 9):
        z = np.eye(n) / n
        for norm_kind in ("hs", "operator"):
            s = build_scheme({"kind": "rank", "n_max": n,
                              "space": {"carrier": "matrix", "side": n, "norm": norm_kind}})
            value = best_approx(s.space, z, s, n - 1).value
            if abs(value - 1.0 / n) > 1e-12:
                failures.append(f"n={n} {norm_kind}: E = {value!r} != 1/n")
            if value < 1.0 / (n * n) - 1e-15:
                failures.append(f"n={n} {norm_kind}: below the 1/n^2 floor")
    report_line(3, "tensor-eckart-young", failures, time.perf_counter() - t0, 1.0)


def test_04_orthonormal_nterm_exhaustive():
    t0 = time.perf_counter()
    failures = []
    dim = 12
    space = Space.coords(dim, 2.0)
    atoms = np.eye(dim)
    for n in range(1, 7):
        y = np.zeros(dim)
        y[:n] = 1.0 / n
        res = _nterm_exhaustive(space, atoms, y, n - 1)
        value = res.value
        if res.status != "exact":
            failures.append(f"n={n}: exhaustive search not exact")
        if abs(value - 1.0 / n) > 1e-15:
            failures.append(f"n={n}: E = {value!r} != 1/n")
        if not value > 1.0 / (2 * n):
            failures.append(f"n={n}: bound 1/(2n) not strict")
    report_line(4, "orthonormal-nterm-bound", failures, time.perf_counter() - t0, 10.0)


def test_05_haar_bump_lower_bound():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        for p in (1.0, 2.0):
            w = witness_haar_bumps(n, p, family="poly", n_attempts=100, seed=500 + n)
            if len(w.attempts) < 100:
                failures.append(f"n={n} p={p}: fewer than 100 attempts")
            worst = min(a.value for a in w.attempts)
            if not worst > 1.0 / 5.0:
                failures.append(f"n={n} p={p}: attempt at {worst} beats 1/5")
            if not verify_witness(w):
                failures.append(f"n={n} p={p}: witness verification failed")
    report_line(5, "haar-bump-lower-bound", failures, time.perf_counter() - t0, 60.0)


def test_06_lethargy_majorant_randomized():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)
    window = 1024
    idx = np.arange(window)
    for trial in range(1000):
        eps_vals = random_nonincreasing(rng, window)
        jumps = rng.integers(0, 4, size=window)
        hv = np.minimum(idx + jumps, 8 * window)
        xi = lethargy_majorant(NullSequence(eps_vals), IndexMap(hv)).values
        if not np.all(xi >= eps_vals - 1e-15):
            failures.append(f"trial {trial}: domination fails")
        if not np.all(np.diff(xi) <= 1e-15):
            failures.append(f"trial {trial}: monotonicity fails")
        in_window = hv < window
        if not np.all(xi[in_window] <= 2.0 * xi[hv[in_window]] + 1e-15):
            failures.append(f"trial {trial}: doubling bound fails")
        if failures:
            break
    report_line(6, "lethargy-majorant-randomized", failures, time.perf_counter() - t0, 5.0)


def test_07_slow_decay_construction():
    t0 = time.perf_counter()
    failures = []
    s = build_scheme("monomial-chain")
    w = construct_slow_decay(s, NullSequence.harmonic(16), 8, rng_seed=707)
    if not verify_slow_decay(w):
        failures.append("solver verification failed")
    observed = {v.level: v.observed for v in w.verifications}
    for i in range(9):
        e = observed.get(i)
        if e is None:
            failures.append(f"level {i} missing")
        elif not (0.0 < e <= 1.0 / (i + 1)):
            failures.append(f"level {i}: E = {e} outside (0, 1/(i+1)]")
    report_line(7, "slow-decay-construction", failures, time.perf_counter() - t0, 60.0)


def test_08_shapiro_dichotomy():
    t0 = time.perf_counter()
    failures = []
    quant = build_scheme("quantizer-linear")
    verdict = shapiro_check(quant, probe_budget=6, rng_seed=808)
    if verdict.verdict != "Shapiro-fails":
        failures.append(f"quantizer verdict {verdict.verdict}")
    else:
        want = [1.0 / quant.m_of(n) for n in range(quant.n_max + 1)]
        if verdict.envelope["values"] != want:
            failures.append("quantizer envelope is not the reciprocal budget")
    for name in ("monomial-chain", "trig-chain", "interleaved-c0", "orthonormal-nterm"):
        v = shapiro_check(build_scheme(name), rng_seed=808)
        if v.verdict != "consistent-with-Shapiro":
            failures.append(f"{name}: verdict {v.verdict}")
        if v.constant < 0.9:
            failures.append(f"{name}: certificate floor {v.constant} < 0.9")
    report_line(8, "shapiro-dichotomy", failures, time.perf_counter() - t0, 120.0)


def test_09_dolzhenko_variation_audit():
    t0 = time.perf_counter()
    failures = []
    rep = dolzhenko_variation_audit(n_samples=1000, max_degree=5, rng_seed=909)
    if rep["tolerance"] != 1e-3:
        failures.append(f"discretization allowance {rep['tolerance']!r}, not 1e-3")
    if not rep["passed"]:
        failures.append(f"{len(rep['violations'])} variation violations")
    report_line(9, "dolzhenko-variation-audit", failures, time.perf_counter() - t0, 10.0)


def test_10_brudnyi_gap_interleaved():
    t0 = time.perf_counter()
    failures = []
    s = build_scheme({"kind": "interleaved-c0", "cap": 12})
    rep = brudnyi_gap(s, rng_seed=1010)
    for k in range(1, 11):
        level = 2 * k - 1
        got = rep["per_level"][level]
        want = 1.0 / (k + 1)
        if abs(got - want) > 1e-10:
            failures.append(f"k={k}: estimate {got!r} != 1/(k+1)")
    report_line(10, "brudnyi-gap-interleaved", failures, time.perf_counter() - t0, 1.0)
