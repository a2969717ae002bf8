"""Output checks made apart from the program.

Each check recomputes what it can in numpy from the inputs alone (grids,
bases and closed forms restated here, never imported from lethargy) and
otherwise tests properties every correct answer must have.  A check returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import C0_CAP, GRID_NODES, QUANTIZER_BUDGETS, TORUS_NODES

REL = 1e-9          # agreement of recomputed distances, relative to max(1, |x|)
EXACT = 1e-12       # closed forms that the solvers reproduce to rounding
EXACT_GAP = 1e-6    # widest solver-value minus bound bracket that may be called exact
FLOOR = 0.9         # weak-gap floor of a consistent-with-Shapiro verdict


# -- grids and bases ------------------------------------------------------------------


def interval_grid(n: int):
    """Uniform nodes on [0, 1] with trapezoid weights."""
    t = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[0] = w[-1] = 0.5 / (n - 1)
    return t, w


def cell_grid(n: int):
    """Midpoints of n equal cells of [0, 1] with equal weights."""
    return (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)


def _close(a: float, b: float, tol: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= tol * max(1.0, scale)


# -- sup-norm certificates ----------------------------------------------------------------


def _vallee_poussin(values: np.ndarray, idx: np.ndarray) -> float:
    """min |f| over an alternating reference, a lower bound on E(f, span) for
    a Haar space of dimension len(idx) - 1 (p = 0 is a member)."""
    ref = values[idx]
    if np.unique(idx).size != idx.size or np.any(np.sign(ref[1:]) == np.sign(ref[:-1])):
        return 0.0
    return float(np.min(np.abs(ref)))


def chebyshev_lower(level: int) -> float:
    """Lower bound on E(T_{n+1}, P_n) on the registry grid: T_{n+1} at the grid
    nodes nearest its n+2 extrema alternates in sign."""
    deg = level + 1
    t, _ = interval_grid(GRID_NODES)
    u = 2.0 * t - 1.0
    f = np.cos(deg * np.arccos(np.clip(u, -1.0, 1.0)))
    ext = np.sort(np.cos(np.pi * np.arange(deg + 1) / deg))
    idx = np.abs(u[None, :] - ext[:, None]).argmin(axis=1)
    return _vallee_poussin(f, idx)


def cosine_lower(level: int) -> float:
    """Lower bound on E(cos((n+1)t), T_n) on the torus grid from the 2n+2
    nodes nearest the extrema of cos((n+1)t)."""
    k = level + 1
    t = 2.0 * np.pi * np.arange(TORUS_NODES) / TORUS_NODES
    f = np.cos(k * t)
    ext = np.pi * np.arange(2 * k) / k
    idx = np.rint(ext / (2.0 * np.pi / TORUS_NODES)).astype(int) % TORUS_NODES
    return _vallee_poussin(f, idx)


def quantizer_range(m: int) -> tuple:
    """[discrete ramp value, midpoint envelope] for unit-sup elements."""
    n = GRID_NODES
    ramp = (math.ceil(n / m) - 1) * (2.0 / (n - 1)) / 2.0
    return ramp, 1.0 / m


def c0_density_value(level: int) -> float:
    """E(e_j, A_n) for the first unused coordinate vector e_j: 1, except at the
    top level, where e_{cap-1} is the bounded last coordinate of the constrained
    set on cap coordinates and its distance is cap/(cap+1)."""
    return C0_CAP / (C0_CAP + 1.0) if level == 2 * C0_CAP - 2 else 1.0


def check_certificate(scheme: str, cert: dict) -> list:
    """A density certificate is a rigorous lower bound: status `exact`, or
    `certified` for a proved bound below the solver value.  The bound lies in
    the independent interval [lo, hi] and not above the solver value, and the
    solver value not above hi."""
    n, bound = int(cert["level"]), float(cert["bound"])
    value = float(cert["solver_value"])
    errs = []
    if cert["status"] not in ("exact", "certified") or cert["direction"] != "lower":
        errs.append(f"{scheme} n={n}: {cert['status']!r} {cert['direction']!r} certificate, "
                    f"expected a rigorous lower bound")
    if bound > value + REL * max(1.0, abs(value)):
        errs.append(f"{scheme} n={n}: bound {bound!r} above the solver value {value!r}")
    elif cert["status"] == "exact" and value - bound > EXACT_GAP * max(1.0, abs(value)):
        errs.append(f"{scheme} n={n}: 'exact' bound {bound!r} below the solver value {value!r}")
    if scheme == "monomial-chain":
        lo, hi = chebyshev_lower(n), 1.0
    elif scheme == "trig-chain":
        lo, hi = cosine_lower(n), 1.0
    elif scheme in QUANTIZER_BUDGETS:
        lo, hi = quantizer_range(QUANTIZER_BUDGETS[scheme][n])
    elif scheme == "interleaved-c0":
        lo = hi = c0_density_value(n)
    elif scheme == "monomial-chain-l2":
        # the orthonormalized next basis column is a unit element orthogonal to A_n
        lo, hi = 1.0, 1.0
    else:
        return errs + [f"no certificate check for {scheme!r}"]
    if not (lo - REL <= bound and value <= hi + REL) or lo <= 0.0:
        errs.append(f"{scheme} n={n}: certificate {bound!r} (solver value {value!r}) "
                    f"outside [{lo!r}, {hi!r}]")
    return errs


def check_density(op, report: dict) -> list:
    scheme = op.config["scheme"]
    certs = report["payload"]["certificates"]
    errs = [] if report["verified"] else [f"{op.name}: report not verified"]
    if [c["level"] for c in certs] != op.config["params"]["levels"]:
        errs.append(f"{op.name}: certificate levels {[c['level'] for c in certs]}")
    for cert in certs:
        errs += check_certificate(scheme, cert)
    return errs


def check_shapiro(op, report: dict) -> list:
    scheme = op.config["scheme"]
    p = report["payload"]
    level = op.config["params"]["levels"][0]
    errs = [] if report["verified"] else [f"{op.name}: report not verified"]
    for cert in p["certificates"]:
        errs += check_certificate(scheme, cert)
    if scheme in QUANTIZER_BUDGETS:
        if p["verdict"] != "Shapiro-fails":
            errs.append(f"{op.name}: verdict {p['verdict']!r}, expected Shapiro-fails")
        env = p.get("envelope") or {}
        want = [1.0 / QUANTIZER_BUDGETS[scheme][level]]
        if env.get("values") != want:
            errs.append(f"{op.name}: envelope {env.get('values')!r}, expected {want!r}")
    else:
        if p["verdict"] != "consistent-with-Shapiro" or p["weak_gap_constant"] < FLOOR:
            errs.append(f"{op.name}: verdict {p['verdict']!r} with floor "
                        f"{p['weak_gap_constant']!r}, expected consistent-with-Shapiro >= {FLOOR}")
    if scheme == "interleaved-c0":
        # gap values at odd levels 2k-1 are 1/(k+1); the smallest is at k = cap-1
        if not _close(p["gamma"], 1.0 / C0_CAP, EXACT):
            errs.append(f"{op.name}: gap constant {p['gamma']!r}, expected 1/{C0_CAP}")
    return errs


# -- L2 profiles ------------------------------------------------------------------------


def l2_chain_residuals(x: np.ndarray, nodes: int, n_max: int) -> np.ndarray:
    """E(x, P_n) in weighted L2 for n = 0..n_max, from one weighted QR."""
    t, w = interval_grid(nodes)
    sw = np.sqrt(w)
    v = np.polynomial.chebyshev.chebvander(2.0 * t - 1.0, n_max)
    q, _ = np.linalg.qr(v * sw[:, None])
    b = x * sw
    return np.array([np.linalg.norm(b - q[:, :n + 1] @ (q[:, :n + 1].T @ b))
                     for n in range(n_max + 1)])


def trig_residuals(x: np.ndarray, n_max: int) -> np.ndarray:
    """E(x, T_n) in L2 of the uniform torus grid: by Parseval, the energy of
    the discrete Fourier coefficients above frequency n."""
    size = x.size
    power = np.abs(np.fft.fft(x)) ** 2 * (2.0 * np.pi / size) / size
    freq = np.abs(np.fft.fftfreq(size, d=1.0 / size))
    return np.array([math.sqrt(float(np.sum(power[freq > n]))) for n in range(n_max + 1)])


def rank_residuals_sq(x: np.ndarray, norm: str) -> np.ndarray:
    """Squared Eckart-Young errors, rank 0..side, from the eigenvalues of x^T x."""
    lam = np.clip(np.linalg.eigvalsh(x.T @ x)[::-1], 0.0, None)
    if norm == "hs":
        return np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])
    return np.concatenate([lam, [0.0]])


def sorted_tail(x: np.ndarray, n_max: int) -> np.ndarray:
    """Best n-term error in an orthonormal basis: the norm of all but the n
    largest coordinates."""
    sq = np.sort(x * x)  # ascending
    return np.array([math.sqrt(float(np.sum(sq[: sq.size - n]))) for n in range(n_max + 1)])


def block_residual(x: np.ndarray, w: np.ndarray, blocks: int) -> float:
    """Weighted L2 distance to functions constant on `blocks` equal blocks."""
    xb = x.reshape(blocks, -1)
    wb = w.reshape(blocks, -1)
    mean = np.sum(xb * wb, axis=1, keepdims=True) / np.sum(wb, axis=1, keepdims=True)
    return math.sqrt(float(np.sum(wb * (xb - mean) ** 2)))


def uniform_spline(x: np.ndarray, t: np.ndarray, w: np.ndarray, pieces: int, coeffs: int) -> float:
    """Weighted L2 error of the best piecewise polynomial (`coeffs` coefficients
    per piece) on `pieces` equal runs of grid nodes."""
    cuts = np.rint(np.linspace(0, t.size, pieces + 1)).astype(int)
    total = 0.0
    for i, j in zip(cuts[:-1], cuts[1:]):
        if j - i <= coeffs:
            continue
        tt = t[i:j] - t[i:j].mean()
        sw = np.sqrt(w[i:j])
        cols = np.vander(tt, coeffs, increasing=True) * sw[:, None]
        coef, *_ = np.linalg.lstsq(cols, x[i:j] * sw, rcond=None)
        total += float(np.sum((x[i:j] * sw - cols @ coef) ** 2))
    return math.sqrt(total)


def _expected_profile(label: str, x: np.ndarray, n_max: int):
    """(exact values, None, None) where a closed form or an independent solve
    exists, else (None, E(x, span of all atoms), ||x||)."""
    if label in ("monomial-chain-l2", "mono-l2-2049", "mono-l2-4097"):
        return l2_chain_residuals(x, x.size, n_max), None, None
    if label == "trig-l2-4096":
        return trig_residuals(x, n_max), None, None
    if label == "orthonormal-nterm":
        return sorted_tail(x, n_max), None, None
    _, w = cell_grid(x.size)
    full = math.sqrt(float(np.sum(w * x * x)))
    if label == "char-binary-intervals":
        return None, block_residual(x, w, 64), full   # depth 6: 64 finest intervals
    if label == "haar-wavelet-nterm":
        return None, 0.0, full                        # atoms down to single cells
    raise KeyError(label)


def check_profile(op, report: dict, replay_ok: bool) -> list:
    label = op.name.split(":", 1)[1].split("#")[0]
    entries = report["payload"]["entries"]
    n_max = op.config["params"]["n_max"]
    x = op.element
    errs = [] if report["verified"] else [f"{op.name}: report not verified"]
    if not replay_ok:
        errs.append(f"{op.name}: report did not replay")
    if [e["n"] for e in entries] != list(range(n_max + 1)) or any(e["status"] == "error" for e in entries):
        return errs + [f"{op.name}: entries missing or in error"]
    vals = np.array([e["value"] for e in entries])
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.any(np.diff(vals) > REL * scale):
        errs.append(f"{op.name}: profile increases")
    if label.startswith("rank-"):
        want_sq = rank_residuals_sq(x, "hs" if label.endswith("hs") else "operator")[: n_max + 1]
        tol = REL * float(np.sum(x * x))
        bad = [n for n in range(n_max + 1) if abs(vals[n] ** 2 - want_sq[n]) > tol]
        if bad:
            errs.append(f"{op.name}: Eckart-Young mismatch at levels {bad}")
        return errs
    if label == "free-knot-spline":
        t, w = interval_grid(x.size)
        unif = [uniform_spline(x, t, w, n + 1, 2) for n in range(n_max + 1)]
        bad = [n for n in range(n_max + 1) if vals[n] > unif[n] + REL * scale or vals[n] < 0.0]
        if bad:
            errs.append(f"{op.name}: spline error above the uniform-knot spline at {bad}")
        if not _close(vals[0], unif[0], REL, scale):
            errs.append(f"{op.name}: one-piece fit {vals[0]!r} != {unif[0]!r}")
        return errs
    want, lo, hi = _expected_profile(label, x, n_max)
    if want is not None:
        bad = [n for n in range(n_max + 1) if not _close(vals[n], want[n], REL, scale)]
        if bad:
            errs.append(f"{op.name}: values differ from the independent solve at levels {bad}")
    else:
        if np.any(vals < lo - REL * scale) or np.any(vals > hi + REL * scale):
            errs.append(f"{op.name}: values outside [{lo!r}, {hi!r}]")
        if not _close(vals[0], hi, REL, scale):
            errs.append(f"{op.name}: level-0 value {vals[0]!r} != norm {hi!r}")
    return errs


# -- membership, witnesses, slow decay ------------------------------------------------------


def quantizer_oracle(values: np.ndarray, m: int) -> float:
    """Optimal sup distance to vectors with <= m values: bisection on the
    half-width t with a greedy cover by intervals of width 2t, then the
    half-range of the final cover."""
    v = np.sort(np.asarray(values, dtype=float))

    def cover(t: float) -> list:
        starts, i = [], 0
        while i < v.size:
            starts.append(i)
            i = int(np.searchsorted(v, v[i] + 2.0 * t, side="right"))
        return starts

    if len(cover(0.0)) <= m:
        return 0.0  # at most m distinct values: x is a member
    # start above the half-range: v[0] + 2 * (range / 2) can round below v[-1]
    lo, hi = 0.0, float(v[-1] - v[0]) / 2.0 * (1.0 + 1e-9) + 1e-300
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if len(cover(mid)) <= m:
            hi = mid
        else:
            lo = mid
    starts = cover(hi) + [v.size]
    return max(float(v[j - 1] - v[i]) / 2.0 for i, j in zip(starts[:-1], starts[1:]))


def check_validate(op, report: dict) -> list:
    p = report["payload"]
    errs = []
    if not (report["verified"] and p["passed"]):
        failed = [c["axiom"] for c in p["checks"] if not c["passed"]]
        errs.append(f"{op.name}: validation failed ({', '.join(failed)})")
    return errs


def _observed(payload: dict) -> dict:
    return {v["level"]: float(v["observed"]) for v in payload["verifications"]}


def check_witness(op, report: dict, replay_ok: bool) -> list:
    params = op.config["params"]
    kind = params["op"]
    p = report["payload"]
    obs = _observed(p)
    errs = [] if report["verified"] else [f"{op.name}: witness not verified"]
    if not replay_ok:
        errs.append(f"{op.name}: report did not replay")
    if kind == "quantizer":
        m = params["m"]
        ramp, _ = quantizer_range(m)
        x = np.asarray(p["element"])
        if not (_close(obs.get(0, math.nan), ramp, EXACT) and _close(quantizer_oracle(x, m), ramp, EXACT)):
            errs.append(f"{op.name}: observed {obs.get(0)!r}, discrete ramp value {ramp!r}")
    elif kind == "haar-bumps":
        n = params["n"]
        t, w = interval_grid(GRID_NODES)
        mu = w / w.sum()
        h = np.asarray(p["element"])
        cols = np.polynomial.legendre.legvander(2.0 * t - 1.0, n - 1) * np.sqrt(mu)[:, None]
        coef, *_ = np.linalg.lstsq(cols, h * np.sqrt(mu), rcond=None)
        best = float(np.sum((h * np.sqrt(mu) - cols @ coef) ** 2))
        if best < 0.2 or not _close(obs.get(n, math.nan), best, REL):
            errs.append(f"{op.name}: best L2 error {best!r}, observed {obs.get(n)!r}, bound 0.2")
    elif kind == "ridge":
        n = params["n"]
        if obs.get(n - 1, -1.0) < 1.0 / (n * n):
            errs.append(f"{op.name}: attempts reached {obs.get(n - 1)!r} < 1/n^2")
    elif kind == "translates":
        n, m, q = params["n"], params["m"], params["p"]
        if obs.get(n, -1.0) < ((m - n) / m) ** (1.0 / q) - REL:
            errs.append(f"{op.name}: attempts reached {obs.get(n)!r} below the untouched mass")
    elif kind == "c0":
        eps = params["eps"]
        want = {0: eps[0], **{2 * k - 1: eps[k] for k in range(1, len(eps))}}
        if set(obs) != set(want) or any(not _close(obs[k], v, EXACT) for k, v in want.items()):
            errs.append(f"{op.name}: odd-level errors {obs!r} differ from eps")
    elif kind == "orthonormal":
        n = params["n"]
        if not _close(obs.get(n - 1, math.nan), 1.0 / n, EXACT):
            errs.append(f"{op.name}: observed {obs.get(n - 1)!r}, expected 1/{n}")
    elif kind == "tensor":
        n = params["n"]
        want = {k: math.sqrt(n - k) / n for k in range(n)}
        if set(obs) != set(want) or any(not _close(obs[k], v, EXACT) for k, v in want.items()):
            errs.append(f"{op.name}: rank errors {obs!r}, expected sqrt(n-k)/n")
    return errs


def check_slowdecay(op, report: dict, replay_ok: bool) -> list:
    """Ladder errors are non-increasing and below the harmonic envelope.

    Chain ladders must also be positive and verified.  A quantizer ladder's
    element can have so few values that it is a member of A_n at some levels,
    so there each error must equal the independent oracle, and the report's
    verdict must be the one the oracle's errors give for its claims.
    """
    p = report["payload"]
    obs = _observed(p)
    i_max = op.config["params"]["i_max"]
    quantizer = op.config["scheme"] in QUANTIZER_BUDGETS
    errs = [] if report["verified"] or quantizer else [f"{op.name}: ladder not verified"]
    if not replay_ok:
        errs.append(f"{op.name}: report did not replay")
    levels = sorted(obs)
    # the ladder may halt early (a quantizer's gap map leaves the window), but
    # the levels it claims run from 0 without holes and stop at i_max
    if levels != list(range(len(levels))) or not 2 <= len(levels) <= i_max + 1:
        return errs + [f"{op.name}: verified levels {levels}, expected 0..L with 1 <= L <= {i_max}"]
    vals = np.array([obs[k] for k in levels])
    envelope = 1.0 / (np.arange(vals.size) + 1.0)  # the default harmonic eps
    if (np.any(vals <= 0.0) and not quantizer) or np.any(vals > envelope + 1e-9) \
            or np.any(np.diff(vals) > 1e-9):
        errs.append(f"{op.name}: errors {vals.tolist()} not positive, non-increasing and "
                    f"below the harmonic envelope")
    if quantizer:
        x = np.asarray(p["element"])
        budgets = QUANTIZER_BUDGETS[op.config["scheme"]]
        want = {k: quantizer_oracle(x, budgets[k]) for k in levels}
        bad = [k for k in levels if not _close(want[k], obs[k], EXACT)]
        claims = {c["level"]: c for c in p["claims"]}
        tol = float(p["tol"])
        verdict = all(max(claims[k]["lower"] - tol, 1e-13) < want[k] <= claims[k]["upper"] + tol
                      for k in levels)
        if bad:
            errs.append(f"{op.name}: quantizer errors differ from the oracle at levels {bad}")
        elif report["verified"] != verdict:
            errs.append(f"{op.name}: verified {report['verified']}, the oracle's errors give {verdict}")
    return errs


def check(op, report: dict, replay_ok: bool = True) -> list:
    task = op.config["task"]
    if task == "density":
        return check_density(op, report)
    if task == "shapiro":
        return check_shapiro(op, report)
    if task == "profile":
        return check_profile(op, report, replay_ok)
    if task == "validate":
        return check_validate(op, report)
    if task == "witness":
        return check_witness(op, report, replay_ok)
    if task == "slowdecay":
        return check_slowdecay(op, report, replay_ok)
    return [f"{op.name}: no check for task {task!r}"]
