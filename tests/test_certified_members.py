"""The batch hook of `validate_scheme`, `Scheme.certified_members`, against the
per-element bodies it replaced: `certified_member`, the per-trial `additive`
and the axiom loop that called them, kept here as oracles (with the
membership threshold relative to ||x||, as it is now)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lethargy import scheme
from lethargy.scheme import (MEMBERSHIP_TOL, RANK_SV_CUTOFF, AxiomCheck, NoSolverError, NTerm,
                             Quantizer, Spline, ValidationReport, best_approx, build_scheme,
                             distinct_value_count, list_schemes, membership, sample_element,
                             validate_scheme)
from lethargy.solve import _spline_on_cells, _weighted_l2_fit
from lethargy.space import SpaceError, norm

# -- the former per-element bodies ---------------------------------------------------


def former_certified_member(s, x, n, support) -> bool:
    if isinstance(s, NTerm):
        if len(support) > min(n, s.dictionary.size):
            return membership(s, x, n)
        if len(support) == 0:
            return not x.any()
        value = _weighted_l2_fit(s.space, s.dictionary.atoms[:, list(support)], x)[0]
        return value <= MEMBERSHIP_TOL * norm(s.space, x)
    if isinstance(s, Spline):
        if len(support) <= n + 2:
            approx = _spline_on_cells(s.space, x, s.degree, support)
            if norm(s.space, x - approx) <= MEMBERSHIP_TOL * norm(s.space, x):
                return True
    return membership(s, x, n)


def former_additive(s, n, rng) -> bool:
    if isinstance(s, Quantizer):
        a = sample_element(s, n, rng)
        b = sample_element(s, n, rng)
        kn = s.K(n)
        return distinct_value_count(a + b) <= s.m_of(n) ** 2 and (
            kn is None or membership(s, a + b, kn))
    a, support_a = s.draw(n, rng)
    b, support_b = s.draw(n, rng)
    support = None if support_a is None else np.union1d(support_a, support_b)
    return former_certified_member(s, a + b, s.K(n), support)


def former_rank_member(x, n) -> bool:
    sv = np.linalg.svd(x, compute_uv=False)
    cutoff = RANK_SV_CUTOFF * (sv[0] if sv.size and sv[0] > 0 else 1.0)
    return int(np.sum(sv > cutoff)) <= n


def former_validate(s, trials, rng_seed) -> ValidationReport:
    """validate_scheme as it was: one decision per trial, drawn and decided in turn."""
    rng = np.random.default_rng(rng_seed)
    levels = [n for n in sorted({0, 1, s.n_max // 2, max(s.n_max - 1, 0)}) if n <= s.n_max]
    per_level = max(1, trials // max(1, len(levels)))
    checks = []
    fails = done = 0
    for n in levels:
        for _ in range(per_level):
            a, support = s.draw(n, rng)
            lam = float(rng.standard_normal() * 3.0)
            fails += not former_certified_member(s, lam * a, n, support)
            done += 1
    checks.append(AxiomCheck("homogeneity", fails == 0, done, fails))
    fails = done = saturated = 0
    for n in levels:
        for _ in range(per_level):
            done += 1
            saturated += s.K(n) is None
            fails += not former_additive(s, n, rng)
    note = f"{saturated} additions checked by value count only (K beyond window)" if saturated else ""
    checks.append(AxiomCheck("additivity", fails == 0, done, fails, note))
    fails = done = 0
    for n in levels:
        if n + 1 > s.n_max:
            continue
        for _ in range(max(1, per_level // 2)):
            a, support = s.draw(n, rng)
            done += 1
            fails += not former_certified_member(s, a, n + 1, support)
    checks.append(AxiomCheck("nesting", fails == 0, done, fails))
    threshold = s.density_threshold()
    worst = 0.0
    for x in scheme._proxy_probes(s, rng):
        try:
            worst = max(worst, best_approx(s.space, x, s, s.n_max).value)
        except NoSolverError:
            worst = math.inf
            break
    checks.append(AxiomCheck("density-proxy", worst < threshold, 1, 0,
                             f"max probe error {worst:.3e} vs threshold {threshold:.3e}"))
    return ValidationReport(s.label, checks, s.gap_values(), all(c.passed for c in checks))


# -- whole reports ---------------------------------------------------------------------


@pytest.mark.parametrize("name", list_schemes())
def test_validate_reports_match_the_former_loop(name):
    s = build_scheme(name)
    for seed in range(3):
        assert validate_scheme(s, 40, seed).to_json() == former_validate(s, 40, seed).to_json()


def test_validate_draws_as_the_former_loop_did():
    # the batches consume the rng as the per-trial loop did, up to the density proxy
    s = build_scheme("char-binary-intervals")
    states = []
    with mock.patch.object(scheme, "_proxy_probes",
                           side_effect=lambda s, rng: states.append(rng.bit_generator.state) or []):
        validate_scheme(s, 60, 5)
        former_validate(s, 60, 5)
    assert states[0] == states[1]


# -- n-term: one batched fit, the exact fit on a miss ----------------------------------

TRIG_SUP = {"kind": "nterm", "n_max": 3, "label": "trig-nterm-sup",
            "dictionary": {"family": "trig", "levels": 3},
            "space": {"carrier": "grid", "domain": "torus", "nodes": 32, "norm": "sup"}}
NTERMS = {name: build_scheme(desc) for name, desc in [
    ("char-binary-intervals", "char-binary-intervals"), ("haar-wavelet-nterm", "haar-wavelet-nterm"),
    ("orthonormal-nterm", "orthonormal-nterm"), ("trig-nterm-sup", TRIG_SUP)]}
DYADIC = ("char-binary-intervals", "haar-wavelet-nterm")  # atom 2^k - 1 + j covers cell j of level k


def _combination(s, support, rng):
    return s.dictionary.atoms[:, support] @ rng.standard_normal(len(support))


def _family(s, rng) -> np.ndarray:
    """A parent with both of its children: three dependent atoms."""
    levels = int(math.log2(s.dictionary.size + 1))
    k = int(rng.integers(0, levels - 1))
    parent = 2**k - 1 + int(rng.integers(0, 2**k))
    child = 2 * parent + 1
    return np.array([parent, child, child + 1])


def _outside(s, support, rng) -> int:
    """An atom at distance at least 1/2 from the span of `support`."""
    for i in rng.permutation(s.dictionary.size):
        if i not in support and _weighted_l2_fit(
                s.space, s.dictionary.atoms[:, list(support)], s.dictionary.atoms[:, i])[0] >= 0.5:
            return int(i)
    raise AssertionError("no atom outside the span")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NTERMS)), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_nterm_batch_matches_the_former_body(name, level, seed):
    s = NTERMS[name]
    rng = np.random.default_rng(seed)
    level = min(level, s.dictionary.size - 1)
    items = []  # (x, support, member by construction or None)
    for _ in range(3):
        a, support = s.draw(level, rng)
        items.append((float(rng.standard_normal() * 3.0) * a, support, True))
        (b, sb), (c, sc) = s.draw(level // 2, rng), s.draw(level // 2, rng)
        items.append((b + c, np.union1d(sb, sc), True))
    items.append((s.space.zero(), np.array([], dtype=int), True))
    items.append((_combination(s, [0], rng), np.array([], dtype=int), False))
    if level >= 3 and name in DYADIC:
        family = _family(s, rng)
        items.append((_combination(s, family, rng), family, True))
    big = rng.choice(s.dictionary.size, size=min(level + 2, s.dictionary.size), replace=False)
    items.append((_combination(s, big, rng), big, None))  # larger than A_level: by membership
    outsiders = []
    if level >= 1:
        for _ in range(2):
            a, support = s.draw(level, rng)
            bump = s.dictionary.atoms[:, _outside(s, support, rng)]
            outsiders.append(len(items))
            items.append((a / norm(s.space, a) + 1e-6 * bump, support, False))
    xs, supports, _ = zip(*items)
    with mock.patch.object(scheme, "_weighted_l2_fit", wraps=_weighted_l2_fit) as exact:
        got = s.certified_members(list(xs), level, list(supports))
    assert exact.call_count == len(outsiders)  # every member passed the batched fit
    want = [former_certified_member(s, x, level, support) for x, support, _ in items]
    assert got == want
    assert all(got[i] == member for i, (_, _, member) in enumerate(items) if member is not None)


def test_nterm_batch_refuses_a_non_finite_element():
    s = NTERMS["char-binary-intervals"]
    a, support = s.draw(3, np.random.default_rng(0))
    a[5] = np.nan
    with pytest.raises(SpaceError, match="non-finite"):
        s.certified_members([a], 3, [support])


# -- rank: one stacked SVD ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_rank_batch_matches_per_matrix_members(side, level, seed):
    s = build_scheme({"kind": "rank", "space": {"carrier": "matrix", "side": side}})
    rng = np.random.default_rng(seed)
    xs = [s.draw(int(rng.integers(0, side + 1)), rng)[0] for _ in range(6)]
    xs += [xs[0] + xs[1], np.zeros((side, side)), 1e-300 * xs[2]]
    u, v = rng.standard_normal((2, side))
    xs.append(np.outer(u, u) + RANK_SV_CUTOFF * np.outer(v, v))  # near the cutoff
    assert s.certified_members(xs, level, [None] * len(xs)) == [
        former_rank_member(x, level) for x in xs]
    stacked = np.linalg.svd(np.stack(xs), compute_uv=False)
    assert all(np.array_equal(sv, np.linalg.svd(x, compute_uv=False)) for x, sv in zip(xs, stacked))


def test_rank_batch_checks_each_matrix_as_membership_does():
    s = build_scheme("rank-8-hs")
    bad = np.eye(8)
    bad[0, 0] = np.inf
    with pytest.raises(SpaceError, match="non-finite"):
        s.certified_members([np.eye(8), bad], 8, [None, None])
    with pytest.raises(SpaceError, match="shape"):
        s.certified_members([np.eye(7)], 8, [None])
