import math

import numpy as np
import pytest

import lethargy.analyze as analyze
import lethargy.witness as witness
from lethargy.scheme import build_scheme
from lethargy.seq import NullSequence
from lethargy.solve import LP_TOL, BestApprox, _nterm_exhaustive
from lethargy.space import norm
from lethargy.witness import (
    ClaimedBound,
    WitnessError,
    construct_slow_decay,
    pick_separation_level,
    verify_slow_decay,
    verify_witness,
    witness_bv,
    witness_c0,
    witness_haar_bumps,
    witness_orthonormal_nterm,
    witness_quantizer,
    witness_ridge,
    witness_tensor,
    witness_translates,
    witness_wavelet,
)

from conftest import random_nonincreasing


class TestC0Witness:
    def test_dyadic_example(self):
        w = witness_c0(NullSequence(np.array([1.0, 0.5, 0.25, 0.125])))
        assert verify_witness(w)
        by_level = {c.level: c.lower for c in w.claims}
        assert by_level[1] == 0.5
        assert by_level[3] == 0.25

    def test_zero_sequence(self):
        w = witness_c0(NullSequence(np.zeros(5)))
        assert verify_witness(w)
        assert all(v.observed == 0.0 for v in w.verifications)

    def test_random_profile_matches_tail_sup_oracle(self, rng):
        vals = random_nonincreasing(rng, 12)
        w = witness_c0(NullSequence(vals))
        assert verify_witness(w)
        for v in w.verifications:
            if v.level == 0:
                continue
            n = (v.level + 1) // 2
            oracle = float(np.max(vals[n:]))  # independent tail sup
            assert abs(v.observed - oracle) <= 1e-12

    def test_cap_overflow(self):
        with pytest.raises(WitnessError):
            witness_c0(NullSequence(np.ones(8) * 0.5), cap=4)

    def test_false_claim_is_caught(self):
        w = witness_c0(NullSequence(np.array([1.0, 0.5, 0.25])))
        w.claims[1] = ClaimedBound(1, 0.9, "tampered", 0.9)
        assert not verify_witness(w)


class TestQuantizerWitness:
    @pytest.mark.parametrize("m", [1, 4, 64])
    def test_pinched_value(self, m):
        w = witness_quantizer(m)
        assert verify_witness(w)
        observed = w.verifications[0].observed
        assert 1.0 / m - 2e-3 <= observed <= 1.0 / m
        assert w.meta["midpoint_error"] <= 1.0 / m + 1e-15

    def test_norm_one(self):
        w = witness_quantizer(8)
        assert norm(w.space, w.element) == pytest.approx(1.0)


class TestHaarBumps:
    def test_zero_level_mass(self):
        w = witness_haar_bumps(0, 1.0, family="poly", n_attempts=5, seed=0)
        zero_attempt = [a for a in w.attempts if a.label == "zero-member"][0]
        assert zero_attempt.value > 4.0 / 5.0 - 1e-9
        assert verify_witness(w)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_poly_family_level_3(self, p):
        w = witness_haar_bumps(3, p, family="poly", n_attempts=25, seed=1)
        assert verify_witness(w)
        assert min(a.value for a in w.attempts) > 1.0 / 5.0

    def test_trig_family_projection(self):
        w = witness_haar_bumps(2, 2.0, family="trig", n_attempts=15, seed=2)
        assert verify_witness(w)
        exact = [a for a in w.attempts if a.label == "exact-l2-projection"][0]
        assert exact.value > 1.0 / 5.0

    def test_p_between_one_and_two_logs_an_irls_attempt(self):
        w = witness_haar_bumps(2, 1.5, family="poly", n_attempts=5, seed=0)
        assert verify_witness(w)
        assert [a.label for a in w.attempts].count("irls-local-minimum") == 1

    def test_coarse_grid_rejected(self):
        with pytest.raises(WitnessError, match="2049 nodes cannot host 260 bump cells"):
            witness_haar_bumps(64, 1.0, family="poly")


class TestBVWitness:
    def test_unit_variation_and_zero_member(self):
        w = witness_bv(1, n_attempts=5, seed=3)
        assert abs(w.meta["variation"] - 1.0) <= 1e-3
        zero_attempt = [a for a in w.attempts if a.label == "zero-member"][0]
        assert zero_attempt.value >= 1.0 - 1e-3
        assert verify_witness(w)

    def test_two_term_attempts(self):
        w = witness_bv(2, n_attempts=8, seed=4)
        assert verify_witness(w)
        assert min(a.value for a in w.attempts) >= 1.0 / 3.0

    def test_under_resolved_grid(self):
        with pytest.raises(WitnessError, match="under-resolves frequency 24"):
            witness_bv(4)  # on its 2048 torus nodes


class TestRidgeWitness:
    def test_coefficients_and_zero_bound(self):
        w = witness_ridge(2, n_starts=6, seed=5)
        coeffs = np.asarray(w.meta["coefficients"])
        assert np.allclose(coeffs, [(-1.0) ** k / 4.0 for k in range(1, 5)], atol=1e-12)
        zero_attempt = [a for a in w.attempts if a.label == "zero-member"][0]
        assert zero_attempt.value >= 1.0 / 4.0
        assert verify_witness(w)

    def test_multi_start_never_beats_bound(self):
        w = witness_ridge(3, n_starts=12, seed=6)
        assert verify_witness(w)
        assert min(a.value for a in w.attempts) >= 1.0 / 9.0

    def test_under_resolved(self):
        with pytest.raises(WitnessError, match="under-resolves frequency 144"):
            witness_ridge(12)  # its 1024 torus nodes are fewer than 8 n^2


class TestOrthonormalWitness:
    def test_exhaustive_oracle_n3_d8(self):
        w = witness_orthonormal_nterm(3, 8)
        assert verify_witness(w)
        res = _nterm_exhaustive(w.scheme.space, w.scheme.dictionary.atoms, w.element, 2)
        assert res.status == "exact"
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_level_one_is_norm(self):
        w = witness_orthonormal_nterm(1, 6)
        assert verify_witness(w)
        assert w.verifications[0].observed == pytest.approx(1.0, abs=1e-12)

    def test_n5_d10(self):
        w = witness_orthonormal_nterm(5, 10)
        assert verify_witness(w)
        assert w.verifications[0].observed == pytest.approx(0.2, abs=1e-12)
        assert 0.2 > 1.0 / 10.0  # comfortably above the coarse bound

    def test_dimension_too_small(self):
        with pytest.raises(WitnessError):
            witness_orthonormal_nterm(5, 3)


class TestWaveletWitness:
    def test_level_zero_trivial(self):
        w = witness_wavelet(0, seed=1)
        assert verify_witness(w)
        assert min(a.value for a in w.attempts) == pytest.approx(1.0, abs=1e-12)

    def test_level_one_exhaustive(self):
        w = witness_wavelet(1, seed=1)
        assert verify_witness(w)
        assert w.meta["measured_leakage"] <= w.meta["target"]
        assert min(a.value for a in w.attempts) >= 1.0 / (8.0 * math.sqrt(2.0))

    def test_level_two_pairs(self):
        w = witness_wavelet(2, seed=1, n_attempts=40)
        assert verify_witness(w)
        assert min(a.value for a in w.attempts) >= 1.0 / (8.0 * math.sqrt(3.0))

    def test_depth_overflow(self):
        with pytest.raises(WitnessError):
            witness_wavelet(3, seed=1)

    def test_separation_level_monotone_target(self):
        n1, _ = pick_separation_level(1, 1.0 / (8 * math.sqrt(2)))
        n2, _ = pick_separation_level(2, 1.0 / (8 * math.sqrt(3)))
        assert n2 >= n1


class TestTranslatesWitness:
    def test_block_bound_p1(self):
        w = witness_translates(2, 10, 1.0, n_trials=60, seed=7)
        assert w.claims[0].lower == pytest.approx(0.8)
        assert w.meta["min_untouched_blocks"] >= 8
        assert verify_witness(w)

    def test_level_zero_norm(self):
        w = witness_translates(0, 6, 1.0, n_trials=10, seed=8)
        assert w.claims[0].lower == pytest.approx(1.0)
        assert norm(w.space, w.element) == pytest.approx(1.0, abs=1e-12)

    def test_p2_randomized(self):
        w = witness_translates(3, 8, 2.0, n_trials=100, seed=9)
        assert verify_witness(w)
        bound = math.sqrt(5.0 / 8.0)
        assert min(a.value for a in w.attempts) >= bound - 1e-9

    def test_m_not_exceeding_n(self):
        with pytest.raises(WitnessError):
            witness_translates(5, 5, 1.0)


class TestTensorWitness:
    def test_hs_values_exact(self):
        w = witness_tensor(4, "hs")
        assert verify_witness(w)
        for v, k in zip(w.verifications, range(4)):
            assert v.observed == pytest.approx(math.sqrt(4 - k) / 4.0, abs=1e-12)
        top = [v for v in w.verifications if v.level == 3][0]
        assert top.observed == pytest.approx(0.25, abs=1e-12)
        assert top.observed >= 1.0 / 16.0  # coarse cross-norm floor

    def test_operator_values(self):
        w = witness_tensor(6, "operator")
        assert verify_witness(w)
        assert all(v.observed == pytest.approx(1.0 / 6.0, abs=1e-12) for v in w.verifications)

    def test_n1_norm(self):
        w = witness_tensor(1, "hs")
        assert verify_witness(w)
        assert w.verifications[0].observed == pytest.approx(norm(w.space, w.element))


class TestWitnessBundles:
    def test_json_bundle_carries_log_and_seeds(self):
        w = witness_ridge(2, n_starts=3, seed=5)
        verify_witness(w)
        d = w.to_json()
        assert {"element", "claims", "attempts", "verifications", "seed", "meta"} <= set(d)
        assert d["seed"] == 5
        assert "element_imag" in d  # complex carrier round-trips both parts
        assert len(d["attempts"]) == len(w.attempts)

    def test_solver_witness_bundle_has_scheme(self):
        w = witness_orthonormal_nterm(2, 6)
        verify_witness(w)
        d = w.to_json()
        assert d["scheme"]["kind"] == "nterm"
        assert d["verifications"][0]["mode"] == "solver"


class TestSlowDecay:
    def test_monomial_chain_harmonic(self):
        s = build_scheme({"kind": "chain", "family": "monomial", "n_max": 14,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 513, "norm": "sup"}})
        w = construct_slow_decay(s, NullSequence.harmonic(16), 8, rng_seed=11)
        assert verify_slow_decay(w)
        assert not w.meta["halted"]
        for v in w.verifications:
            assert v.observed > 0

    def test_interleaved_geometric(self, small_interleaved):
        s = small_interleaved
        w = construct_slow_decay(s, NullSequence.geometric(0.5, 2 * s.cap), 6, rng_seed=3)
        assert verify_slow_decay(w)
        # at a rung's base level the NEXT rung's step certifies positivity:
        # E(x, A_base) > quality_{j+1} * delta_{j+1} / 3
        ladder = w.meta["ladder"]
        observed = {v.level: v.observed for v in w.verifications}
        bases = [0] + [step["level"] for step in ladder[:-1]]
        for base, nxt in zip(bases, ladder):
            if base in observed:
                floor = nxt["direction_quality"] * nxt["delta"] / 3.0
                assert observed[base] > floor - 1e-12

    def test_constant_envelope_degenerates_gracefully(self, small_interleaved):
        eps = NullSequence(np.full(30, 5.0))
        w = construct_slow_decay(small_interleaved, eps, 4, rng_seed=1)
        assert verify_slow_decay(w)

    def test_short_eps_window_reports_partial(self, small_interleaved):
        w = construct_slow_decay(small_interleaved, NullSequence.harmonic(3), 8, rng_seed=1)
        assert w.meta["halted"]

    def test_no_certified_direction_halts(self):
        # rank-8-hs: the gap map reaches level 8, the whole space, and no
        # source level lies above it
        s = build_scheme("rank-8-hs")
        w = construct_slow_decay(s, NullSequence.harmonic(12), 8, rng_seed=2)
        assert w.meta["halted"] == "no certified direction for level 8"
        assert verify_slow_decay(w)

    @pytest.mark.parametrize("name", ["monomial-chain", "trig-chain"])
    def test_incumbents_leave_the_ladder_unchanged(self, name, monkeypatch):
        s = build_scheme(name)
        solve_with, incumbents = analyze.best_approx, []

        def full_solve(*args, incumbent, **kwargs):
            return solve_with(*args, **kwargs)

        def recorded(*args, incumbent, **kwargs):
            incumbents.append(incumbent)
            return solve_with(*args, incumbent=incumbent, **kwargs)

        for seed in range(3):
            ladders = []
            for search in (recorded, full_solve):
                monkeypatch.setattr(analyze, "best_approx", search)
                w = construct_slow_decay(s, NullSequence.harmonic(12), 8, rng_seed=seed)
                ladders.append((w.element.tobytes(), w.meta))
            assert ladders[0] == ladders[1], seed
        if name == "monomial-chain":
            # one candidate per source, the next Chebyshev column, which is
            # farther than 0.2 from the level it serves: no incumbent is passed
            assert set(incumbents) == {-math.inf}
        else:
            assert max(incumbents) > 0.2  # later candidates met the best so far

    @pytest.mark.parametrize("margin,winner", [(0.5, 0), (2.0, 1)])
    def test_a_tie_within_tol_keeps_the_first_direction(self, margin, winner, monkeypatch):
        # one candidate at source 1 and one at source 2, both below the 0.2
        # that ends the search: the later one wins only when farther by more
        # than its tol, and its search starts from the first as incumbent
        s = build_scheme("rank-8-operator")
        pool, values = [np.eye(8), np.eye(8)], [0.1, 0.1 + margin * LP_TOL]
        pools = iter([[pool[0]], [pool[1]]])
        answers, incumbents = iter([BestApprox(v, None, v) for v in values]), []

        def scripted(*args, incumbent, **kwargs):
            incumbents.append(incumbent)
            return next(answers)

        monkeypatch.setattr(witness, "gap_candidates", lambda *args, **kwargs: next(pools, []))
        monkeypatch.setattr(analyze, "best_approx", scripted)
        element, source, quality = witness._ladder_direction(s, 0, np.random.default_rng(0))
        assert (element is pool[winner], source, quality) == (True, winner + 1, values[winner])
        assert incumbents == [-math.inf, 0.1]
