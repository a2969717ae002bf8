import dataclasses

import numpy as np
import pytest

from lethargy.scheme import (
    Dictionary,
    SchemeError,
    build_scheme,
    distinct_value_count,
    gap_candidates,
    list_schemes,
    make_dictionary,
    membership,
    named_probes,
    probe_elements,
    registry_descriptor,
    sample_element,
    validate_scheme,
)
from lethargy.solve import best_approx
from lethargy.space import norm


class TestBuild:
    def test_monomial_chain_gap_is_identity(self, small_monomial_chain):
        s = small_monomial_chain
        assert s.gap_values() == list(range(s.n_max + 1))
        assert s.chain_dim(3) == 4

    def test_interleaved_levels_alternate(self, small_interleaved):
        s = small_interleaved
        # A_1 = span of the first coordinate; A_2 adds a constrained coordinate
        e1 = np.zeros(s.cap)
        e1[0] = 2.0
        assert membership(s, e1, 1)
        x = np.zeros(s.cap)
        x[0], x[1] = 1.0, 0.4  # within the 1/2 coordinate cap
        assert membership(s, x, 2)
        assert not membership(s, x, 1)
        x[1] = 0.9  # violates the constrained-coordinate bound
        assert not membership(s, x, 2)
        assert membership(s, x, 3)
        assert s.gap_values()[:4] == [1, 2, 3, 4]

    def test_interleaved_cross_level_additivity(self, small_interleaved, rng):
        # sums across different levels land one level above the larger one
        s = small_interleaved
        for _ in range(40):
            n, m = sorted(rng.integers(0, s.n_max - 1, size=2))
            a = sample_element(s, int(n), rng)
            b = sample_element(s, int(m), rng)
            assert membership(s, a + b, int(m) + 1)

    def test_rank_scheme(self):
        s = build_scheme({"kind": "rank", "n_max": 8,
                          "space": {"carrier": "matrix", "side": 8, "norm": "hs"}})
        assert s.K(3) == 6
        m = np.outer(np.arange(8.0), np.ones(8))
        assert membership(s, m, 1)
        assert not membership(s, np.eye(8), 7)

    def test_quantizer_gap_documented_by_budget_square(self):
        m = [n + 1 for n in range(20)]
        s = build_scheme({"kind": "quantizer", "m": m,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 65, "norm": "sup"}})
        # K(n) = first level whose budget reaches m(n)^2
        assert s.K(2) == 8  # m=3 -> need 9 values -> level 8
        assert s.K(0) == 0
        assert s.K(10) is None  # 121 values never reached in the window

    def test_invalid_descriptors(self):
        with pytest.raises(SchemeError):
            build_scheme({"kind": "nonsense"})
        with pytest.raises(SchemeError):
            build_scheme({"kind": "quantizer", "m": [3, 2],
                          "space": {"carrier": "grid", "nodes": 33, "norm": "sup"}})
        with pytest.raises(SchemeError):
            build_scheme({"kind": "quantizer", "m": [0],
                          "space": {"carrier": "grid", "nodes": 33, "norm": "sup"}})
        with pytest.raises(SchemeError):
            build_scheme({"kind": "interleaved-c0", "cap": 1})
        with pytest.raises(SchemeError):
            build_scheme({"kind": "spline", "degree": 9, "n_max": 2,
                          "space": {"carrier": "grid", "nodes": 33, "norm": "lp", "p": 2.0}})

    def test_registry_names_resolve(self):
        for name in list_schemes():
            s = build_scheme(name)
            assert s.n_max >= 1
        with pytest.raises(SchemeError):
            registry_descriptor("no-such-scheme")


    def test_wavelet_descriptor_builds_an_nterm_scheme(self):
        s = build_scheme("haar-wavelet-nterm")
        assert s.kind == "nterm"
        assert s.label == "haar-wavelet-nterm"
        assert s.dictionary.label == "haar-scaling"
        assert s.descriptor["kind"] == "wavelet-haar"
        assert build_scheme({"kind": "wavelet-haar", "level": 4, "n_max": 3}).label == "wavelet-haar"


class TestProbes:
    @pytest.mark.parametrize("name", ["monomial-chain", "interleaved-c0", "rank-8-hs"])
    def test_probe_elements_are_the_named_probes_then_draws(self, name):
        s = build_scheme(name)
        out = probe_elements(s, np.random.default_rng(3), count=2)
        rng = np.random.default_rng(3)
        named = list(named_probes(s.space).values())
        draws = [rng.standard_normal(s.space.shape) for _ in range(2)]
        assert len(out) == len(named) + 2
        for got, x in zip(out, named + draws):
            assert np.array_equal(got, x / max(norm(s.space, x), 1e-30))

    def test_named_probe_order_per_carrier(self):
        assert list(named_probes(build_scheme("monomial-chain").space)) == \
            ["smooth-mix", "runge", "abs-kink"]
        assert list(named_probes(build_scheme("interleaved-c0").space)) == ["flat", "decay"]
        assert list(named_probes(build_scheme("rank-8-hs").space)) == ["identity"]


class TestDictionary:
    def test_zero_atom_rejected(self):
        with pytest.raises(SchemeError):
            Dictionary(np.column_stack([np.ones(4), np.zeros(4)]), "bad")

    def test_normalization(self):
        from lethargy.space import Space

        sp = Space.coords(3, 2.0)
        d = make_dictionary(sp, np.column_stack([3.0 * np.eye(3)[:, 0], np.eye(3)[:, 1]]), "t")
        assert norm(sp, d.atoms[:, 0]) == pytest.approx(1.0)


class TestMembership:
    def test_membership_consistent_with_solver(self, small_monomial_chain, rng):
        s = small_monomial_chain
        for n in (0, 2, 5):
            a = sample_element(s, n, rng)
            assert membership(s, a, n)
            assert best_approx(s.space, a, s, n).value <= 1e-9 * max(1.0, norm(s.space, a))

    def test_distinct_value_count_merging(self):
        x = np.array([1.0, 1.0 + 1e-14, 2.0, 2.0, 3.0])
        assert distinct_value_count(x) == 3


class TestValidate:
    @pytest.mark.parametrize("name", ["interleaved-c0", "rank-8-hs", "orthonormal-nterm",
                                      "char-binary-intervals", "haar-wavelet-nterm",
                                      "trig-chain"])
    def test_registry_instances_pass(self, name):
        s = build_scheme(name)
        report = validate_scheme(s, trials=120, rng_seed=3)
        assert report.passed, report.to_json()

    def test_monomial_chain_density_proxy(self):
        s = build_scheme({"kind": "chain", "family": "monomial", "n_max": 10,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 513, "norm": "sup"}})
        report = validate_scheme(s, trials=60, rng_seed=3)
        assert report.passed
        proxy = [c for c in report.checks if c.name == "density-proxy"][0]
        assert "e-0" in proxy.note or "e-1" in proxy.note  # well below 1e-3

    def test_corrupted_gap_map_fails_additivity(self):
        s = build_scheme({"kind": "nterm", "n_max": 4,
                          "dictionary": {"family": "orthonormal"},
                          "space": {"carrier": "coords", "dim": 16, "norm": "lp", "p": 2.0}})
        bad = dataclasses.replace(s, gap=np.arange(s.n_max + 1))
        report = validate_scheme(bad, trials=60, rng_seed=3)
        additivity = [c for c in report.checks if c.name == "additivity"][0]
        assert not additivity.passed
        assert additivity.failures > 0

    def test_quantizer_growing_budget(self):
        s = build_scheme({"kind": "quantizer", "m": [n + 1 for n in range(8)],
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 257, "norm": "sup"}})
        report = validate_scheme(s, trials=80, rng_seed=3)
        assert report.passed
        homog = [c for c in report.checks if c.name == "homogeneity"][0]
        assert homog.failures == 0

    def test_report_json_shape(self, small_interleaved):
        report = validate_scheme(small_interleaved, trials=40, rng_seed=1)
        d = report.to_json()
        assert {"scheme", "passed", "gap_map", "checks"} <= set(d)


class TestSamplers:
    @pytest.mark.parametrize("name", ["interleaved-c0", "rank-8-hs", "orthonormal-nterm",
                                      "free-knot-spline", "quantizer-linear"])
    def test_samples_are_members(self, name, rng):
        s = build_scheme(name)
        for n in (0, 1, min(3, s.n_max)):
            a = sample_element(s, n, rng)
            assert membership(s, a, n)

    def test_gap_candidates_are_next_level_members(self, small_monomial_chain, rng):
        s = small_monomial_chain
        for cand in gap_candidates(s, 2, rng, count=2):
            assert membership(s, cand, 3)
            assert norm(s.space, cand) == pytest.approx(1.0, rel=1e-9)
