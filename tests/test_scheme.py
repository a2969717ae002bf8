import dataclasses

import numpy as np
import pytest

from lethargy.analyze import density_lower_bound
from lethargy.scheme import (
    Dictionary,
    SchemeError,
    build_scheme,
    build_space,
    density_candidates,
    distinct_value_count,
    gap_candidates,
    haar_scaling_atoms,
    list_schemes,
    make_dictionary,
    membership,
    named_probes,
    probe_elements,
    registry_descriptor,
    sample_element,
    validate_scheme,
)
from lethargy.solve import _is_l2, best_approx
from lethargy.space import norm


def _arrays(node, seen: set):
    """Every ndarray reachable from node through dataclass fields, dicts,
    lists and tuples."""
    if id(node) in seen:
        return
    seen.add(id(node))
    if isinstance(node, np.ndarray):
        yield node
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _arrays(getattr(node, f.name), seen)
    elif isinstance(node, (dict, list, tuple)):
        for v in node.values() if isinstance(node, dict) else node:
            yield from _arrays(v, seen)


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


    @pytest.mark.parametrize("norm_kind", ["lp", "sup"])
    def test_chain_family_defaults_to_monomial(self, norm_kind):
        # a chain without "family" is the monomial chain for every candidate
        # rule, threshold and certificate, not only for its basis
        space = {"carrier": "grid", "domain": "interval", "nodes": 65, "norm": norm_kind,
                 **({"p": 2.0} if norm_kind == "lp" else {})}
        bare = build_scheme({"kind": "chain", "n_max": 10, "space": space})
        named = build_scheme({"kind": "chain", "family": "monomial", "n_max": 10, "space": space})
        assert bare.family == named.family == "monomial"
        assert bare.density_threshold() == named.density_threshold() == 1e-3
        for n in (3, 9):
            for pick in (gap_candidates, density_candidates):
                got = pick(bare, n, np.random.default_rng(n))
                want = pick(named, n, np.random.default_rng(n))
                assert len(got) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            cert, ref = density_lower_bound(bare, n), density_lower_bound(named, n)
            assert cert.to_json(with_element=True) == ref.to_json(with_element=True)

    def test_wavelet_descriptor_builds_an_nterm_scheme(self):
        s = build_scheme("haar-wavelet-nterm")
        assert s.kind == "nterm"
        assert s.label == "haar-wavelet-nterm"
        assert s.dictionary.label == "haar-scaling"
        assert s.descriptor["kind"] == "wavelet-haar"
        assert build_scheme({"kind": "wavelet-haar", "level": 4, "n_max": 3}).label == "wavelet-haar"

    @pytest.mark.parametrize("name", list_schemes())
    def test_every_array_of_a_scheme_is_read_only(self, name):
        # tasks share the last scheme built, so no caller may write into it
        s = build_scheme(name)
        if s.kind == "chain" and s.space.norm_kind == "sup":  # fill one screen Gram
            x = np.random.default_rng(0).standard_normal(s.space.shape)
            best_approx(s.space, x, s, 2, incumbent=2.0 * np.max(np.abs(x)))
            assert s.screen_grams
        arrays = list(_arrays(s, set()))
        assert arrays
        assert not [a.shape for a in arrays if a.flags.writeable]


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


def _char_loop(space, depth):
    """The former char-binary-intervals build: one indicator and one `norm` per
    interval; None where an interval holds no node (the build refuses it)."""
    g = space.grid
    cols = []
    for k in range(depth + 1):
        for j in range(2**k):
            lo = g.a + (g.b - g.a) * j / 2**k
            hi = g.a + (g.b - g.a) * (j + 1) / 2**k
            atom = ((g.nodes >= lo) & (g.nodes < hi)).astype(float)
            nj = norm(space, atom)
            if nj == 0:
                return None
            cols.append(atom / nj)
    return np.column_stack(cols)


def _haar_loop(cells, idx):
    """The former haar-scaling build: one column per atom (k, j)."""
    cols = []
    for k, j in idx:
        col = np.zeros(cells)
        width = cells >> k
        col[j * width:(j + 1) * width] = 2.0 ** (k / 2.0)
        cols.append(col)
    return np.column_stack(cols)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDyadicBuilds:
    """The one-scatter-per-level dyadic builds against the per-atom loops, bit for bit."""

    @pytest.mark.parametrize("domain", ["interval", "interval-cells"])
    @pytest.mark.parametrize("nodes", [100, 1024, 2049])
    def test_char_intervals_match_the_loop(self, domain, nodes):
        for p in (2.0, 1.5):
            for depth in range(8):
                s_desc = {"carrier": "grid", "domain": domain, "nodes": nodes, "norm": "lp", "p": p}
                desc = {"kind": "nterm", "n_max": 2, "space": s_desc,
                        "dictionary": {"family": "char-binary-intervals", "depth": depth}}
                expected = _char_loop(build_space(s_desc), depth)
                if expected is None:
                    with pytest.raises(SchemeError, match="zero norm"):
                        build_scheme(desc)
                else:
                    assert _same_bits(build_scheme(desc).dictionary.atoms, expected), (p, depth)

    @pytest.mark.parametrize("level,max_level,budget", [
        (9, 9, None), (6, 6, 40), (6, 6, 1), (5, 3, None), (7, 4, 20), (4, 9, None), (3, 3, 0)])
    def test_haar_wavelet_matches_the_loop(self, level, max_level, budget):
        s = build_scheme({"kind": "wavelet-haar", "level": level, "max_level": max_level,
                          "budget": budget, "n_max": 1})
        idx = haar_scaling_atoms(2**level, max_level, budget)
        assert _same_bits(s.dictionary.atoms, _haar_loop(2**level, idx))

    @pytest.mark.parametrize("nodes,budget", [(100, None), (100, 50), (1024, 300), (2049, None)])
    def test_haar_scaling_on_any_grid_matches_the_loop(self, nodes, budget):
        s = build_scheme({"kind": "nterm", "n_max": 1,
                          "dictionary": {"family": "haar-scaling", "max_level": 8, "budget": budget},
                          "space": {"carrier": "grid", "domain": "interval-cells", "nodes": nodes,
                                    "norm": "lp", "p": 2.0}})
        idx = haar_scaling_atoms(nodes, 8, budget)
        assert _same_bits(s.dictionary.atoms, _haar_loop(nodes, idx))


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

    def test_density_proxy_without_a_solver_reads_inf_and_fails(self):
        # p < 1: every probe solve at n_max raises NoSolverError
        s = build_scheme({"kind": "nterm", "n_max": 3,
                          "dictionary": {"family": "monomial", "count": 4},
                          "space": {"carrier": "grid", "nodes": 17, "norm": "lp", "p": 0.5}})
        report = validate_scheme(s, trials=40, rng_seed=3)
        proxy = [c for c in report.checks if c.name == "density-proxy"][0]
        assert (proxy.passed, proxy.trials, proxy.failures) == (False, 1, 1)
        assert proxy.note.startswith("max probe error inf vs threshold")
        assert not report.passed

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

    @pytest.mark.parametrize("desc", [
        "monomial-chain", "monomial-chain-l2", "trig-chain",
        {"kind": "chain", "family": "coordinate", "n_max": 5,
         "space": {"carrier": "coords", "dim": 8, "norm": "sup"}},
        {"kind": "chain", "family": "monomial", "n_max": 4,
         "space": {"carrier": "grid", "nodes": 129, "norm": "lp", "p": 1.0}},
    ], ids=["monomial-chain", "monomial-chain-l2", "trig-chain", "coordinate-sup", "monomial-l1"])
    def test_chain_gap_candidates_are_distinct_directions(self, desc):
        # one candidate per direction: a one-column increment gives the next
        # direction alone, and on L2 grids that direction is orthonormal to A_n
        s = build_scheme(desc)
        for n in range(s.n_max):
            cands = gap_candidates(s, n, np.random.default_rng(n), count=4)
            for i, a in enumerate(cands):
                assert membership(s, a, n + 1), (n, i)
                for b in cands[:i]:
                    assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) > 1e-8, (n, i)
            if s.space.carrier == "grid" and _is_l2(s.space):
                res = best_approx(s.space, cands[0], s, n)
                assert res.value == pytest.approx(1.0, abs=res.tol), n
