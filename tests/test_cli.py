import base64
import copy
import functools
import json
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from by_path import load_by_path
from lethargy import analyze, cli, scheme
from lethargy import witness as wit
from lethargy.cli import (REL_TOL, TABLE, TASKS, UsageError, canonical_json, check_config,
                          config_hash, encode_element, main, make_element, replay_report,
                          run_task)
from lethargy.scheme import SchemeError, build_scheme, build_space, list_schemes, named_probes
from lethargy.seq import NullSequence
from lethargy.solve import NoSolverError, SolverError
from lethargy.space import SpaceError


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


C0_CONFIG = {"task": "witness", "seed": 7,
             "params": {"op": "c0", "eps": [1.0, 0.5, 0.25, 0.125]}}

SMALL_CHAIN = {"kind": "chain", "family": "monomial", "n_max": 6,
               "space": {"carrier": "grid", "domain": "interval", "nodes": 65, "norm": "sup"}}
# one small config per task, each run in a few milliseconds
SMALL = {
    "validate": {"task": "validate", "seed": 4, "scheme": "interleaved-c0",
                 "params": {"trials": 20}},
    "profile": {"task": "profile", "seed": 2, "scheme": "interleaved-c0",
                "params": {"n_max": 5, "element": "decay"}},
    "witness": {"task": "witness", "seed": 11, "params": {"op": "orthonormal", "n": 3, "dim": 8}},
    "density": {"task": "density", "seed": 5, "scheme": "interleaved-c0",
                "params": {"levels": [0, 2]}},
    "shapiro": {"task": "shapiro", "seed": 3, "params": {"probes": 2},
                "scheme": {"kind": "quantizer", "m": [1, 1, 2, 3, 4],
                           "space": {"carrier": "grid", "domain": "interval",
                                     "nodes": 65, "norm": "sup"}}},
    "audit": {"task": "audit", "seed": 6,
              "params": {"audit": "dolzhenko", "samples": 20, "max_degree": 3}},
    "slowdecay": {"task": "slowdecay", "seed": 8, "params": {"i_max": 3}, "scheme": SMALL_CHAIN},
}
# a constant-only chain cannot approximate the density probes
UNVERIFIED_VALIDATE = {"task": "validate", "seed": 3, "params": {"trials": 20},
                       "scheme": {"kind": "chain", "family": "monomial", "n_max": 0,
                                  "space": {"carrier": "grid", "domain": "interval",
                                            "nodes": 65, "norm": "sup"}}}


class TestRun:
    def test_witness_run_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, C0_CONFIG)
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verified"]
        assert report["version"] == cli.REPORT_VERSION
        assert report["seed"] == 7
        assert report["config_hash"] == config_hash(report["config"])
        assert report["payload"]["verifications"]

    def test_byte_stability_modulo_timestamp(self):
        a = run_task(dict(C0_CONFIG))
        b = run_task(dict(C0_CONFIG))
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_usage_error_missing_n_max(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "profile", "seed": 1,
                                      "scheme": "interleaved-c0", "params": {}})
        assert main(["run", "--config", cfg]) == 1
        assert "n_max" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        # SolverError: the profile asks for a level beyond the scheme window
        {"task": "profile", "scheme": "monomial-chain", "params": {"n_max": 13}},
        # NoSolverError: a linear chain in L_p with p < 1 has no solver
        {"task": "slowdecay", "seed": 1, "params": {"i_max": 2},
         "scheme": {"kind": "chain", "family": "monomial", "n_max": 4,
                    "space": {"carrier": "grid", "domain": "interval", "nodes": 33,
                              "norm": "lp", "p": 0.5}}},
    ], ids=["solver-error", "no-solver-error"])
    def test_solver_errors_exit_1_without_traceback(self, tmp_path, capsys, config):
        with pytest.raises((SolverError, NoSolverError)) as raised:
            run_task(copy.deepcopy(config))
        message = str(raised.value)
        cfg = write_config(tmp_path, config)
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n" and "Traceback" not in err
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"version": cli.REPORT_VERSION, "config": config,
                                      "config_hash": config_hash(config)}))
        assert main(["replay", str(report)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_task(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "dance", "seed": 1})
        assert main(["run", "--config", cfg]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["run", "--config", cfg]) == 1
        assert "JSON object" in capsys.readouterr().err
        assert main(["run", "--config", cfg, "--set", "params.n_max=3"]) == 1

    def test_set_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "profile", "seed": 1,
                                      "scheme": "interleaved-c0",
                                      "params": {"n_max": 4, "element": "decay"}})
        out = tmp_path / "r.json"
        assert main(["run", "--config", cfg, "--set", "params.n_max=8",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["payload"]["entries"]) == 9
        # a value that is not JSON is taken as a string
        assert main(["run", "--config", cfg, "--set", "params.element=flat",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["params"]["element"] == "flat"

    def test_set_without_a_value_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, C0_CONFIG)
        assert main(["run", "--config", cfg, "--set", "seed"]) == 1
        assert capsys.readouterr().err == "error: --set needs KEY=VALUE, got 'seed'\n"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().out.startswith("usage: lethargy")

    def test_an_unverified_report_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "--config", write_config(tmp_path, UNVERIFIED_VALIDATE),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "verification failure\n"
        assert not json.loads(out.read_text())["verified"]

    def test_profile_csv_and_plot_outputs(self, tmp_path):
        csv_path = tmp_path / "prof.csv"
        plot_path = tmp_path / "prof.dat"
        cfg = {"task": "profile", "seed": 2, "scheme": "interleaved-c0",
               "params": {"n_max": 6, "element": "decay"},
               "csv": str(csv_path), "plot_data": str(plot_path)}
        report = run_task(cfg)
        assert report["verified"]
        assert csv_path.read_text().startswith("n,value,status")
        assert len(plot_path.read_text().strip().splitlines()) == 7

    def test_shapiro_quantizer_envelope_csv(self, tmp_path):
        csv_path = tmp_path / "env.csv"
        cfg = {"task": "shapiro", "seed": 3, "csv": str(csv_path),
               "scheme": {"kind": "quantizer", "m": [1, 1, 2, 3, 4],
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 257, "norm": "sup"}}}
        report = run_task(cfg)
        assert report["payload"]["verdict"] == "Shapiro-fails"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,envelope"
        assert len(lines) == 6

    def test_density_csv_rows_match_the_certificates(self, tmp_path):
        csv_path = tmp_path / "density.csv"
        report = run_task({"task": "density", "seed": 5, "scheme": "char-binary-intervals",
                           "params": {"levels": [0, 3]}, "csv": str(csv_path)})
        header, *rows = csv_path.read_text().strip().splitlines()
        assert header == "n,bound,status"
        certs = report["payload"]["certificates"]
        assert [row.split(",") for row in rows] == [
            [str(c["level"]), repr(c["bound"]), c["status"]] for c in certs]

    def test_validate_task(self):
        report = run_task({"task": "validate", "seed": 4, "scheme": "interleaved-c0",
                           "params": {"trials": 60}})
        assert report["verified"]

    def test_density_task(self):
        report = run_task({"task": "density", "seed": 5, "scheme": "interleaved-c0",
                           "params": {"levels": [0, 2, 4]}})
        certs = report["payload"]["certificates"]
        assert len(certs) == 3
        assert all(c["status"] == "exact" for c in certs)

    def test_audit_task_dolzhenko(self):
        report = run_task({"task": "audit", "seed": 6,
                           "params": {"audit": "dolzhenko", "samples": 100}})
        assert report["verified"]

    def test_slowdecay_task(self):
        report = run_task({"task": "slowdecay", "seed": 8,
                           "scheme": {"kind": "chain", "family": "monomial", "n_max": 10,
                                      "space": {"carrier": "grid", "domain": "interval",
                                                "nodes": 257, "norm": "sup"}},
                           "params": {"i_max": 5}})
        assert report["verified"]
        assert report["payload"]["meta"]["ladder"]


    @pytest.mark.parametrize("name", ["monomial-chain", "interleaved-c0", "rank-8-hs"])
    def test_make_element_looks_up_the_probe_table(self, name):
        space = build_scheme(name).space
        rng = np.random.default_rng(0)
        for probe, x in named_probes(space).items():
            assert np.array_equal(make_element(space, probe, rng), x)
            assert np.array_equal(make_element(space, {"probe": probe}, rng), x)
        assert np.array_equal(make_element(space, "random", np.random.default_rng(1)),
                              np.random.default_rng(1).standard_normal(space.shape))
        with pytest.raises(UsageError):
            make_element(space, "no-such-probe", rng)

    def test_make_element_probe_values(self):
        space = build_scheme({"kind": "chain", "family": "monomial", "n_max": 2,
                              "space": {"carrier": "grid", "domain": "interval",
                                        "a": -1.0, "b": 1.0, "nodes": 5, "norm": "sup"}}).space
        t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(make_element(space, "runge", None),
                           1.0 / (1.0 + 25.0 * (2.0 * t - 1.0) ** 2), rtol=0, atol=1e-15)
        assert np.allclose(make_element(space, "abs-kink", None), np.abs(t - 0.5),
                           rtol=0, atol=1e-15)
        coords = build_scheme("interleaved-c0").space
        assert np.array_equal(make_element(coords, "decay", None), 1.0 / np.arange(1, 21))
        assert np.array_equal(make_element(coords, "flat", None), np.ones(20))
        matrix = build_scheme("rank-8-hs").space
        assert np.array_equal(make_element(matrix, "identity", None), np.eye(8) / 8)

    def test_profile_verification_is_relative_to_the_element(self):
        # 1e6 T_3(2t - 1) lies in A_3 of monomial-chain: every entry is exact,
        # and the values of the member levels differ by rounding of its size
        t = np.linspace(0.0, 1.0, 2049)
        x = 1e6 * np.polynomial.chebyshev.chebval(2.0 * t - 1.0, [0, 0, 0, 1])
        verified = []
        for k in (-40, 0, 40):
            report = run_task(_values_profile(np.ldexp(x, k).tolist(), "monomial-chain", n_max=12))
            assert {e["status"] for e in report["payload"]["entries"]} == {"exact"}
            verified.append(report["verified"])
        assert verified == [True, True, True]

    @pytest.mark.parametrize("task", TASKS)
    def test_run_task_leaves_config_unchanged(self, task):
        config = copy.deepcopy(SMALL[task])
        snapshot = copy.deepcopy(config)
        run_task(config)
        assert config == snapshot


class TestReplay:
    def test_fresh_report_replays_clean(self, tmp_path):
        report = run_task(dict(C0_CONFIG))
        assert replay_report(report)
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path)]) == 0

    def test_tampered_bound_detected(self, tmp_path, capsys):
        report = run_task(dict(C0_CONFIG))
        report["payload"]["claims"][1]["lower"] = 0.77
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path)]) == 2

    def test_version_mismatch(self, tmp_path, capsys):
        report = run_task(dict(C0_CONFIG))
        report["version"] = "0.9"
        path = tmp_path / "old.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path)]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_report_or_config_that_is_not_an_object(self, tmp_path, capsys):
        report = run_task(dict(C0_CONFIG))
        report.update(config=None, config_hash=config_hash(None))
        path = tmp_path / "null.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path)]) == 1
        path.write_text("[1, 2]")
        assert main(["replay", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_edited_config_detected(self, tmp_path):
        report = run_task(dict(C0_CONFIG))
        report["config"]["seed"] = 123456
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(report))
        assert main(["replay", str(path)]) == 1

    def test_density_replay(self):
        report = run_task({"task": "density", "seed": 5, "scheme": "interleaved-c0",
                           "params": {"levels": [0, 2]}})
        assert replay_report(json.loads(json.dumps(report)))

    def test_profile_replay(self):
        report = run_task({"task": "profile", "seed": 2, "scheme": "interleaved-c0",
                           "params": {"n_max": 5, "element": "decay"}})
        assert replay_report(json.loads(json.dumps(report)))

    def test_slowdecay_replay_roundtrip(self):
        cfg = {"task": "slowdecay", "seed": 8,
               "scheme": {"kind": "chain", "family": "monomial", "n_max": 10,
                          "space": {"carrier": "grid", "domain": "interval",
                                    "nodes": 257, "norm": "sup"}},
               "params": {"i_max": 5}}
        report = run_task(cfg)
        assert replay_report(json.loads(json.dumps(report)))

    def test_unverified_slowdecay_replays_its_verdict(self):
        # a two-valued ladder element is a member of A_n where m(n) >= 2, so
        # its distance there is 0 and the ladder's lower claims fail
        report = run_task({"task": "slowdecay", "seed": 1, "scheme": "quantizer-linear",
                           "params": {"i_max": 4}})
        assert len(set(report["payload"]["element"])) == 2
        observed = [v["observed"] for v in report["payload"]["verifications"]]
        assert observed[2:] == [0.0, 0.0]
        assert not report["verified"]
        assert replay_report(json.loads(json.dumps(report)))
        report["verified"] = True
        assert not replay_report(json.loads(json.dumps(report)))

    def test_a_ladder_past_the_gap_table_halts(self):
        # the spline's gap map is 2n, so a rung lands at level 10, past the
        # gap table of n_max = 6: K(10) is None there, and the ladder halts
        assert build_scheme("free-knot-spline").K(10) is None
        report = run_task({"task": "slowdecay", "seed": 1, "scheme": "free-knot-spline",
                           "params": {"i_max": 8}})
        payload = report["payload"]
        assert payload["meta"]["halted"] == "gap map leaves the window at level 10"
        assert [claim["level"] for claim in payload["claims"]] == list(range(9))
        assert not report["verified"]  # the element is a member of A_6, A_7 and A_8 (ROADMAP item 3)
        assert replay_report(json.loads(json.dumps(report)))

    def test_unverified_validate_replays_its_verdict(self):
        report = run_task(copy.deepcopy(UNVERIFIED_VALIDATE))
        assert not report["verified"]
        assert replay_report(json.loads(json.dumps(report)))
        report["verified"] = True
        assert not replay_report(json.loads(json.dumps(report)))


    @pytest.mark.parametrize("task", TASKS)
    def test_honest_report_replays(self, task):
        report = run_task(copy.deepcopy(SMALL[task]))
        assert replay_report(report)
        assert replay_report(json.loads(json.dumps(report, indent=2, sort_keys=True)))

    def test_replay_writes_no_side_files(self, tmp_path):
        csv_path = tmp_path / "prof.csv"
        plot_path = tmp_path / "prof.dat"
        report = run_task({"task": "profile", "seed": 2, "scheme": "interleaved-c0",
                           "params": {"n_max": 6, "element": "decay"},
                           "csv": str(csv_path), "plot_data": str(plot_path)})
        csv_path.write_text("edited by hand\n")
        plot_path.unlink()
        assert replay_report(json.loads(json.dumps(report)))
        assert csv_path.read_text() == "edited by hand\n"
        assert not plot_path.exists()


def _raise_bound(payload):
    payload["certificates"][1]["bound"] *= 10.0


def _scale_observed(payload):
    for v in payload["verifications"]:
        v["observed"] *= 100.0


TAMPERS = {
    "density-bound-raised": ("density", _raise_bound),
    "density-certificates-emptied": ("density", lambda p: p.update(certificates=[])),
    "density-certificate-relabelled": ("density", lambda p: p["certificates"][1].update(level=1)),
    "witness-element-zeroed": ("witness", lambda p: p.update(element=[0.0] * len(p["element"]))),
    "witness-observed-scaled": ("witness", _scale_observed),
    "shapiro-constant-and-certificates": (
        "shapiro", lambda p: p.update(weak_gap_constant=0.5, certificates=[])),
}


def _leaves(node, path=()):
    """Paths of every leaf of a JSON tree: a scalar or an empty container."""
    if isinstance(node, dict) and node:
        return [p for k, v in node.items() for p in _leaves(v, path + (k,))]
    if isinstance(node, list) and node:
        return [p for i, v in enumerate(node) for p in _leaves(v, path + (i,))]
    return [path]


def _changed(value, data):
    """`value` flipped, edited or moved by more than the replay tolerance."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            return 0.0
        factor = data.draw(st.floats(2.0, 1e6)) * data.draw(st.sampled_from((-1.0, 1.0)))
        return value + factor * REL_TOL * max(1.0, abs(value))
    if isinstance(value, str):
        return value + "~"
    return "tampered"  # None or an empty container


@functools.lru_cache(maxsize=None)
def _honest(task):
    """An honest report as JSON text, and a separate re-run of its config."""
    config = SMALL[task]
    return json.dumps(run_task(copy.deepcopy(config))), run_task(copy.deepcopy(config))


class TestReplayTamper:
    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_tampered_report_does_not_replay(self, case):
        task, edit = TAMPERS[case]
        report = json.loads(json.dumps(run_task(copy.deepcopy(SMALL[task]))))
        honest = copy.deepcopy(report)
        edit(report["payload"])
        assert report != honest
        assert replay_report(honest)
        assert not replay_report(report)

    def test_comparison_rules(self):
        nan, inf = float("nan"), float("inf")
        assert cli._same([nan, inf, -inf, None], (nan, inf, -inf, None))
        assert cli._same({"v": 1.0 + 5e-10, "n": 3}, {"v": 1.0, "n": 3.0})
        assert not cli._same(1.0 + 2e-9, 1.0)
        assert not cli._same(nan, 0.0)
        assert not cli._same(0.0, nan)
        assert not cli._same(inf, -inf)
        assert not cli._same(1e308, inf)
        assert not cli._same(True, 1)
        assert not cli._same(0, False)
        assert not cli._same("1.0", 1.0)
        assert not cli._same(None, 0.0)
        assert not cli._same([1.0], [1.0, 1.0])
        assert not cli._same({"a": 1}, {"a": 1, "b": 2})

    def test_integer_fields_compare_exactly(self):
        # 1e-9 of a 2**40 seed is about 1100, so a relative tolerance would pass seed + 1
        report = json.loads(json.dumps(run_task(dict(C0_CONFIG, seed=2**40))))
        assert replay_report(report)
        report["seed"] += 1
        assert not replay_report(report)

    @settings(max_examples=300, deadline=None)
    @given(task=st.sampled_from(TASKS), data=st.data())
    def test_any_tampered_leaf_fails_replay(self, task, data):
        text, rerun = _honest(task)
        report = json.loads(text)
        path = data.draw(st.sampled_from([p for p in _leaves(report) if p != ("timestamp",)]))
        *head, key = path
        parent = functools.reduce(operator.getitem, head, report)
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = _changed(parent[key], data)
        with mock.patch.object(cli, "run_task", lambda config: copy.deepcopy(rerun)):
            try:
                assert not replay_report(report)
            except UsageError:
                pass


def _f64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _values_profile(values, scheme="interleaved-c0", n_max=3) -> dict:
    return {"task": "profile", "seed": 2, "scheme": scheme,
            "params": {"n_max": n_max, "element": {"values": list(values)}}}


# one small profile scheme per carrier
CARRIER_SCHEMES = {
    "grid": {"kind": "chain", "family": "monomial", "n_max": 3,
             "space": {"carrier": "grid", "domain": "interval", "nodes": 9,
                       "norm": "lp", "p": 2.0}},
    "coords": {"kind": "nterm", "n_max": 3, "dictionary": {"family": "orthonormal"},
               "space": {"carrier": "coords", "dim": 6, "norm": "lp", "p": 2.0}},
    "matrix": {"kind": "rank", "space": {"carrier": "matrix", "side": 3, "norm": "hs"}},
}
# signed zeros, subnormals and magnitudes up to 1e300, all finite
EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))

BAD_ELEMENTS = {  # for interleaved-c0, whose elements have shape [20]
    "values-wrong-length": {"values": [1.0] * 19},
    "f64-wrong-byte-length": {"f64": _f64([1.0] * 19), "shape": [20]},
    "f64-shape-differs": {"f64": _f64([1.0] * 20), "shape": [4, 5]},
    # valid once the "!" is discarded, which b64decode does unless validating
    "f64-invalid-base64": {"f64": "!" + _f64([1.0] * 20), "shape": [20]},
    "values-not-numbers": {"values": ["one"] * 20},
}


class TestElementEncoding:
    @settings(max_examples=60, deadline=None)
    @given(carrier=st.sampled_from(sorted(CARRIER_SCHEMES)), data=st.data())
    def test_f64_element_is_bit_exact(self, carrier, data):
        desc = CARRIER_SCHEMES[carrier]
        space = build_scheme(desc).space
        size = math.prod(space.shape)
        x = np.array(data.draw(st.lists(EXTREME_FLOATS, min_size=size, max_size=size)),
                     dtype=float).reshape(space.shape)
        back = make_element(space, json.loads(json.dumps(encode_element(x))), None)
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))
        with np.errstate(all="ignore"):
            from_values = run_task(_values_profile(x.ravel().tolist(), desc, n_max=2))
            assert from_values["config"]["params"]["element"] == encode_element(x)
            from_f64 = run_task(json.loads(json.dumps(from_values["config"])))
        assert (json.dumps(from_f64["payload"], sort_keys=True)
                == json.dumps(from_values["payload"], sort_keys=True))

    def test_version_1_0_values_report_replays(self):
        config = _values_profile(np.linspace(-1.0, 1.0, 20).tolist())
        report = run_task(copy.deepcopy(config))
        old = dict(report, version="1.0", config=config, config_hash=config_hash(config))
        assert replay_report(old)
        assert replay_report(json.loads(json.dumps(old, indent=2, sort_keys=True)))

    def test_4096_value_config_is_compact(self):
        x = np.random.default_rng(5).standard_normal(4096)
        report = run_task(_values_profile(x.tolist(), "trig-chain", n_max=2))
        assert len(canonical_json(report["config"])) < 48_000
        assert replay_report(json.loads(json.dumps(report, indent=2, sort_keys=True)))

    @pytest.mark.parametrize("where", [0, 100, -1])
    def test_changed_base64_character_fails_replay(self, where):
        report = run_task(_values_profile(np.linspace(-1.0, 1.0, 20).tolist()))
        element = report["config"]["params"]["element"]
        chars = list(element["f64"])
        chars[where] = "B" if chars[where] == "A" else "A"
        element["f64"] = "".join(chars)
        with pytest.raises(UsageError, match="hash"):
            replay_report(json.loads(json.dumps(report)))

    @pytest.mark.parametrize("case", sorted(BAD_ELEMENTS))
    def test_bad_element_is_a_usage_error(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, {"task": "profile", "seed": 1, "scheme": "interleaved-c0",
                                      "params": {"n_max": 3, "element": BAD_ELEMENTS[case]}})
        assert main(["run", "--config", cfg]) == 1
        assert "element for shape [20]" in capsys.readouterr().err

    def test_f64_without_shape_names_the_accepted_forms(self):
        space = build_scheme("interleaved-c0").space
        with pytest.raises(UsageError, match=r"holds values, f64 with shape, or probe, not the keys \['f64'\]"):
            make_element(space, {"f64": _f64([1.0] * 20)}, None)

    def test_non_finite_values_reach_the_space_check(self):
        with pytest.raises(SpaceError):
            run_task(_values_profile([math.nan] + [1.0] * 19))


def _containers(node):
    """Every list and dict in a JSON tree."""
    if isinstance(node, dict):
        yield node
        for v in node.values():
            yield from _containers(v)
    elif isinstance(node, list):
        yield node
        for v in node:
            yield from _containers(v)


class TestReportOwnership:
    @pytest.mark.parametrize("name", [*TASKS, "profile-values", "witness-c0",
                                      "witness-element", "audit-jackson"])
    def test_report_shares_nothing_with_its_config(self, name):
        extra = {"profile-values": _values_profile(np.linspace(0.0, 1.0, 20).tolist()),
                 "witness-c0": C0_CONFIG,
                 # the quantizer op reads no element, so the key is refused
                 "witness-element": {"task": "witness", "params": {
                     "op": "quantizer", "m": 8, "element": {"values": [1.0]}}},
                 # the payload echoes the given seminorm dict
                 "audit-jackson": {"task": "audit", "seed": 6, "scheme": SMALL_CHAIN,
                                   "params": {"audit": "jackson",
                                              "seminorm": {"kind": "lipschitz"}}}}
        config = copy.deepcopy(SMALL.get(name) or extra[name])
        snapshot = copy.deepcopy(config)
        if name == "witness-element":
            with pytest.raises(UsageError, match=r"unknown key 'element'; allowed keys: m$"):
                run_task(config)
            assert config == snapshot
            return
        report = run_task(config)
        if name == "audit-jackson":
            assert report["payload"]["seminorm"] == {"kind": "lipschitz"}
        for node in list(_containers(report)):
            if isinstance(node, dict):
                node["edited"] = True
            else:
                node.append("edited")
        assert config == snapshot

    def test_edited_constructor_param_fails_replay(self):
        report = run_task(copy.deepcopy(C0_CONFIG))
        report["payload"]["constructor"]["params"]["eps"][0] = 2.0
        assert report["config"] == C0_CONFIG
        assert replay_report(report) is False


class TestWitnessOps:
    @pytest.mark.parametrize("params", [
        {"op": "quantizer", "m": 8},
        {"op": "orthonormal", "n": 3, "dim": 8},
        {"op": "tensor", "n": 4, "norm": "operator"},
        {"op": "haar-bumps", "n": 2, "p": 1.0, "attempts": 10},
        {"op": "bv", "n": 1, "attempts": 4},
        {"op": "ridge", "n": 2, "starts": 3},
        {"op": "wavelet", "n": 1, "attempts": 10},
        {"op": "translates", "n": 2, "m": 6, "trials": 20},
    ])
    def test_each_op_runs_verified_and_replays(self, params):
        report = run_task({"task": "witness", "seed": 11, "params": params})
        assert report["verified"], params
        assert replay_report(json.loads(json.dumps(report)))


# a valid and an ill-typed value for each JSON type of cli.KEY_TYPES, and an
# ill-typed value for each of scheme.DESC_TYPES
VALID = {"an integer": 3, "a number": 1.5, "a string": "x", "an object": {},
         "a string or an object": "x", "a list of integers": [1], "a list of numbers": [1.0]}
ILL_TYPED = {"an integer": 5.7, "a positive integer": 0, "a number": "1", "a string": 3,
             "an object": [], "a string or an object": 3, "a list of integers": "12", "a list of numbers": ["x"],
             "one of interval, interval-cells, torus": "interval_cells"}


def _required(name) -> list:
    """The keys a config for the table entry `name` cannot do without: its
    scheme, if it needs one, and its required params."""
    entry = TABLE[name]
    return ["scheme"] * ("scheme" in entry.keys) + [
        key for key, default in entry.params.items() if default is cli.REQUIRED]


def _minimal(name) -> dict:
    """The smallest config the checker accepts for the table entry `name`."""
    task, *choice = name.split()
    config = {"task": task, "params": {}}
    if choice:
        config["params"][cli.SELECTORS[task][0]] = choice[0]
    for key in _required(name):
        if key == "scheme":
            config["scheme"] = "interleaved-c0"
        else:
            config["params"][key] = VALID[cli.KEY_TYPES[key][0]]
    return config


def _refused(tmp_path, capsys, config) -> str:
    """The one error line `main` prints for a config it refuses with exit 1."""
    assert main(["run", "--config", write_config(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def _load_workloads():
    """perfbench/workloads.py, loaded by path without importing perfbench."""
    return load_by_path("perfbench/workloads.py")


KEYS = [(name, key) for name, entry in TABLE.items() for key in entry.params]
REQUIRED_KEYS = [(name, key) for name in TABLE for key in _required(name)]


class TestConfigCheck:
    def test_every_key_has_a_json_type(self):
        assert all(key in cli.KEY_TYPES for _, key in KEYS)

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_minimal_config_passes(self, name):
        entry, _, _, params = check_config(_minimal(name))
        assert entry is TABLE[name]
        assert params.keys() == entry.params.keys()

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_unknown_key_is_refused(self, tmp_path, capsys, name):
        config = _minimal(name)
        config["params"]["bogus"] = 1
        err = _refused(tmp_path, capsys, config)
        assert "unknown key 'bogus'" in err
        assert all(key in err for key in TABLE[name].params)

    @pytest.mark.parametrize("name,key", REQUIRED_KEYS, ids=[f"{n}-{k}" for n, k in REQUIRED_KEYS])
    def test_missing_required_key_is_refused(self, tmp_path, capsys, name, key):
        config = _minimal(name)
        (config if key == "scheme" else config["params"]).pop(key)
        assert f"missing required key {key!r}" in _refused(tmp_path, capsys, config)

    @pytest.mark.parametrize("name,key", KEYS, ids=[f"{n}-{k}" for n, k in KEYS])
    def test_ill_typed_value_is_refused(self, tmp_path, capsys, name, key):
        config = _minimal(name)
        config["params"][key] = ILL_TYPED[cli.KEY_TYPES[key][0]]
        assert f"{key} must be {cli.KEY_TYPES[key][0]}" in _refused(tmp_path, capsys, config)

    @pytest.mark.parametrize("config,message", [
        ({"task": "witness", "params": {"op": "quantizer", "m": 5.7}},
         "params of witness quantizer: m must be an integer, not 5.7"),
        ({"task": "density", "scheme": "interleaved-c0", "params": {"levels": "12"}},
         "params of density: levels must be a list of integers, not '12'"),
        ({"task": "shapiro", "scheme": "interleaved-c0", "params": {"levels": "12"}},
         "params of shapiro: levels must be a list of integers, not '12'"),
        ({"task": "profile", "scheme": "interleaved-c0", "params": {"n_max": True}},
         "params of profile: n_max must be an integer, not True"),
        ({"task": "validate", "scheme": "interleaved-c0", "seed": "7"},
         "config: seed must be an integer, not '7'"),
        ({"task": "validate", "scheme": "interleaved-c0", "params": {"trails": 20}},
         "params of validate: unknown key 'trails'; allowed keys: trials"),
        ({"task": "witness", "params": {"op": "quantizer"}},
         "params of witness quantizer: missing required key 'm'"),
        ({"task": "witness", "scheme": "interleaved-c0", "params": {"op": "c0", "eps": [1.0]}},
         "config: unknown key 'scheme'; allowed keys: task, seed, params"),
        ({"task": "validate", "scheme": "interleaved-c0", "csv": "out.csv"},
         "config: unknown key 'csv'; allowed keys: task, seed, params, scheme"),
        ({"task": "witness", "params": {"op": "dance"}},
         "witness task: params.op must be one of c0, quantizer, haar-bumps, bv, ridge, "
         "orthonormal, wavelet, translates, tensor, not 'dance'"),
        ({"task": "witness", "params": {}}, "witness task: params.op must be one of c0,"),
        ({"task": "validate", "scheme": "interleaved-c0", "params": {"trials": 0}},
         "params of validate: trials must be a positive integer, not 0"),
        ({"task": "validate", "scheme": "interleaved-c0", "params": {"trials": -3}},
         "params of validate: trials must be a positive integer, not -3"),
        ({"task": "witness", "params": {"op": "ridge", "n": 2, "starts": 0}},
         "params of witness ridge: starts must be a positive integer, not 0"),
        ({"task": "witness", "params": {"op": "translates", "n": 2, "m": 5, "trials": 0}},
         "params of witness translates: trials must be a positive integer, not 0"),
        ({"task": "density", "scheme": "monomial-chain", "params": {"levels": [17]}},
         "level 17 outside the window 0..12"),
        ({"task": "shapiro", "scheme": "trig-chain", "params": {"levels": [14]}},
         "level 14 outside the window 0..10"),
        ({"task": "validate", "scheme": "interleaved-c0", "params": [20]},
         "config params must be a JSON object"),
    ], ids=["m-float", "density-levels-string", "shapiro-levels-string", "n_max-bool",
            "seed-string", "misspelled-trials", "missing-m", "scheme-on-witness",
            "csv-on-validate", "unknown-op", "missing-op", "trials-zero", "trials-negative",
            "ridge-starts-zero", "translates-trials-zero", "density-chain-beyond-window",
            "shapiro-chain-beyond-window", "params-not-an-object"])
    def test_config_the_task_would_misread_is_refused(self, tmp_path, capsys, config, message):
        assert _refused(tmp_path, capsys, config).startswith(f"error: {message}")

    def test_defaults_fill_in_but_the_stored_config_keeps_the_params_as_given(self):
        config = {"task": "witness", "params": {"op": "orthonormal", "n": 3}}
        _, _, _, params = check_config(copy.deepcopy(config))
        assert params == {"n": 3, "dim": 12}
        report = run_task(copy.deepcopy(config))
        assert report["config"] == config
        assert report["payload"]["constructor"]["params"] == config["params"]

    def test_every_workload_config_passes(self):
        workloads = _load_workloads()
        for name in workloads.ROUNDS:
            for op in workloads.round_ops(name, np.random.default_rng(0)):
                check_config(op.config)


GRID_9 = {"carrier": "grid", "nodes": 9}
L2_CELLS = {"carrier": "grid", "domain": "interval-cells", "nodes": 64, "norm": "lp", "p": 2.0}
COORDS_4 = {"carrier": "coords", "dim": 4}
# the smallest descriptor of every scheme kind, space carrier, dictionary family
# and seminorm kind, each with the config that `main` runs it in
SMALLEST = {
    "scheme": {
        "chain": {"kind": "chain", "space": GRID_9, "n_max": 2},
        "nterm": {"kind": "nterm", "space": COORDS_4, "dictionary": {"family": "orthonormal"}},
        "quantizer": {"kind": "quantizer", "m": [1, 2]},
        "interleaved-c0": {"kind": "interleaved-c0", "cap": 3},
        "spline": {"kind": "spline", "space": GRID_9, "n_max": 2},
        "rank": {"kind": "rank", "space": {"carrier": "matrix", "side": 3}},
        "wavelet-haar": {"kind": "wavelet-haar"},
    },
    "space": {"grid": {"carrier": "grid"}, "coords": {"carrier": "coords", "dim": 3},
              "matrix": {"carrier": "matrix", "side": 3}},
    "dictionary": {family: {"family": family} for family in scheme.FAMILIES},
    "seminorm": {"lipschitz": {"kind": "lipschitz"}, "bv": {"kind": "bv"},
                 "deriv-sup": {"kind": "deriv-sup"}, "same-norm": {"kind": "same-norm"},
                 "coord-weighted": {"kind": "coord-weighted", "weights": [1.0, 2.0, 3.0, 4.0]}},
}
SPECS = {"scheme": scheme.KIND_KEYS, "space": scheme.CARRIER_KEYS,
         "dictionary": scheme.FAMILY_KEYS, "seminorm": analyze.SEMINORM_KEYS}
DICTIONARY_SPACES = {"orthonormal": COORDS_4, "char-binary-intervals": L2_CELLS,
                     "trig": {"carrier": "grid", "domain": "torus", "nodes": 32},
                     "monomial": GRID_9, "haar-scaling": L2_CELLS}
SEMINORM_SCHEMES = {"coord-weighted": SMALLEST["scheme"]["nterm"]}


def _hosted(table: str, name: str, desc: dict) -> dict:
    """The config that builds the descriptor `desc` of `name` in `table`."""
    if table == "seminorm":
        return {"task": "audit", "scheme": SEMINORM_SCHEMES.get(name, SMALL_CHAIN),
                "params": {"audit": "jackson", "seminorm": desc}}
    host = {"scheme": desc,
            "space": {"kind": "chain", "n_max": 1, "space": desc},
            "dictionary": {"kind": "nterm", "space": DICTIONARY_SPACES.get(name), "dictionary": desc}}
    return {"task": "validate", "scheme": host[table]}


DESCRIPTORS = [(table, name) for table, specs in SPECS.items() for name in specs]
DESC_KEYS = [(table, name, key) for table, name in DESCRIPTORS for key in SPECS[table][name]]
DESC_REQUIRED = [(table, name, key) for table, name, key in DESC_KEYS
                 if SPECS[table][name][key] is scheme.REQUIRED]


class TestDescriptorCheck:
    def test_every_name_has_a_smallest_descriptor(self):
        assert {table: set(names) for table, names in SMALLEST.items()} == \
            {table: set(specs) for table, specs in SPECS.items()}

    def test_every_key_has_a_json_type(self):
        assert all(key in scheme.DESC_TYPES for _, _, key in DESC_KEYS)

    @pytest.mark.parametrize("table,name", DESCRIPTORS, ids=[f"{t}-{n}" for t, n in DESCRIPTORS])
    def test_smallest_descriptor_passes(self, table, name):
        desc = copy.deepcopy(SMALLEST[table][name])
        if table == "seminorm":
            space = build_scheme(SEMINORM_SCHEMES.get(name, SMALL_CHAIN)).space
            assert math.isfinite(analyze.seminorm(space, desc, np.ones(space.shape)))
        elif table == "space":
            build_space(desc)
        else:
            build_scheme(_hosted(table, name, desc)["scheme"])

    @pytest.mark.parametrize("table,name", DESCRIPTORS, ids=[f"{t}-{n}" for t, n in DESCRIPTORS])
    def test_unknown_key_is_refused(self, tmp_path, capsys, table, name):
        desc = {**SMALLEST[table][name], "bogus": 1}
        err = _refused(tmp_path, capsys, _hosted(table, name, desc))
        assert f"{name} {table}: unknown key 'bogus'; allowed keys: " in err
        assert all(key in err for key in SPECS[table][name])

    @pytest.mark.parametrize("table,name,key", DESC_REQUIRED,
                             ids=["-".join(case) for case in DESC_REQUIRED])
    def test_missing_required_key_is_refused(self, tmp_path, capsys, table, name, key):
        desc = {k: v for k, v in SMALLEST[table][name].items() if k != key}
        err = _refused(tmp_path, capsys, _hosted(table, name, desc))
        assert err == f"error: {name} {table}: missing required key {key!r}\n"

    @pytest.mark.parametrize("table,name,key", DESC_KEYS, ids=["-".join(case) for case in DESC_KEYS])
    def test_ill_typed_value_is_refused(self, tmp_path, capsys, table, name, key):
        kind = scheme.DESC_TYPES[key][0]
        desc = {**SMALLEST[table][name], key: ILL_TYPED[kind]}
        err = _refused(tmp_path, capsys, _hosted(table, name, desc))
        assert err == f"error: {name} {table}: {key} must be {kind}, not {ILL_TYPED[kind]!r}\n"

    @pytest.mark.parametrize("config,message", [
        ({"task": "validate", "scheme": {"kind": "chain", "famliy": "trig", "n_max": 3,
                                         "space": GRID_9}},
         "chain scheme: unknown key 'famliy'; allowed keys: space, n_max, family, label"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "domain": "interval_cells"}}},
         "grid space: domain must be one of interval, interval-cells, torus, not 'interval_cells'"),
        ({"task": "validate", "scheme": {"kind": "nterm", "dictionary": {"family": "trig", "level": 3},
                                         "space": DICTIONARY_SPACES["trig"]}},
         "trig dictionary: unknown key 'level'; allowed keys: levels"),
        ({"task": "validate", "scheme": {"kind": "spline", "degre": 3, "n_max": 2,
                                         "space": GRID_9}},
         "spline scheme: unknown key 'degre'; allowed keys: space, n_max, degree, label"),
        ({"task": "validate", "scheme": {"kind": "quantizer", "m": [1, 2], "n_max": 9}},
         "quantizer scheme: unknown key 'n_max'; allowed keys: m, space, label"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "nodes": 65.7}}},
         "grid space: nodes must be an integer, not 65.7"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": "3", "space": GRID_9}},
         "chain scheme: n_max must be an integer, not '3'"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "norm": "Sup"}}},
         "grid space: norm must be sup (no p) or lp (with p), not 'Sup', p None"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "norm": "lp"}}},
         "grid space: norm must be sup (no p) or lp (with p), not 'lp', p None"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "p": 2.0}}},
         "grid space: norm must be sup (no p) or lp (with p), not 'sup', p 2.0"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3,
                                         "space": {**GRID_9, "complex": True}}},
         "grid space: unknown key 'complex'; allowed keys: domain, nodes, a, b, norm, p"),
        ({"task": "validate", "scheme": {"kind": "chain", "family": "trig", "n_max": 3, "space": {
            "carrier": "grid", "domain": "torus", "nodes": 32, "a": 0.0}}},
         "grid space: the torus takes no a or b"),
        ({"task": "validate", "scheme": {"kind": "rank", "space": {
            "carrier": "matrix", "side": 3, "norm": "sup"}}},
         "the matrix carrier takes the HS and operator norms, and only it"),
        ({"task": "validate", "scheme": {"kind": "nterm", "dictionary": {"family": "trig"},
                                         "space": COORDS_4}},
         "trig dictionary needs a grid space, not coords"),
        ({"task": "validate", "scheme": {"knd": "chain"}},
         "scheme kind must be one of chain, nterm, quantizer, interleaved-c0, spline, rank, "
         "wavelet-haar, not None"),
        ({"task": "profile", "scheme": "interleaved-c0",
          "params": {"n_max": 3, "element": {"valuez": [1.0]}}},
         "element for shape [20]: an element object holds values, f64 with shape, or probe, "
         "not the keys ['valuez']"),
        ({"task": "audit", "scheme": "rank-8-hs", "params": {"audit": "jackson"}},
         "lipschitz seminorm needs a grid space, not matrix"),
        ({"task": "audit", "scheme": "orthonormal-nterm", "params": {"audit": "bernstein"}},
         "deriv-sup seminorm needs a grid space, not coords"),
        ({"task": "audit", "scheme": SMALL_CHAIN,
          "params": {"audit": "jackson", "seminorm": {"knd": "bv"}}},
         "seminorm kind must be one of lipschitz, bv, deriv-sup, coord-weighted, same-norm, "
         "not None"),
        ({"task": "audit", "scheme": SMALL_CHAIN,
          "params": {"audit": "jackson", "seminorm": {"kind": "bv", "weights": [1]}}},
         "bv seminorm: unknown key 'weights'; allowed keys: none"),
        ({"task": "audit", "scheme": "orthonormal-nterm", "params": {
            "audit": "bernstein", "seminorm": {"kind": "coord-weighted", "weights": [1.0, 2.0]}}},
         "coord-weighted seminorm: 2 weights for a space of dimension 64"),
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": 3, "space": {
            "carrier": "coords", "dim": 8}}},
         "monomial chain needs a grid space, not coords"),
        ({"task": "validate", "scheme": {"kind": "spline", "n_max": 2, "space": {
            "carrier": "matrix", "side": 3}}},
         "spline scheme needs a grid space, not matrix"),
        ({"task": "density", "scheme": {"kind": "quantizer", "m": [1, 2], "space": COORDS_4}},
         "quantizer density needs a grid space, not coords"),
        *[({"task": "validate", "scheme": {"kind": "chain", "n_max": 1,
                                           "space": {**GRID_9, "nodes": nodes}}},
           f"grid space: nodes must be at least 2, not {nodes}") for nodes in (1, 0, -1)],
        ({"task": "validate", "scheme": {"kind": "chain", "n_max": -1, "space": GRID_9}},
         "chain scheme: n_max must be >= 0, not -1"),
        ({"task": "validate", "scheme": {"kind": "rank", "n_max": -1, "space": {
            "carrier": "matrix", "side": 3}}},
         "rank scheme: n_max must be >= 0, not -1"),
        ({"task": "validate", "scheme": {"kind": "quantizer", "m": []}},
         "quantizer scheme: m must be one or more budgets >= 1, not []"),
    ], ids=["misspelled-family", "unknown-domain", "misspelled-levels", "misspelled-degree",
            "quantizer-n_max", "nodes-float", "n_max-string", "norm-capitalized", "lp-without-p",
            "p-on-sup", "complex", "torus-with-a", "matrix-sup", "trig-on-coords", "misspelled-kind",
            "element-misspelled", "jackson-on-matrix", "bernstein-on-coords",
            "seminorm-misspelled-kind", "weights-on-bv", "weights-wrong-length",
            "monomial-on-coords", "spline-on-matrix", "quantizer-density-on-coords", "nodes-1",
            "nodes-0", "nodes-negative", "n_max-negative", "rank-n_max-negative", "m-empty"])
    def test_descriptor_a_builder_would_misread_is_refused(self, tmp_path, capsys, config,
                                                          message):
        assert _refused(tmp_path, capsys, config) == f"error: {message}\n"

    def test_null_stands_for_a_default_of_none(self):
        bare = build_scheme({"kind": "wavelet-haar", "level": 4, "n_max": 2})
        null = build_scheme({"kind": "wavelet-haar", "level": 4, "n_max": 2, "budget": None,
                             "max_level": None})
        assert np.array_equal(bare.dictionary.atoms, null.dictionary.atoms)
        assert null.descriptor["budget"] is None

    def test_every_shipped_descriptor_passes(self):
        inline = [value for value in vars(_load_workloads()).values()
                  if isinstance(value, dict) and "kind" in value]
        assert len(inline) == 5
        for desc in [*list_schemes(), *load_by_path("scripts/golden_reports.py").INLINE, *inline]:
            build_scheme(desc)

    def test_every_witness_descriptor_passes(self):
        built = []
        with mock.patch.object(wit, "build_scheme",
                               lambda desc: built.append(desc) or build_scheme(desc)):
            wit.witness_c0(NullSequence(np.array([1.0, 0.5])))
            wit.witness_quantizer(3)
            wit.witness_orthonormal_nterm(2, 4)
            for norm_kind in ("hs", "operator"):
                wit.witness_tensor(3, norm_kind)
        assert [desc["kind"] for desc in built] == [
            "interleaved-c0", "quantizer", "nterm", "rank", "rank"]


class TestLastBuiltScheme:
    """`build_scheme` keeps the last scheme it built, and the next task on the
    same descriptor shares it."""

    CHAIN_DENSITY = {"task": "density", "seed": 5, "scheme": SMALL_CHAIN,
                     "params": {"levels": [3, 5]}}

    def test_a_replay_builds_no_second_scheme(self, monkeypatch):
        builds = []
        build = scheme.KINDS["chain"]
        monkeypatch.setitem(scheme.KINDS, "chain",
                            lambda *args, **keys: builds.append(1) or build(*args, **keys))
        report = run_task(copy.deepcopy(self.CHAIN_DENSITY))
        assert replay_report(json.loads(json.dumps(report)))
        # the key is the canonical JSON, whatever the key order
        build_scheme(dict(reversed(list(SMALL_CHAIN.items()))))
        assert len(builds) == 1

    def test_shared_schemes_report_as_fresh_builds(self):
        def reports(fresh: bool) -> list:
            out = []
            for config in (self.CHAIN_DENSITY, self.CHAIN_DENSITY, SMALL["shapiro"],
                           self.CHAIN_DENSITY):
                if fresh:
                    scheme._build_scheme.cache_clear()
                report = run_task(copy.deepcopy(config))
                report.pop("timestamp")
                out.append(report)
            return out

        assert reports(False) == reports(True)

    def test_no_callers_edit_reaches_a_later_scheme(self):
        config = copy.deepcopy(self.CHAIN_DENSITY)
        run_task(config)
        config["scheme"]["space"]["nodes"] = 33
        assert build_scheme(copy.deepcopy(SMALL_CHAIN)).to_json() == SMALL_CHAIN
        desc = copy.deepcopy(SMALL_CHAIN)
        s = build_scheme(desc)
        desc["space"]["nodes"] = 33
        s.to_json()["space"]["nodes"] = 17
        again = build_scheme(copy.deepcopy(SMALL_CHAIN))
        assert again is s and again.to_json() == SMALL_CHAIN

    @pytest.mark.parametrize("bad, message", [
        ({**SMALL_CHAIN, "n_max": -1}, "n_max must be >= 0"),
        ({**SMALL_CHAIN, "family": "fourier"}, "unknown chain family"),
        ({**SMALL_CHAIN, "kind": "lattice"}, "scheme kind must be one of"),
        ({**SMALL_CHAIN, "n_max": np.int64(3)}, "not JSON: Object of type int64"),
    ])
    def test_a_bad_descriptor_is_refused_on_every_call(self, bad, message):
        for _ in range(2):
            with pytest.raises(SchemeError, match=message):
                build_scheme(bad)
            build_scheme(SMALL_CHAIN)


class TestListSchemes:
    def test_prints_registry(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "interleaved-c0" in out
        assert "quantizer-linear" in out
