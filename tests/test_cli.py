import json

import numpy as np
import pytest

from lethargy.cli import main, run_task, replay_report, config_hash


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


C0_CONFIG = {"task": "witness", "seed": 7,
             "params": {"op": "c0", "eps": [1.0, 0.5, 0.25, 0.125]}}


class TestRun:
    def test_witness_run_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, C0_CONFIG)
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verified"]
        assert report["version"] == "1.0"
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

    def test_unknown_task(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "dance", "seed": 1})
        assert main(["run", "--config", cfg]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    def test_set_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "profile", "seed": 1,
                                      "scheme": "interleaved-c0",
                                      "params": {"n_max": 4, "element": "decay"}})
        out = tmp_path / "r.json"
        assert main(["run", "--config", cfg, "--set", "params.n_max=8",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["payload"]["entries"]) == 9

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

    def test_unverified_validate_replays_its_verdict(self):
        # a constant-only chain cannot approximate the density probes
        report = run_task({"task": "validate", "seed": 3, "params": {"trials": 20},
                           "scheme": {"kind": "chain", "family": "monomial", "n_max": 0,
                                      "space": {"carrier": "grid", "domain": "interval",
                                                "nodes": 65, "norm": "sup"}}})
        assert not report["verified"]
        assert replay_report(json.loads(json.dumps(report)))
        report["verified"] = True
        assert not replay_report(json.loads(json.dumps(report)))


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


class TestListSchemes:
    def test_prints_registry(self, capsys):
        assert main(["list-schemes"]) == 0
        out = capsys.readouterr().out
        assert "interleaved-c0" in out
        assert "quantizer-linear" in out
