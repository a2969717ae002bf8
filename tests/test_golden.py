"""Stored reports replay unchanged.

`tests/data/golden_reports.json` was written by `scripts/golden_reports.py`
before the scheme kinds became one class each.  Every report must still
reproduce, claim for claim, through `cli.replay_report`.
"""

import json
from pathlib import Path

import pytest

from lethargy.cli import replay_report

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


def _id(report: dict) -> str:
    scheme = report["config"].get("scheme")
    name = scheme if isinstance(scheme, str) else scheme["label"]
    return f"{report['task']}-{name}-{report['config']['params'].get('audit', '')}".rstrip("-")


def test_fixture_covers_every_task_but_witness():
    assert {r["task"] for r in GOLDEN} == {"validate", "density", "profile", "shapiro",
                                           "slowdecay", "audit"}


@pytest.mark.parametrize("report", GOLDEN, ids=[_id(r) for r in GOLDEN])
def test_golden_report_replays(report):
    assert replay_report(report)
