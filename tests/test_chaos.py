"""Smoke coverage for the process-level crash-recovery chaos drill.

The full drill (``scripts/chaos_drill.py``, CI's ``chaos-smoke`` job)
runs several rounds against real ``repro-bigindex serve`` subprocesses;
here we run a short two-round configuration end to end — one SIGKILL
round and the graceful SIGTERM finale — and assert the durability
contract held and the report is well-formed.
"""

from __future__ import annotations

import json

import pytest

from repro.verify.chaoscheck import run_chaos_drill


@pytest.mark.slow
def test_chaos_drill_smoke(tmp_path):
    report = run_chaos_drill(
        rounds=2, ops_per_round=3, seed=0, workdir=str(tmp_path)
    )
    assert report.ok, report.format()
    notes = report.notes
    assert notes["rounds"] == 2
    assert notes["restarts"] == 2
    assert notes["kills"] == 1  # every non-final round ends in SIGKILL
    assert report.checks > 0
    assert notes["ops_acked"] <= notes["ops_sent"]
    assert len(notes["events"]) == 2
    for event in notes["events"]:
        assert event["digest_matched"]
    # The report round-trips through JSON (the CI artifact contract).
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["seed"] == 0
    assert payload["ok"] is True
    assert payload["problems"] == []
    assert len(payload["events"]) == 2


def test_chaos_report_formats_failures():
    from repro.verify import Report

    report = Report("chaos", notes={"seed": 7, "kills": 2, "events": []})
    report.problems.append("round 1: digest mismatch")
    assert not report.ok
    lines = report.format().splitlines()
    assert lines[0] == "chaos: 1 problem(s) (0 check(s), seed=7, kills=2)"
    assert lines[1] == "  round 1: digest mismatch"
