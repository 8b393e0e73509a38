"""Tests for the fault-injection leg of the verification harness."""

from repro.verify import Report, run_fault_injection, run_verification


class TestFaultInjection:
    def test_quick_campaign_is_clean(self):
        report = run_fault_injection(quick=True, seed=0)
        assert report.ok, report.format()
        assert report.checks > 40  # storage + budget + clock drills all ran

    def test_campaign_is_deterministic(self):
        first = run_fault_injection(quick=True, seed=7)
        second = run_fault_injection(quick=True, seed=7)
        assert first.checks == second.checks
        assert first.problems == second.problems

    def test_report_formatting(self):
        report = Report("faults", unit="fault scenario(s)", checks=3)
        assert report.format() == "faults: OK (3 fault scenario(s))"
        report.problems.append("storage/bitflip [case]: loaded anyway")
        assert not report.ok
        lines = report.format().splitlines()
        assert lines[0] == "faults: 1 problem(s) (3 fault scenario(s))"
        assert lines[1] == "  storage/bitflip [case]: loaded anyway"

    def test_report_truncates_and_merges(self):
        report = Report("serve", notes={"epochs": 3, "p99_ms": 1.0})
        report.problems.extend(f"problem {i}" for i in range(12))
        other = Report("serve", checks=4, notes={"epochs": 3, "p99_ms": 2.5})
        other.problems.append("first line\nsecond line")
        report.merge(other)
        assert report.checks == 4
        assert report.notes == {"epochs": 6, "p99_ms": 2.5}
        lines = report.format().splitlines()
        assert lines[0] == (
            "serve: 13 problem(s) (4 check(s), epochs=6, p99_ms=2.5)"
        )
        assert lines[1] == "  problem 0"
        assert lines[-1] == "  ... and 3 more"
        assert len(lines) == 12
        assert report.to_dict()["problems"][-1] == "first line\nsecond line"
        assert report.to_dict()["epochs"] == 6


class TestRunnerIntegration:
    def test_verification_includes_faults_when_asked(self):
        report = run_verification(
            quick=True, seed=0, fuzz_sequences=1, ops_per_sequence=2,
            faults=True,
        )
        assert "faults" in report.drills
        assert report.ok, report.format()
        assert "faults: OK" in report.format()

    def test_faults_leg_off_by_default(self):
        report = run_verification(
            quick=True, seed=0, fuzz_sequences=1, ops_per_sequence=2
        )
        assert "faults" not in report.drills
        assert "faults:" not in report.format()
