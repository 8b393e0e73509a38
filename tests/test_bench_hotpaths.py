"""Hot-path bench suite: metric shape, the regression gate, CLI wiring."""

import json
import os

import pytest

from repro.bench.hotpaths import (
    ABS_SLACK_SECONDS,
    Fixture,
    compare,
    make_document,
    run_suite,
    section_query,
)


@pytest.fixture(scope="module")
def quick_metrics():
    """One quick-suite run shared by the shape tests (seconds, not minutes)."""
    return run_suite(quick=True, seed=0, repeats=1)


class TestRunSuite:
    def test_quick_mode_shape(self, quick_metrics):
        assert quick_metrics["mode"] == "quick"
        refine_keys = [k for k in quick_metrics if k.startswith("refine.")]
        assert any(k.endswith(".ref_seconds") for k in refine_keys)
        assert any(k.endswith(".blocks") for k in refine_keys)
        for algo in ("bkws", "bdws", "blinks", "r-clique"):
            assert quick_metrics[f"search.{algo}.ref_seconds"] >= 0
            assert quick_metrics[f"search.{algo}.expansions"] > 0
            assert quick_metrics[f"counters.search.{algo}"][
                "search.expansions"
            ] == quick_metrics[f"search.{algo}.expansions"]

    def test_maintain_section_shape(self, quick_metrics):
        assert quick_metrics["maintain.verify-toy-a.ref_seconds"] >= 0
        counters = quick_metrics["counters.maintain.verify-toy-a"]
        # 16 writes on a 2-layer index: at most 32 layers patched.
        assert 0 < counters["build.layers_refreshed"] <= 32
        assert set(counters) <= {
            "build.layers_refreshed", "refine.calls", "refine.rounds",
            "refine.blocks_split", "refine.vertices_moved",
        }

    def test_quick_mode_skips_build(self, quick_metrics):
        assert not any(k.startswith("build.") for k in quick_metrics)
        assert not any(k.startswith("shard.") for k in quick_metrics)

    def test_query_suite_shape(self, quick_metrics):
        assert quick_metrics["query.batch.ref_seconds"] >= 0
        # Cold, warm, and batch runs must agree on the ranking size; the
        # suite itself asserts equality, so these are exact-gated too.
        assert quick_metrics["query.warm.answers"] == (
            quick_metrics["query.cold.answers"]
        )
        assert quick_metrics["query.batch.answers"] == (
            4 * quick_metrics["query.cold.answers"]
        )

    def test_nothing_the_e2e_benchmark_times_is_timed_here(self, quick_metrics):
        for fragment in (
            "persist.", "coldstart", "query.cold.seconds",
            "query.warm.seconds", "warm_speedup", "serve.qps.warm.seconds",
            "serve.mutate.", "build.synt-1k.parallel", "calibration",
        ):
            assert not any(fragment in key for key in quick_metrics), fragment

    def test_expansions_deterministic(self, quick_metrics):
        again = run_suite(quick=True, seed=0, repeats=1)
        for key, value in quick_metrics.items():
            if key.endswith((".expansions", ".blocks", ".answers")) or (
                key.startswith("counters.")
            ):
                assert again[key] == value

    def test_affinity_restored(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        before = os.sched_getaffinity(0)
        run_suite(quick=True, seed=0, repeats=1)
        assert os.sched_getaffinity(0) == before

    def test_a_section_runs_on_its_own(self, quick_metrics):
        metrics = section_query(Fixture(quick=True, seed=0), repeats=1)
        assert metrics["query.batch.answers"] == (
            quick_metrics["query.batch.answers"]
        )
        assert all(key.startswith("query.") for key in metrics)


class TestRegressionGate:
    BASE = {
        "mode": "full",
        "refine.x.ref_seconds": 0.100,
        "refine.x.blocks": 42,
        "search.y.expansions": 500,
        "counters.search.y": {"search.expansions": 500, "search.heap_pops": 7},
        "serve.read.idle_p99.seconds": 0.005,
    }

    def test_identical_run_passes(self):
        assert compare(dict(self.BASE), dict(self.BASE)) == []

    def test_small_drift_within_tolerance(self):
        current = dict(self.BASE)
        current["refine.x.ref_seconds"] = 0.110  # +10% < 25%
        assert compare(current, self.BASE) == []

    def test_large_regression_fails(self):
        current = dict(self.BASE)
        current["refine.x.ref_seconds"] = 0.150  # +50%
        failures = compare(current, self.BASE)
        assert len(failures) == 1 and "refine.x.ref_seconds" in failures[0]

    def test_recorded_seconds_are_never_compared(self):
        # Multi-threaded socket wall clocks are recorded, not gated: 10x
        # over the committed absolute (or absent) is not a failure.
        current = dict(self.BASE)
        current["serve.read.idle_p99.seconds"] = 0.050
        assert compare(current, self.BASE) == []
        del current["serve.read.idle_p99.seconds"]
        assert compare(current, self.BASE) == []

    def test_absolute_slack_shields_tiny_timings(self):
        base = dict(self.BASE)
        base["refine.x.ref_seconds"] = 0.0001
        current = dict(base)
        # 10x regression but still under the absolute slack.
        current["refine.x.ref_seconds"] = 0.0001 * 10
        assert current["refine.x.ref_seconds"] < ABS_SLACK_SECONDS
        assert compare(current, base) == []

    def test_deterministic_metric_must_match_exactly(self):
        current = dict(self.BASE)
        current["refine.x.blocks"] = 43
        failures = compare(current, self.BASE)
        assert len(failures) == 1 and "refine.x.blocks" in failures[0]

    def test_counter_block_must_match_exactly(self):
        current = dict(self.BASE)
        current["counters.search.y"] = {
            "search.expansions": 500, "search.heap_pops": 8,
        }
        failures = compare(current, self.BASE)
        assert len(failures) == 1 and "counters.search.y" in failures[0]

    def test_missing_timing_fails(self):
        current = dict(self.BASE)
        del current["refine.x.ref_seconds"]
        failures = compare(current, self.BASE)
        assert failures and "missing" in failures[0]

    def test_missing_exact_or_ratio_key_fails(self):
        base = dict(self.BASE)
        base["obs.serve.overhead.ratio"] = 0.99
        for key in ("search.y.expansions", "counters.search.y",
                    "obs.serve.overhead.ratio"):
            current = dict(base)
            del current[key]
            failures = compare(current, base)
            assert len(failures) == 1 and key in failures[0]

    def test_mode_mismatch_refused(self):
        current = dict(self.BASE)
        current["mode"] = "quick"
        failures = compare(current, self.BASE)
        assert failures and "mode mismatch" in failures[0]

    def test_obs_overhead_ratio_gated_on_the_runs_own_pair(self):
        current = dict(self.BASE)
        current.update({
            "obs.serve.overhead.off.seconds": 1.00,
            "obs.serve.overhead.on.seconds": 1.05,
            "obs.serve.overhead.ratio": 1.05,
            "obs.serve.overhead.requests": 48,
        })
        failures = compare(current, self.BASE)
        assert len(failures) == 1 and "obs.serve.overhead.ratio" in failures[0]
        # Same ratio, but the on-off delta is inside the absolute slack.
        current["obs.serve.overhead.off.seconds"] = 0.0200
        current["obs.serve.overhead.on.seconds"] = 0.0210
        assert compare(current, self.BASE) == []

    def test_shard_speedup_floor_binds_only_with_enough_cpus(self):
        current = dict(self.BASE)
        current["shard.build.synt-100k.speedup"] = 1.4
        current["shard.build.synt-100k.host_cpus"] = 2
        assert compare(current, self.BASE) == []
        current["shard.build.synt-100k.host_cpus"] = 4
        failures = compare(current, self.BASE)
        assert len(failures) == 1 and "speedup" in failures[0]


class TestDocuments:
    def test_document_shape(self, quick_metrics):
        history = {"before": {"mode": "quick", "refine.x.seconds": 0.2},
                   "speedups": {"refine.x": 2.0}, "schema": 1}
        document = make_document(quick_metrics, history)
        assert document["schema"] == 2
        assert "machine" in document and "python" in document["machine"]
        assert document["current"] is quick_metrics
        # The historical evidence is carried forward verbatim, not
        # re-derived against this run's numbers.
        assert document["before"] == history["before"]
        assert document["speedups"] == history["speedups"]
        json.dumps(document)  # must be serializable as committed
        assert "speedups" not in make_document(quick_metrics)


class TestCommittedBaseline:
    def test_baseline_file_is_well_formed(self):
        with open("BENCH_hotpaths.json", "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == 2
        current = document["current"]
        assert current["mode"] == "full"
        assert document["before"]["mode"] == "full"
        # The committed document passes its own gate, and every timing
        # in it says which clock it was read on.
        assert compare(current, current) == []
        assert any(key.endswith(".ref_seconds") for key in current)
        assert "calibration.seconds" not in current
        # The sharded build's parallel arm really ran a worker pool.
        if current["shard.build.synt-100k.host_cpus"] >= 2:
            assert current["shard.build.synt-100k.parallel.workers"] >= 2
            assert current["shard.build.synt-100k.speedup"] > 1.2
        # The PR-3 headline numbers, kept as committed historical
        # evidence: worklist refinement on the corpus's largest
        # synthetic graph and the build against the pre-change build.
        speedups = document["speedups"]
        assert speedups["refine.synt-deep-3k"] >= 5.0
        assert speedups["build.synt-1k.serial"] >= 2.0


class TestCLI:
    def test_bench_quick_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["current"]["mode"] == "quick"
        assert "search.bkws.ref_seconds" in capsys.readouterr().out

    def test_bench_check_fails_on_planted_regression(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "first.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        # Plant an impossible baseline: expansions can never match.
        document["current"]["search.bkws.expansions"] -= 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        assert main(["bench", "--quick", "--repeats", "1", "--check",
                     "--baseline", str(baseline)]) == 1

    def test_bench_check_missing_baseline_errors(self, tmp_path):
        from repro.cli import main

        missing = tmp_path / "nope.json"
        assert main(["bench", "--quick", "--repeats", "1", "--check",
                     "--baseline", str(missing)]) == 2

    def test_removed_options_are_rejected(self):
        from repro.cli import main

        for flag in ("--tolerance", "--workers"):
            with pytest.raises(SystemExit) as excinfo:
                main(["bench", "--quick", flag, "1"])
            assert excinfo.value.code == 2
