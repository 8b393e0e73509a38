"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def workspace(tmp_path):
    graph_prefix = str(tmp_path / "graph")
    index_dir = str(tmp_path / "index")
    return graph_prefix, index_dir


class TestDatasetCommand:
    def test_generates_tsv(self, workspace):
        graph_prefix, _ = workspace
        code = main(
            ["dataset", "yago-like", "--out", graph_prefix, "--scale", "0.05"]
        )
        assert code == 0
        assert os.path.exists(graph_prefix + ".nodes")
        assert os.path.exists(graph_prefix + ".edges")

    def test_unknown_dataset(self, workspace):
        graph_prefix, _ = workspace
        assert main(["dataset", "nope", "--out", graph_prefix]) == 2


class TestBuildStatsQuery:
    def _generate_and_build(self, graph_prefix, index_dir):
        assert main(
            ["dataset", "yago-like", "--out", graph_prefix, "--scale", "0.05"]
        ) == 0
        assert main(
            [
                "build", graph_prefix,
                "--index-dir", index_dir,
                "--layers", "2",
                "--samples", "10",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        ) == 0

    def test_build_and_stats(self, workspace, capsys):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        assert os.path.exists(os.path.join(index_dir, "meta.json"))
        assert main(
            ["stats", index_dir, "--ontology-from", "yago-like",
             "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "layers: 2" in out
        assert "G^0" in out and "G^2" in out

    def test_query_runs_all_algorithms(self, workspace, capsys):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        # Find two keywords that exist in the generated graph.
        from repro.graph.io import load_graph_tsv

        graph, _ = load_graph_tsv(graph_prefix)
        histogram = sorted(
            graph.label_histogram().items(), key=lambda kv: -kv[1]
        )
        kw1, kw2 = histogram[0][0], histogram[1][0]
        for algorithm in ("bkws", "bdws", "blinks"):
            code = main(
                [
                    "query", index_dir,
                    "--keywords", kw1, kw2,
                    "--algorithm", algorithm,
                    "--d-max", "3",
                    "--k", "3",
                    "--ontology-from", "yago-like",
                    "--scale", "0.05",
                ]
            )
            assert code == 0, algorithm
            out = capsys.readouterr().out
            assert "answer(s) in" in out

    def test_query_unknown_algorithm(self, workspace):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        assert main(
            [
                "query", index_dir,
                "--keywords", "x",
                "--algorithm", "magic",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        ) == 2

    def test_stats_on_missing_index_errors(self, workspace):
        _, index_dir = workspace
        assert main(
            ["stats", index_dir, "--ontology-from", "yago-like",
             "--scale", "0.05"]
        ) == 1

    def _two_keywords(self, graph_prefix):
        from repro.graph.io import load_graph_tsv

        graph, _ = load_graph_tsv(graph_prefix)
        histogram = sorted(
            graph.label_histogram().items(), key=lambda kv: -kv[1]
        )
        return histogram[0][0], histogram[1][0]

    def test_query_with_tight_budget_degrades_with_exit_3(
        self, workspace, capsys
    ):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        kw1, kw2 = self._two_keywords(graph_prefix)
        code = main(
            [
                "query", index_dir,
                "--keywords", kw1, kw2,
                "--max-expansions", "1",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "proven" in captured.err

    def test_query_with_roomy_budget_completes_with_exit_0(
        self, workspace, capsys
    ):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        kw1, kw2 = self._two_keywords(graph_prefix)
        code = main(
            [
                "query", index_dir,
                "--keywords", kw1, kw2,
                "--max-expansions", "1000000",
                "--timeout", "3600",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "answer(s) in" in captured.out
        assert captured.err == ""

    def test_persist_to_new_directory(self, workspace, capsys):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        out_dir = index_dir + "-checkpoint"
        assert main(
            ["persist", index_dir, "--out", out_dir,
             "--ontology-from", "yago-like", "--scale", "0.05"]
        ) == 0
        assert "re-saved" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out_dir, "index.v4.bin"))
        assert main(
            ["stats", out_dir, "--ontology-from", "yago-like",
             "--scale", "0.05"]
        ) == 0

    def test_query_on_corrupted_index_errors(self, workspace, capsys):
        graph_prefix, index_dir = workspace
        self._generate_and_build(graph_prefix, index_dir)
        with open(os.path.join(index_dir, "index.v4.bin"), "ab") as f:
            f.write(b"tamper")
        kw1, kw2 = self._two_keywords(graph_prefix)
        code = main(
            [
                "query", index_dir,
                "--keywords", kw1, kw2,
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        )
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().err


class TestBatchQuery:
    def _setup(self, workspace, queries):
        graph_prefix, index_dir = workspace
        assert main(
            ["dataset", "yago-like", "--out", graph_prefix, "--scale", "0.05"]
        ) == 0
        assert main(
            [
                "build", graph_prefix,
                "--index-dir", index_dir,
                "--layers", "2",
                "--samples", "10",
                "--ontology-from", "yago-like",
                "--scale", "0.05",
            ]
        ) == 0
        from repro.graph.io import load_graph_tsv

        graph, _ = load_graph_tsv(graph_prefix)
        histogram = sorted(
            graph.label_histogram().items(), key=lambda kv: -kv[1]
        )
        kw1, kw2 = histogram[0][0], histogram[1][0]
        batch_file = os.path.join(os.path.dirname(graph_prefix), "batch.txt")
        with open(batch_file, "w") as f:
            f.write("# a comment line\n\n")
            for _ in range(queries):
                f.write(f"{kw1} {kw2}\n")
        return index_dir, batch_file

    def _batch_args(self, index_dir, batch_file, *extra):
        return [
            "query", index_dir,
            "--batch", batch_file,
            "--ontology-from", "yago-like",
            "--scale", "0.05",
            *extra,
        ]

    def test_batch_happy_path(self, workspace, capsys):
        index_dir, batch_file = self._setup(workspace, queries=3)
        assert main(self._batch_args(index_dir, batch_file)) == 0
        out = capsys.readouterr().out
        assert "batch: 3 queries in" in out
        assert "q/s); 0 error(s), 0 degraded" in out
        assert out.count("answer(s) (layer") == 3

    def test_batch_with_workers_and_json_out(self, workspace, capsys):
        index_dir, batch_file = self._setup(workspace, queries=4)
        out_file = os.path.join(os.path.dirname(batch_file), "results.json")
        # A batch runs in order on the calling thread; the thread-pool
        # flag is gone, not ignored.
        with pytest.raises(SystemExit) as refused:
            main(self._batch_args(index_dir, batch_file, "--workers", "2"))
        assert refused.value.code == 2
        capsys.readouterr()
        assert main(
            self._batch_args(
                index_dir, batch_file, "--batch-out", out_file,
            )
        ) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        import json

        with open(out_file) as f:
            document = json.load(f)
        assert document["queries"] == 4
        assert document["errors"] == 0
        assert "workers" not in document
        assert document["qps"] > 0
        assert len(document["results"]) == 4
        assert all(r["status"] == "ok" for r in document["results"])

    def test_batch_out_is_strict_json_at_zero_elapsed(
        self, workspace, capsys, monkeypatch
    ):
        """A clock that does not advance used to write ``"qps": Infinity``."""
        import json

        import repro.cli

        index_dir, batch_file = self._setup(workspace, queries=2)
        out_file = os.path.join(os.path.dirname(batch_file), "strict.json")
        monkeypatch.setattr(repro.cli, "monotonic_now", lambda: 0.0)
        assert main(
            self._batch_args(index_dir, batch_file, "--batch-out", out_file)
        ) == 0
        assert "inf q/s" in capsys.readouterr().out

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token!r}")

        with open(out_file) as f:
            document = json.loads(f.read(), parse_constant=reject)
        assert document["qps"] is None
        assert document["queries"] == 2

    def test_batch_rejects_explain(self, workspace, capsys):
        index_dir, batch_file = self._setup(workspace, queries=1)
        code = main(
            self._batch_args(index_dir, batch_file, "--explain")
        )
        assert code == 2
        assert "--batch" in capsys.readouterr().err

    def test_keywords_and_batch_are_exclusive(self, workspace, capsys):
        index_dir, batch_file = self._setup(workspace, queries=1)
        code = main(
            self._batch_args(index_dir, batch_file, "--keywords", "x")
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_keywords_nor_batch(self, workspace, capsys):
        _, index_dir = workspace
        code = main(
            ["query", index_dir, "--ontology-from", "yago-like",
             "--scale", "0.05"]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_empty_batch_file(self, workspace, capsys):
        index_dir, batch_file = self._setup(workspace, queries=0)
        assert main(self._batch_args(index_dir, batch_file)) == 2
        assert "no queries" in capsys.readouterr().err

    def test_batch_with_tight_budget_reports_degraded(
        self, workspace, capsys
    ):
        index_dir, batch_file = self._setup(workspace, queries=2)
        code = main(
            self._batch_args(
                index_dir, batch_file, "--max-expansions", "1"
            )
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "2 degraded" in out


class TestVerifyCommand:
    def test_quick_harness_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "audit: OK" in out
        assert "oracle: OK" in out
        assert "fuzz: OK" in out
        assert "cache: OK" in out

    def test_seed_is_reported(self, capsys):
        assert main(["verify", "--quick", "--seed", "3",
                     "--fuzz-sequences", "1", "--fuzz-ops", "3"]) == 0
        assert "seed 3" in capsys.readouterr().out

    def test_faults_flag_runs_fault_leg(self, capsys):
        assert main(["verify", "--quick", "--faults",
                     "--fuzz-sequences", "1", "--fuzz-ops", "3"]) == 0
        out = capsys.readouterr().out
        assert "faults: OK" in out
        assert "fault scenario(s)" in out


#: Modules no build / query --algorithm bkws / stats process may load:
#: other subcommands' code (verify, serve, sharding, bench), the other
#: searchers, the WAL (the index has none), the serve-side telemetry and
#: the dataset generators the CLI's ``--ontology-from`` does not run.
COLD_PATH_EXCLUDED = (
    "repro.verify", "repro.serve", "http.client", "repro.core.sharding",
    "repro.bench", "repro.search.blinks", "repro.search.rclique",
    "repro.core.wal", "repro.obs.promtext", "repro.obs.reqlog",
    "repro.obs.flight", "repro.datasets.synthetic",
    "repro.datasets.workloads",
)


def _modules_after(*commands):
    """``sys.modules`` of a fresh interpreter after ``main(command)`` for
    each command (each must exit 0)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "for command in json.loads(sys.argv[1]):\n"
        "    assert main(command) == 0, command\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    import json

    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(commands)], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_each_subcommand_imports_only_what_it_runs(workspace):
    """Cold start: a ``build`` / ``query`` / ``stats`` process pays only
    for its own code path (``cli.py`` imports per subcommand, package
    ``__init__``s import nothing, ``--ontology-from`` skips the graph)."""
    graph_prefix, index_dir = workspace
    common = ["--ontology-from", "yago-like", "--scale", "0.05"]
    assert main(["dataset", "yago-like", "--out", graph_prefix,
                 "--scale", "0.05"]) == 0
    from repro.graph.io import load_graph_tsv

    histogram = load_graph_tsv(graph_prefix)[0].label_histogram()
    keywords = sorted(histogram, key=lambda l: (-histogram[l], l))[:2]
    query = ["query", index_dir, "--keywords", *keywords, *common]
    loaded = _modules_after(
        ["build", graph_prefix, "--index-dir", index_dir, "--layers", "2",
         "--samples", "10", *common],
        [*query, "--algorithm", "bkws"],
        ["stats", index_dir, *common],
    )
    assert "repro.search.banks" in loaded
    assert not loaded.intersection(COLD_PATH_EXCLUDED)
    # Positive control: the chosen searcher is what gets imported.
    loaded = _modules_after([*query, "--algorithm", "blinks"])
    assert "repro.search.blinks" in loaded
    assert "repro.search.rclique" not in loaded
