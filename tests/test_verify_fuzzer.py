"""Metamorphic-fuzzer tests: clean campaigns, op semantics, bug shrinking."""

import random

import pytest

import repro.core.index as index_module
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.core.persistence import load_index
from repro.verify import fuzz_index, probes, shrink_ops
from repro.verify.drill import apply_op, draw_ops, run_ops
from repro.verify.fuzzer import check_equivalence, rebuilt_reference

EXACT = CostParams(exact=True)


def make_factory(small_ontology, random_graph_factory, seed=4, **kwargs):
    def factory():
        graph = random_graph_factory(seed=seed, **kwargs)
        return BiGIndex.build(
            graph, small_ontology, num_layers=2, cost_params=EXACT
        )

    return factory


class TestCleanCampaign:
    def test_incremental_maintenance_survives_fuzzing(
        self, small_ontology, random_graph_factory
    ):
        factory = make_factory(small_ontology, random_graph_factory)
        report = fuzz_index(
            factory,
            algorithms=[BackwardKeywordSearch(d_max=3, k=None)],
            queries=[KeywordQuery(["A", "C"])],
            sequences=2,
            ops_per_sequence=5,
            seed=0,
        )
        assert report.ok, report.format()
        assert report.notes["sequences"] == 2
        assert report.notes["ops"] > 0
        assert report.checks > 0

    def test_campaign_is_seed_reproducible(
        self, small_ontology, random_graph_factory
    ):
        factory = make_factory(small_ontology, random_graph_factory)
        first = fuzz_index(factory, sequences=1, ops_per_sequence=4, seed=9)
        second = fuzz_index(factory, sequences=1, ops_per_sequence=4, seed=9)
        assert first.ok and second.ok
        assert first.notes["ops"] == second.notes["ops"]


class TestOpSemantics:
    def test_inapplicable_ops_are_noops(
        self, small_ontology, random_graph_factory
    ):
        index = make_factory(small_ontology, random_graph_factory)()
        u, v = next(iter(index.base_graph.edges()))
        assert apply_op(index, ("insert", u, v)) is False  # already present
        assert apply_op(index, ("delete", u, v)) is True
        assert apply_op(index, ("delete", u, v)) is False  # already gone
        assert apply_op(index, ("drop-ontology", "Nope", "Top")) is False

    def test_unknown_op_rejected(self, small_ontology, random_graph_factory):
        index = make_factory(small_ontology, random_graph_factory)()
        with pytest.raises(ValueError):
            apply_op(index, ("relabel", 0, "A"))

    def test_drop_ontology_op_applies(
        self, small_ontology, random_graph_factory
    ):
        index = make_factory(small_ontology, random_graph_factory)()
        mappings = index.layers[0].config.mappings
        subtype, supertype = sorted(mappings.items())[0]
        assert apply_op(index, ("drop-ontology", subtype, supertype)) is True
        assert subtype not in index.layers[0].config.mappings
        assert check_equivalence(index) == []


class TestEquivalenceCheck:
    def test_fresh_index_is_equivalent(
        self, small_ontology, random_graph_factory
    ):
        index = make_factory(small_ontology, random_graph_factory)()
        assert check_equivalence(index) == []

    def test_reference_shares_base_graph(
        self, small_ontology, random_graph_factory
    ):
        index = make_factory(small_ontology, random_graph_factory)()
        reference = rebuilt_reference(index)
        assert reference.base_graph is index.base_graph
        assert reference.num_layers == index.num_layers


class _ForgetfulIndex(BiGIndex):
    """Injected maintenance bug: edge inserts never refresh the layers."""

    def insert_edge(self, u, v):
        self.base_graph.add_edge(u, v)


class TestInjectedMaintenanceBug:
    def test_fuzzer_catches_and_shrinks(
        self, small_ontology, random_graph_factory
    ):
        def buggy_factory():
            graph = random_graph_factory(seed=4)
            return _ForgetfulIndex.build(
                graph, small_ontology, num_layers=2, cost_params=EXACT
            )

        report = fuzz_index(
            buggy_factory, sequences=3, ops_per_sequence=6, seed=0
        )
        assert not report.ok, "fuzzer missed the forgetful insert_edge bug"
        for failure in report.problems:
            # The minimal reproducer must be a single unrefreshed insert.
            assert len(failure.shrunk_ops) == 1, failure.format()
            assert failure.shrunk_ops[0][0] == "insert"
            assert failure.problems
            assert str(failure.seed) in failure.format()

    def test_shrink_drops_irrelevant_ops(
        self, small_ontology, random_graph_factory
    ):
        def buggy_factory():
            graph = random_graph_factory(seed=4)
            return _ForgetfulIndex.build(
                graph, small_ontology, num_layers=2, cost_params=EXACT
            )

        probe = buggy_factory()
        existing = sorted(probe.base_graph.edges())
        # A padded sequence: delete+reinsert noise around one buggy insert.
        (du, dv) = existing[0]
        n = probe.base_graph.num_vertices
        missing = next(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not probe.base_graph.has_edge(u, v)
        )
        ops = [("delete", du, dv), ("insert", *missing)]
        shrunk = shrink_ops(buggy_factory, ops)
        assert shrunk == [("insert", *missing)]


class TestInjectedLocalizedMaintenanceBug:
    """The maintenance probe catches a localized write path that stops
    short of the seeded whole-layer climb."""

    @pytest.fixture(params=["dirty-set", "stale-edge"])
    def planted(self, request, monkeypatch):
        real_seed, real_sync = index_module._seed, index_module._sync_row

        def seed_without_split_offs(layer, origins, changed):
            # The supernodes split off below join their blocks but leave
            # those blocks out of the worklist.
            parent, extent, _ = real_seed(layer, origins, changed)
            return parent, extent, {parent[w] for w in changed}

        def sync_without_removals(graph, source, old, row):
            # A summary edge that lost its last supporting edge stays.
            real_sync(graph, source, set(), row - old)

        if request.param == "dirty-set":
            monkeypatch.setattr(index_module, "_seed", seed_without_split_offs)
        else:
            monkeypatch.setattr(index_module, "_sync_row", sync_without_removals)
        return request.param

    def test_probe_catches_it(
        self, planted, small_ontology, random_graph_factory
    ):
        caught = []
        for seed in range(3):
            index = BiGIndex.build(
                random_graph_factory(
                    num_vertices=40, num_edges=40, seed=seed
                ),
                small_ontology,
                num_layers=3,
                cost_params=EXACT,
            )
            probe = probes.MaintenanceProbe(index)
            rng = random.Random(f"{planted}:{seed}")
            run_ops(
                draw_ops(rng, index, 8),
                lambda op: apply_op(index, op),
                [probe],
            )
            caught.append(not probe.report.ok)
        assert all(caught), f"maintenance probe missed the {planted} bug"
        assert "seeded climb" in str(probe.report.problems[0])


class TestInjectedReloadBug:
    """Persistence failures shrink like any other: the loop probes the
    final state of every replay, however short."""

    def test_reload_fault_shrinks_to_the_op_that_introduced_it(
        self, small_ontology, random_graph_factory, monkeypatch
    ):
        factory = make_factory(small_ontology, random_graph_factory)
        pristine = factory()
        n = pristine.base_graph.num_vertices
        cursed = next(
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not pristine.base_graph.has_edge(u, v)
        )

        def drops_cursed_edge(directory, ontology):
            loaded = load_index(directory, ontology)
            if loaded.base_graph.has_edge(*cursed):
                loaded.delete_edge(*cursed)
            return loaded

        monkeypatch.setattr(probes, "load_index", drops_cursed_edge)
        noise = sorted(pristine.base_graph.edges())[:2]
        ops = [("insert", *cursed)] + [("delete", u, v) for u, v in noise]
        assert shrink_ops(factory, ops) == [("insert", *cursed)]
