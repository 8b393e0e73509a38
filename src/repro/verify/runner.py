"""Verification campaign runner behind ``repro-bigindex verify``.

Ties the legs of the harness together over a deterministic corpus
(:func:`~repro.datasets.synthetic.verification_corpus`): for each case it
builds a fresh index, audits the hierarchy invariants (with minimality,
since the build is from scratch), cross-checks every plugged algorithm
against direct evaluation with the differential oracle — both exhaustively
and under a top-k cutoff — fuzzes incremental maintenance against
rebuilds, and runs the deterministic cache, persistence, maintenance
and shard legs
(:mod:`repro.verify.probes`, :mod:`repro.verify.shardcheck`).  Every leg
past the audit and the oracle is :func:`repro.verify.drill.run_ops` with
different probes, and every one returns a
:class:`~repro.verify.drill.Report`.  ``--quick`` keeps the corpus and
fuzz budget CI-sized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.sharding import build_sharded
from repro.datasets.synthetic import synthetic_dataset, verification_corpus
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.verify.auditor import AuditReport, audit_index
from repro.verify.chaoscheck import run_chaos_drill
from repro.verify.drill import (
    Report,
    apply_op,
    draw_ops,
    edge_ops,
    probe_queries,
    run_ops,
)
from repro.verify.faults import run_fault_injection
from repro.verify.fuzzer import fuzz_index
from repro.verify.oracle import DifferentialOracle, OracleReport
from repro.verify.probes import (
    CacheProbe,
    MaintenanceProbe,
    PersistProbe,
    run_fixed_schedule,
)
from repro.verify.servecheck import (
    fuzz_serve,
    run_mutation_stream_drill,
    run_serve_drill,
)
from repro.verify.shardcheck import run_plan_sanity, run_shard_drill

#: Distance bound shared by the rooted probe algorithms.
_D_MAX = 3
#: r-clique is exhaustive in the keyword-combination count; keep it small.
_RCLIQUE_RADIUS = 2


@dataclass
class CaseResult:
    """All harness outcomes for one corpus case."""

    name: str
    audit: AuditReport
    oracle: OracleReport
    #: The drill legs that ran on this case, by report name and in print
    #: order: ``fuzz``, ``cache``, ``persist``, ``maintain`` (every quick
    #: case, the smallest full-corpus case only) and ``shard``.
    drills: Dict[str, Report] = field(default_factory=dict)
    #: Telemetry counters captured while the oracle leg ran (search and
    #: evaluator activity for this case; empty when instrumentation was
    #: unavailable).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def parts(self) -> list:
        return [self.audit, self.oracle, *self.drills.values()]

    @property
    def ok(self) -> bool:
        return all(part.ok for part in self.parts)

    def format(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] {self.name}"]
        lines.extend(
            "  " + part.format().replace("\n", "\n  ") for part in self.parts
        )
        shown = {
            key: value
            for key, value in sorted(self.counters.items())
            if key.startswith(("search.", "eval.", "spec."))
        }
        if shown:
            rendered = " ".join(f"{k}={v}" for k, v in shown.items())
            lines.append(f"  counters: {rendered}")
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Outcome of one :func:`run_verification` campaign."""

    quick: bool = True
    seed: int = 0
    cases: List[CaseResult] = field(default_factory=list)
    #: The corpus-wide legs that ran, by report name and in print order:
    #: ``faults`` (``--faults``), ``serve`` (``--quick`` or ``--serve``),
    #: ``chaos`` (``--serve``) and the shard-plan sanity (full mode).
    drills: Dict[str, Report] = field(default_factory=dict)

    @property
    def parts(self) -> list:
        return [*self.cases, *self.drills.values()]

    @property
    def ok(self) -> bool:
        return all(part.ok for part in self.parts)

    def format(self) -> str:
        mode = "quick" if self.quick else "full"
        lines = [
            f"verification ({mode}, seed {self.seed}): "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        lines.extend(part.format() for part in self.parts)
        return "\n".join(lines)


def run_verification(
    quick: bool = True,
    seed: int = 0,
    num_layers: int = 2,
    fuzz_sequences: Optional[int] = None,
    ops_per_sequence: Optional[int] = None,
    faults: bool = False,
    serve: bool = False,
) -> VerifyReport:
    """Run the full harness over the deterministic corpus.

    Parameters
    ----------
    quick:
        Use the CI-sized corpus and fuzz budget.
    seed:
        Master seed for corpus generation and fuzzing; any failure report
        quotes it, so re-running with the same seed reproduces exactly.
    num_layers:
        Layers per built index.
    fuzz_sequences / ops_per_sequence:
        Override the fuzz budget (defaults scale with ``quick``).
    faults:
        Also run the fault-injection leg
        (:func:`repro.verify.faults.run_fault_injection`).
    serve:
        Also run the full serve drill (live HTTP server hammered across
        mutation epochs + the serve fuzz leg); ``quick`` always includes
        a smoke-sized pass of both.
    """
    if fuzz_sequences is None:
        fuzz_sequences = 2 if quick else 5
    if ops_per_sequence is None:
        ops_per_sequence = 5 if quick else 10
    report = VerifyReport(quick=quick, seed=seed)
    legs: List[Report] = []
    for case_index, (name, graph, ontology) in enumerate(
        verification_corpus(quick=quick, seed=seed)
    ):
        def build(graph=graph, ontology=ontology) -> BiGIndex:
            # Copy per build: fuzz sequences mutate the base graph.
            return BiGIndex.build(
                graph.copy(share_label_table=True),
                ontology,
                num_layers=num_layers,
                cost_params=CostParams(exact=True),
            )

        index = build()
        audit = audit_index(index, expect_minimal=True)

        queries = probe_queries(graph)
        if case_index == 0:
            # Smallest corpus case: the serve drill reuses its factory.
            serve_factory, serve_queries = build, queries[:2]
        # Zero-argument factories: the cache leg builds each side its own
        # algorithm, so a per-algorithm cache (r-clique's neighbor list)
        # cannot hide behind a shared object.
        factories = [
            lambda: BackwardKeywordSearch(d_max=_D_MAX),
            lambda: BidirectionalSearch(d_max=_D_MAX),
            lambda: Blinks(d_max=_D_MAX),
        ]
        if case_index == 0:
            # Exhaustive in keyword combinations — smallest case only.
            # k=None: r-clique's top-k is approximate (each Lawler
            # subspace's best answer is the greedy 2-approximation), so
            # only its full enumeration has an exact expected answer.
            factories.append(lambda: RClique(radius=_RCLIQUE_RADIUS, k=None))
        algorithms = [make() for make in factories]
        oracle = DifferentialOracle(index)
        # Metrics-only instrumentation: the counters ride along on the
        # case report without perturbing the differential comparison.
        with instrumented(trace=False) as inst:
            oracle_report = oracle.run(algorithms, queries)
            # Rooted top-k is exact, so early termination must keep every
            # rooted algorithm's (the first three) top-k score list.
            oracle_report.merge(oracle.run(algorithms[:3], queries, k=2))

        drills: List[Report] = []
        if quick or case_index == 0:
            # Each leg builds its own index: they mutate it, and running
            # them last keeps the audit/oracle legs unperturbed.
            drills = [
                fuzz_index(
                    build,
                    algorithms=algorithms[:1],
                    queries=queries[:2],
                    sequences=fuzz_sequences,
                    ops_per_sequence=ops_per_sequence,
                    seed=seed,
                ),
                run_fixed_schedule(
                    CacheProbe, build, factories[:2] + factories[3:], queries
                ),
                run_fixed_schedule(
                    PersistProbe, build, algorithms[:1], queries[:2]
                ),
                run_fixed_schedule(MaintenanceProbe, build, (), ()),
            ]
        # Scatter-gather == monolithic, including under shard-routed WAL
        # mutations.  Sampled cost params keep the double build (sharded
        # + its monolithic oracle) affordable on the full corpus; both
        # sides share them, so the comparison itself loses nothing.
        drill_kwargs = dict(
            num_layers=num_layers,
            cost_params=CostParams(num_samples=25),
        )
        drills.append(run_shard_drill(
            sharded_factory=lambda g=graph, o=ontology: build_sharded(
                g.copy(share_label_table=True), o, 3, 2 * _D_MAX,
                **drill_kwargs,
            ),
            mono_factory=lambda g=graph, o=ontology: BiGIndex.build(
                g.copy(share_label_table=True), o, **drill_kwargs
            ),
            algorithms=algorithms[:3],
            queries=queries,
            mutation_rounds=2 if quick else 3,
            ops_per_round=3,
            seed=seed + case_index,
        ))
        report.cases.append(
            CaseResult(
                name=name,
                audit=audit,
                oracle=oracle_report,
                drills={drill.name: drill for drill in drills},
                counters=inst.metrics.counters(),
            )
        )
    if faults:
        legs.append(
            run_fault_injection(quick=quick, seed=seed, num_layers=num_layers)
        )
    if quick or serve:
        # ``--quick`` gets a ~2s smoke; ``--serve`` the full battery.
        legs.append(
            _run_serve_leg(
                serve_factory, serve_queries, seed=seed, smoke=not serve
            )
        )
    if serve:
        # Process-level crash recovery: real subprocesses, real SIGKILL.
        legs.append(run_chaos_drill(seed=seed))
    if not quick:
        # The locality dataset the sharding bench partitions: cheap to
        # generate and plan, so its structural invariants gate here.
        big_graph, _big_ontology = synthetic_dataset("synt-100k", seed=seed)
        legs.append(
            run_plan_sanity(
                big_graph, num_shards=4, halo_radius=2 * _D_MAX,
                name="synt-100k",
            )
        )
    report.drills = {leg.name: leg for leg in legs}
    return report


def _run_serve_leg(
    index_factory: Callable[[], BiGIndex],
    queries: List[KeywordQuery],
    seed: int,
    smoke: bool,
) -> Report:
    """Concurrent drill + serve fuzz leg, sized by ``smoke``."""
    algorithm_factory = lambda: BackwardKeywordSearch(d_max=_D_MAX)  # noqa: E731
    threads = rounds = 2 if smoke else 4

    # Deterministic mutation schedule shared by the drill's live run and
    # its per-epoch oracle replay.
    schedule_index = index_factory()
    rng = random.Random(f"serve-drill:{seed}")
    ops = run_ops(
        edge_ops(draw_ops(rng, schedule_index, 2 if smoke else 6)),
        lambda op: apply_op(schedule_index, op),
    )

    report = run_serve_drill(
        index_factory, algorithm_factory, queries,
        threads=threads, rounds=rounds, ops=ops, seed=seed,
    )
    report.notes["threads"] = threads
    report.merge(
        fuzz_serve(
            index_factory,
            algorithm_factory,
            queries,
            ops_per_sequence=2 if smoke else 6,
            sequences=1 if smoke else 2,
            seed=seed,
        )
    )
    # The copy-on-write acceptance gate: reader p99 must stay flat (and
    # every response byte-identical to its pinned epoch's oracle) while
    # a writer streams the same schedule back-to-back.
    report.merge(
        run_mutation_stream_drill(
            index_factory, algorithm_factory, queries,
            threads=threads, rounds=rounds, ops=ops, seed=seed,
        )
    )
    return report
