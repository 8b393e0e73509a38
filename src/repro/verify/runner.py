"""Verification campaign runner behind ``repro-bigindex verify``.

Ties the three legs of the harness together over a deterministic corpus
(:func:`~repro.datasets.synthetic.verification_corpus`): for each case it
builds a fresh index, audits the hierarchy invariants (with minimality,
since the build is from scratch), cross-checks every plugged algorithm
against direct evaluation with the differential oracle — both exhaustively
and under a top-k cutoff — fuzzes incremental maintenance against
rebuilds, runs the cache-identity drill (cached == uncached
evaluation, including across incremental maintenance; see
:mod:`repro.verify.cachecheck`), and runs the persistence round-trip
drill (save → load identity, warm start, mmap detach; see
:mod:`repro.verify.persistcheck`).  ``--quick`` keeps the corpus and
fuzz budget CI-sized.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.sharding import build_sharded
from repro.datasets.synthetic import synthetic_dataset, verification_corpus
from repro.graph.digraph import Graph
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.verify.auditor import AuditReport, audit_index
from repro.verify.cachecheck import CacheReport, run_cache_drill
from repro.verify.chaoscheck import ChaosReport, run_chaos_drill
from repro.verify.faults import FaultReport, run_fault_injection
from repro.verify.fuzzer import FuzzReport, Op, _random_op, apply_op, fuzz_index
from repro.verify.oracle import DifferentialOracle, OracleReport
from repro.verify.persistcheck import PersistReport, run_persistence_drill
from repro.verify.shardcheck import (
    ShardReport,
    run_plan_sanity,
    run_shard_drill,
)
from repro.verify.servecheck import (
    ServeReport,
    fuzz_serve,
    run_mutation_stream_drill,
    run_serve_drill,
)

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
    fuzz: Optional[FuzzReport] = None
    #: Cached==uncached identity drill (see repro.verify.cachecheck).
    cache: Optional[CacheReport] = None
    #: On-disk round-trip identity drill (see repro.verify.persistcheck).
    persist: Optional[PersistReport] = None
    #: Sharded==monolithic scatter-gather drill (repro.verify.shardcheck).
    shard: Optional[ShardReport] = None
    #: Telemetry counters captured while the oracle leg ran (search and
    #: evaluator activity for this case; empty when instrumentation was
    #: unavailable).
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.audit.ok
            and self.oracle.ok
            and (self.fuzz is None or self.fuzz.ok)
            and (self.cache is None or self.cache.ok)
            and (self.persist is None or self.persist.ok)
            and (self.shard is None or self.shard.ok)
        )

    def format(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{status}] {self.name}"]
        for part in (
            self.audit,
            self.oracle,
            self.fuzz,
            self.cache,
            self.persist,
            self.shard,
        ):
            if part is not None:
                lines.append("  " + part.format().replace("\n", "\n  "))
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
    #: Fault-injection leg (``--faults``); ``None`` when not requested.
    faults: Optional[FaultReport] = None
    #: Serve drill (2s smoke under ``--quick``, full under ``--serve``);
    #: ``None`` when neither ran.
    serve: Optional[ServeReport] = None
    #: Process-level crash-recovery drill (full ``--serve`` only);
    #: ``None`` when it did not run.
    chaos: Optional[ChaosReport] = None
    #: Structural plan sanity over the big locality dataset (full mode
    #: only — building synt-100k belongs to the bench, planning it here
    #: is cheap); ``None`` when it did not run.
    shard_plan: Optional[ShardReport] = None

    @property
    def ok(self) -> bool:
        return (
            all(case.ok for case in self.cases)
            and (self.faults is None or self.faults.ok)
            and (self.serve is None or self.serve.ok)
            and (self.chaos is None or self.chaos.ok)
            and (self.shard_plan is None or self.shard_plan.ok)
        )

    def format(self) -> str:
        mode = "quick" if self.quick else "full"
        lines = [
            f"verification ({mode}, seed {self.seed}): "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        lines.extend(case.format() for case in self.cases)
        if self.faults is not None:
            lines.append(self.faults.format())
        if self.serve is not None:
            lines.append(self.serve.format())
        if self.chaos is not None:
            lines.append(self.chaos.format())
        if self.shard_plan is not None:
            lines.append("synt-100k " + self.shard_plan.format())
        return "\n".join(lines)


def probe_queries(graph: Graph, count: int = 4) -> List[KeywordQuery]:
    """Deterministic keyword queries over ``graph``'s most frequent labels.

    Frequent labels make the searches non-trivial (many matches, many
    candidate roots); layers where the generalized keywords collide are
    skipped by the oracle itself, so collisions are exercised too.
    """
    histogram = graph.label_histogram()
    labels = sorted(histogram, key=lambda label: (-histogram[label], label))
    labels = labels[: max(3, min(count, len(labels)))]
    queries = [
        KeywordQuery(pair) for pair in itertools.combinations(labels[:3], 2)
    ]
    if len(labels) >= 3:
        queries.append(KeywordQuery(labels[:3]))
    return queries


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
    serve_factory: Optional[Callable[[], BiGIndex]] = None
    serve_queries: List[KeywordQuery] = []
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

        if serve_factory is None:
            # Smallest corpus case: the serve drill reuses its factory.
            serve_factory = build
        index = build()
        audit = audit_index(index, expect_minimal=True)

        queries = probe_queries(graph)
        if not serve_queries:
            serve_queries = queries[:2]
        algorithms = [
            BackwardKeywordSearch(d_max=_D_MAX),
            BidirectionalSearch(d_max=_D_MAX),
            Blinks(d_max=_D_MAX),
        ]
        if case_index == 0:
            # Exhaustive in keyword combinations — smallest case only.
            # k=None: full enumeration is the strongest check, and the
            # paper's default k=10 would make tie sets at the cutoff an
            # (uninteresting) source of set differences.
            algorithms.append(RClique(radius=_RCLIQUE_RADIUS, k=None))
        oracle = DifferentialOracle(index)
        # Metrics-only instrumentation: the counters ride along on the
        # case report without perturbing the differential comparison.
        with instrumented(trace=False) as inst:
            oracle_report = oracle.run(algorithms, queries)
            oracle_report.merge(oracle.run(algorithms[:1], queries, k=2))

        fuzz_report: Optional[FuzzReport] = None
        if quick or case_index == 0:
            fuzz_report = fuzz_index(
                build,
                algorithms=algorithms[:1],
                queries=queries[:2],
                sequences=fuzz_sequences,
                ops_per_sequence=ops_per_sequence,
                seed=seed,
            )
        cache_report: Optional[CacheReport] = None
        if quick or case_index == 0:
            # Own index build: the drill mutates its index, and running
            # it last keeps the audit/oracle legs unperturbed.
            cache_report = run_cache_drill(
                build, algorithms[:2], queries
            )
        persist_report: Optional[PersistReport] = None
        if quick or case_index == 0:
            # Own build too: the detach leg mutates the reload.
            persist_report = run_persistence_drill(
                build, algorithms[:1], queries[:2]
            )
        # Scatter-gather == monolithic, including under shard-routed WAL
        # mutations.  Sampled cost params keep the double build (sharded
        # + its monolithic oracle) affordable on the full corpus; both
        # sides share them, so the comparison itself loses nothing.
        drill_kwargs = dict(
            num_layers=num_layers,
            cost_params=CostParams(num_samples=25),
        )
        shard_report = run_shard_drill(
            sharded_factory=lambda g=graph, o=ontology: build_sharded(
                g.copy(share_label_table=True), o, 3, 2 * _D_MAX,
                **drill_kwargs,
            ),
            mono_factory=lambda g=graph, o=ontology: BiGIndex.build(
                g.copy(share_label_table=True), o, **drill_kwargs
            ),
            algorithms=[
                BackwardKeywordSearch(d_max=_D_MAX),
                BidirectionalSearch(d_max=_D_MAX),
            ],
            queries=queries,
            mutation_rounds=2 if quick else 3,
            ops_per_round=3,
            seed=seed + case_index,
        )
        report.cases.append(
            CaseResult(
                name=name,
                audit=audit,
                oracle=oracle_report,
                fuzz=fuzz_report,
                cache=cache_report,
                persist=persist_report,
                shard=shard_report,
                counters=inst.metrics.counters(),
            )
        )
    if faults:
        report.faults = run_fault_injection(
            quick=quick, seed=seed, num_layers=num_layers
        )
    if (quick or serve) and serve_factory is not None and serve_queries:
        # ``--quick`` gets a ~2s smoke; ``--serve`` the full battery.
        report.serve = _run_serve_leg(
            serve_factory,
            serve_queries,
            seed=seed,
            smoke=not serve,
        )
    if serve:
        # Process-level crash recovery: real subprocesses, real SIGKILL.
        report.chaos = run_chaos_drill(seed=seed)
    if not quick:
        # The locality dataset the sharding bench partitions: cheap to
        # generate and plan, so its structural invariants gate here.
        big_graph, _big_ontology = synthetic_dataset("synt-100k", seed=seed)
        report.shard_plan = run_plan_sanity(
            big_graph, num_shards=4, halo_radius=2 * _D_MAX,
            name="synt-100k",
        )
    return report


def _run_serve_leg(
    index_factory: Callable[[], BiGIndex],
    queries: List[KeywordQuery],
    seed: int,
    smoke: bool,
) -> ServeReport:
    """Concurrent drill + serve fuzz leg, sized by ``smoke``."""
    algorithm_factory = lambda: BackwardKeywordSearch(d_max=_D_MAX)  # noqa: E731

    # Deterministic mutation schedule shared by the drill's live run and
    # its per-epoch oracle replay.
    schedule_index = index_factory()
    rng = random.Random(f"serve-drill:{seed}")
    ops: List[Op] = []
    for _ in range(2 if smoke else 6):
        op = _random_op(rng, schedule_index)
        if op is None or op[0] == "drop-ontology":
            continue
        apply_op(schedule_index, op)
        ops.append(op)

    report = run_serve_drill(
        index_factory,
        algorithm_factory,
        queries,
        threads=2 if smoke else 4,
        rounds=2 if smoke else 4,
        ops=ops,
        seed=seed,
    )
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
            index_factory,
            algorithm_factory,
            queries,
            threads=2 if smoke else 4,
            rounds=2 if smoke else 4,
            ops=ops,
            seed=seed,
        )
    )
    return report
