"""Shape-preserving stand-ins for YAGO3, DBpedia and IMDB (Tab. 2).

Real knowledge graphs compress well under generalization + bisimulation
(Tab. 3: YAGO3's layer-1 summary is 27.9% of the data graph) because they
are *structurally repetitive*: large families of sibling entities share the
same few neighbors — the "100 Persons pointing at UC Berkeley" of Fig. 1.
Purely random graphs lack that repetition, which is why the paper's own
synthetic datasets compress far less (Tab. 3: 75-88%); our ``synt-*``
generators stay random for exactly that reason.

The generators here use an entity/hub community model:

* **hubs** — a small set of well-known vertices (universities, states,
  studios...) wired into chains (univ -> state) like Fig. 1's backbone;
* **communities** — batches of sibling entities that all point at *the
  same* target set (a few hubs); each community draws its entity labels
  from the leaf subtypes of one shared parent type, so the siblings become
  bisimilar only after one generalization step — the effect BiG-index
  exploits.  Successor-based bisimulation merges a community into one
  supernode because every member has an identical successor set;
* **noise** — a fraction of entities get an extra private random edge,
  which splits them off their community.  The noise rate is the knob that
  reproduces each dataset's compression ratio.

Dataset-specific parameters reproduce the originals' headline properties:

=============  ==========  ===========  =================================
dataset        |E| / |V|   ontology     behaviour reproduced
=============  ==========  ===========  =================================
yago-like      ~2.0        own          strong layer-1 compression (~0.3)
dbpedia-like   ~2.7        yago-like's  ~73% typing coverage, weaker
                                        compression (~0.6)
imdb-like      ~3.6        yago-like's  moderate compression (~0.4), dense
                                        neighborhoods that blow up
                                        r-clique's neighbor list
=============  ==========  ===========  =================================

The "ontology" column is one taxonomy: every dataset draws the same
yago-like ontology, sized by ``scale`` and drawn before any graph RNG
runs.  :func:`dataset_ontology` returns it without generating the graph,
which is all ``repro-bigindex build|query|stats|persist|serve
--ontology-from`` needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.digraph import Graph
from repro.ontology.ontology import OntologyGraph, generate_ontology
from repro.ontology.typing import TypeAssigner
from repro.utils.errors import BigIndexError, GraphError


@dataclass
class Dataset:
    """A named benchmark dataset: graph + ontology + provenance note."""

    name: str
    graph: Graph
    ontology: OntologyGraph
    note: str = ""

    @property
    def stats(self) -> Dict[str, int]:
        """The Tab. 2 row: |V|, |E|, |V_ont|, |E_ont|."""
        return {
            "V": self.graph.num_vertices,
            "E": self.graph.num_edges,
            "V_ont": self.ontology.num_types,
            "E_ont": self.ontology.num_edges,
        }


def generate_knowledge_graph(
    num_vertices: int,
    ontology: OntologyGraph,
    seed: int = 0,
    hub_fraction: float = 0.03,
    avg_community: int = 30,
    targets_per_community: Tuple[int, int] = (1, 3),
    noise_ratio: float = 0.15,
    hub_out_degree: int = 2,
    two_level_fraction: float = 0.5,
) -> Graph:
    """An entity/hub community knowledge graph labeled from the ontology.

    Parameters
    ----------
    num_vertices:
        Total vertices (hubs + entities).
    ontology:
        Supplies parent types and their leaf subtypes.
    seed:
        RNG seed; generation is deterministic.
    hub_fraction:
        Fraction of vertices that become hubs.
    avg_community:
        Expected sibling-entity community size (exponentially distributed).
    targets_per_community:
        Inclusive range for how many hubs each community points at; this
        is the main edge-density knob (edges/vertex ~ mean(targets)
        + noise_ratio + hub_out_degree * hub_fraction).
    noise_ratio:
        Fraction of entities receiving one extra private random edge,
        splitting them from their community — the compression knob.
    hub_out_degree:
        Outgoing backbone edges per hub (hub -> hub chains).
    two_level_fraction:
        Fraction of communities built as two-level fans: members point at
        shared *representative* entities which point at the hubs (the
        "Person -> Univ. -> State" chains of Fig. 1).  Deeper in-trees
        make backward keyword expansion do real work, as on real
        knowledge graphs.
    """
    if num_vertices < 10:
        raise GraphError("num_vertices must be at least 10")
    rng = random.Random(seed)

    # Parent types whose children include leaves: communities draw labels
    # from the children so one generalization step unifies the community.
    parents: List[Tuple[str, List[str]]] = []
    for t in sorted(ontology.types()):
        children = [
            c for c in ontology.direct_subtypes(t) if not ontology.direct_subtypes(c)
        ]
        if children:
            parents.append((t, sorted(children)))
    if not parents:
        raise GraphError("ontology has no parent types with leaf children")

    graph = Graph()
    num_hubs = max(3, int(num_vertices * hub_fraction))

    # Hubs: labeled from a small shared pool (states, leagues, studios...)
    # so hub labels — the forward-reachable vocabulary keyword queries
    # lean on — have measurable support, and wired into short chains.
    # One child per parent keeps the pool semantically diverse: hub
    # keywords from different queries generalize to *different* parents,
    # as the paper's Club/Player/England-style queries do.
    pool_parents = rng.sample(parents, min(10, len(parents)))
    hub_label_pool = sorted(
        rng.choice(children) for _, children in pool_parents
    )
    hubs = []
    for _ in range(num_hubs):
        hubs.append(graph.add_vertex(rng.choice(hub_label_pool)))
    for hub in hubs:
        for _ in range(hub_out_degree):
            other = rng.choice(hubs)
            if other != hub:
                graph.add_edge(hub, other)

    # Communities of sibling entities pointing at a shared hub subset.
    # Parent types are drawn with a Zipf-like skew so the head labels
    # reach the several-percent supports real knowledge graphs show
    # (the paper's Tab. 4 keywords cover 0.1%-4.3% of YAGO3's vertices).
    shuffled_parents = list(parents)
    rng.shuffle(shuffled_parents)
    parent_weights = [1.0 / (rank + 1) for rank in range(len(shuffled_parents))]
    lo, hi = targets_per_community
    while graph.num_vertices < num_vertices:
        parent, children = rng.choices(
            shuffled_parents, weights=parent_weights, k=1
        )[0]
        size = min(
            max(2, int(rng.expovariate(1.0 / avg_community)) + 2),
            num_vertices - graph.num_vertices,
        )
        num_targets = rng.randint(lo, min(hi, len(hubs)))
        targets = rng.sample(hubs, num_targets)
        if rng.random() < two_level_fraction and size >= 4:
            # Two-level fan: representatives between members and hubs.
            # Representative labels use the same skewed draw so the
            # pointed-at vocabulary stays keyword-worthy.
            rep_parent, rep_children = rng.choices(
                shuffled_parents, weights=parent_weights, k=1
            )[0]
            num_reps = max(1, size // 8)
            reps = []
            for _ in range(num_reps):
                rep = graph.add_vertex(rng.choice(rep_children))
                for hub in targets:
                    graph.add_edge(rep, hub)
                reps.append(rep)
            # Same-label members share a representative so they stay
            # bisimilar after generalization (the compression BiG-index
            # needs survives the extra level).
            rep_for_label: Dict[str, int] = {}
            for _ in range(size - num_reps):
                if graph.num_vertices >= num_vertices:
                    break
                label = rng.choice(children)
                rep = rep_for_label.setdefault(label, rng.choice(reps))
                entity = graph.add_vertex(label)
                graph.add_edge(entity, rep)
        else:
            for _ in range(size):
                entity = graph.add_vertex(rng.choice(children))
                for hub in targets:
                    graph.add_edge(entity, hub)

    # Noise: extra private out-edges split entities off their community.
    entities = [v for v in graph.vertices() if v >= num_hubs]
    num_noisy = int(len(entities) * noise_ratio)
    for v in rng.sample(entities, min(num_noisy, len(entities))):
        target = rng.randrange(graph.num_vertices)
        if target != v:
            graph.add_edge(v, target)
    return graph


#: The datasets :func:`dataset_registry` and :func:`dataset_ontology` name.
DATASET_NAMES = ("yago-like", "dbpedia-like", "imdb-like")


def dataset_ontology(name: str, scale: float = 1.0) -> OntologyGraph:
    """The ontology of the named dataset at ``scale``, without its graph.

    All three datasets share the 'YAGO taxonomy' stand-in (avg fan-out 5,
    height 7), sized by ``scale`` alone, so a caller that needs only the
    ontology (``repro-bigindex query --ontology-from``) skips generating
    the graph.
    """
    if name not in DATASET_NAMES:
        raise BigIndexError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_NAMES)}"
        )
    return generate_ontology(
        max(80, int(800 * scale)), avg_fanout=5, height=7, seed=0,
        label_prefix="Y",
    )


def yago_like(scale: float = 1.0, seed: int = 0) -> Dataset:
    """YAGO3 stand-in: |V| = 10,000 * scale, |E|/|V| ~ 2.0, fully typed.

    ``seed`` drives the graph only; like every dataset here, the ontology
    depends on ``scale`` alone (:func:`dataset_ontology`).
    """
    num_vertices = max(100, int(10_000 * scale))
    ontology = dataset_ontology("yago-like", scale)
    graph = generate_knowledge_graph(
        num_vertices,
        ontology,
        seed=seed,
        avg_community=40,
        targets_per_community=(1, 3),
        noise_ratio=0.19,
    )
    return Dataset(
        name="yago-like",
        graph=graph,
        ontology=ontology,
        note="YAGO3 substitute: ~2.0 edges/vertex, fully ontology-typed",
    )


def dbpedia_like(scale: float = 1.0, seed: int = 1) -> Dataset:
    """DBpedia stand-in: denser, with ~27% of labels outside the ontology.

    The paper reuses YAGO3's ontology for DBpedia because DBpedia's own
    ontology covers under 20% of entities; 73.2% of entities then match
    some type and the rest map to the topmost type (Sec. 6.1.2).  We
    reproduce that by relabeling ~27% of vertices with out-of-ontology
    strings and running :class:`~repro.ontology.typing.TypeAssigner` with
    the default topmost-type fallback.  Small communities plus heavy
    noise yield the weaker compression DBpedia shows in Tab. 3 (~0.6).
    """
    num_vertices = max(100, int(12_000 * scale))
    ontology = dataset_ontology("dbpedia-like", scale)
    graph = generate_knowledge_graph(
        num_vertices,
        ontology,
        seed=seed,
        avg_community=10,
        targets_per_community=(2, 3),
        noise_ratio=0.45,
    )
    rng = random.Random(seed + 10)
    foreign = [f"dbp_entity_{i}" for i in range(50)]
    for v in graph.vertices():
        if rng.random() < 0.268:
            graph.relabel_vertex(v, rng.choice(foreign))
    assigner = TypeAssigner(ontology)
    report = assigner.apply(graph)
    return Dataset(
        name="dbpedia-like",
        graph=graph,
        ontology=ontology,
        note=(
            "DBpedia substitute: ~2.7 edges/vertex, "
            f"typing coverage {report.coverage:.1%} before fallback"
        ),
    )


def imdb_like(scale: float = 1.0, seed: int = 2) -> Dataset:
    """IMDB stand-in: movie-style communities, dense neighborhoods.

    The defining property the paper measures on IMDB is that r-clique's
    ``O(mn)`` neighbor list explodes (average neighborhood ~105K, an
    estimated 16 TB); a dense hub backbone makes R-hop balls cover most
    of the graph, reproducing that blow-up at our scale.  Compression sits
    between YAGO's and DBpedia's, matching Tab. 3's 36.7%.
    """
    num_vertices = max(100, int(8_000 * scale))
    ontology = dataset_ontology("imdb-like", scale)
    graph = generate_knowledge_graph(
        num_vertices,
        ontology,
        seed=seed,
        avg_community=25,
        targets_per_community=(3, 4),
        noise_ratio=0.30,
        hub_fraction=0.015,
        hub_out_degree=6,
    )
    return Dataset(
        name="imdb-like",
        graph=graph,
        ontology=ontology,
        note="IMDB substitute: ~3.6 edges/vertex, hub-heavy (dense balls)",
    )


def dataset_registry(
    scale: float = 1.0,
) -> Dict[str, Callable[[], Dataset]]:
    """Lazy constructors for the three real-dataset stand-ins, keyed by
    :data:`DATASET_NAMES`."""
    constructors = (yago_like, dbpedia_like, imdb_like)
    return {
        name: partial(make, scale=scale)
        for name, make in zip(DATASET_NAMES, constructors)
    }
