"""Datasets and query workloads for the evaluation (Sec. 6.1).

The paper evaluates on YAGO3, DBpedia and IMDB plus synthetic graphs
(Tab. 2).  Those multi-million-vertex dumps are not redistributable and a
pure-Python reproduction targets laptop scale, so this package generates
*shape-preserving* synthetic stand-ins: each named generator matches its
original's vertex/edge ratio, label-frequency skew, and ontology coverage
at a configurable scale (see DESIGN.md's substitution table).  Users with
the real dumps can load them through :mod:`repro.graph.io` instead.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datasets.synthetic": (
        "generate_synthetic_graph", "synthetic_dataset", "SYNTHETIC_SCALES",
    ),
    "repro.datasets.knowledge": (
        "Dataset", "yago_like", "dbpedia_like", "imdb_like",
        "dataset_ontology", "dataset_registry",
    ),
    "repro.datasets.workloads": (
        "QuerySpec", "benchmark_queries", "generate_queries",
    ),
})
