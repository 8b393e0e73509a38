"""BiG-index: a generic ontology framework for indexing keyword search.

Reproduction of Jiang, Choi, Xu, Bhowmick — *A Generic Ontology Framework
for Indexing Keyword Search on Massive Graphs* (TKDE 2019; ICDE 2021
extended abstract).

Public surface
--------------
* graph substrate: :class:`Graph`, traversal and IO helpers.
* ontology: :class:`OntologyGraph`, :func:`generate_ontology`.
* bisimulation: :func:`summarize`, :class:`SummaryGraph`.
* search algorithms: :class:`BackwardKeywordSearch`, :class:`Blinks`,
  :class:`RClique`.
* the BiG-index core: :class:`BiGIndex`, :class:`HierarchicalEvaluator`,
  :func:`boost` and the ``boost_*`` shortcuts.
* datasets & benchmarks: :mod:`repro.datasets`, :mod:`repro.bench`.

See ``examples/quickstart.py`` for an end-to-end walkthrough.
"""

from repro.utils.exports import lazy_exports

__version__ = "1.0.0"

# Each name is imported from its defining module on first use, so
# ``import repro.<anything>`` costs only that module and what it imports.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graph.digraph": ("Graph", "LabelTable"),
    "repro.ontology.ontology": ("OntologyGraph", "generate_ontology"),
    "repro.ontology.typing": ("TypeAssigner",),
    "repro.bisim.summary": ("SummaryGraph", "summarize"),
    "repro.search.base": ("Answer", "KeywordQuery"),
    "repro.search.banks": ("BackwardKeywordSearch",),
    "repro.search.bidirectional": ("BidirectionalSearch",),
    "repro.search.blinks": ("Blinks",),
    "repro.search.rclique": ("RClique",),
    "repro.core.persistence": ("load_index", "save_index"),
    "repro.core.index": ("BiGIndex",),
    "repro.core.config": ("Configuration",),
    "repro.core.cost": ("CostModel", "CostParams"),
    "repro.core.evaluator": (
        "DegradedResult", "EvalResult", "HierarchicalEvaluator",
    ),
    "repro.core.query_cost": ("QueryCostModel", "optimal_query_layer"),
    "repro.core.plugins": (
        "boost", "BoostedSearch", "boost_bkws", "boost_dkws", "boost_rkws",
    ),
    "repro.core.heuristic": ("greedy_configuration",),
    "repro.utils.budget": ("Budget", "CancellationToken"),
    "repro.utils.errors": (
        "BudgetExceeded", "IndexCorruptedError", "IndexVersionError",
    ),
})
__all__.append("__version__")
