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

from repro.graph import Graph, LabelTable
from repro.ontology import OntologyGraph, generate_ontology, TypeAssigner
from repro.bisim import SummaryGraph, summarize
from repro.search import (
    Answer,
    BackwardKeywordSearch,
    BidirectionalSearch,
    Blinks,
    KeywordQuery,
    RClique,
)
from repro.core import (
    BiGIndex,
    Configuration,
    CostModel,
    CostParams,
    EvalResult,
    HierarchicalEvaluator,
    QueryCostModel,
    boost,
    greedy_configuration,
    load_index,
    optimal_query_layer,
    save_index,
)
from repro.core.plugins import BoostedSearch, boost_bkws, boost_dkws, boost_rkws
from repro.core.evaluator import DegradedResult
from repro.utils import (
    Budget,
    BudgetExceeded,
    CancellationToken,
    IndexCorruptedError,
    IndexVersionError,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "LabelTable",
    "OntologyGraph",
    "generate_ontology",
    "TypeAssigner",
    "SummaryGraph",
    "summarize",
    "Answer",
    "BackwardKeywordSearch",
    "BidirectionalSearch",
    "Blinks",
    "KeywordQuery",
    "RClique",
    "load_index",
    "save_index",
    "BiGIndex",
    "Configuration",
    "CostModel",
    "CostParams",
    "EvalResult",
    "HierarchicalEvaluator",
    "QueryCostModel",
    "boost",
    "BoostedSearch",
    "boost_bkws",
    "boost_dkws",
    "boost_rkws",
    "greedy_configuration",
    "optimal_query_layer",
    "Budget",
    "BudgetExceeded",
    "CancellationToken",
    "DegradedResult",
    "IndexCorruptedError",
    "IndexVersionError",
    "__version__",
]
