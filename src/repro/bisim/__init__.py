"""Bisimulation substrate.

Implements the summarization formalism of Sec. 2: the maximal bisimulation
relation of a labeled directed graph via partition refinement, the summary
graph ``Bisim(G)`` with its hash-table reverse ``Bisim^{-1}``.  Sec. 3.2
maintenance re-refines from the old partition
(``maximal_bisimulation(initial_blocks=)``); its one home is
:meth:`repro.core.index.BiGIndex._climb`.
"""

from repro.bisim.refinement import maximal_bisimulation
from repro.bisim.summary import SummaryGraph, summarize

__all__ = [
    "maximal_bisimulation",
    "SummaryGraph",
    "summarize",
]
