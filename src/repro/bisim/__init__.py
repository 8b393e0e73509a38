"""Bisimulation substrate.

Implements the summarization formalism of Sec. 2: the maximal bisimulation
relation of a labeled directed graph via partition refinement, the summary
graph ``Bisim(G)`` with its hash-table reverse ``Bisim^{-1}``.  Sec. 3.2
maintenance re-refines from the old partition through the same worklist
(:func:`~repro.bisim.refinement.refine_blocks`), seeded with the blocks
an edge update can unsettle (:meth:`repro.core.index.BiGIndex.insert_edge`).
"""
