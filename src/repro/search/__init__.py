"""Keyword search algorithms.

Implements the three algorithm families the paper plugs into BiG-index:

* :mod:`repro.search.banks` — BANKS-style backward keyword search
  (``bkws``, Sec. 5.1; Bhalotia et al., ICDE 2002).
* :mod:`repro.search.blinks` — Blinks ranked keyword search
  (``rkws``, Sec. 5.3; He et al., SIGMOD 2007), its distance index
  substituted by per-query backward expansion.
* :mod:`repro.search.rclique` — r-clique distance-based keyword search
  (``dkws``, Sec. 5.2; Kargar & An, PVLDB 2011).

Each exposes the :class:`~repro.search.base.KeywordSearchAlgorithm`
interface so BiG-index can evaluate it on any layer of the hierarchy.
"""
