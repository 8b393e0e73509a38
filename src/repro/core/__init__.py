"""The BiG-index core: the paper's primary contribution.

* :mod:`repro.core.config` — generalization configurations ``C``.
* :mod:`repro.core.generalize` — the ``Gen`` / ``Spec`` label rewrites.
* :mod:`repro.core.cost` — the index cost model (Formula 3) with
  sampling-based compression estimation.
* :mod:`repro.core.heuristic` — Algorithm 1's greedy configuration search.
* :mod:`repro.core.index` — the hierarchical :class:`BiGIndex` itself
  (Def. 3.1) with maintenance.
* :mod:`repro.core.query_cost` — the query-generalization cost model
  (Formula 4) and optimal-layer selection (Def. 4.1).
* :mod:`repro.core.answer_gen` — Algorithm 3 vertex-at-a-time answer
  generation with specialization ordering.
* :mod:`repro.core.path_answer_gen` — Algorithm 4 path-based generation.
* :mod:`repro.core.evaluator` — Algorithm 2, the hierarchical query
  processor ``eval_Ont``.
* :mod:`repro.core.plugins` — boost-bkws / boost-dkws / boost-rkws.
"""
