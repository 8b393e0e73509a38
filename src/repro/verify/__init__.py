"""Differential correctness harness for the BiG-index.

The paper's central claim (Lemma 4.1 / Prop. 5.1-5.2) is that evaluating a
query *through* the generalized hierarchy returns exactly the answers a
direct search on the data graph would.  This package checks that claim
systematically:

* :mod:`repro.verify.oracle` — a **differential oracle** that runs every
  plugged algorithm both directly on ``G`` and through
  :class:`~repro.core.evaluator.HierarchicalEvaluator` at every layer, and
  diffs the results.
* :mod:`repro.verify.auditor` — a **bisimulation invariant auditor** that
  re-derives each layer's defining equations (partition validity, ``chi`` /
  ``Spec`` round-trips, label and path preservation, size accounting).
* :mod:`repro.verify.drill` — the **drill spine** of every other leg: one
  :class:`Report`, one op vocabulary, one loop (apply an op to every side,
  then let the probes compare the sides).  On it:
  :mod:`~repro.verify.probes` (cached == uncached, save → load, sharded ==
  monolithic), :mod:`~repro.verify.fuzzer` (the **metamorphic fuzzer**:
  random maintenance sequences == a from-scratch rebuild, failures shrunk
  to minimal reproducers), :mod:`~repro.verify.shardcheck`,
  :mod:`~repro.verify.servecheck` (live server), and beside it
  :mod:`~repro.verify.chaoscheck` (crash recovery) and
  :mod:`~repro.verify.faults` (fault injection).

:mod:`repro.verify.runner` packages them into the ``repro-bigindex
verify`` CLI subcommand that CI runs on every push.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verify.auditor": ("AuditReport", "Violation", "audit_index"),
    "repro.verify.drill": ("Report",),
    "repro.verify.faults": ("run_fault_injection",),
    "repro.verify.fuzzer": ("FuzzFailure", "fuzz_index", "shrink_ops"),
    "repro.verify.oracle": ("DifferentialOracle", "Divergence", "OracleReport"),
    "repro.verify.runner": ("VerifyReport", "run_verification"),
})
