"""Process-wide instrumentation switch and the authoritative expansion tap.

Hot-path contract
-----------------
All instrumented code gates on the module-level singleton::

    from repro.obs.runtime import OBS
    ...
    if OBS.enabled:
        OBS.metrics.inc("refine.rounds", rounds)

``OBS.enabled`` is a plain attribute read — when observability is off the
entire cost is that one check (plus, for spans, a shared no-op context
manager).  Code must *never* cache ``OBS.tracer``/``OBS.metrics`` across
calls: :func:`instrumented` swaps them for the duration of one traced
operation.

Enabling is scoped, not global-mutable-state-forever::

    with instrumented() as inst:
        evaluator.evaluate(query)
    print(inst.metrics.format())
    print(inst.tracer.format_tree())

The context manager saves and restores the previous state, so nested or
re-entrant uses (bench inside verify inside a traced CLI call) compose.

Authoritative expansion counting
--------------------------------
:func:`charge_expansions` is the searchers' tap for node expansions.  It
increments the ``search.expansions`` metric *and* charges the
:class:`~repro.utils.budget.Budget` with the same amount — metric
first, so the increment that trips the budget cap is observed on both
sides.  The evaluator's own per-item charges go through
:meth:`~repro.core.evaluator.EvalResult.charge` instead, which tallies
first and publishes the tally once per attempt.  ``Budget.charge``
itself increments ``budget.expansions`` before raising, so after any
search or evaluation (completed or budget-exceeded)::

    metrics.counter("search.expansions") == budget.expansions

holds exactly; the fault-injection parity drill in ``verify/faults.py``
enforces it across the budget ladder.  Nothing calls ``budget.charge``
directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.budget import Budget


class Instrumentation:
    """The current tracer + metrics pair and the master on/off flag."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer: Tracer = NULL_TRACER
        self.metrics: MetricsRegistry = NULL_METRICS


#: Process-wide instrumentation state.  Read ``OBS.enabled`` in hot paths;
#: reconfigure only through :func:`instrumented`.
OBS = Instrumentation()


@contextmanager
def instrumented(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    *,
    trace: bool = True,
) -> Iterator[Instrumentation]:
    """Enable instrumentation for the duration of the block.

    Parameters
    ----------
    tracer, metrics:
        Pre-built sinks to record into; fresh ones are created when
        omitted.  ``trace=False`` forces the null tracer (metrics-only
        mode) — used by the verify/bench harnesses, where span volume
        over thousands of queries would be unbounded but counters are
        cheap.

    Yields the active :class:`Instrumentation`, whose ``tracer`` and
    ``metrics`` remain readable after the block exits.
    """
    handle = Instrumentation()
    handle.enabled = True
    handle.tracer = (tracer or Tracer()) if trace else NULL_TRACER
    handle.metrics = metrics or MetricsRegistry()

    saved = (OBS.enabled, OBS.tracer, OBS.metrics)
    OBS.enabled = True
    OBS.tracer = handle.tracer
    OBS.metrics = handle.metrics
    try:
        yield handle
    finally:
        OBS.enabled, OBS.tracer, OBS.metrics = saved


def charge_expansions(budget: Optional[Budget], amount: int = 1) -> None:
    """Count ``amount`` node expansions — the searchers' tap.

    Increments the ``search.expansions`` counter (when instrumentation is
    on) and then charges ``budget`` (when one is given).  The metric is
    bumped first so the expansion that raises
    :class:`~repro.utils.errors.BudgetExceeded` is still counted,
    keeping the counter equal to ``budget.expansions`` on every exit
    path.
    """
    if amount <= 0:
        return
    if OBS.enabled:
        OBS.metrics.inc("search.expansions", amount)
    if budget is not None:
        budget.charge(amount)
