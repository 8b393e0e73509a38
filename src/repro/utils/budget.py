"""Execution budgets: deadlines, expansion caps, cooperative cancellation.

The paper's searches are unbounded — a pathological query on a dense
layer can spin for as long as the graph allows.  A :class:`Budget` makes
every search leg *cooperatively* bounded: the searchers and the
hierarchical evaluator charge it one unit per node expansion, and the
charge raises :class:`~repro.utils.errors.BudgetExceeded` the moment any
limit trips.  The raiser attaches whatever sound partial answers it has,
so callers can degrade gracefully instead of failing
(see ``docs/ROBUSTNESS.md``).

Three independent limits, any subset of which may be set:

* ``deadline`` — wall-clock seconds from budget creation.  Elapsed time
  is measured monotonically even under clock skew: a clock that jumps
  backward never *un*-expires a budget (expiry is sticky, and the
  largest observed elapsed value wins).
* ``max_expansions`` — total node expansions across every search leg the
  budget is threaded through, giving deterministic, machine-independent
  bounds (the fault-injection harness relies on this).
* ``token`` — a :class:`CancellationToken` another thread or callback
  can trip; the next charge observes it.

``sub()`` carves a child budget out of the remaining allowance; charges
to the child propagate to the parent, so "retry the remaining budget on
a coarser layer" is just charging the same parent again.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.utils.errors import BudgetExceeded
from repro.utils.timers import monotonic_now

#: Budget charge reasons, in check order.
REASONS = ("cancelled", "expansions", "deadline")


class CancellationToken:
    """A latch for cooperative cancellation.

    ``cancel()`` may be called from any thread; budgets observe it on
    their next charge.  Once cancelled, a token stays cancelled.
    """

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Trip the token; every budget sharing it expires on next check."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancellationToken(cancelled={self._cancelled})"


class Budget:
    """A cooperative execution budget threaded through search legs.

    Parameters
    ----------
    deadline:
        Wall-clock seconds allowed from construction; ``None`` = no
        time limit.
    max_expansions:
        Node expansions allowed; ``None`` = no expansion limit.
    token:
        Shared :class:`CancellationToken`; ``None`` creates a private one.
    clock:
        Seconds-returning callable (default
        :data:`repro.utils.timers.monotonic_now`, the repo-wide
        monotonic clock shared with the bench harness and tracer).
        Injectable for deterministic tests and clock-skew fault drills.
    """

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_expansions: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = monotonic_now,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative")
        if max_expansions is not None and max_expansions < 0:
            raise ValueError("max_expansions must be non-negative")
        self.deadline = deadline
        self.max_expansions = max_expansions
        self.token = token if token is not None else CancellationToken()
        self._clock = clock
        self._start = clock()
        self._max_elapsed = 0.0
        self.expansions = 0
        self._expired_reason: Optional[str] = None
        self._parent: Optional["Budget"] = None

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Monotone elapsed seconds: backward clock jumps never reduce it."""
        now = self._clock() - self._start
        if now > self._max_elapsed:
            self._max_elapsed = now
        return self._max_elapsed

    def remaining_time(self) -> Optional[float]:
        """Seconds left before the deadline, or ``None`` without one."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def remaining_expansions(self) -> Optional[int]:
        """Expansions left, or ``None`` without an expansion cap."""
        if self.max_expansions is None:
            return None
        return max(0, self.max_expansions - self.expansions)

    def affords(self, expansions: float) -> bool:
        """Whether charging ``expansions`` more trips no expansion cap,
        this budget's or a parent's (``inf``: an unknown amount)."""
        left = self.remaining_expansions()
        return (left is None or expansions < left) and (
            self._parent is None or self._parent.affords(expansions)
        )

    # ------------------------------------------------------------------
    def exhausted_reason(self) -> Optional[str]:
        """The tripped limit's reason, or ``None``.  Expiry is sticky."""
        if self._expired_reason is not None:
            return self._expired_reason
        reason: Optional[str] = None
        if self.token.cancelled:
            reason = "cancelled"
        elif (
            self.max_expansions is not None
            and self.expansions >= self.max_expansions
        ):
            reason = "expansions"
        elif self.deadline is not None and self.elapsed() >= self.deadline:
            reason = "deadline"
        elif self._parent is not None:
            reason = self._parent.exhausted_reason()
        if reason is not None:
            self._expired_reason = reason
        return reason

    @property
    def exhausted(self) -> bool:
        return self.exhausted_reason() is not None

    def charge(self, expansions: int = 1) -> None:
        """Record ``expansions`` node expansions, then enforce every limit.

        Raises :class:`BudgetExceeded` the first time a limit trips.
        ``charge(0)`` is a pure checkpoint (deadline/cancellation probe)
        for loops whose per-iteration work is not expansion-shaped.
        """
        self.expansions += expansions
        if self._parent is not None:
            # Parent counts (and may trip) first: its limits dominate.
            self._parent.expansions += expansions
            parent_reason = self._parent.exhausted_reason()
            if parent_reason is not None:
                self._expired_reason = parent_reason
                raise BudgetExceeded(parent_reason, expansions=self.expansions)
        reason = self.exhausted_reason()
        if reason is not None:
            raise BudgetExceeded(reason, expansions=self.expansions)

    def check(self) -> None:
        """Checkpoint without charging (same as ``charge(0)``)."""
        self.charge(0)

    # ------------------------------------------------------------------
    def sub(self, fraction: float = 0.5) -> "Budget":
        """A child budget over ``fraction`` of the remaining allowance.

        The child shares the token and clock; its charges propagate to
        this (parent) budget, so after the child trips, retrying against
        the parent naturally runs on whatever the child left unspent.
        The child is guaranteed at least one expansion and a strictly
        positive time slice so progress is always possible.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        rem_exp = self.remaining_expansions()
        rem_time = self.remaining_time()
        child = Budget(
            deadline=(
                None if rem_time is None else max(rem_time * fraction, 1e-9)
            ),
            max_expansions=(
                None if rem_exp is None else max(1, int(rem_exp * fraction))
            ),
            token=self.token,
            clock=self._clock,
        )
        child._parent = self
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Budget(deadline={self.deadline}, "
            f"max_expansions={self.max_expansions}, "
            f"expansions={self.expansions}, "
            f"exhausted={self._expired_reason!r})"
        )
