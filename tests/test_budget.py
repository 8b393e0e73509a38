"""Tests for execution budgets (deadlines, caps, cancellation)."""

import pytest

from repro.utils.budget import Budget, CancellationToken
from repro.utils.errors import BigIndexError, BudgetExceeded


class FakeClock:
    """Scripted clock; repeats its last value when the script runs out."""

    def __init__(self, *values):
        self.values = list(values)
        self.i = 0

    def __call__(self):
        value = self.values[min(self.i, len(self.values) - 1)]
        self.i += 1
        return value


class TestExpansionCap:
    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        for _ in range(1000):
            budget.charge(10)
        assert not budget.exhausted

    def test_trips_at_cap(self):
        budget = Budget(max_expansions=5)
        budget.charge(4)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(1)
        assert excinfo.value.reason == "expansions"
        assert excinfo.value.expansions == 5

    def test_bulk_charge_can_overshoot_but_still_trips(self):
        budget = Budget(max_expansions=3)
        with pytest.raises(BudgetExceeded):
            budget.charge(10)
        assert budget.expansions == 10

    def test_remaining_expansions_never_negative(self):
        budget = Budget(max_expansions=3)
        with pytest.raises(BudgetExceeded):
            budget.charge(10)
        assert budget.remaining_expansions() == 0

    def test_check_is_free(self):
        budget = Budget(max_expansions=1)
        for _ in range(10):
            budget.check()
        assert budget.expansions == 0

    def test_affords_exactly_what_trips_no_cap(self):
        budget = Budget(max_expansions=5)
        budget.charge(2)
        assert budget.affords(2) and not budget.affords(3)
        assert not budget.affords(float("inf"))
        assert Budget(deadline=60).affords(float("inf"))

    def test_is_a_bigindex_error(self):
        assert issubclass(BudgetExceeded, BigIndexError)

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_expansions=-1)
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)


class TestDeadline:
    def test_trips_past_deadline(self):
        budget = Budget(deadline=5.0, clock=FakeClock(0.0, 6.0))
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(1)
        assert excinfo.value.reason == "deadline"

    def test_elapsed_is_monotone_under_backward_jump(self):
        budget = Budget(deadline=100.0, clock=FakeClock(0.0, 10.0, 3.0, 1.0))
        assert budget.elapsed() == 10.0
        assert budget.elapsed() == 10.0  # clock says 3.0, then 1.0
        assert budget.elapsed() == 10.0

    def test_expiry_is_sticky_under_clock_skew(self):
        budget = Budget(deadline=5.0, clock=FakeClock(0.0, 6.0, 0.1, 0.1))
        with pytest.raises(BudgetExceeded):
            budget.charge(1)
        # Clock jumped back below the deadline; the budget stays expired.
        assert budget.exhausted_reason() == "deadline"
        with pytest.raises(BudgetExceeded):
            budget.charge(0)


class TestCancellation:
    def test_cancel_aborts_next_charge(self):
        token = CancellationToken()
        budget = Budget(token=token)
        budget.charge(50)
        token.cancel()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge(1)
        assert excinfo.value.reason == "cancelled"

    def test_token_is_shared_across_sub_budgets(self):
        token = CancellationToken()
        parent = Budget(max_expansions=100, token=token)
        child = parent.sub(0.5)
        token.cancel()
        with pytest.raises(BudgetExceeded) as excinfo:
            child.charge(1)
        assert excinfo.value.reason == "cancelled"


class TestSubBudgets:
    def test_child_gets_fraction_of_remaining(self):
        parent = Budget(max_expansions=100)
        parent.charge(20)
        child = parent.sub(0.5)
        assert child.max_expansions == 40

    def test_child_charges_propagate_to_parent(self):
        parent = Budget(max_expansions=100)
        child = parent.sub(0.5)
        with pytest.raises(BudgetExceeded):
            while True:
                child.charge(1)
        assert parent.expansions == child.expansions
        # The parent still has headroom for a retry.
        assert not parent.exhausted
        parent.charge(parent.remaining_expansions() - 1)

    def test_parent_exhaustion_trips_child(self):
        parent = Budget(max_expansions=10)
        child = parent.sub(1.0)
        parent.expansions = 10  # e.g. spent by a sibling attempt
        with pytest.raises(BudgetExceeded) as excinfo:
            child.charge(1)
        assert excinfo.value.reason == "expansions"

    def test_child_affords_only_what_the_parent_does(self):
        parent = Budget(max_expansions=10)
        child = parent.sub(1.0)
        parent.expansions = 8  # e.g. spent by a sibling attempt
        assert child.affords(1) and not child.affords(2)

    def test_child_always_gets_some_allowance(self):
        parent = Budget(max_expansions=1)
        child = parent.sub(0.5)
        assert child.max_expansions >= 1

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            Budget().sub(0.0)
        with pytest.raises(ValueError):
            Budget().sub(1.5)
