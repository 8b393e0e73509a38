"""Shared utilities: errors, execution budgets, and timers."""
