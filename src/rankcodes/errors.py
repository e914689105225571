"""Shared exception types.

Budget overruns are first-class results, never silent truncation: a
truncated minimum would be an invalid bound pretending to be exact.  A
budget counts candidates; :func:`check_budget` prices each enumeration once,
before its first candidate.

Every self-check raises :class:`InvariantError`, never a bare ``assert``,
so the checks behind a printed result still run under ``python -O``.
"""

from __future__ import annotations

DEFAULT_BUDGET = 10**7
JOINT_BUDGET = 10**6  # atoms of the wiretap joint-distribution enumeration


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, count: int, budget: int, what: str):
        self.count = count
        self.budget = budget
        super().__init__(f"enumerating {count} {what} exceeds the budget of {budget}")


def check_budget(count: int, budget: int, what: str) -> None:
    """Refuse, before it starts, an enumeration of ``count`` ``what`` over ``budget``."""
    if count > budget:
        raise BudgetError(count, budget, what)


class HypothesisError(ValueError):
    """A routine with mathematical preconditions was invoked outside them."""


class InvariantError(AssertionError):
    """A self-check failed: the program computed something a theorem or an
    independent route contradicts."""


class CodeFileError(ValueError):
    """Malformed code or wiretap file; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")
