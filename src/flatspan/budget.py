"""Step budgets, and the two exception types that are not bugs.

Every leading-term cancellation in the division algorithm and every S-pair
formed costs one step, charged under its phase; minor expansions in
determinant work are charged here too.  Exhausting a budget raises
:class:`BudgetExhausted`, which names the phase: an inconclusive verdict,
exit code 3.  Bad input of any kind raises an :class:`InputError`: an error
verdict, or exit code 2.  Any other exception is a bug and a traceback,
whatever status the process exits with.
"""

from __future__ import annotations

DEFAULT_STEPS = 10**6


class InputError(ValueError):
    """A document, request, flag, polynomial text or stored report that
    cannot be handled as given, or an exponent past the cap."""


class BudgetExhausted(RuntimeError):
    def __init__(self, limit: int, phase: str):
        super().__init__(f"step budget of {limit} exhausted during {phase}")
        self.limit = limit
        self.phase = phase


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int = DEFAULT_STEPS):
        if limit <= 0:
            raise ValueError("budget limit must be positive")
        self.limit = limit
        self.used = 0

    def spend(self, n: int, phase: str):
        self.used += n
        if self.used > self.limit:
            raise BudgetExhausted(self.limit, phase)
