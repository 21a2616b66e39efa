"""Step budgets for potentially explosive computations.

Every leading-term cancellation in the division algorithm and every S-pair
formed costs one step, charged under its phase; minor expansions in
determinant work are charged here too.  Exhausting a budget raises
:class:`BudgetExhausted`, which names the phase, and callers surface that
as an inconclusive outcome rather than an answer.
"""

from __future__ import annotations

DEFAULT_STEPS = 10**6


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
