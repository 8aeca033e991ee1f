"""A bounded-energy adversary, after the related-work model of [14, 17].

The paper contrasts its unbounded-interference adversary with prior work that
bounds the *total* number of adversarial transmissions.  Wrapping any strategy
in :class:`BudgetAdversary` reproduces that weaker model: once the global
budget is spent, the wrapped adversary goes silent, and protocols that merely
outlast interference start succeeding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..radio.messages import Transmission
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView


class BudgetAdversary(Adversary):
    """Enforce a total-transmission budget on an inner strategy.

    Parameters
    ----------
    inner:
        The wrapped strategy.
    total_budget:
        Maximum number of (channel, round) transmissions across the whole
        execution.  When a round's plan would overflow the remainder, the
        plan is truncated (lowest channels first, for determinism).
    """

    def __init__(self, inner: Adversary, total_budget: int) -> None:
        if total_budget < 0:
            raise ConfigurationError("total_budget must be >= 0")
        self._inner = inner
        self._total_budget = total_budget
        self._spent = 0
        self.needs_history = inner.needs_history

    @property
    def remaining(self) -> int:
        """Transmissions still available."""
        return self._total_budget - self._spent

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        if self.remaining <= 0:
            return ()
        plan = sorted(self._inner.act(view), key=lambda tx: tx.channel)
        plan = plan[: self.remaining]
        self._spent += len(plan)
        return tuple(plan)

    def reset(self) -> None:
        self._spent = 0
        self._inner.reset()
