"""The adversary interface.

An adversary is a strategy object whose decision method,
:meth:`Adversary.act`, is called once per round by the network *after*
honest actions are fixed but shown only the
:class:`~repro.radio.network.AdversaryView` (past history + public
metadata).  It returns at most ``t`` transmissions on distinct channels; the
network validates the budget and raises
:class:`~repro.errors.ProtocolViolation` on cheating attempts.

A strategy whose moves depend on nothing but its own coins and the rounds'
public metadata may also *plan*: :meth:`Adversary.plan_schedule` returns a
whole schedule's moves before the schedule's first round, and the network
then asks it nothing per round.  In the Section 3 model the adversary acts
on completed history and the round's public metadata only, so a strategy
that reads neither history nor the live view loses nothing by deciding
early — provided it draws its coins in the same order ``act`` would, so
planned and per-round runs are byte-identical.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from ..radio.messages import Transmission

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView, RoundMeta


class Adversary(abc.ABC):
    """Base class for adversary strategies.

    Subclasses override :meth:`act`.  Strategies that consult past rounds
    must set :attr:`needs_history` to ``True`` so the network refuses to run
    them with trace retention disabled.  A strategy may keep state across
    rounds and serves one execution; an independent run takes a fresh
    instance.  The restricted-listening model
    (:mod:`repro.extensions.restricted_listening`) is one such acting
    strategy: it redacts the history it is handed before its inner
    strategy sees it.
    """

    #: Whether this strategy reads ``view.history``.
    needs_history: bool = False

    @abc.abstractmethod
    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        """Return this round's transmissions (at most ``view.t``, distinct
        channels).  Implementations must not mutate the view."""

    def plan_schedule(
        self, view: "AdversaryView", metas: Sequence["RoundMeta"]
    ) -> Sequence[Sequence[Transmission]] | None:
        """Every move of a schedule at once, or ``None`` to act per round.

        ``view`` is the view of the schedule's first round and ``metas``
        the public metadata of each round that will run, in order.  Move
        ``k`` must equal what :meth:`act` would return in round ``k``, and
        the strategy's coins must end where ``len(metas)`` :meth:`act` calls
        would leave them.  So plan only when the moves depend on nothing
        but the strategy's own coins and ``metas`` (never ``view.history``
        or state another party changes mid-schedule), drawing those coins
        in ``act``'s order.  Returning one object for equal moves is
        cheaper: the network validates each distinct move once.  The
        default keeps acting per round.
        """
        return None
