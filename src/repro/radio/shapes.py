"""Reusable compiled-schedule geometry: the schedule-shape cache.

The feedback routines compile their oblivious repetition loops into
:class:`~repro.radio.network.RoundSchedule` batches.  Long-lived callers —
one f-AME run, the no-surrogate baseline, a bench loop — invoke them
hundreds of times with identical ``(participants, channels, slots,
repetitions)`` geometry, and rebuilding the same round metadata,
transmitter templates and listener-stream tables per invocation would be
pure waste.

A :class:`ScheduleShapeCache` owns those *shape* objects and hands them
back across invocations:

* :meth:`meta` — interned immutable :class:`RoundMeta` objects;
* :meth:`streams` — the listener stream table for a ``(namespace, label,
  nodes)`` key, short-circuiting one registry key construction + lookup
  per listener per invocation (the stream objects and their state remain
  the registry's own; a different registry under the same key rebuilds);
* :meth:`memo` — a bounded generic memo used for static transmitter
  templates (the per-slot rank→channel maps live inside the cached
  templates, so rank maps are reused along with them).

Everything cached here is shape, never content: metadata and template
frames are immutable, and nothing observable changes whether a cache is
shared or fresh per invocation — ``tests/test_feedback_pipeline.py``
asserts exactly that, and the golden digests of ``tests/test_golden.py``
pin the outputs either way.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from ..rng import RngRegistry
from .network import RoundMeta

_MEMO_CAP = 1024
"""Entries per memo table before it is dropped wholesale (callers with
unbounded key churn — e.g. per-move witness templates — stay bounded)."""


class ScheduleShapeCache:
    """Per-caller cache of compiled-schedule shape (see module docstring).

    Instances are cheap; the feedback routines create an ephemeral one per
    invocation when the caller passes none, so sharing is purely an
    amortization decision.  Not thread-safe (neither is the engine): a
    cache serves one logical caller at a time.
    """

    __slots__ = ("_metas", "_streams", "_memo")

    def __init__(self) -> None:
        self._metas: dict[tuple, RoundMeta] = {}
        self._streams: dict[tuple, tuple[RngRegistry, list[random.Random]]] = {}
        self._memo: dict[tuple, object] = {}

    def meta(self, phase: str, **extra: object) -> RoundMeta:
        """The interned :class:`RoundMeta` for ``phase`` + ``extra``."""
        try:
            key = (phase, tuple(sorted(extra.items())))
        except TypeError:  # unorderable extra values: build uncached
            return RoundMeta(phase=phase, extra=dict(extra))
        meta = self._metas.get(key)
        if meta is None:
            if len(self._metas) >= _MEMO_CAP:
                self._metas.clear()
            meta = self._metas[key] = RoundMeta(
                phase=phase, extra=dict(extra)
            )
        return meta

    def streams(
        self,
        rng: RngRegistry,
        namespace: object,
        label: str,
        nodes: Iterable[int],
    ) -> list[random.Random]:
        """The streams ``rng.stream(namespace, label, node)`` for ``nodes``,
        in order, built once per ``(namespace, label, nodes)`` key.

        The key stringifies ``namespace`` exactly like the registry does,
        so two namespace spellings that alias in the registry alias here
        too.  The table is pinned to the registry that built it: a lookup
        with a different registry object rebuilds (and repins), so at most
        one registry is retained per key.
        """
        nodes = tuple(nodes)
        key = (str(namespace), label, nodes)
        entry = self._streams.get(key)
        if entry is not None and entry[0] is rng:
            return entry[1]
        if len(self._streams) >= _MEMO_CAP:
            self._streams.clear()
        table = rng.stream_block(namespace, label, nodes=nodes)
        self._streams[key] = (rng, table)
        return table

    def memo(self, key: tuple, build: Callable[[], object]) -> object:
        """Generic bounded memo: ``build()`` once per hashable ``key``.

        Used for static transmitter templates (immutable frames, so
        sharing one dict across rounds *and* invocations is safe — the
        engine already shares one template across a schedule's rounds).
        Unhashable keys simply build uncached.
        """
        try:
            value = self._memo.get(key)
        except TypeError:
            return build()
        if value is None:
            if len(self._memo) >= _MEMO_CAP:
                self._memo.clear()
            value = self._memo[key] = build()
        return value
