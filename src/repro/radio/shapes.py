"""Reusable compiled-schedule geometry: the schedule-shape cache.

The feedback routines compile their oblivious repetition loops into
:class:`~repro.radio.network.RoundSchedule` batches.  Long-lived callers —
one f-AME run, the no-surrogate baseline, a bench loop — invoke them
hundreds of times with identical ``(participants, channels, slots,
repetitions)`` geometry, and before this cache every invocation rebuilt the
same per-round listener buckets, round metadata, transmitter templates and
listener-stream tables from scratch.

A :class:`ScheduleShapeCache` owns those *shape* objects and hands them
back across invocations:

* :meth:`buckets` — a :class:`BucketBlock` of pre-allocated per-channel
  listener lists for a whole batch of rounds, cleared in place on reuse
  (the listener groups are indexed by channel *position*, so the hot
  transpose from hop matrices avoids a dict hash per listener-round);
* :meth:`meta` — interned immutable :class:`RoundMeta` objects;
* :meth:`streams` — the listener stream table for a ``(namespace, label,
  nodes)`` key, short-circuiting one registry key construction + lookup
  per listener per invocation (the stream objects and their state remain
  the registry's own; a different registry under the same key rebuilds);
* :meth:`memo` — a bounded generic memo used for static transmitter
  templates (the per-slot rank→channel maps live inside the cached
  templates, so rank maps are reused along with them).

Everything cached here is shape, never content: buckets are cleared before
reuse, metadata and template frames are immutable, and nothing observable
changes whether a cache is shared or fresh per invocation —
``tests/test_feedback_pipeline.py`` asserts exactly that, and the golden
digests of ``tests/test_golden.py`` pin the outputs either way.  Consumers must not
retain a listener group past the invocation that produced it (the same
rule the engine's reusable :class:`AdversaryView` already imposes).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence

from ..rng import RngRegistry
from .network import RoundMeta

_MEMO_CAP = 1024
"""Entries per memo table before it is dropped wholesale (callers with
unbounded key churn — e.g. per-move witness templates — stay bounded)."""


class BucketBlock:
    """``rounds`` pre-allocated channel→listeners buckets over a fixed
    channel tuple, reusable in place.

    ``rows[i]`` is round ``i``'s buckets indexed by channel *position*
    (the hot fill path); ``listens[i]`` is the same lists viewed as the
    channel→listeners dict a :class:`CompiledRound` expects, pre-seeded
    with every channel in order; ``index`` maps channel id → position.
    """

    __slots__ = ("channels", "rows", "listens", "index")

    def __init__(self, channels: Sequence[int], rounds: int) -> None:
        self.channels = tuple(channels)
        self.rows: list[list[list[int]]] = [
            [[] for _ in self.channels] for _ in range(rounds)
        ]
        self.listens: list[dict[int, list[int]]] = [
            dict(zip(self.channels, row)) for row in self.rows
        ]
        self.index: dict[int, int] = {
            c: i for i, c in enumerate(self.channels)
        }

    def reset(self) -> None:
        """Clear every bucket in place (the dict views stay valid)."""
        for row in self.rows:
            for bucket in row:
                bucket.clear()


class ScheduleShapeCache:
    """Per-caller cache of compiled-schedule shape (see module docstring).

    Instances are cheap; the feedback routines create an ephemeral one per
    invocation when the caller passes none, so sharing is purely an
    amortization decision.  Not thread-safe (neither is the engine): a
    cache serves one logical caller at a time, and a bucket block is
    recycled only after the invocation that used it has folded its
    results.
    """

    __slots__ = ("_buckets", "_metas", "_streams", "_memo")

    def __init__(self) -> None:
        self._buckets: dict[tuple, BucketBlock] = {}
        self._metas: dict[tuple, RoundMeta] = {}
        self._streams: dict[tuple, tuple[RngRegistry, list[random.Random]]] = {}
        self._memo: dict[tuple, object] = {}

    def buckets(self, channels: Sequence[int], rounds: int) -> BucketBlock:
        """A cleared :class:`BucketBlock` for ``rounds`` rounds over
        ``channels`` (allocated on first use per geometry)."""
        key = (tuple(channels), rounds)
        block = self._buckets.get(key)
        if block is None:
            block = self._buckets[key] = BucketBlock(channels, rounds)
        else:
            block.reset()
        return block

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
