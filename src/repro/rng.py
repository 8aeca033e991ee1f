"""Deterministic, named random-number substreams.

Every source of randomness in the library flows through a :class:`RngRegistry`
so that an entire experiment is replayable bit-for-bit from a single integer
seed.  Each consumer asks the registry for a *named* substream; the substream
seed is derived by hashing the master seed together with the name, which makes
streams independent of the order in which they are requested.

The paper's model (Section 3) distinguishes the honest nodes' coins from the
adversary's coins, and assumes the adversary learns honest coins only at the
end of each round.  Keeping the streams separate in code makes it impossible
for an adversary implementation to accidentally consume (and thereby observe)
honest randomness.

Hop streams: private coins in counter mode
------------------------------------------
The protocols here are *oblivious*: every private hop is a coin flip drawn
independently of anything observed mid-phase, and the adversary of
Section 3 sees honest coins only after each round.  All the model asks of
these coins is that they be private and independent of the adversary's.
A :class:`HopStream` holds one node's hop coins over ``range(n)`` in
counter mode, keyed by the node's full 32-byte name digest
(:func:`name_digest`, whose first eight bytes seed a plain
:meth:`RngRegistry.stream`): block ``k`` of the stream is
``shake_128(key || k).digest(HOP_BLOCK)``, and one ``translate`` maps each
block to values that are exactly uniform.
:meth:`HopStream.take` serves whole blocks from a buffer, so the values a
stream hands out are one fixed sequence however the takes split it.  The
registry hands hop streams out (:meth:`RngRegistry.hops`); their one
consumer is :func:`repro.radio.network.private_hop_rows`, which lays out
every private hop of every oblivious phase.  The hop values are versioned
by :data:`RANDOMNESS_VERSION`.

In-step draws: the interpreter-mirroring invariant
--------------------------------------------------
A generator the caller keeps drawing from — an oblivious jammer's, which
also feeds ``sample`` — stays a :class:`random.Random`, and its draws must
leave it exactly where a ``choice`` loop would.  :class:`BlockDrawer` is
the in-step primitive for such *borrowed* generators: one uniform draw
from ``range(n)`` is ``getrandbits(n.bit_length())`` rejection-sampled
until the value is ``< n`` (CPython's ``_randbelow_with_getrandbits``,
under both ``choice`` and single-argument ``randrange``), and a block
draw consumes byte-identical generator state to that many draws, so the
generator stops on exactly the word a ``choice`` loop would.
:func:`draw_uniform_indices` is the same chain one draw at a time.

Example
-------
>>> reg = RngRegistry(seed=7)
>>> a = reg.stream("node", 3)
>>> b = reg.stream("adversary")
>>> a.randrange(10) == RngRegistry(seed=7).stream("node", 3).randrange(10)
True
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable
from functools import cache

from .errors import ConfigurationError

_MASK_64 = (1 << 64) - 1

RANDOMNESS_VERSION = 2
"""The version of what a seed yields.  Any change to the hop values or
frames a seed produces moves it: it is part of every sweep fingerprint
and journal header, so a journal recorded on other coins is never
resumed.  (1: Mersenne-Twister hop streams and a fresh seal per keyed
round; 2: counter-mode hop streams and one seal per keyed epoch.)"""

HOP_BLOCK = 512
"""Bytes per counter-mode block of a :class:`HopStream`."""


def name_digest(master_seed: int, *name_parts: object) -> bytes:
    """The 32-byte SHA-256 digest naming a substream.

    The derivation hashes the canonical string representation of the parts,
    so any hashable/printable identifiers (strings, ints, tuples) may be
    used as name components.
    """
    material = repr((master_seed,) + tuple(str(p) for p in name_parts))
    return hashlib.sha256(material.encode("utf-8")).digest()


def derive_seed(master_seed: int, *name_parts: object) -> int:
    """Derive a 64-bit substream seed from ``master_seed`` and a name: the
    first eight bytes of its :func:`name_digest`."""
    digest = name_digest(master_seed, *name_parts)
    return int.from_bytes(digest[:8], "big") & _MASK_64


def derive_seeds(
    master_seed: int, *prefix_parts: object, count: int
) -> list[int]:
    """Bulk trial-seed derivation: the seeds of
    ``RngRegistry(master_seed).spawn(*prefix_parts, i)`` for ``i`` in
    ``range(count)``, without constructing any intermediate registries.

    One SHA-256 per index over a precomputed prefix (the spawn tuple's
    ``repr`` is reopened per index), so sweep/Monte Carlo planners can
    derive thousands of trial seeds in a single hashlib loop.  Proven
    identical to the per-call ``spawn(...).seed`` path by
    ``tests/test_rng.py``.
    """
    base = (master_seed, "spawn") + tuple(str(p) for p in prefix_parts)
    prefix = repr(base)[:-1]  # "(seed, 'spawn', ...": reopened per index
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    out: list[int] = []
    append = out.append
    for i in range(count):
        digest = sha256(f"{prefix}, '{i}')".encode("utf-8")).digest()
        append(from_bytes(digest[:8], "big") & _MASK_64)
    return out


class RngRegistry:
    """Factory for independent, reproducible named streams.

    A name is either a :class:`random.Random` (:meth:`stream`) or a
    :class:`HopStream` (:meth:`hops`), never both: the two kinds share one
    cache, and asking for a name as the other kind, or as a hop stream
    with another range size, raises :class:`ConfigurationError`.

    Parameters
    ----------
    seed:
        Master seed.  Two registries with the same seed produce identical
        substreams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[tuple[str, ...], random.Random | HopStream] = {}
        self._tables: dict[tuple, list[HopStream]] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was created with."""
        return self._seed

    def stream(self, *name_parts: object) -> random.Random:
        """Return the substream for ``name_parts``, creating it on demand.

        Repeated calls with the same name return the *same* stream object,
        so state advances across calls; use distinct names for independent
        streams.
        """
        key = tuple(str(p) for p in name_parts)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, *key))
            self._streams[key] = stream
        elif type(stream) is HopStream:
            raise ConfigurationError(
                f"stream {key!r} is a hop stream; only it may draw from "
                "its generator"
            )
        return stream

    def fresh(self, *name_parts: object) -> random.Random:
        """Return a brand-new stream seeded for ``name_parts``.

        Unlike :meth:`stream`, the result is not cached: every call restarts
        from the derived seed.  Useful for replaying one component.
        """
        return random.Random(derive_seed(self._seed, *name_parts))

    def spawn(self, *name_parts: object) -> "RngRegistry":
        """Return a child registry whose master seed is derived from a name.

        Child registries let a sub-protocol (e.g. one f-AME invocation inside
        the group-key protocol) own a private namespace of streams.
        """
        return RngRegistry(derive_seed(self._seed, "spawn", *name_parts))

    def hops(
        self, *prefix_parts: object, nodes: Iterable[object], n: int
    ) -> list[HopStream]:
        """The hop streams over ``range(n)`` of ``nodes`` under
        ``prefix_parts``, in node order, creating them on demand.

        Node ``v``'s stream is keyed by ``name_digest(seed, *prefix_parts,
        v)``, and repeated calls return the same :class:`HopStream`
        objects, so coins advance across calls.  The registry keeps each
        table it hands out under ``(prefix, tuple(nodes), n)`` and returns
        that same list on a repeated call (do not mutate it): protocols
        ask for the same table once per invocation, hundreds of times a
        run.  The tuple compares node ids by value, as ``==`` does, so
        give them as plain ints.  On the first call, keys come from one
        precomputed name-``repr`` prefix and one SHA-256 per missing node
        when the prefix is non-empty and every node is a plain ``int``
        (``repr`` of a stringified int is always ``'<digits>'``-quoted, so
        the spliced material equals the full tuple ``repr``
        :func:`name_digest` hashes); anything else derives per node.
        """
        prefix = tuple(str(p) for p in prefix_parts)
        items = tuple(nodes)
        table = self._tables.get((prefix, items, n))
        if table is not None:
            return table
        fast = bool(prefix) and all(type(v) is int for v in items)
        opening = repr((self._seed,) + prefix)[:-1]
        streams = self._streams
        out: list[HopStream] = []
        append = out.append
        for v in items:
            key = prefix + (str(v),)
            hop = streams.get(key)
            if hop is None:
                if fast:
                    material = f"{opening}, '{v}')".encode("utf-8")
                    digest = hashlib.sha256(material).digest()
                else:
                    digest = name_digest(self._seed, *key)
                hop = streams[key] = HopStream(digest, n)
            elif type(hop) is not HopStream or hop.n != n:
                kind = (
                    f"a hop stream over range({hop.n})"
                    if type(hop) is HopStream
                    else "a plain stream"
                )
                raise ConfigurationError(
                    f"stream {key!r} is {kind}, not a hop stream over "
                    f"range({n})"
                )
            append(hop)
        self._tables[(prefix, items, n)] = out
        return out


def draw_uniform_indices(
    stream: random.Random, n: int, count: int
) -> list[int]:
    """``count`` uniform draws from ``range(n)``, stream-compatible with
    ``choice``.

    Consumes **exactly** the same generator state as ``count`` calls of
    ``stream.choice(seq)`` on a length-``n`` sequence: for a plain
    :class:`random.Random` the ``choice`` internals are inlined — one
    rejection chain per draw, per the interpreter-mirroring invariant in
    the module docstring — saving two Python frames per draw on hot paths
    that precompute whole hop sequences.  :class:`BlockDrawer` batches the
    same chain with amortized block pulls; the two are byte-identical.
    Exotic stream types fall back to calling ``choice`` itself.

    Raises :class:`ValueError` when ``n <= 0``: an empty range is a caller
    bug in this API, reported like ``sample``'s over-draw ``ValueError``
    (deliberately *not* ``choice``'s ``IndexError`` — ``n`` is a count
    here, not a sequence lookup).  The guard sits before either path:
    without it the fast path's rejection loop — ``getrandbits(0)`` is
    always ``0``, which is never ``< n`` — would spin forever, and the
    fallback would surface ``choice``'s ``IndexError`` instead.
    """
    if n <= 0:
        raise ValueError(f"cannot draw indices from an empty range (n={n})")
    if type(stream) is random.Random:
        k = n.bit_length()
        grb = stream.getrandbits
        out: list[int] = []
        append = out.append
        for _ in range(count):
            r = grb(k)
            while r >= n:
                r = grb(k)
            append(r)
        return out
    seq = range(n)
    return [stream.choice(seq) for _ in range(count)]


# Bulk passes only pay off while the shortfall amortizes their fixed cost
# (one getrandbits + to_bytes + slice + translate); below this the inline
# rejection chain is faster.  Tuned empirically; correctness is unaffected
# (both paths consume identical generator state).
_BULK_THRESHOLD = 24

# (value-extraction table, rejected-byte set) per range size, built once:
# channel counts recur constantly and the 256-entry tables cost more to
# build than a whole block draw.
_TABLE_CACHE: dict[int, tuple[bytes, bytes]] = {}
_TABLE_CACHE_CAP = 4096


def _byte_tables(n: int, k: int) -> tuple[bytes, bytes]:
    cached = _TABLE_CACHE.get(n)
    if cached is None:
        shift = 8 - k
        if len(_TABLE_CACHE) >= _TABLE_CACHE_CAP:
            _TABLE_CACHE.clear()
        cached = (
            bytes(b >> shift for b in range(256)),
            bytes(range(n << shift, 256)),
        )
        _TABLE_CACHE[n] = cached
    return cached


class BlockDrawer:
    """Batched uniform index draws from ``range(n)``, ``choice``-compatible.

    Materializes whole hop sequences (and, via :meth:`matrix`, whole hop
    matrices) without an interpreter round-trip per draw.  Each
    ``getrandbits(k)`` with ``0 < k <= 32`` consumes exactly one 32-bit
    Mersenne-Twister word and returns its top ``k`` bits, so one bulk
    ``getrandbits(32 * m)`` call consumes the *same* ``m`` words as ``m``
    single draws — word ``i`` sits at little-endian byte offset ``4 * i``
    of the bulk value.  For ``n < 256`` (every radio channel count) the
    draw value is therefore the high byte of its word shifted down by
    ``8 - k``, and a whole pass reduces to C-level primitives:
    ``to_bytes``, a ``[3::4]`` high-byte slice, and one
    :meth:`bytes.translate` whose delete-set drops rejected words while
    its table maps survivors to their values.  A pass pulls exactly the
    outstanding shortfall and can only complete on its final word, so the
    sampler never pulls a word the sequential rejection chain would not
    have pulled; small shortfalls (and ``n >= 256``) finish on the inline
    chain instead of paying bulk setup.  Values and post-draw generator
    state are byte-identical to :func:`draw_uniform_indices` and to a
    ``choice`` loop on every path (the module docstring's invariant;
    pinned by the hypothesis properties and the feedback gauntlets).

    Raises :class:`ValueError` on construction when ``n <= 0``, mirroring
    :func:`draw_uniform_indices` (even for zero-count draws).  Exotic
    stream types fall back to a ``choice`` loop per stream.
    """

    __slots__ = ("n", "_k", "_table", "_reject")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(
                f"cannot draw indices from an empty range (n={n})"
            )
        self.n = int(n)
        self._k = self.n.bit_length()
        if self._k <= 8:
            self._table, self._reject = _byte_tables(self.n, self._k)
        else:
            self._table = self._reject = None

    def draw(self, stream: random.Random, count: int) -> list[int]:
        """``count`` uniform draws from ``range(self.n)`` off ``stream``."""
        if type(stream) is not random.Random:
            seq = range(self.n)
            return [stream.choice(seq) for _ in range(count)]
        n = self.n
        k = self._k
        grb = stream.getrandbits
        out: list[int] = []
        short = count
        table = self._table
        if table is not None:
            reject = self._reject
            while short >= _BULK_THRESHOLD:
                raw = grb(32 * short).to_bytes(4 * short, "little")
                out += raw[3::4].translate(table, reject)
                short = count - len(out)
        if short:
            append = out.append
            for _ in range(short):
                r = grb(k)
                while r >= n:
                    r = grb(k)
                append(r)
        return out

    def matrix(
        self, streams: Iterable[random.Random], count: int
    ) -> list[list[int]]:
        """One length-``count`` hop sequence per stream, in stream order."""
        draw = self.draw
        return [draw(stream, count) for stream in streams]


@cache
def _block_tables(n: int) -> tuple[bytes, bytes]:
    """The ``translate`` table and delete set mapping a block's bytes to
    uniform values over ``range(n)``, ``0 < n <= 256``.  A power of two
    keeps each byte's high bits and drops nothing; any other ``n`` keeps
    ``b % n`` for ``b < 256 - 256 % n`` and drops the rest, so every value
    has exactly ``256 // n`` preimages."""
    if n & (n - 1) == 0:
        shift = 9 - n.bit_length()
        return bytes(b >> shift for b in range(256)), b""
    keep = 256 - 256 % n
    return bytes(b % n for b in range(256)), bytes(range(keep, 256))


class HopStream:
    """One node's private hop coins over ``range(n)``, in counter mode.

    Block ``k`` is ``shake_128(key || k).digest(HOP_BLOCK)``, with ``k`` as
    eight big-endian bytes, mapped to values by one ``translate``
    (:func:`_block_tables`).  :meth:`take` returns the next values from a
    buffer of whole blocks, so the sequence never depends on how the takes
    are split.  Only the registry makes hop streams
    (:meth:`RngRegistry.hops`), keyed by a node's private name digest.
    """

    __slots__ = ("n", "_key", "_table", "_drop", "_blocks", "_buffer", "_pos")

    def __init__(self, key: bytes, n: int) -> None:
        if not 0 < n <= 256:
            raise ValueError(
                f"hop streams draw from range(n), 0 < n <= 256; got n={n}"
            )
        self.n = n
        self._key = bytes(key)
        self._table, self._drop = _block_tables(n)
        self._blocks = 0
        self._buffer = b""
        self._pos = 0

    def take(self, count: int) -> bytes:
        """The next ``count`` values, one byte each.

        A negative ``count`` raises :class:`ValueError`: it would move the
        read position back and hand the same coins out twice.
        """
        if count < 0:
            raise ValueError(f"cannot take {count} hop values")
        pos = self._pos
        end = pos + count
        if end > len(self._buffer):
            self._refill(count)
            pos, end = 0, count
        self._pos = end
        return self._buffer[pos:end]

    def _refill(self, count: int) -> None:
        """Append whole blocks until at least ``count`` values wait."""
        parts = [self._buffer[self._pos :]]
        have = len(parts[0])
        key, table, drop = self._key, self._table, self._drop
        block = self._blocks
        while have < count:
            counter = block.to_bytes(8, "big")
            raw = hashlib.shake_128(key + counter).digest(HOP_BLOCK)
            parts.append(raw.translate(table, drop))
            have += len(parts[-1])
            block += 1
        self._blocks = block
        self._buffer = b"".join(parts)
        self._pos = 0
