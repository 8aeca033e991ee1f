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

Hop streams: private coins drawn ahead
--------------------------------------
The protocols here are *oblivious*: every private hop is a coin flip drawn
independently of anything observed mid-phase, and the adversary of
Section 3 sees honest coins only after each round.  Drawing a node's hop
coins early therefore changes no output, as long as each generator's
values are consumed in the same order.  A :class:`HopStream` owns one
node's hop generator and one range size ``n``; :meth:`HopStream.take`
returns the next values a ``choice(range(n))`` loop on that generator
would return, served from a buffer that bulk passes refill ahead of
demand.  The registry hands hop streams out (:meth:`RngRegistry.hops`),
and nothing else ever sees their generators.  The module's invariant:

    A hop generator has produced exactly the values its stream handed out
    plus the values still buffered: its state equals that of a fresh
    generator after that many ``choice(range(n))`` draws.

The hypothesis properties in ``tests/test_schedule_properties.py`` pin
values *and* that state rule, and the golden digests of
``tests/test_golden.py`` (recorded with per-draw ``choice`` hops) pin the
callers in situ.  Their one consumer is
:func:`repro.radio.network.private_hop_rows`, which lays out every
private hop of every oblivious phase.

A generator the caller keeps drawing from — an oblivious jammer's, which
also feeds ``sample`` — cannot be drawn ahead.  :class:`BlockDrawer` is
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

from .errors import ConfigurationError

_MASK_64 = (1 << 64) - 1


def derive_seed(master_seed: int, *name_parts: object) -> int:
    """Derive a 64-bit substream seed from ``master_seed`` and a name.

    The derivation hashes the canonical string representation of the parts
    with SHA-256, so any hashable/printable identifiers (strings, ints,
    tuples) may be used as name components.
    """
    material = repr((master_seed,) + tuple(str(p) for p in name_parts))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
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

        Node ``v``'s generator is seeded exactly as ``stream(*prefix_parts,
        v)`` would seed it, and repeated calls return the same
        :class:`HopStream` objects, so coins advance across calls.  Seeds
        come from one precomputed name-``repr`` prefix and one SHA-256 per
        missing node when the prefix is non-empty and every node is a plain
        ``int`` (``repr`` of a stringified int is always
        ``'<digits>'``-quoted, so the spliced material equals the full tuple
        ``repr`` :func:`derive_seed` hashes); anything else derives per
        node.
        """
        items = list(nodes)
        prefix = tuple(str(p) for p in prefix_parts)
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
                    seed = int.from_bytes(digest[:8], "big") & _MASK_64
                else:
                    seed = derive_seed(self._seed, *key)
                hop = streams[key] = HopStream(seed, n)
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


_LOOKAHEAD = 512
"""Values a :class:`HopStream` draws, on average, past a request its
buffer cannot serve: enough to serve a dozen epochs of a repeated phase
from one bulk pass, few enough that the values a stream never hands out
stay a small share of its draws (3% of a 64-node group-key trial's, 15%
of a 256-node f-AME trial's)."""


class HopStream:
    """One node's private hop coins over ``range(n)``, drawn ahead in bulk.

    :meth:`take` returns the next values a ``choice(range(n))`` loop on the
    stream's generator would return.  The buffer behind it is refilled by
    bulk ``getrandbits(32 * m)`` passes: each ``getrandbits(k)`` with
    ``0 < k <= 32`` consumes one 32-bit Mersenne-Twister word and returns
    its top ``k`` bits, so for ``n < 256`` a draw is the high byte of its
    word shifted down by ``8 - k``, and one :meth:`bytes.translate` over
    the ``[3::4]`` high-byte slice maps accepted words to values and drops
    rejected ones.  A pass pulls enough words for the shortfall plus
    :data:`_LOOKAHEAD` values, so unlike :class:`BlockDrawer` it never
    finishes on a per-value tail; if its last word was rejected, the one
    draw that word began is completed on the spot, which keeps the module
    invariant: the generator has produced exactly the values handed out
    plus the values still buffered.  ``n = 256`` (``k = 9``) draws its
    nine-bit values one word at a time.

    Only the registry makes hop streams (:meth:`RngRegistry.hops`), and the
    generator is never handed out.
    """

    __slots__ = ("n", "_rng", "_buffer", "_pos")

    def __init__(self, seed: int, n: int) -> None:
        if not 0 < n <= 256:
            raise ValueError(
                f"hop streams draw from range(n), 0 < n <= 256; got n={n}"
            )
        self.n = n
        self._rng = random.Random(seed)
        self._buffer = b""
        self._pos = 0

    @property
    def buffered(self) -> int:
        """Values drawn from the generator but not yet handed out."""
        return len(self._buffer) - self._pos

    def getstate(self) -> object:
        """The generator's state (:meth:`random.Random.getstate`)."""
        return self._rng.getstate()

    def take(self, count: int) -> bytes:
        """The next ``count`` values, one byte each."""
        pos = self._pos
        end = pos + count
        if end > len(self._buffer):
            self._refill(count)
            pos, end = 0, count
        self._pos = end
        return self._buffer[pos:end]

    def _refill(self, count: int) -> None:
        """Buffer at least ``count`` values, drawing ahead."""
        buffer = self._buffer[self._pos :]
        n = self.n
        k = n.bit_length()
        grb = self._rng.getrandbits
        if k > 8:  # n == 256: nine-bit values, one word at a time
            singles = count - len(buffer) + _LOOKAHEAD
        else:
            table, reject = _byte_tables(n, k)
            while len(buffer) < count:
                # Words for the shortfall plus the lookahead, on average:
                # a word yields a value with probability n / 2**k.
                words = ((count - len(buffer) + _LOOKAHEAD) << k) // n
                high = grb(32 * words).to_bytes(4 * words, "little")[3::4]
                buffer += high.translate(table, reject)
            # A pass ending on a rejected word stopped inside one draw's
            # rejection chain: finish that draw.
            singles = int(high[-1] >> (8 - k) >= n)
        if singles:
            out = bytearray(buffer)
            for _ in range(singles):
                r = grb(k)
                while r >= n:
                    r = grb(k)
                out.append(r)
            buffer = bytes(out)
        self._buffer = buffer
        self._pos = 0
