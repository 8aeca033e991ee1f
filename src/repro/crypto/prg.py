"""A pseudo-random generator from SHA-256 in counter mode.

Sections 6-7 assume a PRG seeded by a shared secret key — for generating
channel-hopping patterns and keystreams the adversary (who lacks the key)
cannot predict.  Any PRF works; we use ``SHA-256(seed || label || counter)``
blocks, which is the standard ad-hoc construction when no cipher is
available and keeps the library free of external crypto dependencies.
"""

from __future__ import annotations

import hashlib

from ..errors import CryptoError
from .hashes import canonical_encode

_BLOCK = 32

PRG_DOMAIN = b"repro/prg\x00"
"""Domain-separation prefix of every :class:`Prg` block."""


class Prg:
    """Deterministic byte/integer stream seeded by key material.

    Two instances with the same ``(seed, label)`` produce identical output;
    distinct labels give computationally independent streams from one seed.

    Parameters
    ----------
    seed:
        Secret key material (bytes).
    label:
        Domain-separation label, e.g. ``"hop"`` vs ``"stream"``.
    """

    def __init__(self, seed: bytes, label: str = "") -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise CryptoError("PRG seed must be bytes")
        self._prefix = (
            PRG_DOMAIN
            + canonical_encode(bytes(seed))
            + canonical_encode(label)
        )
        self._counter = 0
        self._buffer = b""

    def block(self, index: int) -> bytes:
        """The ``index``-th 32-byte output block (random access)."""
        if index < 0:
            raise CryptoError("block index must be non-negative")
        return hashlib.sha256(
            self._prefix + index.to_bytes(8, "big")
        ).digest()

    def read(self, nbytes: int) -> bytes:
        """The next ``nbytes`` of the sequential stream."""
        if nbytes < 0:
            raise CryptoError("cannot read a negative byte count")
        while len(self._buffer) < nbytes:
            self._buffer += self.block(self._counter)
            self._counter += 1
        out, self._buffer = self._buffer[:nbytes], self._buffer[nbytes:]
        return out

    def randbits(self, k: int) -> int:
        """The next ``k``-bit integer from the stream."""
        if k <= 0:
            raise CryptoError("k must be positive")
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.read(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randbelow(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise CryptoError("bound must be positive")
        k = bound.bit_length()
        while True:
            value = self.randbits(k)
            if value < bound:
                return value


def keystream(seed: bytes, label: str, nbytes: int) -> bytes:
    """One-shot keystream of ``nbytes`` (stateless convenience)."""
    return Prg(seed, label).read(nbytes)
