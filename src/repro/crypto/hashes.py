"""The secure hash functions H1 and H2 of Section 5.6 — and a weak one.

The paper assumes two collision-resistant hash functions: ``H1`` tags gossip
frames with *reconstruction hashes* and ``H2`` produces the constant-size
*vector signature* exchanged through f-AME.  We instantiate both with
SHA-256 under distinct domain-separation prefixes, over a canonical byte
encoding of Python values (so logically equal payloads always hash equally,
independent of dict ordering or int width).

:class:`WeakHash` deliberately truncates digests so tests can manufacture
collisions and observe how the reconstruction pipeline degrades — the
paper's analysis charges ``O(t^4 log^2 n)`` hash evaluations precisely to
cope with ambiguity, and the weak hash lets us exercise that path.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from ..errors import CryptoError

DIGEST_SIZE = 32
"""Byte length of full-strength digests (SHA-256)."""

KDF_DOMAIN = b"repro/kdf\x00"
"""Domain-separation prefix of :func:`derive_key`."""


def canonical_encode(value: Any) -> bytes:
    """Encode a value into canonical, self-delimiting bytes.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    ``tuple``/``list`` (encoded identically), ``dict`` (sorted by encoded
    key), ``set``/``frozenset`` (sorted by encoded element).  Raises
    :class:`~repro.errors.CryptoError` for anything else, because hashing an
    ambiguous encoding would silently break authentication.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return b"T" if value else b"F"
    if isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"i" + len(body).to_bytes(4, "big") + body
    if isinstance(value, float):
        body = repr(value).encode("ascii")
        return b"f" + len(body).to_bytes(4, "big") + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s" + len(body).to_bytes(4, "big") + body
    if isinstance(value, (bytes, bytearray)):
        body = bytes(value)
        return b"b" + len(body).to_bytes(4, "big") + body
    if isinstance(value, (tuple, list)):
        parts = [canonical_encode(v) for v in value]
        return (
            b"l"
            + len(parts).to_bytes(4, "big")
            + b"".join(parts)
        )
    if isinstance(value, dict):
        encoded = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in value.items()
        )
        return (
            b"d"
            + len(encoded).to_bytes(4, "big")
            + b"".join(k + v for k, v in encoded)
        )
    if isinstance(value, (set, frozenset)):
        parts = sorted(canonical_encode(v) for v in value)
        return b"e" + len(parts).to_bytes(4, "big") + b"".join(parts)
    raise CryptoError(f"cannot canonically encode {type(value).__name__}")


def _digest(domain: bytes, parts: Iterable[Any]) -> bytes:
    hasher = hashlib.sha256(domain)
    for part in parts:
        hasher.update(canonical_encode(part))
    return hasher.digest()


def h1(*parts: Any) -> bytes:
    """The reconstruction hash ``H1`` (domain-separated SHA-256)."""
    return _digest(b"repro/h1\x00", parts)


def h2(*parts: Any) -> bytes:
    """The vector-signature hash ``H2`` (domain-separated SHA-256)."""
    return _digest(b"repro/h2\x00", parts)


def derive_key(secret: Any, *context: Any) -> bytes:
    """Derive a 32-byte symmetric key from a secret plus context labels.

    Used to turn Diffie-Hellman shared values into usable keys, and to
    split one master key into independent sub-keys (encryption vs MAC vs
    channel hopping) by varying ``context``.
    """
    return _digest(KDF_DOMAIN, (secret, *context))


class WeakHash:
    """A truncated hash for studying collision behaviour in tests.

    Parameters
    ----------
    bits:
        Digest width in bits, between 1 and 256.  Narrow widths make
        collisions easy to manufacture (birthday bound ``2^{bits/2}``).
    """

    def __init__(self, bits: int = 16) -> None:
        if not 1 <= bits <= 256:
            raise CryptoError("bits must be in [1, 256]")
        self.bits = bits

    def __call__(self, *parts: Any) -> bytes:
        full = _digest(b"repro/weak\x00", parts)
        nbytes = (self.bits + 7) // 8
        truncated = int.from_bytes(full[:nbytes], "big")
        truncated &= (1 << self.bits) - 1
        return truncated.to_bytes(nbytes, "big")
