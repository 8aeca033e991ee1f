"""Authenticated symmetric encryption from the PRG (Sections 6-7).

The long-lived service needs, against an adversary *without* the key:

* **secrecy** — ciphertexts reveal nothing about plaintexts; and
* **authentication** — forged or tampered ciphertexts are rejected.

We build the standard encrypt-then-MAC construction: a PRG keystream XOR
for confidentiality and an HMAC-SHA256 tag over ``nonce || ciphertext ||
associated data`` for integrity.  Nonces are caller-supplied (protocols use
round/epoch counters) and must never repeat under one key — the classic
stream-cipher contract, stated loudly in :meth:`AuthenticatedCipher.encrypt`.

Byte for byte, with ``enc`` and ``mac`` the master key's
``derive_key(key, "enc")`` and ``derive_key(key, "mac")``:

* the pad of ``nonce`` is ``Prg(derive_key(enc, "nonce", nonce),
  "xor").read(len(plaintext))``;
* the body is ``plaintext`` XOR that pad;
* the tag is ``HMAC-SHA256(mac, canonical_encode(nonce) ||
  canonical_encode(body) || canonical_encode(associated))``.

:class:`AuthenticatedCipher` computes exactly that without a ``Prg`` object
or a fresh HMAC per message: it keeps the KDF's SHA-256 state after the
``(enc, "nonce")`` prefix and one keyed HMAC, copies each per message,
hashes the pad's counter blocks inline and XORs through
``int.from_bytes`` (``tests/test_crypto_stream_hopping.py`` checks it
against the composition above).
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass

from ..errors import CryptoError
from .hashes import KDF_DOMAIN, canonical_encode, derive_key
from .prg import PRG_DOMAIN

TAG_SIZE = 32

_PAD_LABEL = canonical_encode("xor")


@dataclass(frozen=True)
class Ciphertext:
    """A sealed message: nonce (public), body, and authentication tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def as_tuple(self) -> tuple[bytes, bytes, bytes]:
        """Radio-friendly representation (tuple payloads hash canonically)."""
        return (self.nonce, self.body, self.tag)

    @classmethod
    def from_tuple(cls, value: tuple[bytes, bytes, bytes]) -> "Ciphertext":
        """Rebuild from :meth:`as_tuple` output; validates shape."""
        if (
            not isinstance(value, tuple)
            or len(value) != 3
            or not all(isinstance(part, (bytes, bytearray)) for part in value)
        ):
            raise CryptoError("malformed ciphertext tuple")
        nonce, body, tag = value
        return cls(nonce=bytes(nonce), body=bytes(body), tag=bytes(tag))


class AuthenticatedCipher:
    """Encrypt-then-MAC over a shared symmetric key.

    Parameters
    ----------
    key:
        Master key material; independent encryption and MAC keys are derived
        from it, so using the same master key elsewhere (e.g. for channel
        hopping) is safe.
    """

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise CryptoError("key must be at least 16 bytes")
        enc_key = derive_key(bytes(key), "enc")
        # derive_key(enc_key, "nonce", nonce), stopped before the nonce.
        self._nonce_kdf = hashlib.sha256(
            KDF_DOMAIN + canonical_encode(enc_key) + canonical_encode("nonce")
        )
        self._mac = hmac.new(
            derive_key(bytes(key), "mac"), digestmod=hashlib.sha256
        )

    def _xor_pad(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR the first ``len(data)`` bytes of ``nonce``'s pad."""
        size = len(data)
        if not size:
            return b""
        kdf = self._nonce_kdf.copy()
        kdf.update(_encode_bytes(nonce))
        prefix = PRG_DOMAIN + _encode_bytes(kdf.digest()) + _PAD_LABEL
        sha256 = hashlib.sha256
        pad = b"".join([
            sha256(prefix + block.to_bytes(8, "big")).digest()
            for block in range((size + 31) // 32)
        ])
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(pad[:size], "big")
        return mixed.to_bytes(size, "big")

    def _tag(self, nonce: bytes, body: bytes, associated: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(
            _encode_bytes(nonce)
            + _encode_bytes(body)
            + _encode_bytes(associated)
        )
        return mac.digest()

    def encrypt(
        self, plaintext: bytes, nonce: bytes, associated: bytes = b""
    ) -> Ciphertext:
        """Seal ``plaintext``.

        ``nonce`` MUST be unique per message under this key (protocols use
        monotone counters); reuse leaks the XOR of the two plaintexts.
        ``associated`` is authenticated but not encrypted (e.g. sender id).
        """
        if not isinstance(plaintext, (bytes, bytearray)):
            raise CryptoError("plaintext must be bytes")
        if not isinstance(nonce, (bytes, bytearray)) or not nonce:
            raise CryptoError("nonce must be non-empty bytes")
        _check_associated(associated)
        nonce = bytes(nonce)
        body = self._xor_pad(nonce, plaintext)
        return Ciphertext(
            nonce=nonce, body=body, tag=self._tag(nonce, body, associated)
        )

    def decrypt(self, sealed: Ciphertext, associated: bytes = b"") -> bytes:
        """Open a ciphertext; raises :class:`CryptoError` on any tampering."""
        _check_associated(associated)
        if not isinstance(sealed.nonce, (bytes, bytearray)) or not isinstance(
            sealed.body, (bytes, bytearray)
        ):
            raise CryptoError("malformed ciphertext")
        expected = self._tag(sealed.nonce, sealed.body, associated)
        if not hmac.compare_digest(expected, sealed.tag):
            raise CryptoError("authentication failed: bad tag")
        return self._xor_pad(sealed.nonce, sealed.body)


def _encode_bytes(value: bytes) -> bytes:
    """:func:`canonical_encode` of a ``bytes`` value, inline."""
    return b"b" + len(value).to_bytes(4, "big") + value


def _check_associated(associated: object) -> None:
    if not isinstance(associated, (bytes, bytearray)):
        raise CryptoError("associated data must be bytes")


def nonce_from_counter(*parts: int) -> bytes:
    """Build a nonce from integer counters (round number, sender id, ...)."""
    return b"".join(p.to_bytes(8, "big", signed=True) for p in parts)
