"""Tests for authenticated encryption and channel hopping."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.hashes import canonical_encode, derive_key
from repro.crypto.hopping import ChannelHopper
from repro.crypto.prg import Prg
from repro.crypto.stream import (
    AuthenticatedCipher,
    Ciphertext,
    nonce_from_counter,
)
from repro.errors import CryptoError

KEY = b"k" * 32
OTHER_KEY = b"j" * 32


class TestRoundTrip:
    def test_encrypt_decrypt(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"hello", nonce=b"n1")
        assert c.decrypt(sealed) == b"hello"

    def test_associated_data_bound(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"hello", nonce=b"n1", associated=b"sender:3")
        assert c.decrypt(sealed, associated=b"sender:3") == b"hello"
        with pytest.raises(CryptoError):
            c.decrypt(sealed, associated=b"sender:4")

    def test_empty_plaintext(self):
        c = AuthenticatedCipher(KEY)
        assert c.decrypt(c.encrypt(b"", nonce=b"n")) == b""

    def test_ciphertext_differs_from_plaintext(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"secret-payload", nonce=b"n1")
        assert sealed.body != b"secret-payload"
        assert b"secret-payload" not in sealed.body

    def test_distinct_nonces_distinct_ciphertexts(self):
        c = AuthenticatedCipher(KEY)
        s1 = c.encrypt(b"same", nonce=b"n1")
        s2 = c.encrypt(b"same", nonce=b"n2")
        assert s1.body != s2.body


class TestAuthentication:
    def test_wrong_key_rejected(self):
        sealed = AuthenticatedCipher(KEY).encrypt(b"x", nonce=b"n")
        with pytest.raises(CryptoError, match="bad tag"):
            AuthenticatedCipher(OTHER_KEY).decrypt(sealed)

    def test_tampered_body_rejected(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"attack at dawn", nonce=b"n")
        tampered = Ciphertext(
            nonce=sealed.nonce,
            body=bytes([sealed.body[0] ^ 1]) + sealed.body[1:],
            tag=sealed.tag,
        )
        with pytest.raises(CryptoError):
            c.decrypt(tampered)

    def test_tampered_nonce_rejected(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"x", nonce=b"n1")
        moved = Ciphertext(nonce=b"n2", body=sealed.body, tag=sealed.tag)
        with pytest.raises(CryptoError):
            c.decrypt(moved)

    def test_forged_tag_rejected(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"x", nonce=b"n")
        forged = Ciphertext(nonce=sealed.nonce, body=sealed.body, tag=b"0" * 32)
        with pytest.raises(CryptoError):
            c.decrypt(forged)


class TestSerialization:
    def test_tuple_round_trip(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"x", nonce=b"n")
        rebuilt = Ciphertext.from_tuple(sealed.as_tuple())
        assert c.decrypt(rebuilt) == b"x"

    def test_malformed_tuple_rejected(self):
        with pytest.raises(CryptoError):
            Ciphertext.from_tuple((b"a", b"b"))  # type: ignore[arg-type]
        with pytest.raises(CryptoError):
            Ciphertext.from_tuple(("a", b"b", b"c"))  # type: ignore[arg-type]

    def test_nonce_from_counter(self):
        assert nonce_from_counter(1, 2) != nonce_from_counter(2, 1)
        assert len(nonce_from_counter(0)) == 8


class TestValidation:
    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            AuthenticatedCipher(b"short")

    def test_non_bytes_plaintext_rejected(self):
        with pytest.raises(CryptoError):
            AuthenticatedCipher(KEY).encrypt("str", nonce=b"n")  # type: ignore[arg-type]

    def test_empty_nonce_rejected(self):
        with pytest.raises(CryptoError):
            AuthenticatedCipher(KEY).encrypt(b"x", nonce=b"")

    @pytest.mark.parametrize("associated", [3, "sender:3", None])
    def test_non_bytes_associated_rejected(self, associated):
        c = AuthenticatedCipher(KEY)
        with pytest.raises(CryptoError):
            c.encrypt(b"x", nonce=b"n", associated=associated)
        # bytes(3) is three zero bytes: an int must not open this frame.
        sealed = c.encrypt(b"x", nonce=b"n", associated=b"\x00\x00\x00")
        with pytest.raises(CryptoError):
            c.decrypt(sealed, associated=associated)

    def test_non_bytes_ciphertext_fields_rejected(self):
        c = AuthenticatedCipher(KEY)
        sealed = c.encrypt(b"x", nonce=b"n")
        for forged in (
            Ciphertext(nonce="n", body=sealed.body, tag=sealed.tag),
            Ciphertext(nonce=sealed.nonce, body="x", tag=sealed.tag),
        ):
            with pytest.raises(CryptoError):
                c.decrypt(forged)


class TestChannelHopper:
    def test_deterministic_random_access(self):
        h1 = ChannelHopper(KEY, 5, "lbl")
        h2 = ChannelHopper(KEY, 5, "lbl")
        assert [h1.channel(r) for r in range(20)] == [h2.channel(r) for r in range(20)]

    def test_label_separates_patterns(self):
        a = ChannelHopper(KEY, 5, "a").sequence(0, 30)
        b = ChannelHopper(KEY, 5, "b").sequence(0, 30)
        assert a != b

    def test_key_separates_patterns(self):
        a = ChannelHopper(KEY, 5, "l").sequence(0, 30)
        b = ChannelHopper(OTHER_KEY, 5, "l").sequence(0, 30)
        assert a != b

    def test_channels_in_range_and_all_visited(self):
        h = ChannelHopper(KEY, 3, "l")
        seq = h.sequence(0, 200)
        assert all(0 <= c < 3 for c in seq)
        assert set(seq) == {0, 1, 2}

    def test_roughly_uniform(self):
        h = ChannelHopper(KEY, 4, "uniform")
        seq = h.sequence(0, 4000)
        for c in range(4):
            assert 0.2 < seq.count(c) / len(seq) < 0.3

    def test_validation(self):
        with pytest.raises(CryptoError):
            ChannelHopper(KEY, 0)
        with pytest.raises(CryptoError):
            ChannelHopper("nope", 3)  # type: ignore[arg-type]
        with pytest.raises(CryptoError):
            ChannelHopper(KEY, 3).channel(-1)


@given(
    plaintext=st.binary(max_size=64),
    nonce=st.binary(min_size=1, max_size=16),
    associated=st.binary(max_size=16),
)
@settings(max_examples=100, deadline=None)
def test_round_trip_property(plaintext, nonce, associated):
    c = AuthenticatedCipher(KEY)
    sealed = c.encrypt(plaintext, nonce=nonce, associated=associated)
    assert c.decrypt(sealed, associated=associated) == plaintext


def _documented_seal(key, plaintext, nonce, associated):
    """The construction the ``repro.crypto.stream`` docstring states,
    composed from the library's slow primitives."""
    enc, mac = derive_key(key, "enc"), derive_key(key, "mac")
    pad = Prg(derive_key(enc, "nonce", nonce), "xor").read(len(plaintext))
    body = bytes(a ^ b for a, b in zip(plaintext, pad))
    material = (
        canonical_encode(nonce)
        + canonical_encode(body)
        + canonical_encode(associated)
    )
    return nonce, body, hmac.new(mac, material, hashlib.sha256).digest()


def _flip(value: bytes, bit: int) -> bytes:
    bit %= 8 * len(value)
    flipped = bytearray(value)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@given(
    key=st.binary(min_size=16, max_size=48),
    plaintext=st.binary(max_size=1000),
    nonce=st.binary(min_size=1, max_size=24),
    associated=st.binary(max_size=24),
    bit=st.integers(min_value=0, max_value=2**16),
)
# A 64-byte frame (two pad blocks, as serve's) and a 1 000-byte one.
@example(key=KEY, plaintext=bytes(64), nonce=b"n", associated=b"", bit=0)
@example(key=KEY, plaintext=b"\xff" * 1000, nonce=b"n", associated=b"a", bit=9)
@settings(max_examples=200, deadline=None)
def test_cipher_matches_documented_construction(
    key, plaintext, nonce, associated, bit
):
    cipher = AuthenticatedCipher(key)
    sealed = cipher.encrypt(plaintext, nonce, associated)
    assert (sealed.nonce, sealed.body, sealed.tag) == _documented_seal(
        key, plaintext, nonce, associated
    )
    assert cipher.decrypt(sealed, associated) == plaintext
    forgeries = [
        Ciphertext(_flip(sealed.nonce, bit), sealed.body, sealed.tag),
        Ciphertext(sealed.nonce, sealed.body, _flip(sealed.tag, bit)),
    ]
    if plaintext:
        forgeries.append(
            Ciphertext(sealed.nonce, _flip(sealed.body, bit), sealed.tag)
        )
    for forged in forgeries:
        with pytest.raises(CryptoError):
            cipher.decrypt(forged, associated)
    other = _flip(associated, bit) if associated else b"\x00"
    with pytest.raises(CryptoError):
        cipher.decrypt(sealed, other)
