"""Tests for the PRG and Diffie-Hellman substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import (
    DEFAULT_GROUP,
    TEST_GROUP_64,
    TEST_GROUP_128,
    TEST_GROUP_256,
    DhGroup,
    is_probable_prime,
    pairwise_context,
)
from repro.crypto.prg import Prg, keystream
from repro.errors import CryptoError


class TestPrg:
    def test_deterministic(self):
        assert Prg(b"seed", "a").read(64) == Prg(b"seed", "a").read(64)

    def test_labels_independent(self):
        assert Prg(b"seed", "a").read(32) != Prg(b"seed", "b").read(32)

    def test_seeds_independent(self):
        assert Prg(b"s1", "a").read(32) != Prg(b"s2", "a").read(32)

    def test_sequential_reads_continue_stream(self):
        p = Prg(b"seed", "x")
        combined = p.read(10) + p.read(10)
        assert combined == Prg(b"seed", "x").read(20)

    def test_block_random_access(self):
        p = Prg(b"seed", "x")
        assert p.block(5) == Prg(b"seed", "x").block(5)
        assert p.block(5) != p.block(6)

    def test_bad_inputs(self):
        p = Prg(b"seed")
        with pytest.raises(CryptoError):
            p.read(-1)
        with pytest.raises(CryptoError):
            p.block(-1)
        with pytest.raises(CryptoError):
            Prg("not-bytes")  # type: ignore[arg-type]

    def test_keystream_matches_prg(self):
        assert keystream(b"k", "l", 16) == Prg(b"k", "l").read(16)

    def test_output_looks_balanced(self):
        # Cheap sanity check: bit frequency near 1/2 over 8 KiB.
        data = Prg(b"stats", "bits").read(8192)
        ones = sum(bin(byte).count("1") for byte in data)
        assert 0.48 < ones / (8 * len(data)) < 0.52


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (1, 4, 9, 561, 41041, 7917):  # incl. Carmichael numbers
            assert not is_probable_prime(c)

    def test_large_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_composite(self):
        assert not is_probable_prime((2**127 - 1) * (2**61 - 1))


class TestGroups:
    @pytest.mark.parametrize(
        "group", [TEST_GROUP_64, TEST_GROUP_128, TEST_GROUP_256]
    )
    def test_small_groups_are_safe_primes(self, group):
        group.validate()

    def test_generator_in_q_subgroup(self):
        g = TEST_GROUP_64
        assert pow(g.g, g.q, g.p) == 1

    def test_invalid_groups_rejected(self):
        with pytest.raises(CryptoError):
            DhGroup(p=15, g=2).validate()
        with pytest.raises(CryptoError):
            DhGroup(p=TEST_GROUP_64.p + 2, g=4).validate()  # even/composite
        with pytest.raises(CryptoError):
            DhGroup(p=TEST_GROUP_64.p, g=1).validate()


class TestKeyExchange:
    def test_shared_secret_agreement(self):
        rng_a, rng_b = random.Random(1), random.Random(2)
        a = DEFAULT_GROUP.keypair(rng_a)
        b = DEFAULT_GROUP.keypair(rng_b)
        assert a.shared_key(b.public, "ctx") == b.shared_key(a.public, "ctx")

    def test_context_separates_keys(self):
        a = DEFAULT_GROUP.keypair(random.Random(1))
        b = DEFAULT_GROUP.keypair(random.Random(2))
        assert a.shared_key(b.public, "c1") != a.shared_key(b.public, "c2")

    def test_third_party_gets_different_key(self):
        a = DEFAULT_GROUP.keypair(random.Random(1))
        b = DEFAULT_GROUP.keypair(random.Random(2))
        eve = DEFAULT_GROUP.keypair(random.Random(3))
        assert a.shared_key(b.public, "c") != a.shared_key(eve.public, "c")

    def test_public_values_in_subgroup(self):
        kp = DEFAULT_GROUP.keypair(random.Random(4))
        assert DEFAULT_GROUP.is_valid_public(kp.public)

    @pytest.mark.parametrize("bad", [0, 1])
    def test_degenerate_publics_rejected(self, bad):
        assert not DEFAULT_GROUP.is_valid_public(bad)
        assert not DEFAULT_GROUP.is_valid_public(DEFAULT_GROUP.p - 1)
        kp = DEFAULT_GROUP.keypair(random.Random(5))
        with pytest.raises(CryptoError):
            DEFAULT_GROUP.shared_secret(kp.private, bad)

    def test_non_subgroup_value_rejected(self):
        # A quadratic non-residue fails the subgroup check.
        g = TEST_GROUP_64
        for candidate in range(2, 50):
            if pow(candidate, g.q, g.p) != 1:
                assert not g.is_valid_public(candidate)
                break
        else:  # pragma: no cover
            pytest.fail("no non-residue found")

    def test_pairwise_context_symmetric(self):
        assert pairwise_context(3, 9) == pairwise_context(9, 3)
        assert pairwise_context(3, 9) != pairwise_context(3, 8)


@given(seed_a=st.integers(0, 2**32), seed_b=st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_dh_agreement_property(seed_a, seed_b):
    a = TEST_GROUP_64.keypair(random.Random(seed_a))
    b = TEST_GROUP_64.keypair(random.Random(seed_b))
    assert a.shared_key(b.public, "p") == b.shared_key(a.public, "p")
