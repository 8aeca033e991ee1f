"""Tests for repro.rng: deterministic named substreams."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    HOP_BLOCK,
    BlockDrawer,
    HopStream,
    RngRegistry,
    _block_tables,
    derive_seed,
    derive_seeds,
    draw_uniform_indices,
    name_digest,
)


class ExoticRandom(random.Random):
    """Not exactly random.Random: exercises the choice-loop fallback."""


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_sensitive_to_master_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_sensitive_to_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_64_bit_range(self):
        s = derive_seed(123, "x")
        assert 0 <= s < 2**64


class TestRegistry:
    def test_same_name_returns_same_stream_object(self):
        reg = RngRegistry(seed=1)
        assert reg.stream("node", 3) is reg.stream("node", 3)

    def test_streams_replayable_across_registries(self):
        a = RngRegistry(seed=9).stream("x")
        b = RngRegistry(seed=9).stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_distinct_names_give_independent_sequences(self):
        reg = RngRegistry(seed=4)
        xs = [reg.stream("a").random() for _ in range(8)]
        ys = [RngRegistry(seed=4).stream("b").random() for _ in range(8)]
        assert xs != ys

    def test_name_parts_stringified_consistently(self):
        reg = RngRegistry(seed=7)
        # int 3 and str "3" collide by design (names are stringified);
        # callers must use structured names, which the library does.
        assert reg.stream("n", 3) is reg.stream("n", "3")

    def test_fresh_restarts_the_stream(self):
        reg = RngRegistry(seed=5)
        first = reg.fresh("s").random()
        again = reg.fresh("s").random()
        assert first == again

    def test_stream_advances_but_fresh_does_not_affect_it(self):
        reg = RngRegistry(seed=5)
        s = reg.stream("s")
        v1 = s.random()
        reg.fresh("s").random()
        v2 = s.random()
        assert v1 != v2  # stream advanced past its first draw

    def test_spawn_creates_disjoint_namespace(self):
        reg = RngRegistry(seed=6)
        child = reg.spawn("sub")
        assert child.seed != reg.seed
        assert child.stream("x").random() != reg.stream("x").random()

    def test_spawn_deterministic(self):
        a = RngRegistry(seed=6).spawn("sub").stream("x").random()
        b = RngRegistry(seed=6).spawn("sub").stream("x").random()
        assert a == b

    def test_seed_property(self):
        assert RngRegistry(seed=42).seed == 42

    def test_hops_are_keyed_by_the_name_digest(self):
        # Node v's key is the full SHA-256 digest whose first eight bytes
        # would seed stream(*prefix, v).
        reg = RngRegistry(seed=13)
        nodes = [0, 3, 7, 1024, -2]
        bulk = reg.hops("ns", "listen", nodes=nodes, n=5)
        for v, hop in zip(nodes, bulk):
            digest = name_digest(13, "ns", "listen", v)
            assert derive_seed(13, "ns", "listen", v) == int.from_bytes(
                digest[:8], "big"
            )
            assert hop.take(9) == HopStream(digest, 5).take(9)

    def test_hops_return_cached_hop_streams(self):
        reg = RngRegistry(seed=13)
        (existing,) = reg.hops("ns", "listen", nodes=[3], n=4)
        bulk = reg.hops("ns", "listen", nodes=[2, 3, 4], n=4)
        assert bulk[1] is existing
        # And the bulk-built ones are now the registry's cached objects.
        assert reg.hops("ns", "listen", nodes=[2], n=4) == [bulk[0]]
        assert reg.hops("ns", "listen", nodes=[4], n=4) == [bulk[2]]

    def test_hops_fallback_paths_match(self):
        # Int nodes under a non-empty prefix splice one precomputed repr;
        # an empty prefix or a non-int node derives per node.  One name
        # must get one key either way.
        fast = RngRegistry(seed=5).hops("ns", nodes=[1, 2], n=3)
        fallback = RngRegistry(seed=5).hops("ns", nodes=["1", "2"], n=3)
        assert [h.take(40) for h in fast] == [h.take(40) for h in fallback]
        for nodes, prefix in (([1, 2], ()), (["x", 1], ("ns",))):
            bulk = RngRegistry(seed=5).hops(*prefix, nodes=nodes, n=3)
            assert [h.take(40) for h in bulk] == [
                HopStream(name_digest(5, *prefix, v), 3).take(40)
                for v in nodes
            ]

    def test_a_name_is_one_kind_of_stream(self):
        reg = RngRegistry(seed=3)
        reg.hops("hop", nodes=[1], n=4)
        with pytest.raises(ConfigurationError, match="hop stream"):
            reg.stream("hop", 1)
        reg.stream("plain", 1)
        with pytest.raises(ConfigurationError, match="plain stream"):
            reg.hops("plain", nodes=[1], n=4)
        with pytest.raises(ConfigurationError, match=r"range\(4\)"):
            reg.hops("hop", nodes=[1], n=2)
        # The failed requests left both entries as they were.
        assert reg.hops("hop", nodes=[1], n=4)[0].n == 4
        assert isinstance(reg.stream("plain", 1), random.Random)

    def test_cached_hop_streams_go_on_where_they_stopped(self):
        reg = RngRegistry(seed=8)
        (hop,) = reg.hops("ns", nodes=[0], n=3)
        hop.take(700)
        (again,) = reg.hops("ns", nodes=[0], n=3)
        assert again.take(50) == (
            HopStream(name_digest(8, "ns", 0), 3).take(750)[700:]
        )


class TestHopStream:
    # Split and uniformity properties: tests/test_schedule_properties.py.
    @pytest.mark.parametrize("n", [0, -1, 257])
    def test_range_must_fit_a_byte(self, n):
        with pytest.raises(ValueError):
            HopStream(bytes(32), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 129, 200, 256])
    def test_block_k_is_shake_of_key_and_counter(self, n):
        key = bytes(range(32))
        table, drop = _block_tables(n)
        blocks = b"".join(
            hashlib.shake_128(key + k.to_bytes(8, "big"))
            .digest(HOP_BLOCK)
            .translate(table, drop)
            for k in range(3)
        )
        assert HopStream(key, n).take(len(blocks)) == blocks

    def test_powers_of_two_keep_the_high_bits(self):
        key = bytes(32)
        raw = hashlib.shake_128(key + bytes(8)).digest(HOP_BLOCK)
        assert HopStream(key, 4).take(HOP_BLOCK) == bytes(b >> 6 for b in raw)
        assert HopStream(key, 256).take(HOP_BLOCK) == raw

    def test_a_negative_take_is_refused(self):
        # Moving the read position back would hand out used coins again.
        hop = HopStream(bytes(32), 4)
        first = hop.take(5)
        with pytest.raises(ValueError):
            hop.take(-2)
        assert first + hop.take(2) == HopStream(bytes(32), 4).take(7)

    def test_holds_no_mersenne_twister(self):
        hop = RngRegistry(seed=8).hops("ns", nodes=[0], n=3)[0]
        hop.take(700)
        assert not any(
            isinstance(getattr(hop, slot), random.Random)
            for slot in HopStream.__slots__
        )


class TestDrawUniformIndices:
    def test_matches_choice_stream(self):
        a, b = random.Random(11), random.Random(11)
        seq = range(7)
        assert draw_uniform_indices(a, 7, 20) == [b.choice(seq) for _ in range(20)]

    def test_empty_range_raises_fast_path(self):
        # Regression: n <= 0 used to spin forever in the getrandbits
        # rejection loop (getrandbits(0) == 0 is never < n).
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), 0, 1)
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), -3, 1)

    def test_empty_range_raises_fallback_path(self):
        class ExoticRandom(random.Random):
            pass

        with pytest.raises(ValueError):
            draw_uniform_indices(ExoticRandom(1), 0, 1)

    def test_zero_count_still_validates_range(self):
        with pytest.raises(ValueError):
            draw_uniform_indices(random.Random(1), 0, 0)
        assert draw_uniform_indices(random.Random(1), 4, 0) == []


class TestDeriveSeeds:
    def test_matches_per_call_spawn_path(self):
        for master in (0, 1, 7, 2**63 + 5):
            for prefix in ((), ("trial",), ("sweep", 3), ("a", "b", 0)):
                bulk = derive_seeds(master, *prefix, count=6)
                per_call = [
                    RngRegistry(seed=master).spawn(*prefix, i).seed
                    for i in range(6)
                ]
                assert bulk == per_call

    def test_zero_count(self):
        assert derive_seeds(1, "trial", count=0) == []

    def test_64_bit_range(self):
        assert all(0 <= s < 2**64 for s in derive_seeds(9, "t", count=32))

    def test_distinct_prefixes_give_distinct_seed_sequences(self):
        assert derive_seeds(5, "trial", count=8) != derive_seeds(
            5, "sweep", count=8
        )


class TestBlockDrawer:
    """Block draws must be byte-identical to the sequential chain: same
    values AND same post-draw generator state (the module's invariant)."""

    def test_matches_loop_values_and_state(self):
        for n in (1, 2, 3, 4, 7, 16, 100):
            for count in (0, 1, 5, 64):
                a, b = random.Random(n * 1000 + count), random.Random(
                    n * 1000 + count
                )
                assert BlockDrawer(n).draw(a, count) == (
                    draw_uniform_indices(b, n, count)
                )
                assert a.getstate() == b.getstate()

    def test_matches_choice_stream_and_state(self):
        a, b = random.Random(11), random.Random(11)
        seq = range(7)
        assert BlockDrawer(7).draw(a, 50) == [
            b.choice(seq) for _ in range(50)
        ]
        assert a.getstate() == b.getstate()

    def test_matches_randrange_stream_and_state(self):
        # Single-argument randrange bottoms out in the same rejection
        # chain — the contract that lets the private-hop epochs replace
        # per-round randrange loops (Part 3, gossip, share spray, Q1).
        a, b = random.Random(23), random.Random(23)
        assert BlockDrawer(5).draw(a, 40) == [
            b.randrange(5) for _ in range(40)
        ]
        assert a.getstate() == b.getstate()

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            BlockDrawer(0)
        with pytest.raises(ValueError):
            BlockDrawer(-3)
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(random.Random(1), 1)

    def test_zero_count_still_validates_range(self):
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(random.Random(1), 0)
        assert BlockDrawer(4).draw(random.Random(1), 0) == []

    def test_exotic_stream_fallback_matches_choice(self):
        a, b = ExoticRandom(5), ExoticRandom(5)
        seq = range(9)
        assert BlockDrawer(9).draw(a, 30) == [
            b.choice(seq) for _ in range(30)
        ]
        assert a.getstate() == b.getstate()

    def test_exotic_stream_empty_range_raises(self):
        with pytest.raises(ValueError):
            BlockDrawer(0).draw(ExoticRandom(1), 1)

    def test_matrix_draws_per_stream_in_order(self):
        drawer = BlockDrawer(6)
        streams = [random.Random(s) for s in (1, 2, 3)]
        reference = [random.Random(s) for s in (1, 2, 3)]
        matrix = drawer.matrix(streams, 12)
        assert matrix == [
            draw_uniform_indices(r, 6, 12) for r in reference
        ]
        assert [s.getstate() for s in streams] == [
            r.getstate() for r in reference
        ]
