"""Property-based tests: greedy proposals always schedule cleanly.

For arbitrary mid-game states (random edge sets, random starred subsets
with plausible surrogate tables), the schedule derived from a greedy
proposal must satisfy the radio-level invariants the correctness proof
leans on:

* every proposal item occupies exactly one distinct channel;
* nobody broadcasts and listens in the same round;
* surrogates hold the vector they broadcast and stand in only for starred
  sources;
* witness groups are sized 3(t+1), mutually disjoint, and disjoint from
  every scheduled role.

Also home to the slot-set digest properties backing the delta feedback
frames: digesting any sequence of (possibly overlapping) slot-set deltas,
in any order, must equal the digest of the merged set, and disjoint parts
must combine to the whole.

And to the coin properties.  For arbitrary ``(n, count, seed)``, the
in-step block draws a jammer makes off its own generator ==
sequential ``draw_uniform_indices`` == a ``choice`` loop, byte-for-byte —
values AND post-draw generator state.  The counter-mode hop streams of
``repro.rng``: any split of takes concatenates to one sequence, so the
hop rows of every private-hop epoch
(``repro.radio.network.private_hop_rows``) hold, column by column, each
stream's sequence; every value over ``range(n)`` has exactly
``256 // n`` byte preimages; and distinct names get distinct keys.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings, strategies as st

import pytest

from repro.fame.config import make_config, witness_group_size
from repro.fame.digests import combine_digests, slot_set_digest
from repro.fame.schedule import build_schedule
from repro.game.graph import GameGraph
from repro.game.greedy import GreedyTermination, greedy_proposal
from repro.radio.network import private_hop_rows
from repro.rng import (
    HOP_BLOCK,
    BlockDrawer,
    HopStream,
    RngRegistry,
    _block_tables,
    draw_uniform_indices,
    name_digest,
)

N = 60
T = 2
CONFIG = make_config(N, T + 1, T)

edge_sets = st.sets(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
        lambda e: e[0] != e[1]
    ),
    min_size=3,
    max_size=25,
)


@given(edges=edge_sets, star_seed=st.integers(0, 2**16))
@settings(max_examples=120, deadline=None)
def test_greedy_schedules_are_always_valid(edges, star_seed):
    import random

    graph = GameGraph.from_pairs(edges, vertices=range(N))
    # Star a pseudo-random subset of sources and give each starred node a
    # plausible surrogate table (as a successful starring round would).
    stream = random.Random(star_seed)
    sources = sorted(graph.sources())
    starred = {v for v in sources if stream.random() < 0.5}
    surrogates = {}
    free_pool = [v for v in range(N) if v >= 20]
    for i, v in enumerate(sorted(starred)):
        graph.star(v)
        size = witness_group_size(T)
        surrogates[v] = tuple(free_pool[i * size : (i + 1) * size])

    move = greedy_proposal(graph, T)
    if isinstance(move, GreedyTermination):
        return

    schedule = build_schedule(CONFIG, move, graph.starred, surrogates)

    # One distinct channel per item, in order.
    assert schedule.channels_in_use == tuple(range(len(move)))

    broadcasters = [a.broadcaster for a in schedule.assignments]
    assert len(set(broadcasters)) == len(broadcasters)

    listeners = schedule.listeners()
    assert not set(broadcasters) & set(listeners)

    for a in schedule.assignments:
        if a.broadcaster != a.source:
            assert a.source in graph.starred
            assert a.broadcaster in surrogates[a.source]
        if a.listener is not None:
            assert listeners[a.listener] == a.channel

    size = witness_group_size(T)
    seen: set[int] = set()
    involved = schedule.involved()
    for group in schedule.witness_groups:
        assert len(group) == size
        assert not set(group) & seen
        seen.update(group)
    # Witness groups never overlap scheduled roles.
    witness_union = {w for g in schedule.witness_groups for w in g}
    scheduled_roles = set(broadcasters) | {
        a.listener for a in schedule.assignments if a.listener is not None
    } | {a.source for a in schedule.assignments}
    assert not witness_union & scheduled_roles
    assert witness_union <= involved | witness_union


slot_batches = st.lists(
    st.lists(st.integers(0, 300), max_size=10), max_size=8
)


@given(batches=slot_batches)
@settings(max_examples=150, deadline=None)
def test_delta_apply_then_digest_equals_digest_of_merged(batches):
    """The digest of any delta sequence, duplicates included, == the
    digest of the union, in any order — so a listener's check of a
    frame's true slots cannot depend on how they were gathered."""
    applied = [slot for batch in batches for slot in batch]
    merged = set(applied)
    digest = slot_set_digest(applied)
    assert digest == slot_set_digest(merged)
    assert digest == slot_set_digest(sorted(merged, reverse=True))


@given(slots=st.sets(st.integers(0, 300), max_size=24), pivot=st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_disjoint_digests_combine_to_the_union_digest(slots, pivot):
    """combine_digests over a disjoint split == digest of the whole — the
    O(1) merge the parallel feedback tree performs per level."""
    left = {s for s in slots if s < pivot}
    right = slots - left
    assert combine_digests(
        slot_set_digest(left), slot_set_digest(right)
    ) == slot_set_digest(slots)
    assert combine_digests(slot_set_digest(slots)) == slot_set_digest(slots)
    assert combine_digests() == slot_set_digest(())


class _ExoticRandom(random.Random):
    """Subclass ⇒ both draw paths must take the choice-loop fallback."""


@given(
    n=st.integers(1, 1 << 20),
    count=st.integers(0, 200),
    seed=st.integers(0, 2**48),
)
@settings(max_examples=200, deadline=None)
def test_block_draws_equal_loop_draws_equal_choice_loop(n, count, seed):
    """Block == sequential == choice, values and post-draw state, for
    arbitrary (n, count) — the byte-identical consumption proof."""
    a, b, c = random.Random(seed), random.Random(seed), random.Random(seed)
    seq = range(n)
    choice_values = [c.choice(seq) for _ in range(count)]
    loop_values = draw_uniform_indices(a, n, count)
    block_values = BlockDrawer(n).draw(b, count)
    assert block_values == loop_values == choice_values
    assert a.getstate() == b.getstate() == c.getstate()


@given(
    n=st.integers(1, 256),
    takes=st.lists(
        st.one_of(
            st.just(0), st.integers(1, 60), st.integers(HOP_BLOCK, 1400)
        ),
        max_size=6,
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_any_split_of_takes_concatenates_to_one_sequence(n, takes, seed):
    """Takes of 0, a few, and past a block, in any order, hand out one
    prefix of the stream's sequence: a fresh stream's single take."""
    key = name_digest(seed, "split")
    hop = HopStream(key, n)
    values = b"".join(hop.take(count) for count in takes)
    assert values == HopStream(key, n).take(sum(takes))
    assert max(values, default=0) < n


def test_every_hop_value_has_256_div_n_byte_preimages():
    """Each block byte either maps to a value or is dropped, and every
    value over ``range(n)`` keeps exactly ``256 // n`` bytes, so hop
    values are exactly uniform."""
    for n in range(1, 257):
        table, drop = _block_tables(n)
        kept = bytes(range(256)).translate(table, drop)
        assert len(kept) == 256 - 256 % n
        assert all(kept.count(value) == 256 // n for value in range(n))


name_parts = st.lists(
    st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=6)),
    min_size=1,
    max_size=3,
)


@given(seed=st.integers(0, 2**64), a=name_parts, b=name_parts)
@settings(max_examples=200, deadline=None)
def test_distinct_names_give_distinct_keys(seed, a, b):
    """Names are stringified, so ``3`` and ``"3"`` are one name; any two
    names that differ, or one name under two seeds, get distinct keys."""
    same = [str(part) for part in a] == [str(part) for part in b]
    assert (name_digest(seed, *a) == name_digest(seed, *b)) == same
    assert name_digest(seed, *a) != name_digest(seed + 1, *a)


@given(
    groups=st.lists(
        st.tuples(
            st.integers(1, 4),
            st.lists(
                st.integers(0, 255), min_size=1, max_size=256, unique=True
            ),
        ),
        min_size=1,
        max_size=3,
    ),
    takes=st.lists(
        st.one_of(
            st.just(0), st.integers(1, 60), st.integers(HOP_BLOCK, 1400)
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32),
)
@example(
    groups=[(1, [7]), (2, list(range(256)))],
    takes=[0, 3, HOP_BLOCK + 1],
    seed=0,
)
@settings(max_examples=100, deadline=None)
def test_private_hop_rows_concatenate_each_streams_sequence(
    groups, takes, seed
):
    """Repeated row-helper calls off registry hop streams (1-4 per group,
    ``n`` from 1 to 256, takes of 0, a few, and past a block): the rows,
    read column by column and call after call, are each stream's one
    sequence — a fresh stream's single take — mapped onto its channels."""
    registry = RngRegistry(seed)
    hops = [
        registry.hops("rows", g, nodes=range(size), n=len(channels))
        for g, (size, channels) in enumerate(groups)
    ]
    columns: list[list[int]] = [[] for group in hops for _ in group]
    for rounds in takes:
        rows = private_hop_rows(
            [(group, channels) for group, (_, channels) in zip(hops, groups)],
            rounds,
        )
        assert len(rows) == rounds
        for row in rows:
            assert len(row) == len(columns)
            for column, channel in zip(columns, row):
                column.append(channel)
    expected = [
        [
            channels[value]
            for value in HopStream(
                name_digest(seed, "rows", g, i), len(channels)
            ).take(sum(takes))
        ]
        for g, (size, channels) in enumerate(groups)
        for i in range(size)
    ]
    assert columns == expected


@given(
    n=st.integers(1, 5000),
    count=st.integers(0, 100),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_block_draws_fallback_matches_choice_for_exotic_streams(
    n, count, seed
):
    """Non-``random.Random`` streams take the choice fallback on every
    path; values and state still coincide."""
    a, b, c = _ExoticRandom(seed), _ExoticRandom(seed), _ExoticRandom(seed)
    seq = range(n)
    choice_values = [c.choice(seq) for _ in range(count)]
    assert BlockDrawer(n).draw(a, count) == choice_values
    assert draw_uniform_indices(b, n, count) == choice_values
    assert a.getstate() == b.getstate() == c.getstate()


@given(n=st.integers(-50, 0), count=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_empty_range_raises_on_every_path(n, count):
    """n <= 0 is a ValueError before any stream state is touched, on the
    fast paths, the block paths, and the exotic fallbacks alike."""
    for stream in (random.Random(1), _ExoticRandom(1)):
        before = stream.getstate()
        with pytest.raises(ValueError):
            draw_uniform_indices(stream, n, count)
        with pytest.raises(ValueError):
            BlockDrawer(n).draw(stream, count)
        with pytest.raises(ValueError):
            BlockDrawer(n)
        assert stream.getstate() == before


@given(edges=edge_sets)
@settings(max_examples=60, deadline=None)
def test_schedule_is_a_pure_function(edges):
    graph = GameGraph.from_pairs(edges, vertices=range(N))
    move = greedy_proposal(graph, T)
    if isinstance(move, GreedyTermination):
        return
    s1 = build_schedule(CONFIG, move, graph.starred, {})
    s2 = build_schedule(CONFIG, move, graph.starred, {})
    assert s1 == s2
    assert s1.meta_schedule() == s2.meta_schedule()
