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

And to the coin properties: for arbitrary ``(n, count, seed)``, the
in-step block draws a jammer makes off its own generator ==
sequential ``draw_uniform_indices`` == a ``choice`` loop, byte-for-byte —
values AND post-draw generator state; and the hop rows of every
private-hop epoch (``repro.radio.network.private_hop_rows``), drawn ahead
by registry hop streams, hold a ``choice`` loop's values while each hop
generator obeys the state rule of ``repro.rng``: it has made exactly the
handed-out plus the buffered draws.
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
    _LOOKAHEAD,
    BlockDrawer,
    RngRegistry,
    derive_seed,
    draw_uniform_indices,
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
        if a.uses_surrogate:
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


def _reference(seed, name):
    """A fresh generator seeded like the registry's stream ``name``."""
    return random.Random(derive_seed(seed, *name))


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
            st.just(0), st.integers(1, 60), st.integers(_LOOKAHEAD, 1400)
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32),
)
@example(
    groups=[(1, [7]), (2, list(range(256)))],
    takes=[0, 3, _LOOKAHEAD + 1],
    seed=0,
)
@settings(max_examples=100, deadline=None)
def test_private_hop_rows_equal_per_round_choice_loop(groups, takes, seed):
    """Repeated row-helper calls off registry hop streams (1-4 per group,
    ``n`` from 1 to 256, takes of 0, a few, and past the lookahead):
    the rows, read column by column, are each stream's
    ``choice(channels)`` per round, and after every call each generator
    obeys the state rule of ``repro.rng``: it has made exactly the
    handed-out plus the buffered draws."""
    registry = RngRegistry(seed)
    hops = [
        registry.hops("rows", g, nodes=range(size), n=len(channels))
        for g, (size, channels) in enumerate(groups)
    ]
    columns = [
        (hop, ("rows", g, i), channels)
        for g, (group, (_, channels)) in enumerate(zip(hops, groups))
        for i, hop in enumerate(group)
    ]
    references = [_reference(seed, name) for _, name, _ in columns]
    handed_out = 0
    for rounds in takes:
        rows = private_hop_rows(
            [(group, channels) for group, (_, channels) in zip(hops, groups)],
            rounds,
        )
        handed_out += rounds
        assert len(rows) == rounds
        assert all(len(row) == len(columns) for row in rows)
        for column, ((hop, name, channels), stream) in enumerate(
            zip(columns, references)
        ):
            expected = [stream.choice(channels) for _ in range(rounds)]
            assert [row[column] for row in rows] == expected
            state = _reference(seed, name)
            for _ in range(handed_out + hop.buffered):
                state.choice(channels)
            assert hop.getstate() == state.getstate()


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
