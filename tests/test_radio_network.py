"""Tests for the radio substrate: per-channel resolution, validation, spoofs."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ProtocolViolation
from repro.params import ProtocolParameters
from repro.radio.actions import Listen, Sleep, Transmit
from repro.radio.messages import JAM, Jam, Message, Transmission
from repro.radio.network import (
    AdversaryView,
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    private_hop_rows,
    run_gossip_epoch,
    run_hopped_epoch,
)
from repro.adversary.base import Adversary
from repro.rng import HopStream, RngRegistry, name_digest

from conftest import make_network


def msg(kind="data", sender=0, payload=None) -> Message:
    return Message(kind=kind, sender=sender, payload=payload)


class FixedAdversary(Adversary):
    """Transmits a fixed plan every round (test double)."""

    def __init__(self, plan):
        self.plan = plan

    def act(self, view):
        return self.plan


class TestDeliveryRules:
    def test_single_transmitter_delivers_to_listeners(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg(payload="hi")), 1: Listen(0), 2: Listen(0)}
        )
        assert out[1].payload == "hi"
        assert out[2].payload == "hi"

    def test_two_transmitters_collide(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg()), 1: Transmit(0, msg()), 2: Listen(0)}
        )
        assert out[2] is None

    def test_silence_heard_as_none(self):
        net = make_network(n=4)
        out = net.execute_round({2: Listen(1)})
        assert out[2] is None

    def test_listener_on_other_channel_hears_nothing(self):
        net = make_network(n=4)
        out = net.execute_round(
            {0: Transmit(0, msg(payload="x")), 1: Listen(1)}
        )
        assert out[1] is None

    def test_transmitter_absent_from_results(self):
        net = make_network(n=4)
        out = net.execute_round({0: Transmit(0, msg()), 1: Listen(0)})
        assert 0 not in out

    def test_sleeper_absent_from_results(self):
        net = make_network(n=4)
        out = net.execute_round({0: Sleep(), 1: Listen(0)})
        assert 0 not in out

    def test_no_collision_detection_jam_looks_like_silence(self):
        # A jam on an empty channel and true silence are indistinguishable.
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, JAM)])
        )
        out = net.execute_round({1: Listen(0)})
        assert out[1] is None


class TestAdversaryInteraction:
    def test_jam_suppresses_delivery(self):
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, JAM)])
        )
        out = net.execute_round({0: Transmit(0, msg(payload="x")), 1: Listen(0)})
        assert out[1] is None

    def test_spoof_on_empty_channel_is_delivered(self):
        fake = msg(kind="spoof", sender=9, payload="fake")
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(1, fake)])
        )
        out = net.execute_round({1: Listen(1)})
        assert out[1] == fake
        assert net.metrics.spoofs_delivered == 1

    def test_spoof_on_occupied_channel_only_collides(self):
        fake = msg(kind="spoof", sender=9)
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(0, fake)])
        )
        out = net.execute_round({0: Transmit(0, msg(payload="real")), 1: Listen(0)})
        assert out[1] is None
        assert net.metrics.spoofs_delivered == 0

    def test_budget_enforced(self):
        net = make_network(
            n=4,
            channels=3,
            t=1,
            adversary=FixedAdversary(
                [Transmission(0, JAM), Transmission(1, JAM)]
            ),
        )
        with pytest.raises(ProtocolViolation, match="budget"):
            net.execute_round({2: Listen(0)})

    def test_duplicate_channel_rejected(self):
        net = make_network(
            n=4,
            channels=3,
            t=2,
            adversary=FixedAdversary(
                [Transmission(0, JAM), Transmission(0, JAM)]
            ),
        )
        with pytest.raises(ProtocolViolation, match="twice"):
            net.execute_round({2: Listen(0)})

    def test_invalid_adversary_channel_rejected(self):
        net = make_network(
            n=4, adversary=FixedAdversary([Transmission(7, JAM)])
        )
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({2: Listen(0)})

    def test_view_hides_current_round_and_shows_history(self):
        # The view must contain only *completed* rounds at decision time
        # (the trace object is live, so length is sampled inside act()).
        seen_lengths: list[int] = []
        seen_first_record: list = []

        class Spy(Adversary):
            def act(self, view):
                seen_lengths.append(len(view.history))
                if len(view.history) > 0:
                    seen_first_record.append(view.history[0])
                return ()

        net = make_network(n=4, adversary=Spy())
        net.execute_round({0: Transmit(0, msg(payload="r0")), 1: Listen(0)})
        net.execute_round({1: Listen(0)})
        assert seen_lengths == [0, 1]
        assert seen_first_record[0].actions[0] == Transmit(0, msg(payload="r0"))


class ScriptedPlanner(Adversary):
    """Plans fixed moves (test double); counts both hooks' calls."""

    def __init__(self, moves):
        self.moves = moves
        self.plans: list[int] = []
        self.acts = 0

    def act(self, view):
        self.acts += 1
        return ()

    def plan_schedule(self, view, metas):
        self.plans.append(len(metas))
        return self.moves[: len(metas)]


def listening_rounds(count):
    return [CompiledRound({}, (1,), (b"\0",), RoundMeta())] * count


def listening_loop(count):
    """One loop of ``count`` rounds: the loop form of ``listening_rounds``."""
    return [CompiledRound({}, (1,), (b"\0",) * count, RoundMeta())]


class TestPlannedMoves:
    def test_bad_planned_channel_raises_at_its_round(self):
        # A bad move at round (repetition) 2 raises there, after rounds 0
        # and 1 have counted, whether the rounds are submitted one by one
        # or as one loop.
        for schedule in (listening_rounds(4), listening_loop(4)):
            ok = (Transmission(0, JAM),)
            planner = ScriptedPlanner([ok, ok, (Transmission(5, JAM),), ok])
            net = make_network(n=4, adversary=planner)
            with pytest.raises(ProtocolViolation, match="invalid channel 5"):
                net.execute_schedule(schedule)
            assert net.metrics.rounds == net.round_index == 2
            assert net.metrics.adversary_transmissions == 2
            assert len(net.trace) == 2
            assert (planner.plans, planner.acts) == ([4], 0)

    def test_plan_covers_only_rounds_before_the_cap(self):
        # The second schedule (five rounds, or one loop of five) crosses
        # the cap at its repetition 2: two rounds run and count.
        for build in (listening_rounds, listening_loop):
            planner = ScriptedPlanner([()] * 5)
            net = make_network(
                n=4,
                adversary=planner,
                params=ProtocolParameters(max_rounds=3).validate(),
            )
            net.execute_schedule(build(1))
            with pytest.raises(ProtocolViolation, match="round cap"):
                net.execute_schedule(build(5))
            assert planner.plans == [1, 2]
            assert net.metrics.rounds == net.round_index == 3
            assert len(net.trace) == 3

    def test_wrong_number_of_moves_rejected(self):
        class Short(ScriptedPlanner):
            def plan_schedule(self, view, metas):
                return self.moves

        net = make_network(n=4, adversary=Short([()]))
        with pytest.raises(ProtocolViolation, match="planned 1 moves for 3"):
            net.execute_schedule(listening_rounds(3))

    def test_adversary_without_the_hook_acts_each_round(self):
        class DuckTyped:
            needs_history = False

            def __init__(self):
                self.acts = 0

            def act(self, view):
                self.acts += 1
                return (Transmission(0, JAM),)

        duck = DuckTyped()
        net = make_network(n=4, adversary=duck)
        assert net.execute_schedule(listening_rounds(3)) == [{}, {}, {}]
        assert duck.acts == 3


class TestValidation:
    def test_unknown_node_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="unknown node"):
            net.execute_round({7: Listen(0)})

    def test_invalid_channel_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({0: Listen(5)})

    def test_invalid_action_rejected(self):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="unknown action"):
            net.execute_round({0: "transmit"})  # type: ignore[dict-item]

    def test_model_constraints_checked_at_construction(self):
        with pytest.raises(ConfigurationError):
            RadioNetwork(4, 2, 2)  # t >= C

    def test_round_cap(self):
        net = make_network(
            n=4, params=ProtocolParameters(max_rounds=2).validate()
        )
        net.execute_round({0: Listen(0)})
        net.execute_round({0: Listen(0)})
        with pytest.raises(ProtocolViolation, match="round cap"):
            net.execute_round({0: Listen(0)})

    def test_history_requiring_adversary_needs_trace(self):
        class Hist(Adversary):
            needs_history = True

            def act(self, view):
                return ()

        with pytest.raises(ConfigurationError, match="history"):
            make_network(n=4, adversary=Hist(), keep_trace=False)


class TestHopRows:
    """A compiled round holds its listeners as a node tuple plus one
    ``bytes`` hop row; every malformed row is a ProtocolViolation."""

    MSG = Message(kind="x", sender=0)

    def _resolve(self, cr, *, n=8, channels=3):
        net = RadioNetwork(n, channels, 1)
        return net.execute_schedule([cr])

    @pytest.mark.parametrize(
        "listeners, hops, match",
        [
            ((1, 9), b"\x00\x01", "unknown node id 9"),
            ((1, -1), b"\x00\x01", "unknown node id -1"),
            ((1, 2, 1), b"\x00\x01\x02", "listen twice"),
            ((0, 2), b"\x00\x01", "both transmit and listen"),
            ((1, 2), b"\x00\x03", "invalid channel 3"),
            ((1, 2), b"\x00", "2 listeners"),
            ((1,), b"\x00\x00", "1 listeners"),
            # Loops: the last row is malformed, at repetition 2.
            pytest.param(
                (1, 2),
                (b"\x00\x01", b"\x02\x02", b"\x01"),
                "holds 1 hops for 2 listeners",
                id="loop-short-row-at-2",
            ),
            pytest.param(
                (1, 2),
                (b"\x00\x01", b"\x02\x02", b"\x01\x00\x02"),
                "holds 3 hops for 2 listeners",
                id="loop-long-row-at-2",
            ),
            pytest.param(
                (1, 2),
                (b"\x00\x01", b"\x02\x02", b"\x00\x03"),
                "invalid channel 3",
                id="loop-channel-off-air-at-2",
            ),
        ],
    )
    def test_malformed_row_rejected(self, listeners, hops, match):
        # ``hops`` is one round's row, or a loop's rows.  With no
        # adversary (the planned path) and with an acting one, the bad row
        # raises at its own round, after every earlier round counted.
        rows = hops if isinstance(hops, tuple) else (hops,)
        cr = CompiledRound({0: Transmit(0, self.MSG)}, listeners, rows, RoundMeta())
        for adversary in (None, FixedAdversary(())):
            net = RadioNetwork(8, 3, 1, adversary=adversary)
            with pytest.raises(ProtocolViolation, match=match):
                net.execute_schedule([cr])
            assert net.metrics.rounds == len(net.trace) == len(rows) - 1

    def test_row_settles_listeners_by_channel(self):
        cr = CompiledRound(
            {0: Transmit(1, self.MSG)}, (4, 2, 3), (b"\x01\x00\x01",), RoundMeta()
        )
        assert self._resolve(cr) == [{1: self.MSG}]
        # A delivering channel nobody listens on is not in the result.
        lonely = CompiledRound(
            {0: Transmit(1, self.MSG)}, (2,), (b"\x00",), RoundMeta()
        )
        assert self._resolve(lonely) == [{}]

    @pytest.mark.parametrize("channel", [-1, 300])
    def test_non_byte_channel_is_a_protocol_violation(self, channel):
        net = make_network(n=4)
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            net.execute_round({0: Listen(channel)})
        with pytest.raises(ProtocolViolation, match="invalid channel"):
            CompiledRound.make({}, {channel: [1]})

    def test_make_flattens_groups_and_listens_is_a_view(self):
        groups = {2: [5, 1], 0: [3], 1: [4, 6]}
        cr = CompiledRound.make({0: Transmit(0, self.MSG)}, groups)
        assert cr.listeners == (5, 1, 3, 4, 6)
        assert cr.hops == bytes([2, 2, 0, 1, 1])
        assert cr.as_actions() == {
            0: Transmit(0, self.MSG),
            5: Listen(2),
            1: Listen(2),
            3: Listen(0),
            4: Listen(1),
            6: Listen(1),
        }

    def test_more_than_256_channels_rejected(self):
        with pytest.raises(ConfigurationError, match="256"):
            RadioNetwork(8, 257, 1)
        assert RadioNetwork(8, 256, 1).channels == 256


class TestPrivateHopEpochs:
    """Every oblivious phase draws, lays out and reads back its private
    hops through one seam in ``repro.radio.network``."""

    def test_silent_sender_draws_nothing_but_the_epoch_runs(self):
        net = make_network(n=6, channels=3)
        streams = RngRegistry(seed=4).hops("silent", nodes=range(4), n=3)
        epoch = run_gossip_epoch(
            net, 0, None, (1, 2, 3), streams, 7, RoundMeta(phase="silent")
        )
        # The sender's hop stream is untouched: its next values are a
        # fresh stream's first, while each listener's go on past the
        # seven it handed out.
        fresh = [
            HopStream(name_digest(4, "silent", node), 3).take(12)
            for node in range(4)
        ]
        assert streams[0].take(5) == fresh[0][:5]
        assert [hop.take(5) for hop in streams[1:]] == [
            values[7:] for values in fresh[1:]
        ]
        assert net.metrics.rounds == 7
        assert net.metrics.honest_transmissions == 0
        assert [heard for _row, heard in epoch] == [{}] * 7
        assert all(len(row) == 3 for row, _heard in epoch)

    @pytest.mark.parametrize("channels", [2, 3, 5])
    def test_a_keyed_epoch_compiles_at_most_c_distinct_rounds(self, channels):
        # One round per hop channel, reused whenever the hop returns to it:
        # the engine validates and settles at most C templates per epoch.
        net = make_network(n=4, channels=channels)
        submitted: list = []
        execute = net.execute_schedule

        def spy(loops):
            submitted.append(loops)
            return execute(loops)

        net.execute_schedule = spy
        draw = random.Random(channels).randrange
        hops = [draw(channels) for _ in range(40)]
        frame = msg(payload="sealed once")
        heard = run_hopped_epoch(
            net, hops, {0: frame}, (1, 2), RoundMeta(phase="keyed")
        )
        (rounds,) = submitted
        assert [cr.hops for cr in rounds] == [bytes((h, h)) for h in hops]
        assert len({id(cr) for cr in rounds}) == len(set(hops)) <= channels
        assert len({id(cr.transmits) for cr in rounds}) == len(set(hops))
        assert list(heard) == [frame] * 40
        assert net.metrics.rounds == 40
        assert net.metrics.honest_transmissions == 40

    def test_hop_streams_must_match_their_channels(self):
        streams = RngRegistry(seed=4).hops("rows", nodes=range(2), n=3)
        with pytest.raises(ConfigurationError, match=r"range\(3\)"):
            private_hop_rows([(streams, range(4))], 5)

    @pytest.mark.parametrize(
        "primitives,allowed",
        [
            # Replacing the hop coins must stay a change to one function:
            # no other module may draw or decode private hops itself.
            (
                {"BlockDrawer", "hop_table", "HIT_TABLES", "_HIT_TABLES"},
                {"rng.py", "radio/network.py"},
            ),
            # Every protocol compiles its rounds: the per-node adapter is
            # the tests' oracle and the tracer's binding, nobody's caller.
            ({"execute_round"}, {"radio/network.py"}),
        ],
        ids=["hops", "oracle"],
    )
    def test_only_the_seam_names_the_hop_primitives(self, primitives, allowed):
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        allowed = {package / name for name in allowed}
        offenders = []
        for path in sorted(package.rglob("*.py")):
            if path in allowed:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                named = (
                    getattr(node, "id", None),
                    getattr(node, "attr", None),
                    getattr(node, "name", None),
                    getattr(node, "asname", None),
                )
                if primitives.intersection(named):
                    offenders.append(f"{path.relative_to(package)}:{node.lineno}")
        assert offenders == []


def test_benchmarks_hold_no_tests():
    # The paper's claims run in tier-1 (tests/test_paper_claims.py) and
    # benchmarks/*.py are standalone scripts that pytest never collects, so
    # a test written there would silently run nowhere.
    root = Path(__file__).resolve().parents[1]
    offenders = []
    for path in sorted((root / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            if any(name.split(".")[0] == "pytest" for name in imported):
                offenders.append(f"{where} imports pytest")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("test_"):
                    offenders.append(f"{where} defines {node.name}")
                args = node.args
                if any(
                    arg.arg == "benchmark"
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                ):
                    offenders.append(f"{where} takes a benchmark argument")
    assert offenders == []


class TestBookkeeping:
    def test_metrics_counts(self):
        net = make_network(n=6)
        net.execute_round(
            {0: Transmit(0, msg()), 1: Transmit(0, msg()), 2: Listen(0), 3: Listen(1)}
        )
        m = net.metrics
        assert m.rounds == 1
        assert m.honest_transmissions == 2
        assert m.listens == 2
        assert m.collisions == 1
        assert m.deliveries == 0

    def test_phase_attribution(self):
        net = make_network(n=4)
        net.execute_round({0: Listen(0)}, RoundMeta(phase="alpha"))
        net.execute_round({0: Listen(0)}, RoundMeta(phase="alpha"))
        net.execute_round({0: Listen(0)}, RoundMeta(phase="beta"))
        assert net.metrics.rounds_by_phase == {"alpha": 2, "beta": 1}

    def test_keep_trace_false_discards_records(self):
        net = make_network(n=4, keep_trace=False)
        net.execute_round({0: Listen(0)})
        assert len(net.trace) == 0
        assert net.metrics.rounds == 1

    def test_round_index_advances(self):
        net = make_network(n=4)
        assert net.round_index == 0
        net.execute_round({0: Listen(0)})
        assert net.round_index == 1


class TestRoundMeta:
    def test_as_dict_includes_schedule_and_extra(self):
        meta = RoundMeta(
            phase="p", schedule={"k": 1}, extra={"move": 7}
        )
        d = meta.as_dict()
        assert d == {"phase": "p", "schedule": {"k": 1}, "move": 7}

    def test_as_dict_omits_missing_schedule(self):
        assert "schedule" not in RoundMeta(phase="p").as_dict()
