"""Differential gauntlet: digest/delta knowledge frames vs full frames.

The parallel feedback merge ships digest/delta encoded knowledge frames
(:class:`~repro.radio.messages.DeltaFrame`) instead of the historical full
``slot -> flag`` maps.  The optimisation obligation (after Aspnes'
formulation: an optimized exchange must be indistinguishable from the
naive one under every adversary) is discharged here against digests
recorded from the naive executions (``tests/test_golden.py``):

* seeded delta runs match the full-frame runs' ``D`` maps, radio metrics
  apart from the payload-size counter the delta encoding exists to
  shrink, and *semantic* traces (both encodings projected onto the
  knowledge they carry) — for the whole adversary gallery, including a
  protocol-aware delta-frame spoofer;
* the compiled schedule is byte-identical to the per-round transfer loop
  it replaced;
* a digest mismatch either falls back to the frame's embedded full-frame
  resync payload or drops the frame without corrupting knowledge — both
  branches forced below, in-process and end-to-end through the radio.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import (
    BudgetAdversary,
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.extensions.restricted_listening import (
    RestrictedListeningNetwork,
    StickyEavesdropper,
)
from repro.feedback.parallel import DeltaApplyState, run_parallel_feedback
from repro.radio.actions import Transmit
from repro.radio.messages import DELTA_KIND, DeltaFrame, Message
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry

from test_golden import (
    DELTA_COUNTERS,
    FORCED_DROP_COUNTERS,
    FORCED_RESYNC_COUNTERS,
    PARALLEL_FEEDBACK,
    PARALLEL_FULL_FRAME_PAYLOAD_UNITS,
    PARALLEL_FULL_FRAME_SEMANTIC,
    RESTRICTED_FULL_FRAME_PAYLOAD_UNITS,
    RESTRICTED_DELTA_COUNTERS,
    RESTRICTED_PARALLEL_FEEDBACK,
    d_map_form,
    delta_state_form,
    json_forms,
    metrics_form,
    network_digest,
    sha,
)


def _forge_delta(view, channel):
    """A protocol-aware forgery: a delta frame with a bogus digest aimed at
    the active transfer.  Every block channel carries an honest broadcaster,
    so this can only collide — the gauntlet proves the delta encoding
    shrugs it off exactly like the full-frame one did."""
    tag = view.meta.extra.get("tag") if view.meta.extra else None
    return Message(
        kind=DELTA_KIND,
        sender=3,
        payload=DeltaFrame(tag=tag, digest=b"\xee" * 32, true_slots=(0, 1)),
    )


ADVERSARIES = {
    "none": lambda: None,
    "null": NullAdversary,
    "sweep": SweepJammer,
    "random": lambda: RandomJammer(random.Random(0xA1)),
    "reactive": lambda: ReactiveJammer(random.Random(0xB7)),
    "schedule-aware": lambda: ScheduleAwareJammer(random.Random(0xC5)),
    "spoof": lambda: SpoofingAdversary(random.Random(0xB2)),
    "spoof-delta": lambda: SpoofingAdversary(
        random.Random(0xD4), forge=_forge_delta
    ),
    "budget": lambda: BudgetAdversary(
        RandomJammer(random.Random(0xE6)), total_budget=40
    ),
}


def _run(adversary_factory, *, seed=9, state=None):
    n, channels, t = 60, 8, 2
    net = RadioNetwork(n, channels, t, adversary=adversary_factory())
    witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
    flags = {w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws}
    if state is None:
        state = DeltaApplyState()
    out = run_parallel_feedback(
        net,
        witness_sets,
        flags,
        list(range(n)),
        RngRegistry(seed=seed),
        delta_state=state,
    )
    return out, net, state


def _knowledge_view(msg):
    """Project a knowledge frame onto what it *means*: (sender claim,
    transfer tag, true slots) — the form both encodings shared, so the
    full-frame run's digest applies.  Non-knowledge payloads pass through
    unchanged."""
    if not isinstance(msg, Message):
        return msg
    if msg.kind == DELTA_KIND and isinstance(msg.payload, DeltaFrame):
        frame = msg.payload
        return ("knowledge", msg.sender, frame.tag, frame.true_slots)
    return msg


def _semantic_trace(net):
    """Canonical forms with knowledge frames projected by
    :func:`_knowledge_view`."""
    out = []
    for form in net.trace.canonical_forms():
        actions = {}
        for node, action in form["actions"].items():
            if isinstance(action, Transmit):
                actions[node] = (
                    "tx",
                    action.channel,
                    _knowledge_view(action.message),
                )
            else:
                actions[node] = action
        out.append(
            {
                **form,
                "actions": actions,
                "delivered": {
                    c: _knowledge_view(m) for c, m in form["delivered"].items()
                },
                "adversary": tuple(
                    (tx.channel, _knowledge_view(tx.payload))
                    for tx in form["adversary"]
                ),
            }
        )
    return out


def _semantic_digest(out, net):
    """The ``D`` map, every metric but ``payload_units``, and the semantic
    trace — what the delta and full-frame encodings must agree on."""
    return sha(
        [
            d_map_form(out),
            metrics_form(net.metrics, exclude=("payload_units",)),
            json_forms(_semantic_trace(net)),
        ]
    )


class TestDeltaVersusFullFrame:
    """Seeded delta == full-frame across the adversary gallery."""

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_d_maps_metrics_and_semantic_traces_match(self, adversary):
        out, net, state = _run(ADVERSARIES[adversary])
        assert (
            _semantic_digest(out, net)
            == PARALLEL_FULL_FRAME_SEMANTIC[adversary]
        )
        # The counter the encoding exists to shrink, and nothing else.
        assert net.metrics.payload_units < PARALLEL_FULL_FRAME_PAYLOAD_UNITS
        # Honest frames always verify: the escape hatch stays cold.
        assert state.digest_mismatches == 0
        assert state.resyncs == 0

    @pytest.mark.parametrize(
        "adversary", ["none", "random", "schedule-aware", "spoof-delta"]
    )
    def test_compiled_and_per_round_delta_byte_identical(self, adversary):
        out, net, _ = _run(ADVERSARIES[adversary])
        assert network_digest(out, net) == PARALLEL_FEEDBACK[adversary]

    def test_outputs_correct_under_jamming(self):
        out, _net, _state = _run(ADVERSARIES["random"])
        expected = {0, 2, 3}
        assert all(d == expected for d in out.values())

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_apply_counters_match_golden(self, adversary):
        _out, _net, state = _run(ADVERSARIES[adversary])
        assert delta_state_form(state) == DELTA_COUNTERS[adversary]

    def test_applied_digest_tracking_short_circuits_repeats(self):
        _out, _net, state = _run(ADVERSARIES["none"])
        assert state.applications > 0
        # Every decode after a listener's first is an O(1) skip — with no
        # jamming, listeners decode in (almost) every repetition, so skips
        # dwarf applications.
        assert state.skips > state.applications


class TestDigestMismatchResync:
    """The correctness escape hatch, both branches."""

    def _frames(self):
        from repro.fame.digests import slot_set_digest

        good = DeltaFrame(
            tag="t", digest=slot_set_digest((2, 5)), true_slots=(2, 5)
        )
        bad = DeltaFrame(tag="t", digest=b"\xff" * 32, true_slots=(2, 5))
        resync = DeltaFrame(
            tag="t",
            digest=b"\xff" * 32,
            true_slots=(2, 5),
            full=((2, True), (4, False), (5, True)),
        )
        return good, bad, resync

    def test_good_frame_applies_once_then_skips(self):
        good, _bad, _resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {}
        assert state.apply(7, good, knowledge)
        assert knowledge == {2: True, 5: True}
        assert not state.apply(7, good, knowledge)
        assert state.applications == 1 and state.skips == 1

    def test_mismatch_without_resync_payload_drops_the_frame(self):
        good, bad, _resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {9: True}
        assert not state.apply(7, bad, knowledge)
        assert knowledge == {9: True}  # untouched — no partial application
        assert state.digest_mismatches == 1 and state.resyncs == 0
        # The bad digest was not marked applied: a later well-formed frame
        # under the same digest key still lands (here: the good frame,
        # whose digest differs — and applying it works).
        assert state.apply(7, good, knowledge)
        assert knowledge == {9: True, 2: True, 5: True}

    def test_mismatch_with_resync_payload_applies_full_items(self):
        _good, _bad, resync = self._frames()
        state = DeltaApplyState()
        knowledge: dict[int, bool] = {}
        assert state.apply(7, resync, knowledge)
        assert knowledge == {2: True, 4: False, 5: True}
        assert state.digest_mismatches == 1 and state.resyncs == 1
        # The resync frame (keyed by value, not by its untrustworthy
        # digest) is now applied for this node.
        assert not state.apply(7, resync, knowledge)
        assert state.skips == 1

    def test_verification_is_cached_per_frame_not_per_listener(self):
        _good, bad, _resync = self._frames()
        state = DeltaApplyState()
        for node in range(10):
            state.apply(node, bad, {})
        assert state.digest_mismatches == 1

    def test_apply_state_is_single_use(self):
        """Reusing a state across invocations would silently skip the
        second run's frames (same slot layout => same digests), so the
        entry point refuses it outright."""
        from repro.errors import ConfigurationError

        state = DeltaApplyState()
        _out, _net, _ = _run(ADVERSARIES["none"], state=state)
        with pytest.raises(ConfigurationError):
            _run(ADVERSARIES["none"], state=state)

    def test_forced_mismatch_resyncs_end_to_end(self, monkeypatch):
        """Corrupt every sender digest in flight; the embedded full-frame
        payload must carry the whole invocation to the true flag set."""
        import repro.feedback.parallel as parallel_module

        real = parallel_module._delta_payload

        def corrupted(group, tag):
            frame = real(group, tag)
            return DeltaFrame(
                tag=frame.tag,
                digest=b"\xff" * 32,
                true_slots=frame.true_slots,
                full=tuple((slot, True) for slot in group.true_slots),
            )

        monkeypatch.setattr(parallel_module, "_delta_payload", corrupted)
        out, _net, state = _run(ADVERSARIES["random"])
        assert all(d == {0, 2, 3} for d in out.values())
        assert state.digest_mismatches > 0
        assert state.resyncs == state.digest_mismatches
        assert delta_state_form(state) == FORCED_RESYNC_COUNTERS

    def test_forced_mismatch_without_resync_drops_frames_end_to_end(
        self, monkeypatch
    ):
        """Without the escape hatch, corrupted frames are dropped whole:
        nobody learns anything beyond their own witness flag — and nobody's
        knowledge is corrupted into a wrong positive."""
        import repro.feedback.parallel as parallel_module

        real = parallel_module._delta_payload

        def corrupted(group, tag):
            frame = real(group, tag)
            return DeltaFrame(
                tag=frame.tag, digest=b"\xff" * 32, true_slots=frame.true_slots
            )

        monkeypatch.setattr(parallel_module, "_delta_payload", corrupted)
        out, _net, state = _run(ADVERSARIES["none"])
        assert state.digest_mismatches > 0 and state.resyncs == 0
        assert delta_state_form(state) == FORCED_DROP_COUNTERS
        witness_slot = {w: s for s in range(4) for w in range(s * 4, s * 4 + 4)}
        for node, d in out.items():
            slot = witness_slot.get(node)
            expected = {slot} if slot is not None and slot != 1 else set()
            assert d == expected


class TestRestrictedListeningDelta:
    """Compiled schedules carrying delta frames resolve through
    RestrictedListeningNetwork's monitoring resolver unchanged: the run's
    digest, redacted trace included, equals the per-round reference's."""

    def _run(self, state=None):
        n, channels, t = 24, 8, 2
        net = RestrictedListeningNetwork(
            n, channels, t, StickyEavesdropper([1, 3])
        )
        witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
        flags = {w: (s != 2) for s, ws in enumerate(witness_sets) for w in ws}
        out = run_parallel_feedback(
            net,
            witness_sets,
            flags,
            list(range(n)),
            RngRegistry(seed=13),
            delta_state=state,
        )
        return out, net

    def test_compiled_delta_matches_per_round_delta(self):
        out, net = self._run()
        assert network_digest(out, net) == RESTRICTED_PARALLEL_FEEDBACK

    def test_delta_matches_full_frame_outputs(self):
        out, net = self._run()
        assert all(d == {0, 1, 3} for d in out.values())
        assert (
            net.metrics.payload_units < RESTRICTED_FULL_FRAME_PAYLOAD_UNITS
        )

    def test_apply_counters_match_golden(self):
        state = DeltaApplyState()
        self._run(state)
        assert delta_state_form(state) == RESTRICTED_DELTA_COUNTERS
