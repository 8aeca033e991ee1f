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
* a frame whose digest does not match its true slots is dropped whole,
  without corrupting knowledge — forced below end to end through the
  radio — and each distinct frame is checked once, however many listeners
  and repetitions hear it.
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
from repro.feedback.parallel import run_parallel_feedback
from repro.radio.actions import Transmit
from repro.radio.messages import DELTA_KIND, DeltaFrame, Message
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry

from test_golden import (
    PARALLEL_FEEDBACK,
    PARALLEL_FULL_FRAME_PAYLOAD_UNITS,
    PARALLEL_FULL_FRAME_SEMANTIC,
    RESTRICTED_FULL_FRAME_PAYLOAD_UNITS,
    RESTRICTED_PARALLEL_FEEDBACK,
    d_map_form,
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


def _run(adversary_factory, *, seed=9):
    n, channels, t = 60, 8, 2
    net = RadioNetwork(n, channels, t, adversary=adversary_factory())
    witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
    flags = {w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws}
    out = run_parallel_feedback(
        net, witness_sets, flags, list(range(n)), RngRegistry(seed=seed)
    )
    return out, net


def _corrupt_digests(monkeypatch, corrupt=lambda tag: True):
    """Send every frame whose tag satisfies ``corrupt`` with a digest its
    true slots do not hash to."""
    import repro.feedback.parallel as parallel_module

    real = parallel_module._delta_payload

    def payload(group, tag):
        frame = real(group, tag)
        if not corrupt(tag):
            return frame
        return DeltaFrame(
            tag=frame.tag, digest=b"\xff" * 32, true_slots=frame.true_slots
        )

    monkeypatch.setattr(parallel_module, "_delta_payload", payload)


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
        out, net = _run(ADVERSARIES[adversary])
        assert (
            _semantic_digest(out, net)
            == PARALLEL_FULL_FRAME_SEMANTIC[adversary]
        )
        # The counter the encoding exists to shrink, and nothing else.
        assert net.metrics.payload_units < PARALLEL_FULL_FRAME_PAYLOAD_UNITS

    @pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
    def test_compiled_and_per_round_delta_byte_identical(self, adversary):
        out, net = _run(ADVERSARIES[adversary])
        assert network_digest(out, net) == PARALLEL_FEEDBACK[adversary]

    def test_outputs_correct_under_jamming(self):
        out, _net = _run(ADVERSARIES["random"])
        expected = {0, 2, 3}
        assert all(d == expected for d in out.values())


class TestDigestMismatchResync:
    """A frame whose digest does not match its true slots is dropped
    whole: there is no resync path, and no partial application."""

    def test_forced_mismatch_without_resync_drops_frames_end_to_end(
        self, monkeypatch
    ):
        """With every digest corrupted, nobody learns anything beyond
        their own witness flag — and nobody's knowledge is corrupted into
        a wrong positive."""
        _corrupt_digests(monkeypatch)
        out, _net = _run(ADVERSARIES["none"])
        witness_slot = {w: s for s in range(4) for w in range(s * 4, s * 4 + 4)}
        for node, d in out.items():
            slot = witness_slot.get(node)
            expected = {slot} if slot is not None and slot != 1 else set()
            assert d == expected

    def test_mismatch_without_resync_payload_drops_the_frame(
        self, monkeypatch
    ):
        """Only the final dissemination frame is corrupted: the merge tree
        still brings every witness to the true flag set, while the
        outsiders, who hear nothing else, keep an empty ``D``."""
        _corrupt_digests(monkeypatch, lambda tag: tag[0] == "final")
        out, _net = _run(ADVERSARIES["random"])
        for node, d in out.items():
            assert d == ({0, 2, 3} if node < 16 else set())

    def test_verification_is_cached_per_frame_not_per_listener(
        self, monkeypatch
    ):
        """Each distinct frame is checked once, however many listeners
        hear it in however many repetitions: four leaf digests, then one
        check per transfer (four at level 0, two at level 1, one in the
        final dissemination)."""
        import repro.fame.digests as digests_module

        calls = []
        real = digests_module.slot_set_digest

        def counted(slots):
            calls.append(tuple(slots))
            return real(slots)

        monkeypatch.setattr(digests_module, "slot_set_digest", counted)
        out, _net = _run(ADVERSARIES["random"])
        assert all(d == {0, 2, 3} for d in out.values())
        assert len(calls) == 4 + 4 + 2 + 1


class TestRestrictedListeningDelta:
    """Compiled schedules carrying delta frames resolve through
    RestrictedListeningNetwork's monitoring resolver unchanged: the run's
    digest, redacted trace included, equals the per-round reference's."""

    def _run(self):
        n, channels, t = 24, 8, 2
        net = RestrictedListeningNetwork(
            n, channels, t, StickyEavesdropper([1, 3])
        )
        witness_sets = [tuple(range(s * 4, s * 4 + 4)) for s in range(4)]
        flags = {w: (s != 2) for s, ws in enumerate(witness_sets) for w in ws}
        out = run_parallel_feedback(
            net, witness_sets, flags, list(range(n)), RngRegistry(seed=13)
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
