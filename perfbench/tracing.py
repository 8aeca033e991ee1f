"""Span tracing installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each ``repro`` layer with timing wrappers at
the binding its callers actually use: a class attribute for methods
(``RadioNetwork.execute_schedule``, ``BlockDrawer.draw``), and the
importing module's global for functions imported by name (the f-AME
protocol calls ``repro.fame.protocol.run_feedback``, not
``repro.feedback.run_feedback``).  :func:`install` returns an
``uninstall`` callable that puts every original back.

Spans nest on one stack, so a span's *self* time is its duration minus
the time of the spans opened inside it.  Per-name totals and counters are
kept in memory; only coarse spans (trials, requests, group-key parts)
are kept as records, for :meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one process."""

    RECORDED = frozenset(
        {
            "trial",
            "fame",
            "groupkey.part1",
            "groupkey.part2",
            "groupkey.part3",
            "service.rekey",
            "serve.handle",
        }
    )

    def __init__(self) -> None:
        self.stack: list[list] = []  # [child seconds, name] per open span
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.records: list[tuple] = []
        self.req_id = None  # the serve request being handled, if any
        self.radio_depth = 0

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span called ``name``.

        ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result, seconds)`` once ``fn`` has
        returned; neither runs when ``fn`` raises.
        """
        clock = time.perf_counter
        stack = self.stack
        totals = self.totals
        record = name in self.RECORDED

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                entry = totals[name]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame[0]
                if stack:
                    stack[-1][0] += seconds
                if record:
                    parent = stack[-1][1] if stack else None
                    self.records.append(
                        (name, start, seconds, parent, self.req_id)
                    )
            if after is not None:
                after(token, args, kwargs, result, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def summary(self) -> dict:
        """The per-name totals, counters and samples as plain JSON."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        }

    def merge(self, summary: dict) -> None:
        """Fold a :meth:`summary` from another process into this one."""
        for name, (calls, total, own) in summary["totals"].items():
            entry = self.totals[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, value in summary["counts"].items():
            self.counts[name] += value
        for name, values in summary["samples"].items():
            self.samples[name].extend(values)

    def write(self, path) -> None:
        """Write the recorded spans and the totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, seconds, parent, req_id in self.records:
                out.write(
                    json.dumps(
                        {
                            "span": name,
                            "start": start,
                            "seconds": seconds,
                            "parent": parent,
                            "req": req_id,
                        }
                    )
                    + "\n"
                )
            out.write(json.dumps({"summary": self.summary()}) + "\n")


# ----------------------------------------------------------------------
# The wrappers, one group per layer
# ----------------------------------------------------------------------

_RADIO_FIELDS = (
    "rounds",
    "honest_transmissions",
    "listens",
    "deliveries",
    "collisions",
    "adversary_transmissions",
    "spoofs_delivered",
)


def _snapshot(metrics) -> tuple:
    return tuple(getattr(metrics, f) for f in _RADIO_FIELDS)


def _radio(tracer: Tracer, entry: str, fn):
    """Outermost-only radio span: nested entry points (execute_rounds ->
    execute_schedule, a subclass's execute_schedule -> execute_round)
    count once, with the network's counter deltas."""
    counts = tracer.counts
    calls_key = f"radio.{entry}.calls"

    def before(args, kwargs):
        return _snapshot(args[0].metrics)

    def after(start, args, kwargs, result, seconds):
        now = _snapshot(args[0].metrics)
        for field, old, new in zip(_RADIO_FIELDS, start, now):
            counts["radio." + field] += new - old

    spanned = tracer.span("radio", fn, before, after)

    def radio(*args, **kwargs):
        if tracer.radio_depth:
            return fn(*args, **kwargs)
        counts[calls_key] += 1
        tracer.radio_depth = 1
        try:
            return spanned(*args, **kwargs)
        finally:
            tracer.radio_depth = 0

    radio.__wrapped__ = fn
    return radio


def _patch(undo: list, owner, attr: str, wrapper_factory) -> None:
    original = vars(owner)[attr]
    undo.append((owner, attr, original))
    setattr(owner, attr, wrapper_factory(original))


def _restorer(undo: list):
    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns ``uninstall()``."""
    from repro import adversary as adv
    from repro.crypto import dh, hopping, stream
    from repro.errors import CryptoError
    from repro.experiments.trial import TrialResult
    from repro.fame import protocol as fame_protocol
    from repro.game.greedy import GreedyPools
    from repro.groupkey import protocol as gk_protocol
    from repro.radio.network import RadioNetwork
    from repro.rng import BlockDrawer
    from repro.service import emulated_channel, session

    undo: list = []
    counts = tracer.counts
    span = tracer.span

    def plain(name):
        return lambda fn: span(name, fn)

    # feedback: wrapped where FameProtocol looks them up.
    def feedback(name):
        def before(args, kwargs):
            return args[0].metrics.rounds

        def after(start, args, kwargs, result, seconds):
            counts[name + ".rounds"] += args[0].metrics.rounds - start

        return lambda fn: span(name, fn, before, after)

    _patch(undo, fame_protocol, "run_feedback", feedback("feedback.serial"))
    _patch(
        undo,
        fame_protocol,
        "run_parallel_feedback",
        feedback("feedback.parallel"),
    )

    # rng: the batched hop sampler.
    def draw_after(token, args, kwargs, result, seconds):
        counts["rng.draw.values"] += len(result)

    _patch(undo, BlockDrawer, "draw", lambda fn: span("rng.draw", fn, None, draw_after))

    # radio: every way a protocol submits rounds.
    for attr in ("execute_round", "execute_rounds", "execute_schedule"):
        short = attr.split("_", 1)[1]
        _patch(undo, RadioNetwork, attr, lambda fn, short=short: _radio(tracer, short, fn))

    # adversary: each gallery class's own act().
    def act_after(token, args, kwargs, result, seconds):
        counts["adversary.act.transmissions"] += len(result)

    for cls in (
        adv.NullAdversary,
        adv.RandomJammer,
        adv.SweepJammer,
        adv.ReactiveJammer,
        adv.SpoofingAdversary,
        adv.ScheduleAwareJammer,
    ):
        if "act" in cls.__dict__:
            _patch(undo, cls, "act", lambda fn: span("adversary.act", fn, None, act_after))

    # fame / game.
    def fame_after(token, args, kwargs, result, seconds):
        counts["fame.moves"] += result.moves
        counts["fame.divergence_events"] += result.divergence_events

    _patch(
        undo,
        fame_protocol.FameProtocol,
        "run",
        lambda fn: span("fame", fn, None, fame_after),
    )
    _patch(undo, fame_protocol, "build_schedule", plain("fame.schedule"))
    _patch(undo, fame_protocol, "check_proposal", plain("game.check"))
    _patch(undo, GreedyPools, "proposal", plain("game.proposal"))

    # crypto.
    def decrypt(fn):
        traced = span("crypto.decrypt", fn)

        def guarded(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except CryptoError:
                counts["crypto.decrypt.rejects"] += 1
                raise

        guarded.__wrapped__ = fn
        return guarded

    _patch(undo, stream.AuthenticatedCipher, "encrypt", plain("crypto.encrypt"))
    _patch(undo, stream.AuthenticatedCipher, "decrypt", decrypt)
    _patch(undo, hopping.ChannelHopper, "channel", plain("crypto.hop"))
    _patch(undo, hopping.ChannelHopper, "sequence", plain("crypto.hop"))
    _patch(undo, dh.DhGroup, "keypair", plain("crypto.dh"))
    _patch(undo, dh.DhKeyPair, "shared_key", plain("crypto.dh"))
    for module, attr in (
        (stream, "derive_key"),
        (hopping, "derive_key"),
        (dh, "derive_key"),
        (session, "derive_key"),
        (gk_protocol, "h2"),
    ):
        _patch(undo, module, attr, plain("crypto.hash"))

    # groupkey: the three parts, plus the result's own per-part counters.
    def groupkey_after(token, args, kwargs, result, seconds):
        for part in (1, 2, 3):
            counts[f"groupkey.part{part}.rounds"] += getattr(
                result, f"part{part}_rounds"
            )
            counts[f"groupkey.part{part}.air_units"] += getattr(
                result, f"part{part}_payload_units"
            )

    _patch(
        undo,
        gk_protocol.GroupKeyProtocol,
        "run",
        lambda fn: span("groupkey", fn, None, groupkey_after),
    )
    for part, attr in (
        (1, "_part1_pairwise_keys"),
        (2, "_part2_disseminate"),
        (3, "_part3_agree"),
    ):
        _patch(undo, gk_protocol.GroupKeyProtocol, attr, plain(f"groupkey.part{part}"))

    # service.
    def round_after(token, args, kwargs, result, seconds):
        counts["service.round.listeners"] += len(result)
        counts["service.round.deliveries"] += sum(
            1 for d in result.values() if d is not None
        )

    _patch(
        undo,
        emulated_channel.LongLivedChannel,
        "run_round",
        lambda fn: span("service.round", fn, None, round_after),
    )
    _patch(undo, session.SecureSession, "flush", plain("service.flush"))
    _patch(undo, session.SecureSession, "rekey", plain("service.rekey"))

    # experiments: the disruptability cover search.
    _patch(undo, TrialResult, "disruptability", plain("experiments.cover"))
    return _restorer(undo)


def install_serve(tracer: Tracer):
    """Daemon-side wrappers: request handling and wire coding.

    The host's ``handle`` span carries the ``req`` id the daemon just
    decoded, so client and daemon spans of one request share it.
    """
    from repro.dispatch import socket_pool
    from repro.serve import daemon, host
    from repro.serve import protocol as p

    undo: list = []
    span = tracer.span
    samples = tracer.samples
    counts = tracer.counts

    def decode_after(token, args, kwargs, result, seconds):
        tracer.req_id = result[0]

    def handle_after(token, args, kwargs, result, seconds):
        host_obj, _token, request = args
        kind = type(request).KIND
        samples["serve.handle"].append((tracer.req_id, kind, seconds))
        if isinstance(result, p.Failure):
            counts["serve.failures." + result.code] += 1
        open_now = len(host_obj.sessions)
        if open_now > counts["serve.sessions_open.max"]:
            counts["serve.sessions_open.max"] = open_now

    _patch(undo, p, "decode_request", lambda fn: span("serve.wire.decode", fn, None, decode_after))
    _patch(undo, socket_pool.FrameDecoder, "feed", lambda fn: span("serve.wire.decode", fn))
    _patch(undo, p, "encode_response", lambda fn: span("serve.wire.encode", fn))
    _patch(undo, daemon, "_frame_bytes", lambda fn: span("serve.wire.encode", fn))
    _patch(
        undo,
        host.SessionHost,
        "handle",
        lambda fn: span("serve.handle", fn, None, handle_after),
    )
    return _restorer(undo)
