"""Per-layer metrics from a :class:`~tracing.Tracer`, normalised per op.

An *op* is one trial on the trial workloads and one request on
``serve``.  Self times are in ms per op; counts are per op; ratios are
plain.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

from tracing import Tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def add_layer_metrics(report, t: Tracer, ops: int) -> None:
    c = t.counts
    add = report.add

    def calls(name: str, span: str | None = None) -> None:
        span = span or name
        add(f"{name}.calls", t.calls(span) / ops, "count/op", t.calls(span))

    def self_ms(name: str, span: str | None = None) -> None:
        span = span or name
        add(f"{name}.self_ms", t.self_s(span) * 1e3 / ops, "ms/op", t.calls(span))

    def per_op(name: str, value: float, samples: int) -> None:
        add(name, value / ops, "count/op", samples)

    # feedback
    for kind in ("parallel", "serial"):
        calls(f"feedback.{kind}")
        self_ms(f"feedback.{kind}")
    fb_calls = t.calls("feedback.parallel") + t.calls("feedback.serial")
    fb_rounds = c["feedback.parallel.rounds"] + c["feedback.serial.rounds"]
    add("feedback.rounds_per_call", _ratio(fb_rounds, fb_calls), "count", fb_calls)

    # rng
    calls("rng.draw")
    per_op("rng.draw.values", c["rng.draw.values"], t.calls("rng.draw"))
    self_ms("rng.draw")

    # radio
    radio_calls = t.calls("radio")
    per_op("radio.schedule.calls", c["radio.schedule.calls"], radio_calls)
    per_op(
        "radio.round.calls",
        c["radio.round.calls"] + c["radio.rounds.calls"],
        radio_calls,
    )
    per_op("radio.rounds", c["radio.rounds"], radio_calls)
    self_ms("radio")
    add(
        "radio.us_per_round",
        _ratio(t.self_s("radio") * 1e6, c["radio.rounds"]),
        "us",
        int(c["radio.rounds"]),
    )
    per_op("radio.listens", c["radio.listens"], radio_calls)
    per_op("radio.collisions", c["radio.collisions"], radio_calls)
    add(
        "radio.delivery_ratio",
        _ratio(c["radio.deliveries"], c["radio.honest_transmissions"]),
        "ratio",
        int(c["radio.honest_transmissions"]),
    )

    # adversary
    calls("adversary.act")
    self_ms("adversary.act")
    per_op(
        "adversary.transmissions",
        c["adversary.act.transmissions"],
        t.calls("adversary.act"),
    )
    per_op("adversary.spoofs_delivered", c["radio.spoofs_delivered"], radio_calls)

    # fame / game
    per_op("fame.moves_per_trial", c["fame.moves"], t.calls("fame"))
    self_ms("fame")
    self_ms("fame.schedule")
    calls("game.proposal")
    self_ms("game.proposal")
    self_ms("game.check")
    per_op("fame.divergence_events", c["fame.divergence_events"], t.calls("fame"))

    # crypto
    for op in ("encrypt", "decrypt", "hop", "dh", "hash"):
        calls(f"crypto.{op}")
        self_ms(f"crypto.{op}")
    add(
        "crypto.decrypt.reject_ratio",
        _ratio(c["crypto.decrypt.rejects"], t.calls("crypto.decrypt")),
        "ratio",
        t.calls("crypto.decrypt"),
    )

    # groupkey
    runs = t.calls("groupkey")
    for part in (1, 2, 3):
        span = f"groupkey.part{part}"
        add(f"{span}.ms", t.total_s(span) * 1e3 / ops, "ms/op", t.calls(span))
        per_op(f"{span}.rounds", c[f"{span}.rounds"], runs)
        per_op(f"{span}.air_units", c[f"{span}.air_units"], runs)

    # service
    for op in ("flush", "round", "rekey"):
        calls(f"service.{op}")
        self_ms(f"service.{op}")
    add(
        "service.delivery_ratio",
        _ratio(c["service.round.deliveries"], c["service.round.listeners"]),
        "ratio",
        int(c["service.round.listeners"]),
    )

    # experiments
    self_ms("experiments.cover")
