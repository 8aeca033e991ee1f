"""Trace export: serialize executions for offline inspection.

Long debugging sessions (and paper-style figures) want the raw execution
as data.  :func:`trace_to_records` flattens an
:class:`~repro.radio.trace.ExecutionTrace` into JSON-serializable dicts —
one per round — and :func:`dump_trace` / :func:`channel_occupancy` provide
the two most-wanted consumers: a JSON file and a per-channel activity
summary (how often each channel carried honest traffic, adversary traffic,
collisions, deliveries).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .actions import Transmit
from .messages import Jam
from .trace import ExecutionTrace, RoundRecord


def _payload_repr(payload: Any) -> Any:
    """JSON-safe view of a message payload (bytes become hex)."""
    if isinstance(payload, (bytes, bytearray)):
        return {"hex": bytes(payload).hex()}
    if isinstance(payload, (list, tuple)):
        return [_payload_repr(p) for p in payload]
    if isinstance(payload, dict):
        return {str(k): _payload_repr(v) for k, v in payload.items()}
    if payload is None or isinstance(payload, (str, int, float, bool)):
        return payload
    return repr(payload)


def record_to_dict(record: RoundRecord) -> dict[str, Any]:
    """One round as a JSON-serializable dict.  ``actions`` lists the
    transmitters and listeners (a node absent from it slept) and
    ``delivered`` the touched channels (a channel absent from it was
    silent)."""
    actions: dict[str, Any] = {}
    for node, action in record.actions.items():
        if isinstance(action, Transmit):
            actions[str(node)] = {
                "op": "transmit",
                "channel": action.channel,
                "kind": action.message.kind,
                "sender": action.message.sender,
                "payload": _payload_repr(action.message.payload),
            }
        else:
            actions[str(node)] = {"op": "listen", "channel": action.channel}
    adversary = [
        {
            "channel": tx.channel,
            "jam": isinstance(tx.payload, Jam),
            "kind": None if isinstance(tx.payload, Jam) else tx.payload.kind,
        }
        for tx in record.adversary_transmissions
    ]
    delivered = {
        str(channel): (None if msg is None else msg.kind)
        for channel, msg in sorted(record.delivered.items())
    }
    return {
        "round": record.index,
        "meta": _payload_repr(record.meta),
        "actions": actions,
        "adversary": adversary,
        "delivered": delivered,
    }


def trace_to_records(trace: ExecutionTrace) -> list[dict[str, Any]]:
    """The whole trace as a list of JSON-serializable dicts."""
    return [record_to_dict(record) for record in trace]


def dump_trace(trace: ExecutionTrace, path: str | Path) -> int:
    """Write the trace as JSON lines; returns the number of rounds."""
    records = trace_to_records(trace)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


def channel_occupancy(trace: ExecutionTrace, channels: int) -> list[dict[str, int]]:
    """Per-channel activity counters over the whole trace.

    Returns one dict per channel with keys ``honest`` (rounds carrying at
    least one honest transmission), ``adversary`` (rounds the adversary
    touched it), ``collisions`` (two-plus transmitters) and ``delivered``
    (successful decodes).
    """
    stats = [
        {"honest": 0, "adversary": 0, "collisions": 0, "delivered": 0}
        for _ in range(channels)
    ]
    for record in trace:
        adversary_channels = record.adversary_channels()
        for channel in range(channels):
            honest = record.honest_transmitters(channel)
            if honest:
                stats[channel]["honest"] += 1
            if channel in adversary_channels:
                stats[channel]["adversary"] += 1
            transmitters = len(honest) + (1 if channel in adversary_channels else 0)
            if transmitters >= 2:
                stats[channel]["collisions"] += 1
            if record.delivered.get(channel) is not None:
                stats[channel]["delivered"] += 1
    return stats
