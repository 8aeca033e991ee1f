"""The synchronous multi-channel single-hop radio network substrate.

This subpackage implements the communication model of Section 3 of the paper
verbatim:

* ``n`` nodes, ``C > 1`` channels, synchronous rounds, all nodes start
  together;
* each round a node transmits **or** receives on a single channel (or
  sleeps);
* exactly one transmitter on a channel ⇒ every listener on that channel
  receives the transmission; zero or two-plus transmitters ⇒ listeners
  receive nothing;
* no collision detection — silence and collision are indistinguishable;
* a malicious adversary may transmit on up to ``t < C`` channels per round
  (jamming and/or spoofing) and observes everything with one round of delay.
"""

from .actions import SLEEP, Action, Listen, Sleep, Transmit
from .messages import DELTA_KIND, JAM, DeltaFrame, Jam, Message
from .network import (
    AdversaryView,
    CompiledRound,
    Heard,
    RadioNetwork,
    RoundMeta,
    first_opened,
    keyed_epoch_rounds,
    run_hopped_epoch,
)
from .trace import ExecutionTrace, RoundRecord
from .metrics import NetworkMetrics, frame_size, payload_size
from .export import channel_occupancy, dump_trace, trace_to_records

__all__ = [
    "Action",
    "AdversaryView",
    "CompiledRound",
    "DELTA_KIND",
    "DeltaFrame",
    "ExecutionTrace",
    "Heard",
    "JAM",
    "Jam",
    "Listen",
    "Message",
    "NetworkMetrics",
    "RadioNetwork",
    "RoundMeta",
    "RoundRecord",
    "SLEEP",
    "Sleep",
    "Transmit",
    "channel_occupancy",
    "dump_trace",
    "first_opened",
    "frame_size",
    "keyed_epoch_rounds",
    "payload_size",
    "run_hopped_epoch",
    "trace_to_records",
]
