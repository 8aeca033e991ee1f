"""f-AME: fast Authenticated Message Exchange (Sections 5.4-5.6).

The protocol simulates the starred-edge removal game on the radio network:
each game move costs one scheduled *message-transmission* round plus a
feedback phase, and the greedy strategy's termination certifies
``t``-disruptability (Theorem 6).  Total cost ``O(|E| t^2 log n)`` rounds at
``C = t + 1``, dropping to ``O(|E| log n)`` at ``C >= 2t`` and
``O(|E| log^2 n / t)`` at ``C >= 2t^2`` (Figure 3) — pick the regime through
:func:`make_config`.

:func:`run_fame` exchanges full message vectors (simple, larger frames);
:func:`run_fame_with_digests` runs the Section 5.6 pipeline with
constant-size frames (gossip + reconstruction hashes + vector signatures).
"""

from .byzantine import ByzantineResult, CorruptionModel, run_byzantine_exchange
from .config import FameConfig, Regime, make_config, predicted_rounds, witness_group_size
from .digests import (
    DigestFameResult,
    GossipInbox,
    message_sequence,
    reconstruct_chains,
    reconstruction_hashes,
    run_fame_with_digests,
    run_gossip_phase,
)
from .protocol import AME_DATA_KIND, FameProtocol, default_messages, run_fame, vector_frame
from .result import FameResult, PairOutcome
from .schedule import ChannelAssignment, TransmissionSchedule, build_schedule

__all__ = [
    "AME_DATA_KIND",
    "ByzantineResult",
    "ChannelAssignment",
    "CorruptionModel",
    "DigestFameResult",
    "FameConfig",
    "FameProtocol",
    "FameResult",
    "GossipInbox",
    "PairOutcome",
    "Regime",
    "TransmissionSchedule",
    "build_schedule",
    "default_messages",
    "make_config",
    "message_sequence",
    "predicted_rounds",
    "reconstruct_chains",
    "reconstruction_hashes",
    "run_byzantine_exchange",
    "run_fame",
    "run_fame_with_digests",
    "run_gossip_phase",
    "vector_frame",
    "witness_group_size",
]
