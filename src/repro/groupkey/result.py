"""Result objects for the group-key establishment protocol (Section 6)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class GroupKeyResult:
    """Everything observable after one group-key establishment run.

    Attributes
    ----------
    n, t:
        Model parameters of the run.
    leaders:
        The ``t + 1`` leader node ids.
    pairwise_established:
        Unordered pairs ``frozenset({v, w})`` that completed the DH exchange
        in both directions and hold a shared key.
    pairwise_keys:
        The established pairwise keys themselves.  In a deployment each
        node holds only its own keys; the result object centralises them
        so higher layers (re-keying, point-to-point channels) and tests
        can continue the protocol without re-running Part 1.
    completed_leaders:
        Leaders that exchanged keys with at least ``n - 1 - t`` partners and
        therefore chose and disseminated a leader key.
    leader_keys:
        The secret leader keys (exposed for test verification only — the
        simulated adversary never reads this object).
    received_leader_keys:
        Per node, the map of leader id -> leader key it decrypted in Part 2.
    adopted:
        Per node, the group key it adopted in Part 3 (``None`` when the node
        recognised it does not know the group key).
    expected_leader:
        The smallest completed leader — whose key the analysis says becomes
        the group key.
    part1_rounds, part2_rounds, part3_rounds:
        Radio rounds consumed by each part.
    part1_payload_units, part2_payload_units, part3_payload_units:
        Honest wire size shipped by each part
        (:attr:`~repro.radio.metrics.NetworkMetrics.payload_units`
        deltas).  Part 2 —
        the leader-spanner dissemination epochs — is the bulky one, and
        this baseline is what a future delta-frame encoding for group-key
        payloads would be measured against.
    fame_summary:
        The Part 1 f-AME run's summary dict (disruptability etc.).
    """

    n: int
    t: int
    leaders: tuple[int, ...]
    pairwise_established: set[frozenset[int]] = field(default_factory=set)
    pairwise_keys: dict[frozenset[int], bytes] = field(default_factory=dict)
    completed_leaders: tuple[int, ...] = ()
    leader_keys: dict[int, bytes] = field(default_factory=dict)
    received_leader_keys: dict[int, dict[int, bytes]] = field(default_factory=dict)
    adopted: dict[int, bytes | None] = field(default_factory=dict)
    expected_leader: int | None = None
    part1_rounds: int = 0
    part2_rounds: int = 0
    part3_rounds: int = 0
    part1_payload_units: int = 0
    part2_payload_units: int = 0
    part3_payload_units: int = 0
    fame_summary: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def group_key(self) -> bytes | None:
        """The canonical group key: the smallest completed leader's key."""
        if self.expected_leader is None:
            return None
        return self.leader_keys.get(self.expected_leader)

    @property
    def total_rounds(self) -> int:
        """Radio rounds across all three parts."""
        return self.part1_rounds + self.part2_rounds + self.part3_rounds

    @property
    def total_payload_units(self) -> int:
        """Honest wire units shipped across all three parts."""
        return (
            self.part1_payload_units
            + self.part2_payload_units
            + self.part3_payload_units
        )

    def holders(self) -> list[int]:
        """Nodes that adopted the canonical group key."""
        key = self.group_key
        if key is None:
            return []
        return [v for v, k in self.adopted.items() if k == key]

    def non_holders(self) -> list[int]:
        """Nodes that did not adopt the canonical group key."""
        key = self.group_key
        return [v for v, k in self.adopted.items() if k is None or k != key]

    def summary(self) -> dict[str, Any]:
        """Compact dict for benchmark tables."""
        return {
            "n": self.n,
            "t": self.t,
            "pairwise_established": len(self.pairwise_established),
            "completed_leaders": len(self.completed_leaders),
            "expected_leader": self.expected_leader,
            "holders": len(self.holders()),
            "non_holders": len(self.non_holders()),
            "part1_rounds": self.part1_rounds,
            "part2_rounds": self.part2_rounds,
            "part3_rounds": self.part3_rounds,
            "total_rounds": self.total_rounds,
            "part1_payload_units": self.part1_payload_units,
            "part2_payload_units": self.part2_payload_units,
            "part3_payload_units": self.part3_payload_units,
            "total_payload_units": self.total_payload_units,
        }
