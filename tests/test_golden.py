"""The golden corpus: SHA-256 fingerprints of seeded runs.

Two kinds of entries live here.

* **Whole CLI reports.**  :data:`GOLDEN` pins the exact bytes
  ``python -m repro sweep ... --json-out`` writes for two seeded grids
  (the same on the serial, procs and socket backends), and
  :data:`GAUNTLET_DIGEST` the ``python -m repro scenario gauntlet
  --json-out`` report at seed 0.
* **Protocol runs.**  :func:`network_digest` and :func:`fame_digest`
  hash a run's outputs, its full
  :class:`~repro.radio.metrics.NetworkMetrics` and its canonical trace
  (plus the redacted trace and ``observed_channel_rounds`` on a
  :class:`~repro.extensions.restricted_listening.RestrictedListeningNetwork`).
  The feedback and f-AME tables below were recorded from the naive
  reference executions that once shipped beside the compiled paths — one
  ``execute_round`` per repetition, per-draw ``stream.choice`` hop
  sampling, Sleep-padded dense transmission rounds and the full-frame
  merge encoding — and the compiled paths reproduced every digest on the
  same tree.  The tests that check them sit next to the recipes that
  produce them (``test_feedback_pipeline.py``, ``test_feedback_delta.py``,
  ``test_engine_equivalence.py``), so they discharge the same obligation
  the live differential comparisons did: an optimised exchange stays
  indistinguishable from the naive one under every adversary.

A change that moves any seeded output — a seed scheme, a protocol's coin
use, a metric, a frame encoding, the report shape — moves these digests,
so it must re-record them on purpose and declare the re-baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.__main__ import main
from repro.adversary import RandomJammer
from repro.extensions.restricted_listening import RestrictedListeningNetwork
from repro.radio.network import RadioNetwork
from repro.rng import RngRegistry


def sha(material) -> str:
    """The corpus fingerprint: SHA-256 of ``repr(material)``."""
    return hashlib.sha256(repr(material).encode()).hexdigest()


def json_forms(forms) -> list[str]:
    """Round forms (e.g. ``trace.canonical_forms()``), each serialized
    with sorted keys."""
    return [json.dumps(form, sort_keys=True, default=repr) for form in forms]


def metrics_form(metrics, *, exclude: tuple[str, ...] = ()) -> str:
    """Every :class:`NetworkMetrics` field (bar ``exclude``) as JSON."""
    return json.dumps(
        {
            f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(metrics)
            if f.name not in exclude
        },
        sort_keys=True,
    )


def d_map_form(outputs) -> list:
    """A feedback ``D`` map in node order, each set sorted."""
    return sorted((node, sorted(d)) for node, d in outputs.items())


def network_digest(outputs, net) -> str:
    """Fingerprint of a feedback run: ``D`` map, metrics and trace."""
    material = [
        d_map_form(outputs),
        metrics_form(net.metrics),
        json_forms(net.trace.canonical_forms()),
    ]
    if isinstance(net, RestrictedListeningNetwork):
        material += [
            json_forms(net.redacted_trace.canonical_forms()),
            net.observed_channel_rounds,
        ]
    return sha(material)


def fame_digest(result, net) -> str:
    """Fingerprint of an f-AME run: the result, metrics and trace."""
    return sha(
        [
            sorted(result.summary().items()),
            sorted(result.outcomes.items()),
            sorted(result.claimed_cover),
            sorted(result.starred),
            sorted(result.surrogate_holders.items()),
            metrics_form(net.metrics),
            json_forms(net.trace.canonical_forms()),
        ]
    )


# -- whole CLI reports ----------------------------------------------------

GOLDEN = {
    "workloads": (
        ["--workloads", "fame,groupkey,gauntlet,scenario:serve.duplicate-open",
         "--nodes", "18", "--trials", "3", "--seed", "7", "--pairs", "4"],
        "c2a7bc84b4916e097ccb1312a77343d2ff325daedd0c8171dde5303bce9b794a",
    ),
    "adversaries": (
        ["--nodes", "18,24", "--adversaries", "schedule,random,null",
         "--trials", "2", "--seed", "11", "--pairs", "4"],
        "45a6c52200354b4d652e2e21bff6d0fca64a65f92ec400b3731c33f40fcb56ec",
    ),
}

GAUNTLET_DIGEST = (
    "b7ec2f887b41ad55e445728b30f74f0a8881707bec316a1e98863b0e2e91a9a3"
)


@pytest.mark.parametrize("grid", sorted(GOLDEN))
def test_sweep_report_bytes_match_golden(grid, tmp_path, capsys):
    argv, digest = GOLDEN[grid]
    out = tmp_path / "report.json"
    assert main(["sweep", *argv, "--json-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_scenario_gauntlet_report_bytes_match_golden(tmp_path, capsys):
    out = tmp_path / "gauntlet.json"
    assert main(["scenario", "gauntlet", "--json-out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GAUNTLET_DIGEST


# -- protocol runs ----------------------------------------------------------
#
# Serial feedback (Figure 1): n=40, C=3, t=2, three 3-witness slots with
# flags (true, false, true), seed 7 — TestFeedbackEquivalence's recipe.
# Recorded from the one-execute_round-per-repetition loop.

SERIAL_FEEDBACK = {
    "none": (
        "cc7582ebfd67b9b66d586cabe195aab3a69658116ff8f897c5f0f1b1fe4895f6"
    ),
    "null": (
        "cc7582ebfd67b9b66d586cabe195aab3a69658116ff8f897c5f0f1b1fe4895f6"
    ),
    "random": (
        "7d1702ef2bcb4dfb375717073cefa3ade352fb1d56d8fa5e274986c88d8b9bea"
    ),
    "spoof": (
        "04d66fe29a25f6970817595779e65cf2eb4b7a1aaf8001c7a99743b8108d01d9"
    ),
    "spoof-feedback": (
        "66b648ad3a9b1ca919a30482f8e05290a9c1d4cb1d06200ae597347708961f58"
    ),
    "sweep": (
        "12cf2f1c3b4abbfbf8337d94957741f1d8b01c1822e7e818ef83352d5bd005b9"
    ),
}

SERIAL_FEEDBACK_NO_TRACE = (
    "62e20c2ceab4c10e5670148e7a59c99c449cac8f856d3e17ef0fcb8cf77042dd"
)
"""The ``random`` adversary with ``keep_trace=False`` (empty trace)."""

# Parallel merge (Section 5.5): n=60, C=8, t=2, four 4-witness slots with
# slot 1 false, seed 9, delta frames — the recipe of
# TestParallelFeedbackEquivalence and test_feedback_delta.  Recorded from
# the per-round transfer loop.

PARALLEL_FEEDBACK = {
    "budget": (
        "c92ea58f033cfa3d3f345203eae14c283257bad750d4ae1daafece7cfff5d252"
    ),
    "none": (
        "e45fbea47a63c8ea8a3ae42ccf930fa34d4bea0e058c5b6ba3109c5ce75586db"
    ),
    "null": (
        "e45fbea47a63c8ea8a3ae42ccf930fa34d4bea0e058c5b6ba3109c5ce75586db"
    ),
    "random": (
        "cafade8a36131a33212c3af0dacf36775005fbda349cd9983ef01e8c926e37cd"
    ),
    "reactive": (
        "41f339b49b89c741bf663292ba6d4174fbeea51ef439ae0237b54a648105d2fd"
    ),
    "schedule-aware": (
        "20995f90821c044c84b4c3837cfa763e56e95750ce728cc22f7b211734bc9ebb"
    ),
    "spoof": (
        "032589b885182bf3adba9a355529851888a14ab0d3d846d59cef6b80c2779558"
    ),
    "spoof-delta": (
        "08f1378041c5006f056872dcfbf28cb945868a54a06e63db2572236eba6ad3ba"
    ),
    "sweep": (
        "9c13d2dc9f54d75a749159064e79a9e27525eed77023ddd94f352b6c8ecc1144"
    ),
}

# The same recipe on the full-frame encoding, which shipped the whole
# ``slot -> flag`` map: its D map, every metric but ``payload_units`` and
# its trace projected onto the knowledge each frame carries (see
# test_feedback_delta._semantic_trace); and its ``payload_units``, which
# the delta encoding must stay below (the same under every adversary:
# the counter covers honest frames only).

PARALLEL_FULL_FRAME_SEMANTIC = {
    "budget": (
        "d3b03f4faa45f2952a6a3bcebdc9f10564f1385535c51d0bc75481e931a96c84"
    ),
    "none": (
        "f61a895faaf1385cc389d4f8e6cfbb37750337cbd4da93fa67f19308a93a2c26"
    ),
    "null": (
        "f61a895faaf1385cc389d4f8e6cfbb37750337cbd4da93fa67f19308a93a2c26"
    ),
    "random": (
        "adedc79e6b7c2fd1c98080bbca7c58c34911dcb9033812a5b248b4c36a11ad39"
    ),
    "reactive": (
        "a75a7b91815f02fec701add1159d12df8a42ad5f54f57f59d2e51755db2baf14"
    ),
    "schedule-aware": (
        "3cfbb08c6c199792711189f33fe83a728deb51c11723278f46bd1b6776e18204"
    ),
    "spoof": (
        "d2cf763ccf6e53a3f784d8482e6cacdc4675e9b9c5355818dc3a2fd0107625bb"
    ),
    "spoof-delta": (
        "ae59764d983965a9d13345dbc58a339e7167c22df4ced8fd2e72f7a9dfca1851"
    ),
    "sweep": (
        "a75667d20f1e2b4cee9dd4a7a431a0196a8b3d429fd99cb965e1de07a4416ba0"
    ),
}

PARALLEL_FULL_FRAME_PAYLOAD_UNITS = 6480

# The parallel merge on a RestrictedListeningNetwork (n=24, C=8, t=2,
# eavesdropper on channels 1 and 3, slot 2 false, seed 13), recorded from
# the per-round loop; and the full-frame run's payload units.

RESTRICTED_PARALLEL_FEEDBACK = (
    "1b6856f37fa2902e2b0e106d695502111dd706155b94348dc9bbf28e9958952e"
)

RESTRICTED_FULL_FRAME_PAYLOAD_UNITS = 5040

# f-AME end to end (TestFameProtocolEquivalence): five pairs at n=20,
# C=2, t=1 (BASE regime, serial feedback), seed 5, recorded from the
# Sleep-padded dense rounds with the per-round feedback loop; and a
# SQUARED-regime run (n=40, C=4, t=1, parallel merge) recorded from the
# same reference with delta frames.

FAME = {
    "null": (
        "3cb53ed229a9c9132ef194cae30e03367bcbdd21f3b7c42ef2e411803ff77245"
    ),
    "random": (
        "52b078c59ef1002a2e8b13ea07b6158aa3ca306eb5ea49866ee0f9bd6c3624a3"
    ),
    "schedule-aware": (
        "c39b82dbff4a2297f924877147d57de7d0f20105c83765728d2f46328518fc43"
    ),
    "spoof": (
        "0413ff11cca350c98e29e7e8023970eaf8b1e84fdacfe67bdf6c324096b4f8f2"
    ),
    "sweep": (
        "32eda5a33f2373acbb57db93168e789f988af0ddd1ea118e38b5db33d8936d16"
    ),
}

FAME_SQUARED = (
    "32f9ba4f60f0710c5fcfb28052fdb7b6cdcf78d41ce55cc7c7675555e76d45b8"
)


class TestGroupKeyByteIdentity:
    """Whole group-key runs are byte-identical to the pre-block-draw tree.

    The digests below were recorded on the commit *before* the block-draw
    engine landed, over (group key, holders, expected leader, round /
    payload / collision counters, and the full canonical trace — every
    hop of every node).  Matching them proves the batched samplers and
    the shape cache reproduce the historical generator consumption
    exactly, end to end, through all three group-key parts.
    """

    PLAIN_DIGEST = (
        "caf9db3c5f00e2e548a628e4b35526d9ec784d082d79f3a2393139878e7af065"
    )
    JAMMED_DIGEST = (
        "3ba37cd8357ce3ee46c9649fb172371a080568d5ab34e23f98705bc5c512a777"
    )

    @staticmethod
    def _fingerprint(seed, adversary=None):
        from repro.crypto.dh import TEST_GROUP_64
        from repro.groupkey import establish_group_key

        net = RadioNetwork(18, 2, 1, adversary=adversary)
        res = establish_group_key(
            net, RngRegistry(seed=seed), group=TEST_GROUP_64
        )
        return sha(
            (
                None if res.group_key is None else res.group_key.hex(),
                sorted(res.holders()),
                res.expected_leader,
                net.metrics.rounds,
                net.metrics.payload_units,
                net.metrics.collisions,
                json_forms(net.trace.canonical_forms()),
            )
        )

    def test_plain_run_matches_pre_change_tree(self):
        assert self._fingerprint(7) == self.PLAIN_DIGEST

    def test_jammed_run_matches_pre_change_tree(self):
        assert (
            self._fingerprint(
                11,
                adversary=RandomJammer(random.Random(0xFEED), intensity=1.0),
            )
            == self.JAMMED_DIGEST
        )
