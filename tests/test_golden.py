"""The golden corpus: SHA-256 fingerprints of seeded runs.

Two kinds of entries live here.

* **Whole CLI reports.**  :data:`GOLDEN` pins the exact bytes
  ``python -m repro sweep ... --json-out`` writes for two seeded grids
  (the same in-process and on two forked socket workers), and
  :data:`GAUNTLET_DIGEST` the ``python -m repro scenario gauntlet
  --json-out`` report at seed 0.
* **Protocol runs.**  :func:`network_digest`, :func:`fame_digest`,
  :func:`result_digest` and :func:`rounds_digest` hash a run's outputs,
  its full :class:`~repro.radio.metrics.NetworkMetrics` and its
  canonical trace (plus the redacted trace and
  ``observed_channel_rounds`` on a
  :class:`~repro.extensions.restricted_listening.RestrictedListeningNetwork`).
  The feedback and f-AME tables below were recorded from the naive
  reference executions that once shipped beside the compiled paths — one
  ``execute_round`` per repetition, per-draw ``stream.choice`` hop
  sampling, Sleep-padded dense transmission rounds and the full-frame
  merge encoding — and the compiled paths reproduced every digest on the
  same tree.  The per-node tables were recorded while ``execute_round``
  still resolved rounds with its own loop, before it became a one-round
  adapter over ``execute_schedule``: every protocol that submits per-node
  action maps, and the per-node sides of the radio oracle tests.  The
  tests that check the recipes' tables sit next to them
  (``test_feedback_pipeline.py``, ``test_feedback_delta.py``,
  ``test_engine_equivalence.py``, ``test_restricted_listening.py``), so
  they discharge the same obligation the live differential comparisons
  did: an optimised execution stays indistinguishable from the naive one
  under every adversary.

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
from repro.adversary import (
    NullAdversary,
    RandomJammer,
    ReactiveJammer,
    ScheduleAwareJammer,
    SpoofingAdversary,
    SweepJammer,
)
from repro.baselines import (
    run_direct_exchange,
    run_no_surrogate,
    run_randomized_exchange,
)
from repro.extensions.restricted_listening import (
    HoppingEavesdropper,
    RestrictedListeningNetwork,
    StickyEavesdropper,
    run_share_spray,
)
from repro.fame.byzantine import CorruptionModel, run_byzantine_exchange
from repro.fame.digests import run_fame_with_digests
from repro.fame.result import FameResult
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


def network_material(net) -> list:
    """A network's full metrics and canonical trace; on a
    :class:`RestrictedListeningNetwork` also its redacted trace and
    ``observed_channel_rounds``."""
    material = [
        metrics_form(net.metrics),
        json_forms(net.trace.canonical_forms()),
    ]
    if isinstance(net, RestrictedListeningNetwork):
        material += [
            json_forms(net.redacted_trace.canonical_forms()),
            net.observed_channel_rounds,
        ]
    return material


def network_digest(outputs, net) -> str:
    """Fingerprint of a feedback run: ``D`` map, metrics and trace."""
    return sha([d_map_form(outputs), *network_material(net)])


def delta_state_form(state) -> tuple:
    """A :class:`~repro.feedback.parallel.DeltaApplyState`'s counters and
    the fingerprint of its sorted per-node applied-key counts."""
    counters = (
        state.applications,
        state.skips,
        state.digest_mismatches,
        state.resyncs,
    )
    applied = sorted((node, len(keys)) for node, keys in state.applied.items())
    return counters, sha(applied)


def fame_form(result) -> list:
    """An f-AME result: its summary (never the config's ``repr``), the
    outcomes, the cover certificate and the surrogates."""
    return [
        sorted(result.summary().items()),
        sorted(result.outcomes.items()),
        sorted(result.claimed_cover),
        sorted(result.starred),
        sorted(result.surrogate_holders.items()),
    ]


def fame_digest(result, net) -> str:
    """Fingerprint of an f-AME run: the result, metrics and trace."""
    return sha([*fame_form(result), *network_material(net)])


def result_form(result) -> list:
    """A protocol result's fields in order, mappings and sets sorted; a
    nested f-AME result contributes :func:`fame_form`."""
    form = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, FameResult):
            value = fame_form(value)
        elif isinstance(value, dict):
            value = sorted(value.items())
        elif isinstance(value, (set, frozenset)):
            value = sorted(value)
        form.append((f.name, value))
    return form


def result_digest(result, net) -> str:
    """Fingerprint of a protocol run: result fields, metrics and trace."""
    return sha([result_form(result), *network_material(net)])


def rounds_digest(outputs, net) -> str:
    """Fingerprint of a batch of rounds: each round's output map (sorted),
    metrics and trace."""
    return sha(
        [[sorted(out.items()) for out in outputs], *network_material(net)]
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


@pytest.mark.parametrize(
    "grid, workers",
    [
        pytest.param(grid, workers, id=grid + suffix)
        for workers, suffix in (("1", ""), ("2", "-workers2"))
        for grid in sorted(GOLDEN)
    ],
)
def test_sweep_report_bytes_match_golden(grid, workers, tmp_path, capsys):
    argv, digest = GOLDEN[grid]
    out = tmp_path / "report.json"
    assert main(
        ["sweep", *argv, "--workers", workers, "--json-out", str(out)]
    ) == 0
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

# The parallel merge's receiver bookkeeping on the same recipes: the
# ``DeltaApplyState`` counters ``(applications, skips,
# digest_mismatches, resyncs)`` and the digest of its sorted per-node
# applied-key counts (:func:`delta_state_form`) — under the nine
# adversaries of test_feedback_delta, on the RestrictedListeningNetwork
# recipe, and with every sender digest corrupted (with and without the
# embedded full-frame resync payload).  Recorded from the per-listener,
# per-repetition fold.

DELTA_APPLIED_N60 = (
    "1a242afdf79970d93b47a583628164fe6b13c2b3b668fd6223de2ba49b1ac048"
)

DELTA_COUNTERS = {
    "budget": ((76, 2624, 0, 0), DELTA_APPLIED_N60),
    "none": ((76, 2660, 0, 0), DELTA_APPLIED_N60),
    "null": ((76, 2660, 0, 0), DELTA_APPLIED_N60),
    "random": ((76, 1958, 0, 0), DELTA_APPLIED_N60),
    "reactive": ((76, 1476, 0, 0), DELTA_APPLIED_N60),
    "schedule-aware": ((76, 1980, 0, 0), DELTA_APPLIED_N60),
    "spoof": ((76, 1988, 0, 0), DELTA_APPLIED_N60),
    "spoof-delta": ((76, 1921, 0, 0), DELTA_APPLIED_N60),
    "sweep": ((76, 1946, 0, 0), DELTA_APPLIED_N60),
}

RESTRICTED_DELTA_COUNTERS = (
    (40, 1080, 0, 0),
    "5d7462d07c6532cde3a00e2cdebedceeb5eb36f36bf25fc2c587d269e8973d23",
)

FORCED_RESYNC_COUNTERS = ((76, 1958, 7, 7), DELTA_APPLIED_N60)
"""Every digest corrupted, full-frame payload embedded; ``random``."""

FORCED_DROP_COUNTERS = (
    (0, 0, 7, 0),
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
)
"""Every digest corrupted, no resync payload; no adversary."""

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


# Per-node callers: every protocol that submits per-node action maps
# through ``execute_round`` — Byzantine f-AME (a corrupt witness voting at
# random), the Section 5.6 gossip pipeline and the three baselines —
# under six adversaries; and the share-spray experiment on a
# RestrictedListeningNetwork under a sticky and a hopping eavesdropper.
# Recorded from the per-node resolver (``execute_round``'s own decode
# loop and ``RestrictedListeningNetwork``'s ``execute_round`` override).

PER_NODE_ADVERSARIES = {
    "null": NullAdversary,
    "sweep": SweepJammer,
    "random": lambda: RandomJammer(random.Random(0x11)),
    "spoof": lambda: SpoofingAdversary(random.Random(0x22)),
    "reactive": lambda: ReactiveJammer(random.Random(0x33)),
    "schedule-aware": lambda: ScheduleAwareJammer(
        random.Random(0x44), policy="prefix"
    ),
}

PER_NODE_EDGES = [(0, 1), (2, 3), (4, 5), (6, 7), (1, 8)]


def _byzantine(adversary):
    net = RadioNetwork(20, 2, 1, adversary=adversary)
    corruption = CorruptionModel.of(
        8, garble_messages=False, vote_policy="random"
    )
    result = run_byzantine_exchange(
        net, PER_NODE_EDGES[:4], rng=RngRegistry(seed=21),
        corruption=corruption,
    )
    return result, net


def _fame_with_digests(adversary):
    net = RadioNetwork(20, 2, 1, adversary=adversary)
    edges = [(0, 1), (0, 2), (3, 4), (5, 6)]
    messages = {pair: ("m", pair) for pair in edges}
    result = run_fame_with_digests(
        net, edges, messages, rng=RngRegistry(seed=22)
    )
    return result, net


def _direct_exchange(adversary):
    net = RadioNetwork(20, 2, 1, adversary=adversary)
    return run_direct_exchange(net, PER_NODE_EDGES, passes=5), net


def _randomized_exchange(adversary):
    net = RadioNetwork(10, 2, 1, adversary=adversary)
    result = run_randomized_exchange(
        net, [(0, 1), (2, 3), (4, 5)], rng=RngRegistry(seed=24)
    )
    return result, net


def _no_surrogate(adversary):
    net = RadioNetwork(20, 2, 1, adversary=adversary)
    result = run_no_surrogate(net, PER_NODE_EDGES, rng=RngRegistry(seed=25))
    return result, net


PER_NODE_CALLERS = {
    "byzantine": _byzantine,
    "digests": _fame_with_digests,
    "direct": _direct_exchange,
    "no-surrogate": _no_surrogate,
    "randomized": _randomized_exchange,
}

PER_NODE = {
    ("byzantine", "null"): (
        "0b88fe971710f3a83446db4d7cba8eea38e6301dac9097ceef78acf4016c9230"
    ),
    ("byzantine", "random"): (
        "e62c08476c626ca468823a3554ccf11710268744490e9f3b63b0ef2c0ed3ee52"
    ),
    ("byzantine", "reactive"): (
        "0cd6829b21579d8fd79a1622b2b20a12f82ec66660bd8b3065103711a6644a06"
    ),
    ("byzantine", "schedule-aware"): (
        "19f34488579d60da1b3168a3f066580d374c2002496e99527d69fa2222ed75c2"
    ),
    ("byzantine", "spoof"): (
        "b570124973ef7ab058d136d38e3013449b5b8e2777e6d4d87ebdf16e85d6f715"
    ),
    ("byzantine", "sweep"): (
        "0a4841e0cb6de922cae239886479dbcd5492b469e8ff687ae3c5dfc60059f411"
    ),
    ("digests", "null"): (
        "9937ad7779b941a3fbedf65b0a2ae093072359942a8c908b984ec8620b1dc968"
    ),
    ("digests", "random"): (
        "20cdf597b5357356529125d2a46929467a1b98b25c4c0fef7067a15c610d9f98"
    ),
    ("digests", "reactive"): (
        "f937d5a7613e93c20e4438311c7149cb93ad5b198506527ebb26c9f417e18a23"
    ),
    ("digests", "schedule-aware"): (
        "d68f17317a46491c871501a2fe98e5c1b193ac58ecc79fe0359209500e8a3a89"
    ),
    ("digests", "spoof"): (
        "067c7cb43b2df60e5c13442dc663c5bc391b55f2880dcf565caff33a47bc4ad7"
    ),
    ("digests", "sweep"): (
        "fe9b0214fb50a078eab629b50074391bcd1d50f0d671611425d116c313a57a06"
    ),
    ("direct", "null"): (
        "8d1dcf89b2ca6a7a3dfdfcb8bb07b2797950411f7640a61fb06897bd9aebbf5a"
    ),
    ("direct", "random"): (
        "380a0a0809e981c92e1a84b9fecd6ad54251c47b78441036a4e75dcebe70c87c"
    ),
    ("direct", "reactive"): (
        "aaa2ecaa0e6800d0c52d10a8249f7b0e986cca1e90c432513af52cd05110b501"
    ),
    ("direct", "schedule-aware"): (
        "aaa2ecaa0e6800d0c52d10a8249f7b0e986cca1e90c432513af52cd05110b501"
    ),
    ("direct", "spoof"): (
        "f6d82729b04467a946cb2827ff7ed2a16fcb9047cb639209787fef02c963c3a2"
    ),
    ("direct", "sweep"): (
        "90af004a0c3c23aa3671db3f2f17e10e76503c3b0787bef57c3a3ae4bb310620"
    ),
    ("no-surrogate", "null"): (
        "83fc0aa50a7625a6cad5cb343782fb51ae5b4e1497c037f5a9f3d01d80d7cb58"
    ),
    ("no-surrogate", "random"): (
        "9430073f61ea525f83d73fe4867efcd42b7f94a43733f9bf1dda3f4ab195bce2"
    ),
    ("no-surrogate", "reactive"): (
        "f2557658ca98c4e690920574a3c04b3dabe6856c0b26fc875f4c8bab40545d17"
    ),
    ("no-surrogate", "schedule-aware"): (
        "3b26682a0639a8a6783fe3ac6e698a83e9c0ac3b6ec25dab1c527abe78fa31e0"
    ),
    ("no-surrogate", "spoof"): (
        "08f13095ce2d416fc265064da730db1b87a20ee1eb1a76b4ad801e29c01e0ff1"
    ),
    ("no-surrogate", "sweep"): (
        "21eef00b9f57105155110905335062ec4707d0412b13b953afdd081fe41f780f"
    ),
    ("randomized", "null"): (
        "386a6267d30a19245b7ea4013a763936841ce5557f481442d449a5290ce7ba6d"
    ),
    ("randomized", "random"): (
        "00744b3f12d52a82eee1039f2097a523821d8fb6834c4f8d1c669be2dab18305"
    ),
    ("randomized", "reactive"): (
        "57b246ed35f479e07357e0b10b5b476981193e3bc68a8ed889b33e2273611bf0"
    ),
    ("randomized", "schedule-aware"): (
        "386a6267d30a19245b7ea4013a763936841ce5557f481442d449a5290ce7ba6d"
    ),
    ("randomized", "spoof"): (
        "714d5aa951bfbdf7ca2dd64f4910675ce9fa47f0e3c8d40c94ea6ef4ae16ef72"
    ),
    ("randomized", "sweep"): (
        "c3d871c680434bc0117b2e45703598652cdc23f1423fb550c23ff73cf435e57c"
    ),
}

EAVESDROPPERS = {
    "hopping": lambda: HoppingEavesdropper(random.Random(0x55)),
    "sticky": lambda: StickyEavesdropper([1, 3]),
}

SHARE_SPRAY = {
    "hopping": (
        "cc233427c1cd472f01c4d6147a843d24da717dfbfedaf901e00009b65e98883d"
    ),
    "sticky": (
        "58dfe8948f55570f2a6340a4995438b1b7929252790be3253165b87095e307fd"
    ),
}


@pytest.mark.parametrize("caller", sorted(PER_NODE_CALLERS))
@pytest.mark.parametrize("adversary", sorted(PER_NODE_ADVERSARIES))
def test_per_node_caller_matches_golden(caller, adversary):
    result, net = PER_NODE_CALLERS[caller](PER_NODE_ADVERSARIES[adversary]())
    assert result_digest(result, net) == PER_NODE[caller, adversary]


@pytest.mark.parametrize("eavesdropper", sorted(EAVESDROPPERS))
def test_share_spray_matches_golden(eavesdropper):
    net = RestrictedListeningNetwork(8, 4, 1, EAVESDROPPERS[eavesdropper]())
    result = run_share_spray(
        net, 0, 5, RngRegistry(seed=26), shares=4, repetitions=4
    )
    assert result_digest(result, net) == SHARE_SPRAY[eavesdropper]


def per_round_expansion(net, schedule) -> list[dict]:
    """Resolve a :class:`RoundSchedule` one ``execute_round`` at a time,
    reading each channel's result off its first listener (via the
    derived ``channel -> listeners`` view of the round's hop row): the
    per-node side of the ``execute_schedule`` oracle tests."""
    out = []
    for cr in schedule.rounds:
        results = net.execute_round(cr.as_actions(), cr.meta)
        out.append(
            {
                channel: results[group[0]]
                for channel, group in cr.listens.items()
                if group and results[group[0]] is not None
            }
        )
    return out


# The per-node sides of the radio oracle tests, recorded from the
# per-node resolver: random compiled rounds expanded through
# ``execute_round`` (test_feedback_pipeline.TestExecuteSchedule, four
# adversaries, and its restricted-listening twin), delta-frame rounds on a
# RestrictedListeningNetwork (test_restricted_listening), and random
# Sleep-padded dense rounds (test_engine_equivalence, four adversaries).

ROUND_EXPANSION = {
    "none": (
        "2c6feea9d1c8eb500ce6c9064759d8c6373d5a29ccbb09d6c42f56e2cd20e2cc"
    ),
    "random": (
        "41ce9c083070edc0937310da5811d229405f75b034507a698039ee927c9b2340"
    ),
    "spoof": (
        "8f1c2dae7d19c23546349d55be141ecd84c7fe2f8d446223978a2fc9a17931bd"
    ),
    "sweep": (
        "3c743081d6ecc3e6ecd6236c563dbe1218cb2333797ac721fe18bf704f7a15dd"
    ),
}

RESTRICTED_ROUND_EXPANSION = (
    "3284b3fe8a0b607504fdb6f999bfca93baf4e0e7b61ab1308e04fb71ddde4df7"
)

RESTRICTED_DELTA_EXPANSION = (
    "2bfd9969c9e57425fe285b06b14f26de816cdf5900e29158bd5ace20b0a20dff"
)

DENSE_ROUNDS = {
    "none": (
        "faaf840058bbb0a008ce50593d6d4883a2ed1284404f9e2b89b875fe79713636"
    ),
    "random": (
        "5e68c9f36d45e165bc147f8dece4d4d34ff8f806f438f93d20977c988fe5c8a7"
    ),
    "spoof": (
        "5995dd8dd7e062ba15571a3ec6c75abacb5378f0c530a318d07da645246db2fe"
    ),
    "sweep": (
        "a650d8bf9e30e282050506d78328cee3e21c6aa733cc8e4128ffca006816f371"
    ),
}


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
