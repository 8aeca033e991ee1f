"""The golden corpus: SHA-256 fingerprints of seeded runs.

Two kinds of entries live here.

* **Whole CLI reports.**  :data:`GOLDEN` pins the exact bytes
  ``python -m repro sweep ... --json-out`` writes for two seeded grids
  (the same in-process and on two forked socket workers),
  :data:`GAUNTLET_DIGEST` the ``python -m repro scenario gauntlet
  --json-out`` report at seed 0, and :data:`EXAMPLES` the stdout of each
  ``examples/*.py`` script.
* **Protocol runs.**  :func:`network_digest`, :func:`fame_digest`,
  :func:`result_digest` and :func:`rounds_digest` hash a run's outputs,
  its full :class:`~repro.radio.metrics.NetworkMetrics` and its
  canonical trace (plus the redacted trace and
  ``observed_channel_rounds`` on a
  :class:`~repro.extensions.restricted_listening.RestrictedListeningNetwork`).
  :data:`KEYED` does the same for whole keyed-epoch runs: sessions,
  pairwise channels and a ``SessionHost`` request log.
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

Randomness version 2 (:data:`repro.rng.RANDOMNESS_VERSION`: counter-mode
hop streams, and one sealed frame per group-key Part 2 or re-key epoch)
was one declared re-baseline.  Every entry it moved was re-recorded once,
on the compiled paths, and the statistical oracle of
``tests/test_coin_oracle.py`` vouches for the new coins; the naive
references are gone, so from then on those entries pin the compiled paths
against themselves.  The entries whose runs draw no private hop and seal
no such epoch did not move: the direct and randomized baselines, the radio
oracle tables, the pairwise channels, the session host (but under the
history-reading jammer, whose trace holds the re-key frames), the
scenario gauntlet and the examples.  Nor did
:data:`SERIAL_FEEDBACK_NO_TRACE`, whose ``D`` map and counters come out
the same on the new coins.

A change that moves any seeded output — a seed scheme, a protocol's coin
use, a metric, a frame encoding, the report shape — moves these digests,
so it must re-record them on purpose and declare the re-baseline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
from repro.crypto.dh import TEST_GROUP_64
from repro.experiments.workloads import make_adversary
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
from repro.serve import SessionHost
from repro.serve import protocol as p
from repro.service import PairwiseChannel, SecureSession

REPO = Path(__file__).resolve().parents[1]


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
        "ed6682ade17fefa1f6110400bd66a8bf15650aace7c4930ad79e864e9ca3d063",
    ),
    "adversaries": (
        ["--nodes", "18,24", "--adversaries", "schedule,random,null",
         "--trials", "2", "--seed", "11", "--pairs", "4"],
        "df5068cee64122a562f9f9a1ce9e677b8033dd43d97f53382548476293a6bec1",
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
# Recorded from the one-execute_round-per-repetition loop; re-recorded on
# the compiled path for randomness version 2.

SERIAL_FEEDBACK = {
    "none": (
        "cdb0bcade201c768cce307768044c2bd5e37febf2bde046af9acd8f888e6c18b"
    ),
    "null": (
        "cdb0bcade201c768cce307768044c2bd5e37febf2bde046af9acd8f888e6c18b"
    ),
    "random": (
        "f4dc05502e29cd6588f2b7d147c6bc14c67fb4be70f92cb70c1c424569ee7b0e"
    ),
    "spoof": (
        "544c4aa3f4005bfca2dc8be07bb7dc04e39b1291d59eef3a65c09521d7ff39b4"
    ),
    "spoof-feedback": (
        "99c5c5c9ad907c02133791990e507eca9ac37dfeb12699482fffd4227d1eb95b"
    ),
    "sweep": (
        "79171d1e601df62b347bec4d008dd824cedec16243c5507e19d3e48805c866c9"
    ),
}

SERIAL_FEEDBACK_NO_TRACE = (
    "62e20c2ceab4c10e5670148e7a59c99c449cac8f856d3e17ef0fcb8cf77042dd"
)
"""The ``random`` adversary with ``keep_trace=False`` (empty trace)."""

# Parallel merge (Section 5.5): n=60, C=8, t=2, four 4-witness slots with
# slot 1 false, seed 9, delta frames — the recipe of
# TestParallelFeedbackEquivalence and test_feedback_delta.  Recorded from
# the per-round transfer loop; re-recorded on the compiled path for
# randomness version 2.

PARALLEL_FEEDBACK = {
    "budget": (
        "a18425a25faf205e67feffe85ead9950fc95016a4bda4cd41de1fc4af8bdeae0"
    ),
    "none": (
        "69248df489915281ffa82e2ceeee9789bde53c9416522b25dddf979718ad29c2"
    ),
    "null": (
        "69248df489915281ffa82e2ceeee9789bde53c9416522b25dddf979718ad29c2"
    ),
    "random": (
        "67cb57aad1942af3bb7e8458b235b97ae057cd974d769ca8c7e23ca082d2d295"
    ),
    "reactive": (
        "2eefeccc0a3f41b44914cf16ee2857f8dea8940b47c27c472422ce5b508b3e1a"
    ),
    "schedule-aware": (
        "031516fa7f0a61e730010df8890f5600e91396d60268a818515076608b26657a"
    ),
    "spoof": (
        "497a331e358bd8788d8e3386a99f68192cde7021df3cf22fdd142a74aa9e4a6b"
    ),
    "spoof-delta": (
        "63c7b7f77f5da4773f8c0424b489343738858869bacb86faaddf75f66c224f70"
    ),
    "sweep": (
        "da1b85af2f3937e368d1c4e422effd91a814a78fb57133ff0c8bb07038ed52b5"
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
        "0f6d2f2e9bffbfd659d84f7d1231318c3494bbb5bc82874772e46f89543aa4d0"
    ),
    "none": (
        "c66b898f0a928bf3f817f18ed95d79adf6ce0453b86418fb746e348ab7961c82"
    ),
    "null": (
        "c66b898f0a928bf3f817f18ed95d79adf6ce0453b86418fb746e348ab7961c82"
    ),
    "random": (
        "d44f77be4fafdfcdfa5dd8f3376166b9065b98dcdd743c452f5f1601a2869c0e"
    ),
    "reactive": (
        "c7b0c7409d9f009040bfca4d1a3ad2527e82019db6a493f00ea182d932eccde3"
    ),
    "schedule-aware": (
        "86713531e0449969baee80e966fc41bf9f80497408e91bde95e3810e93171970"
    ),
    "spoof": (
        "db8bc910824a916e164058512d36eb2faa957a0d89122c01e12ed8d15ba2ebcc"
    ),
    "spoof-delta": (
        "f52842936adba3897a54f03558541000f2f8dce49a6b16d1bc6dfd0afbacc1a4"
    ),
    "sweep": (
        "a2901be309cf17a4649e9b3da0359aae3835ca924c701d829b502460aed7fdf5"
    ),
}

PARALLEL_FULL_FRAME_PAYLOAD_UNITS = 6480

# The parallel merge on a RestrictedListeningNetwork (n=24, C=8, t=2,
# eavesdropper on channels 1 and 3, slot 2 false, seed 13), recorded from
# the per-round loop and re-recorded on the compiled path for randomness
# version 2; and the full-frame run's payload units.

RESTRICTED_PARALLEL_FEEDBACK = (
    "6358dbbbea3a7b14a42861e963f480f72a3bd37846077be261bdc3fd1b7931b9"
)

RESTRICTED_FULL_FRAME_PAYLOAD_UNITS = 5040

# f-AME end to end (TestFameProtocolEquivalence): five pairs at n=20,
# C=2, t=1 (BASE regime, serial feedback), seed 5, recorded from the
# Sleep-padded dense rounds with the per-round feedback loop; and a
# SQUARED-regime run (n=40, C=4, t=1, parallel merge) recorded from the
# same reference with delta frames.  Both re-recorded on the compiled path
# for randomness version 2.

FAME = {
    "null": (
        "07a7167f622259c9f5fd3e8e1c5c2d0e9a12cc3e2bd982f944c790f11b26400d"
    ),
    "random": (
        "e4c3b9df39564c066156309dfd6b43dbaaa4c5f5d4e70e642d46623247af9861"
    ),
    "schedule-aware": (
        "532410bad1c6f7b43b7eda3054654075ce3e7957f37aed63af8e8231e0350803"
    ),
    "spoof": (
        "bc21492bff2df9a5c4fa8d42beae9c1568db8a21174f5a91f149276b7ae117a3"
    ),
    "sweep": (
        "a5acad699744546a541c1f18f345a79a0e9da128b778f301640df121fb022a9d"
    ),
}

FAME_SQUARED = (
    "9a4a26d38cce3e0753d40b3c35875d32b212745220e608508324e314fd2192ca"
)


# Per-node callers: the protocols that submitted per-node action maps
# through ``execute_round`` when these were recorded — Byzantine f-AME (a
# corrupt witness voting at random), the Section 5.6 gossip pipeline and
# the three baselines — under six adversaries; and the share-spray
# experiment on a RestrictedListeningNetwork under a sticky and a hopping
# eavesdropper.  Recorded from the per-node resolver (``execute_round``'s
# own decode loop and ``RestrictedListeningNetwork``'s ``execute_round``
# override); every one of them now compiles its rounds.  The callers that
# hop on private coins (Byzantine f-AME, the gossip pipeline, the
# no-surrogate baseline and the share spray) were re-recorded on their
# compiled paths for randomness version 2.

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
        "30153e0f080bf155a383694265fab9373025acf1b12507f764073258a08ea815"
    ),
    ("byzantine", "random"): (
        "db5dbf05bc96c6c88ac2f6e8d8ea2f1770570beb8bf7ae351b9414cac9374541"
    ),
    ("byzantine", "reactive"): (
        "1e4636516bc359d3b313c424bc77fd042f6749be601ee6eaffe4c71d94e8effa"
    ),
    ("byzantine", "schedule-aware"): (
        "760e69fa05100ad23068cef74d61169d10a6c8e60e36f05e22d9530b78907eff"
    ),
    ("byzantine", "spoof"): (
        "b2831d6620492150be7f827b12e1c6d0c3a62b5fefe3456db6463d5b6254e081"
    ),
    ("byzantine", "sweep"): (
        "f25226419b1410774d528ce536115ae1e95f6b546f825db0d74dd229f45fd127"
    ),
    ("digests", "null"): (
        "233b69c7eb2450500456e2cd6aa6edf508c31c7418e3d27f576856c547c17f3c"
    ),
    ("digests", "random"): (
        "09194633b1709246deaba5e416b9a2b8263dda5580d9aa83d7a5ac06295a6a17"
    ),
    ("digests", "reactive"): (
        "03b27ff1780233a6f57f8e4bda7cd4faf024a1b52c228f10fde67060ff7fae4a"
    ),
    ("digests", "schedule-aware"): (
        "af62db441cbe3164d8d559c47ab94b7fabe63bc91a4aedf4639df687bba5c8c2"
    ),
    ("digests", "spoof"): (
        "c3bccfa86bf977f1813fb451999b551d107e78a621fb60f4e3f3f4bafe643c48"
    ),
    ("digests", "sweep"): (
        "baca193b7967e9a0809dfb3e1b3f38e09e798c805eb987513d3117331da5cc91"
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
        "30f6c7ee604e8de7a2f2efc01a6e252d62c987181c42b903226f3cbd925e66df"
    ),
    ("no-surrogate", "random"): (
        "69d26442a1b01fe88f68ffbb5c63736b55b843228ca163178423e84a250846e4"
    ),
    ("no-surrogate", "reactive"): (
        "6d648f1e14c2fd596fd48652854ca3ca9c1ab93f59e00d0b46a307c0e7ae7c64"
    ),
    ("no-surrogate", "schedule-aware"): (
        "6e7da6ffe3ff798fd0bd792bf8f410e2bf53969f895fecc30e407f1d4ca3997f"
    ),
    ("no-surrogate", "spoof"): (
        "42c2ff31cb8d4d686332a01f8d65bcfe69a6bda2f9181190d9e0b0a4ee6125ec"
    ),
    ("no-surrogate", "sweep"): (
        "36a0d18b0dd07348a45db299bef3f4b71cf11b0ba928ce242e38961873c7a050"
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
        "75e667d4111017a83a2042e6e3c9b5501fe018a1bf94d0053d68f41bbaaf8488"
    ),
    "sticky": (
        "021bf2b7557d23ba227182eb3607023091b416a49eecbf0de0c0303ead2f6a6b"
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


def per_round_expansion(net, loops) -> list[dict]:
    """Resolve a schedule's one-round ``loops`` one ``execute_round`` at a
    time, reading each channel's result off its first listener (via the
    derived ``channel -> listeners`` view of the round's hop row): the
    per-node side of the ``execute_schedule`` oracle tests."""
    out = []
    for cr in loops:
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
    """Whole group-key runs, pinned end to end.

    The digests cover the group key, holders, expected leader, round /
    payload / collision counters, and the full canonical trace — every
    hop of every node — through all three group-key parts.  First
    recorded before the block-draw engine landed, they held through every
    later refactor of the Mersenne-Twister coins; randomness version 2
    (counter-mode hop streams, one seal per Part 2 epoch) re-recorded
    both.
    """

    PLAIN_DIGEST = (
        "88edeac0cece0eb6fccaddcb514cf42a71d48e03caf8e7e928079f50944af721"
    )
    JAMMED_DIGEST = (
        "dfe7947a90bdee1d42c0562e096d592deef8698dd8e567a6a78572b3ac5d2b5e"
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


# -- keyed epochs: sessions, pairwise channels, the session host ------------
#
# Every path that repeats an AEAD-sealed frame over a key-derived hop
# pattern for one epoch — the emulated channel behind ``flush`` and
# ``idle_round``, ``SecureSession.rekey``, ``PairwiseChannel.send`` and,
# inside a set-up session, group-key Part 2 — pinned whole-run under five
# gallery adversaries: what each call returned, the session's counters and
# inboxes, and the network's full metrics and canonical trace.  The host
# log adds every response of a ``SessionHost`` request sequence over four
# sessions (scheduled and explicit re-keys, budgeted flushes, drains).
# Recorded at commit f310022, before these paths shared one epoch helper.
# Randomness version 2 re-recorded the set-up and preshared sessions (their
# hops, Part 2 and re-key seals) and the host log under the reactive
# jammer, whose kept trace holds the re-key frames; the pairwise channels
# and the other host logs did not move.

KEYED_ADVERSARIES = ("null", "random", "reactive", "spoofer", "sweep")

KEYED_KEY = bytes(range(32))


def _keyed_network(n, channels, adversary):
    return RadioNetwork(
        n, channels, 1,
        adversary=make_adversary(adversary, random.Random(0x66)),
    )


def session_form(session) -> list:
    """A session's members, generation, counters and inboxes."""
    stats = session.stats
    return [
        list(session.members),
        session._generation,
        session.pending(),
        (
            stats.setup_rounds,
            stats.emulated_rounds,
            stats.real_rounds,
            stats.sent,
            stats.delivered,
            stats.undelivered,
        ),
        sorted(stats.inboxes.items()),
    ]


def _setup_session(adversary):
    net = _keyed_network(18, 2, adversary)
    session = SecureSession(net, RngRegistry(seed=31), group=TEST_GROUP_64)
    for i, sender in enumerate(session.members[:4]):
        session.send(sender, b"setup-%d" % i)
    log = [session.flush()]
    session.idle_round()
    log.append(session.rekey([session.members[-1]]))
    session.send(session.members[0], b"after-rekey")
    log.append(session.flush())
    return log, session, net


def _preshared_session(adversary):
    net = _keyed_network(10, 3, adversary)
    session = SecureSession.from_preshared(
        net, KEYED_KEY, range(10), rng=RngRegistry(seed=32)
    )
    for sender in range(6):
        session.send(sender, b"pre-%d" % sender)
    log = [session.flush(max_rounds=2), session.flush(max_rounds=3)]
    log.append(session.flush())
    log.append(session.rekey([2, 7]))
    session.send(9, b"after-rekey")
    log.append(session.flush())
    return log, session, net


def _pairwise_exchanges(adversary):
    net = _keyed_network(12, 2, adversary)
    channel = PairwiseChannel(net, KEYED_KEY, 2, 9)
    log = [
        channel.send(sender, b"pair-%d" % i)
        for i, sender in enumerate((2, 9, 2, 9, 2, 9))
    ]
    return log, None, net


KEYED_RUNS = {
    "setup-session": _setup_session,
    "preshared-session": _preshared_session,
    "pairwise": _pairwise_exchanges,
}


def host_requests(adversary) -> list:
    """A request log over four preshared sessions: two rotate their key
    every three emulated rounds, one is re-keyed explicitly."""
    log = [
        p.OpenSession("s0", n=6, adversary=adversary, rekey_interval=3),
        p.OpenSession("s1", n=8, channels=3, adversary=adversary),
        p.OpenSession(
            "s2", n=6, adversary=adversary, members=(0, 1, 2, 3, 4),
            rekey_interval=3,
        ),
        p.OpenSession("s3", n=7, adversary=adversary),
    ]
    for name in ("s0", "s1", "s2", "s3"):
        log += [
            p.SendMessage(name, s, b"%s:%d" % (name.encode(), s))
            for s in range(5)
        ]
    log += [
        p.Flush("s0", max_rounds=2),
        p.Flush("s0"),
        p.Rekey("s1", compromised=(6,)),
        p.Flush("s1"),
        p.Flush("s2", max_rounds=4),
        p.Flush("s3", max_rounds=3),
        p.DrainInbox("s0", 1),
        p.DrainInbox("s1", 6, include_former=True),
        p.SendMessage("s2", 0, b"late"),
        p.Flush("s2"),
        p.Flush("s3"),
        p.DrainInbox("s2", 3),
        p.DrainInbox("s3", 0),
    ]
    log += [p.SessionStatsReq(name) for name in ("s0", "s1", "s2", "s3")]
    return log


def _host_log(adversary):
    host = SessionHost(seed=33)
    log = [host.handle("client", req) for req in host_requests(adversary)]
    networks = [
        network_material(host.sessions[name].session.network)
        for name in sorted(host.sessions)
    ]
    return log, networks


KEYED = {
    ("host", "null"): (
        "0060ae360b629281abc15bb3c1623a68d29ce0a95887b2c3a87bbdb6e05f3bb8"
    ),
    ("host", "random"): (
        "3295c375940b85cbcdfe937ded7422380eba58fad94d8cf9fc0f79b091098311"
    ),
    ("host", "reactive"): (
        "77ad99639d1e5db0bf7724119a53ff76e5916221032dba30dabef6dc32858152"
    ),
    ("host", "spoofer"): (
        "1d632f24ee878a551a369980944a3c85993e1e964010da35adaa07d84ad53bcf"
    ),
    ("host", "sweep"): (
        "882cc7ab56069895598a5a6eaf3295a21c5bc8a4afc6721ee7bdb959fcb17958"
    ),
    ("pairwise", "null"): (
        "460009147dd3503b52eddf428033e9457cd591c3c38c5729162468675785a3bf"
    ),
    ("pairwise", "random"): (
        "36e688ffd51cd8b4e8319d739406575f54023898fe73d46053e62fedd0ff0757"
    ),
    ("pairwise", "reactive"): (
        "591eb151fc0a7d10f30127aad7bdd9039e1ff1a6212da4a6e02cd9ee27d3c67f"
    ),
    ("pairwise", "spoofer"): (
        "e42a6c46b3bbddb83d4b73c7702a9769ec93a22bd16a47c688981c361911b949"
    ),
    ("pairwise", "sweep"): (
        "aa80ca90386280724df7158fd7e9204d3a92fc50f61c43698d948d68226d9a21"
    ),
    ("preshared-session", "null"): (
        "0b2525b19f34b26fc5d164e3f9e5d62550e799f3a0bfc12ec41cb422d7b36213"
    ),
    ("preshared-session", "random"): (
        "b3ec33142768cd9072f10d19306d1c053af4116fe6d2955325481763146f3395"
    ),
    ("preshared-session", "reactive"): (
        "443b8852e5a7f2f3483cf2a96dbf6affc1e9ceb41c9f2e099a9b6b8ac36b3604"
    ),
    ("preshared-session", "spoofer"): (
        "0f9e3627e9114cf22b4ce4c31e104fe82037b69067984c97155823c7ab9129ee"
    ),
    ("preshared-session", "sweep"): (
        "af05d15c5e5f65251e78e976e2e80065b32fa6157e8b80b27bdbc966234e1ee9"
    ),
    ("setup-session", "null"): (
        "5d26bc1cf552f3f72d129aeb09f72e919ed4da68fb836e89dc84a9e2b4b97ab0"
    ),
    ("setup-session", "random"): (
        "5d9ca83622373b98ca280bc43a377ae30c282d5c7eef349aad4e41c4cca9bf42"
    ),
    ("setup-session", "reactive"): (
        "05f0f0a1a4c3ca2b65d3bc7e54d1eeb85331f6bfe3348a90676d5676ff71c2cc"
    ),
    ("setup-session", "spoofer"): (
        "4238c66eacee91d1a7c70bcc89e9e1b51a751aaf3f9059e8795d7005d2a93365"
    ),
    ("setup-session", "sweep"): (
        "a97770071457ee3a839957aa45fecf50992289c59df53f015ab7e384e0a3ca99"
    ),
}


def keyed_digest(run, adversary) -> str:
    """Fingerprint of one keyed-epoch run (see :data:`KEYED`)."""
    if run == "host":
        return sha(list(_host_log(adversary)))
    log, session, net = KEYED_RUNS[run](adversary)
    form = None if session is None else session_form(session)
    return sha([log, form, *network_material(net)])


@pytest.mark.parametrize("run", sorted([*KEYED_RUNS, "host"]))
@pytest.mark.parametrize("adversary", KEYED_ADVERSARIES)
def test_keyed_epoch_run_matches_golden(run, adversary):
    assert keyed_digest(run, adversary) == KEYED[run, adversary]


# The stdout of every example script (deterministic: each seeds its own
# registries and adversaries).

EXAMPLES = {
    "adversary_gauntlet.py": (
        "ba4d2a4f8c735579ccf7a7ee3679c8c3f382fd66f268e244cfc2e55980e011bc"
    ),
    "piconet_pairing.py": (
        "b161d792937eba538c1a842ee389bffb95011a531e9cd8be5fba9682090887d2"
    ),
    "quickstart.py": (
        "9bcaa028a5ed6ac2ebf610cadb0204199f8fdab2d8abc383a206d0def9c7ccec"
    ),
    "rekey_and_pairwise.py": (
        "67e911ac8535a8a2d7d36e17c266c6b18d249f5aab22e43afafac0b5fd83b7b7"
    ),
    "secure_group_chat.py": (
        "29f5946d555538f24a0df2be644d9865d40d6b9280932619569c7ceb0e3be13d"
    ),
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_stdout_matches_golden(script):
    package_root = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == EXAMPLES[script]
