"""Tests for :mod:`repro.lint` — rules, pragmas, baselines, self-run.

Every rule gets (a) a positive fixture asserting the exact line the
finding anchors to, (b) a clean negative, (c) a pragma-suppression
check, and the allowlisted rules get (d) an allowlist-exemption check.
Fixtures are passed to :func:`repro.lint.lint_source` as strings, so
this file itself stays clean under the self-run (which lints it).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    MODULE_ALLOWLIST,
    RULES,
    lint_source,
    load_baseline,
    run_lint,
)
from repro.lint.engine import discover_files, module_name_for
from repro.lint.report import Finding, apply_baseline

REPO = Path(__file__).resolve().parents[1]


def check(src: str, module: str = "repro.example", path: str = "mod.py"):
    """Lint a dedented fixture; first fixture line is line 1."""
    return lint_source(textwrap.dedent(src).lstrip("\n"), path, module)


def hits(src: str, rule: str, module: str = "repro.example"):
    """The ``(line, col)`` anchors of one rule's findings in a fixture."""
    return [
        (f.line, f.col)
        for f in check(src, module=module).findings
        if f.rule == rule
    ]


def rule_ids(src: str, module: str = "repro.example"):
    return sorted({f.rule for f in check(src, module=module).findings})


# ----------------------------------------------------------------------
# DET001 — raw random access
# ----------------------------------------------------------------------


class TestDet001:
    def test_global_generator_call_fires_with_line(self):
        src = """
        import random

        def roll():
            return random.random()
        """
        assert hits(src, "DET001") == [(4, 11)]

    def test_aliased_import_resolves(self):
        src = """
        import random as rnd
        x = rnd.randrange(10)
        """
        assert hits(src, "DET001") == [(2, 4)]

    def test_from_import_resolves(self):
        src = """
        from random import shuffle
        shuffle(items)
        """
        assert hits(src, "DET001") == [(2, 0)]

    def test_unseeded_random_fires_everywhere(self):
        src = """
        import random
        r = random.Random()
        """
        assert hits(src, "DET001", module="tests.test_x") == [(2, 4)]

    def test_seeded_random_fires_only_in_protocol_code(self):
        src = """
        import random
        r = random.Random(1234)
        """
        assert hits(src, "DET001", module="repro.game.engine") == [(2, 4)]
        assert hits(src, "DET001", module="tests.test_x") == []

    def test_registry_streams_are_clean(self):
        src = """
        from repro.rng import RngRegistry

        def build(seed):
            return RngRegistry(seed=seed).fresh("adversary")
        """
        assert check(src).findings == []

    def test_allowlist_exempts_the_registry_module(self):
        src = """
        import random
        r = random.Random(derived)
        """
        result = check(src, module="repro.rng")
        assert result.findings == []
        assert result.allowlisted == 1


# ----------------------------------------------------------------------
# DET002 — set iteration order
# ----------------------------------------------------------------------


class TestDet002:
    def test_for_over_set_literal_fires(self):
        src = """
        for item in {1, 2, 3}:
            consume(item)
        """
        assert hits(src, "DET002") == [(1, 12)]

    def test_for_over_set_call_fires(self):
        src = """
        for item in set(edges):
            consume(item)
        """
        assert hits(src, "DET002") == [(1, 12)]

    def test_for_over_set_comprehension_fires(self):
        src = """
        for v in {a for a, _ in edges}:
            consume(v)
        """
        assert hits(src, "DET002") == [(1, 9)]

    def test_sorted_set_is_clean(self):
        src = """
        for item in sorted({1, 2, 3}):
            consume(item)
        """
        assert check(src).findings == []

    def test_comprehension_generator_over_set_fires(self):
        src = """
        pairs = [f(v) for v in set(nodes) | set(others)]
        """
        assert hits(src, "DET002") == [(1, 23)]

    def test_order_free_consumer_neutralizes_comprehension(self):
        src = """
        total = sum(f(v) for v in {1, 2, 3})
        best = max(g(v) for v in set(edges))
        """
        assert check(src).findings == []

    def test_list_of_set_materializer_fires(self):
        src = """
        order = list(set(edges))
        """
        assert hits(src, "DET002") == [(1, 8)]

    def test_len_of_set_is_clean(self):
        src = """
        count = len(set(edges))
        """
        assert check(src).findings == []


# ----------------------------------------------------------------------
# DET003 — wall clock / environment (protocol modules only)
# ----------------------------------------------------------------------


class TestDet003:
    def test_clock_entropy_env_fire_in_protocol_code(self):
        src = """
        import os
        import time
        import uuid

        def stamp():
            t = time.time()
            token = uuid.uuid4()
            noise = os.urandom(8)
            home = os.environ["HOME"]
            return t, token, noise, home
        """
        assert hits(src, "DET003") == [(6, 8), (7, 12), (8, 12), (9, 11)]

    def test_benchmarks_and_tests_may_time_things(self):
        src = """
        import time
        start = time.perf_counter()
        """
        assert hits(src, "DET003", module="benchmarks.bench_engine") == []
        assert hits(src, "DET003", module="tests.test_x") == []

    def test_dispatch_control_plane_is_allowlisted(self):
        src = """
        import time
        deadline = time.monotonic() + 5.0
        """
        result = check(src, module="repro.dispatch.socket_pool")
        assert result.findings == []
        assert result.allowlisted == 1


# ----------------------------------------------------------------------
# DET004 — hash() of str/bytes
# ----------------------------------------------------------------------


class TestDet004:
    def test_hash_of_string_fires(self):
        src = """
        bucket = hash("stream-name") % 64
        """
        assert hits(src, "DET004") == [(1, 9)]

    def test_hash_of_fstring_and_encode_fire(self):
        src = """
        a = hash(f"{name}:{index}")
        b = hash(name.encode("utf-8"))
        """
        assert hits(src, "DET004") == [(1, 4), (2, 4)]

    def test_hash_of_int_tuple_is_clean(self):
        src = """
        fingerprint = hash((1, 2, frozenset({3, 4})))
        """
        assert hits(src, "DET004") == []


# ----------------------------------------------------------------------
# WIRE001 — bare pickle deserialization
# ----------------------------------------------------------------------


class TestWire001:
    def test_bare_loads_fires(self):
        src = """
        import pickle

        def decode(data):
            return pickle.loads(data)
        """
        assert hits(src, "WIRE001", module="tests.test_x") == [(4, 11)]

    def test_unpickler_construction_fires(self):
        src = """
        import pickle
        obj = pickle.Unpickler(handle).load()
        """
        assert hits(src, "WIRE001") == [(2, 6)]

    def test_round_trip_idiom_is_exempt(self):
        src = """
        import pickle
        clone = pickle.loads(pickle.dumps(spec))
        """
        assert check(src).findings == []

    def test_wire_module_is_allowlisted(self):
        src = """
        import pickle
        value = pickle.loads(data)
        """
        result = check(src, module="repro.dispatch.wire")
        assert result.findings == []
        assert result.allowlisted == 1


# ----------------------------------------------------------------------
# WIRE002 — frame classes must meter themselves
# ----------------------------------------------------------------------


class TestWire002:
    def test_unmetered_frame_class_fires(self):
        src = """
        class AckFrame:
            def payload(self):
                return ()
        """
        assert hits(src, "WIRE002") == [(1, 0)]

    def test_wire_size_method_satisfies_the_rule(self):
        src = """
        class AckFrame:
            def wire_size(self):
                return 1
        """
        assert check(src).findings == []

    def test_framelike_base_inherits_metering(self):
        src = """
        class AckFrame(DeltaFrame):
            pass
        """
        assert check(src).findings == []

    def test_rule_is_protocol_only(self):
        src = """
        class FakeFrame:
            pass
        """
        assert hits(src, "WIRE002", module="tests.test_x") == []


# ----------------------------------------------------------------------
# API001 — wire dataclass field discipline
# ----------------------------------------------------------------------


class TestApi001:
    def test_mutable_default_fires(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class TrialSpec:
            extras: list = []
        """
        assert hits(src, "API001") == [(5, 19)]

    def test_unpicklable_annotation_fires(self):
        src = """
        from dataclasses import dataclass
        from typing import Callable

        @dataclass
        class Message:
            on_ack: Callable[[], None] = None
        """
        assert hits(src, "API001") == [(6, 12)]

    def test_default_factory_and_tuples_are_clean(self):
        src = """
        from dataclasses import dataclass, field

        @dataclass
        class TrialSpec:
            options: tuple = ()
            extras: dict = field(default_factory=dict)
        """
        assert check(src).findings == []

    def test_every_dataclass_in_wire_modules_is_covered(self):
        src = """
        from dataclasses import dataclass

        @dataclass
        class Envelope:
            routes: dict = {}
        """
        assert hits(src, "API001", module="repro.radio.messages") == [(5, 19)]
        assert hits(src, "API001", module="repro.analysis.tables") == []


# ----------------------------------------------------------------------
# API002 — ad-hoc seed arithmetic (protocol modules only)
# ----------------------------------------------------------------------


class TestApi002:
    def test_seed_arithmetic_into_registry_fires(self):
        src = """
        from repro.rng import RngRegistry

        def build(seed, i):
            return RngRegistry(seed=seed + i)
        """
        assert hits(src, "API002") == [(4, 28)]

    def test_seed_xor_into_random_fires(self):
        src = """
        import random
        rng = random.Random(seed ^ 0xA5A5)
        """
        assert (2, 20) in hits(src, "API002")

    def test_derived_seed_is_clean(self):
        src = """
        from repro.rng import RngRegistry, derive_seed

        def build(seed, i):
            return RngRegistry(seed=derive_seed(seed, "trial", i))
        """
        assert check(src).findings == []

    def test_tests_may_offset_literal_seeds(self):
        src = """
        from repro.rng import RngRegistry
        registry = RngRegistry(seed=100 + seed)
        """
        assert hits(src, "API002", module="tests.test_x") == []


# ----------------------------------------------------------------------
# SCN001 — scenario registrations declare a typed expected outcome
# ----------------------------------------------------------------------


class TestScn001:
    def test_registration_without_expected_fires(self):
        src = """
        from repro.scenarios import scenario

        @scenario("x.y", layer="channel", target="t", attack="a")
        def _run(ctx):
            return None
        """
        assert hits(src, "SCN001") == [(3, 1)]

    def test_constant_expected_fires(self):
        src = """
        from repro.scenarios.registry import scenario

        @scenario("x.y", layer="channel", target="t", attack="a",
                  expected=None)
        def _run(ctx):
            return None
        """
        assert hits(src, "SCN001") == [(4, 19)]

    def test_typed_expected_is_clean(self):
        src = """
        from repro.scenarios import scenario
        from repro.scenarios.outcomes import AttackRejected

        @scenario("x.y", layer="channel", target="t", attack="a",
                  expected=AttackRejected(mechanism="mac"))
        def _run(ctx):
            return AttackRejected(mechanism="mac")
        """
        assert hits(src, "SCN001") == []

    def test_tests_exercising_runtime_validation_are_exempt(self):
        # protocol_only: tests deliberately register invalid scenarios
        # to pin the registry's own ScenarioError checks.
        src = """
        from repro.scenarios import scenario

        @scenario("x.y", layer="channel", target="t", attack="a")
        def _run(ctx):
            return None
        """
        assert hits(src, "SCN001", module="tests.test_x") == []


# ----------------------------------------------------------------------
# Pragmas and meta rules
# ----------------------------------------------------------------------


class TestPragmas:
    def test_trailing_pragma_suppresses_its_line(self):
        src = """
        import random
        x = random.random()  # repro-lint: disable=DET001 -- fixture noise source
        """
        result = check(src)
        assert result.findings == []
        assert result.suppressed == 1

    def test_comment_line_pragma_suppresses_next_code_line(self):
        src = """
        import random
        # repro-lint: disable=DET001 -- fixture noise source
        x = random.random()
        """
        result = check(src)
        assert result.findings == []
        assert result.suppressed == 1

    def test_pragma_only_covers_named_rules(self):
        src = """
        import pickle
        x = pickle.loads(data)  # repro-lint: disable=DET001 -- wrong rule named
        """
        result = check(src)
        assert sorted(f.rule for f in result.findings) == [
            "LINT003", "WIRE001",
        ]

    def test_file_level_pragma(self):
        src = """
        # repro-lint: disable-file=DET001 -- module exercises the raw generator
        import random
        a = random.random()
        b = random.random()
        """
        result = check(src)
        assert result.findings == []
        assert result.suppressed == 2

    def test_missing_justification_is_lint001(self):
        src = """
        import random
        x = random.random()  # repro-lint: disable=DET001
        """
        result = check(src)
        # The pragma still suppresses, but LINT001 keeps the run red
        # (and LINT001 itself cannot be pragma'd away).
        assert [f.rule for f in result.findings] == ["LINT001"]
        assert result.suppressed == 1

    def test_unknown_rule_id_is_lint002(self):
        src = """
        x = 1  # repro-lint: disable=NOPE999 -- justification here anyway
        """
        assert [f.rule for f in check(src).findings] == ["LINT002"]

    def test_meta_rules_cannot_be_disabled(self):
        src = """
        x = 1  # repro-lint: disable=LINT003 -- trying to silence the police
        """
        assert "LINT002" in [f.rule for f in check(src).findings]

    def test_stale_pragma_is_lint003(self):
        src = """
        x = 1  # repro-lint: disable=DET001 -- nothing here violates it
        """
        assert [f.rule for f in check(src).findings] == ["LINT003"]

    def test_syntax_error_is_lint004(self):
        result = check("def broken(:\n")
        assert [f.rule for f in result.findings] == ["LINT004"]


# ----------------------------------------------------------------------
# Report, baseline, discovery
# ----------------------------------------------------------------------


class TestReportAndBaseline:
    def test_findings_sort_deterministically(self):
        src = """
        import random
        b = random.random()
        a = hash("x")
        """
        found = check(src).findings
        assert found == sorted(found)
        assert [f.rule for f in found] == ["DET001", "DET004"]

    def test_render_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=4, rule="DET001", message="boom"
        )
        assert finding.render() == "src/x.py:3:4: DET001 boom"

    def test_apply_baseline_swallows_and_reports_stale(self):
        findings = [
            Finding(path="a.py", line=1, col=0, rule="DET001", message="m"),
            Finding(path="b.py", line=9, col=0, rule="WIRE001", message="m"),
        ]
        baseline = [("a.py", "DET001", 1), ("gone.py", "DET004", 5)]
        kept, baselined, stale = apply_baseline(findings, baseline)
        assert [f.path for f in kept] == ["b.py"]
        assert baselined == 1
        assert stale == [("gone.py", "DET004", 5)]

    def test_load_baseline_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_baseline(tmp_path / "absent.json")

    def test_load_baseline_malformed_is_configuration_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_baseline(bad)

    def test_run_lint_unknown_path_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_lint([tmp_path / "no_such_dir"], root=tmp_path)

    def test_run_lint_over_tree_with_baseline(self, tmp_path):
        victim = tmp_path / "pkg" / "mod.py"
        victim.parent.mkdir()
        victim.write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        report = run_lint([tmp_path], root=tmp_path)
        assert not report.clean
        assert [f.rule for f in report.findings] == ["DET001"]
        assert report.findings[0].path == "pkg/mod.py"
        assert report.findings[0].line == 2

        grandfathered = run_lint(
            [tmp_path], root=tmp_path, baseline=[("pkg/mod.py", "DET001", 2)]
        )
        assert grandfathered.clean
        assert grandfathered.baselined == 1

        stale = run_lint(
            [tmp_path],
            root=tmp_path,
            baseline=[("pkg/mod.py", "DET001", 2), ("gone.py", "DET001", 1)],
        )
        assert not stale.clean
        assert stale.stale_baseline == (("gone.py", "DET001", 1),)

    def test_report_json_round_trips(self, tmp_path):
        (tmp_path / "m.py").write_text("x = hash('k')\n", encoding="utf-8")
        report = run_lint([tmp_path], root=tmp_path)
        document = json.loads(json.dumps(report.as_dict()))
        assert document["version"] == 1
        assert document["clean"] is False
        assert document["counts"]["findings"] == 1
        assert document["findings"][0]["rule"] == "DET004"

    def test_module_name_for(self, tmp_path):
        root = tmp_path
        assert (
            module_name_for(root / "src" / "repro" / "rng.py", root)
            == "repro.rng"
        )
        assert (
            module_name_for(root / "src" / "repro" / "lint" / "__init__.py", root)
            == "repro.lint"
        )
        assert (
            module_name_for(root / "tests" / "test_rng.py", root)
            == "tests.test_rng"
        )

    def test_discover_files_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("", encoding="utf-8")
        (tmp_path / "a.py").write_text("", encoding="utf-8")
        files = discover_files([tmp_path, tmp_path / "a.py"], tmp_path)
        assert files == [tmp_path / "a.py", tmp_path / "b.py"]


# ----------------------------------------------------------------------
# Self-hosting: the committed tree and baseline stay clean
# ----------------------------------------------------------------------


class TestSelfRun:
    def test_committed_baseline_is_empty(self):
        baseline = load_baseline(REPO / "lint_baseline.json")
        assert baseline == []

    def test_repo_tree_is_clean(self):
        baseline = load_baseline(REPO / "lint_baseline.json")
        report = run_lint(
            [
                REPO / "src",
                REPO / "tests",
                REPO / "benchmarks",
                REPO / "examples",
            ],
            root=REPO,
            baseline=baseline,
        )
        assert report.clean, "\n".join(report.render_lines())

    def test_self_run_is_deterministic(self):
        first = run_lint([REPO / "src" / "repro" / "lint"], root=REPO)
        second = run_lint([REPO / "src" / "repro" / "lint"], root=REPO)
        assert first.as_dict() == second.as_dict()

    def test_every_rule_documents_itself(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.title
            assert len(rule.rationale) > 40

    def test_allowlist_names_only_registered_rules_and_real_modules(self):
        for rule_id, modules in MODULE_ALLOWLIST.items():
            assert rule_id in RULES
            for module, reason in modules.items():
                assert len(reason) > 20
                relative = Path("src", *module.split("."))
                assert (
                    (REPO / relative).with_suffix(".py").exists()
                    or (REPO / relative / "__init__.py").exists()
                ), f"allowlist names unknown module {module}"
