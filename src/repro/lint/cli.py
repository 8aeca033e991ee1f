"""The ``python -m repro lint`` subcommand.

Exit codes (pinned by ``tests/test_cli.py``):

* ``0`` — clean: no unsuppressed findings;
* ``1`` — findings remain;
* ``2`` — usage error: a lint path does not exist.

``--json-out`` writes the full report (trailing newline) even when the
run fails — that file is the CI artifact a red lint job uploads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigurationError
from . import rules as rules_mod
from .engine import run_lint

#: What a bare ``python -m repro lint`` covers: the self-hosted scope.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to the ``repro`` subparser."""
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint "
        f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None,
        help="write the JSON report to this file (always written, even "
        "on findings — it is the CI artifact) and keep stdout human",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (id, title, allowlisted modules) "
        "and exit 0",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Handler wired into ``repro.__main__``; returns the exit code."""
    if args.list_rules:
        for rule_id in sorted(rules_mod.RULES):
            rule = rules_mod.RULES[rule_id]
            print(f"{rule_id}  {rule.title}")
            for module in sorted(rules_mod.MODULE_ALLOWLIST.get(rule_id, {})):
                print(f"        allowlisted: {module}")
        return 0
    try:
        report = run_lint(args.paths)
    except ConfigurationError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    for line in report.render_lines():
        print(line)
    return 0 if report.clean else 1
