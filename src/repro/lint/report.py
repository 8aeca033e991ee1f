"""Findings and reports for :mod:`repro.lint`.

A :class:`Finding` is one rule violation anchored to a file/line/column; a
:class:`LintReport` is the deterministic aggregate of a run — findings
sorted by ``(path, line, col, rule)``, plus the counts a CI job wants to
render.  Everything is JSON-able via :meth:`LintReport.as_dict` so the CI
lint job can upload the report as an artifact.

The lint is zero tolerance: any finding fails the run.  A justified
exception is suppressed in place, by a ``repro-lint: disable`` pragma with
its reason or by a rule's module allowlist, and the report counts both.
"""

from __future__ import annotations

from dataclasses import dataclass

REPORT_VERSION = 2
"""Schema version of the JSON report."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    The field order is the sort order: reports list findings by path, then
    line, then column, then rule id — a pure function of the tree being
    linted, so two runs over the same tree render byte-identical reports.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The one-line human form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintReport:
    """The deterministic outcome of one lint run.

    Attributes
    ----------
    findings:
        Unsuppressed findings, sorted.
    files_scanned:
        Number of ``*.py`` files analyzed.
    suppressed:
        Findings silenced by a ``repro-lint: disable`` pragma.
    allowlisted:
        Findings silenced by a rule's module allowlist.
    """

    findings: tuple[Finding, ...]
    files_scanned: int
    suppressed: int
    allowlisted: int

    @property
    def clean(self) -> bool:
        """True when the run should exit 0."""
        return not self.findings

    def as_dict(self) -> dict:
        """JSON-able report (the ``--json-out`` artifact)."""
        return {
            "version": REPORT_VERSION,
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "counts": {
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "allowlisted": self.allowlisted,
            },
            "findings": [f.as_dict() for f in self.findings],
        }

    def render_lines(self) -> list[str]:
        """Human-readable output lines, one per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        noun = "file" if self.files_scanned == 1 else "files"
        lines.append(
            f"repro lint: {len(self.findings)} finding(s) in "
            f"{self.files_scanned} {noun} "
            f"({self.suppressed} suppressed, {self.allowlisted} allowlisted)"
        )
        return lines

