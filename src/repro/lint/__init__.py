"""``repro.lint`` — determinism & wire-safety static analysis.

Every PR since the engine refactors has staked its correctness on
machine-checkable invariants: byte-identical serial/parallel/socket
reports, interpreter-mirroring block draws, index-derived trial seeds,
metered wire frames.  This package makes those invariants *enforced*
rather than conventional: a stdlib-``ast`` rule engine
(:mod:`~repro.lint.rules`, ids ``DET001``–``API002``), per-line pragma
suppression with mandatory justifications, a central module allowlist,
and a JSON report.  It is zero tolerance: any finding fails the run, and
a justified exception is a pragma with its reason.  CI self-hosts it over
``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` — including this
package itself.

Entry points: ``python -m repro lint`` (CLI), :func:`run_lint`
(programmatic), :func:`lint_source` (single-source, used by the fixture
tests).  The rule catalog with per-rule rationale lives in
``docs/LINT.md``.
"""

from .engine import FileContext, lint_source, run_lint
from .report import Finding, LintReport
from .rules import MODULE_ALLOWLIST, RULES

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "MODULE_ALLOWLIST",
    "RULES",
    "lint_source",
    "run_lint",
]
