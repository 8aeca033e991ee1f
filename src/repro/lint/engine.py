"""The :mod:`repro.lint` analysis engine.

Per file: parse the source with :mod:`ast`, build a :class:`FileContext`
(module name, resolved import aliases, parent links), run every
applicable rule from :data:`repro.lint.rules.RULES`, then filter the raw
findings through the central module allowlist and the file's
``repro-lint`` pragmas.  The engine is itself linted by the rules it
enforces (the self-run in CI covers ``src/``, which includes this
package), so it iterates everything in sorted order and touches neither
the clock nor ``random``.

Pragmas
-------
Suppression is per-line and must carry a justification::

    frobnicate(x)  # repro-lint: disable=DET001 -- reason why this is safe

A comment-only pragma line suppresses the next code line instead.
``disable-file=RULE`` (anywhere in the file) suppresses a rule for the
whole file — for test modules whose *subject* is the banned construct.
Pragma hygiene is enforced by meta-findings that cannot themselves be
suppressed:

* ``LINT001`` — pragma without a ``--``-separated justification;
* ``LINT002`` — pragma naming an unknown (or meta) rule id;
* ``LINT003`` — pragma that suppressed nothing (stale: the violation
  moved or was fixed — delete the pragma);
* ``LINT004`` — file does not parse.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from ..errors import ConfigurationError
from . import rules as rules_mod
from .report import Finding, LintReport

#: Meta rule ids (pragma hygiene + parse errors); not suppressible, so a
#: pragma can never be used to hide pragma abuse.
META_RULES = {
    "LINT001": "pragma without justification",
    "LINT002": "pragma names an unknown rule id",
    "LINT003": "pragma suppresses nothing (stale)",
    "LINT004": "file does not parse",
}

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"\s*(?:--\s*(.*\S))?\s*$"
)

#: Minimum justification length: long enough to force an actual reason,
#: short enough not to punish a terse true one.
_MIN_JUSTIFICATION = 10


@dataclass
class Pragma:
    """One parsed ``repro-lint`` comment."""

    line: int                      # line the comment sits on
    target_line: int | None        # code line it suppresses (None = file)
    rule_ids: tuple[str, ...]
    justification: str | None
    file_level: bool
    used: set = field(default_factory=set)  # rule ids that suppressed


class FileContext:
    """Everything a rule may ask about one source file."""

    def __init__(
        self, source: str, path: str, module: str, tree: ast.Module
    ) -> None:
        self.source = source
        self.path = path
        self.module = module
        self.tree = tree
        #: Rules scoped ``protocol_only`` run only over ``repro.*``.
        self.is_protocol = module == "repro" or module.startswith("repro.")
        self._aliases = self._collect_imports(tree, module)
        self._parents: dict[int, ast.AST] = {}
        self._nodes_by_type: dict[type, list[ast.AST]] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
            self._nodes_by_type.setdefault(type(parent), []).append(parent)

    # -- AST access -----------------------------------------------------

    def walk(
        self, node_types: type | tuple[type, ...]
    ) -> Iterator[ast.AST]:
        """All nodes of the given type(s), in source order."""
        if not isinstance(node_types, tuple):
            node_types = (node_types,)
        for node_type in node_types:
            yield from self._nodes_by_type.get(node_type, ())

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    # -- import/name resolution -----------------------------------------

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to its imported dotted origin.

        ``import random as r`` makes ``r.Random`` resolve to
        ``"random.Random"``; ``from pickle import loads as l`` makes
        ``l`` resolve to ``"pickle.loads"``; relative imports resolve
        against the file's own module.  Returns ``None`` for names with
        no recorded import (locals, builtins, module-level defs).
        """
        attrs: list[str] = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self._aliases.get(node.id)
        if origin is None:
            return None
        return ".".join([origin] + attrs[::-1])

    @staticmethod
    def _collect_imports(tree: ast.Module, module: str) -> dict[str, str]:
        """Flat alias table over the whole file (scoping ignored: a lint
        cares where a name *can* come from, not shadowing subtleties).
        Function-level lazy imports are therefore seen too."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.asname is not None:
                        aliases[name.asname] = name.name
                    else:
                        # ``import os.path`` binds the top-level ``os``.
                        head = name.name.partition(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = FileContext._absolute_import(
                    module, node.level, node.module
                )
                for name in node.names:
                    if name.name == "*":
                        continue
                    bound = name.asname or name.name
                    origin = f"{base}.{name.name}" if base else name.name
                    aliases[bound] = origin
        return aliases

    @staticmethod
    def _absolute_import(
        module: str, level: int, target: str | None
    ) -> str:
        """Absolutize ``from ...target import x`` relative to ``module``.

        The current module is assumed to be a plain module (not a package
        ``__init__``) when it has a dot to strip; lint only needs the
        resolution to be right for the repository's own layout, where
        relative imports out of ``__init__`` files name their own package
        explicitly (``from .messages import ...``).
        """
        if level == 0:
            return target or ""
        parts = module.split(".")
        package = parts[:-1] if len(parts) > 1 else parts
        if level > 1:
            package = package[: max(0, len(package) - (level - 1))]
        if target:
            package = package + target.split(".")
        return ".".join(package)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------


def _scan_pragmas(
    source: str,
) -> tuple[list[Pragma], list[tuple[int, int, str, str]]]:
    """Extract ``repro-lint`` pragmas from comment tokens.

    Returns ``(pragmas, meta)`` where ``meta`` holds LINT001/LINT002
    findings as ``(line, col, rule, message)``.  Tokenizing (rather than
    regexing raw lines) means string literals that merely *mention* the
    pragma syntax — this engine's own source, the docs' examples — are
    never misread as pragmas.
    """
    comments: list[tuple[int, int, str]] = []
    code_lines: set[int] = set()
    skip = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
    }
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
            elif token.type not in skip:
                for line in range(token.start[0], token.end[0] + 1):
                    code_lines.add(line)
    except (tokenize.TokenError, IndentationError):
        return [], []  # the parse-error finding covers it

    pragmas: list[Pragma] = []
    meta: list[tuple[int, int, str, str]] = []
    for line, col, text in comments:
        match = _PRAGMA_RE.match(text)
        if match is None:
            if "repro-lint" in text:
                meta.append(
                    (line, col, "LINT001",
                     "malformed repro-lint pragma; expected "
                     "'# repro-lint: disable=RULE[,RULE] -- justification'")
                )
            continue
        kind, id_list, justification = match.groups()
        rule_ids = tuple(
            part.strip() for part in id_list.split(",") if part.strip()
        )
        for rule_id in rule_ids:
            if rule_id not in rules_mod.RULES:
                reason = (
                    "meta rules cannot be suppressed"
                    if rule_id in META_RULES
                    else "unknown rule id"
                )
                meta.append(
                    (line, col, "LINT002", f"{reason}: {rule_id!r}")
                )
        if justification is None or len(justification) < _MIN_JUSTIFICATION:
            meta.append(
                (line, col, "LINT001",
                 "pragma needs a justification: '-- why this exemption "
                 "is sound' (>= 10 chars)")
            )
        file_level = kind == "disable-file"
        target: int | None = None
        if not file_level:
            if line in code_lines:
                target = line
            else:
                later = [code for code in code_lines if code > line]
                target = min(later) if later else None
        pragmas.append(
            Pragma(
                line=line,
                target_line=target,
                rule_ids=rule_ids,
                justification=justification,
                file_level=file_level,
            )
        )
    return pragmas, meta


# ----------------------------------------------------------------------
# Per-file and per-tree drivers
# ----------------------------------------------------------------------


@dataclass
class FileResult:
    """Raw per-file outcome, before baselining."""

    findings: list[Finding]
    suppressed: int
    allowlisted: int


def lint_source(source: str, path: str, module: str) -> FileResult:
    """Lint one file's source text (the unit tests' entry point)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return FileResult(
            [
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="LINT004",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            suppressed=0,
            allowlisted=0,
        )
    ctx = FileContext(source, path, module, tree)
    pragmas, meta = _scan_pragmas(source)

    by_line: dict[int, list[Pragma]] = {}
    file_level: list[Pragma] = []
    for pragma in pragmas:
        if pragma.file_level:
            file_level.append(pragma)
        elif pragma.target_line is not None:
            by_line.setdefault(pragma.target_line, []).append(pragma)

    findings: list[Finding] = []
    suppressed = 0
    allowlisted = 0
    for rule_id in sorted(rules_mod.RULES):
        rule = rules_mod.RULES[rule_id]
        if rule.protocol_only and not ctx.is_protocol:
            continue
        if rules_mod.is_allowlisted(rule_id, module):
            allowlisted += sum(1 for _ in rule.check(ctx))
            continue
        for line, col, message in rule.check(ctx):
            covering = [
                pragma
                for pragma in file_level + by_line.get(line, [])
                if rule_id in pragma.rule_ids
            ]
            if covering:
                for pragma in covering:
                    pragma.used.add(rule_id)
                suppressed += 1
            else:
                findings.append(
                    Finding(
                        path=path, line=line, col=col, rule=rule_id,
                        message=message,
                    )
                )

    for line, col, rule_id, message in meta:
        findings.append(
            Finding(path=path, line=line, col=col, rule=rule_id,
                    message=message)
        )
    for pragma in pragmas:
        for rule_id in pragma.rule_ids:
            if rule_id in rules_mod.RULES and rule_id not in pragma.used:
                findings.append(
                    Finding(
                        path=path,
                        line=pragma.line,
                        col=0,
                        rule="LINT003",
                        message=(
                            f"pragma suppresses nothing: no {rule_id} "
                            "finding on its target; delete or move it"
                        ),
                    )
                )
    findings.sort()
    return FileResult(findings, suppressed, allowlisted)


def module_name_for(file_path: Path, root: Path) -> str:
    """Dotted module name for a file, relative to the lint root.

    Files under a ``src/`` directory drop that prefix (``src/repro/rng.py``
    → ``repro.rng``); everything else is named from the root
    (``tests/test_rng.py`` → ``tests.test_rng``).  Package ``__init__``
    files name the package itself.  Files outside the root fall back to
    their stem, so ad-hoc paths still lint.
    """
    try:
        relative = file_path.resolve().relative_to(root.resolve())
    except ValueError:
        return file_path.stem
    parts = list(relative.parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if not parts:
        return file_path.stem
    parts[-1] = parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or file_path.stem


def discover_files(paths: Sequence[str | Path], root: Path) -> list[Path]:
    """Expand CLI path arguments into a sorted list of ``*.py`` files.

    Raises :class:`ConfigurationError` (CLI exit 2) for a path that does
    not exist — a typo'd path silently linting nothing would defeat the
    zero-tolerance contract.
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            files.add(path)
        elif path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            raise ConfigurationError(f"lint path {raw} does not exist")
    return sorted(files)


def run_lint(
    paths: Sequence[str | Path],
    *,
    root: Path | None = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and aggregate the report."""
    root = (root or Path.cwd()).resolve()
    files = discover_files(paths, root)
    findings: list[Finding] = []
    suppressed = 0
    allowlisted = 0
    for file_path in files:
        try:
            display = file_path.resolve().relative_to(root).as_posix()
        except ValueError:
            display = file_path.as_posix()
        result = lint_source(
            file_path.read_text(encoding="utf-8"),
            display,
            module_name_for(file_path, root),
        )
        findings.extend(result.findings)
        suppressed += result.suppressed
        allowlisted += result.allowlisted
    findings.sort()
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        suppressed=suppressed,
        allowlisted=allowlisted,
    )
