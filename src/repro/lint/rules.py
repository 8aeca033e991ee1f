"""The :mod:`repro.lint` rule catalog.

Each rule is a small AST check with a stable id, grouped in three families
(see ``docs/LINT.md`` for the full rationale of every id):

* ``DET0xx`` — determinism: the repository's central invariant is that
  every run is replayable bit-for-bit from one integer seed (serial ==
  parallel == socket reports, block draws == sequential draws, trial seeds
  a pure function of the trial index).  These rules ban the constructs
  that quietly break it: ad-hoc ``random`` access, unordered-set
  iteration, wall-clock/environment reads, ``PYTHONHASHSEED``-perturbed
  ``hash()``.
* ``WIRE0xx`` — wire safety: nothing unpickles (frames and journal
  records go through the typed codec in :mod:`repro.dispatch.wire`),
  and frames carry honest payload metering.
* ``API0xx`` — API discipline: the plain-data dataclasses that ride the
  wire must stay plain and hashable, and seeds must be derived through
  :class:`repro.rng.RngRegistry`, never ad-hoc arithmetic.
* ``SCN0xx`` — scenario-registry discipline: every
  :mod:`repro.scenarios` registration must declare the typed outcome it
  asserts, or the byzantine gauntlet degrades into a smoke test.

Rules are *syntactic*: they resolve imported names (``import random as r``
still flags ``r.Random()``) but do no data-flow analysis — a set bound to
a variable and iterated later, or a string reaching ``hash()`` through a
name, is not caught.  The fixture tests in ``tests/test_lint.py`` pin each
rule's positive, negative, pragma, and allowlist behaviour.

Module allowlist
----------------
Some modules legitimately own a banned construct; they are exempted here,
centrally and with a recorded reason, instead of scattering pragmas over
code that is *supposed* to use the primitive.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # engine imports rules at runtime; annotate only
    from .engine import FileContext

# (line, col, message) triples; the engine stamps path and rule id.
RawFinding = tuple[int, int, str]


class Rule:
    """One lint check.  Subclasses set the class attributes and ``check``.

    ``protocol_only`` scopes a rule to ``repro.*`` modules (``src/``);
    tests and benchmarks legitimately time things and build seeded streams
    by hand, so only the rules whose property must hold *everywhere* (set
    iteration order, wire safety, pragma hygiene) run over them.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    protocol_only: bool = False

    def check(self, ctx: "FileContext") -> Iterable[RawFinding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

_ORDER_FREE_CONSUMERS = frozenset(
    ("sorted", "min", "max", "sum", "any", "all", "set", "frozenset", "len")
)

_SET_METHODS = frozenset(
    ("union", "intersection", "difference", "symmetric_difference")
)

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expression(node: ast.expr) -> bool:
    """True when ``node`` is *syntactically* guaranteed to be a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True  # x.union(y) etc. — set algebra as a method call
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _contains_seed_name(node: ast.expr) -> bool:
    """True when the expression mentions a ``*seed*``-named identifier."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


def _call_argument(
    node: ast.Call, position: int, keyword: str
) -> ast.expr | None:
    """The argument at ``position`` or passed as ``keyword=``, if any."""
    if len(node.args) > position:
        return node.args[position]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


# ----------------------------------------------------------------------
# Determinism family
# ----------------------------------------------------------------------


class Det001RawRandom(Rule):
    id = "DET001"
    title = "raw random access outside the RNG registry"
    rationale = (
        "All protocol randomness must flow through RngRegistry named "
        "streams so an experiment replays bit-for-bit from one seed. "
        "Module-level random.* calls use the unseeded global generator "
        "(never reproducible); Random() without a seed is equally "
        "unreproducible; and even a seeded Random() in protocol code "
        "bypasses the registry's stream separation."
    )

    # Module-level functions of the global generator.  Calling any of
    # these consumes unseeded process-global state.
    _GLOBAL_FNS = frozenset(
        (
            "betavariate", "choice", "choices", "expovariate", "gauss",
            "getrandbits", "paretovariate", "randbytes", "randint",
            "random", "randrange", "sample", "seed", "shuffle",
            "triangular", "uniform", "vonmisesvariate",
        )
    )

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved is None or not resolved.startswith("random."):
                continue
            attr = resolved[len("random."):]
            if attr in self._GLOBAL_FNS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"module-level random.{attr}() uses the unseeded "
                    "process-global generator; draw from an "
                    "RngRegistry stream instead",
                )
            elif attr == "Random":
                if not node.args and not node.keywords:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "unseeded random.Random() is never replayable; "
                        "seed it from an RngRegistry-derived value",
                    )
                elif ctx.is_protocol:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "protocol code must obtain streams from "
                        "RngRegistry (stream/fresh/spawn), not construct "
                        "random.Random directly",
                    )


class Det002SetIteration(Rule):
    id = "DET002"
    title = "iteration over an unordered set expression"
    rationale = (
        "Set iteration order depends on insertion history and (for str "
        "keys) PYTHONHASHSEED, so any draw sequence, wire frame, or "
        "fingerprint built from it differs across processes. Wrap the "
        "set in sorted(...) before iterating."
    )

    _MATERIALIZERS = frozenset(("list", "tuple"))

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        message = (
            "iterating a set yields an unstable order (insertion- and "
            "PYTHONHASHSEED-dependent); iterate sorted(...) instead"
        )
        for node in ctx.walk((ast.For, ast.AsyncFor)):
            if _is_set_expression(node.iter):
                yield (node.iter.lineno, node.iter.col_offset, message)
        for node in ctx.walk(
            (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            # A comprehension consumed whole by an order-insensitive
            # callable (sorted, min, sum, set, ...) neutralizes the
            # ordering, so sorted(f(x) for x in some_set) passes.  (A
            # side-effecting element expression could still observe the
            # order — data flow is out of scope; see docs/LINT.md.)
            parent = ctx.parent(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_FREE_CONSUMERS
                and node in parent.args
            ):
                continue
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    yield (
                        generator.iter.lineno,
                        generator.iter.col_offset,
                        message,
                    )
        for node in ctx.walk(ast.Call):
            # list(set(x)) / tuple(set(x)) materialize the unstable order.
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id in self._MATERIALIZERS
                and len(node.args) == 1
                and _is_set_expression(node.args[0])
            ):
                continue
            parent = ctx.parent(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_FREE_CONSUMERS
            ):
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"{node.func.id}(set(...)) materializes an unstable "
                "order; use sorted(...) instead",
            )


class Det003WallClock(Rule):
    id = "DET003"
    title = "wall-clock/environment read in protocol code"
    rationale = (
        "time.*, datetime.now, os.urandom, uuid.*, secrets.*, and "
        "os.environ make a run depend on when/where it executes. "
        "Protocol and simulation modules must be pure functions of the "
        "seed; only the dispatch control plane (timeouts, batch-cost "
        "EWMAs, worker spawning) may touch the host clock/environment, "
        "and it is allowlisted for exactly that."
    )
    protocol_only = True

    _DATETIME_NOW = frozenset(("now", "utcnow", "today", "fromtimestamp"))

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith("time."):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved}() reads the host clock; protocol state "
                    "must be a function of the seed only",
                )
            elif resolved.startswith("datetime.") and (
                resolved.rpartition(".")[2] in self._DATETIME_NOW
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved}() reads the wall clock; protocol state "
                    "must be a function of the seed only",
                )
            elif resolved == "os.urandom":
                yield (
                    node.lineno,
                    node.col_offset,
                    "os.urandom() is OS entropy, never replayable; draw "
                    "from an RngRegistry stream",
                )
            elif resolved.startswith("uuid."):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved}() derives from host entropy/clock/MAC; "
                    "derive identifiers from the seed instead",
                )
            elif resolved.startswith("secrets."):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved}() is OS entropy, never replayable; draw "
                    "from an RngRegistry stream",
                )
        for node in ctx.walk(ast.Attribute):
            if ctx.resolve(node) == "os.environ":
                yield (
                    node.lineno,
                    node.col_offset,
                    "os.environ makes behaviour depend on the host "
                    "environment; thread configuration through "
                    "parameters instead",
                )


class Det004StrHash(Rule):
    id = "DET004"
    title = "hash() over str/bytes content"
    rationale = (
        "Builtin hash() of str/bytes is perturbed per-process by "
        "PYTHONHASHSEED, so any such value that is persisted, sent over "
        "the wire, or compared across processes (fingerprints!) silently "
        "diverges. Use hashlib (repro.crypto.hashes / repro.rng."
        "derive_seed) for cross-process identity; hash() of int tuples "
        "is stable and untouched."
    )

    _STRINGISH_CALLS = frozenset(("str", "repr", "format", "ascii", "bytes"))
    _STRINGISH_METHODS = frozenset(("encode", "decode", "format", "hex", "join"))

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            if not (
                isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and len(node.args) == 1
            ):
                continue
            if self._contains_text(node.args[0]):
                yield (
                    node.lineno,
                    node.col_offset,
                    "hash() of str/bytes content is PYTHONHASHSEED-"
                    "perturbed and differs across processes; use "
                    "hashlib (e.g. repro.rng.derive_seed) instead",
                )

    @classmethod
    def _contains_text(cls, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(
                sub.value, (str, bytes)
            ):
                return True
            if isinstance(sub, ast.JoinedStr):
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in cls._STRINGISH_CALLS
                ):
                    return True
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in cls._STRINGISH_METHODS
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# Wire-safety family
# ----------------------------------------------------------------------


class Wire001Unpickling(Rule):
    id = "WIRE001"
    title = "unpickling"
    rationale = (
        "pickle.loads on socket or journal input executes arbitrary "
        "constructors chosen by whoever wrote the bytes. Nothing "
        "unpickles: frames and journal records are JSON read "
        "through repro.dispatch.wire, whose typed decoder rebuilds only "
        "what a dataclass's annotations admit. The ban is flat: no "
        "module and no idiom is exempt; a test that unpickles its own "
        "bytes says so with a pragma."
    )

    _ENTRY_POINTS = frozenset(
        ("pickle.loads", "pickle.load", "pickle.Unpickler")
    )

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved in self._ENTRY_POINTS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{resolved} executes constructors chosen by whoever "
                    "wrote the bytes; decode with repro.dispatch.wire",
                )


class Wire002FrameMetering(Rule):
    # (The class name must not itself end in "Frame" — the self-run
    # flagged the first draft of this very rule.)
    id = "WIRE002"
    title = "frame class without wire_size() metering"
    rationale = (
        "payload_units accounting is only honest if every frame type "
        "reports its own compressed size: a *Frame class without "
        "wire_size() is metered by the generic container fallback, "
        "which over- or under-counts encodings like the digest/delta "
        "frames and silently corrupts the bytes-on-air benchmarks."
    )
    protocol_only = True

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.ClassDef):
            if not node.name.endswith("Frame"):
                continue
            if any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "wire_size"
                for item in node.body
            ):
                continue
            if any(self._framelike_base(base) for base in node.bases):
                continue  # inherits metering from a frame/message base
            yield (
                node.lineno,
                node.col_offset,
                f"frame class {node.name} defines no wire_size(); "
                "payload_units metering falls back to guessing "
                "(see repro.radio.metrics.payload_size)",
            )

    @staticmethod
    def _framelike_base(base: ast.expr) -> bool:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        return name.endswith(("Frame", "Message"))


# ----------------------------------------------------------------------
# API-discipline family
# ----------------------------------------------------------------------

#: Dataclasses that cross process boundaries (socket frames, journal
#: records, multiprocessing args) and must stay plain data + hashable.
WIRE_DATACLASS_NAMES = frozenset(
    ("TrialSpec", "TrialResult", "Message", "DeltaFrame", "Jam",
     "Transmission")
)

#: Modules whose *every* dataclass is wire-crossing.
WIRE_DATACLASS_MODULES = frozenset(
    ("repro.experiments.trial", "repro.radio.messages",
     "repro.serve.protocol")
)


class Api001WireDataclassFields(Rule):
    id = "API001"
    title = "wire dataclass field is default-mutable or not plain data"
    rationale = (
        "TrialSpec/TrialResult/frame dataclasses cross process "
        "boundaries (workers, sockets, the journal) as plain data, and "
        "the frozen ones are dict keys. A shared mutable default "
        "aliases state across instances; a callable/handle-typed field "
        "cannot be encoded or sent to another process the moment it is "
        "populated. Use immutable defaults (or "
        "field(default_factory=...)) and plain-data field types."
    )
    protocol_only = True

    _MUTABLE_CALLS = frozenset(("list", "dict", "set", "bytearray"))
    _HANDLE_TYPES = frozenset(
        ("Callable", "Generator", "Iterator", "IO", "TextIO", "BinaryIO",
         "Random", "socket", "Thread", "Lock")
    )

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.ClassDef):
            if not self._is_wire_dataclass(ctx, node):
                continue
            for item in node.body:
                if not isinstance(item, ast.AnnAssign):
                    continue
                yield from self._check_field(node.name, item)

    def _is_wire_dataclass(
        self, ctx: "FileContext", node: ast.ClassDef
    ) -> bool:
        if not any(self._is_dataclass_decorator(d) for d in node.decorator_list):
            return False
        return (
            node.name in WIRE_DATACLASS_NAMES
            or ctx.module in WIRE_DATACLASS_MODULES
        )

    @staticmethod
    def _is_dataclass_decorator(node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        return name == "dataclass"

    def _check_field(
        self, class_name: str, item: ast.AnnAssign
    ) -> Iterator[RawFinding]:
        field_name = (
            item.target.id if isinstance(item.target, ast.Name) else "?"
        )
        default = item.value
        if default is not None:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CALLS
            ):
                yield (
                    default.lineno,
                    default.col_offset,
                    f"wire dataclass {class_name}.{field_name} has a "
                    "mutable default (shared across instances); use "
                    "field(default_factory=...) or an immutable value",
                )
            elif isinstance(default, ast.Lambda):
                yield (
                    default.lineno,
                    default.col_offset,
                    f"wire dataclass {class_name}.{field_name} defaults "
                    "to a lambda, which is not plain data",
                )
        for sub in ast.walk(item.annotation):
            name = sub.attr if isinstance(sub, ast.Attribute) else (
                sub.id if isinstance(sub, ast.Name) else None
            )
            if name in self._HANDLE_TYPES:
                yield (
                    item.annotation.lineno,
                    item.annotation.col_offset,
                    f"wire dataclass {class_name}.{field_name} is typed "
                    f"{name}, which cannot cross to workers/journal",
                )


class Api002AdHocSeed(Rule):
    id = "API002"
    title = "ad-hoc seed arithmetic"
    rationale = (
        "Seeds spliced by hand (seed ^ 0xA5A5, seed + i, ...) collide "
        "silently and make stream identity depend on call-site "
        "spelling. Every derived seed must come from RngRegistry."
        "spawn*/derive_seed, whose SHA-256 name-hashing is injective in "
        "practice and order-independent by construction. Protocol-only: "
        "a test offsetting a literal seed (seed + 100) is deterministic "
        "and replayable — the hazard is library code inventing seed-"
        "splicing conventions, not fixtures picking distinct seeds."
    )
    protocol_only = True

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if resolved != "random.Random" and not resolved.endswith(
                ".RngRegistry"
            ):
                continue
            argument = _call_argument(node, 0, "seed")
            if argument is None:
                continue
            if isinstance(
                argument, (ast.BinOp, ast.UnaryOp)
            ) and _contains_seed_name(argument):
                yield (
                    argument.lineno,
                    argument.col_offset,
                    "ad-hoc seed arithmetic; derive substream seeds via "
                    "RngRegistry.spawn*/derive_seed so they stay "
                    "collision-free and name-addressed",
                )


# ----------------------------------------------------------------------
# Scenario-registry family
# ----------------------------------------------------------------------


class Scn001ScenarioExpectedOutcome(Rule):
    id = "SCN001"
    title = "scenario registered without a typed expected outcome"
    rationale = (
        "A repro.scenarios entry is an executable claim: attack X "
        "against target Y ends in exactly outcome Z. A registration "
        "whose expected= is missing or a bare constant asserts nothing "
        "— the gauntlet would trivially pass whatever happens. Every "
        "@scenario(...) call must construct one of the typed outcomes "
        "(AttackRejected, KeyMismatchDetected, SessionAborted, "
        "WhpBoundHolds, SafetyViolated, LivenessLost); the registry "
        "re-validates at import time, but only for code that runs — "
        "this rule covers registrations CI never imports."
    )
    protocol_only = True

    _DECORATORS = frozenset(
        ("repro.scenarios.scenario", "repro.scenarios.registry.scenario")
    )

    def check(self, ctx: "FileContext") -> Iterator[RawFinding]:
        for node in ctx.walk(ast.Call):
            if ctx.resolve(node.func) not in self._DECORATORS:
                continue
            expected = next(
                (kw.value for kw in node.keywords if kw.arg == "expected"),
                None,
            )
            if expected is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "scenario registered without expected=...; declare "
                    "the typed outcome the run must produce "
                    "(repro.scenarios.outcomes)",
                )
            elif isinstance(expected, ast.Constant):
                yield (
                    expected.lineno,
                    expected.col_offset,
                    f"expected={expected.value!r} is not a typed "
                    "outcome; construct one of the "
                    "repro.scenarios.outcomes dataclasses",
                )


# ----------------------------------------------------------------------
# Registry and module allowlist
# ----------------------------------------------------------------------

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Det001RawRandom(),
        Det002SetIteration(),
        Det003WallClock(),
        Det004StrHash(),
        Wire001Unpickling(),
        Wire002FrameMetering(),
        Api001WireDataclassFields(),
        Api002AdHocSeed(),
        Scn001ScenarioExpectedOutcome(),
    )
}
"""Every registered rule, keyed by id (sorted rendering is the catalog)."""


#: Per-rule module exemptions: ``{rule_id: {module: reason}}``.  A module
#: is exempt from a rule when it *is* the listed module (exact match) —
#: these are the modules that legitimately own the banned primitive.
MODULE_ALLOWLIST: dict[str, dict[str, str]] = {
    "DET001": {
        "repro.rng": (
            "the RNG registry itself: the one module allowed to "
            "construct random.Random, from SHA-256-derived seeds"
        ),
    },
    "DET003": {
        "repro.dispatch.socket_pool": (
            "dispatch and transport control plane: socket timeouts, "
            "connect retry, drain deadlines, batch-cost EWMA, and worker "
            "spawning are wall-clock by nature and never enter reports "
            "(reports are byte-identical across backends)"
        ),
        "repro.serve.daemon": (
            "serve control plane: select timeouts and the idle watchdog "
            "pace the event loop only; the SessionHost it drives is "
            "clock-free, so daemon-served sessions stay byte-identical "
            "to synchronously driven ones"
        ),
    },
}


def is_allowlisted(rule_id: str, module: str) -> bool:
    """True when ``module`` is exempt from ``rule_id`` by central policy."""
    return module in MODULE_ALLOWLIST.get(rule_id, {})
