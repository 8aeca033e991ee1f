"""Durable JSONL journal for sweep runs: append-only, replayable.

One line per completed trial, flushed and fsynced before the dispatcher
moves on, so a killed sweep loses at most the trials in flight.  This
per-trial durability is also what makes the socket pool's *batched*
redelivery safe: a batch whose worker died after some results were
applied is requeued with the journalled/applied indices filtered out,
and even a full redelivery only produces duplicates that replay's
first-record-wins rule (and the assembler's at-most-once rule) drop.
The first line is a header carrying the sweep's configuration
fingerprint and the version of the coins its trials drew
(:data:`~repro.rng.RANDOMNESS_VERSION`);
``--resume`` replays the journal, refuses a journal recorded on other
coins (a header without the field predates version 2) or with another
fingerprint (a journal from a *different* sweep must never be merged
in), skips every
completed index, and — because the records reconstruct the exact
:class:`~repro.experiments.trial.TrialResult`s — the resumed run's report
is byte-identical to an uninterrupted one.

Record formats (JSON, one object per line):

* ``{"kind": "header", "journal_version": 1, "fingerprint": ...,
  "randomness": ...}``
* ``{"kind": "trial", "index": ..., "seed": ..., "success": ...,
  "cover": ..., "result": <base64 pickle>}``

The human-auditable fields (index/seed/success/cover) are convenience
duplicates; the pickle field is authoritative — it round-trips tuple
types and metrics subclasses that plain JSON would flatten.  It is
decoded through :func:`~repro.dispatch.wire.loads_restricted`, so an
edited journal can at worst fail replay, not execute code.  A truncated
final line (the crash happened mid-write, so the line is not JSON) is
skipped on replay; a corrupt *interior* line is an error, since records
after it prove the file was not merely cut short.  A complete JSON line
of the wrong shape — not a trial object, a missing or mistyped field, a
payload that is not a :class:`~repro.experiments.trial.TrialResult` or
disagrees with the duplicated fields, a disallowed global — is a
:class:`~repro.errors.DispatchError` naming its line wherever it sits:
tampering, unlike truncation, is never forgiven.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import IO

from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialResult
from ..rng import RANDOMNESS_VERSION
from .wire import FrameRejected, loads_restricted

JOURNAL_VERSION = 1


def encode_record(result: TrialResult) -> str:
    """One JSONL trial record (no trailing newline)."""
    blob = base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")
    return json.dumps(
        {
            "kind": "trial",
            "index": result.index,
            "seed": result.seed,
            "success": result.success,
            "cover": result.cover,
            "result": blob,
        },
        sort_keys=True,
    )


_MIRRORED = ("index", "seed", "success", "cover")
"""Record fields that duplicate the payload's, checked against it."""

_MISSING = object()


def decode_record(record: object) -> TrialResult:
    """Reconstruct the exact :class:`TrialResult` a record was made from.

    Raises :class:`DispatchError` unless ``record`` is a trial record whose
    payload decodes, within the restricted unpickler's allowlist, to a
    :class:`TrialResult` agreeing with every duplicated field.
    """
    if not isinstance(record, dict) or record.get("kind") != "trial":
        raise DispatchError("is not a trial record")
    blob = record.get("result")
    if not isinstance(blob, str):
        raise DispatchError("has no base64 result payload")
    try:
        result = loads_restricted(base64.b64decode(blob, validate=True))
    except FrameRejected as exc:
        raise DispatchError(f"rejected: {exc}") from None
    except Exception as exc:
        # Garbage pickle bytes raise UnpicklingError, EOFError, ValueError,
        # TypeError, AttributeError, OverflowError or even MemoryError;
        # each means the same thing here: the record is corrupt.
        raise DispatchError(
            f"has an undecodable result payload ({type(exc).__name__})"
        ) from None
    if type(result) is not TrialResult or type(result.index) is not int:
        raise DispatchError(
            f"carries a payload of type {type(result).__name__}, not a "
            "TrialResult"
        )
    for name in _MIRRORED:
        value = getattr(result, name)
        mirrored = record.get(name, _MISSING)
        if type(mirrored) is not type(value) or mirrored != value:
            raise DispatchError(
                f"field {name}={record.get(name)!r} does not match its "
                f"payload ({value!r})"
            )
    return result


class SweepJournal:
    """Append-only JSONL journal bound to one sweep fingerprint.

    Use :meth:`attach` — it owns the create-vs-resume decision and returns
    the already-completed results alongside the open journal.
    """

    def __init__(self, path: Path, handle: IO[str]) -> None:
        self.path = path
        self._handle = handle

    # ------------------------------------------------------------------

    @classmethod
    def attach(
        cls, path: str | Path, fingerprint: str, *, resume: bool
    ) -> tuple["SweepJournal", dict[int, TrialResult]]:
        """Open ``path`` for appending; return ``(journal, completed)``.

        A fresh path is created with a header line.  An existing path
        requires ``resume=True`` (guarding against accidentally mixing
        two sweeps' records), this build's randomness version and a
        matching ``fingerprint``; its trial
        records are replayed into ``completed`` (first occurrence of an
        index wins — the at-most-once rule applied retroactively).
        """
        path = Path(path)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("a", encoding="utf-8")
            journal = cls(path, handle)
            journal._append_line(
                json.dumps(
                    {
                        "kind": "header",
                        "journal_version": JOURNAL_VERSION,
                        "fingerprint": fingerprint,
                        "randomness": RANDOMNESS_VERSION,
                    },
                    sort_keys=True,
                )
            )
            return journal, {}
        if not resume:
            raise ConfigurationError(
                f"journal {path} already exists; pass --resume to continue "
                "it or choose a fresh path"
            )
        completed = cls._replay(path, fingerprint)
        return cls(path, path.open("a", encoding="utf-8")), completed

    @staticmethod
    def _replay(path: Path, fingerprint: str) -> dict[int, TrialResult]:
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise DispatchError(f"journal {path} is not UTF-8 text") from None
        if not lines:
            raise DispatchError(f"journal {path} is empty (no header)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise DispatchError(
                f"journal {path} has a corrupt header line"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise DispatchError(f"journal {path} does not start with a header")
        if header.get("journal_version") != JOURNAL_VERSION:
            raise DispatchError(
                f"journal {path} is version "
                f"{header.get('journal_version')!r}, expected "
                f"{JOURNAL_VERSION}"
            )
        # Headers written before the coins were versioned hold version 1.
        randomness = header.get("randomness", 1)
        if randomness != RANDOMNESS_VERSION:
            raise DispatchError(
                f"journal {path} holds trials drawn with randomness version "
                f"{randomness!r}, but this build draws version "
                f"{RANDOMNESS_VERSION}; start a fresh journal"
            )
        if header.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"journal {path} belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r}); refusing to "
                "resume into it"
            )
        completed: dict[int, TrialResult] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines):
                    # Crash mid-append: the cut-short final record is the
                    # one trial the journal is allowed to lose.
                    break
                raise DispatchError(
                    f"journal {path} line {lineno} is corrupt but not final"
                ) from None
            # A complete JSON line is never a crash artifact, so from here
            # on every fault is fatal, even on the final line.
            try:
                result = decode_record(record)
            except DispatchError as exc:
                raise DispatchError(
                    f"journal {path} line {lineno} {exc}"
                ) from None
            completed.setdefault(result.index, result)
        return completed

    # ------------------------------------------------------------------

    def _append_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, result: TrialResult) -> None:
        """Durably record one completed trial."""
        self._append_line(encode_record(result))

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
