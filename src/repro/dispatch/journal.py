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

Record formats (one JSON object per line, in the
:mod:`~repro.dispatch.wire` codec):

* ``{"kind": "header", "journal_version": 2, "fingerprint": ...,
  "randomness": ...}``
* ``{"kind": "trial", ...}`` plus the fields of its
  :class:`~repro.experiments.trial.TrialResult`.

Replay decodes each record like a worker's result frame (the typed
decoder, then :func:`~repro.dispatch.wire.check_result` against the
sweep's spec for its index), so an edited journal can at worst fail
replay.  A final line that does not read (the crash happened mid-write)
is skipped, and cut before the resumed run's first append; a final
record that lost only its newline is kept and given one, so a journal
can be resumed any number of times.  A corrupt *interior* line is an
error, since records after it prove the file was not merely cut short.
A line that reads but is not a trial record of the right shape and
bounds is a :class:`~repro.errors.JournalRejected` naming its line
wherever it sits: tampering, unlike truncation, is never forgiven.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Mapping

from ..errors import ConfigurationError, JournalRejected
from ..experiments.trial import TrialResult, TrialSpec
from ..rng import RANDOMNESS_VERSION
from .wire import FrameRejected, as_dict, check_result, decode, dumps, loads

JOURNAL_VERSION = 2  # 1 held base64 pickles


def encode_record(result: TrialResult) -> str:
    """One JSONL trial record (no trailing newline)."""
    return dumps({"kind": "trial", **as_dict(result)}).decode("ascii")


def decode_record(record: object, specs: Mapping[int, TrialSpec]) -> TrialResult:
    """The :class:`TrialResult` a record holds, checked against the spec
    dispatched for its index; else :class:`~repro.dispatch.wire.FrameRejected`."""
    if not isinstance(record, dict) or record.get("kind") != "trial":
        raise FrameRejected("is not a trial record")
    fields = {key: value for key, value in record.items() if key != "kind"}
    result = decode(TrialResult, fields, "record")
    check_result(result, specs, "record")
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
        cls,
        path: str | Path,
        fingerprint: str,
        *,
        resume: bool,
        specs: Mapping[int, TrialSpec],
    ) -> tuple["SweepJournal", dict[int, TrialResult]]:
        """Open ``path`` for appending; return ``(journal, completed)``.

        A fresh path is created with a header line.  An existing path
        requires ``resume=True`` (guarding against accidentally mixing
        two sweeps' records), this build's journal and randomness
        versions and a matching ``fingerprint``; its trial records,
        each checked against ``specs`` (the sweep's spec for every
        index), are replayed into ``completed`` (first occurrence of an
        index wins — the at-most-once rule applied retroactively), and
        its crash tail is mended before anything is appended.  Anything
        else is a :class:`~repro.errors.JournalRejected`.
        """
        path = Path(path)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            handle = path.open("a", encoding="utf-8")
            journal = cls(path, handle)
            journal._append_line(
                dumps(
                    {
                        "kind": "header",
                        "journal_version": JOURNAL_VERSION,
                        "fingerprint": fingerprint,
                        "randomness": RANDOMNESS_VERSION,
                    }
                ).decode("ascii")
            )
            return journal, {}
        if not resume:
            raise ConfigurationError(
                f"journal {path} already exists; pass --resume to continue "
                "it or choose a fresh path"
            )
        data = path.read_bytes()
        completed, keep = cls._replay(path, data, fingerprint, specs)
        journal = cls(path, path.open("a", encoding="utf-8"))
        journal._mend(data, keep)
        return journal, completed

    @staticmethod
    def _replay(
        path: Path,
        data: bytes,
        fingerprint: str,
        specs: Mapping[int, TrialSpec],
    ) -> tuple[dict[int, TrialResult], int]:
        """The journal's records by index, and how many bytes of ``data``
        hold its header and every line that reads."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise JournalRejected(f"journal {path} is not UTF-8 text") from None
        lines = text.splitlines()
        if not lines:
            raise JournalRejected(f"journal {path} is empty (no header)")
        try:
            header = loads(lines[0])
        except FrameRejected:
            raise JournalRejected(
                f"journal {path} has a corrupt header line"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise JournalRejected(
                f"journal {path} does not start with a header"
            )
        if header.get("journal_version") != JOURNAL_VERSION:
            raise JournalRejected(
                f"journal {path} is version "
                f"{header.get('journal_version')!r:.40}, but this build "
                f"reads version {JOURNAL_VERSION}; start a fresh journal"
            )
        # Headers written before the coins were versioned hold version 1.
        randomness = header.get("randomness", 1)
        if randomness != RANDOMNESS_VERSION:
            raise JournalRejected(
                f"journal {path} holds trials drawn with randomness version "
                f"{randomness!r:.40}, but this build draws version "
                f"{RANDOMNESS_VERSION}; start a fresh journal"
            )
        if header.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"journal {path} belongs to a different sweep "
                f"(fingerprint {header.get('fingerprint')!r:.80}); refusing "
                "to resume into it"
            )
        completed: dict[int, TrialResult] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = loads(line)
            except FrameRejected:
                if lineno == len(lines):
                    # Crash mid-append: the cut-short final record is the
                    # one trial the journal is allowed to lose (``_mend``
                    # cuts it).
                    torn = text.splitlines(keepends=True)[-1]
                    return completed, len(data) - len(torn.encode("utf-8"))
                raise JournalRejected(
                    f"journal {path} line {lineno} is corrupt but not final"
                ) from None
            # A line that reads is never a crash artifact, so from here
            # on every fault is fatal, even on the final line.
            try:
                result = decode_record(record, specs)
            except FrameRejected as exc:
                raise JournalRejected(
                    f"journal {path} line {lineno} {exc}"
                ) from None
            completed.setdefault(result.index, result)
        return completed, len(data)

    def _mend(self, data: bytes, keep: int) -> None:
        """Cut the journal to ``data[:keep]`` and end it with a newline,
        durably, so the next record starts a line of its own: appended
        to, a torn final line would become a corrupt interior one, and a
        final record without its newline would merge with the next."""
        ended = data.endswith(b"\n", 0, keep)
        if keep == len(data) and ended:
            return
        self._handle.truncate(keep)
        if not ended:
            self._handle.write("\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

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
