"""Pluggable trial-dispatch backends.

A backend's only job is: given a batch of :class:`~repro.experiments.trial.
TrialSpec`s, execute each one exactly once (logically) and hand back the
:class:`~repro.experiments.trial.TrialResult`s in **trial-index order**.
Everything that makes the sweep reports deterministic lives outside the
backend — per-trial seeds are a pure function of the trial index
(:meth:`~repro.rng.RngRegistry.spawn`), and aggregation sorts by index —
so any backend that honours the contract produces byte-identical reports.
``SerialBackend`` really is the degenerate case of the design, exactly as
ROADMAP's remote fan-out item predicted.

The contract, enforced here by :class:`ResultAssembler`:

* **at-most-once application** — results are keyed by trial index; a
  duplicate delivery (e.g. a socket worker that died *after* sending a
  result whose trial was then requeued and re-run) is dropped, so retries
  and completion order never change the merged output;
* **streaming** — ``on_result`` fires exactly once per distinct trial, as
  results arrive, which is what lets the sweep journal flush a durable
  record per trial and finished points report mid-sweep.

A run has no stop request: it finishes, or it dies (Ctrl-C, SIGKILL, a
crash, a :class:`~repro.errors.DispatchError`) and ``--resume`` finishes
the sweep from its journal.

Backends: :class:`SerialBackend` (in-process loop) and
:class:`~repro.dispatch.socket_pool.SocketBackend` (stdlib socket
coordinator + workers it forks locally or that connect from other
machines, shipping batched spec frames over a pipelined window).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError, DispatchError
from ..experiments.trial import TrialResult, TrialSpec
from ..experiments.workloads import run_trial

OnResult = Callable[[TrialResult], None]


class ResultAssembler:
    """At-most-once, order-oblivious collection of trial results.

    Parameters
    ----------
    indices:
        The trial indices the batch is expected to produce.
    on_result:
        Callback fired exactly once per *first* application of each index
        (never for duplicates or unexpected indices).
    """

    def __init__(
        self,
        indices: Iterable[int],
        on_result: OnResult | None = None,
    ) -> None:
        self._expected = set(indices)
        if len(self._expected) == 0:
            raise ConfigurationError("cannot assemble an empty batch")
        self._results: dict[int, TrialResult] = {}
        self._on_result = on_result

    def apply(self, result: TrialResult) -> bool:
        """Apply one result; ``False`` if it was a duplicate/unexpected.

        The boolean is the at-most-once guarantee: whatever order results
        arrive in, and however many times a trial is redelivered, each
        index is recorded (and ``on_result`` fired) exactly once.
        """
        index = result.index
        if index not in self._expected or index in self._results:
            return False
        self._results[index] = result
        if self._on_result is not None:
            self._on_result(result)
        return True

    @property
    def done(self) -> bool:
        """True once every expected index has been applied."""
        return len(self._results) == len(self._expected)

    def missing(self) -> list[int]:
        """Expected indices not yet applied, ascending."""
        return sorted(self._expected - self._results.keys())

    def ordered(self) -> list[TrialResult]:
        """Applied results in trial-index order."""
        return [self._results[i] for i in sorted(self._results)]


class DispatchBackend:
    """Base class for trial-dispatch backends.

    Subclasses implement :meth:`_execute`, feeding every produced result
    through the assembler; :meth:`run` owns the shared contract (index
    ordering, duplicate suppression, completeness check).
    """

    name = "abstract"

    def run(
        self,
        specs: Sequence[TrialSpec],
        *,
        on_result: OnResult | None = None,
    ) -> list[TrialResult]:
        """Execute ``specs``; return their results in trial-index order.

        ``on_result`` fires once per distinct completed trial as results
        arrive.
        """
        assembler = ResultAssembler(
            (s.index for s in specs), on_result=on_result
        )
        self._execute(list(specs), assembler)
        if not assembler.done:
            raise DispatchError(
                f"{self.name} backend finished with trials missing: "
                f"{assembler.missing()[:10]}"
            )
        return assembler.ordered()

    def _execute(
        self, specs: list[TrialSpec], assembler: ResultAssembler
    ) -> None:
        raise NotImplementedError


class SerialBackend(DispatchBackend):
    """Run every trial in-process, in submission order.

    This is both the reference implementation the socket pool must match
    and what ``--workers 1`` runs.
    """

    name = "serial"

    def _execute(self, specs, assembler):
        for spec in specs:
            assembler.apply(run_trial(spec))
