"""The communication-feedback routine (Section 5.3, Figure 1).

After a scheduled transmission round, all nodes must agree on *which channels
were disrupted* — that agreement is what lets every node simulate the same
referee response and keep identical game states (Invariant 1 of Theorem 6).

:func:`run_feedback` implements Figure 1 verbatim: for each feedback slot a
dedicated witness set occupies **every** feedback channel each repetition
(so the adversary can never spoof a ``<true, r>`` frame — it can only
collide), while all other nodes hop randomly and collect reports.

:func:`run_parallel_feedback` implements the Section 5.5 parallel-prefix
merge used when ``C >= 2t^2``, reducing a full invocation to
``O(log^2 n)`` rounds.

Schedule compilation
--------------------
Both routines execute as **compiled schedules** rather than per-round
loops.  The key observation is that Figure 1's repetition loop is
*oblivious* in the paper's own sense: nothing a node transmits or tunes to
during the phase depends on anything observed during the phase.  The
witness of rank ``i`` occupies feedback channel ``i`` in every repetition
(a static transmitter template), and each listener's channel hops are
private coin flips fixed by its RNG stream — so the entire
``slots × repetitions`` loop (and the whole parallel merge tree: every
level, then the final dissemination, since each frame follows from the
flags alone) can be precomputed into a list of repetition loops (one
:class:`~repro.radio.network.CompiledRound` per slot or transfer phase,
one hop row per repetition) and submitted to
:meth:`~repro.radio.network.RadioNetwork.execute_schedule` in one call:
one invocation is one schedule, which the adversary is asked to plan
once.  Templates and metas are built where each loop is compiled; the
listener hop tables are the registry's
(:meth:`~repro.rng.RngRegistry.hops` builds each one once and keeps it).
Against a planning adversary (or none) the engine resolves each loop in
one step, and the routines read who heard what over the loop in bulk
(:meth:`~repro.radio.network.Heard.reached`): a silent or collided
channel costs no per-listener work, and a repetition no engine step.
Both fold what was heard into one mask per slot (a byte lane per
participant) and return ``node -> frozenset`` in participant order,
nodes with equal output sets sharing one frozenset
(:func:`~repro.feedback.protocol.slot_outputs`), so the f-AME referee
vote hashes each distinct set once.

Lemma 5 fidelity: compilation changes no observable of the execution.
An acting adversary is still consulted every round with the same view
(public metadata plus the trace of completed rounds — the one-round
observation delay is preserved because its rounds resolve strictly in
sequence), and a planning one draws every move from the same metas and
coins, in the order per-round calls would; honest randomness is drawn
from the same streams in the same per-stream order, and resolution
follows the identical single-transmitter decode rule.  Every
probabilistic event in Lemma 5's Chernoff argument —
"listener hears the active slot's witness in one repetition with
probability ``>= (C-t)/C``" — therefore has exactly the same distribution,
and seeded runs are byte-identical to the historical
per-node, one-round-per-repetition loop: ``tests/test_golden.py`` pins
digests recorded from it.

Wire encoding
-------------
The parallel merge ships its knowledge frames in the digest/delta encoding
of :class:`~repro.radio.messages.DeltaFrame`.  Seeded runs match the
historical full-frame payloads on ``D`` maps, metrics (bar the payload
counter the delta shrinks) and semantic traces under the whole adversary
gallery; ``tests/test_feedback_delta.py`` checks the digests recorded from
the full-frame runs.
"""

from .witness import WitnessAssignment, rank
from .protocol import run_feedback
from .parallel import run_parallel_feedback

__all__ = [
    "WitnessAssignment",
    "rank",
    "run_feedback",
    "run_parallel_feedback",
]
