"""Command-line demos: ``python -m repro <command>``.

Commands
--------
``fame``        run f-AME on a generated workload and print the outcome table
``groupkey``    run the Section 6 group-key establishment
``service``     run the full pipeline and exchange a few chat messages
``gauntlet``    run f-AME against every adversary in the gallery
``sweep``       expand a parameter grid (workload × n × C × t × adversary)
                into deterministically seeded trials, run them in-process
                (``--workers 1``) or on a socket pool of forked workers
                (``--workers N``) that survives a killed worker, with a
                durable ``--journal`` and ``--resume``, and print
                a JSON report (Wilson intervals, disruptability
                histograms, merged radio metrics)
``montecarlo``  alias of ``sweep``: a Monte Carlo run is a one-point sweep
``worker``      join a sweep's socket pool from another machine (connects
                to the coordinator, pulls batches of trials until shutdown;
                ``--batch-size`` on the sweep side pins the batch size)
``scenario``    list/run entries of the declarative attack-scenario
                registry (``repro.scenarios``): ``run NAME...`` exits 0
                iff every observed outcome matches the registered
                expectation, ``gauntlet`` runs the whole catalog
``lint``        run the determinism & wire-safety static analyzer
                (:mod:`repro.lint`) over the tree; exit 0 clean, 1 on
                findings, 2 on usage errors — CI self-hosts it over
                ``src tests benchmarks examples`` with a zero-tolerance
                baseline

Common options: ``--nodes``, ``--channels``, ``--strength`` (t), ``--seed``,
``--adversary``.  Every run is deterministic given the seed, and a sweep's
*report* is byte-identical across worker counts, kills, and resumes::

    python -m repro montecarlo --trials 100 --workers 4 --seed 7

runs on 4 forked socket workers and writes the same report as
``--workers 1`` (100 trials, the default, is also enough for an
informative 1/n verdict at the default ``n=20``; see
``repro.analysis.stats.min_informative_trials``).
``--json-out PATH`` writes the report to a file (trailing newline) and
prints only a one-line summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .adversary import Adversary
from .crypto.dh import TEST_GROUP_128
from .dispatch import (
    SerialBackend,
    SocketBackend,
    SweepRunner,
    SweepSpec,
    worker_main,
)
from .dispatch.socket_pool import parse_endpoint
from .errors import ConfigurationError, SweepInterrupted
from .experiments import WORKLOADS, default_pairs
from .experiments.workloads import (
    ADVERSARY_FACTORIES as ADVERSARIES,
    make_network as _make_network,
)
from .fame import run_fame
from .groupkey import establish_group_key
from .lint.cli import add_lint_arguments, cmd_lint
from .radio.network import RadioNetwork
from .rng import RngRegistry
from .service import SecureSession


def _build_network(args: argparse.Namespace) -> RadioNetwork:
    # The adversary's coins ride their own registry stream (the paper's
    # separation of honest and adversarial randomness) — historically this
    # was ad-hoc `args.seed ^ 0xA5A5` arithmetic, now banned by lint
    # rule API002.
    adversary: Adversary = ADVERSARIES[args.adversary](
        RngRegistry(seed=args.seed).fresh("adversary")
    )
    return _make_network(args.nodes, args.channels, args.strength, adversary)


def cmd_fame(args: argparse.Namespace) -> int:
    network = _build_network(args)
    pairs = default_pairs(args.nodes, args.pairs)
    result = run_fame(network, pairs, rng=RngRegistry(seed=args.seed))
    print(f"f-AME: {len(result.succeeded)}/{len(pairs)} pairs delivered in "
          f"{result.rounds} rounds ({result.moves} game moves)")
    for pair, outcome in sorted(result.outcomes.items()):
        status = f"ok: {outcome.message!r}" if outcome.success else "FAIL"
        print(f"  {pair}: {status}")
    print(f"disruptability {result.disruptability()} <= t={args.strength}")
    return 0


def cmd_groupkey(args: argparse.Namespace) -> int:
    network = _build_network(args)
    result = establish_group_key(
        network, RngRegistry(seed=args.seed), group=TEST_GROUP_128
    )
    summary = result.summary()
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if result.group_key is not None:
        print(f"  key fingerprint: {result.group_key.hex()[:16]}…")
    return 0 if len(result.holders()) >= args.nodes - args.strength else 1


def cmd_service(args: argparse.Namespace) -> int:
    network = _build_network(args)
    session = SecureSession(
        network, RngRegistry(seed=args.seed), group=TEST_GROUP_128
    )
    print(f"setup: {session.stats.setup_rounds} rounds, "
          f"{len(session.members)} members")
    for i in range(3):
        session.send(session.members[i], f"message {i}".encode())
    session.flush()
    reader = session.members[-1]
    for delivery in session.inbox(reader):
        print(f"  node {reader} <- node {delivery.sender}: "
              f"{delivery.payload.decode()}")
    print(f"per-message cost: "
          f"{session.stats.real_rounds // max(1, session.stats.emulated_rounds)}"
          " rounds")
    return 0


def cmd_gauntlet(args: argparse.Namespace) -> int:
    pairs = default_pairs(args.nodes, args.pairs)
    worst = 0
    for name, factory in ADVERSARIES.items():
        network = _make_network(
            args.nodes, args.channels, args.strength,
            factory(RngRegistry(seed=args.seed).fresh("adversary", name)),
        )
        result = run_fame(network, pairs, rng=RngRegistry(seed=args.seed))
        cover = result.disruptability()
        worst = max(worst, cover)
        print(f"  {name:10} failed={len(result.failed):2} cover={cover}")
    print(f"worst cover {worst} <= t={args.strength}: "
          f"{'OK' if worst <= args.strength else 'VIOLATED'}")
    return 0 if worst <= args.strength else 1


def _emit_report(
    payload: dict, json_out: Path | None, summary: str
) -> None:
    """Print the report, or write it to a file and print one line.

    ``--json-out`` exists so sweep reports can be collected without shell
    redirection: the file gets the full JSON (trailing newline included),
    stdout gets a single summary line.
    """
    if json_out is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    json_out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{summary} -> {json_out}")


def _sweep_backend(args: argparse.Namespace):
    # One local worker runs in-process; anything else is the socket
    # coordinator (which rejects a count below one).
    if args.workers == 1 and not args.no_spawn_workers:
        return SerialBackend()
    host, port = parse_endpoint(args.bind)
    return SocketBackend(
        workers=args.workers,
        host=host,
        port=port,
        spawn_workers=not args.no_spawn_workers,
        batch_size=args.batch_size,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        workloads=tuple(args.workloads),
        ns=tuple(args.nodes),
        channels=tuple(args.channels),
        ts=tuple(args.strengths),
        adversaries=tuple(args.adversaries),
        trials=args.trials,
        seed=args.seed,
        pairs=args.pairs,
    )
    backend = _sweep_backend(args)
    total_points = len(spec.points())

    def on_point_complete(point, section) -> None:
        if not args.progress:
            return
        rate = section["success_rate"]
        print(
            f"repro {args.command}: point {point.point_index + 1}/"
            f"{total_points} [{point.label()}] success "
            f"{rate['successes']}/{rate['trials']} "
            f"max-cover {section['disruptability']['max']}",
            file=sys.stderr,
        )

    runner = SweepRunner(
        spec,
        backend=backend,
        journal_path=args.journal,
        resume=args.resume,
        on_point_complete=on_point_complete,
        stop_after=args.stop_after,
    )
    try:
        report = runner.run()
    except SweepInterrupted:
        partial = runner.state.partial_report()
        done = f"{partial['completed_trials']}/{partial['total_trials']}"
        if args.journal is not None:
            hint = "journalled; rerun with --resume to finish"
        else:
            hint = (
                "completed but DISCARDED (no --journal); rerun with "
                "--journal to make stops resumable"
            )
        print(
            f"repro {args.command}: stopped early with {done} trials {hint}",
            file=sys.stderr,
        )
        return 3
    _emit_report(report.as_dict(), args.json_out, report.summary_line())
    return 1 if report.whp_failures() else 0


def cmd_scenario(args: argparse.Namespace) -> int:
    # Imported on demand: the catalog pulls in the serve stack, which
    # the lightweight demo commands should not pay for.
    from .errors import ScenarioError
    from .scenarios import get_scenario, run_gauntlet, scenario_names

    if args.action == "list":
        for name in scenario_names():
            scen = get_scenario(name)
            print(
                f"  {name:34} [{scen.layer:8}] "
                f"expects {scen.expected.describe()}"
            )
        return 0
    if args.action == "run" and not args.names:
        print(
            "repro scenario: run needs at least one scenario name "
            "(see `repro scenario list`)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_gauntlet(
            tuple(args.names) if args.names else None, seed=args.seed
        )
    except ScenarioError as exc:
        print(f"repro scenario: {exc}", file=sys.stderr)
        return 2
    if args.json_out is None:
        for run in report.runs:
            verdict = "ok" if run.matched else "MISMATCH"
            line = (
                f"  {run.name:34} [{run.layer:8}] {verdict}: "
                f"expected {run.expected.describe()}"
            )
            if not run.matched:
                line += f", observed {run.observed.describe()}"
            print(line)
        print(report.summary_line())
    else:
        _emit_report(report.as_dict(), args.json_out, report.summary_line())
    return 0 if report.all_matched() else 1


def cmd_worker(args: argparse.Namespace) -> int:
    host, port = parse_endpoint(args.connect)
    return worker_main(host, port, retry_seconds=args.retry_seconds)


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import serve_main

    host, port = parse_endpoint(args.bind)
    return serve_main(
        seed=args.seed,
        host=host,
        port=port,
        max_sessions=args.max_sessions,
        idle_timeout=args.idle_timeout,
    )


def cmd_serve_client(args: argparse.Namespace) -> int:
    from .errors import ServiceError
    from .serve import ServiceClient

    host, port = parse_endpoint(args.connect)
    try:
        with ServiceClient(host, port, name="cli") as client:
            return _serve_client_action(client, args)
    except ServiceError as exc:
        print(f"repro serve-client: {exc}", file=sys.stderr)
        return 1


def _serve_client_action(client, args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in client.list_sessions():
            print(name)
        return 0
    if args.action == "shutdown":
        client.shutdown()
        print("daemon shutting down")
        return 0
    if args.session is None:
        noun = (
            "a scenario name" if args.action == "scenario"
            else "a session name"
        )
        print(
            f"repro serve-client: {args.action} needs {noun}",
            file=sys.stderr,
        )
        return 2
    if args.action == "scenario":
        out = client.run_scenario(args.session, seed=args.seed)
        verdict = "ok" if out.matched else "MISMATCH"
        print(
            f"{out.name} [{out.layer}] seed={out.seed} {verdict}: "
            f"expected {out.expected} observed {out.observed}"
        )
        return 0 if out.matched else 1
    if args.action == "open":
        opened = client.open_session(
            args.session,
            n=args.nodes,
            channels=args.channels,
            t=args.strength,
            adversary=args.adversary,
            rekey_interval=args.rekey_interval,
        )
        print(
            f"opened {opened.name!r}: members={opened.members} "
            f"epoch={opened.epoch_length} rounds/emulated round"
        )
        return 0
    if args.action == "stats":
        stats = client.stats(args.session)
        print(
            f"{stats.name}: members={stats.members} gen={stats.generation} "
            f"pending={stats.pending} attached={stats.attached} "
            f"emulated={stats.emulated_rounds} real={stats.real_rounds} "
            f"sent={stats.sent} delivered={stats.delivered} "
            f"rekeys={stats.rekeys}"
        )
        return 0
    if args.action == "rekey":
        done = client.rekey(args.session, tuple(args.compromised))
        print(
            f"rekeyed {done.name!r}: gen={done.generation} "
            f"distributor={done.distributor} members={done.members} "
            f"excluded={done.excluded} dropped={done.dropped} "
            f"in {done.rounds} rounds"
        )
        return 0
    if args.action == "demo":
        client.join_session(args.session)
        stats = client.stats(args.session)
        for i, member in enumerate(stats.members[:3]):
            client.send(
                args.session, member, f"demo message {i}".encode()
            )
        flushed = client.flush(args.session)
        print(
            f"flushed {flushed.emulated_rounds} emulated rounds, "
            f"{len(flushed.deliveries)} deliveries"
        )
        reader = stats.members[-1]
        for delivery in client.drain_inbox(args.session, reader):
            print(
                f"  node {reader} <- node {delivery.sender}: "
                f"{delivery.payload.decode()}"
            )
        return 0
    print(
        f"repro serve-client: unknown action {args.action!r}",
        file=sys.stderr,
    )
    return 2


def _int_list(text: str) -> list[int]:
    """Comma-separated ints for grid axes (``--nodes 18,24,32``)."""
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        ) from None


def _str_list(text: str) -> list[str]:
    """Comma-separated names for grid axes (``--adversaries null,sweep``)."""
    return [part for part in text.split(",") if part != ""]


def _add_common_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", "-n", type=int, default=20)
    p.add_argument("--channels", "-c", type=int, default=2)
    p.add_argument("--strength", "-t", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument(
        "--adversary", choices=sorted(ADVERSARIES), default="schedule"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure Communication Over Radio Channels (PODC 2008) "
        "— reproduction demos",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, blurb in (
        ("fame", cmd_fame, "authenticated message exchange"),
        ("groupkey", cmd_groupkey, "group-key establishment"),
        ("service", cmd_service, "long-lived secure communication"),
        ("gauntlet", cmd_gauntlet, "f-AME vs the adversary gallery"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common_options(p)
        p.set_defaults(handler=handler)
    sw = sub.add_parser(
        "sweep",
        aliases=["montecarlo"],
        help="seeded Monte Carlo trials over a parameter grid (JSON "
        "report); montecarlo is an alias",
        description="Expand a parameter grid (workload × n × channels × t "
        "× adversary) into deterministically seeded trials "
        "(RngRegistry.spawn('sweep', point, trial)) and run them "
        "in-process (--workers 1) or on N forked socket workers "
        "(--workers N; a killed worker's trials are requeued).  Each grid "
        "point reports Wilson success intervals, its 1/n w.h.p. verdict, "
        "a disruptability histogram, and merged radio metrics; a Monte "
        "Carlo run is a one-point sweep.  With --journal every completed "
        "trial is durably appended; --resume replays the journal, skips "
        "completed trials, and produces a report byte-identical to an "
        "uninterrupted run.  The report never depends on the worker "
        "count, completion order, retries, kills, or resumes.  Exit "
        "codes: 0 done, 1 a checkable w.h.p. claim failed, 2 usage or "
        "configuration error, 3 stopped early.",
        epilog="example: python -m repro sweep --nodes 18,24 "
        "--adversaries schedule,random --trials 20 --workers 4 "
        "--journal sweep.jsonl --json-out sweep.json",
    )
    sw.add_argument("--workloads", "--workload", type=_str_list,
                    default=["fame"],
                    help=f"comma-separated workload axis: {sorted(WORKLOADS)}"
                    " or scenario:NAME (a registered attack scenario)")
    sw.add_argument("--nodes", "-n", type=_int_list, default=[20],
                    help="comma-separated n axis")
    sw.add_argument("--channels", "-c", type=_int_list, default=[2],
                    help="comma-separated channel-count axis")
    sw.add_argument("--strengths", "--strength", "-t", type=_int_list,
                    default=[1],
                    help="comma-separated adversary-strength (t) axis")
    sw.add_argument("--adversaries", "--adversary", type=_str_list,
                    default=["schedule"],
                    help="comma-separated adversary axis")
    # Default chosen so the bare invocation is informative for the 1/n
    # claim at the default n=20 (min_informative_trials(20) == 73).
    sw.add_argument("--trials", type=int, default=100,
                    help="trials per grid point")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--pairs", type=int, default=5)
    sw.add_argument("--workers", "-j", type=int, default=1,
                    help="1 runs in-process; N forks N local socket "
                    "workers")
    sw.add_argument(
        "--batch-size", type=int, default=None,
        help="socket pool: pin trials per batch frame (default: sized "
        "adaptively from observed per-trial cost)",
    )
    sw.add_argument(
        "--journal", default=None,
        help="durable JSONL journal path (one fsynced record per trial)",
    )
    sw.add_argument(
        "--resume", action="store_true",
        help="replay an existing --journal and skip completed trials",
    )
    sw.add_argument(
        "--json-out", type=Path, default=None,
        help="write the JSON report to this file (trailing newline) and "
        "print only a one-line summary to stdout",
    )
    sw.add_argument(
        "--progress", action="store_true",
        help="print one line per completed grid point to stderr",
    )
    sw.add_argument(
        "--bind", default="127.0.0.1:0",
        help="socket pool: coordinator HOST:PORT (0 = OS-assigned)",
    )
    sw.add_argument(
        "--no-spawn-workers", action="store_true",
        help="socket pool: only listen (even at --workers 1); workers "
        "are started elsewhere with `python -m repro worker --connect "
        "HOST:PORT`",
    )
    sw.add_argument(
        "--stop-after", type=int, default=None,
        help="fault injection: stop (exit 3) after this many newly "
        "completed trials — the journal keeps them; --resume finishes",
    )
    sw.set_defaults(handler=cmd_sweep)

    sn = sub.add_parser(
        "scenario",
        help="run entries of the declarative attack-scenario registry",
        description="The repro.scenarios registry pairs each attack "
        "(gallery adversaries, byzantine deviators, replay/spoof/race "
        "injectors) with a typed expected outcome — AttackRejected, "
        "KeyMismatchDetected, SessionAborted(code), WhpBoundHolds, or an "
        "explicitly asserted SafetyViolated/LivenessLost.  `run NAME...` "
        "and `gauntlet` exit 0 iff every observed outcome equals its "
        "registered expectation; every run is deterministic in --seed.  "
        "Scenarios also sweep as `--workload scenario:NAME` under "
        "sweep (alias montecarlo).",
        epilog="example: python -m repro scenario gauntlet --json-out "
        "gauntlet.json",
    )
    sn.add_argument("action", choices=("list", "run", "gauntlet"))
    sn.add_argument(
        "names", nargs="*",
        help="scenario names (required for run; optional subset for "
        "gauntlet)",
    )
    sn.add_argument("--seed", type=int, default=0)
    sn.add_argument(
        "--json-out", type=Path, default=None,
        help="write the JSON gauntlet report to this file (trailing "
        "newline) and print only a one-line summary to stdout",
    )
    sn.set_defaults(handler=cmd_scenario)

    wk = sub.add_parser(
        "worker",
        help="join a sweep's socket pool as a worker process",
        description="Connect to a sweep coordinator, handshake, and pull "
        "trials until it sends shutdown.  Exit codes: 0 shutdown, 1 "
        "coordinator unreachable/vanished, 2 handshake rejected or "
        "malformed --connect endpoint.",
    )
    wk.add_argument(
        "--connect", required=True, help="coordinator HOST:PORT"
    )
    wk.add_argument(
        "--retry-seconds", type=float, default=10.0,
        help="keep retrying the connection this long before giving up",
    )
    wk.set_defaults(handler=cmd_worker)

    sv = sub.add_parser(
        "serve",
        help="run the multi-session key-service daemon",
        description="Bind a TCP port and multiplex concurrent SecureSession "
        "group sessions (open/join/leave, send/flush/drain, scheduled and "
        "on-demand re-keys, per-session adversaries) behind the typed "
        "repro.serve wire protocol.  Every session's randomness derives "
        "from --seed and the session name, so a daemon-served session is "
        "byte-identical to the same session driven synchronously.",
        epilog="example: python -m repro serve --bind 127.0.0.1:7410",
    )
    sv.add_argument(
        "--bind", default="127.0.0.1:0",
        help="daemon HOST:PORT (0 = OS-assigned, printed to stderr)",
    )
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--max-sessions", type=int, default=None,
        help="bound on concurrent sessions (excess opens fail 'busy')",
    )
    sv.add_argument(
        "--idle-timeout", type=float, default=None,
        help="exit after this many seconds with no clients and no traffic",
    )
    sv.set_defaults(handler=cmd_serve)

    sc = sub.add_parser(
        "serve-client",
        help="talk to a running key-service daemon",
        description="Actions: list; open NAME; demo NAME (send a few "
        "messages, flush, read an inbox); stats NAME; rekey NAME "
        "[--compromised IDS]; scenario NAME [--seed N] (run a registered "
        "attack scenario inside the daemon); shutdown.",
        epilog="example: python -m repro serve-client --connect "
        "127.0.0.1:7410 demo alpha",
    )
    sc.add_argument("--connect", required=True, help="daemon HOST:PORT")
    sc.add_argument(
        "action",
        choices=(
            "list", "open", "demo", "stats", "rekey", "scenario",
            "shutdown",
        ),
    )
    sc.add_argument("session", nargs="?", default=None)
    sc.add_argument(
        "--seed", type=int, default=0,
        help="scenario action: the seed the daemon runs the scenario at",
    )
    sc.add_argument("--nodes", "-n", type=int, default=8)
    sc.add_argument("--channels", "-c", type=int, default=2)
    sc.add_argument("--strength", "-t", type=int, default=1)
    sc.add_argument(
        "--adversary", choices=sorted(ADVERSARIES), default=None,
        help="subject the session's network to a gallery adversary",
    )
    sc.add_argument(
        "--rekey-interval", type=int, default=0,
        help="rotate the group key every N emulated rounds during flushes",
    )
    sc.add_argument(
        "--compromised", type=_int_list, default=[],
        help="comma-separated member ids to exclude when re-keying",
    )
    sc.set_defaults(handler=cmd_serve_client)

    li = sub.add_parser(
        "lint",
        help="determinism & wire-safety static analysis (repro.lint)",
        description="Run the AST-based rule engine over files or "
        "directories.  Rules enforce the repository's replayability "
        "invariants (no raw random access, no set-order iteration, no "
        "wall-clock reads in protocol code, no PYTHONHASHSEED-perturbed "
        "hash()), wire safety (restricted unpickling, metered frames), "
        "and API discipline (picklable wire dataclasses, registry-derived "
        "seeds).  Suppress a justified exception with '# repro-lint: "
        "disable=RULE -- reason'.  Exit codes: 0 clean, 1 findings, 2 "
        "usage error.",
        epilog="example: python -m repro lint src tests benchmarks "
        "examples --baseline lint_baseline.json --json-out lint_report.json",
    )
    add_lint_arguments(li)
    li.set_defaults(handler=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    A :class:`ConfigurationError` from any command (an unrunnable shape, a
    malformed endpoint, an unusable journal) is a usage error: one
    ``repro <command>: <reason>`` line on stderr and exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
