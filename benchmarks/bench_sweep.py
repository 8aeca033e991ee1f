"""Sweep dispatcher benchmark: serial vs the forked socket pool.

Runs the *same* :class:`~repro.dispatch.SweepSpec` in-process and on the
socket pool and — **before** timing anything — asserts the reports are
byte-identical (``json.dumps(..., sort_keys=True)``), including a
fault-injected socket run (one worker killed mid-sweep, the coordinator
crashed halfway, the journal resumed on a fresh pool): the dispatch
layer's whole contract is that it never changes the report, so an
equivalence regression fails the bench rather than inflating it.  Then
trials/sec per side.

The socket pool is timed twice: **cold** (fork + handshake included —
what a one-shot ``sweep --workers N`` run pays) and **warm** (pool
pre-warmed via :meth:`SocketBackend.warm_up`, measuring dispatch
throughput alone — what a long-lived cluster pool looks like in steady
state, and the number the protocol-v2 batching work targets).  The
``socket`` entry is the warm one; ``socket_cold`` is recorded alongside.
Timing runs in :data:`SAMPLES` passes, each timing serial, the cold pool
and the warm pool back to back, and every sample is printed: each
speedup is the median of its per-pass ratios, so one slow pass on a
shared box does not decide a floor.

The full run times two grids: ``short`` (n=24 trials of a few ms,
where per-dispatch overhead shows) and ``long`` (n=256 with 16 pairs,
~0.2 s trials, where a pool's speedup should approach its core count).

Run ``PYTHONPATH=src python benchmarks/bench_sweep.py`` to regenerate
``benchmarks/BENCH_sweep.json``; ``--quick`` is the CI smoke mode (one
tiny grid, no JSON unless ``--json`` is given).  ``os.cpu_count()`` is
recorded and the floors are enforced, on every grid, only when the
machine has at least ``--workers`` cores, on the median speedups: the
cold pool — what ``--workers N`` runs — must beat ``--min-speedup``, and
the warm pool must beat the protocol-v1 baseline of 0.13x serial by at
least ``--min-socket-improvement`` (default 3x).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.dispatch import SerialBackend, SocketBackend, SweepRunner, SweepSpec

SOCKET_V1_BASELINE = 0.13
"""Recorded speedup-vs-serial of the one-spec-per-frame protocol v1."""

SAMPLES = 5
"""Timed passes per grid (serial, cold pool, warm pool in each)."""


def run_sweep(spec: SweepSpec, backend) -> tuple[dict, float]:
    """One full sweep on one backend; returns (report dict, trials/sec)."""
    runner = SweepRunner(spec, backend=backend)
    start = time.perf_counter()
    report = runner.run()
    elapsed = time.perf_counter() - start
    return report.as_dict(), spec.total_trials / elapsed


class CoordinatorCrash(Exception):
    """Raised from inside the fault-injected run to end it as a crash
    would."""


def run_kill_and_resume(spec: SweepSpec, workers: int, batch_size) -> dict:
    """The fault-injected socket run: kill a worker, crash, resume.

    One worker is killed on the first completed trial (its in-flight
    batches are requeued with applied indices filtered out), the
    coordinator crashes once half the trials are journalled, and a fresh
    pool resumes from the journal.  Returns the resumed report.
    """
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "sweep.jsonl"
        backend = SocketBackend(
            workers=workers, batch_size=batch_size, accept_timeout=60.0
        )
        runner = SweepRunner(spec, backend=backend, journal_path=str(journal))
        crash_at = max(1, spec.total_trials // 2)
        added = 0
        original_add = runner.state.add

        def add_kill_crash(result):
            # The runner journals each result before it adds it.
            nonlocal added
            if not added:
                backend.spawned[0].kill()
            if added + 1 == crash_at:
                raise CoordinatorCrash
            added += 1
            return original_add(result)

        runner.state.add = add_kill_crash
        try:
            runner.run()
        except CoordinatorCrash:
            pass
        else:  # crash_at <= total_trials always crashes
            raise AssertionError("fault-injected run did not crash")
        report = SweepRunner(
            spec,
            backend=SocketBackend(
                workers=workers, batch_size=batch_size, accept_timeout=60.0
            ),
            journal_path=str(journal),
            resume=True,
        ).run()
        return report.as_dict()


def assert_equivalent(reports: dict[str, dict]) -> None:
    """Every side must produce a byte-identical report before timing."""
    rendered = {
        name: json.dumps(report, sort_keys=True)
        for name, report in reports.items()
    }
    reference_name = "serial"
    reference = rendered[reference_name]
    for name, text in rendered.items():
        if text != reference:
            raise AssertionError(
                f"backend divergence: {name!r} report differs from "
                f"{reference_name!r}:\n  {reference_name}: "
                f"{reference[:200]}\n  {name}: {text[:200]}"
            )


def bench_grid(
    spec: SweepSpec, workers: int, batch_size
) -> dict[str, list[float]]:
    """Every side on ``spec``: reports asserted identical, then timed in
    :data:`SAMPLES` passes (each pass's reports asserted identical too).

    Returns trials/sec per side, one sample per pass.
    """
    reports: dict[str, dict] = {}
    reports["serial"], _ = run_sweep(spec, SerialBackend())
    reports["socket_cold"], _ = run_sweep(
        spec, SocketBackend(workers=workers, batch_size=batch_size)
    )
    # Warm socket: pool pre-warmed off the clock, dispatch alone timed.
    warm = SocketBackend(workers=workers, batch_size=batch_size)
    try:
        warm.warm_up(timeout=60.0)
        reports["socket"], _ = run_sweep(spec, warm)
        # Fault injection: kill one worker + crash halfway + journal
        # resume must still reproduce the serial report byte-for-byte.
        reports["socket_kill_resume"] = run_kill_and_resume(
            spec, workers, batch_size
        )
        assert_equivalent(reports)
        rates: dict[str, list[float]] = {
            "serial": [], "socket_cold": [], "socket": []
        }
        for _ in range(SAMPLES):
            for name, backend in (
                ("serial", SerialBackend()),
                # Cold socket: one-shot pool, fork + handshake on the clock.
                ("socket_cold", SocketBackend(workers=workers, batch_size=batch_size)),
                ("socket", warm),
            ):
                reports[name], rate = run_sweep(spec, backend)
                rates[name].append(rate)
            assert_equivalent(reports)
    finally:
        warm.close()
    return rates


def ratios(rates: dict[str, list[float]], name: str) -> list[float]:
    """``name``'s trials/sec over serial's, pass by pass."""
    return [rate / serial for rate, serial in zip(rates[name], rates["serial"])]


def floor_failures(
    label: str, rates: dict[str, list[float]], args: argparse.Namespace
) -> list[str]:
    """The floors one grid's median speedups miss."""
    speedup = statistics.median(ratios(rates, "socket_cold"))
    socket_speedup = statistics.median(ratios(rates, "socket"))
    improvement = socket_speedup / SOCKET_V1_BASELINE
    failures = []
    if speedup < args.min_speedup:
        failures.append(
            f"{label}: cold-pool speedup is {speedup:.2f}x, the median of "
            f"{SAMPLES} passes (< {args.min_speedup}x floor)"
        )
    if improvement < args.min_socket_improvement:
        failures.append(
            f"{label}: warm socket speedup {socket_speedup:.2f}x (median of "
            f"{SAMPLES} passes) is only {improvement:.1f}x the "
            f"{SOCKET_V1_BASELINE}x v1 baseline "
            f"(< {args.min_socket_improvement}x floor)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="sweep dispatcher throughput benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tiny grid, no JSON written unless --json is given",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="socket pool size (default: 4, quick: 2)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="pin the socket backend's trials per batch frame "
        "(default: adaptive)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.3,
        help="fail (exit 1) if the cold pool's speedup vs serial (what "
        "--workers N runs) drops below this — enforced only when "
        "os.cpu_count() >= workers",
    )
    parser.add_argument(
        "--min-socket-improvement", type=float, default=3.0,
        help=f"fail if the warm socket backend's speedup-vs-serial is not "
        f"at least this many times the protocol-v1 baseline "
        f"({SOCKET_V1_BASELINE}x) — enforced only when os.cpu_count() >= "
        "workers",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="output path for the JSON baseline (default: "
        "benchmarks/BENCH_sweep.json; written automatically in full mode, "
        "and in --quick mode only when this flag is given)",
    )
    args = parser.parse_args(argv)
    json_path = (
        args.json
        if args.json is not None
        else Path(__file__).parent / "BENCH_sweep.json"
    )
    write_json = not args.quick or args.json is not None
    workers = (
        args.workers if args.workers is not None else (2 if args.quick else 4)
    )
    cpu_count = os.cpu_count() or 1

    if args.quick:
        grids = {"quick": SweepSpec(ns=(18,), trials=8, seed=7, pairs=4)}
    else:
        grids = {
            "short": SweepSpec(
                ns=(24,), adversaries=("schedule", "random"), trials=16,
                seed=7, pairs=5,
            ),
            "long": SweepSpec(ns=(256,), trials=32, seed=7, pairs=16),
        }

    samples: dict[str, dict[str, list[float]]] = {}
    for label, spec in grids.items():
        rates = bench_grid(spec, workers, args.batch_size)
        samples[label] = rates
        for k in range(SAMPLES):
            print(
                f"{label:>5} pass {k}: "
                + ", ".join(
                    f"{name} {rates[name][k]:.2f} trials/s"
                    + ("" if name == "serial" else f" ({ratios(rates, name)[k]:.2f}x)")
                    for name in rates
                )
            )
        for name in rates:
            print(
                f"{label:>5} {name:>12}: {statistics.median(rates[name]):8.2f} "
                f"trials/s  ({statistics.median(ratios(rates, name)):.2f}x vs "
                f"serial, median of {SAMPLES} passes)"
            )
        print(
            f"{label:>5} {'equivalence':>12}: serial == socket_cold == "
            "socket == socket_kill_resume (byte-identical reports)"
        )

    enforceable = cpu_count >= workers
    if write_json:
        payload = {
            "generated_by": "benchmarks/bench_sweep.py",
            "equivalence": "serial/socket(cold+warm) SweepReport.as_dict "
            "asserted byte-identical (sort_keys dumps) before timing, "
            "including a kill-one-worker + --resume socket run",
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "workers": workers,
            "batch_size": args.batch_size or "adaptive",
            "socket_v1_baseline_speedup": SOCKET_V1_BASELINE,
            "speedup_floor_enforced": enforceable,
            "passes": SAMPLES,
            "grids": {
                label: {
                    "sweep": spec.as_dict(),
                    "results": {
                        name: {
                            "trials_per_sec": round(statistics.median(rates), 2),
                            "speedup_vs_serial": round(
                                statistics.median(ratios(samples[label], name)), 2
                            ),
                            "samples": [round(rate, 2) for rate in rates],
                        }
                        for name, rates in samples[label].items()
                    },
                }
                for label, spec in grids.items()
            },
        }
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {json_path}")

    if not enforceable:
        print(
            f"NOTE: {cpu_count} CPU(s) < {workers} workers — the pool "
            "cannot beat serial here; floors not enforced "
            "(equivalence still asserted)"
        )
        return 0
    failures = [
        failure
        for label, rates in samples.items()
        for failure in floor_failures(label, rates, args)
    ]
    if failures:
        for failure in failures:
            print(
                f"FAIL: {failure} with {workers} workers on "
                f"{cpu_count} CPUs",
                file=sys.stderr,
            )
        return 1
    print(f"\nOK: every floor met on {', '.join(grids)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
