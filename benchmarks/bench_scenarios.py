"""Attack-scenario gauntlet benchmark: scenarios/sec, serial and socket.

Prices the :mod:`repro.scenarios` registry two ways — the in-process
gauntlet (``run_gauntlet`` over the whole catalog, what ``python -m
repro scenario gauntlet`` and the CI smoke job pay) and the sweep path
(``scenario:NAME`` workloads dispatched through the serial and warm
socket backends, what a seed-axis robustness sweep pays per trial).

As with every dispatch benchmark here, **equivalence is asserted before
anything is timed**:

* two gauntlet runs at the same seed must render byte-identical JSON
  (``sort_keys`` dumps) — scenarios are clock-free by construction;
* the serial and socket sweep reports over the same scenario grid must
  be byte-identical — dispatch must never change a scenario verdict;
* a :class:`~repro.serve.host.SessionHost` answering ``RunScenario``
  must observe exactly what the local runner observes;
* and every catalog entry must actually match its registered
  expectation — a broken defence fails the bench, it does not get
  timed.

Run ``PYTHONPATH=src python benchmarks/bench_scenarios.py`` to
regenerate ``benchmarks/BENCH_scenarios.json``; ``--quick`` is the CI
smoke mode (one gauntlet pass, a 2-scenario sweep, no JSON unless
``--json`` is given).  ``os.cpu_count()`` is recorded and the
socket-vs-serial floor is enforced only when the machine has at least
``--workers`` cores; the serial floor always is (it needs no
parallelism).  The sweep is timed in :data:`SAMPLES` alternating
serial/socket passes, every sample printed, and the socket-vs-serial
ratio is the median of the per-pass ratios, so one slow pass on a shared
box does not decide the floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.dispatch import SerialBackend, SocketBackend, SweepRunner, SweepSpec
from repro.scenarios import encode_outcome, run_gauntlet, run_scenario, scenario_names
from repro.serve import SessionHost
from repro.serve import protocol as sp

SWEEP_SCENARIOS = (
    "channel.tampered-ciphertext",
    "serve.duplicate-open",
    "serve.flood-backpressure",
    "service.nonmember-send",
)
"""The scenario grid the sweep timings use (cheap, layer-diverse)."""

SAMPLES = 5
"""Alternating serial/socket sweep timings behind the socket ratio."""


def assert_equivalence(seed: int, spec: SweepSpec, workers: int) -> dict:
    """Every determinism contract, checked before the clock starts."""
    # 1. Gauntlet determinism + every expectation matched.
    first = run_gauntlet(seed=seed)
    if not first.all_matched():
        raise AssertionError(
            f"catalog mismatches at seed {seed}: {first.mismatched()}"
        )
    again = run_gauntlet(seed=seed)
    if json.dumps(first.as_dict(), sort_keys=True) != json.dumps(
        again.as_dict(), sort_keys=True
    ):
        raise AssertionError("gauntlet report is not deterministic")

    # 2. Serve host observes what the local runner observes.
    host = SessionHost(seed=0)
    for name in SWEEP_SCENARIOS[:2]:
        served = host.handle("bench", sp.RunScenario(name=name, seed=seed))
        local = run_scenario(name, seed=seed)
        if served.observed != encode_outcome(local.observed):
            raise AssertionError(
                f"serve/local divergence on {name!r}: "
                f"{served.observed} != {encode_outcome(local.observed)}"
            )

    # 3. Serial and socket sweep reports byte-identical.
    serial = SweepRunner(spec, backend=SerialBackend()).run().as_dict()
    socket_backend = SocketBackend(workers=workers, accept_timeout=60.0)
    via_socket = (
        SweepRunner(spec, backend=socket_backend).run().as_dict()
    )
    serial_text = json.dumps(serial, sort_keys=True)
    if serial_text != json.dumps(via_socket, sort_keys=True):
        raise AssertionError(
            "scenario sweep diverges between serial and socket backends"
        )
    return serial


def time_gauntlet(reps: int, seed: int) -> float:
    """Full-catalog gauntlet passes; returns scenarios/sec."""
    total = reps * len(scenario_names())
    start = time.perf_counter()
    for rep in range(reps):
        report = run_gauntlet(seed=seed + rep)
        if not report.all_matched():  # pragma: no cover - guarded above
            raise AssertionError(report.mismatched())
    return total / (time.perf_counter() - start)


def time_sweep(spec: SweepSpec, backend) -> float:
    """One sweep over the scenario grid; returns trials/sec."""
    start = time.perf_counter()
    SweepRunner(spec, backend=backend).run()
    return spec.total_trials / (time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="attack-scenario gauntlet throughput benchmark"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: one gauntlet pass, tiny sweep, no JSON written "
        "unless --json is given",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="socket backend pool size (default: 2)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-serial", type=float, default=2.0,
        help="fail (exit 1) if the serial gauntlet drops below this many "
        "scenarios/sec — always enforced",
    )
    parser.add_argument(
        "--min-socket-vs-serial", type=float, default=0.3,
        help="fail if socket-sweep trials/sec divided by serial-sweep "
        "trials/sec drops below this — enforced only when "
        "os.cpu_count() >= workers",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="output path for the JSON baseline (default: "
        "benchmarks/BENCH_scenarios.json; written automatically in full "
        "mode, and in --quick mode only when this flag is given)",
    )
    args = parser.parse_args(argv)
    json_path = (
        args.json
        if args.json is not None
        else Path(__file__).parent / "BENCH_scenarios.json"
    )
    write_json = not args.quick or args.json is not None
    cpu_count = os.cpu_count() or 1
    reps = 1 if args.quick else 3
    names = SWEEP_SCENARIOS[:2] if args.quick else SWEEP_SCENARIOS
    trials = 2 if args.quick else 8
    spec = SweepSpec(
        workloads=tuple(f"scenario:{name}" for name in names),
        trials=trials,
        seed=args.seed,
    )

    assert_equivalence(args.seed, spec, args.workers)
    catalog = scenario_names()

    throughput = {"gauntlet_serial": time_gauntlet(reps, args.seed)}
    samples: list[tuple[float, float]] = []
    warm = SocketBackend(workers=args.workers, accept_timeout=60.0)
    try:
        warm.warm_up(timeout=60.0)
        for k in range(SAMPLES):
            serial = time_sweep(spec, SerialBackend())
            socket = time_sweep(spec, warm)
            samples.append((serial, socket))
            print(
                f"{'sweep pass ' + str(k):>16}: serial {serial:8.2f}, "
                f"socket {socket:8.2f} trials/s ({socket / serial:.2f}x)"
            )
    finally:
        warm.close()
    throughput["sweep_serial"] = statistics.median(s for s, _ in samples)
    throughput["sweep_socket"] = statistics.median(s for _, s in samples)
    socket_vs_serial = statistics.median(
        socket / serial for serial, socket in samples
    )
    print(
        f"catalog: {len(catalog)} scenarios, all expectations matched "
        f"(seed {args.seed})"
    )
    for name, rate in throughput.items():
        unit = "scenarios" if name.startswith("gauntlet") else "trials"
        print(f"{name:>16}: {rate:8.2f} {unit}/s  (equivalence OK)")
    print(
        f"{'equivalence':>16}: gauntlet deterministic, serve == local, "
        "serial sweep == socket sweep (byte-identical reports)"
    )

    enforceable = cpu_count >= args.workers
    if write_json:
        payload = {
            "generated_by": "benchmarks/bench_scenarios.py",
            "catalog_size": len(catalog),
            "sweep_scenarios": list(names),
            "sweep_trials_per_scenario": trials,
            "gauntlet_reps": reps,
            "equivalence": "gauntlet reports byte-identical across runs; "
            "SessionHost RunScenario == local run_scenario; serial and "
            "socket scenario-sweep reports byte-identical (sort_keys "
            "dumps) — all asserted before timing",
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "workers": args.workers,
            "socket_floor_enforced": enforceable,
            "results": {
                "gauntlet_serial_scenarios_per_sec": round(
                    throughput["gauntlet_serial"], 2
                ),
                "sweep_serial_trials_per_sec": round(
                    throughput["sweep_serial"], 2
                ),
                "sweep_socket_trials_per_sec": round(
                    throughput["sweep_socket"], 2
                ),
                "socket_vs_serial": round(socket_vs_serial, 2),
                "sweep_samples_trials_per_sec": [
                    [round(serial, 2), round(socket, 2)]
                    for serial, socket in samples
                ],
            },
        }
        json_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {json_path}")

    failures = []
    if throughput["gauntlet_serial"] < args.min_serial:
        failures.append(
            f"serial gauntlet runs {throughput['gauntlet_serial']:.2f} "
            f"scenarios/s (< {args.min_serial} floor)"
        )
    if enforceable and socket_vs_serial < args.min_socket_vs_serial:
        failures.append(
            f"socket sweep is {socket_vs_serial:.2f}x the serial sweep, "
            f"the median of {SAMPLES} passes "
            f"(< {args.min_socket_vs_serial}x floor)"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if not enforceable:
        print(
            f"NOTE: {cpu_count} CPU(s) < {args.workers} workers — socket "
            f"floor not enforced (measured {socket_vs_serial:.2f}x; "
            "equivalence still asserted)"
        )
    print(
        f"\nOK: gauntlet {throughput['gauntlet_serial']:.2f} scenarios/s, "
        f"socket sweep {socket_vs_serial:.2f}x serial"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
