"""Helpers shared by the workloads: statistics, set-up timing, results."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_SAMPLES = 5
"""Set-ups timed per run; ``setup_s`` is their median."""

REFERENCE_S = 0.005
"""Nominal seconds of one :func:`reference_kernel` run.  ``setup_s`` is
in seconds of a machine that runs the kernel in this time."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def env_stamp() -> dict:
    return {"nproc": nproc(), "python": platform.python_version()}


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel() -> int:
    """A fixed pure-Python job that shares no code with the program.

    The benchmark's machine changes speed by up to 2x within minutes,
    for everything on it alike.  Timings divided by this kernel's time,
    measured next to them in the same process, cancel that out.
    """
    table: dict[int, int] = {}
    window: list[tuple[int, int]] = []
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        window.append((key, i))
        digest = hashlib.sha256(i.to_bytes(4, "little")).digest()
        acc ^= int.from_bytes(digest[:4], "little")
        if len(window) > 64:
            window.sort()
            window = window[32:]
    return acc + len(table)


def reference_seconds() -> float:
    """Wall seconds of one :func:`reference_kernel` run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def time_setup_probe(args: list[str]) -> float:
    """Seconds for a fresh interpreter to run the script ``args``:
    interpreter start, imports, and the warm-up it performs.  The script
    prints the times of the reference kernel run before and after its
    work; they are taken out of the time and scale it to the
    :data:`REFERENCE_S` machine.

    No ``timeout``: with one, ``Popen.wait`` polls in 50 ms sleeps and
    the measured time comes out in 50 ms steps.
    """
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    )
    took = time.perf_counter() - start
    before, after = map(float, done.stdout.split())
    return (took - before - after) * 2 * REFERENCE_S / (before + after)


class Digest:
    """SHA-256 over canonical JSON of a run's results, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        self._hash.update(
            json.dumps(value, sort_keys=True, default=repr).encode() + b"\n"
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Report:
    """Metrics of one run, printed as a table and as the final JSON line."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.notes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.trace_spans = None  # the traced run's Tracer, written at exit

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def emit(self, names: list[str]) -> None:
        """Print the table, then the result line with exactly ``names``."""
        stamp = env_stamp()
        print(
            f"# workload={self.workload} trace={int(self.trace)} "
            f"nproc={stamp['nproc']} python={stamp['python']}"
        )
        for key, value in self.notes.items():
            print(f"# {key}: {value}")
        for name, (value, unit, samples) in self.metrics.items():
            print(f"{name:32s} {value:14.4f} {unit:10s} n={samples}")
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        result = {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }
        print(json.dumps(result), flush=True)
