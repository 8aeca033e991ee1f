"""Feedback pipeline throughput: compiled rounds/sec and hop draws/sec.

Run ``PYTHONPATH=src python benchmarks/bench_feedback.py`` to measure the
compiled feedback pipeline (rounds/sec of wall time for the serial routine
and the parallel merge, after asserting that a seeded run leaves every
node's ``D`` equal to the true flag set) and regenerate
``benchmarks/BENCH_feedback.json``; ``--quick`` is a short smoke run that
writes nothing.  Equivalence with the historical per-round and full-frame
references is pinned by the golden digests in ``tests/test_golden.py``.

``--draws`` isolates the hop sampler itself: whole hop matrices drawn via
:class:`repro.rng.BlockDrawer` against the historical sequential
``draw_uniform_indices`` loop, with byte identity (values and post-draw
generator state) asserted on seeded stream copies before timing.  Each
size times ``DRAW_PASSES`` loop/block pairs, alternating which side runs
first, prints every pass, and fails if the median per-pass speedup drops
below ``--min-draw-speedup``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from repro.adversary import RandomJammer
from repro.experiments.workloads import make_network
from repro.feedback.parallel import run_parallel_feedback
from repro.feedback.protocol import run_feedback
from repro.feedback.witness import WitnessAssignment
from repro.rng import BlockDrawer, RngRegistry, draw_uniform_indices


# ---------------------------------------------------------------------------
# Pipeline throughput: compiled rounds/sec, outputs checked first.
# ---------------------------------------------------------------------------


def _serial_workload(n: int, t: int, seed: int):
    """One full serial feedback invocation; returns (rounds, D-map, truth)."""
    channels = t + 1
    net = make_network(
        n, channels, t, adversary=RandomJammer(random.Random(seed))
    )
    sets = tuple(
        tuple(range(slot * channels, (slot + 1) * channels))
        for slot in range(channels)
    )
    wa = WitnessAssignment(sets=sets, channels=tuple(range(channels)))
    flags = {w: (slot % 2 == 0) for slot, ws in enumerate(sets) for w in ws}
    out = run_feedback(
        net,
        wa,
        flags,
        list(range(n)),
        RngRegistry(seed=seed),
    )
    return net.metrics.rounds, out, set(range(0, channels, 2))


def _parallel_workload(n: int, t: int, seed: int):
    """One full parallel-merge invocation; returns (rounds, D-map, truth)."""
    block = 2 * t
    slots = 4
    channels = max(2 * t * t, (slots // 2) * block)
    net = make_network(
        n, channels, t, adversary=RandomJammer(random.Random(seed))
    )
    witness_sets = [
        tuple(range(s * block, (s + 1) * block)) for s in range(slots)
    ]
    flags = {w: (s != 1) for s, ws in enumerate(witness_sets) for w in ws}
    out = run_parallel_feedback(
        net,
        witness_sets,
        flags,
        list(range(n)),
        RngRegistry(seed=seed),
    )
    return net.metrics.rounds, out, set(range(slots)) - {1}


def _rounds_per_sec(workload, n, t, *, min_seconds):
    """Wall-clock rounds/sec of repeated full invocations.

    Each invocation runs on a fresh network and registry (its own seed),
    so the timing covers building its templates, metas and hop tables.
    """
    start = time.perf_counter()
    rounds = 0
    invocations = 0
    while True:
        done, _, _ = workload(n, t, seed=invocations)
        rounds += done
        invocations += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return rounds / elapsed, rounds // invocations


def _draws_per_sec(draw_matrix, streams, count, min_seconds):
    """Wall-clock hop draws/sec of repeated whole-matrix materializations.

    The streams are created once and keep advancing — both samplers
    consume the identical ``getrandbits`` sequence (the module invariant),
    so the measurement isolates draw mechanics from stream construction.
    """
    start = time.perf_counter()
    draws = 0
    per_pass = len(streams) * count
    while True:
        draw_matrix(streams, count)
        draws += per_pass
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return draws / elapsed


DRAW_PASSES = 5
"""Timed loop/block pairs per size.  One pair decides nothing on a shared
host: single pairs of unchanged sampler code read 1.07x, 1.29x and 1.50x."""


def run_draw_suite(sizes: list[int], t: int, min_seconds: float) -> dict:
    """Isolated hop sampling: block draws vs the sequential loop.

    One "matrix" is the serial pipeline's unit of work — ``count`` hops
    for each of ``n`` listener streams over ``t + 1`` channels.  Byte
    identity (values AND post-draw generator state) is asserted on seeded
    stream copies before anything is timed.  Then each size times
    :data:`DRAW_PASSES` passes, each a loop timing and a block timing of
    ``min_seconds``, the first side alternating, and prints every pass;
    a size's ``speedup`` is the median of its per-pass ratios.
    """
    nchan = t + 1
    count = 64
    drawer = BlockDrawer(nchan)

    def loop_matrix(streams, count):
        return [draw_uniform_indices(s, nchan, count) for s in streams]

    results: dict = {}
    for n in sizes:
        a = [random.Random(s) for s in range(n)]
        b = [random.Random(s) for s in range(n)]
        assert drawer.matrix(a, count) == loop_matrix(b, count), (
            f"block/loop draw divergence at n={n}"
        )
        assert [s.getstate() for s in a] == [s.getstate() for s in b], (
            f"block/loop generator-state divergence at n={n}"
        )
        loops, blocks, ratios = [], [], []
        for index in range(DRAW_PASSES):
            if index % 2:
                block = _draws_per_sec(drawer.matrix, b, count, min_seconds)
                loop = _draws_per_sec(loop_matrix, a, count, min_seconds)
            else:
                loop = _draws_per_sec(loop_matrix, a, count, min_seconds)
                block = _draws_per_sec(drawer.matrix, b, count, min_seconds)
            loops.append(loop)
            blocks.append(block)
            ratios.append(block / loop)
            print(
                f"  draws n={n:>5} pass {index}: loop={loop:.1f} "
                f"block={block:.1f} ratio={block / loop:.2f}"
            )
        results[str(n)] = {
            "loop_draws_per_sec": round(statistics.median(loops), 1),
            "block_draws_per_sec": round(statistics.median(blocks), 1),
            "pass_speedups": [round(r, 2) for r in ratios],
            "speedup": round(statistics.median(ratios), 2),
        }
    return results


def run_pipeline_suite(sizes: list[int], t: int, min_seconds: float) -> dict:
    results: dict = {}
    for name, workload in (
        ("serial_feedback_rounds_per_sec", _serial_workload),
        ("parallel_feedback_rounds_per_sec", _parallel_workload),
    ):
        rows = results[name] = {}
        for n in sizes:
            # Correctness gate before timing: the seeded run's outputs
            # must be the true flag set at every node.
            _, out, truth = workload(n, t, seed=0)
            assert all(d == truth for d in out.values()), (
                f"{workload.__name__} missed the true flag set at n={n}"
            )
            rate, per_inv = _rounds_per_sec(
                workload, n, t, min_seconds=min_seconds
            )
            rows[str(n)] = {
                "compiled_schedule": round(rate, 1),
                "rounds_per_invocation": per_inv,
            }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="feedback pipeline throughput benchmark"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke run: small n, short timings, no JSON written",
    )
    parser.add_argument(
        "--draws",
        action="store_true",
        help="run only the isolated hop-draw microbenchmark (block vs "
        "loop sampler, byte identity asserted before timing)",
    )
    parser.add_argument(
        "--min-draw-speedup",
        type=float,
        default=1.1,
        help="fail (exit 1) if the largest-n median per-pass block-draw "
        "speedup drops below this",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).parent / "BENCH_feedback.json",
        help="output path for the committed baseline",
    )
    args = parser.parse_args(argv)

    t = 3
    sizes = [256] if args.quick else [256, 1024]
    # Full-mode windows are long enough to average over host frequency /
    # contention cycles; short windows were observed to swing same-code
    # measurements by ±40% on shared machines.
    min_seconds = 0.3 if args.quick else 3.0
    n_max = str(max(sizes))

    # --draws runs only the hop sampler (its own CI smoke); --quick only
    # the pipeline; a full baseline regeneration runs both.
    results: dict = {}
    if not args.draws:
        results.update(run_pipeline_suite(sizes, t, min_seconds))
    draw_results = None
    if args.draws or not args.quick:
        draw_results = run_draw_suite(sizes, t, min_seconds)
        results["hop_draws_per_sec"] = draw_results
    for section, rows in results.items():
        print(f"\n=== {section} ===")
        for n, row in rows.items():
            cells = "  ".join(f"{k}={v}" for k, v in row.items())
            print(f"  n={n:>5}  {cells}")

    if not (args.quick or args.draws):
        payload = {
            "generated_by": "benchmarks/bench_feedback.py",
            "workload": {
                "t": t,
                "serial": "C=t+1 feedback channels, C slots, full-budget "
                "RandomJammer, keep_trace off (see _serial_workload)",
                "parallel": "4 witness sets of 2t, C=2t^2 channels, "
                "RandomJammer (see _parallel_workload)",
                "draws": "isolated hop sampling: 64 hops per stream over "
                "t+1 channels for n streams, block drawer vs sequential "
                f"draw_uniform_indices loop, {DRAW_PASSES} alternating "
                "passes, speedup = median per-pass ratio (see "
                "run_draw_suite)",
                "equivalence": "seeded serial and parallel D maps equal "
                "the true flag set at every node, and block vs loop draw "
                "values + generator state identical, asserted before "
                "timing; equivalence with the historical per-round and "
                "full-frame paths is pinned by tests/test_golden.py",
            },
            "python": platform.python_version(),
            "results": results,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")

    if draw_results is not None:
        draw_speedup = draw_results[n_max]["speedup"]
        if draw_speedup < args.min_draw_speedup:
            print(
                f"FAIL: median block-draw speedup at n={n_max} is "
                f"{draw_speedup}x (< {args.min_draw_speedup}x floor)",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: median block-draw speedup at n={n_max} is {draw_speedup}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
