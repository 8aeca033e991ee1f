"""Engine microbenchmark: game moves/sec and Invariant-1 certs/sec.

Measures the two game-layer structures f-AME is gated on, at
``n ∈ {64, 256, 1024}``, each against its from-scratch reference:

1. **Game moves/sec** — greedy proposal + grant application with the pools
   re-derived from scratch each move vs the incremental
   :class:`repro.game.greedy.GreedyPools`.

2. **Invariant-1 certifications/sec** — asserting that all ``n`` replicas
   agree, by hashing ``n`` full sorted state snapshots vs comparing ``n``
   incrementally-advanced fingerprints.

Radio rounds are timed end to end by ``perfbench/`` (``radio.us_per_round``
on the ``fame`` and ``groupkey`` workloads), not here.

Run ``PYTHONPATH=src python benchmarks/bench_engine.py`` to regenerate
``benchmarks/BENCH_engine.json`` (the committed perf trajectory for future
PRs), or with ``--quick`` for the CI smoke invocation (small sizes, no
file written).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.game.graph import GameGraph
from repro.game.greedy import GreedyPools, GreedyTermination, greedy_proposal


def _time(fn, *, min_seconds: float) -> tuple[float, int]:
    """Run ``fn(iterations)`` long enough to trust the clock; return
    (seconds, iterations)."""
    iterations = 64
    while True:
        start = time.perf_counter()
        fn(iterations)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed, iterations
        iterations *= 4


def _bench_edges(n: int) -> list[tuple[int, int]]:
    """A 2n-edge workload with shared sources (stars the surrogate path)."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + n // 2 + 1) % n))
    return sorted(set(e for e in edges if e[0] != e[1]))


def _play_game(graph: GameGraph, pools: GreedyPools | None, t: int) -> int:
    """Drive one generous-referee game to termination; return move count."""
    moves = 0
    while True:
        if pools is not None:
            move = pools.proposal(t)
        else:
            move = greedy_proposal(graph, t)
        if isinstance(move, GreedyTermination):
            return moves
        for item in move:
            if hasattr(item, "pair"):
                (pools.remove_edge if pools else graph.remove_edge)(item.pair)
            else:
                (pools.star if pools else graph.star)(item.node)
        moves += 1


def bench_game(n: int, *, incremental: bool, min_seconds: float) -> float:
    """Greedy moves/sec against a grant-everything referee."""
    edges = _bench_edges(n)
    counted: list[int] = []

    def run(iterations: int) -> None:
        counted.clear()
        total = 0
        for _ in range(iterations):
            graph = GameGraph.from_pairs(edges, vertices=range(n))
            pools = GreedyPools(graph) if incremental else None
            total += _play_game(graph, pools, t=4)
        counted.append(total)

    elapsed, _ = _time(run, min_seconds=min_seconds)
    return counted[0] / elapsed


def bench_invariant1(n: int, *, fingerprints: bool, min_seconds: float) -> float:
    """Invariant-1 certifications/sec over n replicas of a 2n-edge state."""
    edges = _bench_edges(n)
    graph = GameGraph.from_pairs(edges, vertices=range(n))

    if fingerprints:
        replicas = [graph.fingerprint] * n

        def run(iterations: int) -> None:
            canonical = graph.fingerprint
            for _ in range(iterations):
                assert not any(fp != canonical for fp in replicas)

    else:
        replicas_g = [graph.copy() for _ in range(n)]

        def run(iterations: int) -> None:
            for _ in range(iterations):
                assert len({g.state_key() for g in replicas_g}) == 1

    elapsed, iterations = _time(run, min_seconds=min_seconds)
    return iterations / elapsed


def run_suite(sizes: list[int], min_seconds: float) -> dict:
    results: dict = {
        "game_moves_per_sec": {},
        "invariant1_certs_per_sec": {},
    }
    for n in sizes:
        scratch = bench_game(n, incremental=False, min_seconds=min_seconds)
        pooled = bench_game(n, incremental=True, min_seconds=min_seconds)
        results["game_moves_per_sec"][str(n)] = {
            "from_scratch": round(scratch, 1),
            "incremental_pools": round(pooled, 1),
            "speedup": round(pooled / scratch, 2),
        }
        snapshots = bench_invariant1(
            n, fingerprints=False, min_seconds=min_seconds
        )
        fp = bench_invariant1(n, fingerprints=True, min_seconds=min_seconds)
        results["invariant1_certs_per_sec"][str(n)] = {
            "state_key_snapshots": round(snapshots, 1),
            "fingerprints": round(fp, 1),
            "speedup": round(fp / snapshots, 2),
        }
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: small sizes, short timings, no JSON written",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path(__file__).parent / "BENCH_engine.json",
        help="output path for the committed baseline",
    )
    args = parser.parse_args(argv)

    sizes = [64] if args.quick else [64, 256, 1024]
    min_seconds = 0.05 if args.quick else 0.4
    results = run_suite(sizes, min_seconds)

    for section, rows in results.items():
        print(f"\n=== {section} ===")
        for n, row in rows.items():
            cells = "  ".join(f"{k}={v}" for k, v in row.items())
            print(f"  n={n:>5}  {cells}")

    if not args.quick:
        payload = {
            "generated_by": "benchmarks/bench_engine.py",
            "workload": {
                "game_t": 4,
                "edges": "2n ring+chord pairs (see _bench_edges)",
            },
            "python": platform.python_version(),
            "results": results,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
