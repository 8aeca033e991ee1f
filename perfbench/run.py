"""End-to-end benchmark of the repro stack, with a traced per-layer split.

    python3 perfbench/run.py --workload {fame,groupkey,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics listed in ``BENCHMARK.json``; ``--trace 1`` installs the layer
wrappers of ``tracing.py`` and measures the per-layer metrics instead.
Every output is checked; the last stdout line is the JSON result, and
the exit code is 1 when a check failed.  ``perfbench/README.md`` holds
the design: workloads, metrics, and which layer each one loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fame", "groupkey", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["per_layer" if args.trace else "end_to_end"]]

    if args.workload == "serve":
        import serve as workload
    else:
        import trials as workload
    report = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if report.trace_spans is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        report.trace_spans.write(out / f"trace-{args.workload}-{args.seed}.jsonl")
    report.emit(names)
    return 0 if report.correct and report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
