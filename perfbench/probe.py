"""One set-up sample for a trial workload, run in a fresh interpreter:
import the program and run the untimed warm-up trial.

    python3 perfbench/probe.py WORKLOAD SEED

Prints the seconds of the reference kernel run before and after that.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

if __name__ == "__main__":
    from common import reference_seconds

    before = reference_seconds()
    from trials import warm_up

    warm_up(sys.argv[1], int(sys.argv[2]))
    print(before, reference_seconds())
