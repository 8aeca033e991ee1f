"""The serve workload's daemon process.

    python3 perfbench/daemon.py SEED TRACE OUT

Binds a :class:`repro.serve.ServeDaemon` on a free localhost port,
prints ``port N``, and serves until a ``shutdown`` request.  With
``TRACE`` = 1 the layer wrappers are installed first; the span summary
is then written to the file ``OUT``.  The last stdout line is a JSON
object with the process's peak RSS.
"""

import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(seed: int, trace: bool, out: str) -> int:
    from repro.serve import ServeDaemon

    tracer = None
    if trace:
        from tracing import Tracer, install, install_serve

        tracer = Tracer()
        install(tracer)
        install_serve(tracer)
    daemon = ServeDaemon(seed=seed, idle_timeout=120.0)
    _host, port = daemon.bind()
    print(f"port {port}", flush=True)
    daemon.run()
    if tracer is not None:
        tracer.write(out)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": rss_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]))
