"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per timed repetition, so every repetition
begins with the cold caches a command-line user sees.  It prints ``ready``
once partcat is imported and the query list is built, then runs the timed
section under a ``clock.ReferenceClock``, checks the answers, and prints one
JSON line with the result.

    PYTHONPATH=src python3 bench/worker.py --workload hull --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy
    import partcat

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(partcat.__file__).resolve().parent.parent != src:
        print(f"partcat imported from {partcat.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from clock import ReferenceClock
    from spans import NullTracer, Tracer

    workload = workloads.WORKLOADS[args.workload]
    queries = workload.build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    with ReferenceClock() as clock:
        records = workload.run(queries, tracer, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors, counters = workload.check(records)
    result = {
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        "ref_wall_s": clock.ref_wall_s,
        "ref_cpu_s": clock.ref_cpu_s,
        "calibration_s": sorted(clock.calibrations)[len(clock.calibrations) // 2],
        "calibrations": len(clock.calibrations),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(records),
        "unsettled": [r.id for r in records if not r.settled],
        "errors": errors,
        "counters": counters,
        "layers": tracer.totals(),
        "spans": tracer.export(),
        "why": workload.why,
        "fusion_caps": workloads.FUSION_CAPS,
        "numpy": numpy.__version__,
    }
    print(json.dumps(result, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
