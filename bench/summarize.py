"""Summarise result files: per workload, each metric's median and quartiles.

    python3 bench/summarize.py                      # every file in bench/results
    python3 bench/summarize.py --out bench/baseline.json

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
that the bounds in BENCHMARK.json are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(paths: list[Path]) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(path.read_text())
        key = record["workload"] + (" traced" if record["provenance"]["trace"] else "")
        runs.setdefault(key, []).append(record)
    out = {}
    for key, records in sorted(runs.items()):
        values: dict[str, list[float]] = {}
        for r in records:
            for name, m in r["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # the raw timings behind ref_wall_s and ref_cpu_s, for comparison
            untraced = [rep for rep in r["repetitions"] if not rep["traced"]]
            for raw in ("wall_s", "cpu_s"):
                values.setdefault("raw " + raw, []).append(
                    statistics.median(rep[raw] for rep in untraced)
                )
        metrics = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        overheads = [r["tracing_overhead_s"] for r in records if r["tracing_overhead_s"] is not None]
        out[key] = {
            "runs": len(records),
            "seeds": sorted(r["provenance"]["seed"] for r in records),
            "all_correct": all(r["result"]["correct"] for r in records),
            "counter_digests": sorted({r["counter_digest"] for r in records}),
            "source_sha": sorted({r["provenance"]["source_sha"] for r in records}),
            "git_commit": sorted({r["provenance"]["git_commit"] for r in records}),
            "machine": sorted(
                {
                    f"python {p['python']}, numpy {p['numpy']}, nproc {p['nproc']}, "
                    f"BLAS threads {p['blas_threads']}, --seconds {p['seconds']:g}"
                    for p in (r["provenance"] for r in records)
                }
            ),
            "metrics": metrics,
        }
        if overheads:
            out[key]["tracing_overhead_s_median"] = statistics.median(overheads)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    paths = args.files or sorted((HERE / "results").glob("*.json"))
    summary = summarise(paths)
    for key, s in summary.items():
        print(f"{key}: {s['runs']} runs, correct={s['all_correct']}, digests={s['counter_digests']}")
        for name, m in s["metrics"].items():
            print(f"  {name:32s} median {m['median']:.6g}  spread {m['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
