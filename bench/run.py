"""The partcat benchmark: one workload, timed from outside, answers checked.

    python3 bench/run.py --workload hull --seed 1 --seconds 36 --trace 0

Each timed repetition runs in a fresh worker process (``worker.py``), so
every repetition starts from the cold caches a command-line user sees.
Repetitions run one after another, at least two, and another one starts
only while it should end within ``--seconds``; each end-to-end metric is the
median over them.  ``setup_s`` is the median over those repetitions and
set-up-only workers, one after each repetition and more at the end, at
least ``SETUP_SAMPLES`` in all.

The timings are read on ``clock.ReferenceClock``: ``ref_wall_s`` and
``ref_cpu_s`` are the wall and CPU time of the timed section rescaled to a
machine of steady reference speed, because the speed of the virtual machines
this runs on drifts by up to 2x within minutes.  The raw ``wall_s`` and
``cpu_s`` are printed above the JSON line and kept in the result file.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced and traced repetitions
alternate: the JSON holds the per-layer metrics of the traced ones (medians),
and the lines above it give the tracing overhead on ``ref_wall_s``.

The run exits 1 when an answer is wrong or an exact counter differs from an
earlier repetition or an earlier run of the same source, and 2 when the
source tree or a worker is missing or broken; in both cases the JSON line
says ``"correct": false`` or is not printed.  Every run writes a result
file with its provenance under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("hull", "classify", "intertwine", "count")
MIN_REPS = 2  # with --trace 1: one untraced and one traced
SETUP_SAMPLES = 9
RUN_LIMIT_S = 160  # no repetition may run past this, so a run ends well within 180 s

END_TO_END = {
    "ref_wall_s": "s",
    "ref_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "settled_frac": "ratio",
}

PER_LAYER = {
    "partition.dump_s": "s",
    "partition.dump_lines": "count",
    "ops.enumerate_all_s": "s",
    "ops.enumerate_all_parts": "count",
    "ops.iter_words_s": "s",
    "ops.iter_words_words": "count",
    "ops.category_ops_s": "s",
    "ops.category_ops_calls": "count",
    "catalog.predicate_s": "s",
    "catalog.predicate_calls": "count",
    "catalog.enumerate_category_s": "s",
    "catalog.enumerate_category_parts": "count",
    "closure.generate_s": "s",
    "closure.generate_calls": "count",
    "closure.fusion_ops": "count",
    "closure.fusion_ops_per_s": "1/s",
    "closure.words": "count",
    "closure.oversized_words": "count",
    "closure.saturated_frac": "ratio",
    "closure.words_per_kfusion": "1/kop",
    "closure.classify_s": "s",
    "closure.contains_s": "s",
    "closure.contains_calls": "count",
    "linmap.rep_s": "s",
    "linmap.table_s": "s",
    "linmap.table_parts": "count",
    "linmap.group_elements": "count",
    "linmap.t_bytes_computed": "B",
    "linmap.functor_s": "s",
    "linmap.functor_pairs": "count",
    "moments.count_s": "s",
    "moments.count_words": "count",
    "moments.cumulants_s": "s",
    "moments.cumulant_terms": "count",
}


REP_FIELDS = (
    "wall_s",
    "cpu_s",
    "ref_wall_s",
    "ref_cpu_s",
    "calibration_s",
    "calibrations",
    "setup_s",
    "peak_rss_mb",
    "traced",
)


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: argparse.Namespace, trace: int, setup_only: bool, limit: float) -> dict:
    """Start one worker; return its result with ``setup_s`` filled in."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    killer = threading.Timer(max(limit, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode} ({' '.join(cmd[1:])})")
    result = json.loads(rest.splitlines()[-1]) if not setup_only else {}
    result["setup_s"] = setup_s
    return result


def source_fingerprint() -> str:
    """SHA-256 of partcat's source and of the queries and references run on it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "partcat").rglob("*.py")) + [HERE / "workloads.py", HERE / "reference.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced repetition; idle layers read 0."""
    out = {name: totals.get(name, 0) for name in PER_LAYER}
    gen_s, fusion = out["closure.generate_s"], out["closure.fusion_ops"]
    calls = out["closure.generate_calls"]
    out["closure.fusion_ops_per_s"] = fusion / gen_s if gen_s else 0.0
    out["closure.saturated_frac"] = totals.get("closure.saturated", 0) / calls if calls else 0.0
    out["closure.words_per_kfusion"] = out["closure.words"] / (fusion / 1000) if fusion else 0.0
    return out


def digest_of(counters: dict) -> str:
    return hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()[:16]


def earlier_digests(workload: str, fingerprint: str) -> dict[str, str]:
    """Counter digests of earlier runs of this workload on the same source."""
    out = {}
    for path in sorted(RESULTS.glob(f"{workload}-*.json")):
        try:
            old = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if old.get("provenance", {}).get("source_sha") == fingerprint and "counter_digest" in old:
            out[path.name] = old["counter_digest"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "partcat" / "__init__.py").is_file():
        print(f"no partcat source tree under {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    start = time.perf_counter()
    reps: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            elapsed = time.perf_counter() - start
            last = reps[-1]["elapsed"] if reps else 0.0
            if len(reps) >= MIN_REPS and elapsed + last > args.seconds:
                break
            if reps and elapsed + 1.5 * last > RUN_LIMIT_S:
                break
            trace = args.trace and len(reps) % 2 == 1
            rep = run_worker(args, int(trace), False, RUN_LIMIT_S - elapsed)
            rep["traced"] = bool(trace)
            rep["elapsed"] = time.perf_counter() - start - elapsed
            reps.append(rep)
            setups.append(rep["setup_s"])
            # set-up-only workers between the repetitions spread the
            # set-up samples over the run
            setups.append(run_worker(args, 0, True, 60)["setup_s"])
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(args, 0, True, 60)["setup_s"])
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 2
    load_after = os.getloadavg()

    timed = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    first = reps[0]
    errors = sorted({e for r in reps for e in r["errors"]})
    digests = [digest_of(r["counters"]) for r in reps]
    fingerprint = source_fingerprint()
    if len(set(digests)) > 1:
        errors.append(f"exact counters differ between repetitions: {digests}")
    mismatched = {
        name: d for name, d in earlier_digests(args.workload, fingerprint).items() if d != digests[0]
    }
    if mismatched:
        errors.append(f"exact counters differ from earlier runs of the same source: {sorted(mismatched)}")

    attempted = first["attempted"]
    unsettled = first["unsettled"]
    metrics: dict[str, dict] = {}
    if args.trace:
        per_rep = [layer_metrics(r["layers"]) for r in traced]
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(m[name] for m in per_rep), "unit": unit}
    else:
        values = {
            "ref_wall_s": statistics.median(r["ref_wall_s"] for r in timed),
            "ref_cpu_s": statistics.median(r["ref_cpu_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "settled_frac": (attempted - len(unsettled)) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}

    def listed(key: str) -> str:
        return ", ".join(f"{r[key]:.3f}" for r in timed)

    lines = [
        f"workload {args.workload}  seed {args.seed}  repetitions {len(timed)} untraced"
        + (f", {len(traced)} traced" if traced else ""),
        f"ref_wall_s per repetition: {listed('ref_wall_s')}",
        f"raw wall_s per repetition: {listed('wall_s')}",
        f"raw cpu_s per repetition: {listed('cpu_s')}",
        "calibration loop per repetition (median, ms): "
        + ", ".join(f"{r['calibration_s'] * 1000:.3f}" for r in timed),
        f"queries {attempted}, unsettled within budget {len(unsettled)}"
        f" (fail_frac {len(unsettled) / attempted:.4f}): {', '.join(unsettled) or '-'}",
        "wait time: none; one process answers the queries in a closed loop, with no queue or lock",
    ]
    overhead = None
    if traced:
        overhead = statistics.median(r["ref_wall_s"] for r in traced) - statistics.median(
            r["ref_wall_s"] for r in timed
        )
        lines.append(
            f"tracing overhead on ref_wall_s: {overhead:+.3f} s (traced median minus untraced median)"
        )
        idle = sorted({n.split(".")[0] for n in PER_LAYER} - {n.split(".")[0] for n in traced[0]["layers"]})
        lines.append(f"idle layers (no calls, reported as 0): {', '.join(idle) or '-'}")
    for e in errors[:20]:
        lines.append(f"ERROR {e}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")

    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted * len(reps),
        "failed": min(len(errors), attempted * len(reps)),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "why": first["why"],
        "result": result,
        "counter_digest": digests[0],
        "counters": first["counters"],
        "unsettled": unsettled,
        "errors": errors,
        "tracing_overhead_s": overhead,
        "spans": [r["spans"] for r in traced],
        "repetitions": [{k: r[k] for k in REP_FIELDS} for r in reps],
        "setup_samples": setups,
        "provenance": {
            "git_commit": git_commit(),
            "source_sha": fingerprint,
            "python": sys.version.split()[0],
            "numpy": first["numpy"],
            "nproc": nproc(),
            "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
            "load_before": load_before,
            "load_after": load_after,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fusion_caps": first["fusion_caps"],
        },
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    lines.append(f"result file: {out.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
