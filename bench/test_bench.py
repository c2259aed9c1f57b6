"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import ast
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Names the planned closure, word and intertwiner rewrites delete.  The
# benchmark must run unchanged against those rewrites, so it may not use them.
DOOMED = {
    "fusion_min",
    "closure_contains",
    "check_intertwiner",
    "kron_power",
    "t_matrix_cached",
    "acceptance",
}


def identifiers(tree: ast.AST):
    """(identifier, node) for every name, attribute, import, keyword and def."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node
            if node.asname:
                yield node.asname, node
        elif isinstance(node, ast.ImportFrom) and node.module:
            for part in node.module.split("."):
                yield part, node
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.arg):
            yield node.arg, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in DOOMED:
                yield node.value, node


def benchmark_sources() -> list[Path]:
    return [p for p in sorted(HERE.glob("*.py")) if p.name != Path(__file__).name]


def test_benchmark_uses_public_partcat_api_only():
    bad = []
    for path in benchmark_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, node in identifiers(tree):
            dunder = name.startswith("__") and name.endswith("__")
            private = name.startswith("_") and not dunder and name != "_"
            # ClosureSet.elements goes away; GroupRep.elements (``rep``) stays
            closure_elements = (
                name == "elements"
                and not (isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "rep")
            )
            if private or name in DOOMED or name == "_T_CACHE" or closure_elements:
                bad.append(f"{path.name}:{node.lineno}: {name}")
    assert not bad, "benchmark uses private or doomed partcat names:\n" + "\n".join(bad)


def test_public_api_rule_catches_violations():
    snippet = (
        "from partcat.closure import closure_contains\n"
        "generate_closure(g, fusion_min=4)\n"
        "hull.elements\n"
        "linmap._T_CACHE.clear()\n"
    )
    found = {name for name, _ in identifiers(ast.parse(snippet))}
    assert {"closure_contains", "fusion_min", "elements", "_T_CACHE"} <= found


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("closure.classify") as c:
        c["classify_calls"] = 1
        with tr.span("partition.dump") as d:
            d["dump_lines"] = 3
    outer, inner = tr.spans
    assert inner.parent == 0 and outer.parent is None
    own = tr.self_times()
    assert abs(own[0] - ((outer.end - outer.start) - (inner.end - inner.start))) < 1e-9
    totals = tr.totals()
    assert totals["closure.classify_calls"] == 1 and totals["partition.dump_lines"] == 3
    assert set(totals) >= {"closure.classify_s", "partition.dump_s"}


def test_null_tracer_records_nothing():
    tr = NullTracer()
    with tr.span("closure.generate") as c:
        c["fusion_ops"] = 5
    assert tr.totals() == {}


def set_partitions(n: int):
    """All set partitions of range(n) as block lists, without partcat."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        yield rest + [[n - 1]]
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n - 1]] + rest[i + 1 :]


def crossing(blocks) -> bool:
    label = {x: b for b, block in enumerate(blocks) for x in block}
    pts = sorted(label)
    return any(
        label[a] == label[c] != label[b] == label[d]
        for a in pts for b in pts for c in pts for d in pts
        if a < b < c < d
    )


def test_reference_sequences_match_brute_force():
    for n in range(8):
        parts = list(set_partitions(n))
        nc = [p for p in parts if not crossing(p)]
        assert len(parts) == ref.BELL[n]
        assert len(nc) == ref.CATALAN[n]
        assert sum(all(len(b) <= 2 for b in p) for p in nc) == ref.MOTZKIN[n]
        assert sum(all(len(b) <= 2 for b in p) for p in parts) == ref.INVOLUTIONS[n]


def test_reference_tables_agree_with_each_other():
    assert ref.MOMENTS["S"] == ref.BELL[1:10]
    assert ref.MOMENTS["S+"] == ref.CATALAN[1:10]
    assert ref.MOMENTS["B+"] == ref.MOTZKIN[1:10] == ref.CUMULANT_MOMENTS["shifted-semicircle"]
    assert ref.MOMENTS["B"] == ref.INVOLUTIONS[1:10] == ref.CUMULANT_MOMENTS["shifted-real-gaussian"]
    assert ref.MOMENTS["O+"][1::2] == ref.CATALAN[1:5]
    assert ref.MOMENTS["B#+"][1::2] == ref.CUMULANT_MOMENTS["shifted-circle"][:4]
    for name in ("O+", "B#+", "O", "O*"):
        assert not any(ref.MOMENTS[name][0::2])
    assert set(ref.WORLD) == set(ref.ALL_NAMED) and len(ref.ALL_NAMED) == 16


def test_benchmark_json_matches_the_script():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_clock_rescales_by_the_calibration():
    import clock

    def spin(seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with clock.ReferenceClock() as c:
        spin(0.3)
    assert len(c.calibrations) >= 5
    # the spin ends 0.3 s after it starts; the loops inside it are left out
    assert abs(c.wall_s + sum(c.calibrations[1:-1]) - 0.3) < 0.02
    # every slice is rescaled by the calibration at its ends, so the ratio
    # lies between the extremes of the calibration times
    ratio = c.ref_wall_s / c.wall_s
    assert clock.REFERENCE_CAL_S / max(c.calibrations) <= ratio * (1 + 1e-9)
    assert ratio <= clock.REFERENCE_CAL_S / min(c.calibrations) * (1 + 1e-9)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
