"""The four workloads: their queries, their timed execution and their checks.

Each workload has three parts:

* ``build(seed)`` makes the query list during set-up.  The seed reaches
  partcat only as inputs: it shuffles the order of the queries and seeds
  the sampled matrices of ``classical_rep``.
* ``run(queries, tracer, seed)`` answers the queries one after another (a
  closed loop with one client) through partcat's public functions and
  returns one :class:`Record` per query.  This is the timed section.
* ``check(records)`` compares the answers with references that partcat did
  not compute and returns the errors found, plus the exact counters of each
  query, which must repeat between runs of the same code.

Only public names of partcat are used, and nothing that the planned closure,
word and intertwiner rewrites delete; ``test_bench.py`` enforces this.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

import partcat
from partcat import catalog, linmap, moments, ops

import reference as ref

HULL_BUDGETS = (7, 14)
HULL_FUSION_CAP = 500_000
CLASSIFY_BUDGETS = (8, 16)
GCD_BUDGETS = (12, 24)
GCD_FUSION_CAP = 400_000
FUSION_CAPS = {
    "hull": HULL_FUSION_CAP,
    "classify": "classify_easy default",
    "classify-gcd": GCD_FUSION_CAP,
}

PROBES = ("crossing", "half-lib", "four-block", "singleton", "double-singleton", "positioner")

DICTIONARY = (
    ("S", linmap.KIND_SYMMETRIC),
    ("H", linmap.KIND_HYPEROCTAHEDRAL),
    ("B", linmap.KIND_BISTOCHASTIC),
    ("O", linmap.KIND_ORTHOGONAL),
)
NEGATIVE = DICTIONARY[:2]
SAMPLES = 20
FUNCTOR_DIMS = (2, 3)

COUNT_NAMES = ("O+", "S+", "B+", "B#+", "O", "B", "S", "O*")
COUNT_K_MAX = 9
LISTING_POINTS = 7
LAWS = {
    "shifted-semicircle": (moments.shifted_semicircular_spec, ("a",), 9),
    "shifted-circle": (moments.shifted_circular_spec, ("d", "d*"), 5),
    "shifted-real-gaussian": (moments.shifted_gaussian_spec, ("a",), 9),
}


@dataclass
class Record:
    """One answered query: its id, whether it settled within its budget,
    and the raw answer that the check reads."""

    id: str
    settled: bool
    data: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]
    run: Callable[[list, Any, int], list[Record]]
    check: Callable[[list[Record]], tuple[list[str], dict[str, Any]]]


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# hull: closure saturation of the 16 predicate categories


def build_hull(seed: int) -> list:
    probes = [(label, catalog.named_partition(label)) for label in PROBES]
    queries = [(name, partcat.CATALOG[name].generators, probes) for name in ref.ALL_NAMED]
    return shuffled(queries, seed)


def run_hull(queries: list, tracer, seed: int) -> list[Record]:
    records = []
    for qid, (name, gens, probes) in enumerate(queries):
        tracer.query = qid
        with tracer.span("closure.generate") as c:
            hull = partcat.generate_closure(gens, *HULL_BUDGETS, max_fusion_ops=HULL_FUSION_CAP)
            c.update(
                generate_calls=1,
                fusion_ops=hull.fusion_ops,
                words=len(hull.words),
                oversized_words=len(hull.oversized_words),
                saturated=int(hull.saturated),
            )
        with tracer.span("partition.dump") as c:
            lines = hull.dump_lines()
            c["dump_lines"] = len(lines)
        with tracer.span("closure.contains") as c:
            found = tuple(
                hull.contains(p) is partcat.Containment.CONFIRMED for _, p in probes
            )
            c["contains_calls"] = len(probes)
        data = {
            "fusion_ops": hull.fusion_ops,
            "words": hull.words,
            "oversized_words": len(hull.oversized_words),
            "saturated": hull.saturated,
            "dump": (len(lines), digest("\n".join(lines))),
            "probes": [(label, p, hit) for (label, p), hit in zip(probes, found)],
        }
        records.append(Record(name, hull.saturated, data))
    return records


def check_hull(records: list[Record]) -> tuple[list[str], dict[str, Any]]:
    errors, counters = [], {}
    for r in records:
        d = r.data
        saturated = d["saturated"]
        for k in range(HULL_BUDGETS[0] + 1):
            want = {p.word for p in catalog.enumerate_category(r.id, k)}
            got = {w for w in d["words"] if len(w) == k}
            if saturated and got != want:
                errors.append(f"hull {r.id}: {len(got)} words on {k} points, predicate has {len(want)}")
            if not got <= want:
                errors.append(f"hull {r.id}: {len(got - want)} non-members on {k} points")
        pred = catalog.category_predicate(r.id)
        for label, p, hit in d["probes"]:
            if hit and not pred(p):
                errors.append(f"hull {r.id}: non-member {label} confirmed")
            if saturated and pred(p) and not hit:
                errors.append(f"hull {r.id}: member {label} missing from a saturated hull")
        if d["dump"][0] != len(d["words"]):
            errors.append(f"hull {r.id}: {d['dump'][0]} dump lines for {len(d['words'])} words")
        counters[r.id] = {
            "fusion_ops": d["fusion_ops"],
            "words": len(d["words"]),
            "oversized_words": d["oversized_words"],
            "saturated": saturated,
            "dump_sha": d["dump"][1],
            "probes": [hit for _, _, hit in d["probes"]],
        }
    return errors, counters


# ---------------------------------------------------------------------------
# classify: the decision cascade with early stop on targets


def build_classify(seed: int) -> list:
    named = catalog.named_partition
    hl, fb = named("half-lib"), named("four-block")
    queries = [
        (name, partcat.CATALOG[name].generators, CLASSIFY_BUDGETS, {}, (ref.WORLD[name], name, None))
        for name in ref.ALL_NAMED
    ]
    series = ("Series", "H^(3)", 3), ("Series", "H^(4)", 4)
    queries.append(("H^(3)", (hl, fb, named("h", 3)), CLASSIFY_BUDGETS, {}, series[0]))
    queries.append(("H^(4)", (hl, fb, named("h", 4)), CLASSIFY_BUDGETS, {}, series[1]))
    gcd_gens = (hl, fb, named("h", 6), named("h", 9))
    queries.append(("gcd(6,9)", gcd_gens, GCD_BUDGETS, {"max_fusion_ops": GCD_FUSION_CAP}, series[0]))
    return shuffled(queries, seed)


def run_classify(queries: list, tracer, seed: int) -> list[Record]:
    records = []
    for qid, (label, gens, budgets, kwargs, expected) in enumerate(queries):
        tracer.query = qid
        with tracer.span("closure.classify") as c:
            result = partcat.classify_easy(gens, *budgets, **kwargs)
            c["classify_calls"] = 1
        records.append(Record(label, result.world != "Undetermined", (result, expected)))
    return records


def check_classify(records: list[Record]) -> tuple[list[str], dict[str, Any]]:
    errors, counters = [], {}
    for r in records:
        result, expected = r.data
        got = (result.world, result.category_name, result.series_parameter)
        if r.settled and got != expected:
            errors.append(f"classify {r.id}: got {got}, expected {expected}")
        counters[r.id] = result.lines()
    return errors, counters


# ---------------------------------------------------------------------------
# intertwine: the partition/relation dictionary and the functor law


def build_intertwine(seed: int) -> list:
    tables = [("+", name, kind, 3, 6) for name, kind in DICTIONARY]
    tables += [("-", name, kind, 4, 4) for name, kind in NEGATIVE]
    return tables


def run_intertwine(tables: list, tracer, seed: int) -> list[Record]:
    with tracer.span("ops.enumerate_all") as c:
        parts = [
            p
            for total in range(7)
            for k in range(total + 1)
            for p in ops.enumerate_all(k, total - k)
        ]
        c["enumerate_all_parts"] = len(parts)
    small = [p for p in parts if p.n_points <= 4]
    pairs = [
        ("functor", p, q, n)
        for n in FUNCTOR_DIMS
        for p in small
        for q in small
        if q.upper_count == p.lower_count
    ]
    # The tables come before the functor pairs, each phase in seeded order:
    # the functor checks fill partcat's T-matrix cache, so interleaving the
    # phases would make the peak memory depend on the seed.
    queries = shuffled([("table",) + t for t in tables], seed) + shuffled(pairs, seed)
    records = [Record("enumerate_all", True, len(parts))]
    for qid, query in enumerate(queries, start=1):
        tracer.query = qid
        if query[0] == "table":
            records.append(run_table(query[1:], parts, tracer, seed))
        else:
            records.append(run_functor(*query[1:], tracer))
    return records


def run_table(table: tuple, parts: list, tracer, seed: int) -> Record:
    direction, name, kind, n, max_points = table
    if direction == "+":
        with tracer.span("catalog.predicate") as c:
            pred = catalog.category_predicate(name)
            subjects = [p for p in parts if pred(p)]
            c["predicate_calls"] = len(parts)
    else:
        subjects = [p for p in parts if p.n_points <= max_points]
    with tracer.span("linmap.rep") as c:
        rep = linmap.classical_rep(kind, n, sample_count=SAMPLES, seed=seed)
        c["group_elements"] = len(rep.elements)
    t_bytes = sum(8 * n**p.n_points for p in subjects)
    with tracer.span("linmap.table") as c:
        table_out = linmap.intertwiner_table(rep, subjects)
        c.update(table_parts=len(subjects), t_bytes_computed=t_bytes)
    return Record(f"{direction}{name}/{kind}/n={n}", True, (direction, name, parts, table_out))


def run_functor(p, q, n: int, tracer) -> Record:
    with tracer.span("ops.category_ops") as c:
        composite = ops.compose(p, q)
        product = ops.tensor(p, q)
        flipped = (ops.involute(p), ops.involute(q))
        c["category_ops_calls"] = 4
    with tracer.span("linmap.functor") as c:
        holds = linmap.check_functor(p, q, n)
        c["functor_pairs"] = 1
    return Record(f"{p} ; {q} @ n={n}", True, (p, q, composite, product, flipped, holds))


def shape(p) -> tuple[int, int]:
    return (p.upper_count, p.lower_count)


def check_intertwine(records: list[Record]) -> tuple[list[str], dict[str, Any]]:
    errors, counters = [], {}
    functor_lines = []
    for r in records:
        if r.id == "enumerate_all":
            # all shapes up to 6 points: sum over n of (n + 1) * Bell(n)
            want = sum((n + 1) * ref.BELL[n] for n in range(7))
            if r.data != want:
                errors.append(f"enumerate_all: {r.data} partitions up to 6 points, expected {want}")
            counters[r.id] = r.data
        elif r.id[0] in "+-":
            errors += check_table(r)
            counters[r.id] = digest(
                "\n".join(sorted(f"{p} {int(ok)}" for p, ok in r.data[3].items()))
            )
        else:
            p, q, composite, product, flipped, holds = r.data
            if not holds:
                errors.append(f"functor law fails for {r.id}")
            shapes = (shape(composite.result), shape(product), shape(flipped[0]), shape(flipped[1]))
            want = (
                (p.upper_count, q.lower_count),
                (p.upper_count + q.upper_count, p.lower_count + q.lower_count),
                shape(p)[::-1],
                shape(q)[::-1],
            )
            if shapes != want:
                errors.append(f"category ops on {r.id}: shapes {shapes}, expected {want}")
            functor_lines.append(f"{r.id} loops={composite.removed_loops} {int(holds)}")
    counters["functor"] = (len(functor_lines), digest("\n".join(sorted(functor_lines))))
    return errors, counters


def check_table(r: Record) -> list[str]:
    direction, name, parts, table = r.data
    member = ref.MEMBER[name]
    errors = []
    if direction == "+":
        want = {p for p in parts if member(p)}
        if set(table) != want:
            errors.append(f"{r.id}: predicate selected {len(table)} members, reference {len(want)}")
    for p, ok in table.items():
        if ok != member(p):
            side = "member fails" if member(p) else "non-member passes"
            errors.append(f"{r.id}: {side}: {p}")
    return errors


# ---------------------------------------------------------------------------
# count: bulk enumeration of words, predicates and moment sums


def build_count(seed: int) -> list:
    queries = [("count", name) for name in COUNT_NAMES]
    queries += [("listing", name) for name in COUNT_NAMES]
    queries += [("cumulants", law) for law in LAWS]
    queries.append(("iter_words", "all"))
    return shuffled(queries, seed)


def run_count(queries: list, tracer, seed: int) -> list[Record]:
    records = []
    for qid, (kind, name) in enumerate(queries):
        tracer.query = qid
        if kind == "count":
            with tracer.span("moments.count") as c:
                values = tuple(moments.count_moments(name, COUNT_K_MAX))
                c["count_words"] = sum(
                    (ref.CATALAN if name in ref.FREE else ref.BELL)[k]
                    for k in range(1, COUNT_K_MAX + 1)
                )
        elif kind == "listing":
            with tracer.span("catalog.enumerate_category") as c:
                values = len(catalog.enumerate_category(name, LISTING_POINTS))
                c["enumerate_category_parts"] = values
        elif kind == "cumulants":
            make_spec, unit, k_max = LAWS[name]
            with tracer.span("moments.cumulants") as c:
                spec = make_spec()
                values = tuple(moments.moments_from_cumulants(spec, unit, k_max))
                table = ref.CATALAN if spec.kind == moments.FREE else ref.BELL
                c["cumulant_terms"] = sum(table[len(unit) * k] for k in range(1, k_max + 1))
        else:
            with tracer.span("ops.iter_words") as c:
                values = tuple(
                    sum(1 for _ in ops.iter_words(k)) for k in range(1, COUNT_K_MAX + 1)
                )
                c["iter_words_words"] = sum(values)
        records.append(Record(f"{kind}:{name}", True, values))
    return records


def check_count(records: list[Record]) -> tuple[list[str], dict[str, Any]]:
    errors, counters = [], {}
    for r in records:
        kind, name = r.id.split(":", 1)
        if kind == "count":
            want = ref.MOMENTS[name]
        elif kind == "listing":
            want = ref.MOMENTS[name][LISTING_POINTS - 1]
        elif kind == "cumulants":
            want = ref.CUMULANT_MOMENTS[name]
        else:
            want = ref.BELL[1 : COUNT_K_MAX + 1]
        if r.data != want:
            errors.append(f"{r.id}: got {r.data}, expected {want}")
        counters[r.id] = r.data
    return errors, counters


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hull",
            "Closure saturation of the 16 predicate categories at 7/14: the heaviest use of the "
            "closure pair loop; S+ and S stop at the fusion cap unsaturated.",
            build_hull,
            run_hull,
            check_hull,
        ),
        Workload(
            "classify",
            "The classification cascade: predicate-only answers, early stop on targets and "
            "membership lookups, and oversized intermediates at 12/24.",
            build_classify,
            run_classify,
            check_classify,
        ),
        Workload(
            "intertwine",
            "The partition/relation dictionary at n=3 and n=4 and the functor law: nearly all "
            "time in linmap, with no closure work.",
            build_intertwine,
            run_intertwine,
            check_intertwine,
        ),
        Workload(
            "count",
            "Bulk enumeration: words, predicates and moment sums up to 9 points, with no "
            "closure and no linmap work.",
            build_count,
            run_count,
            check_count,
        ),
    )
}
