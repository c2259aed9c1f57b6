"""The acceptance suite: one callable per criterion, shared by tests and CLI.

Each criterion function returns a :class:`CriterionResult`; ``run_all`` runs
the whole battery.  Every check here is exact (set equality, integer
equality) except the float tolerance baked into the sampled representations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import catalog as cat
from . import linmap as lm
from . import moments as mo
from .classify import classify_easy, classify_noncrossing
from .closure import ClosureSet, Containment, generate_closure
from .ops import enumerate_upto
from .partition import Partition


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    seconds: float
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number:2d}  {self.title}  ({self.seconds:.1f}s)"


def _result(number: int, title: str, t0: float, failures: list[str]) -> CriterionResult:
    return CriterionResult(
        number=number,
        title=title,
        passed=not failures,
        seconds=time.time() - t0,
        details=failures,
    )


def _closure_equals_predicate(name: str, closure: ClosureSet) -> list[str]:
    """Failures unless the closure saturated and equals the predicate set at
    every point count up to its point budget."""
    failures = []
    if not closure.saturated:
        failures.append(f"{name}: closure did not saturate")
    for k in range(1, closure.point_budget + 1):
        want = {p.word for p in cat.enumerate_category(name, k)}
        got = {w for w in closure.words if len(w) == k}
        if want != got:
            failures.append(
                f"{name} at {k} points: predicate {len(want)} vs closure {len(got)}"
            )
    return failures


def criterion_1() -> CriterionResult:
    """Closure of the stated generators equals the predicate set, 7 free categories."""
    t0 = time.time()
    failures = []
    for name in cat.FREE_NAMES:
        closure = generate_closure(cat.catalog_entry(name).generators, 8, 16)
        failures += _closure_equals_predicate(name, closure)
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    return _result(1, "seven-category closure/predicate equivalence", t0, failures)


_LATTICE_EXPECTED = {
    (): "O+",
    ("s",): "B+",
    ("ss",): "B#+",
    ("fb",): "H+",
    ("pos",): "B'+",
    ("s", "ss"): "B+",
    ("s", "fb"): "S+",
    ("s", "pos"): "B+",
    ("ss", "fb"): "S'+",
    ("ss", "pos"): "B'+",
    ("fb", "pos"): "S'+",
    ("s", "ss", "fb"): "S+",
    ("s", "ss", "pos"): "B+",
    ("s", "fb", "pos"): "S+",
    ("ss", "fb", "pos"): "S'+",
    ("s", "ss", "fb", "pos"): "S+",
}


def _fingerprint_name(has_s: bool, has_ss: bool, has_fb: bool, has_pos: bool) -> str:
    # the case analysis behind the seven-category theorem
    if has_s:
        return "S+" if has_fb else "B+"
    if not has_ss:
        return "H+" if has_fb else "O+"
    if has_fb:
        return "S'+"
    return "B'+" if has_pos else "B#+"


def criterion_2() -> CriterionResult:
    """Lattice classification of all 16 generator subsets, fingerprint-checked."""
    t0 = time.time()
    probes = {
        "s": cat.singleton(),
        "ss": cat.double_singleton(),
        "fb": cat.four_block(),
        "pos": cat.positioner(),
    }
    failures = []
    for labels, expected in _LATTICE_EXPECTED.items():
        gens = [probes[x] for x in labels]
        got = classify_noncrossing(gens).category_name
        if got != expected:
            failures.append(f"{labels}: classified {got}, expected {expected}")
            continue
        # early exit is sound only when every probe is confirmed; an absent
        # probe forces the run to saturation before it may be trusted
        closure = generate_closure(gens, 8, 16, stop_when=list(probes.values()))
        fp = tuple(
            closure.contains(probes[x]) is Containment.CONFIRMED
            for x in ("s", "ss", "fb", "pos")
        )
        predicted = _fingerprint_name(*fp)
        if not closure.saturated and not all(fp):
            failures.append(f"{labels}: fingerprint closure did not saturate")
        if predicted != expected:
            failures.append(f"{labels}: fingerprint gives {predicted}, expected {expected}")
    return _result(2, "16-subset lattice classification with closure fingerprints", t0, failures)


def criterion_3() -> CriterionResult:
    """Closure/predicate equivalence for the six classical categories, k <= 6."""
    t0 = time.time()
    failures = []
    for name in cat.CLASSICAL_NAMES:
        closure = generate_closure(cat.catalog_entry(name).generators, 6, 12)
        failures += _closure_equals_predicate(name, closure)
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 120s budget")
    return _result(3, "classical six closure/predicate equivalence", t0, failures)


def criterion_4() -> CriterionResult:
    """Half-liberated categories: closure equality, crossing excluded, half-lib inside."""
    t0 = time.time()
    failures = []
    for name in cat.HALF_LIBERATED_NAMES:
        closure = generate_closure(cat.catalog_entry(name).generators, 6, 12)
        failures += _closure_equals_predicate(name, closure)
        pred = cat.category_predicate(name)
        if pred(cat.crossing()):
            failures.append(f"{name}: predicate wrongly accepts the crossing partition")
        if closure.contains(cat.half_lib()) is not Containment.CONFIRMED:
            failures.append(f"{name}: half-liberating partition not confirmed in closure")
        if closure.contains(cat.crossing()) is Containment.CONFIRMED:
            failures.append(f"{name}: crossing partition wrongly generated")
    return _result(4, "half-liberated closure/predicate equivalence and separations", t0, failures)


_THIRTEEN = (
    "O", "O*", "O+",
    "S", "S+",
    "B", "B+",
    "S'", "S'+",
    "B'", "B'+",
    "B#*", "B#+",
)

def _confirmed_only(result, needed: list[Partition]) -> list[str]:
    texts = {w for w, note in result.evidence if note == Containment.CONFIRMED.value}
    return [str(p) for p in needed if str(p) not in texts]


def criterion_5() -> CriterionResult:
    """classify_easy names each of the 13 nonhyperoctahedral categories; series gcd."""
    t0 = time.time()
    failures = []
    for name in _THIRTEEN:
        res = classify_easy(cat.catalog_entry(name).generators)
        if res.category_name != name or res.world != cat.CATALOG[name].world:
            failures.append(f"{name}: classified as {res.world}/{res.category_name}")
    hl, fb = cat.half_lib(), cat.four_block()
    res = classify_easy([hl, fb, cat.h_series(3)])
    if (res.world, res.series_parameter) != ("Series", 3):
        failures.append(f"series generators: got {res.world}/{res.category_name}")
    else:
        failures += [
            f"series: membership of {t} not Confirmed"
            for t in _confirmed_only(res, [hl, fb, cat.h_series(3)])
        ]
    res = classify_easy([hl, fb, cat.h_series(6), cat.h_series(9)], 12, 24,
                        max_fusion_ops=400_000)
    if (res.world, res.series_parameter) != ("Series", 3):
        failures.append(f"gcd generators: got {res.world}/{res.category_name}")
    else:
        failures += [
            f"gcd case: membership of {t} not Confirmed"
            for t in _confirmed_only(res, [hl, fb, cat.h_series(3), cat.h_series(6)])
        ]
    return _result(5, "13 nonhyperoctahedral names and the series gcd rule", t0, failures)


def _expected_counts(name: str) -> list[int]:
    even = {
        "O+": mo.CATALAN,
        "B#+": mo.B_FORMULA,
        "O": mo.DOUBLE_FACTORIAL,
        "O*": mo.FACTORIAL,
    }
    full = {"S+": mo.CATALAN, "B+": mo.MOTZKIN, "B": mo.INVOLUTIONS, "S": mo.BELL}
    if name in full:
        return [mo.closed_form(full[name], k) for k in range(1, 9)]
    seq = even[name]
    return [0 if k % 2 else mo.closed_form(seq, k // 2) for k in range(1, 9)]


def criterion_6() -> CriterionResult:
    """Character-law moment counts match their closed forms, k <= 8."""
    t0 = time.time()
    failures = []
    for name in ("O+", "S+", "B+", "B#+", "O", "B", "S", "O*"):
        got = list(mo.count_moments(name, 8))
        want = _expected_counts(name)
        if got != want:
            failures.append(f"{name}: counted {got}, closed form {want}")
    return _result(6, "character-law counts match closed forms", t0, failures)


def criterion_7() -> CriterionResult:
    """Squared Fuss-Catalan generating series reproduces the b_k sequence."""
    t0 = time.time()
    failures = []
    squared = mo.poly_square(mo.fuss_catalan_series(6))[:7]
    want = tuple(mo.closed_form(mo.B_FORMULA, k) for k in range(7))
    if squared != want:
        failures.append(f"g^2 coefficients {squared} != b_k {want}")
    return _result(7, "Fuss-Catalan generating-function identity", t0, failures)


def criterion_8() -> CriterionResult:
    """Count sequences equal the matching moment-cumulant sums, k <= 8."""
    t0 = time.time()
    failures = []
    b_plus = mo.count_moments("B+", 8)
    checks = [
        (
            "blocks<=2 counts vs shifted-semicircle cumulants",
            list(b_plus),
            list(mo.moments_from_cumulants(mo.shifted_semicircular_spec(), ("a",), 8)),
        ),
        (
            "balanced-pair counts vs squeezed shifted-circle moments",
            list(mo.count_moments("B#+", 8)),
            list(mo.squeeze(mo.moments_from_cumulants(mo.shifted_circular_spec(), ("d", "d*"), 4))),
        ),
        (
            "even-singleton counts vs symmetrized blocks<=2 counts",
            list(mo.count_moments("B'+", 8)),
            list(mo.symmetrize(b_plus)),
        ),
        (
            "classical blocks<=2 counts vs shifted-Gaussian cumulants",
            list(mo.count_moments("B", 8)),
            list(mo.moments_from_cumulants(mo.shifted_gaussian_spec(), ("a",), 8)),
        ),
    ]
    for label, lhs, rhs in checks:
        if lhs != rhs:
            failures.append(f"{label}: {lhs} != {rhs}")
    return _result(8, "moment-cumulant count identities", t0, failures)


_DICTIONARY = (
    ("S", lm.KIND_SYMMETRIC),
    ("H", lm.KIND_HYPEROCTAHEDRAL),
    ("B", lm.KIND_BISTOCHASTIC),
    ("O", lm.KIND_ORTHOGONAL),
)


def criterion_9(seed: int = 0) -> CriterionResult:
    """Partition/relation dictionary against concrete groups.

    Positive direction at n=3 for p up to 6 points; negative direction at
    n=4 for p up to 4 points over the exact kinds.
    """
    t0 = time.time()
    failures = []
    upto6 = enumerate_upto(6)
    for name, kind in _DICTIONARY:
        pred = cat.category_predicate(name)
        members = [p for p in upto6 if pred(p)]
        rep = lm.classical_rep(kind, 3, sample_count=20, seed=seed)
        table = lm.intertwiner_table(rep, members)
        bad = [p for p, ok in table.items() if not ok]
        if bad:
            failures.append(f"{name}/{kind}: {len(bad)} members fail, e.g. {bad[0]}")
    upto4 = enumerate_upto(4)
    for name, kind in (("S", lm.KIND_SYMMETRIC), ("H", lm.KIND_HYPEROCTAHEDRAL)):
        pred = cat.category_predicate(name)
        nonmembers = [p for p in upto4 if not pred(p)]
        rep = lm.classical_rep(kind, 4)
        table = lm.intertwiner_table(rep, nonmembers)
        bad = [p for p, ok in table.items() if ok]
        if bad:
            failures.append(f"{name}/{kind}: {len(bad)} non-members pass, e.g. {bad[0]}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 120s budget")
    return _result(9, "intertwiner dictionary, positive and negative directions", t0, failures)


def criterion_10() -> CriterionResult:
    """T_q T_p = n^loops T_{composite} for all composable pairs up to 4 points each."""
    t0 = time.time()
    failures = []
    upto4 = enumerate_upto(4)
    by_upper: dict[int, list[Partition]] = {}
    for q in upto4:
        by_upper.setdefault(q.upper_count, []).append(q)
    checked = 0
    for n in (2, 3):
        for p in upto4:
            for q in by_upper.get(p.lower_count, ()):
                checked += 1
                if not lm.check_functor(p, q, n):
                    failures.append(f"functor identity fails for {p} ; {q} at n={n}")
    if checked == 0:
        failures.append("no composable pairs were checked")
    return _result(10, f"functor law on {checked} composable pairs", t0, failures)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if fn is criterion_9:
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results


def format_report(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    for r in results:
        for d in r.details:
            lines.append(f"      {r.number}: {d}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
