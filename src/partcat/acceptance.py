"""The acceptance suite: one callable per criterion, shared by tests and CLI.

Each criterion returns a :class:`CriterionResult` from ``_result``, the one
runner: it times the criterion and fails it past the budget given at the
call, 60 s for criterion 1 and 120 s for criteria 3 and 9.  The one world
check, ``_world_closures``, tests that catalog generators close to exactly
the member words.  ``run_all`` runs the whole battery.  Every check here is
exact: set equality, integer equality, and int64 ``==`` on the generators of
the concrete groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import catalog as cat
from . import linmap as lm
from . import moments as mo
from .classify import classify_easy
from .closure import DEFAULT_MAX_FUSION_OPS, ClosureSet, Containment, generate_closure
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


def _result(
    number: int, title: str, t0: float, failures: list[str], budget_s: int | None = None
) -> CriterionResult:
    """The criterion's result; running past ``budget_s`` seconds is a failure."""
    seconds = time.perf_counter() - t0
    if budget_s is not None and seconds > budget_s:
        failures.append(f"runtime {seconds:.1f}s exceeds the {budget_s}s budget")
    return CriterionResult(number, title, not failures, seconds, failures)


def _world_closures(
    names: tuple[str, ...], budget: int, ibudget: int
) -> tuple[dict[str, ClosureSet], list[str]]:
    """Each name's closure of its catalog generators, and failures unless each
    saturated and has exactly the member words at every k up to ``budget``."""
    closures, failures = {}, []
    for name in names:
        gens = cat.catalog_entry(name).generators
        closure = closures[name] = generate_closure(gens, budget, ibudget)
        if not closure.saturated:
            failures.append(f"{name}: closure did not saturate")
        for k in range(1, budget + 1):
            want = set(cat.member_words(name, k))
            got = {w for w in closure.words if len(w) == k}
            if want != got:
                failures.append(
                    f"{name} at {k} points: predicate {len(want)} vs closure {len(got)}"
                )
    return closures, failures


def criterion_1() -> CriterionResult:
    """Closure of the stated generators equals the predicate set, 7 free categories."""
    t0 = time.perf_counter()
    _, failures = _world_closures(cat.FREE_NAMES, 8, 16)
    return _result(1, "seven-category closure/predicate equivalence", t0, failures, budget_s=60)


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
    t0 = time.perf_counter()
    probes = {
        "s": cat.singleton(),
        "ss": cat.double_singleton(),
        "fb": cat.four_block(),
        "pos": cat.positioner(),
    }
    failures = []
    for labels, expected in _LATTICE_EXPECTED.items():
        gens = [probes[x] for x in labels]
        got = classify_easy(gens).category_name
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
    t0 = time.perf_counter()
    _, failures = _world_closures(cat.CLASSICAL_NAMES, 6, 12)
    return _result(3, "classical six closure/predicate equivalence", t0, failures, budget_s=120)


def criterion_4() -> CriterionResult:
    """Half-liberated categories: closure equality, crossing excluded, half-lib inside."""
    t0 = time.perf_counter()
    closures, failures = _world_closures(cat.HALF_LIBERATED_NAMES, 6, 12)
    for name, closure in closures.items():
        if cat.category_predicate(name)(cat.crossing()):
            failures.append(f"{name}: predicate wrongly accepts the crossing partition")
        if closure.contains(cat.half_lib()) is not Containment.CONFIRMED:
            failures.append(f"{name}: half-liberating partition not confirmed in closure")
        if closure.contains(cat.crossing()) is Containment.CONFIRMED:
            failures.append(f"{name}: crossing partition wrongly generated")
    return _result(4, "half-liberated closure/predicate equivalence and separations", t0, failures)


# a ruled name is hyperoctahedral when its rule admits the four-block but
# not the double singleton
_THIRTEEN = tuple(
    name
    for name in cat.RULED_NAMES
    if not cat.category_predicate(name)(cat.four_block())
    or cat.category_predicate(name)(cat.double_singleton())
)


def criterion_5() -> CriterionResult:
    """classify_easy names each of the 13 nonhyperoctahedral categories; series gcd."""
    t0 = time.perf_counter()
    failures = []
    for name in _THIRTEEN:
        res = classify_easy(cat.catalog_entry(name).generators)
        if res.category_name != name or res.world != cat.CATALOG[name].world:
            failures.append(f"{name}: classified as {res.world}/{res.category_name}")
    hl, fb, h = cat.half_lib(), cat.four_block(), cat.h_series
    # label, generators, budgets and fusion cap, and the series parameter s
    # of the answer; its generators, those of H^(s), must be Confirmed
    for label, gens, budgets, cap, s in (
        ("series", (hl, fb, h(3)), (8, 16), DEFAULT_MAX_FUSION_OPS, 3),
        ("gcd", (hl, fb, h(6), h(9)), (12, 24), 400_000, 3),
        ("h(6)", (hl, fb, h(6)), (8, 16), DEFAULT_MAX_FUSION_OPS, 6),
        ("no four-block", (hl, h(4)), (6, 12), DEFAULT_MAX_FUSION_OPS, 4),
    ):
        res = classify_easy(gens, *budgets, max_fusion_ops=cap)
        confirmed = {w for w, note in res.evidence if note == Containment.CONFIRMED.value}
        if (res.world, res.series_parameter) != ("Series", s):
            failures.append(f"{label} generators: got {res.world}/{res.category_name}")
        else:
            failures += [
                f"{label}: membership of {p} not Confirmed"
                for p in cat.series_entry(s).generators if str(p) not in confirmed
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
    t0 = time.perf_counter()
    failures = []
    for name in ("O+", "S+", "B+", "B#+", "O", "B", "S", "O*"):
        got = list(mo.count_moments(name, 8))
        want = _expected_counts(name)
        if got != want:
            failures.append(f"{name}: counted {got}, closed form {want}")
    return _result(6, "character-law counts match closed forms", t0, failures)


def criterion_7() -> CriterionResult:
    """Squared Fuss-Catalan generating series reproduces the b_k sequence."""
    t0 = time.perf_counter()
    failures = []
    squared = mo.poly_square(mo.fuss_catalan_series(6))[:7]
    want = tuple(mo.closed_form(mo.B_FORMULA, k) for k in range(7))
    if squared != want:
        failures.append(f"g^2 coefficients {squared} != b_k {want}")
    return _result(7, "Fuss-Catalan generating-function identity", t0, failures)


def criterion_8() -> CriterionResult:
    """Count sequences equal the matching moment-cumulant sums, k <= 8."""
    t0 = time.perf_counter()
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


# name, kind, n, points, and whether members must pass or non-members fail
_DICTIONARY = (
    ("S", lm.KIND_SYMMETRIC, 3, 6, True),
    ("H", lm.KIND_HYPEROCTAHEDRAL, 3, 6, True),
    ("B", lm.KIND_BISTOCHASTIC, 3, 6, True),
    ("O", lm.KIND_ORTHOGONAL, 3, 6, True),
    ("S", lm.KIND_SYMMETRIC, 4, 4, False),
    ("H", lm.KIND_HYPEROCTAHEDRAL, 4, 4, False),
    ("O", lm.KIND_ORTHOGONAL, 4, 4, False),
    ("B", lm.KIND_BISTOCHASTIC, 4, 4, False),
)


def criterion_9() -> CriterionResult:
    """Partition/relation dictionary against concrete groups.

    Positive direction at n=3 for p up to 6 points; negative direction at
    n=4 for p up to 4 points; all four groups both ways.
    """
    t0 = time.perf_counter()
    failures = []
    listings = {points: enumerate_upto(points) for points in (6, 4)}
    for name, kind, n, points, members in _DICTIONARY:
        pred = cat.category_predicate(name)
        rep = lm.classical_rep(kind, n)
        table = lm.intertwiner_table(rep, [p for p in listings[points] if pred(p) == members])
        bad = [p for p, ok in table.items() if ok != members]
        if bad:
            what = "members fail" if members else "non-members pass"
            failures.append(f"{name}/{kind}: {len(bad)} {what}, e.g. {bad[0]}")
    title = "intertwiner dictionary, positive and negative directions"
    return _result(9, title, t0, failures, budget_s=120)


def criterion_10() -> CriterionResult:
    """T_q T_p = n^loops T_{composite} for all composable pairs up to 4 points each."""
    t0 = time.perf_counter()
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


def run_all() -> list[CriterionResult]:
    """Every criterion in turn."""
    return [fn() for fn in ALL_CRITERIA]


def format_report(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    for r in results:
        for d in r.details:
            lines.append(f"      {r.number}: {d}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
