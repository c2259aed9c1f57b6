"""Classification of generator sets against the named categories.

``classify_easy`` is the one classifier.  Where its answer is a free or a
classical name, that name is the least of the catalog's ruled names, under
its one inclusion order ``INCLUSIONS``, whose predicate every generator
satisfies: at once for a noncrossing generator set, and for the generators
plus the crossing once a bounded closure has found the crossing.  Everything
else is decided by the bounded closure (see :mod:`partcat.closure`), and
each conclusion that rests on it carries its budgets and its evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .catalog import (
    CATALOG,
    INCLUSIONS,
    RULED_NAMES,
    WORLD_HALF_LIBERATED,
    WORLD_SERIES,
    category_predicate,
    crossing,
    double_singleton,
    four_block,
    h_series,
    half_lib,
    series_entry,
)
from .closure import (
    DEFAULT_INTERMEDIATE_BUDGET,
    DEFAULT_MAX_FUSION_OPS,
    DEFAULT_POINT_BUDGET,
    Containment,
    check_budgets,
    check_fusion_cap,
    generate_closure,
)
from .errors import BadParamError
from .partition import Partition, canonical_text, is_noncrossing

WORLD_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Classification:
    world: str
    category_name: str | None
    series_parameter: int | None = None
    evidence: tuple[tuple[str, str], ...] = ()
    budgets: tuple[int, int] | None = None

    def lines(self) -> list[str]:
        out = [f"world: {self.world}", f"name: {self.category_name or '-'}"]
        if self.series_parameter is not None:
            out.append(f"series-parameter: {self.series_parameter}")
        if self.budgets is not None:
            out.append(f"budgets: {self.budgets[0]}/{self.budgets[1]}")
        for witness, reason in self.evidence:
            out.append(f"evidence: {witness} :: {reason}")
        return out


def _least_satisfied(generators: Sequence[Partition]) -> Classification:
    """The least ruled name under ``INCLUSIONS`` whose predicate every
    generator satisfies, in its own world; the evidence lists, for every
    generator, the satisfied names of that world.

    Noncrossing generators generate their least free name, and generators
    with the crossing their least classical name (the two classifications);
    every satisfied name, in any world, contains that category, so the least
    of all 16 is a free or a classical name.
    """
    satisfied = [
        name
        for name in RULED_NAMES
        if all(category_predicate(name)(g) for g in generators)
    ]
    least = [a for a in satisfied if all((a, b) in INCLUSIONS for b in satisfied)]
    if len(least) != 1:  # pragma: no cover - the lattice is intersection-closed
        raise AssertionError(f"no unique least category among {satisfied}")
    world = CATALOG[least[0]].world
    note = "satisfies " + ", ".join(n for n in satisfied if CATALOG[n].world == world)
    evidence = tuple((canonical_text(g), note) for g in generators)
    return Classification(world, least[0], evidence=evidence)


def classify_easy(
    generators: Sequence[Partition],
    point_budget: int = DEFAULT_POINT_BUDGET,
    intermediate_budget: int = DEFAULT_INTERMEDIATE_BUDGET,
    *,
    max_fusion_ops: int = DEFAULT_MAX_FUSION_OPS,
) -> Classification:
    """Decision cascade over all named worlds.

    Noncrossing generator sets are classified exactly.  Otherwise a bounded
    closure decides: crossing present -> classical; half-liberating diagram
    present -> one of the half-liberated names or the h-series (parameter =
    gcd of the visible series lengths).  A half-liberated name is given only
    if every generator satisfies that category's predicate; otherwise the
    answer is Undetermined.  Conclusions that rest on bounded search are
    budget-qualified in the evidence; Undetermined is a value, not an error.
    A negative ``max_fusion_ops`` or a bad budget is refused up front.
    """
    check_fusion_cap(max_fusion_ops)
    check_budgets(point_budget, intermediate_budget)
    gens = tuple(generators)
    if all(is_noncrossing(g) for g in gens):
        return _least_satisfied(gens)

    closure = generate_closure(
        gens,
        point_budget,
        intermediate_budget,
        stop_when=[crossing()],
        max_fusion_ops=max_fusion_ops,
    )
    missing = Containment.NOT_FOUND_WITHIN_BUDGET.value
    if not closure.saturated:
        missing += " (search stopped before saturation)"
    evidence: list[tuple[str, str]] = []

    def probe(p: Partition) -> bool:
        hit = closure.contains_word(p.word)
        evidence.append((canonical_text(p), Containment.CONFIRMED.value if hit else missing))
        return hit

    def result(world: str, name: str | None, series: int | None = None, more=()) -> Classification:
        if world == WORLD_HALF_LIBERATED:
            rule = category_predicate(name)
            failing = next((g for g in gens if not rule(g)), None)
            if failing is not None:
                evidence.append((canonical_text(failing), f"fails {name}"))
                world, name = WORLD_UNDETERMINED, None
        budgets = (point_budget, intermediate_budget)
        return Classification(world, name, series, tuple(evidence) + more, budgets)

    if probe(crossing()):
        base = _least_satisfied(gens + (crossing(),))
        return result(base.world, base.category_name, more=base.evidence)
    if not probe(half_lib()):
        return result(WORLD_UNDETERMINED, None)
    if not probe(four_block()):
        return result(WORLD_HALF_LIBERATED, "B#*" if probe(double_singleton()) else "O*")
    found = [t for t in range(3, point_budget // 2 + 1) if probe(h_series(t))]
    if found:
        g = math.gcd(*found)
        try:
            name = series_entry(g).name
        except BadParamError as exc:
            # h(1) and h(2) lead to the classical world, which the search did not reach
            evidence.append((canonical_text(h_series(g)), str(exc)))
            return result(WORLD_UNDETERMINED, None)
        return result(WORLD_SERIES, name, g)
    return result(WORLD_HALF_LIBERATED, "H*")
