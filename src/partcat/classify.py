"""Classification of generator sets against the named categories.

``classify_easy`` is the one classifier, with one rule for every world.  Its
upper bound L is the least name, under the one inclusion order
``catalog.included``, whose predicate every generator satisfies.  The
candidates are the 16 ruled names and ``H^(g)``, where g >= 3 is the gcd of
the block imbalances of all generators; every name but ``fatcross`` has a
rule.  Noncrossing generators generate L itself.  Otherwise a bounded
closure (see :mod:`partcat.closure`) looks for L's generators, or for the
crossing when L is classical, and the answer is L once it has found them
all; each conclusion that rests on it carries its budgets and its evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import Sequence

from .catalog import (
    RULED_NAMES,
    WORLD_CLASSICAL,
    WORLD_SERIES,
    block_marks,
    catalog_entry,
    category_predicate,
    crossing,
    included,
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


def _upper_bound(generators: Sequence[Partition]) -> tuple[str, int, tuple[tuple[str, str], ...]]:
    """L, the least name under ``included`` whose predicate every generator
    satisfies; g, the gcd of all block imbalances of all generators; and, for
    every generator, the satisfied names of L's world.

    The candidates are the 16 ruled names and ``H^(g)`` for g >= 3: every
    generator lies in ``H^(g)``, whose rule asks each block's imbalance to
    be a multiple of g.  The names are closed under intersection, so the
    least one is unique.
    """
    g = math.gcd(*(d for p in generators for d in map(sub, *block_marks(p.word))))
    candidates = RULED_NAMES + ((f"H^({g})",) if g >= 3 else ())
    satisfied = [n for n in candidates if all(map(category_predicate(n), generators))]
    least = [a for a in satisfied if all(included(a, b) for b in satisfied)]
    if len(least) != 1:  # pragma: no cover - the names are intersection-closed
        raise AssertionError(f"no unique least category among {satisfied}")
    world = catalog_entry(least[0]).world
    note = "satisfies " + ", ".join(n for n in satisfied if catalog_entry(n).world == world)
    return least[0], g, tuple((canonical_text(p), note) for p in generators)


def _stop_targets(name: str) -> tuple[Partition, ...]:
    """The partitions whose presence makes ``name`` the exact answer when it
    is the upper bound: the crossing for a classical name, since a category
    that holds the crossing is one of the six (Banica-Speicher), and the
    catalog generators of every other name."""
    entry = catalog_entry(name)
    return (crossing(),) if entry.world == WORLD_CLASSICAL else entry.generators


def classify_easy(
    generators: Sequence[Partition],
    point_budget: int = DEFAULT_POINT_BUDGET,
    intermediate_budget: int = DEFAULT_INTERMEDIATE_BUDGET,
    *,
    max_fusion_ops: int = DEFAULT_MAX_FUSION_OPS,
) -> Classification:
    """Classify the category the generators generate, between two bounds.

    The upper bound L is the least name whose predicate every generator
    satisfies (a ruled name, or ``H^(g)`` with the gcd g of the block
    imbalances).  Noncrossing generator sets generate L, so the answer is L
    at once.  Otherwise a bounded closure runs until it finds the stop
    targets of L (``_stop_targets``): if it finds them all, the answer is L
    (with series parameter g for ``H^(g)``), and the evidence confirms each
    target and gives, for each generator, the names of L's world that it
    satisfies.  If not, the answer is Undetermined, and its evidence lists
    each missing target and one line that names L as the upper bound.
    Conclusions that rest on bounded search carry their budgets;
    Undetermined is a value, not an error.  A negative ``max_fusion_ops`` or
    a bad budget is refused up front.
    """
    check_fusion_cap(max_fusion_ops)
    check_budgets(point_budget, intermediate_budget)
    gens = tuple(generators)
    name, g, upper = _upper_bound(gens)
    world = catalog_entry(name).world
    if all(is_noncrossing(p) for p in gens):
        return Classification(world, name, evidence=upper)

    targets = _stop_targets(name)
    closure = generate_closure(
        gens,
        point_budget,
        intermediate_budget,
        stop_when=targets,
        max_fusion_ops=max_fusion_ops,
    )
    confirmed = Containment.CONFIRMED.value
    missing = Containment.NOT_FOUND_WITHIN_BUDGET.value
    if not closure.saturated:
        missing += " (search stopped before saturation)"
    absent = tuple(
        (canonical_text(t), missing) for t in targets if not closure.contains_word(t.word)
    )
    budgets = (point_budget, intermediate_budget)
    if absent:
        evidence = absent + ((name, "upper bound"),)
        return Classification(WORLD_UNDETERMINED, None, evidence=evidence, budgets=budgets)
    lower = tuple((canonical_text(t), confirmed) for t in targets)
    series = g if world == WORLD_SERIES else None
    return Classification(world, name, series, lower + upper, budgets)
