"""Bounded categorial hulls of generator sets.

The engine works on boundary words (see ``Partition.word``): every partition
rotates to a one-row normal form, rotations become cyclic shifts of the word
and involution becomes reversal.  Tensor product and composition both become
one move, ``glue(a, b, c)`` from :mod:`partcat.partition`: join the last
``c`` points of ``a`` to the first ``c`` points of ``b`` and drop them
(``c = 0`` concatenates).  A cap contracts two cyclically adjacent points of
one word.

The worklist of :func:`generate_closure` keeps three invariants:

* the stored word set is closed under shifts, reversal and cap contraction,
  so membership of an arbitrary two-row partition is a single word lookup;
* the queue holds one representative per orbit under shifts and reversal,
  the least word of the orbit;
* each pair of representatives is glued once per rotation pair, at the one
  width whose result just fits the point budget.  Wider glues are cap
  contractions of that result, and gluing in the other order gives a cyclic
  shift of a glue already made.

A bounded closure is a *lower bound* of the true category restricted to the
point budget: every stored word is honestly derivable from the generators,
but absence only means "not found within budget".  ``saturated`` reports
whether the engine reached a fixed point of its move set before any early
stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError
from .partition import (
    Partition,
    Word,
    canonical_text,
    glue,
    normalize_word,
    partition_from_word,
)

DEFAULT_POINT_BUDGET = 8
DEFAULT_INTERMEDIATE_BUDGET = 16


def _rotations(w: Word) -> list[Word]:
    """The distinct cyclic shifts of w, sorted."""
    return sorted({normalize_word(w[i:] + w[:i]) for i in range(max(1, len(w)))})


def _orbit(w: Word) -> tuple[list[Word], list[Word]]:
    """The orbit of w under shifts and reversal, and the rotations of its
    least word (the representative), both sorted."""
    turns, mirrored = _rotations(w), _rotations(w[::-1])
    orbit = sorted(set(turns) | set(mirrored))
    return (turns if turns[0] <= mirrored[0] else mirrored), orbit


def _contract(w: Word, i: int) -> Word:
    """Glue cyclically adjacent points i and i+1 (a cap): drop both, merge
    their blocks.  For i = len(w) - 1 the last point meets the first."""
    j = (i + 1) % len(w)
    a, b = w[i], w[j]
    rest = w[:i] + w[i + 2 :] if j else w[1:i]
    if a != b:
        rest = tuple(a if x == b else x for x in rest)
    return normalize_word(rest)


class Containment(Enum):
    CONFIRMED = "Confirmed"
    NOT_FOUND_WITHIN_BUDGET = "NotFoundWithinBudget"


@dataclass(frozen=True)
class ClosureSet:
    """Bounded hull of a generator set, stored as boundary words."""

    generators: tuple[Partition, ...]
    point_budget: int
    intermediate_budget: int
    words: frozenset[Word]
    oversized_words: frozenset[Word]
    saturated: bool
    fusion_ops: int

    def contains_word(self, w: Word) -> bool:
        return w in self.words or w in self.oversized_words

    def contains(self, p: Partition) -> Containment:
        if p.n_points > self.intermediate_budget:
            raise BudgetError(
                f"{p.n_points} points exceeds the intermediate budget "
                f"{self.intermediate_budget}"
            )
        return (
            Containment.CONFIRMED
            if self.contains_word(p.word)
            else Containment.NOT_FOUND_WITHIN_BUDGET
        )

    def members(self, upper_count: int, lower_count: int) -> list[Partition]:
        """All stored elements of shape P(upper_count, lower_count)."""
        n = upper_count + lower_count
        found = [
            partition_from_word(w, upper_count, lower_count)
            for w in self.words
            if len(w) == n
        ]
        found.sort(key=str)
        return found

    def element_partitions(self) -> list[Partition]:
        """The one-row forms of all stored elements, sorted by text."""
        out = [partition_from_word(w) for w in self.words]
        out.sort(key=str)
        return out

    def dump_lines(self) -> list[str]:
        return [canonical_text(p) for p in self.element_partitions()]


def generate_closure(
    generators: Sequence[Partition],
    point_budget: int = DEFAULT_POINT_BUDGET,
    intermediate_budget: int = DEFAULT_INTERMEDIATE_BUDGET,
    *,
    stop_when: Iterable[Partition] | None = None,
    max_fusion_ops: int | None = None,
) -> ClosureSet:
    """Worklist fixed point of the category moves, bounded by the budgets.

    Seeds are the generators plus the pair partition (the unit partition has
    the same boundary word).  A new word is stored with its whole orbit under
    shifts and reversal; the least word of the orbit, its representative, is
    queued and at once contracted at every cyclic position, depth first,
    before any pairing.  So the stored set stays closed under shifts,
    reversal and contraction.

    Each representative w, in queue order, is glued once against every
    representative v queued up to and including it.  The first operand a
    runs over the distinct rotations of w, the second b over the orbit of v
    (over the rotations of v only, when w is its own mirror image), at the
    single width ``c = max(0, ceil((|a| + |b| - point_budget) / 2))``
    whenever ``c <= min(|a|, |b|)``.  That is the narrowest glue that fits
    the point budget: wider ones are its contractions, and every other
    pairing of the two orbits gives a shift or reversal of one of these.

    Every glued word fits the point budget.  The oversized words are the
    generators above it and their contractions; ``intermediate_budget`` only
    bounds the generators, the ``stop_when`` targets and
    :meth:`ClosureSet.contains` queries.

    ``stop_when``: stop as soon as all the given partitions are present.
    ``max_fusion_ops``: cap on the glues, concatenations included; checked
    before each glue, so ``fusion_ops`` never exceeds it.  Either early stop
    leaves ``saturated`` False.
    """
    pb, ib = point_budget, intermediate_budget
    if pb < 2:
        raise BudgetError("point budget must be at least 2 (the pair partition)")
    if ib < pb:
        raise BudgetError("intermediate budget must be at least the point budget")
    gens = tuple(generators)
    for g in gens:
        if g.n_points > ib:
            raise BudgetError(
                f"generator with {g.n_points} points exceeds the intermediate budget {ib}"
            )

    stored: set[Word] = set()
    big: set[Word] = set()
    # per orbit: the rotations of its representative, and the orbit itself
    queue: list[tuple[list[Word], list[Word]]] = []

    targets: set[Word] = set()
    if stop_when is not None:
        for p in stop_when:
            if p.n_points > ib:
                raise BudgetError("stop_when partition exceeds the intermediate budget")
            targets.add(p.word)
    found: set[Word] = set()

    def add(w: Word) -> None:
        # words still to add, contractions depth first; a stack, not recursion,
        # since a self-referencing closure would keep the pools alive until
        # the cycle collector runs
        pending = [w]
        while pending:
            w = pending.pop()
            pool = stored if len(w) <= pb else big
            if w in pool:
                continue
            turns, orbit = _orbit(w)
            pool.update(orbit)
            found.update(targets.intersection(orbit))
            queue.append((turns, orbit))
            rep = orbit[0]
            if len(rep) >= 2:
                pending.extend(_contract(rep, i) for i in range(len(rep)))

    for g in gens:
        add(g.word)
    add((0, 0))  # pair partition; rotations give the unit partition

    def glues() -> Iterator[tuple[Word, Word, int]]:
        for qi, (firsts, orbit_w) in enumerate(queue):  # the queue grows meanwhile
            m = len(orbit_w[0])
            mirror_symmetric = len(firsts) == len(orbit_w)
            for turns, orbit in islice(queue, qi + 1):
                n = len(orbit[0])
                c = max(0, (m + n - pb + 1) // 2)
                if c <= min(m, n):
                    for b in turns if mirror_symmetric else orbit:
                        for a in firsts:
                            yield a, b, c

    fusion_ops = 0
    cap = math.inf if max_fusion_ops is None else max_fusion_ops
    stopped_early = False
    for a, b, c in glues():
        if fusion_ops >= cap or (targets and targets <= found):
            stopped_early = True
            break
        fusion_ops += 1
        glued, _ = glue(a, b, c)
        if glued not in stored:  # glued words fit the point budget
            add(glued)

    return ClosureSet(
        generators=gens,
        point_budget=pb,
        intermediate_budget=ib,
        words=frozenset(stored),
        oversized_words=frozenset(big),
        saturated=not stopped_early,
        fusion_ops=fusion_ops,
    )
