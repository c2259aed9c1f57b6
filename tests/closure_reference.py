"""The sequential closure worklist, glue by glue, kept only as a reference
for tests.

``generate_closure`` below is the package's engine as it was before the pair
loop was batched: one ``glue`` call per (first operand, second operand,
width) triple, with the fusion cap and the target stop checked before each
one.  The batched engine must reproduce it exactly: the same stored and
oversized words, the same ``saturated`` flag and the same ``fusion_ops``,
under every cap and every target set.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from partcat.errors import BudgetError
from partcat.partition import Partition, Word, glue, normalize_word


class ReferenceClosure(NamedTuple):
    words: frozenset[Word]
    oversized_words: frozenset[Word]
    saturated: bool
    fusion_ops: int


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


def generate_closure(
    generators: Sequence[Partition],
    point_budget: int,
    intermediate_budget: int,
    *,
    stop_when: Iterable[Partition] | None = None,
    max_fusion_ops: int | None = None,
) -> ReferenceClosure:
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
        # words still to add, contractions depth first
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

    return ReferenceClosure(
        words=frozenset(stored),
        oversized_words=frozenset(big),
        saturated=not stopped_early,
        fusion_ops=fusion_ops,
    )
