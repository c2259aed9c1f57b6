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

The pairings of one representative run as one batch: one ``glue_rows``
call from :mod:`partcat.partition` over every second operand, whatever its
length, read off in one pass that turns only the distinct glued rows into
words.  The second operands are the rows of two buffers in queue order,
padded to one width (the rotations of each representative and each whole
orbit), so a row's place in the loop below is a running count.  The batch
gives the same run, glue for glue, as a loop of single glues.  Its
operands are fixed when the representative w is dequeued: the second
operands come from the orbits queued up to w, and new orbits only join the
queue after it.  The stored set only grows, so a result already stored when
the batch starts would be skipped by the loop as well; the others are
replayed in the loop's glue order, with the cap and the target stop
checked before each glue as the loop checks them.

The engine counts the stored words of each length against the number of
all words of that length: Catalan(k) when every generator is noncrossing
(the pair seed and every move keep words noncrossing), Bell(k) otherwise.
A batch does not compute the glues whose results have a length that is
complete when it starts.  The loop would make them and find each result
already stored, so the skip is exact: the glues still count in
``fusion_ops``, against the fusion cap and in the replay, as if made.

A bounded closure is a *lower bound* of the true category restricted to the
point budget: every stored word is honestly derivable from the generators,
but absence only means "not found within budget".  ``stop_reason`` says
why the engine stopped: it reached a fixed point of its move set
(``saturated``), found every ``stop_when`` target, or hit the fusion cap.

The stored words are normalized one-row forms, so
:meth:`ClosureSet.dump_lines` renders their texts straight from the words
(``one_row_texts`` from :mod:`partcat.partition`), with no
:class:`Partition` built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import BadParamError, BudgetError
from .ops import bell_number, catalan_number
from .partition import (
    Partition,
    Word,
    glue_rows,
    normalize_word,
    one_row_texts,
    sorted_partitions,
    word_noncrossing,
)

DEFAULT_POINT_BUDGET = 8
DEFAULT_INTERMEDIATE_BUDGET = 16
# the fusion cap of classify_easy and of the CLI's closure verb
DEFAULT_MAX_FUSION_OPS = 2_000_000


def _rotations(w: Word) -> list[Word]:
    """The distinct cyclic shifts of w, sorted."""
    return sorted({normalize_word(w[i:] + w[:i]) for i in range(max(1, len(w)))})


def _orbit(w: Word) -> tuple[list[Word], list[Word]]:
    """The orbit of w under shifts and reversal, and the rotations of its
    least word (the representative), both sorted."""
    turns, mirrored = _rotations(w), _rotations(w[::-1])
    orbit = sorted(set(turns) | set(mirrored))
    return (turns if turns[0] <= mirrored[0] else mirrored), orbit


def _universe(length: int, noncrossing: bool) -> int:
    """The number of words of the given length: the noncrossing ones,
    Catalan(length), or all, Bell(length)."""
    return catalan_number(length) if noncrossing else bell_number(length)


def _contract(w: Word, i: int) -> Word:
    """Glue cyclically adjacent points i and i+1 (a cap): drop both, merge
    their blocks.  For i = len(w) - 1 the last point meets the first."""
    j = (i + 1) % len(w)
    a, b = w[i], w[j]
    rest = w[:i] + w[i + 2 :] if j else w[1:i]
    if a != b:
        rest = tuple(a if x == b else x for x in rest)
    return normalize_word(rest)


def _grown(array: np.ndarray, rows: int, used: int, fill: int) -> np.ndarray:
    """A copy of ``array`` with ``rows`` rows: its first ``used`` rows, then ``fill``."""
    grown = np.full((rows, *array.shape[1:]), fill, array.dtype)
    grown[:used] = array[:used]
    return grown


class _Rows:
    """Words of any length up to ``width``, in queue order, as the rows of one
    growing small-int buffer, each padded past its length with the label
    ``width``, which no word uses; ``lengths`` holds the length of each row.
    The words come in groups, one per queued orbit: group g is rows
    ``ends[g]:ends[g + 1]``."""

    def __init__(self, width: int) -> None:
        dtype = np.min_scalar_type(width)
        self.buffer = np.full((8, width), width, dtype)
        self.lengths = np.empty(8, dtype)
        self.ends = [0]

    def __len__(self) -> int:
        """The number of groups."""
        return len(self.ends) - 1

    def add_group(self, words: list[Word]) -> None:
        """Add one group of words of one length."""
        size, end = self.ends[-1], self.ends[-1] + len(words)
        if end > len(self.buffer):
            rows = max(end, 2 * size)
            self.buffer = _grown(self.buffer, rows, size, self.buffer.shape[1])
            self.lengths = _grown(self.lengths, rows, size, 0)
        n = len(words[0])
        self.buffer[size:end, :n] = words
        self.lengths[size:end] = n
        self.ends.append(end)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The index of the first occurrence of each distinct row, ascending.
    Rows are told apart by their bytes, in one dict over the whole stack."""
    width = rows.itemsize * rows.shape[1]
    keys = rows.view((np.void, width)).ravel().tolist() if width else [b""] * len(rows)
    # the last write of a key wins, so walk backwards to keep the least index
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    kept = np.zeros(len(rows), bool)
    kept[list(first.values())] = True
    return np.flatnonzero(kept)


def _pair_batch(
    turns: _Rows,
    orbits: _Rows,
    qi: int,
    point_budget: int,
    stored: set[Word],
    complete: np.ndarray,
) -> tuple[int, list[tuple[int, Word]]]:
    """All glues of representative w, queued orbit ``qi``, in one kernel call.

    Glue j is the j-th of the loop: v over the orbits queued up to w, then
    the second operand b over v's orbit (over the rotations of v's
    representative when w is its own mirror image), then the first operand
    a over the rotations of w's representative, at the width c fixed by the
    two lengths.  The rows of ``turns`` and ``orbits`` run in the order of
    v and b, so b's place in the loop is the number of fitting second
    operands before it.  Returns the number of glues and, in ascending j,
    (j, word) for the first glue of each word that is not in ``stored``:
    each distinct glued row, cut to its length k, becomes one tuple.  The
    glues whose results have a length k with ``complete[k]``, all of whose
    words are stored, are counted but not computed.
    """
    start, stop = turns.ends[qi], turns.ends[qi + 1]
    m, r_count = int(turns.lengths[start]), stop - start
    firsts = turns.buffer[start:stop, :m]
    symmetric = r_count == orbits.ends[qi + 1] - orbits.ends[qi]
    rows = turns if symmetric else orbits
    n = rows.lengths[: rows.ends[qi + 1]].astype(np.intp)
    c = np.maximum(0, (m + n - point_budget + 1) // 2)
    fit = c <= np.minimum(m, n)
    total = r_count * int(np.count_nonzero(fit))
    k = m + n - 2 * c  # at most point_budget
    seconds = np.flatnonzero(fit & ~complete[k])
    if not len(seconds):
        return total, []
    position = (np.cumsum(fit) - 1)[seconds]
    glued = glue_rows(firsts, rows.buffer[seconds], n[seconds], c[seconds])
    index = _distinct_rows(glued)
    s, r = np.divmod(index, r_count)
    # position rises strictly with s, so the glue order j rises strictly with
    # the row index s * r_count + r, and the ascending rows come in glue order
    glue_order = (r_count * position[s] + r).tolist()
    cut = zip(glued[index].tolist(), k[seconds][s].tolist())
    words = (tuple(row[:length]) for row, length in cut)
    return total, [(j, word) for j, word in zip(glue_order, words) if word not in stored]


StopReason = Literal["saturated", "targets_found", "fusion_cap"]


class Containment(Enum):
    CONFIRMED = "Confirmed"
    NOT_FOUND_WITHIN_BUDGET = "NotFoundWithinBudget"


@dataclass(frozen=True)
class ClosureSet:
    """Bounded hull of a generator set, stored as boundary words."""

    point_budget: int
    intermediate_budget: int
    words: frozenset[Word]
    oversized_words: frozenset[Word]
    stop_reason: StopReason
    fusion_ops: int

    @property
    def saturated(self) -> bool:
        """True iff the run reached a fixed point of its moves."""
        return self.stop_reason == "saturated"

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
        """All stored elements of shape P(upper_count, lower_count), the
        oversized ones included."""
        n = upper_count + lower_count
        pool = self.words if n <= self.point_budget else self.oversized_words
        return sorted_partitions(upper_count, lower_count, (w for w in pool if len(w) == n))

    def dump_lines(self) -> list[str]:
        """The texts of the one-row forms of the stored elements within the
        point budget, sorted; the oversized words are not listed.  The
        stored words are normalized, so each is rendered as it stands."""
        return sorted(one_row_texts(self.words))


def check_fusion_cap(max_fusion_ops: int | None) -> None:
    """Refuse a negative fusion cap, which no run could keep."""
    if max_fusion_ops is not None and max_fusion_ops < 0:
        raise BadParamError(f"max_fusion_ops must be at least 0, not {max_fusion_ops}")


def check_budgets(point_budget: int, intermediate_budget: int) -> None:
    """Refuse a point budget below 2 (the pair partition) or above the intermediate one."""
    if point_budget < 2:
        raise BudgetError("point budget must be at least 2 (the pair partition)")
    if intermediate_budget < point_budget:
        raise BudgetError("intermediate budget must be at least the point budget")


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
    Once every word of a length is stored (Catalan(k) of them when every
    generator is noncrossing, Bell(k) otherwise), the glues whose results
    have that length are no longer computed: each would find its result
    stored.  They still count in ``fusion_ops`` and against the fusion cap,
    so every result field is the same as if they were made.

    Every glued word fits the point budget.  The oversized words are the
    generators above it and their contractions; ``intermediate_budget`` only
    bounds the generators, the ``stop_when`` targets and
    :meth:`ClosureSet.contains` queries.

    ``stop_when``: stop as soon as all the given partitions are present
    (``stop_reason`` "targets_found").  ``max_fusion_ops``: cap on the glues,
    concatenations included, at least 0; checked before each glue, so
    ``fusion_ops`` never exceeds it (``stop_reason`` "fusion_cap", which wins
    when both stops fall on the same glue).  Either early stop leaves
    ``saturated`` False.  A run whose last glue completes the targets or
    reaches the cap has nothing left to stop and is saturated.
    """
    pb, ib = point_budget, intermediate_budget
    check_fusion_cap(max_fusion_ops)
    check_budgets(pb, ib)
    gens = tuple(generators)
    for g in gens:
        if g.n_points > ib:
            raise BudgetError(
                f"generator with {g.n_points} points exceeds the intermediate budget {ib}"
            )

    stored: set[Word] = set()
    big: set[Word] = set()
    # per length within the point budget: the words not stored yet, and the
    # lengths with none left
    noncrossing = all(word_noncrossing(g.word) for g in gens)
    missing: dict[int, int] = {}
    complete = np.zeros(pb + 1, bool)
    # the queue: per queued orbit, the rotations of its representative and
    # the whole orbit; every queued word is a generator or has at most pb points
    width = max([pb, *(g.n_points for g in gens)])
    turns, orbits = _Rows(width), _Rows(width)

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
            rotations, orbit = _orbit(w)
            pool.update(orbit)
            if pool is stored:
                n = len(w)
                if n not in missing:
                    missing[n] = _universe(n, noncrossing)
                missing[n] -= len(orbit)
                if not missing[n]:
                    complete[n] = True
            found.update(targets.intersection(orbit))
            turns.add_group(rotations)
            orbits.add_group(orbit)
            rep = orbit[0]
            if len(rep) >= 2:
                pending.extend(_contract(rep, i) for i in range(len(rep)))

    for g in gens:
        add(g.word)
    add((0, 0))  # pair partition; rotations give the unit partition

    fusion_ops = 0
    stop_reason: StopReason = "saturated"
    qi = 0
    while qi < len(turns):  # the queue grows meanwhile
        # once the cap is reached or every target found, no glue is replayed,
        # so every length counts as complete and no glue is computed
        stopped = fusion_ops == max_fusion_ops or (bool(targets) and targets <= found)
        total, candidates = _pair_batch(turns, orbits, qi, pb, stored, complete | stopped)
        qi += 1
        # replay the batch in glue order: stop before glue j once the cap is
        # reached or every target has been found
        cap_at = total if max_fusion_ops is None else min(total, max_fusion_ops - fusion_ops)
        target_at = 0 if targets and targets <= found else total
        for j, glued in candidates:
            if j >= min(cap_at, target_at):
                break
            if glued not in stored:  # glued words fit the point budget
                add(glued)
                if targets and targets <= found:
                    target_at = j + 1
        done = min(cap_at, target_at)
        fusion_ops += done
        if done < total:
            stop_reason = "fusion_cap" if cap_at <= target_at else "targets_found"
            break

    return ClosureSet(
        point_budget=pb,
        intermediate_budget=ib,
        words=frozenset(stored),
        oversized_words=frozenset(big),
        stop_reason=stop_reason,
        fusion_ops=fusion_ops,
    )
