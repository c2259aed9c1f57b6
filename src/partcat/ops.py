"""The four category operations on two-row partitions, plus brute-force enumeration.

Conventions:

* ``compose(p, q)`` stacks p on top of q: p's lower row is glued to q's upper
  row, the middle points disappear, and middle components that touch no
  surviving point are counted as removed loops.
* ``rotate`` moves a single endpoint between rows without changing any
  connection.  DOWN_* moves an upper point to the lower row, UP_* the
  converse; LEFT/RIGHT say which end of the rows is involved.  DOWN_LEFT
  followed by UP_LEFT is the identity.  CYCLE_LEFT / CYCLE_RIGHT act on
  one-row partitions only and move the end point around to the other side.

``enumerate_all`` is the exhaustive oracle the rest of the package is tested
against; counts match Bell numbers, and Catalan numbers when restricted to
noncrossing partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Iterator

from .errors import (
    ArityMismatchError,
    CapExceededError,
    CycleOnTwoRowsError,
    EmptyRowError,
    PointRangeError,
)
from .partition import Partition, Word, glue, partition_from_word, sorted_partitions

EMPTY = partition_from_word(())


def tensor(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: q's points are shifted past p's.

    Along the boundary walk, q's upper row comes first and its lower row
    last, around the whole of p.
    """
    k, shifted = q.upper_count, tuple(x + len(p.word) for x in q.word)
    return partition_from_word(
        shifted[:k] + p.word + shifted[k:],
        p.upper_count + q.upper_count,
        p.lower_count + q.lower_count,
    )


@dataclass(frozen=True)
class ComposeResult:
    """Vertical concatenation result plus the number of removed middle loops."""

    result: Partition
    removed_loops: int


def compose(p: Partition, q: Partition) -> ComposeResult:
    """Stack p over q; requires p's lower row and q's upper row to match.

    Surviving points are connected iff joined by a chain through p- and
    q-blocks across the glued middle row.  Middle components connected to no
    surviving point are removed and counted.
    """
    if p.lower_count != q.upper_count:
        raise ArityMismatchError(
            f"cannot compose P({p.upper_count},{p.lower_count}) with "
            f"P({q.upper_count},{q.lower_count})"
        )
    word, loops = glue(p.word, q.word, p.lower_count)
    return ComposeResult(Partition(p.upper_count, q.lower_count, word), loops)


def involute(p: Partition) -> Partition:
    """Turn the diagram upside down: rows swap, left-right order is kept."""
    return partition_from_word(p.word[::-1], p.lower_count, p.upper_count)


class Rotation(Enum):
    DOWN_LEFT = "down-left"
    UP_LEFT = "up-left"
    DOWN_RIGHT = "down-right"
    UP_RIGHT = "up-right"
    CYCLE_LEFT = "cycle-left"
    CYCLE_RIGHT = "cycle-right"


def rotate(p: Partition, where: Rotation) -> Partition:
    """Move one endpoint between rows (or around the circle for one-row p).

    Connections between points never change; only names shift.  DOWN_* needs
    a nonempty upper row, UP_* a nonempty lower row, CYCLE_* needs
    upper_count == 0 and a nonempty lower row.  Along the boundary walk the
    LEFT moves keep the word, DOWN_RIGHT and CYCLE_LEFT shift it left by one
    point, UP_RIGHT and CYCLE_RIGHT shift it right by one.
    """
    k, l, word = p.upper_count, p.lower_count, p.word
    if where in (Rotation.CYCLE_LEFT, Rotation.CYCLE_RIGHT):
        if k != 0:
            raise CycleOnTwoRowsError("cyclic rotation needs a one-row partition")
        if l == 0:
            raise EmptyRowError("nothing to rotate in P(0,0)")
    elif where in (Rotation.DOWN_LEFT, Rotation.DOWN_RIGHT):
        if k == 0:
            raise EmptyRowError("no upper point to move down")
        k -= 1
    elif l == 0:
        raise EmptyRowError("no lower point to move up")
    else:
        k += 1
    if where in (Rotation.DOWN_RIGHT, Rotation.CYCLE_LEFT):
        word = word[1:] + word[:1]
    elif where in (Rotation.UP_RIGHT, Rotation.CYCLE_RIGHT):
        word = word[-1:] + word[:-1]
    return partition_from_word(word, k)


ROTATION_INVERSES = {
    Rotation.DOWN_LEFT: Rotation.UP_LEFT,
    Rotation.UP_LEFT: Rotation.DOWN_LEFT,
    Rotation.DOWN_RIGHT: Rotation.UP_RIGHT,
    Rotation.UP_RIGHT: Rotation.DOWN_RIGHT,
    Rotation.CYCLE_LEFT: Rotation.CYCLE_RIGHT,
    Rotation.CYCLE_RIGHT: Rotation.CYCLE_LEFT,
}

ENUMERATION_CAP = 12


def check_enumeration_cap(n_points: int) -> None:
    """Refuse an exhaustive enumeration over more than ``ENUMERATION_CAP`` points."""
    if n_points > ENUMERATION_CAP:
        raise CapExceededError(
            f"{n_points} points exceeds the enumeration cap {ENUMERATION_CAP}"
        )


def bell_number(k: int) -> int:
    """Bell(k), the number of partitions of k points, by the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def catalan_number(k: int) -> int:
    """Catalan(k), the number of noncrossing partitions of k points."""
    return comb(2 * k, k) // (k + 1)


# the most partitions one listing may hold: Bell(11) = 678,570
LISTING_CAP = bell_number(ENUMERATION_CAP - 1)


def check_listing_size(total_points: int) -> None:
    """Refuse the listing of every partition of every shape with at most
    ``total_points`` points, sum over n of (n + 1) Bell(n), above
    ``LISTING_CAP``; the sum stops once over it."""
    size = 0
    for n in range(total_points + 1):
        size += (n + 1) * bell_number(n)
        if size > LISTING_CAP:
            raise CapExceededError(
                f"the partitions of up to {total_points} points exceed the listing cap "
                f"Bell({ENUMERATION_CAP - 1}) = {LISTING_CAP}"
            )


def iter_words(n_points: int, noncrossing_only: bool = False) -> Iterator[Word]:
    """All partition words of n_points points (restricted growth strings), in
    lexicographic order; with ``noncrossing_only`` the noncrossing ones only.

    One recursion labels the points left to right: each joins one of the
    joinable blocks, in opening order, and then opens a new block, which
    gives lexicographic order.  The classical world keeps every block
    joinable; the noncrossing world cuts them back to the joined block.
    """
    # raised on first use, so sorted_partitions checks the row sizes first
    if n_points < 0:
        raise PointRangeError(f"point total must be nonnegative, got {n_points}")
    labels = [0] * n_points

    def rec(i: int, joinable: tuple[int, ...], used: int) -> Iterator[Word]:
        if i == n_points:
            yield tuple(labels)
            return
        for depth, v in enumerate(joinable):
            labels[i] = v
            yield from rec(i + 1, joinable[: depth + 1] if noncrossing_only else joinable, used)
        labels[i] = used
        yield from rec(i + 1, joinable + (used,), used + 1)

    yield from rec(0, (), 0)


def enumerate_all(
    upper_count: int, lower_count: int, noncrossing_only: bool = False
) -> list[Partition]:
    """Every partition of P(upper_count, lower_count), duplicate-free, sorted.

    The point total must stay within ``ENUMERATION_CAP`` (12).
    """
    n = upper_count + lower_count
    check_enumeration_cap(n)
    return sorted_partitions(upper_count, lower_count, iter_words(n, noncrossing_only))


def enumerate_upto(total_points: int) -> list[Partition]:
    """Every partition of every shape with at most ``total_points`` points,
    by point count, then upper count, then text.

    The size is checked by ``check_listing_size`` before anything is built;
    the words of each point count are listed once and shared by its shapes.
    """
    if total_points < 0:
        raise PointRangeError(f"point total must be nonnegative, got {total_points}")
    check_listing_size(total_points)
    out = []
    for n in range(total_points + 1):
        words = list(iter_words(n))
        for k in range(n + 1):
            out += sorted_partitions(k, n - k, words)
    return out
