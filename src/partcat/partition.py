"""Two-row set partitions: construction, text format, boundary walk, crossings.

A partition in P(k, l) splits k upper and l lower points into disjoint
nonempty blocks.  Upper points are written u1..uk from left to right, lower
points l1..ll.  The *boundary walk* visits uk, ..., u1, l1, ..., ll, going
counterclockwise around the rectangle from the top-right point, and is the
reference order for everything order-sensitive: the alternating
plus/minus point marks, the crossing test, and the one-row word that the
closure engine works on.

Partitions are immutable; all functions return fresh values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .errors import CoverageError, OverlapError, ParseError, PointRangeError

UPPER = "u"
LOWER = "l"

PLUS = "+"
MINUS = "-"

_SHOWN_UNCOVERED = 8  # uncovered points named in a coverage error


class Point(NamedTuple):
    """One point of a two-row diagram: row is "u" or "l", index is 1-based."""

    row: str
    index: int

    def sort_key(self) -> tuple[int, int]:
        # upper points before lower points, then left to right
        return (0 if self.row == UPPER else 1, self.index)

    def __str__(self) -> str:
        return f"{self.row}{self.index}"


def upper(index: int) -> Point:
    return Point(UPPER, index)


def lower(index: int) -> Point:
    return Point(LOWER, index)


@dataclass(frozen=True)
class Partition:
    """A set partition of k upper and l lower points, in canonical form.

    Canonical form: inside a block, points are sorted upper-before-lower and
    left to right; blocks are sorted by their least point.  Build instances
    through :func:`make_partition` or :func:`parse_partition`, which validate
    and canonicalize.
    """

    upper_count: int
    lower_count: int
    blocks: tuple[tuple[Point, ...], ...]

    @property
    def n_points(self) -> int:
        return self.upper_count + self.lower_count

    def points(self) -> Iterator[Point]:
        for i in range(1, self.upper_count + 1):
            yield Point(UPPER, i)
        for j in range(1, self.lower_count + 1):
            yield Point(LOWER, j)

    @cached_property
    def block_index(self) -> dict[Point, int]:
        """Map each point to the position of its block in ``blocks``."""
        out: dict[Point, int] = {}
        for b, block in enumerate(self.blocks):
            for pt in block:
                out[pt] = b
        return out

    @cached_property
    def word(self) -> tuple[int, ...]:
        """Block labels along the boundary walk, relabeled by first occurrence.

        Two partitions of the same shape are equal iff their words are equal;
        the word is also the P(0, n) normal form used by the closure engine.
        """
        idx = self.block_index
        return normalize_word([idx[pt] for pt in boundary_order(self)])

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"Partition({canonical_text(self)!r})"


def make_partition(
    upper_count: int,
    lower_count: int,
    blocks: Iterable[Iterable[Point | tuple[str, int]]],
) -> Partition:
    """Validate and canonicalize a partition of P(upper_count, lower_count).

    Raises OverlapError / CoverageError / PointRangeError when the blocks are
    not a partition of the declared point set.  Empty input blocks are
    dropped.  P(0, 0) with no blocks is legal.
    """
    if upper_count < 0 or lower_count < 0:
        raise PointRangeError("row sizes must be nonnegative")
    seen: set[Point] = set()
    canon_blocks: list[tuple[Point, ...]] = []
    for raw_block in blocks:
        block = [Point(*pt) for pt in raw_block]
        if not block:
            continue
        for pt in block:
            limit = upper_count if pt.row == UPPER else lower_count
            if pt.row not in (UPPER, LOWER) or not 1 <= pt.index <= limit:
                raise PointRangeError(f"point {pt} outside P({upper_count},{lower_count})")
            if pt in seen:
                raise OverlapError(f"point {pt} appears in two blocks")
            seen.add(pt)
        canon_blocks.append(tuple(sorted(block, key=Point.sort_key)))
    uncovered = upper_count + lower_count - len(seen)
    if uncovered:
        # name only the first few; the walk stops as soon as they are found
        points = Partition(upper_count, lower_count, ()).points()
        shown = list(islice((pt for pt in points if pt not in seen), _SHOWN_UNCOVERED))
        more = f", ... ({uncovered} in all)" if uncovered > len(shown) else ""
        raise CoverageError(f"points not covered: {', '.join(map(str, shown))}{more}")
    canon_blocks.sort(key=lambda b: b[0].sort_key())
    return Partition(upper_count, lower_count, tuple(canon_blocks))


_HEAD_RE = re.compile(r"\s*P\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*:(.*)", re.DOTALL)
_POINT_RE = re.compile(r"([ul])(\d+)")


def parse_partition(text: str) -> Partition:
    """Parse ``P(<k>,<l>): <block>; <block>; ...`` with blocks of u<i>/l<j> codes.

    Whitespace-insensitive.  Inverse of :func:`canonical_text`.
    """
    m = _HEAD_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a partition literal: {text!r}")
    k, l = int(m.group(1)), int(m.group(2))
    body = m.group(3).strip()
    blocks: list[list[Point]] = []
    if body:
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty block in partition text")
            block: list[Point] = []
            for tok in chunk.split(","):
                tok = "".join(tok.split())
                pm = _POINT_RE.fullmatch(tok)
                if pm is None:
                    raise ParseError(f"bad point code {tok!r}")
                block.append(Point(pm.group(1), int(pm.group(2))))
            blocks.append(block)
    return make_partition(k, l, blocks)


def canonical_text(p: Partition) -> str:
    """Deterministic text form; equal partitions give identical text."""
    head = f"P({p.upper_count},{p.lower_count}):"
    if not p.blocks:
        return head
    body = "; ".join(",".join(str(pt) for pt in block) for block in p.blocks)
    return f"{head} {body}"


def boundary_order(p: Partition) -> list[Point]:
    """The boundary walk u_k, ..., u_1, l_1, ..., l_l."""
    walk = [Point(UPPER, i) for i in range(p.upper_count, 0, -1)]
    walk += [Point(LOWER, j) for j in range(1, p.lower_count + 1)]
    return walk


def linearize(p: Partition) -> tuple[tuple[Point, ...], tuple[str, ...]]:
    """Boundary walk plus alternating marks, starting with ``+``.

    The walk starts at the top-right point (or l1 when there is no upper
    row); marks strictly alternate ``+ - + -`` along it.
    """
    walk = boundary_order(p)
    marks = tuple(PLUS if i % 2 == 0 else MINUS for i in range(len(walk)))
    return tuple(walk), marks


def normalize_word(labels: Iterable[int]) -> tuple[int, ...]:
    """Relabel block ids by first occurrence: (2,7,2,1) -> (0,1,0,2)."""
    mapping: dict[int, int] = {}
    out: list[int] = []
    for x in labels:
        v = mapping.get(x)
        if v is None:
            v = mapping[x] = len(mapping)
        out.append(v)
    return tuple(out)


def word_noncrossing(word: tuple[int, ...]) -> bool:
    """Crossing test on a word: no two blocks interleave as a-b-a-b.

    Scans once, keeping a stack of blocks that will reoccur; a block may only
    reoccur while it is the innermost open one.
    """
    last: dict[int, int] = {}
    for i, x in enumerate(word):
        last[x] = i
    stack: list[int] = []
    seen: set[int] = set()
    for i, x in enumerate(word):
        if x in seen:
            if not stack or stack[-1] != x:
                return False
            if last[x] == i:
                stack.pop()
        else:
            seen.add(x)
            if last[x] > i:
                stack.append(x)
    return True


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks interleave along the boundary walk.

    Interleaving along the walk is equivalent to lines crossing in the
    two-row picture, and is invariant under all rotations.
    """
    return word_noncrossing(p.word)


def partition_from_word(
    word: tuple[int, ...], upper_count: int = 0, lower_count: int | None = None
) -> Partition:
    """Rebuild the two-row partition of a given shape from a boundary word."""
    if lower_count is None:
        lower_count = len(word) - upper_count
    if upper_count + lower_count != len(word):
        raise PointRangeError("word length does not match the requested shape")
    walk = boundary_order(Partition(upper_count, lower_count, ()))
    groups: dict[int, list[Point]] = {}
    for lab, pt in zip(word, walk):
        groups.setdefault(lab, []).append(pt)
    return make_partition(upper_count, lower_count, groups.values())


@dataclass(frozen=True)
class BlockProfile:
    """Block statistics, with plus/minus counts taken from :func:`linearize`."""

    sizes: tuple[int, ...]
    singleton_count: int
    odd_block_count: int
    signed_counts: tuple[tuple[int, int], ...]


def block_profile(p: Partition) -> BlockProfile:
    walk, marks = linearize(p)
    mark_of = dict(zip(walk, marks))
    sizes = tuple(sorted(len(b) for b in p.blocks))
    signed = tuple(
        (
            sum(1 for pt in block if mark_of[pt] == PLUS),
            sum(1 for pt in block if mark_of[pt] == MINUS),
        )
        for block in p.blocks
    )
    return BlockProfile(
        sizes=sizes,
        singleton_count=sum(1 for s in sizes if s == 1),
        odd_block_count=sum(1 for s in sizes if s % 2 == 1),
        signed_counts=signed,
    )
