"""Two-row set partitions: the shape plus the boundary word, and the text format.

A partition in P(k, l) splits k upper and l lower points into disjoint
nonempty blocks.  Upper points are written u1..uk from left to right, lower
points l1..ll.  The *boundary walk* visits uk, ..., u1, l1, ..., ll, going
counterclockwise around the rectangle from the top-right point.

A :class:`Partition` is stored as its shape (k, l) and its *word*: the block
label of each point along the walk, relabeled by first occurrence.  Every
layer of the package reads the word.  Walk position i carries the mark ``+``
for even i and ``-`` for odd i; blocks interleave along the word iff their
lines cross; a rotation is a cyclic shift of the word and an involution its
reversal; composition and the tensor product are one gluing of words
(:func:`glue`).

Text, order and :attr:`Partition.blocks` come from the word too: one walk
(:func:`_group_blocks`) groups it by block in the canonical point order
u1..uk, l1..ll, where u_i sits at walk position k - i and l_j at k + j - 1.
:class:`Point` serves only to validate input in :func:`make_partition` and
to hand out :attr:`Partition.blocks`; no text or listing builds one, and the
catalog builds every named partition from its word.

Partitions are immutable; all functions return fresh values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CoverageError, OverlapError, ParseError, PointRangeError

UPPER = "u"
LOWER = "l"

_SHOWN_UNCOVERED = 8  # uncovered points named in a coverage error

Word = tuple[int, ...]


class Point(NamedTuple):
    """One point of a two-row diagram: row is "u" or "l", index is 1-based."""

    row: str
    index: int

    def __str__(self) -> str:
        return f"{self.row}{self.index}"


def upper(index: int) -> Point:
    return Point(UPPER, index)


def lower(index: int) -> Point:
    return Point(LOWER, index)


def normalize_word(labels: Iterable[int]) -> Word:
    """Relabel block ids by first occurrence: (2,7,2,1) -> (0,1,0,2)."""
    mapping: dict[int, int] = {}
    out: list[int] = []
    for x in labels:
        v = mapping.get(x)
        if v is None:
            v = mapping[x] = len(mapping)
        out.append(v)
    return tuple(out)


def glue(a: Word, b: Word, c: int) -> tuple[Word, int]:
    """Glue the last c points of a to the first c points of b, dropping them.

    Point a[-1] meets b[0], a[-2] meets b[1], and so on: on the words of p
    and q with c = p.lower_count this is the vertical composition of p over
    q, and on one-row words with c = 0 it is concatenation, the tensor
    product.  Both words must be normalized.  Returns the normalized word of
    the surviving points and ``merges``, the number of gluings that joined
    two different blocks.  A glued component that reaches no surviving point
    is a removed loop, so there are
    ``blocks(a) + blocks(b) - merges - blocks(result)`` of them.
    """
    m = len(a)
    # union-find over block labels; a normalized word's labels are below its
    # length, so b's labels are shifted by m
    parent = list(range(m + len(b)))
    merges = 0
    for i in range(c):
        x, y = a[m - 1 - i], m + b[i]
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[max(x, y)] = min(x, y)
            merges += 1
    first: dict[int, int] = {}  # relabel by first occurrence, as normalize_word
    out = []
    for x in a[: m - c]:
        while parent[x] != x:
            x = parent[x]
        out.append(first.setdefault(x, len(first)))
    for x in b[c:]:
        x += m
        while parent[x] != x:
            x = parent[x]
        out.append(first.setdefault(x, len(first)))
    return tuple(out), merges


GLUE_CHUNK_CELLS = 1 << 14  # point cells per chunk of :func:`glue_rows`


def _first_kept(words: np.ndarray, start: int, stop: int, shift: int, spare: int) -> np.ndarray:
    """Per word and point: ``shift + (j - start)`` for the first position
    ``start <= j < stop`` that holds the point's label, else the unique
    ``spare + label``, as ``intp``: a key may not fit the words' dtype."""
    labels = words.astype(np.intp)
    if start == stop:
        return spare + labels
    hits = words[:, :, None] == words[:, None, start:stop]
    return np.where(hits.any(axis=2), shift + hits.argmax(axis=2), spare + labels)


def glue_rows(firsts: np.ndarray, seconds: np.ndarray, c: int) -> np.ndarray:
    """``glue(a, b, c)[0]`` for every row a of ``firsts`` and b of ``seconds``.

    Both stacks hold normalized words as rows, all of one length per stack.
    Returns the glued words as the rows of one array, of width
    ``|a| + |b| - 2c``: row ``s * len(firsts) + r`` glues ``firsts[r]`` to
    ``seconds[s]``.  The work runs in chunks of whole ``seconds`` rows of at
    most ``GLUE_CHUNK_CELLS`` point cells (one chunk holds at least one row).

    Every point carries the key of its block, the result position of the
    block's first surviving point; each pair is one row of keys, a's points
    followed by b's.  A seam pair gives both blocks the lesser key, so the
    key of each surviving point says at once whether it opens a block of the
    result.
    """
    (r_count, m), (s_count, n) = firsts.shape, seconds.shape
    size, k = m + n, m + n - 2 * c
    out = np.empty((s_count * r_count, k), np.min_scalar_type(max(k - 1, 0)))
    if not out.size:
        return out
    # a key is a position of the result or, for a block that loses all its
    # points, a spare value from k upwards
    dtype = np.min_scalar_type(k + size)
    key_a = _first_kept(firsts, 0, m - c, 0, k).astype(dtype)
    key_b = _first_kept(seconds, c, n, m - c, k + m).astype(dtype)
    positions = np.arange(k)
    step = max(1, GLUE_CHUNK_CELLS // (r_count * size))
    for s0 in range(0, s_count, step):
        b = key_b[s0 : s0 + step]
        keys = np.empty((len(b), r_count, size), dtype)
        keys[:, :, :m] = key_a
        keys[:, :, m:] = b[:, None, :]
        keys = keys.reshape(-1, size)
        for i in range(c):
            x, y = keys[:, m - 1 - i], keys[:, m + i]
            low, high = np.minimum(x, y)[:, None], np.maximum(x, y)[:, None]
            keys -= (keys == high) * (high - low)
        kept = np.concatenate((keys[:, : m - c], keys[:, m + c :]), axis=1)
        rank = np.cumsum(kept == positions, axis=1, dtype=dtype) - dtype.type(1)
        out[s0 * r_count : s0 * r_count + len(keys)] = np.take_along_axis(rank, kept, axis=1)
    return out


@dataclass(frozen=True)
class Partition:
    """A set partition of k upper and l lower points: its shape and its word.

    ``word`` gives the block of each point along the boundary walk, labeled
    by first occurrence, e.g. (0, 1, 0, 2).  Shape and word determine the
    partition, so two partitions are equal iff both are equal; the word is
    also the P(0, n) normal form used by the closure engine.  Build instances
    through :func:`make_partition` or :func:`parse_partition`, which validate
    point lists, or through :func:`partition_from_word`.
    """

    upper_count: int
    lower_count: int
    word: Word

    @property
    def n_points(self) -> int:
        return self.upper_count + self.lower_count

    @cached_property
    def blocks(self) -> tuple[tuple[Point, ...], ...]:
        """The blocks as points, in canonical form.

        Inside a block, points are sorted upper-before-lower and left to
        right; blocks are sorted by their least point.
        """
        k, l = self.upper_count, self.lower_count
        points = [upper(i) for i in range(1, k + 1)] + [lower(j) for j in range(1, l + 1)]
        return tuple(map(tuple, _group_blocks(k, self.word, points)))

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"Partition({canonical_text(self)!r})"


def _check_shape(upper_count: int, lower_count: int) -> None:
    if upper_count < 0 or lower_count < 0:
        raise PointRangeError("row sizes must be nonnegative")


def make_partition(
    upper_count: int,
    lower_count: int,
    blocks: Iterable[Iterable[Point | tuple[str, int]]],
) -> Partition:
    """Validate a partition of P(upper_count, lower_count) given by its blocks.

    Raises OverlapError / CoverageError / PointRangeError when the blocks are
    not a partition of the declared point set.  Empty input blocks are
    dropped.  P(0, 0) with no blocks is legal.  The work is bounded by the
    size of ``blocks``, not by the declared shape.
    """
    k, l = upper_count, lower_count
    _check_shape(k, l)
    label: dict[int, int] = {}  # walk position -> input block
    for b, raw_block in enumerate(blocks):
        for raw in raw_block:
            pt = Point(*raw)
            limit = k if pt.row == UPPER else l
            if pt.row not in (UPPER, LOWER) or not 1 <= pt.index <= limit:
                raise PointRangeError(f"point {pt} outside P({k},{l})")
            position = k - pt.index if pt.row == UPPER else k + pt.index - 1
            if position in label:
                raise OverlapError(f"point {pt} appears in two blocks")
            label[position] = b
    uncovered = k + l - len(label)
    if uncovered:
        # name only the first few, in canonical point order u1..uk, l1..ll
        order = chain(range(k - 1, -1, -1), range(k, k + l))
        missing = islice((i for i in order if i not in label), _SHOWN_UNCOVERED)
        shown = [f"u{k - i}" if i < k else f"l{i - k + 1}" for i in missing]
        more = f", ... ({uncovered} in all)" if uncovered > len(shown) else ""
        raise CoverageError(f"points not covered: {', '.join(shown)}{more}")
    return Partition(k, l, normalize_word(label[i] for i in range(k + l)))


# [0-9], not \d: \d also takes other scripts' digits, which canonical_text never prints
_HEAD_RE = re.compile(r"\s*P\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*:(.*)", re.DOTALL)
_POINT_RE = re.compile(r"([ul])([0-9]+)")


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


def _group_blocks(k: int, word: Word, points: list) -> list[list]:
    """The one walk: group ``points``, given in canonical point order
    u1..uk, l1..ll, by block, blocks in the order of their least point."""
    groups: dict[int, list] = {}
    for x, pt in zip(word[:k][::-1] + word[k:], points):
        groups.setdefault(x, []).append(pt)
    return list(groups.values())


def _codes(k: int, l: int) -> list[str]:
    return [f"u{i}" for i in range(1, k + 1)] + [f"l{j}" for j in range(1, l + 1)]


def _text(k: int, l: int, word: Word, codes: list[str]) -> str:
    body = "; ".join(map(",".join, _group_blocks(k, word, codes)))
    return f"P({k},{l}): {body}" if body else f"P({k},{l}):"


def canonical_text(p: Partition) -> str:
    """Deterministic text form; equal partitions give identical text."""
    k, l = p.upper_count, p.lower_count
    return _text(k, l, p.word, _codes(k, l))


def sorted_partitions(upper_count: int, lower_count: int, words: Iterable[Word]) -> list[Partition]:
    """The partitions of P(upper_count, lower_count) with the given
    normalized words, sorted by canonical text.  The row counts are checked
    before any word is read."""
    k, l = upper_count, lower_count
    _check_shape(k, l)
    codes = _codes(k, l)
    keyed = [(_text(k, l, w, codes), Partition(k, l, w)) for w in words]
    keyed.sort(key=itemgetter(0))
    return [p for _, p in keyed]


def word_noncrossing(word: Word) -> bool:
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
    word: Iterable[int], upper_count: int = 0, lower_count: int | None = None
) -> Partition:
    """The partition of the given shape whose boundary word is ``word``.

    Any labeling of the blocks is accepted; the labels are normalized.
    """
    word = normalize_word(word)
    if lower_count is None:
        lower_count = len(word) - upper_count
    _check_shape(upper_count, lower_count)
    if upper_count + lower_count != len(word):
        raise PointRangeError("word length does not match the requested shape")
    return Partition(upper_count, lower_count, word)
