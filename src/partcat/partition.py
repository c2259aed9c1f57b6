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
:func:`parse_partition` maps each point code of the text straight to that
walk position, so the text is read into the word with no other form in
between, and the catalog builds every named partition from its word.

Partitions are immutable; all functions return fresh values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable

import numpy as np

from .errors import CoverageError, OverlapError, ParseError, PointRangeError

_SHOWN_UNCOVERED = 8  # uncovered points named in a coverage error
_MAX_DIGITS = 18  # digits of a number in partition text, leading zeros included
_QUOTED = 40  # characters of the input quoted in a parse error

Word = tuple[int, ...]


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

    The point a[-1] meets b[0], a[-2] meets b[1], and so on: on the words of p
    and q with c = p.lower_count this is the vertical composition of p over
    q, and on one-row words with c = 0 it is concatenation, the tensor
    product.  Both words must be normalized.  Returns the normalized word of
    the surviving points and the number of removed loops: the glued
    components that reach no surviving point.
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
    # blocks(a) + blocks(b) - merges components, of which len(first) survive
    return tuple(out), max(a, default=-1) + max(b, default=-1) + 2 - merges - len(first)


GLUE_CHUNK_CELLS = 1 << 16  # cells per chunk of :func:`glue_rows`'s keys and glued rows


def _first_kept(
    words: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    shifts: np.ndarray,
    spare: int,
    dtype: np.dtype,
) -> np.ndarray:
    """The keys of a stack of words, points-major: at ``[j, s]``, for point
    j of word s, ``shifts[s] + i`` for the first position
    ``starts[s] <= i < lengths[s]`` that holds the point's label, else the
    unique ``spare + label``.  Built in ``intp``, in chunks of words of at
    most ``GLUE_CHUNK_CELLS`` comparisons, each chunk against its positions
    from just before its least start to its greatest length, into a
    C-ordered ``(points, words)`` array of ``dtype``.  A point past its
    word's length holds a label that no word uses; it is keyed by itself,
    or left unset past the longest word of its chunk."""
    count, w = words.shape
    keys = np.empty((w, count), dtype)
    step = max(1, GLUE_CHUNK_CELLS // max(w * w, 1))
    for s0 in range(0, count, step):
        start = starts[s0 : s0 + step, None]
        stop = int(lengths[s0 : s0 + step].max())
        if not stop:
            continue
        # from one position before the least start, which nothing matches, so
        # argmax puts a point with no match before its start
        lo = max(0, int(start.min()) - 1)
        labels = words[s0 : s0 + step, :stop].astype(np.intp)
        # the points before their word's start match nothing
        seen = np.where(np.arange(lo, stop) < start, -1, labels[:, lo:])
        first = lo + (labels[:, :, None] == seen[:, None, :]).argmax(axis=2)
        found = first >= start
        keys[:stop, s0 : s0 + step] = np.where(
            found, first + shifts[s0 : s0 + step, None], spare + labels
        ).T
    return keys


def glue_rows(
    firsts: np.ndarray, seconds: np.ndarray, lengths: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """``glue(a, b[:n], c)[0]`` for every row a of ``firsts`` and every
    second operand: row b of ``seconds``, with its length n from ``lengths``
    and its seam width c from ``widths``.

    ``firsts`` holds normalized words of one length m as rows.  ``seconds``
    holds normalized words of any lengths, each padded past its length with
    a label that no word of the stack uses, and each width is at most
    ``min(m, n)``.  Returns the glued words as the rows of one array whose
    width K is the greatest ``k = m + n - 2c``: row ``s * len(firsts) + r``
    glues ``firsts[r]`` to second operand s, padded with the value K past
    its k points.  The keys of both stacks and the glued rows are built in
    chunks of at most ``GLUE_CHUNK_CELLS`` cells; a chunk of pairs holds
    whole ``seconds`` rows, at least one.

    Every point carries the key of its block, the result position of the
    block's first surviving point.  The kept part of a is a prefix, so a
    block of a is keyed by its first point, if that point is kept; a block
    of b by its first point at or after c, before n.  A chunk holds its keys
    points-major, one column per pair, so every step below reads whole
    contiguous rows: first the K result positions (a's points below
    ``m - c``, then b's points from c, then the padding key K), then the
    seam, one pair of rows (a's point ``m - 1 - i``, b's point i) per seam
    step i up to the greatest width of the chunk, the last step first.  A
    seam step gives both blocks the lesser key, in the result rows and the
    steps still to come, and a column takes part while i < c.  Then the key
    of each result point says at once whether it opens a block of the
    result; a cumulative count of the openers down each column numbers the
    blocks, and one flat gather reads each point's block number at its
    key's row.
    """
    r_count, m = firsts.shape
    n, c = np.asarray(lengths, np.intp), np.asarray(widths, np.intp)
    k = m + n - 2 * c
    width = int(k.max(initial=0))
    out = np.empty((len(seconds) * r_count, width), np.min_scalar_type(width))
    if not out.size:
        return out
    w = int(n.max())
    # a key is a position of the result or, for a block that loses all its
    # points, a spare value above the width; the width itself keys padding
    dtype = np.min_scalar_type(width + m + w)
    spare = width + 1
    zeros = np.zeros(r_count, np.intp)
    key_a = _first_kept(firsts, zeros + m, zeros, zeros, 0, dtype)[:, :, None]
    key_b = _first_kept(seconds[:, :w], n, c, m - 2 * c, spare + m, dtype)
    # per second operand, in result order: whether a position is a's, and
    # else the key of b's point there, or the padding key past k
    positions = np.arange(width)[:, None]
    kept_a = m - c
    from_a = positions < kept_a
    from_b = np.where(positions < k, np.maximum(positions - kept_a + c, 0), w)
    key_b_at = np.concatenate((key_b, np.full((1, len(seconds)), width, dtype)))
    result_b = np.take_along_axis(key_b_at, from_b, axis=0)
    result_a = np.zeros((width, r_count, 1), dtype)
    result_a[:m] = key_a[:width]
    active = np.arange(int(c.max()))[:, None] < c
    step = max(1, GLUE_CHUNK_CELLS // (r_count * (width + 1 + 2 * len(active))))
    columns = np.arange(r_count * min(step, len(seconds)))
    for s0 in range(0, len(seconds), step):
        chunk = slice(s0, s0 + step)
        count = len(kept_a[chunk])
        pairs = count * r_count
        c_max = int(c[chunk].max())
        keys = np.empty((width + 2 * c_max, r_count, count), dtype)
        keys[:width] = np.where(from_a[:, None, chunk], result_a, result_b[:, None, chunk])
        seam = keys[width:].reshape(c_max, 2, r_count, count)
        # a block of a whose first point is glued loses all its points
        glued_a = key_a[m - c_max : m]
        seam[:, 0] = glued_a + (glued_a >= kept_a[chunk]) * dtype.type(spare)
        seam[:, 1] = key_b[:c_max][::-1, None, chunk]
        for t in range(c_max - 1, -1, -1):
            x, y = seam[t]
            low, high = np.minimum(x, y), np.maximum(x, y)
            live = keys[: width + 2 * t]
            live -= (live == high) * ((high - low) * active[c_max - 1 - t, chunk])
        kept = keys[:width]
        rank = np.empty((width + 1, r_count, count), dtype)
        np.cumsum(kept == positions[:, None], axis=0, dtype=dtype, out=rank[:width])
        rank[:width] -= 1
        rank[width] = width
        # flat indices reach (width + 1) * pairs, past the keys' dtype, so
        # they are formed in intp
        index = kept.astype(np.intp)
        index *= pairs
        index += columns[:pairs].reshape(r_count, count)
        glued = rank.take(index)
        out[s0 * r_count : s0 * r_count + pairs].reshape(count, r_count, width)[...] = glued.T
    return out


@dataclass(frozen=True)
class Partition:
    """A set partition of k upper and l lower points: its shape and its word.

    ``word`` gives the block of each point along the boundary walk, labeled
    by first occurrence, e.g. (0, 1, 0, 2).  Shape and word determine the
    partition, so two partitions are equal iff both are equal; the word is
    also the P(0, n) normal form used by the closure engine.  Build instances
    through :func:`parse_partition`, which validates text, or through
    :func:`partition_from_word`.
    """

    upper_count: int
    lower_count: int
    word: Word

    @property
    def n_points(self) -> int:
        return self.upper_count + self.lower_count

    @cached_property
    def blocks(self) -> tuple[tuple[str, ...], ...]:
        """The blocks as point codes in canonical form, the groups that
        :func:`canonical_text` joins: ``(("l1",), ("l2", "l4"), ("l3",))``.

        Inside a block, points are sorted upper-before-lower and left to
        right; blocks are sorted by their least point.
        """
        k, l = self.upper_count, self.lower_count
        return tuple(map(tuple, _group_blocks(k, self.word, _codes(k, l))))

    @cached_property
    def _canonical_text(self) -> str:
        """The text :func:`canonical_text` returns, built once per instance;
        :func:`sorted_partitions` stores the text it sorts by here."""
        k, l = self.upper_count, self.lower_count
        return _text(k, l, self.word, _codes(k, l))

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"Partition({canonical_text(self)!r})"


def _check_shape(upper_count: int, lower_count: int) -> None:
    if upper_count < 0 or lower_count < 0:
        raise PointRangeError("row sizes must be nonnegative")


# [0-9], not \d: \d also takes other scripts' digits, which canonical_text never prints
_HEAD_RE = re.compile(r"\s*P\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*:(.*)", re.DOTALL)
_POINT_RE = re.compile(r"([ul])([0-9]+)")


def _quote(text: str) -> str:
    """``text`` as an error message quotes it: whole up to ``_QUOTED``
    characters, else its first ``_QUOTED`` characters and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _number(digits: str) -> int:
    if len(digits) > _MAX_DIGITS:
        raise ParseError(f"number {_quote(digits)} has more than {_MAX_DIGITS} digits")
    return int(digits)


def parse_partition(text: str) -> Partition:
    """Parse ``P(<k>,<l>): <block>; <block>; ...`` with blocks of u<i>/l<j> codes.

    Whitespace-insensitive.  Inverse of :func:`canonical_text`.  A number has
    at most ``_MAX_DIGITS`` (18) digits as written, leading zeros included.

    The whole text is checked against the grammar first (:class:`ParseError`,
    quoting at most ``_QUOTED`` (40) characters of the input).  Then each
    code, in text order, must name a point of P(k, l) (PointRangeError) that
    no earlier code named (OverlapError), and last every point must be named
    (CoverageError).  The work is bounded by the length of the text, not by
    the declared shape.
    """
    m = _HEAD_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"not a partition literal: {_quote(text)}")
    k, l = _number(m.group(1)), _number(m.group(2))
    body = m.group(3).strip()
    codes: list[tuple[int, str, int]] = []  # (text block, row, index)
    if body:
        for b, chunk in enumerate(body.split(";")):
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty block in partition text")
            for tok in chunk.split(","):
                tok = "".join(tok.split())
                pm = _POINT_RE.fullmatch(tok)
                if pm is None:
                    raise ParseError(f"bad point code {_quote(tok)}")
                codes.append((b, pm.group(1), _number(pm.group(2))))
    label: dict[int, int] = {}  # walk position -> text block
    for b, row, index in codes:
        if not 1 <= index <= (k if row == "u" else l):
            raise PointRangeError(f"point {row}{index} outside P({k},{l})")
        position = k - index if row == "u" else k + index - 1
        if position in label:
            raise OverlapError(f"point {row}{index} appears in two blocks")
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
    return p._canonical_text


def sorted_partitions(upper_count: int, lower_count: int, words: Iterable[Word]) -> list[Partition]:
    """The partitions of P(upper_count, lower_count) with the given
    normalized words, sorted by canonical text.  The row counts are checked
    before any word is read."""
    k, l = upper_count, lower_count
    _check_shape(k, l)
    codes = _codes(k, l)
    out = []
    for w in words:
        p = Partition(k, l, w)
        # fill the cached text, with the codes built once per shape
        object.__setattr__(p, "_canonical_text", _text(k, l, w, codes))
        out.append(p)
    out.sort(key=attrgetter("_canonical_text"))
    return out


def one_row_texts(words: Iterable[Word]) -> list[str]:
    """The canonical texts of the one-row partitions P(0, n) with the given
    normalized words, in the order given.  No :class:`Partition` is built:
    each word is walked once, with the point codes built once per length."""
    codes: dict[int, list[str]] = {}
    texts = []
    for w in words:
        n = len(w)
        if n not in codes:
            codes[n] = _codes(0, n)
        texts.append(_text(0, n, w, codes[n]))
    return texts


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
