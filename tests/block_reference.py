"""Block-and-point implementations of point-list input, the canonical text,
the category operations, the catalog predicates, the intertwiner matrix, the
dense intertwiner check (Kronecker powers of the group generators and
Kronecker sums of the Lie generators), the dense functor check and the whole
groups S_n and H_n, kept only as a reference for tests.

The package computes all of these on boundary words and reads text straight
into the word.  The versions here keep the package's former point layer:
``Point``, ``upper``, ``lower`` and the validating ``make_partition``, which
checks a list of point blocks in order (range and overlap per point, then
coverage) and is the oracle for ``parse_partition``'s errors.  They walk the
boundary as a list of ``Point``s, sort the canonical block form out of it by
its definition, and move ``Point``s, as the package did before the word
became its one representation.  The crossing test is an independent brute
force over four walk positions.  ``whole_group`` lists every element of a
finite group, as the package did before it kept only generators.
"""

from __future__ import annotations

import itertools
from itertools import chain, islice
from typing import Iterable, NamedTuple

import numpy as np

from partcat.errors import CoverageError, OverlapError, PointRangeError
from partcat.linmap import KIND_SYMMETRIC, GroupRep
from partcat.ops import ComposeResult, Rotation
from partcat.partition import Partition, normalize_word

UPPER = "u"
LOWER = "l"

_SHOWN_UNCOVERED = 8  # uncovered points named in a coverage error


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
    if k < 0 or l < 0:
        raise PointRangeError("row sizes must be nonnegative")
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


def walk(p: Partition) -> list[Point]:
    """The boundary walk u_k, ..., u_1, l_1, ..., l_l, one point per letter."""
    uppers = [Point(UPPER, i) for i in range(p.upper_count, 0, -1)]
    return uppers + [Point(LOWER, j) for j in range(1, p.lower_count + 1)]


def _point_key(pt: Point) -> tuple[bool, int]:
    return pt.row != UPPER, pt.index


def blocks(p: Partition) -> tuple[tuple[Point, ...], ...]:
    """The canonical block form: points upper-before-lower and left to right
    inside a block, blocks sorted by their least point."""
    by_label: dict[int, list[Point]] = {}
    for pt, x in zip(walk(p), p.word):
        by_label.setdefault(x, []).append(pt)
    inner = (tuple(sorted(b, key=_point_key)) for b in by_label.values())
    return tuple(sorted(inner, key=lambda b: _point_key(b[0])))


def canonical_text(p: Partition) -> str:
    head = f"P({p.upper_count},{p.lower_count}):"
    body = "; ".join(",".join(f"{pt.row}{pt.index}" for pt in b) for b in blocks(p))
    return f"{head} {body}" if body else head


def tensor(p: Partition, q: Partition) -> Partition:
    shifted = [
        [
            Point(pt.row, pt.index + (p.upper_count if pt.row == UPPER else p.lower_count))
            for pt in block
        ]
        for block in blocks(q)
    ]
    return make_partition(
        p.upper_count + q.upper_count,
        p.lower_count + q.lower_count,
        list(blocks(p)) + shifted,
    )


def compose(p: Partition, q: Partition) -> ComposeResult:
    assert p.lower_count == q.upper_count
    mid = p.lower_count
    # node ids: p-upper 0..k-1, middle k..k+mid-1, q-lower k+mid..k+mid+m-1
    k, m = p.upper_count, q.lower_count
    parent = list(range(k + mid + m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    def p_node(pt: Point) -> int:
        return pt.index - 1 if pt.row == UPPER else k + pt.index - 1

    def q_node(pt: Point) -> int:
        return k + pt.index - 1 if pt.row == UPPER else k + mid + pt.index - 1

    for block in blocks(p):
        for pt in block[1:]:
            union(p_node(block[0]), p_node(pt))
    for block in blocks(q):
        for pt in block[1:]:
            union(q_node(block[0]), q_node(pt))

    survivors: dict[int, list[Point]] = {}
    for i in range(k):
        survivors.setdefault(find(i), []).append(Point(UPPER, i + 1))
    for j in range(m):
        survivors.setdefault(find(k + mid + j), []).append(Point(LOWER, j + 1))
    loop_roots = {find(k + i) for i in range(mid)} - set(survivors)
    return ComposeResult(
        result=make_partition(k, m, survivors.values()),
        removed_loops=len(loop_roots),
    )


def involute(p: Partition) -> Partition:
    flipped = [
        [Point(LOWER if pt.row == UPPER else UPPER, pt.index) for pt in block]
        for block in blocks(p)
    ]
    return make_partition(p.lower_count, p.upper_count, flipped)


def applicable(p: Partition, where: Rotation) -> bool:
    if where in (Rotation.CYCLE_LEFT, Rotation.CYCLE_RIGHT):
        return p.upper_count == 0 and p.lower_count > 0
    if where in (Rotation.DOWN_LEFT, Rotation.DOWN_RIGHT):
        return p.upper_count > 0
    return p.lower_count > 0


def rotate(p: Partition, where: Rotation) -> Partition:
    assert applicable(p, where)
    k, l = p.upper_count, p.lower_count
    if where is Rotation.CYCLE_LEFT:
        move = {Point(LOWER, 1): Point(LOWER, l)}
        move.update({Point(LOWER, j): Point(LOWER, j - 1) for j in range(2, l + 1)})
        new_k, new_l = 0, l
    elif where is Rotation.CYCLE_RIGHT:
        move = {Point(LOWER, l): Point(LOWER, 1)}
        move.update({Point(LOWER, j): Point(LOWER, j + 1) for j in range(1, l)})
        new_k, new_l = 0, l
    elif where is Rotation.DOWN_LEFT:
        move = {Point(UPPER, 1): Point(LOWER, 1)}
        move.update({Point(UPPER, i): Point(UPPER, i - 1) for i in range(2, k + 1)})
        move.update({Point(LOWER, j): Point(LOWER, j + 1) for j in range(1, l + 1)})
        new_k, new_l = k - 1, l + 1
    elif where is Rotation.UP_LEFT:
        move = {Point(LOWER, 1): Point(UPPER, 1)}
        move.update({Point(UPPER, i): Point(UPPER, i + 1) for i in range(1, k + 1)})
        move.update({Point(LOWER, j): Point(LOWER, j - 1) for j in range(2, l + 1)})
        new_k, new_l = k + 1, l - 1
    elif where is Rotation.DOWN_RIGHT:
        move = {Point(UPPER, k): Point(LOWER, l + 1)}
        new_k, new_l = k - 1, l + 1
    else:
        move = {Point(LOWER, l): Point(UPPER, k + 1)}
        new_k, new_l = k + 1, l - 1
    moved = [[move.get(pt, pt) for pt in block] for block in blocks(p)]
    return make_partition(new_k, new_l, moved)


# ---------------------------------------------------------------------------
# predicates


def noncrossing(p: Partition) -> bool:
    """No walk positions a < b < c < d with a, c in one block, b, d in another."""
    block_of = {pt: i for i, blk in enumerate(blocks(p)) for pt in blk}
    labels = [block_of[pt] for pt in walk(p)]
    for a, b, c, d in itertools.combinations(range(len(labels)), 4):
        if labels[a] == labels[c] != labels[b] == labels[d]:
            return False
    return True


def signed_counts(p: Partition) -> list[tuple[int, int]]:
    """(plus, minus) per block; marks alternate + - + - along the walk."""
    plus = set(walk(p)[::2])
    return [
        (sum(1 for pt in block if pt in plus), sum(1 for pt in block if pt not in plus))
        for block in blocks(p)
    ]


def _sizes_at_most_two(p: Partition) -> bool:
    return all(len(b) <= 2 for b in blocks(p))


def _all_pairs(p: Partition) -> bool:
    return all(len(b) == 2 for b in blocks(p))


def _all_even(p: Partition) -> bool:
    return all(len(b) % 2 == 0 for b in blocks(p))


def _even_odd_blocks(p: Partition) -> bool:
    return sum(1 for b in blocks(p) if len(b) % 2) % 2 == 0


def _even_singletons(p: Partition) -> bool:
    return sum(1 for b in blocks(p) if len(b) == 1) % 2 == 0


def _pairs_balanced(p: Partition) -> bool:
    for block, (plus, minus) in zip(blocks(p), signed_counts(p)):
        if len(block) == 2 and not (plus == 1 and minus == 1):
            return False
    return True


def _blocks_balanced(p: Partition) -> bool:
    return all(plus == minus for plus, minus in signed_counts(p))


PREDICATES = {
    "O+": lambda p: noncrossing(p) and _all_pairs(p),
    "H+": lambda p: noncrossing(p) and _all_even(p),
    "S'+": lambda p: noncrossing(p) and _even_odd_blocks(p),
    "S+": noncrossing,
    "B#+": lambda p: noncrossing(p)
    and _sizes_at_most_two(p)
    and _pairs_balanced(p)
    and _even_singletons(p),
    "B'+": lambda p: noncrossing(p) and _sizes_at_most_two(p) and _even_singletons(p),
    "B+": lambda p: noncrossing(p) and _sizes_at_most_two(p),
    "O": _all_pairs,
    "H": _all_even,
    "S'": _even_odd_blocks,
    "S": lambda p: True,
    "B'": lambda p: _sizes_at_most_two(p) and _even_singletons(p),
    "B": _sizes_at_most_two,
    "O*": lambda p: _all_pairs(p) and _blocks_balanced(p),
    "H*": lambda p: _all_even(p) and _blocks_balanced(p),
    "B#*": lambda p: _sizes_at_most_two(p) and _pairs_balanced(p) and _even_singletons(p),
}


# ---------------------------------------------------------------------------
# intertwiner matrix


# dense T-matrices by (upper count, lower count, word as given, n); the
# label-offset words of patched operations get their own entries
_T_MATRICES: dict[tuple[int, int, tuple[int, ...], int], np.ndarray] = {}


def clear_t_matrices() -> None:
    _T_MATRICES.clear()


def t_matrix(p: Partition, n: int) -> np.ndarray:
    """The dense 0/1 matrix of p at dimension n, memoized and read-only;
    ``clear_t_matrices`` empties the memo."""
    key = (p.upper_count, p.lower_count, p.word, n)
    mat = _T_MATRICES.get(key)
    if mat is None:
        mat = _T_MATRICES[key] = _dense_t_matrix(p, n)
        mat.flags.writeable = False
    return mat


def _dense_t_matrix(p: Partition, n: int) -> np.ndarray:
    k, l = p.upper_count, p.lower_count
    mat = np.zeros((n**l, n**k), dtype=np.int64)
    upper_weight = [n ** (k - a - 1) for a in range(k)]
    lower_weight = [n ** (l - a - 1) for a in range(l)]
    bl = blocks(p)
    block_cols = np.array(
        [sum(upper_weight[pt.index - 1] for pt in blk if pt.row == UPPER) for blk in bl],
        dtype=np.int64,
    )
    block_rows = np.array(
        [sum(lower_weight[pt.index - 1] for pt in blk if pt.row == LOWER) for blk in bl],
        dtype=np.int64,
    )
    # one column per assignment of a value in 0..n-1 to each block
    values = np.indices((n,) * len(bl)).reshape(len(bl), n ** len(bl))
    mat[block_rows @ values, block_cols @ values] = 1
    return mat


def kron_power(u: np.ndarray, k: int) -> np.ndarray:
    out = np.array([[1]], dtype=u.dtype)
    for _ in range(k):
        out = np.kron(out, u)
    return out


def whole_group(kind: str, n: int) -> GroupRep:
    """Every element of S_n (n! permutation matrices) or of H_n (2^n n!
    signed permutation matrices), for comparison with the generators of
    ``classical_rep``."""
    signs = (1,) if kind == KIND_SYMMETRIC else (1, -1)
    elements = []
    for perm in itertools.permutations(range(n)):
        for chosen in itertools.product(signs, repeat=n):
            m = np.zeros((n, n), dtype=np.int64)
            for j, (image, sign) in enumerate(zip(perm, chosen)):
                m[image, j] = sign
            elements.append(m)
    return GroupRep(kind, n, tuple(elements))


def kron_sum(x: np.ndarray, k: int) -> np.ndarray:
    """The Lie action of x on k legs: sum over a of I^{(x)a} (x) x (x) I^{(x)(k-1-a)}."""
    n = x.shape[0]
    total = np.zeros((n**k, n**k), dtype=x.dtype)
    for a in range(k):
        left, right = np.eye(n**a, dtype=x.dtype), np.eye(n ** (k - 1 - a), dtype=x.dtype)
        total += np.kron(np.kron(left, x), right)
    return total


def check_intertwiner(rep, p: Partition) -> bool:
    """True iff T_p u^{tensor k} = u^{tensor l} T_p for every element u, and
    T_p dX^(k) = dX^(l) T_p for every Lie generator X, where dX^(k) is the
    dense Kronecker sum ``kron_sum(X, k)``; both sides are compared exactly.
    """
    k, l = p.upper_count, p.lower_count
    tp = t_matrix(p, rep.n)
    for u in rep.elements:
        if not np.array_equal(tp @ kron_power(u, k), kron_power(u, l) @ tp):
            return False
    for x in rep.lie:
        if not np.array_equal(tp @ kron_sum(x, k), kron_sum(x, l) @ tp):
            return False
    return True


def check_functor(p: Partition, q: Partition, n: int) -> bool:
    """The functor identities on dense T-matrices, each compared whole.

    Composition picks up one factor n per removed loop; tensor product maps
    to the Kronecker product; turning a diagram upside down transposes.
    """
    assert p.lower_count == q.upper_count
    tp = t_matrix(p, n)
    tq = t_matrix(q, n)
    comp = compose(p, q)
    t_comp = t_matrix(comp.result, n)
    ok_compose = np.array_equal(tq @ tp, n**comp.removed_loops * t_comp)
    t_tens = t_matrix(tensor(p, q), n)
    ok_tensor = np.array_equal(t_tens, np.kron(tp, tq))
    ok_invol = np.array_equal(t_matrix(involute(p), n), tp.T) and np.array_equal(
        t_matrix(involute(q), n), tq.T
    )
    return bool(ok_compose and ok_tensor and ok_invol)
