"""Exact intertwiner matrices of partitions and concrete group representations.

A partition p in P(k, l) induces a linear map (C^n)^{tensor k} ->
(C^n)^{tensor l} whose matrix has a 1 exactly where the chosen upper indices
i and lower indices j are constant along every block of p.  Index tuples are
flattened big-endian: tuple (t_1, .., t_k) with entries in 1..n maps to
sum (t_a - 1) * n^(k - a).

Four concrete orthogonal representations are provided to exercise the
partition <-> relation dictionary: all permutation matrices, all signed
permutation matrices, row/column-stochastic conjugates of orthogonal
matrices, and seeded random orthogonal samples.  The first two are exact
integer matrices; the last two are floating point with an explicit
tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatchError,
    EnumerationTooLargeError,
    IndexRangeError,
    MemoryCapError,
)
from .ops import compose, involute, tensor
from .partition import Partition

MATRIX_SIDE_CAP = 10_000

KIND_SYMMETRIC = "symmetric-group"
KIND_HYPEROCTAHEDRAL = "hyperoctahedral"
KIND_BISTOCHASTIC = "bistochastic"
KIND_ORTHOGONAL = "orthogonal-sample"

_SYMMETRIC_MAX_N = 6
_HYPEROCTAHEDRAL_MAX_N = 4


def delta(p: Partition, i: tuple[int, ...], j: tuple[int, ...], n: int) -> int:
    """1 iff the indices agree along every block of p, else 0."""
    if len(i) != p.upper_count or len(j) != p.lower_count:
        raise IndexRangeError("index tuple lengths must match the partition shape")
    for t in (*i, *j):
        if not 1 <= t <= n:
            raise IndexRangeError(f"index {t} outside 1..{n}")
    # the indices in boundary-walk order: u_k .. u_1, then l_1 .. l_l
    value_of: dict[int, int] = {}
    for x, t in zip(p.word, (*i[::-1], *j)):
        if value_of.setdefault(x, t) != t:
            return 0
    return 1


@dataclass(frozen=True)
class IntertwinerMatrix:
    """Dense 0/1 matrix of the map induced by ``partition`` at dimension n."""

    n: int
    partition: Partition
    matrix: np.ndarray  # shape (n**lower_count, n**upper_count), dtype int64


def t_matrix(p: Partition, n: int) -> IntertwinerMatrix:
    """Populate the 0/1 matrix of p at dimension n.

    Nonzero entries are walked directly: one per assignment of a value in
    1..n to each block.
    """
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    k, l = p.upper_count, p.lower_count
    rows, cols = n**l, n**k
    if rows > MATRIX_SIDE_CAP or cols > MATRIX_SIDE_CAP:
        raise MemoryCapError(f"matrix side {max(rows, cols)} exceeds {MATRIX_SIDE_CAP}")
    mat = np.zeros((rows, cols), dtype=np.int64)
    # walk position i < k is u_{k-i}, of column weight n^i; position i >= k
    # is l_{i-k+1}, of row weight n^(k+l-1-i)
    blocks = max(p.word, default=-1) + 1
    block_cols = [0] * blocks
    block_rows = [0] * blocks
    for i, x in enumerate(p.word):
        if i < k:
            block_cols[x] += n**i
        else:
            block_rows[x] += n ** (k + l - 1 - i)
    for values in itertools.product(range(n), repeat=blocks):
        col = sum(v * w for v, w in zip(values, block_cols))
        row = sum(v * w for v, w in zip(values, block_rows))
        mat[row, col] = 1
    return IntertwinerMatrix(n=n, partition=p, matrix=mat)


_T_CACHE: dict[tuple[Partition, int], IntertwinerMatrix] = {}


def t_matrix_cached(p: Partition, n: int) -> IntertwinerMatrix:
    key = (p, n)
    out = _T_CACHE.get(key)
    if out is None:
        out = _T_CACHE[key] = t_matrix(p, n)
    return out


def kron_power(u: np.ndarray, k: int) -> np.ndarray:
    out = np.array([[1]], dtype=u.dtype)
    for _ in range(k):
        out = np.kron(out, u)
    return out


def check_functor(p: Partition, q: Partition, n: int) -> bool:
    """Check the diagram-to-matrix identities on a composable pair.

    Composition picks up one factor n per removed loop; tensor product maps
    to the Kronecker product; turning a diagram upside down transposes.
    """
    if p.lower_count != q.upper_count:
        raise ArityMismatchError("check_functor needs composable partitions")
    tp = t_matrix_cached(p, n).matrix
    tq = t_matrix_cached(q, n).matrix
    comp = compose(p, q)
    t_comp = t_matrix_cached(comp.result, n).matrix
    ok_compose = np.array_equal(tq @ tp, n**comp.removed_loops * t_comp)
    t_tens = t_matrix_cached(tensor(p, q), n).matrix
    ok_tensor = np.array_equal(t_tens, np.kron(tp, tq))
    ok_invol = np.array_equal(
        t_matrix_cached(involute(p), n).matrix, tp.T
    ) and np.array_equal(t_matrix_cached(involute(q), n).matrix, tq.T)
    return bool(ok_compose and ok_tensor and ok_invol)


@dataclass(frozen=True)
class GroupRep:
    """A finite family of orthogonal n x n matrices.

    ``tolerance`` is 0 for exactly enumerated integer families and a small
    float for sampled ones.
    """

    kind: str
    n: int
    elements: tuple[np.ndarray, ...]
    tolerance: float

    @property
    def exact(self) -> bool:
        return self.tolerance == 0


def _permutation_matrices(n: int) -> list[np.ndarray]:
    out = []
    for perm in itertools.permutations(range(n)):
        m = np.zeros((n, n), dtype=np.int64)
        for j, image in enumerate(perm):
            m[image, j] = 1
        out.append(m)
    return out


def _bistochastic_conjugator(n: int) -> np.ndarray:
    """A fixed orthogonal T with first column (1, .., 1)/sqrt(n)."""
    basis = np.eye(n)
    basis[:, 0] = 1.0
    q, r = np.linalg.qr(basis)
    q = q * np.sign(np.diag(r))
    return q


def classical_rep(kind: str, n: int, sample_count: int = 20, seed: int = 0) -> GroupRep:
    """Build one of the four concrete representations at dimension n.

    Exact kinds enumerate the whole group; sampled kinds draw
    ``sample_count`` matrices from a generator seeded with ``seed``.
    Row/column sums of every bistochastic element are 1: they are conjugates
    T (1 + u') T^t of orthogonal u' at dimension n-1, where T maps the first
    basis vector to the normalized all-ones vector.
    """
    if n < 2:
        raise EnumerationTooLargeError("representations need n >= 2")
    if kind == KIND_SYMMETRIC:
        if n > _SYMMETRIC_MAX_N:
            raise EnumerationTooLargeError(f"n! too large at n={n}")
        return GroupRep(kind, n, tuple(_permutation_matrices(n)), 0.0)
    if kind == KIND_HYPEROCTAHEDRAL:
        if n > _HYPEROCTAHEDRAL_MAX_N:
            raise EnumerationTooLargeError(f"2^n n! too large at n={n}")
        elements = []
        for perm_matrix in _permutation_matrices(n):
            for signs in itertools.product((1, -1), repeat=n):
                elements.append(perm_matrix * np.array(signs)[None, :])
        return GroupRep(kind, n, tuple(elements), 0.0)
    if kind == KIND_ORTHOGONAL:
        rng = np.random.default_rng(seed)
        elements = []
        for _ in range(sample_count):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            elements.append(q * np.sign(np.diag(r)))
        return GroupRep(kind, n, tuple(elements), 1e-9)
    if kind == KIND_BISTOCHASTIC:
        inner = classical_rep(KIND_ORTHOGONAL, n - 1, sample_count, seed) if n >= 3 else None
        t = _bistochastic_conjugator(n)
        elements = []
        if n == 2:
            # O(1) = {1, -1}
            small = [np.array([[1.0]]), np.array([[-1.0]])][: max(1, sample_count)]
        else:
            small = [u for u in inner.elements]
        for u_small in small:
            embedded = np.eye(n)
            embedded[1:, 1:] = u_small
            elements.append(t @ embedded @ t.T)
        return GroupRep(kind, n, tuple(elements), 1e-9)
    raise EnumerationTooLargeError(f"unknown representation kind {kind!r}")


def check_intertwiner(rep: GroupRep, p: Partition) -> bool:
    """True iff T_p u^{tensor k} = u^{tensor l} T_p for every element u."""
    k, l = p.upper_count, p.lower_count
    if rep.n**k > MATRIX_SIDE_CAP or rep.n**l > MATRIX_SIDE_CAP:
        raise MemoryCapError("tensor powers exceed the dense-size cap")
    tp = t_matrix_cached(p, rep.n).matrix
    for u in rep.elements:
        uk = kron_power(u, k)
        ul = kron_power(u, l)
        lhs = tp @ uk
        rhs = ul @ tp
        if rep.exact:
            if not np.array_equal(lhs, rhs):
                return False
        elif np.max(np.abs(lhs - rhs)) > rep.tolerance:
            return False
    return True


def intertwiner_table(rep: GroupRep, partitions: list[Partition]) -> dict[Partition, bool]:
    """check_intertwiner for many partitions, sharing tensor powers per shape."""
    out: dict[Partition, bool] = {}
    by_shape: dict[tuple[int, int], list[Partition]] = {}
    for p in partitions:
        by_shape.setdefault((p.upper_count, p.lower_count), []).append(p)
    for (k, l), group in by_shape.items():
        if rep.n**k > MATRIX_SIDE_CAP or rep.n**l > MATRIX_SIDE_CAP:
            raise MemoryCapError("tensor powers exceed the dense-size cap")
        stack_dtype = np.int64 if rep.exact else np.float64
        stack = np.stack(
            [t_matrix_cached(p, rep.n).matrix.astype(stack_dtype) for p in group]
        )
        alive = np.ones(len(group), dtype=bool)
        for u in rep.elements:
            if not alive.any():
                break
            uk = kron_power(u, k)
            ul = kron_power(u, l)
            lhs = stack[alive] @ uk
            rhs = ul @ stack[alive]
            if rep.exact:
                good = (lhs == rhs).all(axis=(1, 2))
            else:
                good = np.abs(lhs - rhs).max(axis=(1, 2)) <= rep.tolerance
            idx = np.flatnonzero(alive)
            alive[idx[~good]] = False
        for p, ok in zip(group, alive):
            out[p] = bool(ok)
    return out
