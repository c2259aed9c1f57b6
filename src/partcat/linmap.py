"""Exact intertwiner matrices of partitions and concrete group representations.

A partition p in P(k, l) induces a linear map (C^n)^{tensor k} ->
(C^n)^{tensor l} whose matrix has a 1 exactly where the chosen upper indices
i and lower indices j are constant along every block of p.  Index tuples are
flattened big-endian: tuple (t_1, .., t_k) with entries in 1..n maps to
sum (t_a - 1) * n^(k - a).

Both ``t_matrix`` and ``intertwiner_table`` start from xi_w, the 0/1 vector
in (C^n)^{tensor m} of the boundary word w (legs u_k .. u_1, l_1 .. l_l) that
is 1 where the indices are constant along every block; ``t_matrix`` regroups
its legs and returns the int64 matrix itself.  By Frobenius reciprocity,
for orthogonal u, T_p u^{tensor k} = u^{tensor l} T_p exactly when
u^{tensor m} xi_w = xi_w (Banica-Speicher, arXiv:0808.2628): one test per
word, shared by every rotation of p, with u applied to one leg at a time.

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
    BadParamError,
    CapExceededError,
    IndexRangeError,
    MemoryCapError,
)
from .ops import compose, involute, tensor
from .partition import Partition

# bytes of one xi_w or T_p (8 * n^points), of one chunk of xi_w's, of the samples
T_BYTES_CAP = 1 << 26

KIND_SYMMETRIC = "symmetric-group"
KIND_HYPEROCTAHEDRAL = "hyperoctahedral"
KIND_BISTOCHASTIC = "bistochastic"
KIND_ORTHOGONAL = "orthogonal-sample"

_SYMMETRIC_MAX_N = 6
_HYPEROCTAHEDRAL_MAX_N = 4


def check_tensor_cap(n: int, points: int) -> None:
    """Refuse a vector of n^points 8-byte entries larger than ``T_BYTES_CAP``."""
    # for n >= 2, 26 points already exceed the cap: no huge power is formed
    if (n > 1 and points > 26) or 8 * n**points > T_BYTES_CAP:
        raise MemoryCapError(
            f"a tensor of {n}^{points} 8-byte entries exceeds the {T_BYTES_CAP}-byte cap"
        )


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


def _support(word: tuple[int, ...], n: int) -> np.ndarray:
    """Flat indices of the 1 entries of xi_w, legs in word order, big-endian.

    One entry per assignment of a value in 0..n-1 to each block.
    """
    m = len(word)
    weights = [0] * (max(word, default=-1) + 1)
    for a, x in enumerate(word):
        weights[x] += n ** (m - 1 - a)
    flat = np.zeros(1, dtype=np.int64)
    values = np.arange(n, dtype=np.int64)
    for w in weights:
        flat = (flat[:, None] + values * w).ravel()
    return flat


def t_matrix(p: Partition, n: int) -> np.ndarray:
    """The 0/1 int64 matrix of p at dimension n, of shape (n^l, n^k): xi_w
    with its legs regrouped."""
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    k, l = p.upper_count, p.lower_count
    check_tensor_cap(n, k + l)
    xi = np.zeros(n ** (k + l), dtype=np.int64)
    xi[_support(p.word, n)] = 1
    # legs u_k .. u_1, l_1 .. l_l -> rows l_1 .. l_l, columns u_1 .. u_k
    legs = xi.reshape((n,) * (k + l)).transpose(*range(k, k + l), *reversed(range(k)))
    return legs.reshape(n**l, n**k)


def check_functor(p: Partition, q: Partition, n: int) -> bool:
    """Check the diagram-to-matrix identities on a composable pair.

    Composition picks up one factor n per removed loop; tensor product maps
    to the Kronecker product; turning a diagram upside down transposes.
    """
    if p.lower_count != q.upper_count:
        raise ArityMismatchError("check_functor needs composable partitions")
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
        raise BadParamError(f"representations need n >= 2, got {n}")
    if kind == KIND_SYMMETRIC:
        if n > _SYMMETRIC_MAX_N:
            raise CapExceededError(f"n! too large at n={n} (at most {_SYMMETRIC_MAX_N})")
        return GroupRep(kind, n, tuple(_permutation_matrices(n)), 0.0)
    if kind == KIND_HYPEROCTAHEDRAL:
        if n > _HYPEROCTAHEDRAL_MAX_N:
            raise CapExceededError(f"2^n n! too large at n={n} (at most {_HYPEROCTAHEDRAL_MAX_N})")
        elements = []
        for perm_matrix in _permutation_matrices(n):
            for signs in itertools.product((1, -1), repeat=n):
                elements.append(perm_matrix * np.array(signs)[None, :])
        return GroupRep(kind, n, tuple(elements), 0.0)
    if kind in (KIND_ORTHOGONAL, KIND_BISTOCHASTIC):
        if sample_count < 1:
            raise BadParamError(f"sample count must be >= 1, got {sample_count}")
        if 8 * n * n * sample_count > T_BYTES_CAP:
            raise MemoryCapError(
                f"{sample_count} samples of {n}x{n} matrices exceed the {T_BYTES_CAP}-byte cap"
            )
    if kind == KIND_ORTHOGONAL:
        rng = np.random.default_rng(seed)
        elements = []
        for _ in range(sample_count):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            elements.append(q * np.sign(np.diag(r)))
        return GroupRep(kind, n, tuple(elements), 1e-9)
    if kind == KIND_BISTOCHASTIC:
        if n == 2:
            # O(1) = {1, -1}
            small = [np.array([[1.0]]), np.array([[-1.0]])][:sample_count]
        else:
            small = classical_rep(KIND_ORTHOGONAL, n - 1, sample_count, seed).elements
        t = _bistochastic_conjugator(n)
        elements = []
        for u_small in small:
            embedded = np.eye(n)
            embedded[1:, 1:] = u_small
            elements.append(t @ embedded @ t.T)
        return GroupRep(kind, n, tuple(elements), 1e-9)
    raise BadParamError(f"unknown representation kind {kind!r}")


def intertwiner_table(rep: GroupRep, partitions: list[Partition]) -> dict[Partition, bool]:
    """Whether T_p u^{tensor k} = u^{tensor l} T_p for every element u, per p.

    Tested as u^{tensor m} xi_w = xi_w, once per distinct word w; exactly for
    the exact kinds, within ``rep.tolerance`` entrywise for the sampled ones.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for word in dict.fromkeys(p.word for p in partitions):
        by_length.setdefault(len(word), []).append(word)
    for m in by_length:
        check_tensor_cap(rep.n, m)
    fixed: dict[tuple[int, ...], bool] = {}
    for m, words in by_length.items():
        per_chunk = T_BYTES_CAP // (8 * rep.n**m)
        for start in range(0, len(words), per_chunk):
            chunk = words[start : start + per_chunk]
            fixed.update(zip(chunk, _fixed_by_all(rep, chunk).tolist()))
    return {p: fixed[p.word] for p in partitions}


def _fixed_by_all(rep: GroupRep, words: list[tuple[int, ...]]) -> np.ndarray:
    """For words of one length m: is xi_w fixed by u^{tensor m} for every u."""
    n, m = rep.n, len(words[0])
    xi = np.zeros((len(words), n**m))
    for row, word in zip(xi, words):
        row[_support(word, n)] = 1.0
    alive = np.ones(len(words), dtype=bool)
    for u in rep.elements:
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        before = xi[idx]
        after = before
        for _ in range(m):
            # u on the last leg, then that leg moved to the front: after m
            # steps every leg has met u once and the legs are back in order
            after = (after.reshape(-1, n) @ u.T).reshape(len(idx), -1, n)
            after = after.transpose(0, 2, 1).reshape(len(idx), -1)
        if rep.exact:
            good = (after == before).all(axis=1)
        else:
            good = np.abs(after - before).max(axis=1) <= rep.tolerance
        alive[idx[~good]] = False
    return alive
