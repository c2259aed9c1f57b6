"""Exact intertwiner matrices of partitions and concrete group representations.

A partition p in P(k, l) induces a linear map (C^n)^{tensor k} ->
(C^n)^{tensor l} whose matrix has a 1 exactly where the chosen upper indices
i and lower indices j are constant along every block of p.  Index tuples are
flattened big-endian: tuple (t_1, .., t_k) with entries in 1..n maps to
sum (t_a - 1) * n^(k - a).

``t_matrix``, ``intertwiner_table`` and ``check_functor`` all start from
xi_w, the 0/1 vector in (C^n)^{tensor m} of the boundary word w (legs
u_k .. u_1, l_1 .. l_l) that is 1 where the indices are constant along every
block, built by one function; ``t_matrix`` regroups its legs and returns the
int64 matrix itself.  By Frobenius reciprocity, for orthogonal u,
T_p u^{tensor k} = u^{tensor l} T_p exactly when u^{tensor m} xi_w = xi_w
(Banica-Speicher, arXiv:0808.2628): one test per word, shared by every
rotation of p, with u applied to one leg at a time.

``check_functor`` tests the functor law p -> T_p with no T-matrix built.
Each matrix identity becomes a vector identity by one fixed bijection of
legs applied to both sides: composition is one contraction of xi_p with
xi_q (q's upper legs reversed) over the middle legs, the tensor product is
one outer product (the walk of p (x) q is q's upper legs, all of p, q's
lower legs), and involution reverses all legs of xi_p and of xi_q.  The
dense check on T-matrices and ``np.kron`` is kept in
``tests/block_reference.py`` as the reference its verdicts are tested
against.

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


def _xi(word: tuple[int, ...], n: int) -> np.ndarray:
    """xi_w as an int64 0/1 vector of n^len(w) entries, legs in word order,
    big-endian.

    The 1 entries are the generalized diagonal of the legs: the view of xi
    with one axis per block, each leg on its block's axis.  Callers bound the
    legs with ``check_tensor_cap`` (at most 26 for n >= 2), well inside the
    52 subscripts of ``np.einsum``.
    """
    if n == 1 or not word:
        return np.ones(1, dtype=np.int64)
    xi = np.zeros((n,) * len(word), dtype=np.int64)
    np.einsum(xi, list(word), list(range(max(word) + 1)))[...] = 1
    return xi.ravel()


def t_matrix(p: Partition, n: int) -> np.ndarray:
    """The 0/1 int64 matrix of p at dimension n, of shape (n^l, n^k): xi_w
    with its legs regrouped."""
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    k, l = p.upper_count, p.lower_count
    check_tensor_cap(n, k + l)
    if n == 1:
        # one entry; no reshape to one axis per leg, which numpy caps at 64
        return np.ones((1, 1), np.int64)
    # legs u_k .. u_1, l_1 .. l_l -> rows l_1 .. l_l, columns u_1 .. u_k
    legs = _xi(p.word, n).reshape((n,) * (k + l))
    legs = legs.transpose(*range(k, k + l), *reversed(range(k)))
    return legs.reshape(n**l, n**k)


def _matches(
    r: Partition, shape: tuple[int, int], n: int, expected: np.ndarray, scale: int = 1
) -> bool:
    """Whether r has the (upper, lower) ``shape``, compared as powers of n
    as the shapes of T-matrices are, and ``scale * xi_r`` equals
    ``expected`` entry by entry."""
    if (n**r.upper_count, n**r.lower_count) != (n ** shape[0], n ** shape[1]):
        return False
    return bool((scale * _xi(r.word, n) == expected.ravel()).all())


def check_functor(p: Partition, q: Partition, n: int) -> bool:
    """Check the diagram-to-matrix identities on a composable pair.

    Composition picks up one factor n per removed loop; tensor product maps
    to the Kronecker product; turning a diagram upside down transposes.  Each
    identity is checked on xi vectors: both sides of the matrix identity go
    through one fixed bijection of legs, so every verdict is that of the
    dense check on T-matrices (kept in ``tests/block_reference.py``).  With
    X_w the matrix of xi_w with rows u_k .. u_1 and columns l_1 .. l_l:

    * ``T_q T_p = n^loops T_qp`` is ``X_p Y_q = n^loops X_qp``, where Y_q is
      X_q with its upper legs reversed, so that both sides of the
      contraction list the middle legs in the same order;
    * ``T_{p (x) q} = T_p (x) T_q``: the walk of p (x) q is q's upper legs,
      all of p's legs, then q's lower legs, so xi_{p (x) q} is the outer
      product of xi_q, split after its upper legs, with xi_p in the middle;
    * ``T_{p*} = T_p^T``: the walk of p* is p's walk reversed, so xi_{p*} is
      xi_p with all its legs reversed, and likewise for q.

    The shape of each operation's result is compared first, as powers of n.
    """
    if p.lower_count != q.upper_count:
        raise ArityMismatchError("check_functor needs composable partitions")
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    kp, lp, kq, lq = p.upper_count, p.lower_count, q.upper_count, q.lower_count
    # the tensor product has every point of p and q: the largest vector here
    check_tensor_cap(n, kp + lp + kq + lq)
    if n == 1:
        return True  # every T-matrix at n = 1 is [[1]]
    xp, xq = _xi(p.word, n), _xi(q.word, n)
    yq = xq.reshape((n,) * kq + (n**lq,)).transpose(*reversed(range(kq)), kq)
    product = xp.reshape(n**kp, n**lp) @ yq.reshape(n**kq, n**lq)
    outer = xq.reshape(n**kq, 1, n**lq) * xp.reshape(1, -1, 1)
    comp = compose(p, q)
    return (
        _matches(comp.result, (kp, lq), n, product, n**comp.removed_loops)
        and _matches(tensor(p, q), (kp + kq, lp + lq), n, outer)
        and _matches(involute(p), (lp, kp), n, xp.reshape((n,) * (kp + lp)).T)
        and _matches(involute(q), (lq, kq), n, xq.reshape((n,) * (kq + lq)).T)
    )


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
        if seed < 0:
            raise BadParamError(f"seed must be >= 0, got {seed}")
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
        row[...] = _xi(word, n)
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
