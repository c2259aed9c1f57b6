"""Exact intertwiner matrices of partitions and concrete group representations.

A partition p in P(k, l) induces a linear map (C^n)^{tensor k} ->
(C^n)^{tensor l} whose matrix has a 1 exactly where the chosen upper indices
i and lower indices j are constant along every block of p.  Index tuples are
flattened big-endian: tuple (t_1, .., t_k) with entries in 1..n maps to
sum (t_a - 1) * n^(k - a).

``t_matrix``, ``intertwiner_table`` and ``check_functor`` all start from
xi_w, the 0/1 vector in (C^n)^{tensor m} of the boundary word w (legs
u_k .. u_1, l_1 .. l_l) that is 1 where the indices are constant along every
block, built in int64 by one function, ``_xi``, with the value of those
entries as a parameter.  ``t_matrix`` builds xi of the word read in matrix
order (l_1 .. l_l, then u_1 .. u_k), whose reshape is the int64 matrix
itself.  By Frobenius reciprocity, for orthogonal u,
T_p u^{tensor k} = u^{tensor l} T_p exactly when u^{tensor m} xi_w = xi_w
(Banica-Speicher, arXiv:0808.2628): one test per word, shared by every
rotation of p, with u applied to one leg at a time.

``check_functor`` tests the functor law p -> T_p with no T-matrix built.
Two facts about xi let words alone decide its 0/1 identities:

* Injectivity.  For n >= 2, words v and w of one length have xi_v = xi_w
  exactly when ``normalize_word(v) == normalize_word(w)``.  Equal
  normalized words have the same blocks, so the same xi.  Otherwise some
  legs a and b share a block of one word, say w, but not of v; the index
  tuple that is 2 on a's block of v and 1 elsewhere is in the support of
  xi_v and not in that of xi_w.  At n = 1 every xi is [1].
* Outer product.  xi_a (x) xi_b is xi of a followed by b's labels shifted
  past a's: an index tuple on the legs of a and then b is constant along
  every block of that word exactly when its two halves are constant along
  the blocks of a and of b.

Only composition builds vectors, one int64 contraction per pair.  The dense
check on T-matrices and ``np.kron`` is kept in ``tests/block_reference.py``
as the reference its verdicts are tested against.

Four concrete orthogonal groups exercise the partition <-> relation
dictionary: the permutation matrices S_n, the signed permutation matrices
H_n, the orthogonal group O_n and the bistochastic group B_n.  Each is given
by exact int64 generators, and every verdict is an int64 ``==``
comparison: a group generator u must fix xi_w under u^{tensor m}, and a
generator X of the Lie algebra of O_n or B_n must kill it under the sum
over legs of X on one leg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityMismatchError,
    BadParamError,
    CapExceededError,
    IndexRangeError,
    MemoryCapError,
)
from .ops import bell_number, check_listing_size, compose, involute, tensor
from .partition import Partition, normalize_word

# bytes of one xi_w or T_p (8 * n^points), of one chunk of xi_w's, of one family of matrices
T_BYTES_CAP = 1 << 26
# work bound of one table over every partition of up to some points (check_table_cost)
TABLE_WORK_CAP = 10**9

KIND_SYMMETRIC = "symmetric-group"
KIND_HYPEROCTAHEDRAL = "hyperoctahedral"
KIND_BISTOCHASTIC = "bistochastic"
KIND_ORTHOGONAL = "orthogonal-sample"


def check_tensor_cap(n: int, points: int) -> None:
    """Refuse a vector of n^points 8-byte entries larger than ``T_BYTES_CAP``."""
    # for n >= 2, 26 points already exceed the cap: no huge power is formed
    if (n > 1 and points > 26) or 8 * n**points > T_BYTES_CAP:
        raise MemoryCapError(
            f"a tensor of {n}^{points} 8-byte entries exceeds the {T_BYTES_CAP}-byte cap"
        )


def delta(p: Partition, i: tuple[int, ...], j: tuple[int, ...], n: int) -> int:
    """1 iff the indices agree along every block of p, else 0."""
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
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


def _xi(word: tuple[int, ...], n: int, value: int = 1) -> np.ndarray:
    """xi_w times ``value``: the int64 vector of n^len(w) entries, legs in word
    order, big-endian, that is ``value`` where the indices are constant along
    every block of w and 0 elsewhere.

    Those entries are the generalized diagonal of the legs, set through a
    strided view of xi with one axis per block label 0 .. max(w) (the blocks
    of a normalized word, or of any reordering of one), whose stride is the
    sum of its legs' strides.  Callers bound the legs with
    ``check_tensor_cap`` (at most 26 for n >= 2), within numpy's 32 axes; at
    n = 1 the one entry is set directly, for any number of blocks.
    """
    if n == 1 or not word:
        return np.full(1, value, dtype=np.int64)
    xi = np.zeros(n ** len(word), dtype=np.int64)
    strides = [0] * (max(word) + 1)
    step = xi.itemsize
    for x in reversed(word):
        strides[x] += step
        step *= n
    np.ndarray((n,) * len(strides), np.int64, xi, 0, strides)[...] = value
    return xi


def t_matrix(p: Partition, n: int) -> np.ndarray:
    """The 0/1 int64 matrix of p at dimension n, of shape (n^l, n^k): xi of
    p's word read in matrix order, rows l_1 .. l_l, then columns u_1 .. u_k."""
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    k, l = p.upper_count, p.lower_count
    check_tensor_cap(n, k + l)
    return _xi(p.word[k:] + p.word[:k][::-1], n).reshape(n**l, n**k)


def check_functor(p: Partition, q: Partition, n: int) -> bool:
    """Check the diagram-to-matrix identities on a composable pair.

    Composition picks up one factor n per removed loop; tensor product maps
    to the Kronecker product; turning a diagram upside down transposes.
    With xp = xi_p, legs u_k .. u_1 then l_1 .. l_l, and yq = xi of q's word
    with its upper legs reversed, u_1 .. u_k then l_1 .. l_l:

    * ``T_q T_p = n^loops T_qp``: xp contracted with yq over the middle legs
      is n^loops xi_qp, checked on int64 vectors, as it counts loops;
    * ``T_{p (x) q} = T_p (x) T_q``: the walk of p (x) q is q's upper legs,
      all of p's legs, then q's lower legs, so its word must have the blocks
      of q's upper word, p's word and q's lower word, q's labels shifted
      past p's;
    * ``T_{p*} = T_p^T``: the walk of p* is p's walk reversed, so the word
      of p* read backwards must have the blocks of p's word; likewise for q.

    Each identity is compared in its result's own walk order: both sides go
    through one fixed bijection of positions, which does not change whether
    two words have the same blocks.  For n >= 2, two words of one length
    have one xi exactly when their normalized words are equal (see the
    module docstring), so every verdict is that of the dense check on
    T-matrices, for results of any labeling.  The shapes of all four
    results are compared first.  At n = 1 that fact fails, and every
    identity holds.
    """
    if p.lower_count != q.upper_count:
        raise ArityMismatchError("check_functor needs composable partitions")
    if n < 1:
        raise IndexRangeError(f"dimension must be >= 1, got {n}")
    kp, lp, kq, lq = p.upper_count, p.lower_count, q.upper_count, q.lower_count
    # the pair is bounded by its largest T-matrix, that of the tensor product,
    # though no vector of that size is built
    check_tensor_cap(n, kp + lp + kq + lq)
    if n == 1:
        return True  # every T-matrix at n = 1 is [[1]]
    comp, tens, p_star, q_star = compose(p, q), tensor(p, q), involute(p), involute(q)
    shapes = [(r.upper_count, r.lower_count) for r in (comp.result, tens, p_star, q_star)]
    if shapes != [(kp, lq), (kp + kq, lp + lq), (lp, kp), (lq, kq)]:
        return False
    yq_word = q.word[:kq][::-1] + q.word[kq:]
    shifted = tuple(x + len(p.word) for x in q.word)
    return (
        normalize_word(tens.word) == normalize_word(shifted[:kq] + p.word + shifted[kq:])
        and normalize_word(p_star.word[::-1]) == normalize_word(p.word)
        and normalize_word(q_star.word[::-1]) == normalize_word(q.word)
        and (_xi(p.word, n).reshape(-1, n**lp) @ _xi(yq_word, n).reshape(n**kq, -1)).tobytes()
        == _xi(comp.result.word, n, n**comp.removed_loops).tobytes()
    )


@dataclass(frozen=True)
class GroupRep:
    """A group of orthogonal n x n matrices given by exact int64 generators:
    ``elements`` generate it together with the identity component, which
    ``lie`` generates as a Lie algebra (empty for a finite group)."""

    kind: str
    n: int
    elements: tuple[np.ndarray, ...]
    lie: tuple[np.ndarray, ...] = ()


def _rotation(n: int, i: int, j: int) -> np.ndarray:
    """E_ij - E_ji, the infinitesimal rotation of the (i, j) plane."""
    x = np.zeros((n, n), dtype=np.int64)
    x[i, j], x[j, i] = 1, -1
    return x


def classical_rep(kind: str, n: int, sample_count: int = 20, seed: int = 0) -> GroupRep:
    """The generators of one of the four concrete groups at dimension n.

    S_n: the transposition (1 2) and the n-cycle (one matrix at n = 2); H_n: also
    diag(-1, 1, .., 1).  O_n: diag(-1, 1, .., 1) and, generating so(n) as a Lie
    algebra, the n - 1 rotations E_{i,i+1} - E_{i+1,i}.  B_n, the stabilizer of
    the all-ones vector, isomorphic to O_{n-1} (Banica-Speicher, arXiv:0808.2628):
    (1 2) and the n - 2 triangles (E_{i,i+1} - E_{i+1,i}) + (E_{i+1,i+2} -
    E_{i+2,i+1}) + (E_{i+2,i} - E_{i,i+2}); B_2 is S_2.  ``sample_count`` and
    ``seed`` have no effect, but O and B refuse a count below 1 and a negative
    seed, as when they sampled.  The family, 8 n^2 bytes per matrix, is checked
    against ``T_BYTES_CAP`` before any matrix is built.
    """
    if n < 2:
        raise BadParamError(f"representations need n >= 2, got {n}")
    # matrices in the family: at most three for the finite kinds
    family = {
        KIND_SYMMETRIC: 3, KIND_HYPEROCTAHEDRAL: 3, KIND_ORTHOGONAL: n, KIND_BISTOCHASTIC: n - 1
    }.get(kind)
    if family is None:
        raise BadParamError(f"unknown representation kind {kind!r}")
    if kind in (KIND_ORTHOGONAL, KIND_BISTOCHASTIC) and sample_count < 1:
        raise BadParamError(f"sample count must be >= 1, got {sample_count}")
    if kind in (KIND_ORTHOGONAL, KIND_BISTOCHASTIC) and seed < 0:
        raise BadParamError(f"seed must be >= 0, got {seed}")
    if 8 * n * n * family > T_BYTES_CAP:
        raise MemoryCapError(f"{family} {n}x{n} matrices exceed the {T_BYTES_CAP}-byte cap")
    eye = np.eye(n, dtype=np.int64)
    swap, reflection = eye[[1, 0, *range(2, n)]], eye * ([-1] + [1] * (n - 1))
    if kind == KIND_ORTHOGONAL:
        rotations = tuple(_rotation(n, i, i + 1) for i in range(n - 1))
        return GroupRep(kind, n, (reflection,), rotations)
    if kind == KIND_BISTOCHASTIC:
        triangles = tuple(
            _rotation(n, i, i + 1) + _rotation(n, i + 1, i + 2) + _rotation(n, i + 2, i)
            for i in range(n - 2)
        )
        return GroupRep(kind, n, (swap,), triangles)
    elements = [swap] if n == 2 else [swap, np.roll(eye, 1, axis=0)]
    if kind == KIND_HYPEROCTAHEDRAL:
        elements.append(reflection)
    return GroupRep(kind, n, tuple(elements))


def check_table_cost(rep: GroupRep, points: int) -> None:
    """Refuse the table of every partition of up to ``points`` points, one
    line each, before anything is built: when its lines fail
    ``check_listing_size``, or its work bound exceeds ``TABLE_WORK_CAP``.

    The work bound is W = sum over m <= points of Bell(m) n^m m |family|,
    with |family| = |elements| + |lie|: one xi_w of n^m entries per word of
    m points, each generator applied to its m legs one at a time.  The sum
    stops once over the cap.
    """
    check_listing_size(points)
    family = len(rep.elements) + len(rep.lie)
    work = 0
    for m in range(points + 1):
        work += bell_number(m) * rep.n**m * m * family
        if work > TABLE_WORK_CAP:
            raise CapExceededError(
                f"the table of partitions of up to {points} points at n={rep.n} over "
                f"{family} generators exceeds the work cap {TABLE_WORK_CAP}"
            )


def intertwiner_table(rep: GroupRep, partitions: list[Partition]) -> dict[Partition, bool]:
    """Whether T_p u^{tensor k} = u^{tensor l} T_p for every u in the group, per p.

    Tested once per distinct word w: u^{tensor m} xi_w = xi_w for each element
    u, and the sum over legs of X on one leg kills xi_w for each Lie
    generator X.  A connected group fixes xi_w exactly when its Lie algebra
    kills it, and Xxi = Yxi = 0 gives [X, Y]xi = 0.
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


def _on_leg(x: np.ndarray, rows: np.ndarray, legs_after: int) -> np.ndarray:
    """The n x n matrix x applied to one leg of every row, the leg with
    ``legs_after`` legs after it.  Slot i of that leg becomes the sum of
    x[i, j] times slot j: one pass over a slice per nonzero entry, as every
    generator is sparse."""
    n = x.shape[0]
    v = rows.reshape(len(rows), -1, n, n**legs_after)
    out = np.empty_like(v)
    for i, row in enumerate(x):
        cols = np.flatnonzero(row)
        if not len(cols):
            out[:, :, i] = 0
            continue
        np.multiply(v[:, :, cols[0]], row[cols[0]], out=out[:, :, i])
        for j in cols[1:]:
            out[:, :, i] += row[j] * v[:, :, j]
    return out.reshape(rows.shape)


def _fixed_by_all(rep: GroupRep, words: list[tuple[int, ...]]) -> np.ndarray:
    """For words of one length m: is xi_w fixed by every generator, all in
    int64.  Each generator sees only the rows that every earlier one fixed."""
    n, m = rep.n, len(words[0])
    rows = np.zeros((len(words), n**m), dtype=np.int64)
    for row, word in zip(rows, words):
        row[...] = _xi(word, n)
    kept = np.arange(len(words))
    for x, is_lie in [(u, False) for u in rep.elements] + [(g, True) for g in rep.lie]:
        if not len(kept):
            break
        if is_lie:
            moved = np.zeros_like(rows)
            for leg in range(m):
                moved += _on_leg(x, rows, leg)
            good = (moved == 0).all(axis=1)
        else:
            after = rows
            for leg in range(m):
                after = _on_leg(x, after, leg)
            good = (after == rows).all(axis=1)
        if not good.all():
            rows, kept = rows[good], kept[good]
    fixed = np.zeros(len(words), dtype=bool)
    fixed[kept] = True
    return fixed
