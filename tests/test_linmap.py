import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import block_reference as ref
import partcat.linmap as lm
import partcat.ops as ops
from conftest import words
from partcat.catalog import (
    block,
    four_block,
    pair_partition,
    positioner,
    singleton,
    unit_partition,
)
from partcat.errors import (
    ArityMismatchError,
    BadParamError,
    CapExceededError,
    IndexRangeError,
    MemoryCapError,
)
from partcat.ops import ComposeResult, Rotation, enumerate_all, enumerate_upto, involute, rotate
from partcat.partition import parse_partition, partition_from_word


# ---------------------------------------------------------------------------
# delta and t_matrix


def test_delta_examples():
    pair = pair_partition()
    assert lm.delta(pair, (), (1, 1), 2) == 1
    assert lm.delta(pair, (), (1, 2), 2) == 0
    assert lm.delta(unit_partition(), (2,), (2,), 3) == 1
    assert lm.delta(positioner(), (), (1, 2, 3, 2), 3) == 1
    assert lm.delta(positioner(), (), (1, 2, 3, 1), 3) == 0


def test_delta_errors():
    with pytest.raises(IndexRangeError):
        lm.delta(pair_partition(), (), (1, 3), 2)
    with pytest.raises(IndexRangeError):
        lm.delta(pair_partition(), (1,), (1, 1), 2)


def test_t_matrix_examples():
    for n in (2, 3):
        assert np.array_equal(lm.t_matrix(unit_partition(), n), np.eye(n, dtype=int))
    tp = lm.t_matrix(pair_partition(), 2)
    assert tp.shape == (4, 1)
    assert tp.ravel().tolist() == [1, 0, 0, 1]
    fb_rot = parse_partition("P(2,2): u1,u2,l1,l2")
    assert np.diag(lm.t_matrix(fb_rot, 2)).tolist() == [1, 0, 0, 1]


def test_t_matrix_agrees_with_delta():
    p = positioner()
    mat = lm.t_matrix(p, 2)
    for j_tuple in itertools.product((1, 2), repeat=4):
        row = sum((t - 1) * 2 ** (3 - a) for a, t in enumerate(j_tuple))
        assert mat[row, 0] == lm.delta(p, (), j_tuple, 2)


def test_t_matrix_memory_cap():
    with pytest.raises(MemoryCapError):
        lm.t_matrix(block(8), 10)  # 8 * 10^8 bytes
    with pytest.raises(MemoryCapError):
        lm.t_matrix(block(30), 2)


def test_rotation_is_a_reshaping():
    # moving an endpoint between rows only re-indexes the same delta tensor
    n = 2
    pool = [p for t in range(6) for k in range(t + 1) for p in enumerate_all(k, t - k)]
    for p in pool:
        k, l = p.upper_count, p.lower_count
        if k >= 1:
            down = rotate(p, Rotation.DOWN_LEFT)
            for i in itertools.product(range(1, n + 1), repeat=k):
                for j in itertools.product(range(1, n + 1), repeat=l):
                    assert lm.delta(down, i[1:], (i[0],) + j, n) == lm.delta(p, i, j, n)
        if l >= 1:
            up = rotate(p, Rotation.UP_RIGHT)
            for i in itertools.product(range(1, n + 1), repeat=k):
                for j in itertools.product(range(1, n + 1), repeat=l):
                    assert lm.delta(up, i + (j[-1],), j[:-1], n) == lm.delta(p, i, j, n)


# ---------------------------------------------------------------------------
# functor identities


def test_check_functor_examples():
    pair = pair_partition()
    # closed circle: T_{pair*} T_pair = n = n^1 * T_empty
    assert lm.check_functor(pair, involute(pair), 3)
    tq = lm.t_matrix(involute(pair), 3)
    tp = lm.t_matrix(pair, 3)
    assert (tq @ tp).item() == 3
    assert lm.check_functor(unit_partition(), unit_partition(), 4)


def test_check_functor_requires_composable():
    with pytest.raises(ArityMismatchError):
        lm.check_functor(pair_partition(), pair_partition(), 2)


@pytest.fixture(scope="module")
def pairs_upto_4_4() -> list:
    upto4 = enumerate_upto(4)
    return [(p, q) for p in upto4 for q in upto4 if q.upper_count == p.lower_count]


def test_check_functor_argument_errors(pairs_upto_4_4):
    # the arity is checked first, then n, then the size of the tensor product
    for n in (2, 0):
        with pytest.raises(ArityMismatchError):
            lm.check_functor(pair_partition(), pair_partition(), n)
        with pytest.raises(ArityMismatchError):
            lm.check_functor(unit_partition(), singleton(), n)
    for n in (0, -1):
        with pytest.raises(IndexRangeError):
            lm.check_functor(pair_partition(), involute(pair_partition()), n)
    # 14 + 14 points: each vector fits, the tensor product does not
    with pytest.raises(MemoryCapError):
        lm.check_functor(block(14), involute(block(14)), 2)
    assert all(lm.check_functor(p, q, 1) for p, q in pairs_upto_4_4)


def test_dimension_one_takes_any_number_of_points():
    # every T-matrix at n = 1 is [[1]], past numpy's 64 axes too
    p = block(70)
    t = lm.t_matrix(p, 1)
    assert t.dtype == np.int64 and t.tolist() == [[1]]
    assert lm.check_functor(p, involute(p), 1)
    with pytest.raises(ArityMismatchError):
        lm.check_functor(p, p, 1)


def test_check_functor_random_pairs():
    for p in enumerate_all(0, 4):
        for q in enumerate_all(4, 2):
            assert lm.check_functor(p, q, 2)


def _one_extra_loop(p, q):
    res = ops.compose(p, q)
    return ComposeResult(res.result, res.removed_loops + 1)


@pytest.mark.parametrize("name,broken,fails_everywhere", [
    ("compose", _one_extra_loop, True),
    ("tensor", lambda p, q: ops.tensor(q, p), False),
    ("involute", lambda p: p, False),
], ids=["compose", "tensor", "involute"])
def test_check_functor_catches_a_broken_operation(monkeypatch, name, broken, fails_everywhere):
    upto4 = enumerate_upto(4)
    pairs = [(p, q) for p in upto4 for q in upto4 if q.upper_count == p.lower_count]
    monkeypatch.setattr(lm, name, broken)
    failing = [(p, q) for p, q in pairs if not lm.check_functor(p, q, 2)]
    assert failing
    if fails_everywhere:
        assert len(failing) == len(pairs)


@pytest.mark.parametrize("name,broken,dims", [
    (None, None, (1, 2, 3)),
    ("compose", _one_extra_loop, (1, 2)),
    ("tensor", lambda p, q: ops.tensor(q, p), (1, 2)),
    ("involute", lambda p: p, (1, 2)),
], ids=["unpatched", "compose", "tensor", "involute"])
def test_check_functor_matches_the_dense_check(monkeypatch, pairs_upto_4_4, name, broken, dims):
    # the same operation is broken for both checks
    if name is not None:
        monkeypatch.setattr(lm, name, broken)
        monkeypatch.setattr(ref, name, broken)
    for n in dims:
        for p, q in pairs_upto_4_4:
            assert lm.check_functor(p, q, n) == ref.check_functor(p, q, n), (n, str(p), str(q))


@st.composite
def composable_pairs(draw):
    """p and q of 5 or 6 points each, with as many upper points on q as lower on p."""
    m = draw(st.integers(min_value=5, max_value=6))
    k = draw(st.integers(min_value=0, max_value=m))
    p = partition_from_word(draw(words(m)), k, m - k)
    mid = m - k
    mq = draw(st.integers(min_value=max(5, mid), max_value=6))
    return p, partition_from_word(draw(words(mq)), mid, mq - mid)


@settings(max_examples=200, deadline=None)
@given(composable_pairs())
def test_check_functor_matches_the_dense_check_on_larger_pairs(pair):
    p, q = pair
    assert lm.check_functor(p, q, 2) == ref.check_functor(p, q, 2)


# ---------------------------------------------------------------------------
# representations


def test_symmetric_group_enumeration():
    rep = lm.classical_rep(lm.KIND_SYMMETRIC, 3)
    assert len(rep.elements) == 6
    assert rep.exact
    for u in rep.elements:
        assert np.array_equal(u @ u.T, np.eye(3, dtype=int))


def test_hyperoctahedral_enumeration():
    rep = lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, 2)
    assert len(rep.elements) == 8
    mats = {tuple(u.ravel().tolist()) for u in rep.elements}
    assert len(mats) == 8
    for u in rep.elements:
        assert np.array_equal(u @ u.T, np.eye(2, dtype=int))


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        lm.classical_rep(lm.KIND_SYMMETRIC, 7)
    with pytest.raises(CapExceededError):
        lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, 5)
    with pytest.raises(BadParamError):
        lm.classical_rep(lm.KIND_SYMMETRIC, 1)
    with pytest.raises(BadParamError):
        lm.classical_rep("unitary", 3)


def test_sampled_kinds_refuse_a_negative_seed():
    for kind, n in ((lm.KIND_ORTHOGONAL, 2), (lm.KIND_BISTOCHASTIC, 3)):
        with pytest.raises(BadParamError, match="^seed must be >= 0, got -1$"):
            lm.classical_rep(kind, n, seed=-1)
    # exact kinds ignore the seed
    for kind in (lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL):
        a, b = lm.classical_rep(kind, 2, seed=-1), lm.classical_rep(kind, 2)
        assert np.array_equal(a.elements, b.elements)


def test_bistochastic_rows_and_columns_sum_to_one():
    rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, 3, sample_count=5, seed=0)
    assert len(rep.elements) == 5
    for u in rep.elements:
        assert np.allclose(u.sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(u.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(u @ u.T, np.eye(3), atol=1e-9)


def test_orthogonal_samples_seeded():
    a = lm.classical_rep(lm.KIND_ORTHOGONAL, 3, sample_count=4, seed=7)
    b = lm.classical_rep(lm.KIND_ORTHOGONAL, 3, sample_count=4, seed=7)
    c = lm.classical_rep(lm.KIND_ORTHOGONAL, 3, sample_count=4, seed=8)
    for u, v in zip(a.elements, b.elements):
        assert np.array_equal(u, v)
    assert not np.allclose(a.elements[0], c.elements[0])
    for u in a.elements:
        assert np.allclose(u @ u.T, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# intertwiner checks


def holds(rep, p):
    return lm.intertwiner_table(rep, [p])[p]


def test_symmetric_group_intertwines_every_partition():
    rep = lm.classical_rep(lm.KIND_SYMMETRIC, 3)
    assert all(holds(rep, p) for p in enumerate_all(0, 4))


def test_hyperoctahedral_requires_even_blocks():
    rep = lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, 3)
    assert holds(rep, four_block())
    assert not holds(rep, block(3))


def test_orthogonal_sample_pair_yes_singleton_no():
    rep = lm.classical_rep(lm.KIND_ORTHOGONAL, 3, sample_count=20, seed=0)
    assert holds(rep, pair_partition())
    assert not holds(rep, singleton())


def test_bistochastic_fixes_singleton():
    rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, 3, sample_count=20, seed=0)
    assert holds(rep, singleton())
    assert holds(rep, pair_partition())
    assert not holds(rep, four_block())


def test_intertwiner_table_matches_single_checks():
    # the one-row table against the dense two-row check, partition by partition
    parts = [p for t in range(6) for k in range(t + 1) for p in enumerate_all(k, t - k)]
    for n in (2, 3):
        reps = [lm.classical_rep(lm.KIND_SYMMETRIC, n), lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, n)]
        for kind in (lm.KIND_BISTOCHASTIC, lm.KIND_ORTHOGONAL):
            reps += [lm.classical_rep(kind, n, sample_count=20, seed=seed) for seed in (0, 1, 2)]
        for rep in reps:
            table = lm.intertwiner_table(rep, parts)
            assert list(table) == parts
            for p in parts:
                assert table[p] == ref.check_intertwiner(rep, p), (rep.kind, n, str(p))


def test_intertwiner_table_is_the_same_in_small_chunks(monkeypatch):
    rep = lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, 3)
    parts = [p for t in range(5) for k in range(t + 1) for p in enumerate_all(k, t - k)]
    whole = lm.intertwiner_table(rep, parts)
    # three words of 4 points per chunk
    monkeypatch.setattr(lm, "T_BYTES_CAP", 3 * 8 * 3**4)
    assert lm.intertwiner_table(rep, parts) == whole
    with pytest.raises(MemoryCapError):
        lm.intertwiner_table(rep, [block(6)])


def test_check_intertwiner_memory_cap():
    # 8 * 10^8 bytes for one vector: refused before any vector is built
    rep = lm.classical_rep(lm.KIND_ORTHOGONAL, 10, sample_count=2)
    with pytest.raises(MemoryCapError):
        lm.intertwiner_table(rep, [singleton(), block(8)])


def test_sample_count_must_be_positive():
    for kind in (lm.KIND_ORTHOGONAL, lm.KIND_BISTOCHASTIC):
        for n in (2, 3):
            for count in (0, -1):
                with pytest.raises(BadParamError):
                    lm.classical_rep(kind, n, sample_count=count)


def test_sampled_matrices_are_bounded_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew matrices before checking the cap")

    monkeypatch.setattr(lm.np.random, "default_rng", no_draw)
    for kind in (lm.KIND_ORTHOGONAL, lm.KIND_BISTOCHASTIC):
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 50_000)
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 3, sample_count=10**7)
