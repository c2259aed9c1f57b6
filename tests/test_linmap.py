import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import block_reference as ref
import partcat.acceptance as acceptance
import partcat.linmap as lm
import partcat.ops as ops
from conftest import words
from partcat.catalog import (
    block,
    category_predicate,
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
from partcat.partition import Partition, parse_partition, partition_from_word


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
    # n is checked first, as t_matrix and check_functor check it
    for p in (Partition(0, 0, ()), pair_partition()):
        with pytest.raises(IndexRangeError, match="dimension must be >= 1, got 0"):
            lm.delta(p, (), (), 0)
        with pytest.raises(IndexRangeError, match="dimension must be >= 1, got 0"):
            lm.t_matrix(p, 0)


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


def test_xi_separates_normalized_words_and_multiplies_over_concatenation():
    # the two facts that let check_functor decide its 0/1 identities on words
    for n in (2, 3):
        for m in range(7):
            words_m = list(ops.iter_words(m))
            assert len(words_m) == ops.bell_number(m)
            assert len({lm._xi(w, n).tobytes() for w in words_m}) == len(words_m)
            for w in words_m:
                xi = lm._xi(w, n).tobytes()
                assert lm._xi(tuple(x + 3 for x in w), n).tobytes() == xi
                assert lm._xi(tuple(m - 1 - x for x in w), n).tobytes() == xi
        for ma in range(7):
            for mb in range(7 - ma):
                for a in ops.iter_words(ma):
                    xa = lm._xi(a, n)
                    for b in ops.iter_words(mb):
                        glued = lm._xi(a + tuple(x + ma for x in b), n)
                        assert np.array_equal(np.outer(xa, lm._xi(b, n)).ravel(), glued)
    # at n = 1 every word has the one vector [1]: injectivity needs n >= 2
    for m in range(7):
        assert all(lm._xi(w, 1).tolist() == [1] for w in ops.iter_words(m))


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
    # every T-matrix at n = 1 is [[1]], past numpy's 64 axes too (32 on
    # numpy 1.x): 70 legs in one block, and 70 blocks of one leg each
    singletons = tuple(range(70))
    for p in (block(70), partition_from_word(singletons), partition_from_word(singletons, 35, 35)):
        t = lm.t_matrix(p, 1)
        assert t.dtype == np.int64 and t.tolist() == [[1]]
        assert lm.check_functor(p, involute(p), 1)
    assert lm.check_functor(p, p, 1)
    with pytest.raises(ArityMismatchError):
        lm.check_functor(block(70), block(70), 1)


def test_check_functor_random_pairs():
    for p in enumerate_all(0, 4):
        for q in enumerate_all(4, 2):
            assert lm.check_functor(p, q, 2)


def _one_extra_loop(p, q):
    res = ops.compose(p, q)
    return ComposeResult(res.result, res.removed_loops + 1)


def _unshifted_tensor(p, q):
    # q's labels are not shifted past p's, so blocks with one label merge
    k = q.upper_count
    return partition_from_word(
        q.word[:k] + p.word + q.word[k:], p.upper_count + k, p.lower_count + q.lower_count
    )


def _reversed_result(p, q):
    res = ops.compose(p, q)
    r = res.result
    reversed_word = partition_from_word(r.word[::-1], r.upper_count, r.lower_count)
    return ComposeResult(reversed_word, res.removed_loops)


def _offset(p):
    """p with its block labels offset by 7: the same partition, not normalized."""
    return Partition(p.upper_count, p.lower_count, tuple(x + 7 for x in p.word))


def _offset_compose(p, q):
    res = ops.compose(p, q)
    return ComposeResult(_offset(res.result), res.removed_loops)


# (patched name, replacement, on which pairs the functor law then fails)
PATCHED_OPERATIONS = {
    "compose": ("compose", _one_extra_loop, "all"),
    "tensor": ("tensor", lambda p, q: ops.tensor(q, p), "some"),
    "involute": ("involute", lambda p: p, "some"),
    "tensor-unshifted": ("tensor", _unshifted_tensor, "some"),
    "involute-unreversed": (
        "involute", lambda p: partition_from_word(p.word, p.lower_count, p.upper_count), "some"
    ),
    "compose-reversed": ("compose", _reversed_result, "some"),
    # correct results whose labels are offset: the law holds on every pair
    "compose-offset": ("compose", _offset_compose, "none"),
    "tensor-offset": ("tensor", lambda p, q: _offset(ops.tensor(p, q)), "none"),
    "involute-offset": ("involute", lambda p: _offset(ops.involute(p)), "none"),
}


@pytest.mark.parametrize("patch", PATCHED_OPERATIONS)
def test_check_functor_catches_a_broken_operation(monkeypatch, pairs_upto_4_4, patch):
    name, broken, fails = PATCHED_OPERATIONS[patch]
    monkeypatch.setattr(lm, name, broken)
    failing = [(p, q) for p, q in pairs_upto_4_4 if not lm.check_functor(p, q, 2)]
    if fails == "all":
        assert len(failing) == len(pairs_upto_4_4)
    elif fails == "none":
        assert not failing
    else:
        assert failing


@pytest.mark.parametrize("patch", [pytest.param(None, id="unpatched"), *PATCHED_OPERATIONS])
def test_check_functor_matches_the_dense_check(monkeypatch, pairs_upto_4_4, patch):
    # the same operation is broken for both checks
    if patch is not None:
        name, broken, _ = PATCHED_OPERATIONS[patch]
        monkeypatch.setattr(lm, name, broken)
        monkeypatch.setattr(ref, name, broken)
    for n in (1, 2, 3):
        for p, q in pairs_upto_4_4:
            assert lm.check_functor(p, q, n) == ref.check_functor(p, q, n), (n, str(p), str(q))


@st.composite
def composable_pairs(draw, fewest: int, most: int):
    """p and q of ``fewest`` to ``most`` points each, with as many upper
    points on q as lower on p."""
    m = draw(st.integers(min_value=fewest, max_value=most))
    k = draw(st.integers(min_value=0, max_value=m))
    p = partition_from_word(draw(words(m)), k, m - k)
    mid = m - k
    mq = draw(st.integers(min_value=max(fewest, mid), max_value=most))
    return p, partition_from_word(draw(words(mq)), mid, mq - mid)


@settings(max_examples=200, deadline=None)
@given(composable_pairs(5, 6))
def test_check_functor_matches_the_dense_check_on_larger_pairs(pair):
    p, q = pair
    assert lm.check_functor(p, q, 2) == ref.check_functor(p, q, 2)


@settings(max_examples=200, deadline=None)
@given(composable_pairs(3, 5))
def test_check_functor_matches_the_dense_check_on_larger_pairs_at_n_3(pair):
    # n = 3 is the dimension of the intertwine benchmark and of criterion 10
    p, q = pair
    assert lm.check_functor(p, q, 3) == ref.check_functor(p, q, 3)


# ---------------------------------------------------------------------------
# representations


def closure_under_products(rep) -> set[tuple[int, ...]]:
    """Every product of the generators, as flattened integer matrices."""
    seen = {tuple(np.eye(rep.n, dtype=np.int64).ravel().tolist())}
    frontier = list(seen)
    while frontier:
        step = []
        for flat in frontier:
            m = np.array(flat, dtype=np.int64).reshape(rep.n, rep.n)
            for u in rep.elements:
                key = tuple((m @ u).ravel().tolist())
                if key not in seen:
                    seen.add(key)
                    step.append(key)
        frontier = step
    return seen


def whole_group_keys(kind: str, n: int) -> set[tuple[int, ...]]:
    return {tuple(u.ravel().tolist()) for u in ref.whole_group(kind, n).elements}


def test_symmetric_group_enumeration():
    for n in (2, 3, 4, 5):
        rep = lm.classical_rep(lm.KIND_SYMMETRIC, n)
        assert rep.lie == ()
        assert len(rep.elements) == (1 if n == 2 else 2)
        for u in rep.elements:
            assert u.dtype == np.int64
            assert np.array_equal(u @ u.T, np.eye(n, dtype=int))
        group = closure_under_products(rep)
        assert len(group) == math.factorial(n)
        assert group == whole_group_keys(lm.KIND_SYMMETRIC, n)


def test_hyperoctahedral_enumeration():
    for n in (2, 3, 4):
        rep = lm.classical_rep(lm.KIND_HYPEROCTAHEDRAL, n)
        assert rep.lie == ()
        assert len(rep.elements) == (2 if n == 2 else 3)
        for u in rep.elements:
            assert u.dtype == np.int64
            assert np.array_equal(u @ u.T, np.eye(n, dtype=int))
        group = closure_under_products(rep)
        assert len(group) == 2**n * math.factorial(n)
        assert group == whole_group_keys(lm.KIND_HYPEROCTAHEDRAL, n)


class Built(Exception):
    """Raised by a patched ``np.eye``: the request passed the byte cap."""


def test_enumeration_caps(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise Built

    monkeypatch.setattr(lm.np, "eye", no_matrix)
    for kind in (
        lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL, lm.KIND_ORTHOGONAL, lm.KIND_BISTOCHASTIC
    ):
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 50_000)
    # O_n and B_n have n and n - 1 generators: 8 n^2 |family| <= 2^26 up to n = 203
    for kind in (lm.KIND_ORTHOGONAL, lm.KIND_BISTOCHASTIC):
        with pytest.raises(Built):
            lm.classical_rep(kind, 203)
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 204)
    with pytest.raises(BadParamError):
        lm.classical_rep(lm.KIND_SYMMETRIC, 1)
    with pytest.raises(BadParamError):
        lm.classical_rep("unitary", 3)


LIE_KINDS = (lm.KIND_ORTHOGONAL, lm.KIND_BISTOCHASTIC)


def test_sample_count_and_seed_have_no_effect():
    # kept as keywords for callers of the former sampled kinds; every kind is exact
    for kind in (*LIE_KINDS, lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL):
        a, b = lm.classical_rep(kind, 4), lm.classical_rep(kind, 4, sample_count=1, seed=7)
        assert len(a.elements) == len(b.elements) and len(a.lie) == len(b.lie)
        for u, v in zip(a.elements + a.lie, b.elements + b.lie):
            assert np.array_equal(u, v)


def test_sample_count_must_be_positive():
    for kind in LIE_KINDS:
        for n in (2, 3):
            for count in (0, -1):
                with pytest.raises(BadParamError):
                    lm.classical_rep(kind, n, sample_count=count)


def test_sampled_kinds_refuse_a_negative_seed():
    for kind, n in ((lm.KIND_ORTHOGONAL, 2), (lm.KIND_BISTOCHASTIC, 3)):
        with pytest.raises(BadParamError, match="^seed must be >= 0, got -1$"):
            lm.classical_rep(kind, n, seed=-1)
    # the finite kinds never took a seed and ignore it
    for kind in (lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL):
        a, b = lm.classical_rep(kind, 2, seed=-1), lm.classical_rep(kind, 2)
        assert all(np.array_equal(u, v) for u, v in zip(a.elements, b.elements))


def test_sampled_matrices_are_bounded_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a random matrix")

    def no_matrix(*args, **kwargs):
        raise Built

    monkeypatch.setattr(lm.np.random, "default_rng", no_draw)
    monkeypatch.setattr(lm.np, "eye", no_matrix)
    for kind in LIE_KINDS:
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 50_000)
        # the bound counts generators, not samples
        with pytest.raises(MemoryCapError):
            lm.classical_rep(kind, 204, sample_count=1)
        with pytest.raises(Built):
            lm.classical_rep(kind, 3, sample_count=10**7)


def test_lie_generators_are_antisymmetric_integer_matrices():
    for kind in LIE_KINDS:
        for n in range(2, 8):
            rep = lm.classical_rep(kind, n)
            assert len(rep.lie) == (n - 1 if kind == lm.KIND_ORTHOGONAL else n - 2)
            for x in rep.lie:
                assert x.dtype == np.int64 and x.shape == (n, n)
                assert np.array_equal(x.T, -x)


def test_bistochastic_rows_and_columns_sum_to_one():
    # the component generator fixes the all-ones vector and the Lie generators kill it
    for n in range(2, 8):
        rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, n)
        for u in rep.elements:
            assert u.sum(axis=0).tolist() == u.sum(axis=1).tolist() == [1] * n
        for x in rep.lie:
            assert x.sum(axis=0).tolist() == x.sum(axis=1).tolist() == [0] * n


def lie_algebra_dimension(generators: tuple[np.ndarray, ...]) -> int:
    """The dimension of the Lie algebra the generators generate, exactly:
    right-normed brackets [g, y] of a generator g with a basis element y
    span it, each reduced over the rationals against the basis so far."""
    echelon: list[tuple[int, list[Fraction]]] = []

    def independent(m: np.ndarray) -> bool:
        v = [Fraction(int(t)) for t in m.ravel()]
        for col, row in echelon:
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, row)]
        col = next((i for i, a in enumerate(v) if a), None)
        if col is not None:
            echelon.append((col, [a / v[col] for a in v]))
        return col is not None

    frontier = [g for g in generators if independent(g)]
    while frontier:
        brackets = [g @ y - y @ g for y in frontier for g in generators]
        frontier = [b for b in brackets if independent(b)]
    return len(echelon)


def test_lie_generators_span_the_lie_algebra():
    # so(n) has dimension C(n, 2); B_n is O_{n-1}, of dimension C(n - 1, 2)
    for n in range(2, 8):
        rep = lm.classical_rep(lm.KIND_ORTHOGONAL, n)
        assert lie_algebra_dimension(rep.lie) == math.comb(n, 2)
        rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, n)
        assert lie_algebra_dimension(rep.lie) == math.comb(n - 1, 2)


def test_component_generators_are_reflections():
    # one orthogonal integer matrix of determinant -1 reaches the other component
    for kind in LIE_KINDS:
        for n in range(2, 8):
            (u,) = lm.classical_rep(kind, n).elements
            assert u.dtype == np.int64
            assert np.array_equal(u @ u.T, np.eye(n, dtype=np.int64))
            assert round(np.linalg.det(u)) == -1
            if kind == lm.KIND_BISTOCHASTIC:
                assert (u @ np.ones(n, dtype=np.int64)).tolist() == [1] * n


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
    rep = lm.classical_rep(lm.KIND_ORTHOGONAL, 3)
    assert holds(rep, pair_partition())
    assert not holds(rep, singleton())


def test_bistochastic_fixes_singleton():
    rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, 3)
    assert holds(rep, singleton())
    assert holds(rep, pair_partition())
    assert not holds(rep, four_block())


def test_intertwiner_table_matches_single_checks():
    # the one-row table against the dense two-row check, partition by partition
    parts = [p for t in range(6) for k in range(t + 1) for p in enumerate_all(k, t - k)]
    for n in (2, 3):
        for kind in (
            lm.KIND_SYMMETRIC, lm.KIND_HYPEROCTAHEDRAL, lm.KIND_BISTOCHASTIC, lm.KIND_ORTHOGONAL
        ):
            rep = lm.classical_rep(kind, n)
            table = lm.intertwiner_table(rep, parts)
            assert list(table) == parts
            for p in parts:
                assert table[p] == ref.check_intertwiner(rep, p), (kind, n, str(p))


@pytest.mark.parametrize("kind,name", [
    (lm.KIND_ORTHOGONAL, "O"), (lm.KIND_BISTOCHASTIC, "B"),
], ids=["O", "B"])
@pytest.mark.parametrize("n", [3, 4])
def test_lie_kind_table_is_the_catalog_rule(kind, name, n):
    # members pass and non-members fail, on every partition of up to 5 points
    parts = enumerate_upto(5)
    member = category_predicate(name)
    assert lm.intertwiner_table(lm.classical_rep(kind, n), parts) == {p: member(p) for p in parts}


def test_bistochastic_at_two_is_the_symmetric_group():
    # B_2 = S_2: no triangle, and the transposition (1 2)
    parts = enumerate_upto(5)
    b2 = lm.intertwiner_table(lm.classical_rep(lm.KIND_BISTOCHASTIC, 2), parts)
    assert b2 == lm.intertwiner_table(lm.classical_rep(lm.KIND_SYMMETRIC, 2), parts)


@pytest.mark.parametrize("kind,n", [
    *((lm.KIND_SYMMETRIC, n) for n in (2, 3, 4, 5)),
    *((lm.KIND_HYPEROCTAHEDRAL, n) for n in (2, 3, 4)),
])
def test_generators_decide_as_the_whole_group_does(kind, n):
    # u -> u^{tensor m} is a homomorphism: fixed by the generators is fixed by the group
    parts = enumerate_upto(5)
    whole = lm.intertwiner_table(ref.whole_group(kind, n), parts)
    assert lm.intertwiner_table(lm.classical_rep(kind, n), parts) == whole


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
    rep = lm.classical_rep(lm.KIND_ORTHOGONAL, 10)
    with pytest.raises(MemoryCapError):
        lm.intertwiner_table(rep, [singleton(), block(8)])


def test_table_cost_caps_admit_the_dictionary_tables():
    # the tables of acceptance criterion 9, the largest H at n = 3 on 6 points
    for _, kind, n, points, _ in acceptance._DICTIONARY:
        lm.check_table_cost(lm.classical_rep(kind, n), points)
    with pytest.raises(CapExceededError, match="work cap"):
        lm.check_table_cost(lm.classical_rep(lm.KIND_SYMMETRIC, 3), 9)
    # one generator keeps the work small, but 10 points list 1,533,308 lines
    rep = lm.classical_rep(lm.KIND_BISTOCHASTIC, 2)
    lm.check_table_cost(rep, 9)
    with pytest.raises(CapExceededError, match="listing cap"):
        lm.check_table_cost(rep, 10)
