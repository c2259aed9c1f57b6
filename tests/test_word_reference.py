"""The word-level operations, predicates and intertwiner matrices against the
block-and-point reference in ``block_reference.py``, exhaustively at small
sizes."""

import itertools

import numpy as np
import pytest

import block_reference as ref
from partcat import linmap
from partcat.catalog import RULED_NAMES, category_predicate
from partcat.ops import Rotation, compose, enumerate_all, involute, iter_words, rotate, tensor
from partcat.partition import Partition, canonical_text, partition_from_word


def _by_size(n_max):
    return {n: [p for k in range(n + 1) for p in enumerate_all(k, n - k)] for n in range(n_max + 1)}


def test_text_and_blocks_match_reference():
    # every partition of every shape with up to 8 points
    checked = 0
    for n in range(9):
        for w in iter_words(n):
            for k in range(n + 1):
                p = Partition(k, n - k, w)
                assert canonical_text(p) == ref.canonical_text(p), (k, w)
                codes = tuple(tuple(map(str, b)) for b in ref.blocks(p))
                assert p.blocks == codes, (k, w)
                checked += 1
    assert checked == 46_113


@pytest.mark.parametrize("k,l", [(0, 11), (6, 5), (11, 0)])
def test_enumerate_order_matches_reference(k, l):
    # 11 points: index 10 and 11 sort between 1 and 2 in text order
    got = enumerate_all(k, l, noncrossing_only=True)
    assert len({p.word for p in got}) == 58_786  # Catalan(11)
    assert got == sorted(got, key=ref.canonical_text)


def test_unary_ops_match_reference(all_upto_6):
    for p in all_upto_6:
        assert involute(p) == ref.involute(p), str(p)
        for where in Rotation:
            if ref.applicable(p, where):
                assert rotate(p, where) == ref.rotate(p, where), (str(p), where)


def test_compose_matches_reference(all_upto_6):
    # every composable pair of partitions of up to 6 points each, and of up
    # to 9 points in all
    by_upper: dict[int, list] = {}
    for q in all_upto_6:
        by_upper.setdefault(q.upper_count, []).append(q)
    checked = 0
    for p in all_upto_6:
        for q in by_upper.get(p.lower_count, ()):
            if p.n_points + q.n_points <= 9:
                assert compose(p, q) == ref.compose(p, q), (str(p), str(q))
                checked += 1
    assert checked == 24_804


def test_tensor_matches_reference():
    by_size = _by_size(7)
    for a in range(8):
        for b in range(8 - a):
            for p, q in itertools.product(by_size[a], by_size[b]):
                assert tensor(p, q) == ref.tensor(p, q), (str(p), str(q))


def test_predicates_match_reference(all_upto_6):
    one_row = [partition_from_word(w) for n in range(9) for w in iter_words(n)]
    for name in RULED_NAMES:
        pred, want = category_predicate(name), ref.PREDICATES[name]
        for p in one_row + all_upto_6:
            assert pred(p) == want(p), (name, str(p))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t_matrix_matches_reference(n):
    for size, parts in _by_size(5).items():
        for p in parts:
            mat = linmap.t_matrix(p, n)
            assert np.array_equal(mat, ref.t_matrix(p, n)), str(p)
            if size <= 4:
                for i in itertools.product(range(1, n + 1), repeat=p.upper_count):
                    for j in itertools.product(range(1, n + 1), repeat=p.lower_count):
                        row = sum((t - 1) * n ** (len(j) - 1 - a) for a, t in enumerate(j))
                        col = sum((t - 1) * n ** (len(i) - 1 - a) for a, t in enumerate(i))
                        assert mat[row, col] == linmap.delta(p, i, j, n), (str(p), i, j)
