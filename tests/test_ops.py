import itertools
import tracemalloc

import pytest
from hypothesis import given

from conftest import partitions
from partcat.catalog import (
    block,
    crossing,
    double_singleton,
    enumerate_category,
    four_block,
    member_words,
    pair_partition,
    positioner,
    singleton,
    unit_partition,
)
from partcat.errors import (
    ArityMismatchError,
    CapExceededError,
    CycleOnTwoRowsError,
    EmptyRowError,
    PointRangeError,
)
import partcat.ops as ops
from partcat.ops import (
    EMPTY,
    ROTATION_INVERSES,
    Rotation,
    compose,
    enumerate_all,
    enumerate_upto,
    involute,
    iter_words,
    rotate,
    tensor,
)
from partcat.partition import is_noncrossing, parse_partition, word_noncrossing


# ---------------------------------------------------------------------------
# tensor


def test_tensor_examples():
    assert tensor(singleton(), singleton()) == double_singleton()
    assert tensor(pair_partition(), pair_partition()) == parse_partition(
        "P(0,4): l1,l2; l3,l4"
    )
    p = positioner()
    assert tensor(EMPTY, p) == p
    assert tensor(p, EMPTY) == p


@given(partitions(5), partitions(5), partitions(5))
def test_tensor_associative(p, q, r):
    assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))


def test_tensor_associative_exhaustive_small():
    pool = [p for n in range(4) for k in range(n + 1) for p in enumerate_all(k, n - k)]
    for p in pool:
        for q in pool:
            assert involute(tensor(p, q)) == tensor(involute(p), involute(q))
            for r in pool:
                assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))


# ---------------------------------------------------------------------------
# compose


def test_compose_connects_two_blocks():
    # two three blocks joined through a middle cap become a four block
    p = tensor(block(3), block(3))
    q = parse_partition("P(6,4): u1,l1; u2,l2; u3,u4; u5,l3; u6,l4")
    res = compose(p, q)
    assert res.result == four_block()
    assert res.removed_loops == 0


def test_compose_closed_circle():
    res = compose(pair_partition(), involute(pair_partition()))
    assert res.result == EMPTY
    assert res.removed_loops == 1


def test_compose_erases_nested_points():
    # nested diagram: erasing everything but the outer block leaves a three block
    p = parse_partition("P(0,7): l1,l6,l7; l2,l5; l3,l4")
    q = parse_partition("P(7,3): u1,l1; u2,u3; u4,u5; u6,l2; u7,l3")
    res = compose(p, q)
    assert res.result == block(3)
    assert res.removed_loops == 1


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        compose(pair_partition(), pair_partition())


def test_compose_associative_with_loop_bookkeeping():
    # loops(p, q r) + loops(q, r) == loops(p q, r) + loops(p, q), results equal
    pool: dict[int, list] = {}
    for n in range(5):
        for k in range(n + 1):
            for p in enumerate_all(k, n - k):
                pool.setdefault(p.upper_count, []).append(p)
    parts = [p for ps in pool.values() for p in ps]
    checked = 0
    for p in parts:
        for q in pool.get(p.lower_count, ()):
            pq = compose(p, q)
            for r in pool.get(q.lower_count, ()):
                qr = compose(q, r)
                left = compose(p, qr.result)
                right = compose(pq.result, r)
                assert left.result == right.result
                assert (
                    left.removed_loops + qr.removed_loops
                    == right.removed_loops + pq.removed_loops
                )
                checked += 1
    assert checked > 10_000


def test_compose_adjoint_antihomomorphism():
    pool = [p for n in range(6) for k in range(n + 1) for p in enumerate_all(k, n - k)]
    by_upper: dict[int, list] = {}
    for p in pool:
        by_upper.setdefault(p.upper_count, []).append(p)
    for p in pool:
        for q in by_upper.get(p.lower_count, ()):
            res = compose(p, q)
            star = compose(involute(q), involute(p))
            assert star.result == involute(res.result)
            assert star.removed_loops == res.removed_loops


# ---------------------------------------------------------------------------
# involution


def test_involute_examples():
    assert involute(pair_partition()) == parse_partition("P(2,0): u1,u2")
    assert involute(unit_partition()) == unit_partition()
    assert involute(crossing()) == crossing()


@given(partitions(8))
def test_involute_is_an_involution(p):
    assert involute(involute(p)) == p


# ---------------------------------------------------------------------------
# rotation


def test_rotate_examples():
    fb_rot = parse_partition("P(2,2): u1,u2,l1,l2")
    p = rotate(fb_rot, Rotation.DOWN_LEFT)
    assert p == parse_partition("P(1,3): u1,l1,l2,l3")
    assert rotate(p, Rotation.DOWN_LEFT) == four_block()

    assert rotate(positioner(), Rotation.CYCLE_LEFT) == parse_partition(
        "P(0,4): l1,l3; l2; l4"
    )
    # cyclic rotations undo each other around the circle
    assert rotate(rotate(positioner(), Rotation.CYCLE_LEFT), Rotation.CYCLE_RIGHT) == positioner()


def test_rotate_moves_between_rows():
    assert rotate(unit_partition(), Rotation.DOWN_LEFT) == pair_partition()
    assert rotate(unit_partition(), Rotation.UP_LEFT) == involute(pair_partition())
    assert rotate(pair_partition(), Rotation.UP_RIGHT) == unit_partition()


def test_rotate_errors():
    with pytest.raises(EmptyRowError):
        rotate(pair_partition(), Rotation.DOWN_LEFT)
    with pytest.raises(EmptyRowError):
        rotate(involute(pair_partition()), Rotation.UP_RIGHT)
    with pytest.raises(CycleOnTwoRowsError):
        rotate(unit_partition(), Rotation.CYCLE_LEFT)
    with pytest.raises(EmptyRowError):
        rotate(EMPTY, Rotation.CYCLE_RIGHT)


def _applicable(p, where):
    if where in (Rotation.CYCLE_LEFT, Rotation.CYCLE_RIGHT):
        return p.upper_count == 0 and p.lower_count > 0
    if where in (Rotation.DOWN_LEFT, Rotation.DOWN_RIGHT):
        return p.upper_count > 0
    return p.lower_count > 0


def test_rotation_inverse_pairs(all_upto_6):
    for p in all_upto_6:
        for where, back in ROTATION_INVERSES.items():
            if _applicable(p, where):
                assert rotate(rotate(p, where), back) == p


def test_noncrossing_invariant_under_rotation(all_upto_6):
    for p in all_upto_6:
        nc = is_noncrossing(p)
        for where in Rotation:
            if _applicable(p, where):
                assert is_noncrossing(rotate(p, where)) == nc


# ---------------------------------------------------------------------------
# closure of the noncrossing world under all four operations


def test_noncrossing_closed_under_operations():
    nc_pool = [
        p
        for n in range(6)
        for k in range(n + 1)
        for p in enumerate_all(k, n - k, noncrossing_only=True)
    ]
    by_upper: dict[int, list] = {}
    for p in nc_pool:
        by_upper.setdefault(p.upper_count, []).append(p)
    for p in nc_pool:
        assert is_noncrossing(involute(p))
        for where in Rotation:
            if _applicable(p, where):
                assert is_noncrossing(rotate(p, where))
    small = [p for p in nc_pool if p.n_points <= 4]
    for p in small:
        for q in small:
            assert is_noncrossing(tensor(p, q))
        for q in by_upper.get(p.lower_count, ()):
            assert is_noncrossing(compose(p, q).result)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_examples():
    assert len(enumerate_all(0, 3)) == 5
    assert len(enumerate_all(0, 4, noncrossing_only=True)) == 14
    two = enumerate_all(1, 1)
    assert [str(p) for p in two] == ["P(1,1): u1,l1", "P(1,1): u1; l1"]


def test_enumerate_is_duplicate_free_and_sorted():
    parts = enumerate_all(2, 2)
    texts = [str(p) for p in parts]
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts) == 15


def test_words_are_the_restricted_growth_strings_in_lexicographic_order():
    # an independent listing: every string with w[i] <= i, kept when each
    # label is at most one more than the largest label before it
    for n in range(9):
        want = [
            w
            for w in itertools.product(*(range(i + 1) for i in range(n)))
            if all(w[i] <= max(w[:i], default=-1) + 1 for i in range(n))
        ]
        assert list(iter_words(n)) == want, n


def test_noncrossing_words_are_the_filtered_words_in_order():
    for n in range(11):
        want = [w for w in iter_words(n) if word_noncrossing(w)]
        assert list(iter_words(n, noncrossing_only=True)) == want, n


# Bell(n) and Catalan(n) for n = 0..11, pinned
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)


@pytest.mark.parametrize("noncrossing", [False, True])
def test_words_up_to_eleven_points_are_all_restricted_growth_strings_ascending(noncrossing):
    # a strictly ascending stream of valid words, as many as there are, is all of them;
    # a word is valid when its labels open in the order 0, 1, 2, ...
    opened = [tuple(range(b)) for b in range(12)]
    for n, total in enumerate(CATALAN if noncrossing else BELL):
        count, previous = 0, None
        for w in iter_words(n, noncrossing_only=noncrossing):
            firsts = tuple(dict.fromkeys(w))
            assert len(w) == n and firsts == opened[len(firsts)], w
            assert previous is None or previous < w, (previous, w)
            count, previous = count + 1, w
        assert count == total, n


def test_iter_words_refuses_a_negative_point_total_on_first_use():
    words = iter_words(-1)
    with pytest.raises(PointRangeError, match="^point total must be nonnegative, got -1$"):
        next(words)


def test_iter_words_is_lazy():
    # Bell(12) = 4,213,597 words: the first one is read without listing the rest
    tracemalloc.start()
    try:
        assert next(iter_words(12)) == (0,) * 12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_enumerate_refuses_negative_rows():
    for k, l in ((-1, 1), (3, -1), (-3, 1)):
        for noncrossing in (False, True):
            with pytest.raises(PointRangeError, match="row sizes must be nonnegative"):
                enumerate_all(k, l, noncrossing_only=noncrossing)
    with pytest.raises(PointRangeError, match="row sizes must be nonnegative"):
        enumerate_category("S", -1)


def test_iter_words_refuses_a_negative_point_total():
    with pytest.raises(PointRangeError, match="^point total must be nonnegative, got -1$"):
        list(iter_words(-1))
    with pytest.raises(PointRangeError, match="^point total must be nonnegative, got -1$"):
        list(member_words("S", -1))


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_all(0, 13)


def test_enumerate_all_checks_its_listing_size_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated partitions before checking the size")

    monkeypatch.setattr(ops, "iter_words", no_enumeration)
    # Bell(12) = 4,213,597 partitions of 12 points; Bell(11) = 678,570 is the listing cap
    for k, l in ((0, 12), (5, 7), (12, 0)):
        message = (
            rf"^the 4213597 partitions of P\({k},{l}\) exceed the listing cap "
            r"Bell\(11\) = 678570$"
        )
        with pytest.raises(CapExceededError, match=message):
            enumerate_all(k, l)
    # Catalan(12) = 208,012 noncrossing partitions and Bell(11) itself pass the check
    monkeypatch.setattr(ops, "iter_words", lambda n, noncrossing_only: iter(()))
    assert enumerate_all(0, 12, noncrossing_only=True) == []
    assert enumerate_all(4, 7) == []


def test_enumerate_upto_checks_its_size_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated partitions before checking the size")

    monkeypatch.setattr(ops, "iter_words", no_enumeration)
    with pytest.raises(PointRangeError, match="nonnegative"):
        enumerate_upto(-1)
    # 1,533,308 partitions at 10 points; Bell(11) = 678,570 is the listing cap
    for total in (10, 11, 12, 10**9):
        with pytest.raises(CapExceededError, match="678570"):
            enumerate_upto(total)
    # 257,583 partitions at 9 points pass the check
    monkeypatch.setattr(ops, "iter_words", lambda n: iter(()))
    assert enumerate_upto(9) == []
