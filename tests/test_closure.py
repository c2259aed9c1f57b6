import hashlib
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import closure_reference
from conftest import words
from partcat import closure, partition
from partcat.catalog import (
    FREE_NAMES,
    RULED_NAMES,
    block,
    catalog_entry,
    category_predicate,
    crossing,
    double_singleton,
    enumerate_category,
    fat_crossing,
    four_block,
    h_series,
    half_lib,
    pair_partition,
    positioner,
    singleton,
    unit_partition,
)
from partcat.classify import _stop_targets, _upper_bound, classify_easy
from partcat.closure import Containment, generate_closure
from partcat.errors import BadParamError, BudgetError
from partcat.ops import enumerate_all, iter_words, tensor, word_total
from partcat.partition import (
    canonical_text,
    glue,
    is_noncrossing,
    normalize_word,
    parse_partition,
    partition_from_word,
    word_noncrossing,
)

CONFIRMED = Containment.CONFIRMED
NOT_FOUND = Containment.NOT_FOUND_WITHIN_BUDGET
HALF_LIB = "P(3,3): u1,l3; u2,l2; u3,l1"
FOUR_BLOCK = "P(0,4): l1,l2,l3,l4"
CROSSING = "P(2,2): u1,l2; u2,l1"


# ---------------------------------------------------------------------------
# generate_closure basics


def test_empty_generators_give_planar_pairings():
    c = generate_closure([], 6, 12)
    assert c.saturated
    assert [len(c.members(0, k)) for k in (2, 4, 6)] == [1, 2, 5]
    for k in (2, 4, 6):
        assert c.members(0, k) == enumerate_category("O+", k)
    assert c.contains(unit_partition()) is CONFIRMED
    assert c.contains(pair_partition()) is CONFIRMED


def test_closure_members_cover_two_row_shapes():
    c = generate_closure([], 6, 12)
    # nested pairings of P(2,2): the identity strands and the cup-cap
    texts = {str(p) for p in c.members(2, 2)}
    assert texts == {"P(2,2): u1,l1; u2,l2", "P(2,2): u1,u2; l1,l2"}


def test_positioner_inside_singleton_closure():
    c = generate_closure([singleton()], 4, 8)
    assert c.contains(positioner()) is CONFIRMED


def test_double_singleton_from_positioner_with_tiny_budget():
    c = generate_closure([positioner()], 2, 4)
    assert c.contains(double_singleton()) is CONFIRMED


def test_no_singleton_in_even_world():
    c = generate_closure([double_singleton(), four_block()], 6, 12)
    assert c.saturated
    assert c.contains(singleton()) is NOT_FOUND


def test_even_blocks_from_four_block():
    c = generate_closure([four_block()], 6, 12)
    assert c.contains(block(6)) is CONFIRMED


def test_three_block_generates_singleton_and_four_block():
    c = generate_closure([block(3)], 8, 16, stop_when=[singleton(), four_block()])
    assert c.contains(singleton()) is CONFIRMED
    assert c.contains(four_block()) is CONFIRMED


def test_budget_validation():
    with pytest.raises(BudgetError):
        generate_closure([], 1, 4)
    with pytest.raises(BudgetError):
        generate_closure([], 8, 6)
    with pytest.raises(BudgetError):
        generate_closure([h_series(5)], 4, 8)  # 10-point generator, budget 8
    with pytest.raises(BudgetError, match="stop_when partition exceeds"):
        generate_closure([], 4, 8, stop_when=[h_series(5)])
    c = generate_closure([], 4, 8)
    with pytest.raises(BudgetError):
        c.contains(h_series(5))


def test_oversized_generators_participate():
    # a 10-point generator above the 6-point storage budget still contributes
    c = generate_closure([h_series(5)], 6, 12)
    assert c.contains(h_series(5)) is CONFIRMED
    # contracting the interleaved blocks yields a single 8-point block, then 6
    assert c.contains(block(6)) is CONFIRMED


def test_members_list_the_oversized_words_that_contains_confirms():
    c = generate_closure([block(10)], 8, 16)
    assert c.contains(block(10)) is CONFIRMED
    assert c.members(0, 10) == [block(10)]
    assert [str(p) for p in c.members(3, 7)] == ["P(3,7): u1,u2,u3,l1,l2,l3,l4,l5,l6,l7"]
    # the dump stays within the point budget
    assert c.dump_lines() == sorted(str(p) for n in range(9) for p in c.members(0, n))


def test_early_stop_flags_unsaturated():
    c = generate_closure([four_block()], 8, 16, stop_when=[four_block()])
    assert not c.saturated
    full = generate_closure([four_block()], 8, 16)
    assert full.saturated
    assert c.words <= full.words


def test_determinism():
    a = generate_closure([singleton()], 6, 12)
    b = generate_closure([singleton()], 6, 12)
    assert a.words == b.words
    assert a.saturated == b.saturated == True
    assert a.fusion_ops == b.fusion_ops


def test_fusion_guard_stops_early_and_deterministically():
    a = generate_closure([singleton()], 8, 16, max_fusion_ops=200)
    b = generate_closure([singleton()], 8, 16, max_fusion_ops=200)
    assert not a.saturated
    assert a.words == b.words
    full = generate_closure([singleton()], 8, 16)
    assert a.words <= full.words


def test_fusion_cap_is_exact():
    # the cap is checked before every glue, so no run overshoots it
    for cap in (0, 1, 57, 1000, 20_000):
        c = generate_closure([singleton()], 8, 16, max_fusion_ops=cap)
        assert c.fusion_ops <= cap, cap
        assert not c.saturated, cap


def test_dump_lines_sorted():
    c = generate_closure([], 4, 8)
    lines = c.dump_lines()
    assert lines == sorted(lines)
    assert "P(0,2): l1,l2" in lines
    c = generate_closure([singleton()], 6, 12)
    assert c.dump_lines() == sorted(str(p) for n in range(7) for p in c.members(0, n))


def test_dump_lines_are_the_texts_of_the_stored_words():
    # on every catalog closure at the hull's budgets, the texts of the
    # one-row partitions that the stored words make
    for name in RULED_NAMES:
        c = generate_closure(catalog_entry(name).generators, 7, 14)
        want = sorted(canonical_text(partition_from_word(w)) for w in c.words)
        assert c.dump_lines() == want, name


def test_negative_fusion_cap_is_refused():
    with pytest.raises(BadParamError):
        generate_closure([singleton()], 6, 12, max_fusion_ops=-3)
    # refused before any work, for noncrossing generators too
    for gens in ([crossing()], [four_block()]):
        with pytest.raises(BadParamError):
            classify_easy(gens, max_fusion_ops=-1)
    assert generate_closure([singleton()], 6, 12, max_fusion_ops=0).fusion_ops == 0


def test_stop_reason_names_each_stop():
    c = generate_closure([four_block()], 6, 12)
    assert (c.stop_reason, c.saturated) == ("saturated", True)
    c = generate_closure([four_block()], 8, 16, stop_when=[four_block()])
    assert (c.stop_reason, c.saturated) == ("targets_found", False)
    c = generate_closure([singleton()], 8, 16, max_fusion_ops=200)
    assert (c.stop_reason, c.saturated, c.fusion_ops) == ("fusion_cap", False, 200)
    # both stops due at the same glue: the cap is named
    c = generate_closure([four_block()], 8, 16, stop_when=[four_block()], max_fusion_ops=0)
    assert (c.stop_reason, c.fusion_ops) == ("fusion_cap", 0)
    # a cap reached by the last glue leaves nothing to stop
    full = generate_closure([singleton()], 4, 8)
    last = generate_closure([singleton()], 4, 8, max_fusion_ops=full.fusion_ops)
    assert last.stop_reason == "saturated"


# ---------------------------------------------------------------------------
# reconstructions of the generating-set containments


def test_positioner_from_double_singleton_and_four_block():
    c = generate_closure(
        [double_singleton(), four_block()], 10, 20, stop_when=[positioner()]
    )
    assert c.contains(positioner()) is CONFIRMED


@pytest.mark.parametrize(
    "crossing_partition",
    [h_series(3), parse_partition("P(0,6): l1,l4; l2,l6; l3,l5")],
)
def test_positioner_plus_any_crossing_gives_crossing(crossing_partition):
    assert not is_noncrossing(crossing_partition)
    c = generate_closure(
        [positioner(), crossing_partition], 10, 20, stop_when=[crossing()]
    )
    assert c.contains(crossing()) is CONFIRMED


def test_singleton_shift_property():
    c = generate_closure([positioner()], 6, 12)
    assert c.saturated
    for w in sorted(c.words):
        if len(w) > 6:
            continue
        labels = [x for x in w]
        for i, lab in enumerate(labels):
            if labels.count(lab) == 1:  # a singleton at position i
                rest = labels[:i] + labels[i + 1 :]
                for j in range(len(labels)):
                    shifted = rest[:j] + [lab] + rest[j:]
                    variant = partition_from_word(tuple(shifted), 0, len(shifted))
                    assert c.contains(variant) is CONFIRMED, (w, i, j)


def test_h_series_gcd_arithmetic():
    c = generate_closure(
        [half_lib(), four_block(), h_series(6), h_series(9)],
        12,
        24,
        stop_when=[h_series(3)],
    )
    assert c.contains(h_series(3)) is CONFIRMED


def test_glue_is_iterated_seam_contraction():
    # width 0 concatenates; gluing c pairs at the seam must equal contracting
    # the concatenation one adjacent pair at a time
    from partcat.closure import _contract

    small = [w for n in range(5) for w in iter_words(n)]
    for a in small:
        for b in small:
            expected = glue(a, b, 0)[0]
            assert expected == normalize_word(a + tuple(len(a) + x for x in b))
            for c in range(1, min(len(a), len(b)) + 1):
                expected = _contract(expected, len(a) - c)
                assert glue(a, b, c)[0] == expected, (a, b, c)


def _check_glue_rows(firsts, seconds, dtype=np.uint8):
    """Glue every word of ``firsts`` (one length) to every (word, width) of
    ``seconds`` (any lengths) in one ``glue_rows`` call, the second
    operands padded with a label no word uses, and check each row, padding
    included, against ``glue``."""
    pad = max((len(b) for b, _ in seconds), default=0)
    stack = np.full((len(seconds), pad), pad, dtype)
    for row, (b, _) in zip(stack, seconds):
        row[: len(b)] = b
    lengths = [len(b) for b, _ in seconds]
    widths = [c for _, c in seconds]
    m = len(firsts[0])
    first_rows = np.array(firsts, dtype).reshape(len(firsts), m)
    rows = partition.glue_rows(first_rows, stack, lengths, widths)
    width = max((m + n - 2 * c for n, c in zip(lengths, widths)), default=0)
    assert rows.shape == (len(firsts) * len(seconds), width)
    got = [tuple(row) for row in rows.tolist()]
    want = []
    for b, c in seconds:
        for a in firsts:
            glued = glue(a, b, c)[0]
            want.append(glued + (width,) * (width - len(glued)))
    assert got == want, (m, seconds)


@pytest.mark.parametrize("chunk_cells", [1, 64, None])
def test_glue_rows_matches_glue(monkeypatch, chunk_cells):
    # per first length m, one stack of every word of up to 5 points, the
    # empty word included, at every width; one cell per chunk puts each
    # second operand in a chunk of its own, 64 cells split the larger
    # stacks unevenly
    if chunk_cells is not None:
        monkeypatch.setattr(partition, "GLUE_CHUNK_CELLS", chunk_cells)
    words = {n: list(iter_words(n)) for n in range(6)}
    for m, firsts in words.items():
        seconds = [(b, c) for n, ws in words.items() for c in range(min(m, n) + 1) for b in ws]
        _check_glue_rows(firsts, seconds)
    # words too long for one-byte labels
    rng = random.Random(7)
    long = [normalize_word(rng.randrange(40) for _ in range(n)) for n in (130, 140, 140)]
    _check_glue_rows(long[:1], [(b, c) for c in (0, 5, 130) for b in long[1:]], np.intp)


def test_glue_rows_on_one_byte_stacks_of_long_words():
    # the labels and the pad fit in one byte, the keys (up to k + |a| + |b|) do not
    rng = random.Random(7)
    long = [normalize_word(rng.randrange(40) for _ in range(n)) for n in (130, 140, 140)]
    _check_glue_rows(long[:1], [(b, c) for c in (0, 5, 130) for b in long[1:]])


@pytest.mark.parametrize("chunk_cells", [1, 64, None])
def test_glue_rows_matches_glue_on_random_stacks(monkeypatch, chunk_cells):
    # seeded one-byte stacks of 6-12-point words: per first length, one
    # stack of every second length at every width, row by row
    if chunk_cells is not None:
        monkeypatch.setattr(partition, "GLUE_CHUNK_CELLS", chunk_cells)
    rng = random.Random(3)

    def stack(n):
        blocks = rng.randint(1, n)
        rows = rng.randint(1, 6)
        return [normalize_word(rng.randrange(blocks) for _ in range(n)) for _ in range(rows)]

    for m in range(6, 13):
        seconds = []
        for n in range(6, 13):
            words = stack(n)
            seconds += [(b, c) for c in range(min(m, n) + 1) for b in words]
        rng.shuffle(seconds)
        _check_glue_rows(stack(m), seconds)


def test_distinct_rows_gives_each_first_index_ascending():
    rows = np.array([[1, 2], [0, 0], [1, 2], [3, 3], [0, 0]], np.uint8)
    assert closure._distinct_rows(rows).tolist() == [0, 1, 3]
    assert closure._distinct_rows(rows[:1]).tolist() == [0]
    assert closure._distinct_rows(rows[:, :0]).tolist() == [0]
    # seeded stacks of few distinct values, so most rows repeat an earlier one
    rng = np.random.default_rng(5)
    for count, width, values in [(1, 3, 4), (50, 2, 3), (400, 5, 2), (300, 1, 256)]:
        stack = rng.integers(0, values, (count, width)).astype(np.uint8)
        seen = {}
        for i, row in enumerate(stack.tolist()):
            seen.setdefault(tuple(row), i)
        assert closure._distinct_rows(stack).tolist() == sorted(seen.values())


def test_glue_in_either_order_agrees_up_to_shift():
    # glue(b, a, c) is a cyclic shift of glue(rotl(a, c), rotr(b, c), c), so
    # the worklist glues each pair of orbits in one order only; and
    # glue(rev b, rev a, c) is the reversal of glue(a, b, c)
    from partcat.closure import _rotations

    small = [w for n in range(5) for w in iter_words(n)]
    for a in small:
        for b in small:
            for c in range(min(len(a), len(b)) + 1):
                swapped = glue(b, a, c)[0]
                a_left = normalize_word(a[c:] + a[:c])
                b_right = normalize_word(b[len(b) - c :] + b[: len(b) - c])
                assert swapped in _rotations(glue(a_left, b_right, c)[0]), (a, b, c)
                mirrored = glue(normalize_word(b[::-1]), normalize_word(a[::-1]), c)[0]
                assert mirrored == normalize_word(glue(a, b, c)[0][::-1]), (a, b, c)


def test_closure_elements_respect_every_covering_predicate():
    # soundness: whatever category predicate accepts all generators must
    # accept every element the engine derives from them
    from partcat.catalog import k_series

    generator_sets = [
        [block(3)],
        [h_series(3)],
        [positioner(), block(3)],
        [crossing(), double_singleton()],
        [fat_crossing()],
        [k_series(1)],
        [half_lib(), h_series(4)],
    ]
    for gens in generator_sets:
        c = generate_closure(gens, 6, 12)
        elements = [partition_from_word(w) for w in c.words]
        for name in RULED_NAMES:
            pred = category_predicate(name)
            if all(pred(g) for g in gens):
                bad = [p for p in elements if not pred(p)]
                assert not bad, (name, [str(g) for g in gens], bad[:3])


def test_two_row_members_match_predicate_on_every_shape():
    # the closure stores one-row words; reinterpreting them across shapes
    # must agree with the predicate filter over full two-row enumeration
    for name in ("H+", "B#+"):
        entry = catalog_entry(name)
        pred = category_predicate(name)
        c = generate_closure(entry.generators, 6, 12)
        for n in range(7):
            for k in range(n + 1):
                want = {p for p in enumerate_all(k, n - k) if pred(p)}
                assert set(c.members(k, n - k)) == want, (name, k, n - k)


def test_membership_is_rotation_and_involution_invariant():
    c = generate_closure([four_block()], 6, 12)
    from partcat.ops import ROTATION_INVERSES, Rotation, involute, rotate

    for p in c.members(2, 2) + c.members(1, 3) + c.members(0, 6):
        assert c.contains(involute(p)) is CONFIRMED
        for where in (Rotation.DOWN_LEFT, Rotation.DOWN_RIGHT):
            if p.upper_count:
                assert c.contains(rotate(p, where)) is CONFIRMED
        for where in (Rotation.UP_LEFT, Rotation.UP_RIGHT):
            if p.lower_count:
                assert c.contains(rotate(p, where)) is CONFIRMED


def test_closure_equality_at_deeper_budget():
    # spot check beyond the default budget: planar pairings up to 10 points
    c = generate_closure([], 10, 20)
    assert c.saturated
    assert [len(c.members(0, 2 * k)) for k in range(1, 6)] == [1, 2, 5, 14, 42]
    c = generate_closure([four_block()], 10, 20)
    assert c.saturated
    for k in (8, 10):
        want = {p.word for p in enumerate_category("H+", k)}
        assert {w for w in c.words if len(w) == k} == want, k


def test_half_liberated_closures_match_predicates_at_budget_8():
    for name in ("O*", "H*", "B#*"):
        entry = catalog_entry(name)
        c = generate_closure(entry.generators, 8, 16)
        assert c.saturated
        for k in range(1, 9):
            want = {p.word for p in enumerate_category(name, k)}
            got = {w for w in c.words if len(w) == k}
            assert want == got, (name, k)


def test_block_extraction_lemma():
    # blocks of members stay members, up to a singleton patch for odd blocks
    for name in FREE_NAMES:
        entry = catalog_entry(name)
        pred = category_predicate(name)
        c = generate_closure(entry.generators, 6, 12)
        has_singleton = c.contains(singleton()) is CONFIRMED
        has_double = c.contains(double_singleton()) is CONFIRMED
        for p in map(partition_from_word, c.words):
            for blk in p.blocks:
                standalone = block(len(blk))
                if has_singleton:
                    assert pred(standalone), (name, str(p))
                elif len(blk) % 2 == 0:
                    assert pred(standalone), (name, str(p))
                else:
                    assert has_double, (name, str(p))
                    assert pred(tensor(singleton(), standalone)), (name, str(p))


# ---------------------------------------------------------------------------
# the worklist against an all-rotations reference


def _reference_orbit(w):
    return {
        normalize_word(v[i:] + v[:i]) for v in (w, w[::-1]) for i in range(max(1, len(w)))
    }


def _reference_contract(w, i):
    keep, gone = w[i], w[i + 1]
    return normalize_word([keep if x == gone else x for x in w[:i] + w[i + 2 :]])


def _reference_closure(generators, point_budget):
    """The plain worklist: every word of every orbit is queued, contracted at
    each adjacent pair, and glued with every earlier word in both orders at
    every width whose result fits the point budget.  Returns the stored and
    the oversized words."""
    stored, big, queue = set(), set(), []

    def add(w):
        pool = stored if len(w) <= point_budget else big
        if w not in pool:
            orbit = _reference_orbit(w)
            pool.update(orbit)
            queue.extend(sorted(orbit))

    def pair(a, b):
        # concatenate, then contract the seam one point pair at a time
        m = len(a)
        word = a + tuple(m + x for x in b)
        for c in range(min(m, len(b)) + 1):
            if c:
                word = _reference_contract(word, m - c)
            if len(word) <= point_budget:
                add(normalize_word(word))

    for g in generators:
        add(g.word)
    add((0, 0))
    qi = 0
    while qi < len(queue):
        w = queue[qi]
        qi += 1
        for i in range(len(w) - 1):
            add(_reference_contract(w, i))
        for v in queue[:qi]:
            pair(w, v)
            pair(v, w)
    return stored, big


def _assert_matches_reference(generators, point_budget, intermediate_budget):
    c = generate_closure(generators, point_budget, intermediate_budget)
    assert c.saturated
    stored, big = _reference_closure(generators, point_budget)
    label = ([str(g) for g in generators], point_budget)
    assert c.words == stored, label
    assert c.oversized_words == big, label


def test_worklist_matches_reference_on_predicate_categories():
    for name in RULED_NAMES:
        _assert_matches_reference(catalog_entry(name).generators, 6, 12)


def test_worklist_matches_reference_on_test_generator_sets():
    from partcat.catalog import k_series

    generator_sets = [
        [],
        [singleton()],
        [positioner()],
        [double_singleton()],
        [four_block()],
        [double_singleton(), four_block()],
        [block(3)],
        [h_series(3)],
        [h_series(5)],
        [positioner(), block(3)],
        [positioner(), h_series(3)],
        [positioner(), parse_partition("P(0,6): l1,l4; l2,l6; l3,l5")],
        [crossing(), double_singleton()],
        [fat_crossing()],
        [k_series(1)],
        [half_lib(), h_series(4)],
        [half_lib(), four_block(), h_series(6), h_series(9)],
    ]
    for gens in generator_sets:
        _assert_matches_reference(gens, 6, max([12] + [g.n_points for g in gens]))
    # oversized generators contract at every cyclic position, the last one too
    for texts in (
        ("P(0,7): l1; l2,l6; l3,l5,l7; l4", "P(0,1): l1"),
        ("P(0,7): l1,l3; l2; l4; l5,l6,l7", "P(0,7): l1,l7; l2,l3,l4,l5; l6"),
    ):
        _assert_matches_reference([parse_partition(t) for t in texts], 4, 8)


def _random_generator_sets():
    """40 seeded sets of 1-2 words of up to 6 points, with a budget of 4-6."""
    import random

    rng = random.Random(20120123)
    words = {n: list(iter_words(n)) for n in range(1, 7)}
    for _ in range(40):
        gens = [
            partition_from_word(rng.choice(words[rng.randint(1, 6)]))
            for _ in range(rng.randint(1, 2))
        ]
        yield gens, rng.randint(4, 6)


def test_worklist_matches_reference_on_random_generator_sets():
    for gens, point_budget in _random_generator_sets():
        _assert_matches_reference(gens, point_budget, 2 * point_budget)


# ---------------------------------------------------------------------------
# the engine against the sequential glue-by-glue reference


def _assert_same_run(generators, point_budget, intermediate_budget, **options):
    got = generate_closure(generators, point_budget, intermediate_budget, **options)
    want = closure_reference.generate_closure(
        generators, point_budget, intermediate_budget, **options
    )
    label = ([str(g) for g in generators], point_budget, options)
    assert got.words == want.words, label
    assert got.oversized_words == want.oversized_words, label
    assert got.saturated == want.saturated, label
    assert got.fusion_ops == want.fusion_ops, label


def _catalog_generator_sets():
    return [catalog_entry(name).generators for name in RULED_NAMES]


def test_engine_matches_sequential_reference_on_catalog_sets():
    for gens in _catalog_generator_sets():
        _assert_same_run(gens, 6, 12)


def test_engine_matches_sequential_reference_in_small_chunks(monkeypatch):
    # 16 cells per chunk split a batch's glue kernel into many chunks, so a
    # word glued in two chunks must keep its first glue; the caps stop the
    # replay inside a batch
    monkeypatch.setattr(partition, "GLUE_CHUNK_CELLS", 16)
    for gens in _catalog_generator_sets():
        _assert_same_run(gens, 6, 12)
    for cap in range(0, 400, 7):
        _assert_same_run([singleton()], 6, 12, max_fusion_ops=cap)


def test_engine_matches_sequential_reference_under_every_small_cap():
    # a saturated run takes 3661 glues; caps up to 400 stop it at many
    # different places inside one representative's pairings
    for cap in range(401):
        _assert_same_run([singleton()], 6, 12, max_fusion_ops=cap)
    # here one batch finds a new word more than once; the engine must add
    # it at its first glue (caps 27, 52 and 67-72 tell the first from the
    # last)
    for cap in range(101):
        _assert_same_run(catalog_entry("S").generators, 6, 12, max_fusion_ops=cap)


def test_engine_matches_sequential_reference_on_target_stops():
    # the cap keeps the unreachable targets cheap; the found ones stop after
    # 0 to a few thousand glues
    for gens in _catalog_generator_sets():
        for target in (crossing(), half_lib(), four_block()):
            _assert_same_run(gens, 8, 16, stop_when=[target], max_fusion_ops=20_000)


def test_engine_matches_sequential_reference_on_random_generator_sets():
    for gens, point_budget in _random_generator_sets():
        _assert_same_run(gens, point_budget, 2 * point_budget)


def test_engine_matches_sequential_reference_above_twenty_points():
    _assert_same_run([singleton()], 22, 44, max_fusion_ops=2000)
    _assert_same_run([h_series(11)], 22, 44, max_fusion_ops=2000)


# ---------------------------------------------------------------------------
# complete lengths: glues counted, not computed


def test_universe_counts_every_word_of_each_length():
    for k in range(11):
        assert word_total(k) == sum(1 for _ in iter_words(k)), k
        assert word_total(k, True) == sum(1 for _ in iter_words(k, noncrossing_only=True)), k


def _count_glued_pairs(monkeypatch) -> list[int]:
    """Make ``closure.glue_rows`` add the number of pairs it is handed and
    its number of calls to the two-item list returned."""
    glued = [0, 0]
    glue_rows = closure.glue_rows

    def counting(firsts, seconds, lengths, widths):
        glued[0] += len(firsts) * len(seconds)
        glued[1] += 1
        return glue_rows(firsts, seconds, lengths, widths)

    monkeypatch.setattr(closure, "glue_rows", counting)
    return glued


@pytest.mark.parametrize("name", ["S", "S+"])
def test_glues_of_complete_lengths_are_counted_not_computed(monkeypatch, name):
    # S completes every length under the Bell bound, S+ under the Catalan one
    glued = _count_glued_pairs(monkeypatch)
    c = generate_closure(catalog_entry(name).generators, 6, 12)
    assert c.saturated
    assert 0 < glued[0] < c.fusion_ops / 4, (glued[0], c.fusion_ops)
    assert (glued[0], c.fusion_ops) == {"S": (3816, 30878), "S+": (850, 15738)}[name]


def test_glues_are_computed_while_their_length_is_incomplete(monkeypatch):
    # only length 0 completes here: the empty word, a contraction of the
    # pair seed, is all of it, so the one glue skipped is the empty word
    # with itself
    glued = _count_glued_pairs(monkeypatch)
    c = generate_closure([half_lib(), four_block(), h_series(3)], 8, 16)
    assert c.saturated
    assert glued[0] == c.fusion_ops - 1


def test_no_glue_is_computed_once_no_glue_can_be_made(monkeypatch):
    # a target that is a generator is found before the first glue, and a
    # cap of 0 is reached before it: the first batch is counted, none of
    # its glues is computed, and the run stops there
    glued = _count_glued_pairs(monkeypatch)
    gens = [half_lib(), four_block()]
    c = generate_closure(gens, 8, 16, stop_when=[four_block()])
    assert (c.stop_reason, c.fusion_ops) == ("targets_found", 0)
    c = generate_closure(gens, 8, 16, max_fusion_ops=0)
    assert (c.stop_reason, c.fusion_ops) == ("fusion_cap", 0)
    assert glued == [0, 0]


def test_one_kernel_call_per_representative(monkeypatch):
    # the 16 catalog closures at 7/14 under a 500k fusion cap: all the glues
    # of one representative, whatever the lengths of their second operands,
    # go to glue_rows in one call, and representatives with nothing to
    # compute make none
    glued = _count_glued_pairs(monkeypatch)
    representatives = 0
    for gens in _catalog_generator_sets():
        c = generate_closure(gens, 7, 14, max_fusion_ops=500_000)
        queued = {closure._orbit(w)[1][0] for w in c.words | c.oversized_words}
        representatives += len(queued)
    assert glued[0] == 127_850
    assert glued[1] <= representatives, (glued[1], representatives)


@pytest.mark.parametrize("name,complete_from", [("S", 5969), ("S+", 1106)])
def test_engine_matches_sequential_reference_across_complete_lengths(name, complete_from):
    # the first skipped glues fall within the first 30 (lengths 0 to 2);
    # every length up to the point budget is complete from glue
    # complete_from on, at the start of a batch, S under the Bell bound and
    # S+ under the Catalan bound
    gens = catalog_entry(name).generators
    for cap in [*range(30), *range(complete_from - 40, complete_from + 80, 3)]:
        _assert_same_run(gens, 6, 12, max_fusion_ops=cap)


# ---------------------------------------------------------------------------
# classification


def test_classify_noncrossing_examples():
    assert classify_easy([]).category_name == "O+"
    assert classify_easy([four_block()]).category_name == "H+"
    assert classify_easy([block(3)]).category_name == "S+"


def test_classify_classical_examples():
    x = crossing()
    assert classify_easy([x]).category_name == "O"
    assert classify_easy([double_singleton(), x]).category_name == "B'"
    assert classify_easy([four_block(), singleton(), x]).category_name == "S"


def test_classify_easy_examples():
    res = classify_easy([half_lib()])
    assert (res.world, res.category_name) == ("HalfLib", "O*")
    res = classify_easy([half_lib(), double_singleton()])
    assert (res.world, res.category_name) == ("HalfLib", "B#*")
    res = classify_easy([half_lib(), four_block(), h_series(3)])
    assert (res.world, res.category_name, res.series_parameter) == ("Series", "H^(3)", 3)
    # h(6) is a generator, so the series name needs no glue
    res = classify_easy([half_lib(), four_block(), h_series(6)], 8, 16)
    assert (res.world, res.category_name, res.series_parameter) == ("Series", "H^(6)", 6)


def test_classify_easy_lines_are_pinned():
    # every one-row partition of at most 6 points: a noncrossing one alone,
    # and every one with the crossing added; the SHA-256 of all lines
    digest = hashlib.sha256()
    for n in range(7):
        for p in enumerate_all(0, n):
            runs = ([p], [p, crossing()]) if is_noncrossing(p) else ([p, crossing()],)
            for gens in runs:
                for line in classify_easy(gens).lines():
                    digest.update(f"{line}\n".encode())
    want = "f4308ef66c960ae6d6d064c50cb5760b80f67ce452edf7ac743e79985fd0ce48"
    assert digest.hexdigest() == want


def test_classify_easy_crossing_goes_classical():
    res = classify_easy([crossing()])
    assert (res.world, res.category_name) == ("Classical6", "O")
    assert ("P(2,2): u1,l2; u2,l1", "Confirmed") in res.evidence


def test_classify_easy_undetermined_for_fat_crossing():
    # its blocks are balanced: the upper bound is H*, whose generator
    # half-lib is not in the saturated closure
    res = classify_easy([fat_crossing(), four_block()], max_fusion_ops=100_000)
    assert (res.world, res.category_name) == ("Undetermined", None)
    assert res.evidence == (
        (HALF_LIB, "NotFoundWithinBudget"),
        ("H*", "upper bound"),
    )
    assert "name: -" in res.lines()


def test_classify_easy_noncrossing_generators_stay_exact():
    res = classify_easy([four_block()])
    assert (res.world, res.category_name) == ("Free7", "H+")
    assert res.budgets is None


@pytest.mark.parametrize("gens", [[four_block()], [crossing()]], ids=["noncrossing", "crossing"])
@pytest.mark.parametrize("budgets,message", [
    ((1, 16), "point budget must be at least 2"),
    ((8, 4), "intermediate budget must be at least the point budget"),
], ids=["point-budget-1", "ibudget-below-budget"])
def test_classify_easy_refuses_bad_budgets(gens, budgets, message):
    with pytest.raises(BudgetError, match=message):
        classify_easy(gens, *budgets)


def test_classify_easy_refuses_a_half_liberated_name_a_generator_fails():
    # h(4) has unbalanced blocks and h(5) odd ones: neither lies in H*, so
    # the upper bound is the series name, and the closure finds its three
    # generators (four-block from the contractions of h(s)) at any budget
    for s in (4, 5):
        h = h_series(s)
        want = (
            (HALF_LIB, "Confirmed"),
            (FOUR_BLOCK, "Confirmed"),
            (str(h), "Confirmed"),
            (HALF_LIB, f"satisfies H^({s})"),
            (str(h), f"satisfies H^({s})"),
        )
        for budgets in ((6, 12), (8, 16)):
            res = classify_easy([half_lib(), h], *budgets)
            assert (res.world, res.category_name, res.series_parameter) == (
                "Series", f"H^({s})", s
            ), budgets
            assert res.evidence == want, budgets


def test_classify_easy_names_no_series_below_the_range():
    # the block imbalances of h(4) and h(6) have gcd 2, which names no
    # series member: the upper bound is H, and with no glue at all the
    # crossing is not found, so the answer stays open
    gens = [half_lib(), four_block(), h_series(4), h_series(6)]
    res = classify_easy(gens, 12, 24, max_fusion_ops=0)
    assert (res.world, res.category_name, res.series_parameter) == ("Undetermined", None, None)
    assert res.evidence == (
        (CROSSING, "NotFoundWithinBudget (search stopped before saturation)"),
        ("H", "upper bound"),
    )
    res = classify_easy(gens, 12, 24, max_fusion_ops=400_000)
    assert (res.world, res.category_name, res.series_parameter) == ("Classical6", "H", None)


def test_classify_easy_names_only_categories_every_generator_satisfies():
    crossing_words = [w for n in range(1, 7) for w in iter_words(n) if not word_noncrossing(w)]
    assert len(crossing_words) == 82
    for w in crossing_words:
        gens = [half_lib(), partition_from_word(w)]
        res = classify_easy(gens, 6, 12)
        if res.category_name is not None:
            rule = category_predicate(res.category_name)
            assert all(rule(g) for g in gens), (w, res.category_name)


@st.composite
def _generator_sets(draw):
    """One to three one-row partitions of up to 6 points."""
    lengths = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3))
    return [partition_from_word(draw(words(n))) for n in lengths]


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_upper_bound_holds_the_closure(gens):
    # the closure never leaves the upper bound; a named answer rests on
    # finding all its stop targets, and every generator satisfies it
    cap = 50_000
    rule = category_predicate(_upper_bound(gens)[0])
    c = generate_closure(gens, 6, 12, max_fusion_ops=cap)
    assert all(rule(partition_from_word(w)) for w in c.words | c.oversized_words)
    res = classify_easy(gens, 6, 12, max_fusion_ops=cap)
    if res.category_name is not None:
        assert all(c.contains_word(t.word) for t in _stop_targets(res.category_name))
        assert all(map(category_predicate(res.category_name), gens))


def test_classification_report_lines():
    res = classify_easy([half_lib()])
    lines = res.lines()
    assert lines[0] == "world: HalfLib"
    assert lines[1] == "name: O*"
    assert any(line.startswith("budgets: 8/16") for line in lines)
    assert any("Confirmed" in line for line in lines)
