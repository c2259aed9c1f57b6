import random

import numpy as np
import pytest

import closure_reference
from partcat import partition
from partcat.catalog import (
    FREE_NAMES,
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
from partcat.classify import classify_classical, classify_easy, classify_noncrossing
from partcat.closure import Containment, generate_closure
from partcat.errors import BadParamError, BudgetError, NoPredicateError, NotNoncrossingError
from partcat.ops import enumerate_all, iter_words, tensor
from partcat.partition import (
    glue,
    is_noncrossing,
    normalize_word,
    parse_partition,
    partition_from_word,
    word_noncrossing,
)

CONFIRMED = Containment.CONFIRMED
NOT_FOUND = Containment.NOT_FOUND_WITHIN_BUDGET


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
    c = generate_closure([], 4, 8)
    with pytest.raises(BudgetError):
        c.contains(h_series(5))


def test_oversized_generators_participate():
    # a 10-point generator above the 6-point storage budget still contributes
    c = generate_closure([h_series(5)], 6, 12)
    assert c.contains(h_series(5)) is CONFIRMED
    # contracting the interleaved blocks yields a single 8-point block, then 6
    assert c.contains(block(6)) is CONFIRMED


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


@pytest.mark.parametrize("chunk_cells", [1, 64, None])
def test_glue_rows_matches_glue(monkeypatch, chunk_cells):
    # every pair of words of up to 5 points, the empty word included, at
    # every width; one cell per chunk puts each second operand in a chunk
    # of its own, 64 cells split the larger stacks unevenly
    import numpy as np

    from partcat import partition

    if chunk_cells is not None:
        monkeypatch.setattr(partition, "GLUE_CHUNK_CELLS", chunk_cells)
    words = {n: list(iter_words(n)) for n in range(6)}
    stacks = {n: np.array(ws, dtype=np.uint8).reshape(len(ws), n) for n, ws in words.items()}
    for m, firsts in words.items():
        for n, seconds in words.items():
            for c in range(min(m, n) + 1):
                rows = partition.glue_rows(stacks[m], stacks[n], c)
                assert rows.shape == (len(firsts) * len(seconds), m + n - 2 * c)
                got = [tuple(row) for row in rows.tolist()]
                want = [glue(a, b, c)[0] for b in seconds for a in firsts]
                assert got == want, (m, n, c)
    # words too long for one-byte labels
    import random

    rng = random.Random(7)
    long = [normalize_word(rng.randrange(40) for _ in range(n)) for n in (130, 140, 140)]
    for c in (0, 5, 130):
        rows = partition.glue_rows(np.array(long[:1]), np.array(long[1:]), c)
        assert [tuple(row) for row in rows.tolist()] == [glue(long[0], b, c)[0] for b in long[1:]]


def test_glue_rows_on_one_byte_stacks_of_long_words():
    # the labels fit in one byte, the keys (up to k + |a| + |b|) do not
    rng = random.Random(7)
    long = [normalize_word(rng.randrange(40) for _ in range(n)) for n in (130, 140, 140)]
    firsts, seconds = np.array(long[:1], np.uint8), np.array(long[1:], np.uint8)
    for c in (0, 5, 130):
        rows = partition.glue_rows(firsts, seconds, c)
        assert [tuple(row) for row in rows.tolist()] == [glue(long[0], b, c)[0] for b in long[1:]]


@pytest.mark.parametrize("chunk_cells", [1, 64, None])
def test_glue_rows_matches_glue_on_random_stacks(monkeypatch, chunk_cells):
    # seeded one-byte stacks of 6-12-point words, every pair of lengths at
    # every width, row by row
    if chunk_cells is not None:
        monkeypatch.setattr(partition, "GLUE_CHUNK_CELLS", chunk_cells)
    rng = random.Random(3)

    def stack(n):
        blocks = rng.randint(1, n)
        rows = rng.randint(1, 6)
        return [normalize_word(rng.randrange(blocks) for _ in range(n)) for _ in range(rows)]

    for m in range(6, 13):
        for n in range(6, 13):
            firsts, seconds = stack(m), stack(n)
            one_byte = np.array(firsts, np.uint8), np.array(seconds, np.uint8)
            for c in range(min(m, n) + 1):
                rows = partition.glue_rows(*one_byte, c)
                want = [glue(a, b, c)[0] for b in seconds for a in firsts]
                assert [tuple(row) for row in rows.tolist()] == want, (m, n, c)


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
    from partcat.catalog import (
        CLASSICAL_NAMES,
        FREE_NAMES,
        HALF_LIBERATED_NAMES,
        k_series,
    )

    generator_sets = [
        [block(3)],
        [h_series(3)],
        [positioner(), block(3)],
        [crossing(), double_singleton()],
        [fat_crossing()],
        [k_series(1)],
        [half_lib(), h_series(4)],
    ]
    names = FREE_NAMES + CLASSICAL_NAMES + HALF_LIBERATED_NAMES
    for gens in generator_sets:
        c = generate_closure(gens, 6, 12)
        elements = [partition_from_word(w) for w in c.words]
        for name in names:
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
    from partcat.catalog import CLASSICAL_NAMES, HALF_LIBERATED_NAMES

    for name in FREE_NAMES + CLASSICAL_NAMES + HALF_LIBERATED_NAMES:
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
    from partcat.catalog import CLASSICAL_NAMES, HALF_LIBERATED_NAMES

    return [
        catalog_entry(name).generators
        for name in FREE_NAMES + CLASSICAL_NAMES + HALF_LIBERATED_NAMES
    ]


def test_engine_matches_sequential_reference_on_catalog_sets():
    for gens in _catalog_generator_sets():
        _assert_same_run(gens, 6, 12)


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
# classification


def test_classify_noncrossing_examples():
    assert classify_noncrossing([]).category_name == "O+"
    assert classify_noncrossing([four_block()]).category_name == "H+"
    assert classify_noncrossing([block(3)]).category_name == "S+"


def test_classify_noncrossing_rejects_crossing_generators():
    with pytest.raises(NotNoncrossingError):
        classify_noncrossing([crossing()])


def test_classify_classical_examples():
    assert classify_classical([]).category_name == "O"
    assert classify_classical([double_singleton()]).category_name == "B'"
    assert classify_classical([four_block(), singleton()]).category_name == "S"


def test_classify_easy_examples():
    res = classify_easy([half_lib()])
    assert (res.world, res.category_name) == ("HalfLib", "O*")
    res = classify_easy([half_lib(), double_singleton()])
    assert (res.world, res.category_name) == ("HalfLib", "B#*")
    res = classify_easy([half_lib(), four_block(), h_series(3)])
    assert (res.world, res.category_name, res.series_parameter) == ("Series", "H^(3)", 3)


def test_classify_easy_crossing_goes_classical():
    res = classify_easy([crossing()])
    assert (res.world, res.category_name) == ("Classical6", "O")
    assert ("P(2,2): u1,l2; u2,l1", "Confirmed") in res.evidence


def test_classify_easy_undetermined_for_fat_crossing():
    res = classify_easy([fat_crossing(), four_block()], max_fusion_ops=100_000)
    assert res.world == "Undetermined"
    assert res.category_name is None


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
    # h(4) has unbalanced blocks and h(5) odd ones: neither lies in H*
    h4_text = "P(0,8): l1,l3,l5,l7; l2,l4,l6,l8"
    res = classify_easy([half_lib(), h_series(4)], 6, 12)
    assert (res.world, res.category_name) == ("Undetermined", None)
    assert res.evidence == (
        ("P(2,2): u1,l2; u2,l1", "NotFoundWithinBudget"),
        ("P(3,3): u1,l3; u2,l2; u3,l1", "Confirmed"),
        ("P(0,4): l1,l2,l3,l4", "Confirmed"),
        ("P(0,6): l1,l3,l5; l2,l4,l6", "NotFoundWithinBudget"),
        (h4_text, "fails H*"),
    )
    for budgets in ((6, 12), (8, 16)):
        res = classify_easy([half_lib(), h_series(5)], *budgets)
        assert (res.world, res.category_name) == ("Undetermined", None), budgets
        assert res.evidence[-1] == ("P(0,10): l1,l3,l5,l7,l9; l2,l4,l6,l8,l10", "fails H*")
    # once the closure reaches h(4) itself, the series name stands
    res = classify_easy([half_lib(), h_series(4)], 8, 16)
    assert (res.world, res.category_name, res.series_parameter) == ("Series", "H^(4)", 4)
    assert res.evidence[-1] == (h4_text, "Confirmed")


def test_classify_easy_names_no_series_below_the_range():
    # with no glue at all, h(4) and h(6) are found but the crossing is not;
    # their gcd 2 names no series member, so the answer stays open
    gens = [half_lib(), four_block(), h_series(4), h_series(6)]
    res = classify_easy(gens, 12, 24, max_fusion_ops=0)
    assert (res.world, res.category_name, res.series_parameter) == ("Undetermined", None, None)
    assert res.evidence[0] == (
        "P(2,2): u1,l2; u2,l1", "NotFoundWithinBudget (search stopped before saturation)"
    )
    assert res.evidence[-1] == ("P(0,4): l1,l3; l2,l4", "series parameter must be >= 3, got 2")


def test_classify_easy_names_only_categories_every_generator_satisfies():
    crossing_words = [w for n in range(1, 7) for w in iter_words(n) if not word_noncrossing(w)]
    assert len(crossing_words) == 82
    for w in crossing_words:
        gens = [half_lib(), partition_from_word(w)]
        res = classify_easy(gens, 6, 12)
        if res.category_name is None:
            continue
        try:
            rule = category_predicate(res.category_name)
        except NoPredicateError:
            continue
        assert all(rule(g) for g in gens), (w, res.category_name)


def test_classification_report_lines():
    res = classify_easy([half_lib()])
    lines = res.lines()
    assert lines[0] == "world: HalfLib"
    assert lines[1] == "name: O*"
    assert any(line.startswith("budgets: 8/16") for line in lines)
    assert any("Confirmed" in line for line in lines)
