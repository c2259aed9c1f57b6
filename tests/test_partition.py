import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

import block_reference as ref
from block_reference import lower, make_partition, upper
from conftest import partitions
from partcat.catalog import enumerate_category
from partcat.closure import generate_closure
from partcat.errors import (
    CoverageError,
    OverlapError,
    ParseError,
    PartcatError,
    PointRangeError,
)
from partcat.partition import (
    canonical_text,
    is_noncrossing,
    parse_partition,
    partition_from_word,
    sorted_partitions,
)
from partcat.catalog import (
    crossing,
    double_singleton,
    four_block,
    h_series,
    pair_partition,
    positioner,
    unit_partition,
)
from partcat.ops import enumerate_all


def test_make_partition_examples():
    assert str(make_partition(0, 2, [[lower(1), lower(2)]])) == "P(0,2): l1,l2"
    assert str(make_partition(1, 1, [[upper(1), lower(1)]])) == "P(1,1): u1,l1"
    pos = make_partition(0, 4, [[lower(1)], [lower(2), lower(4)], [lower(3)]])
    assert pos == positioner()


def test_make_partition_canonicalizes_input_order():
    p = make_partition(0, 4, [[lower(3)], [lower(4), lower(2)], [lower(1)]])
    assert p == positioner() == parse_partition("P(0,4): l3; l4,l2; l1")
    assert p.blocks == (("l1",), ("l2", "l4"), ("l3",))


def test_make_partition_errors():
    # the reference's point-list check and the parser refuse alike
    cases = [
        (OverlapError, (0, 2), [[lower(1), lower(2)], [lower(2)]], "P(0,2): l1,l2; l2"),
        (CoverageError, (0, 3), [[lower(1), lower(2)]], "P(0,3): l1,l2"),
        (PointRangeError, (0, 2), [[lower(1), lower(3)]], "P(0,2): l1,l3"),
        (PointRangeError, (1, 0), [[lower(1)]], "P(1,0): l1"),
    ]
    for error, shape, blocks, text in cases:
        with pytest.raises(error) as from_points:
            make_partition(*shape, blocks)
        with pytest.raises(error) as from_text:
            parse_partition(text)
        assert str(from_text.value) == str(from_points.value)


def test_coverage_error_stays_short():
    with pytest.raises(CoverageError) as small:
        parse_partition("P(0,3): l2")
    assert str(small.value) == "points not covered: l1, l3"
    with pytest.raises(CoverageError) as large:
        parse_partition("P(100000,0):")
    message = str(large.value)
    assert len(message) < 100
    assert message.startswith("points not covered: u1, u2,")
    assert message.endswith("(100000 in all)")


def test_coverage_error_is_bounded_by_the_input():
    # naming the uncovered points walks only the labelled ones and the first
    # few others, never the whole declared shape
    with pytest.raises(CoverageError) as huge:
        parse_partition("P(1000000000,0): u1")
    assert str(huge.value) == (
        "points not covered: u2, u3, u4, u5, u6, u7, u8, u9, ... (999999999 in all)"
    )
    with pytest.raises(CoverageError) as two_rows:
        parse_partition("P(3,2): u2,l1; u1")
    assert str(two_rows.value) == "points not covered: u3, l2"


def test_parse_examples():
    assert parse_partition("P(0,2): l1,l2") == pair_partition()
    assert parse_partition("P(2,2): u1,l2; u2,l1") == crossing()
    assert parse_partition("P(0,3): l1,l2,l3") == make_partition(
        0, 3, [[lower(1), lower(2), lower(3)]]
    )
    # whitespace-insensitive
    assert parse_partition(" P( 0 , 4 ) :  l1 ;  l2 , l4 ; l3 ") == positioner()
    assert parse_partition("P(0,0):").n_points == 0


@pytest.mark.parametrize(
    "bad",
    ["", "Q(0,2): l1,l2", "P(0,2) l1,l2", "P(0,2): l1;;l2", "P(0,2): l1,x2", "P(0,2): l1 l2",
     # digits of other scripts: the grammar reads ASCII digits only
     "P(\u0663,0): u1,u2,u3", "P(0,3): l1,l2,l\uff13"],
)
def test_parse_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_partition(bad)


def test_parse_range_error_goes_through_validation():
    with pytest.raises(PointRangeError):
        parse_partition("P(0,2): l1,l0; l2")
    with pytest.raises(OverlapError):
        parse_partition("P(0,2): l1,l2; l2")


def test_parse_refuses_numbers_over_the_digit_bound():
    # at most 18 digits as written, leading zeros included
    assert parse_partition("P(0,1): l" + "0" * 17 + "1") == parse_partition("P(0,1): l1")
    with pytest.raises(CoverageError, match=r"\(999999999999999999 in all\)$"):
        parse_partition("P(999999999999999999,0):")
    for text in (
        "P(0,1): l" + "0" * 18 + "1",
        "P(0," + "0" * 19 + "):",
        "P(1" + "0" * 5000 + ",0): u1",
        # the whole text is read before any point is checked
        "P(0,1): l2; l" + "0" * 5000 + "1",
    ):
        with pytest.raises(ParseError, match="has more than 18 digits$"):
            parse_partition(text)


@pytest.mark.parametrize(
    "text",
    ["x" * 100_001, "P(0,1): l1, " + "l" * 100_000, "P(0,1): l" + "1" * 100_000],
    ids=["literal", "point-code", "number"],
)
def test_parse_error_messages_stay_short(text):
    # a message quotes at most 40 characters of the input and gives its length
    with pytest.raises(ParseError) as err:
        parse_partition(text)
    message = str(err.value)
    assert len(message) < 120
    assert "(100001 characters)" in message or "(100000 characters)" in message


@st.composite
def point_text(draw):
    """A shape, point blocks that may leave its range, overlap or leave points
    uncovered, and their text, with a leading zero here and there."""
    k, l = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    own = [("u", i) for i in range(1, k + 1)] + [("l", j) for j in range(1, l + 1)]
    stray = draw(st.lists(st.tuples(st.sampled_from("ul"), st.integers(0, 4)), max_size=2))
    points = draw(st.permutations(own + stray))[draw(st.integers(0, 1)) :]
    blocks: list[list[tuple[str, int]]] = []
    for point in points:
        if not blocks or draw(st.booleans()):
            blocks.append([])
        blocks[-1].append(point)
    codes = [[f"{row}{'0' * draw(st.integers(0, 1))}{index}" for row, index in b] for b in blocks]
    return k, l, blocks, f"P({k},{l}): " + "; ".join(map(",".join, codes))


@given(point_text())
def test_parse_matches_the_point_reference(drawn):
    k, l, blocks, text = drawn
    try:
        want = make_partition(k, l, blocks)
    except PartcatError as exc:
        with pytest.raises(PartcatError) as got:
            parse_partition(text)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert parse_partition(text) == want


def test_canonical_text_examples():
    assert canonical_text(unit_partition()) == "P(1,1): u1,l1"
    assert canonical_text(four_block()) == "P(0,4): l1,l2,l3,l4"
    assert canonical_text(positioner()) == "P(0,4): l1; l2,l4; l3"
    assert canonical_text(make_partition(0, 0, ())) == "P(0,0):"


def test_roundtrip_and_idempotence_exhaustive():
    for n in range(9):
        for k in range(n + 1):
            for p in enumerate_all(k, n - k):
                text = canonical_text(p)
                assert parse_partition(text) == p
                # blocks are the code groups that the text joins
                assert "; ".join(map(",".join, p.blocks)) == text.partition(":")[2].strip()
                assert p.blocks == tuple(tuple(map(str, b)) for b in ref.blocks(p))


@given(partitions(max_points=8))
def test_roundtrip_random(p):
    assert parse_partition(canonical_text(p)) == p


@given(partitions(max_points=6), st.integers(min_value=0, max_value=2**30))
def test_parse_ignores_injected_whitespace(p, seed):
    rng = random.Random(seed)
    mangled = "".join(
        ch + " " * rng.randrange(3) if not ch.isdigit() or rng.random() < 0.5 else ch
        for ch in canonical_text(p)
    )
    assert parse_partition(mangled) == p


def test_sorted_partitions_checks_the_shape_before_reading_words():
    def unread():
        raise AssertionError("a word was read")
        yield ()

    for k, l in ((-1, 1), (3, -1)):
        with pytest.raises(PointRangeError, match="row sizes must be nonnegative"):
            sorted_partitions(k, l, unread())
    words = [(0, 1) + (0,) * 8, (0,) + (1,) * 8 + (0,)]
    # text order, not numeric order: l10 sorts before l3
    assert [str(p) for p in sorted_partitions(0, 10, words)] == [
        "P(0,10): l1,l10; l2,l3,l4,l5,l6,l7,l8,l9",
        "P(0,10): l1,l3,l4,l5,l6,l7,l8,l9,l10; l2",
    ]


def test_sorted_partitions_build_each_text_once(monkeypatch):
    # the listing verbs print the text that sorting built
    from partcat import partition
    from partcat.ops import iter_words

    listed = sorted_partitions(2, 3, iter_words(5))
    want = [canonical_text(partition_from_word(p.word, 2, 3)) for p in listed]
    assert want == sorted(want)

    def no_text(*args):
        raise AssertionError("a text was built twice")

    monkeypatch.setattr(partition, "_text", no_text)
    assert [canonical_text(p) for p in listed] == want
    assert [str(p) for p in listed] == want


def test_output_path_builds_no_point():
    c = generate_closure([double_singleton()], 4, 8)
    p = crossing()
    assert canonical_text(p) == "P(2,2): u1,l2; u2,l1"
    assert len(enumerate_all(2, 3)) == 52
    assert len(enumerate_category("B", 4)) == 10
    assert [str(q) for q in c.members(1, 1)] == ["P(1,1): u1,l1", "P(1,1): u1; l1"]
    assert c.dump_lines()[:3] == ["P(0,0):", "P(0,2): l1,l2", "P(0,2): l1; l2"]


def test_noncrossing_examples():
    assert not is_noncrossing(crossing())
    assert is_noncrossing(parse_partition("P(2,2): u1,l1; u2,l2"))
    assert not is_noncrossing(h_series(3))
    assert is_noncrossing(parse_partition("P(0,0):"))
    assert is_noncrossing(positioner())


def test_noncrossing_counts_against_enumeration():
    # Bell and Catalan prefixes on one row
    assert [len(enumerate_all(0, k)) for k in range(1, 6)] == [1, 2, 5, 15, 52]
    assert [len(enumerate_all(0, k, noncrossing_only=True)) for k in range(1, 6)] == [
        1, 2, 5, 14, 42,
    ]


def test_word_two_row_bijection(all_upto_6):
    # the boundary word plus the shape determines the partition and back
    for p in all_upto_6:
        assert partition_from_word(p.word, p.upper_count, p.lower_count) == p
    # a shape of another number of points is refused
    with pytest.raises(PointRangeError, match="word length does not match"):
        partition_from_word((0, 1), 1, 2)


def test_word_shift_matches_right_rotation(all_upto_6):
    # moving the top-right point down shifts the boundary word left by one
    from partcat.ops import Rotation, rotate

    for p in all_upto_6:
        if p.upper_count:
            rotated = rotate(p, Rotation.DOWN_RIGHT)
            shifted = p.word[1:] + p.word[:1]
            assert rotated.word == partition_from_word(shifted).word
