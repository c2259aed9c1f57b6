import itertools
import re
from math import factorial

import pytest

from block_reference import lower, make_partition, upper
import partcat.catalog as catalog
from partcat.catalog import (
    BLOCK_SUM_CAP,
    CATALOG,
    CLASSICAL_NAMES,
    FREE_NAMES,
    LISTING_CAP,
    RULED_NAMES,
    block,
    block_marks,
    block_sum,
    catalog_entry,
    category_predicate,
    crossing,
    double_singleton,
    enumerate_category,
    fat_crossing,
    four_block,
    h_series,
    half_lib,
    included,
    k_series,
    member_counter,
    member_words,
    named_partition,
    pair_partition,
    positioner,
    series_entry,
    singleton,
    unit_partition,
)
from partcat.closure import generate_closure
from partcat.errors import BadParamError, CapExceededError, NoPredicateError, PointRangeError
from partcat.moments import count_moments
from partcat.ops import (
    EMPTY,
    Rotation,
    compose,
    enumerate_all,
    involute,
    iter_words,
    rotate,
    tensor,
)
from partcat.partition import parse_partition, partition_from_word


# ---------------------------------------------------------------------------
# named partitions


def test_named_partition_forms():
    assert str(positioner()) == "P(0,4): l1; l2,l4; l3"
    assert str(half_lib()) == "P(3,3): u1,l3; u2,l2; u3,l1"
    assert str(h_series(3)) == "P(0,6): l1,l3,l5; l2,l4,l6"
    assert str(fat_crossing()) == "P(4,4): u1,u2,l3,l4; u3,u4,l1,l2"
    assert str(k_series(1)) == "P(3,3): u1,u3,l1,l3; u2,l2"


# Every named partition as a point list validated by the reference's
# make_partition, and as (k, l, word).  The point lists are the reference
# forms: the catalog must build the same partitions from their words.
_PARAMS = range(1, 9)


def _k_points(length: int) -> list[list]:
    n = length + 2
    return [[upper(1), lower(1), upper(n), lower(n)]] + [
        [upper(i), lower(i)] for i in range(2, n)
    ]


_NAMED_POINT_FORMS = [
    (("unit",), make_partition(1, 1, [[upper(1), lower(1)]]), (1, 1, (0, 0))),
    (("pair",), make_partition(0, 2, [[lower(1), lower(2)]]), (0, 2, (0, 0))),
    (("singleton",), make_partition(0, 1, [[lower(1)]]), (0, 1, (0,))),
    (("double-singleton",), make_partition(0, 2, [[lower(1)], [lower(2)]]), (0, 2, (0, 1))),
    (
        ("four-block",),
        make_partition(0, 4, [[lower(j) for j in range(1, 5)]]),
        (0, 4, (0, 0, 0, 0)),
    ),
    (
        ("positioner",),
        make_partition(0, 4, [[lower(1)], [lower(2), lower(4)], [lower(3)]]),
        (0, 4, (0, 1, 2, 1)),
    ),
    (
        ("crossing",),
        make_partition(2, 2, [[upper(1), lower(2)], [upper(2), lower(1)]]),
        (2, 2, (0, 1, 0, 1)),
    ),
    (
        ("half-lib",),
        make_partition(3, 3, [[upper(1), lower(3)], [upper(2), lower(2)], [upper(3), lower(1)]]),
        (3, 3, (0, 1, 2, 0, 1, 2)),
    ),
    (
        ("fat-crossing",),
        make_partition(
            4,
            4,
            [[upper(1), upper(2), lower(3), lower(4)], [upper(3), upper(4), lower(1), lower(2)]],
        ),
        (4, 4, (0, 0, 1, 1, 0, 0, 1, 1)),
    ),
    *(
        (
            ("block", n),
            make_partition(0, n, [[lower(j) for j in range(1, n + 1)]]),
            (0, n, (0,) * n),
        )
        for n in _PARAMS
    ),
    *(
        (
            ("h", s),
            make_partition(
                0,
                2 * s,
                [
                    [lower(j) for j in range(1, 2 * s + 1, 2)],
                    [lower(j) for j in range(2, 2 * s + 1, 2)],
                ],
            ),
            (0, 2 * s, (0, 1) * s),
        )
        for s in _PARAMS
    ),
    *(
        (
            ("k", n),
            make_partition(n + 2, n + 2, _k_points(n)),
            (n + 2, n + 2, (0, *range(1, n + 1), 0, 0, *range(n, 0, -1), 0)),
        )
        for n in _PARAMS
    ),
]


@pytest.mark.parametrize(
    "call, points, pinned",
    _NAMED_POINT_FORMS,
    ids=["-".join(map(str, call)) for call, _, _ in _NAMED_POINT_FORMS],
)
def test_named_partitions_match_point_forms(call, points, pinned):
    p = named_partition(*call)
    assert p == points
    assert (p.upper_count, p.lower_count, p.word) == pinned


def test_named_point_forms_cover_registry():
    assert {call[0] for call, _, _ in _NAMED_POINT_FORMS} == set(catalog._NAMED)


def test_empty_partition_form():
    assert EMPTY == make_partition(0, 0, ())
    assert (EMPTY.upper_count, EMPTY.lower_count, EMPTY.word) == (0, 0, ())


def test_named_partition_identities():
    assert block(2) == pair_partition()
    assert four_block() == block(4)
    assert h_series(1) == double_singleton()
    # h(2) is the crossing partition rotated down
    rot = rotate(rotate(crossing(), Rotation.DOWN_LEFT), Rotation.DOWN_LEFT)
    assert h_series(2) == rot


def test_named_partition_registry():
    assert named_partition("positioner") == positioner()
    assert named_partition("block", 3) == block(3)
    assert named_partition("h", 4) == h_series(4)
    with pytest.raises(BadParamError):
        named_partition("block", 0)
    with pytest.raises(BadParamError):
        named_partition("no-such-name")
    with pytest.raises(BadParamError):
        named_partition("h", 0)
    with pytest.raises(BadParamError):
        k_series(0)


# ---------------------------------------------------------------------------
# predicates


def test_mark_rule_on_positioner():
    # the pair of the positioner joins two minus points: fails the balanced
    # rule but passes the plain size rule
    assert not category_predicate("B#+")(positioner())
    assert category_predicate("B'+")(positioner())


def test_block_marks_match_a_count_per_label():
    # every word of up to 10 points, against tuple.count once per label
    def per_label(w):
        labels = range(max(w, default=-1) + 1)
        return [w[::2].count(x) for x in labels], [w[1::2].count(x) for x in labels]

    for m in range(11):
        for w in iter_words(m):
            assert block_marks(w) == per_label(w), w
    # an unused label counts (0, 0)
    assert block_marks((2, 0, 2)) == ([0, 0, 2], [1, 0, 0]) == per_label((2, 0, 2))


def test_block_size_rules():
    assert category_predicate("H+")(four_block())
    assert not category_predicate("H+")(block(3))
    assert category_predicate("S+")(block(3))
    assert not category_predicate("S'+")(block(3))


def test_half_liberated_rules():
    o_star = category_predicate("O*")
    assert o_star(parse_partition("P(0,4): l1,l2; l3,l4"))
    assert not o_star(parse_partition("P(0,4): l1,l3; l2,l4"))
    assert o_star(half_lib())
    assert not o_star(crossing())
    h_star = category_predicate("H*")
    assert h_star(four_block())
    assert not h_star(h_series(3))


def test_no_predicate_for_series():
    # of the series world only fatcross is known by its generators alone
    with pytest.raises(NoPredicateError):
        category_predicate("fatcross")
    with pytest.raises(BadParamError):
        category_predicate("nonsense")


# the questions that need a category's rule
_RULE_QUESTIONS = (
    category_predicate,
    lambda name: count_moments(name, 3),
    lambda name: enumerate_category(name, 4),
)


@pytest.mark.parametrize("n", [2, 0, -1])
def test_series_names_below_the_range_are_refused_by_every_lookup(n):
    # every question about a name resolves it through catalog_entry
    name = f"H^({n})"
    message = f"^series parameter must be >= 3, got {n}$"
    with pytest.raises(BadParamError, match=message):
        catalog_entry(name)
    for ask in _RULE_QUESTIONS:
        with pytest.raises(BadParamError, match=message):
            ask(name)


@pytest.mark.parametrize("name", ["H^( 3)", "H^(+3)", "H^(0_3)", "H^(03)", "H^(\u0663)", "H^(3"])
def test_series_names_the_series_does_not_print_are_unknown(name):
    # only H^(s) exactly as series_entry(s) names it resolves
    message = f"^unknown category {re.escape(repr(name))}$"
    with pytest.raises(BadParamError, match=message):
        catalog_entry(name)
    for ask in _RULE_QUESTIONS:
        with pytest.raises(BadParamError, match=message):
            ask(name)


def test_series_names_resolve_without_building_the_generator(monkeypatch):
    # h(s) has 2s points: it is built when the generators are read, not
    # before, and the rule answers every question without it
    def no_h_series(s):
        raise AssertionError(f"built h({s}) to resolve a name")

    monkeypatch.setattr(catalog, "h_series", no_h_series)
    name = "H^(1000000000)"
    # only the pair, and the four-point words of balanced blocks
    assert count_moments(name, 3) == (0, 1, 0)
    assert [str(p) for p in enumerate_category(name, 4)] == [
        "P(0,4): l1,l2,l3,l4",
        "P(0,4): l1,l2; l3,l4",
        "P(0,4): l1,l4; l2,l3",
    ]
    assert list(member_words(name, 3)) == []
    assert category_predicate(name)(half_lib())
    assert not category_predicate(name)(double_singleton())
    monkeypatch.undo()
    gens = (half_lib(), four_block(), h_series(5))
    assert series_entry(5).generators == gens
    assert catalog_entry("H^(5)").generators == gens


def test_series_entries_print_compare_and_hash_without_the_generator(monkeypatch):
    # repr, == and hash read the name, world and rule only, so a huge series
    # parameter costs no more than a small one
    def no_h_series(s):
        raise AssertionError(f"built h({s})")

    monkeypatch.setattr(catalog, "h_series", no_h_series)
    entry = catalog_entry("H^(7)")
    assert "H^(7)" in repr(entry)
    assert hash(entry) == hash(entry)
    assert entry == entry


@pytest.mark.parametrize("name", ["fatcross"])
def test_entries_without_a_rule_have_no_predicate(name):
    for ask in _RULE_QUESTIONS:
        with pytest.raises(NoPredicateError, match="has no membership predicate"):
            ask(name)


# the largest block of the finite closure check of the series rules
_CHECKED_BLOCK = 32


@pytest.mark.parametrize("s", range(3, 13))
def test_series_rule_meets_the_finite_closure_conditions(s):
    # a block test T kept by every category move, for blocks of up to 32
    # points: (a) the pair passes, (b) T(p, m) = T(m, p), (c) a cap inside
    # one block keeps T, (d) a cap that joins two blocks keeps T
    rule = catalog_entry(f"H^({s})").rule
    test = rule.block
    assert rule.even_points  # a shift of an even word flips every mark
    sizes = [(p, m) for p in range(_CHECKED_BLOCK + 1) for m in range(_CHECKED_BLOCK + 1 - p)]
    passing = [(p, m) for p, m in sizes if test(p, m)]
    assert test(1, 1)
    assert all(test(p, m) == test(m, p) for p, m in sizes)
    assert all(test(p - 1, m - 1) for p, m in passing if p and m)
    for (p1, m1), (p2, m2) in itertools.product(passing, repeat=2):
        if p1 and m2 and p1 + m1 + p2 + m2 - 2 <= _CHECKED_BLOCK:
            assert test(p1 + p2 - 1, m1 + m2 - 1), (s, p1, m1, p2, m2)


@pytest.mark.parametrize("s", [3, 4])
def test_series_closure_is_its_rule(s):
    # the saturated closure of <half-lib, four-block, h(s)> at 8/16 holds
    # exactly the words of H^(s)'s rule
    name = f"H^({s})"
    c = generate_closure(catalog_entry(name).generators, 8, 16)
    assert c.saturated
    assert c.words == {w for n in range(9) for w in member_words(name, n)}


def test_member_words_are_the_words_the_predicate_accepts():
    for name in RULED_NAMES:
        pred = category_predicate(name)
        for n in range(7):
            want = [w for w in iter_words(n) if pred(partition_from_word(w))]
            assert list(member_words(name, n)) == want, (name, n)


def test_member_words_check_the_name_before_the_cap():
    with pytest.raises(BadParamError, match="^unknown category 'X\\+'$"):
        member_words("X+", 13)
    with pytest.raises(NoPredicateError):
        member_words("fatcross", 13)
    with pytest.raises(CapExceededError):
        member_words("S", 13)


def test_enumerate_category_examples():
    assert [str(p) for p in enumerate_category("O+", 4)] == [
        "P(0,4): l1,l2; l3,l4",
        "P(0,4): l1,l4; l2,l3",
    ]
    assert [str(p) for p in enumerate_category("B#+", 2)] == [
        "P(0,2): l1,l2",
        "P(0,2): l1; l2",
    ]
    assert [str(p) for p in enumerate_category("H*", 4)] == [
        "P(0,4): l1,l2,l3,l4",
        "P(0,4): l1,l2; l3,l4",
        "P(0,4): l1,l4; l2,l3",
    ]


def test_only_s_and_s_prime_on_twelve_points_exceed_the_listing_cap():
    # every listing that fits the enumeration cap below 12 points stays listed
    assert LISTING_CAP == 678_570
    for name in RULED_NAMES:
        count = member_counter(name)
        assert all(count(n) <= LISTING_CAP for n in range(12)), name
        assert (count(12) > LISTING_CAP) == (name in ("S", "S'")), name


def test_enumerate_category_checks_the_listing_cap_last():
    # the name, the enumeration cap and the sign of the point total come first
    with pytest.raises(BadParamError, match="^unknown category 'X\\+'$"):
        enumerate_category("X+", 12)
    with pytest.raises(NoPredicateError):
        enumerate_category("fatcross", 12)
    with pytest.raises(CapExceededError, match="^13 points exceeds the enumeration cap 12$"):
        enumerate_category("S", 13)
    with pytest.raises(PointRangeError, match="^row sizes must be nonnegative"):
        enumerate_category("S", -1)


def test_enumerate_category_refuses_a_long_listing_before_building_a_word(monkeypatch):
    def no_words(*args, **kwargs):
        raise AssertionError("built a word before the listing cap")

    monkeypatch.setattr(catalog, "iter_words", no_words)
    monkeypatch.setattr(catalog, "member_words", no_words)
    for name in ("S", "S'"):
        message = (
            f"^4213597 members of {re.escape(name)} on 12 points exceed the listing cap "
            r"Bell\(11\) = 678570$"
        )
        with pytest.raises(CapExceededError, match=message):
            enumerate_category(name, 12)


def test_enumerate_category_counts_members_only_where_the_words_exceed_the_cap(monkeypatch):
    # Bell(n) <= LISTING_CAP for n <= 11, so no count is needed there
    counted = []
    real_counter = catalog.member_counter

    def recording_counter(name):
        count = real_counter(name)

        def recorded(n_points):
            counted.append((name, n_points))
            if n_points <= 11:
                raise AssertionError(f"counted {name} on {n_points} points")
            return count(n_points)

        return recorded

    monkeypatch.setattr(catalog, "member_counter", recording_counter)
    monkeypatch.setattr(catalog, "member_words", lambda name, n_points: iter(()))
    for name in RULED_NAMES + ("H^(3)",):
        for n in range(12):
            assert enumerate_category(name, n) == [], (name, n)
    assert counted == []
    # Catalan(12) = 208,012: a noncrossing world is not counted at 12 points either
    assert enumerate_category("S+", 12) == []
    assert counted == []
    with pytest.raises(CapExceededError, match="^4213597 members of S on 12 points"):
        enumerate_category("S", 12)
    assert counted == [("S", 12)]


def test_member_counter_refuses_a_negative_point_total():
    with pytest.raises(PointRangeError, match="^point total must be nonnegative, got -1$"):
        member_counter("S")(-1)


def test_member_counter_refuses_more_points_than_the_block_sum_cap():
    assert BLOCK_SUM_CAP >= 64
    for name, n_points in (("S+", 400), ("S", 400), ("B#*", 600), ("B#*", 601)):
        message = f"^{n_points} points exceeds the block sum cap {BLOCK_SUM_CAP}$"
        with pytest.raises(CapExceededError, match=message):
            member_counter(name)(n_points)
    with pytest.raises(CapExceededError, match="^65 points exceeds the block sum cap 64$"):
        block_sum(("a",), lambda block: 1, False)(BLOCK_SUM_CAP + 1)
    # the cap itself is counted: pairings of 64 points into plus-minus pairs
    assert member_counter("O*")(BLOCK_SUM_CAP) == factorial(BLOCK_SUM_CAP // 2)


def test_catalog_generators_satisfy_their_predicate():
    for entry in CATALOG.values():
        if entry.predicate is None:
            continue
        for g in entry.generators:
            assert entry.predicate(g), f"{entry.name} generator {g}"


def test_unit_and_pair_satisfy_every_predicate():
    for name in RULED_NAMES:
        pred = category_predicate(name)
        assert pred(unit_partition()), name
        assert pred(pair_partition()), name


_FREE_EDGES = [("O+", "B#+"), ("B#+", "B'+"), ("B'+", "B+"), ("B+", "S+"),
               ("O+", "H+"), ("H+", "S'+"), ("S'+", "S+"), ("B'+", "S'+")]
_CROSS_WORLD = [("O+", "O*"), ("O*", "O"), ("H+", "H*"), ("H*", "H"),
                ("B#+", "B#*"), ("B#*", "B'"), ("O+", "O"), ("H+", "H"),
                ("S'+", "S'"), ("S+", "S"), ("B'+", "B'"), ("B+", "B")]


def test_predicate_lattice(all_upto_6):
    pool = all_upto_6 + enumerate_all(0, 7) + enumerate_all(0, 8)
    preds = {name: category_predicate(name) for name in RULED_NAMES}
    edges = _FREE_EDGES + _CROSS_WORLD
    for p in pool:
        truth = {name: pred(p) for name, pred in preds.items()}
        for small, large in edges:
            assert not truth[small] or truth[large], (str(p), small, large)


def test_separating_witnesses():
    # crossing is classical-orthogonal but not half-liberated
    assert category_predicate("O")(crossing())
    assert not category_predicate("O*")(crossing())
    # the rotated three-strand reversal is half-liberated but crosses
    witness = parse_partition("P(0,6): l1,l4; l2,l5; l3,l6")
    assert category_predicate("O*")(witness)
    assert not category_predicate("O+")(witness)


def test_predicates_closed_under_operations():
    pool = [p for n in range(5) for k in range(n + 1) for p in enumerate_all(k, n - k)]
    rotations = list(Rotation)
    for name in RULED_NAMES:
        pred = category_predicate(name)
        members = [p for p in pool if pred(p)]
        by_upper: dict[int, list] = {}
        for p in members:
            by_upper.setdefault(p.upper_count, []).append(p)
        for p in members:
            assert pred(involute(p)), (name, str(p))
            for where in rotations:
                applicable = (
                    p.upper_count == 0 and p.lower_count > 0
                    if where in (Rotation.CYCLE_LEFT, Rotation.CYCLE_RIGHT)
                    else (
                        p.upper_count > 0
                        if where in (Rotation.DOWN_LEFT, Rotation.DOWN_RIGHT)
                        else p.lower_count > 0
                    )
                )
                if applicable:
                    assert pred(rotate(p, where)), (name, str(p), where)
            for q in members:
                assert pred(tensor(p, q)), (name, str(p), str(q))
            for q in by_upper.get(p.lower_count, ()):
                assert pred(compose(p, q).result), (name, str(p), str(q))


def test_catalog_entry_lookup_and_series():
    assert catalog_entry("O+").world == "Free7"
    assert catalog_entry("H^(4)").generators[-1] == h_series(4)
    assert series_entry(3).name == "H^(3)"
    with pytest.raises(BadParamError):
        series_entry(2)
    with pytest.raises(BadParamError):
        catalog_entry("X+")


_CLASSICAL_EDGES = [("O", "B'"), ("B'", "B"), ("B", "S"),
                    ("O", "H"), ("H", "S'"), ("S'", "S"), ("B'", "S'")]


def _reflexive_transitive(edges, names):
    order = {(n, n) for n in names} | set(edges)
    for via in names:
        for a in names:
            for b in names:
                if (a, via) in order and (via, b) in order:
                    order.add((a, b))
    return order


@pytest.mark.parametrize(
    "names,edges",
    [(FREE_NAMES, _FREE_EDGES), (CLASSICAL_NAMES, _CLASSICAL_EDGES)],
    ids=["free", "classical"],
)
def test_inclusion_order_is_the_papers_hasse_diagram(names, edges):
    # the Hasse diagrams of the free and classical worlds, typed from the
    # paper, against the one order restricted to the world
    assert _restrict(names) == _reflexive_transitive(edges, names)


def test_inclusion_tables():
    assert included("O+", "S+")
    assert not included("S+", "O+")
    assert included("B'", "S'")
    assert not included("H", "B")
    # across worlds, the series included
    assert included("O*", "O")
    assert included("H+", "H*")
    assert not included("O", "O*")
    assert included("H*", "H^(3)")
    assert included("H^(6)", "H^(3)")
    assert not included("H^(3)", "H^(6)")
    assert included("H^(4)", "H")
    assert not included("H^(3)", "H")


def _membership(all_upto_6):
    preds = {n: category_predicate(n) for n in RULED_NAMES}
    return {n: frozenset(p for p in all_upto_6 if preds[n](p)) for n in RULED_NAMES}


def _restrict(names):
    return frozenset((a, b) for a in names for b in names if included(a, b))


def _meet(a, b, names, order):
    below_both = [c for c in names if (c, a) in order and (c, b) in order]
    tops = [c for c in below_both if all((d, c) in order for d in below_both)]
    assert len(tops) == 1
    return tops[0]


@pytest.mark.parametrize(
    "names,order",
    [
        (FREE_NAMES, _restrict(FREE_NAMES)),
        (CLASSICAL_NAMES, _restrict(CLASSICAL_NAMES)),
        (RULED_NAMES, _restrict(RULED_NAMES)),
    ],
)
def test_lattice_is_intersection_closed(names, order, all_upto_6):
    # the classifier's least name is only sound because the pointwise
    # intersection of any two ruled categories, within a world and across
    # worlds, is again one
    membership = _membership(all_upto_6)
    for a, b in itertools.combinations(names, 2):
        meet = _meet(a, b, names, order)
        assert membership[a] & membership[b] == membership[meet], (a, b, meet)


def test_inclusion_tables_match_membership(all_upto_6):
    # the one order agrees with actual member sets at small sizes, across
    # worlds as within one
    membership = _membership(all_upto_6)
    for a in RULED_NAMES:
        for b in RULED_NAMES:
            subset = membership[a] <= membership[b]
            assert included(a, b) == subset, (a, b)
