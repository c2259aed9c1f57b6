import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import moments_reference
import partcat.catalog as cat
import partcat.moments as mo
from partcat.catalog import (
    RULED_NAMES,
    BlockRule,
    block_sum,
    enumerate_category,
    member_counter,
)
from partcat.errors import (
    BadParamError,
    CapExceededError,
    NoPredicateError,
    UndefinedBlockValueError,
)
from partcat.ops import enumerate_all, iter_words


# ---------------------------------------------------------------------------
# count_moments


def test_count_moments_examples():
    assert list(mo.count_moments("S+", 4)) == [1, 2, 5, 14]
    assert list(mo.count_moments("B", 4)) == [1, 2, 4, 10]
    b_sharp = mo.count_moments("B#+", 8)
    assert [b_sharp[2 * k - 1] for k in range(1, 5)] == [2, 7, 30, 143]
    assert [b_sharp[2 * k - 2] for k in range(1, 5)] == [0, 0, 0, 0]


def test_count_moments_errors():
    with pytest.raises(NoPredicateError):
        mo.count_moments("fatcross", 4)


def _no_words(*args, **kwargs):
    raise AssertionError("words enumerated before the cap check")


def test_negative_k_max_is_refused_after_the_name_and_before_the_cap():
    with pytest.raises(BadParamError, match="^k_max must be >= 0, got -1$"):
        mo.count_moments("S", -1)
    with pytest.raises(BadParamError, match="^unknown category 'X\\+'$"):
        mo.count_moments("X+", -1)
    with pytest.raises(BadParamError, match="^unknown category 'X\\+'$"):
        mo.count_moments("X+", 0)
    with pytest.raises(NoPredicateError):
        mo.count_moments("fatcross", -1)
    with pytest.raises(BadParamError, match="^k_max must be >= 0, got -2$"):
        mo.moments_from_cumulants(mo.semicircular_spec(), ("a",), -2)
    with pytest.raises(BadParamError, match="^the mark word must not be empty$"):
        mo.moments_from_cumulants(mo.semicircular_spec(), (), -2)
    assert mo.count_moments("S", 0) == ()
    assert mo.moments_from_cumulants(mo.semicircular_spec(), ("a",), 0) == ()


def test_count_moments_checks_the_cap_before_counting(monkeypatch):
    def no_counts(n_points):
        raise AssertionError("counted before the cap check")

    monkeypatch.setattr(mo, "member_counter", lambda name: no_counts)
    with pytest.raises(CapExceededError, match="^13 points exceeds the enumeration cap 12$"):
        mo.count_moments("S", 13)


def test_count_moments_builds_no_word(monkeypatch):
    for name in ("iter_words", "member_words"):
        monkeypatch.setattr(cat, name, _no_words)
    assert mo.count_moments("S", 12)[-1] == mo.closed_form(mo.BELL, 12)
    assert mo.count_moments("S+", 12)[-1] == mo.closed_form(mo.CATALAN, 12)
    for name in RULED_NAMES:
        assert len(mo.count_moments(name, 12)) == 12


def test_cumulant_sums_build_no_word(monkeypatch):
    assert not hasattr(mo, "iter_words")
    for name in ("iter_words", "member_words"):
        monkeypatch.setattr(cat, name, _no_words)
    gaussian = mo.moments_from_cumulants(mo.gaussian_spec(), ("a",), 12)
    assert gaussian[-1] == mo.closed_form(mo.DOUBLE_FACTORIAL, 6)
    circle = mo.moments_from_cumulants(mo.shifted_circular_spec(), ("d", "d*"), 6)
    assert circle[-1] == mo.closed_form(mo.B_FORMULA, 6)


@pytest.mark.parametrize("name", RULED_NAMES + ("H^(3)", "H^(4)", "H^(5)"))
def test_count_moments_match_the_enumeration(name):
    assert mo.count_moments(name, 9) == moments_reference.count_moments(name, 9)


# criterion 6's table: each name's closed form on every point count (_FULL),
# or on the even ones with zeros between (_EVEN)
_FULL = {"S+": mo.CATALAN, "B+": mo.MOTZKIN, "B": mo.INVOLUTIONS, "S": mo.BELL}
_EVEN = {"O+": mo.CATALAN, "B#+": mo.B_FORMULA, "O": mo.DOUBLE_FACTORIAL, "O*": mo.FACTORIAL}


@pytest.mark.parametrize("name", sorted(_FULL.keys() | _EVEN.keys()))
def test_block_recursion_matches_the_closed_forms_far_past_the_cap(name):
    # the counter has no cap; count_moments keeps the 12-point one
    count = member_counter(name)
    for k in range(31):
        if name in _FULL:
            want = mo.closed_form(_FULL[name], k)
        else:
            want = 0 if k % 2 else mo.closed_form(_EVEN[name], k // 2)
        assert count(k) == want, k


_BLOCKS = [(plus, minus) for plus in range(9) for minus in range(9) if 1 <= plus + minus <= 8]


@settings(max_examples=60, deadline=None)
@given(
    allowed=st.frozensets(st.sampled_from(_BLOCKS)),
    even_points=st.booleans(),
    noncrossing=st.booleans(),
)
def test_block_recursion_matches_brute_force_on_random_rules(allowed, even_points, noncrossing):
    # arbitrary block sets, closed under nothing, pin the parity bookkeeping
    rule = BlockRule(lambda plus, minus: (plus, minus) in allowed, even_points)
    words = block_sum(("+", "-"), lambda block: int(block in allowed), noncrossing)
    for n in range(9):
        want = sum(1 for w in iter_words(n, noncrossing) if rule(w))
        assert (0 if even_points and n % 2 else words(n)) == want, n


def _law_sum(make_spec, noncrossing):
    """A one-mark law's moments as a direct block sum, with no point cap of 12."""
    spec = make_spec()
    return block_sum(
        ("a",), lambda block: spec.block_value(block[0], ("a",) * block[0]), noncrossing
    )


def test_cumulant_block_sums_match_the_closed_forms_far_past_the_cap():
    semicircle = _law_sum(mo.semicircular_spec, True)
    gaussian = _law_sum(mo.gaussian_spec, False)
    shifted_semicircle = _law_sum(mo.shifted_semicircular_spec, True)
    shifted_gaussian = _law_sum(mo.shifted_gaussian_spec, False)
    for n in range(31):
        even = 0 if n % 2 else 1
        assert semicircle(n) == even * mo.closed_form(mo.CATALAN, n // 2), n
        assert gaussian(n) == even * mo.closed_form(mo.DOUBLE_FACTORIAL, n // 2), n
        assert shifted_semicircle(n) == mo.closed_form(mo.MOTZKIN, n), n
        assert shifted_gaussian(n) == mo.closed_form(mo.INVOLUTIONS, n), n


def test_cumulant_sums_are_bounded_before_summing(monkeypatch):
    monkeypatch.setattr(mo, "block_sum", _no_words)
    spec = mo.shifted_circular_spec()
    # the seventh moment of a two-letter mark word has 14 points
    with pytest.raises(CapExceededError, match="^14 points exceeds the enumeration cap 12$"):
        mo.moments_from_cumulants(spec, ("d", "d*"), 7)
    with pytest.raises(CapExceededError, match="^13 points exceeds the enumeration cap 12$"):
        mo.moments_from_cumulants(mo.semicircular_spec(), ("a",), 13)
    # twelve points stay allowed
    monkeypatch.setattr(mo, "block_sum", lambda unit, weight, noncrossing: lambda n: 0)
    assert list(mo.moments_from_cumulants(spec, ("d", "d*"), 6)) == [0] * 6


def test_odd_moments_vanish_without_singleton():
    for name in ("O+", "B#+", "O", "O*", "H+", "H*", "H", "S'+", "B'+"):
        seq = mo.count_moments(name, 7)
        assert all(seq[k - 1] == 0 for k in (1, 3, 5, 7)), name


# ---------------------------------------------------------------------------
# closed forms, cross-checked against enumeration oracles


def test_closed_form_examples():
    assert mo.closed_form(mo.B_FORMULA, 2) == 7
    assert mo.closed_form(mo.FUSS_CATALAN_2, 3) == 12
    assert mo.closed_form(mo.MOTZKIN, 4) == 9
    assert mo.closed_form(mo.CATALAN, 4) == 14
    assert mo.closed_form(mo.FACTORIAL, 4) == 24
    assert mo.closed_form(mo.DOUBLE_FACTORIAL, 4) == 105
    with pytest.raises(BadParamError):
        mo.closed_form("nope", 1)
    with pytest.raises(BadParamError):
        mo.closed_form(mo.CATALAN, -1)


def test_closed_forms_against_enumeration():
    for k in range(1, 8):
        parts = enumerate_all(0, k)
        nc = enumerate_all(0, k, noncrossing_only=True)
        assert mo.closed_form(mo.BELL, k) == len(parts)
        assert mo.closed_form(mo.CATALAN, k) == len(nc)
        assert mo.closed_form(mo.MOTZKIN, k) == sum(
            1 for p in nc if all(len(b) <= 2 for b in p.blocks)
        )
        assert mo.closed_form(mo.INVOLUTIONS, k) == sum(
            1 for p in parts if all(len(b) <= 2 for b in p.blocks)
        )
    for k in range(1, 5):
        pairings = [
            p for p in enumerate_all(0, 2 * k) if all(len(b) == 2 for b in p.blocks)
        ]
        assert mo.closed_form(mo.DOUBLE_FACTORIAL, k) == len(pairings)
        assert mo.closed_form(mo.FACTORIAL, k) == len(
            enumerate_category("O*", 2 * k)
        )
        assert mo.closed_form(mo.B_FORMULA, k) == len(enumerate_category("B#+", 2 * k))


def test_balanced_pair_count_bijection():
    # members on 2k points correspond to even-block noncrossing partitions of
    # 2k+2 points whose first and last point share a block
    for k in range(1, 5):
        lhs = len(enumerate_category("B#+", 2 * k))
        rhs = 0
        for p in enumerate_all(0, 2 * k + 2, noncrossing_only=True):
            if any(len(b) % 2 for b in p.blocks):
                continue
            if p.word[0] == p.word[-1]:  # l1 and the last point
                rhs += 1
        assert lhs == rhs, k


# ---------------------------------------------------------------------------
# moment-cumulant sums


def test_semicircular_moments_are_catalan_at_even_orders():
    seq = mo.moments_from_cumulants(mo.semicircular_spec(), ("a",), 8)
    assert list(seq) == [0, 1, 0, 2, 0, 5, 0, 14]


def test_shifted_semicircular_moments_are_motzkin():
    seq = mo.moments_from_cumulants(mo.shifted_semicircular_spec(), ("a",), 8)
    assert list(seq) == [1, 2, 4, 9, 21, 51, 127, 323]


def test_shifted_circular_starred_moments():
    seq = mo.moments_from_cumulants(mo.shifted_circular_spec(), ("d", "d*"), 4)
    assert list(seq) == [2, 7, 30, 143]


def test_classical_gaussian_moments():
    seq = mo.moments_from_cumulants(mo.gaussian_spec(), ("a",), 6)
    assert list(seq) == [0, 1, 0, 3, 0, 15]
    seq = mo.moments_from_cumulants(mo.shifted_gaussian_spec(), ("a",), 6)
    assert list(seq) == [1, 2, 4, 10, 26, 76]


def test_shifted_complex_gaussian_matches_classical_balanced_counts():
    seq = mo.moments_from_cumulants(mo.shifted_complex_gaussian_spec(), ("d", "d*"), 3)
    want = [len(enumerate_category("B#*", 2 * k)) for k in (1, 2, 3)]
    assert list(seq) == want


def test_cumulant_spec_validation():
    with pytest.raises(UndefinedBlockValueError):
        mo.CumulantSpec("free", {(3, ("d", "d", "d*")): Fraction(1)})
    with pytest.raises(BadParamError):
        mo.CumulantSpec("tropical", {})
    spec = mo.CumulantSpec("free", {(2, ()): Fraction(1)})
    with pytest.raises(UndefinedBlockValueError):
        mo.moments_from_cumulants(spec, ("a",), 1)
    with pytest.raises(BadParamError):
        mo.moments_from_cumulants(mo.semicircular_spec(), (), 2)
    # a key read by sorted marks: an unsorted one would never be read
    values = dict(mo.shifted_circular_spec().values)
    values[(2, ("d*", "d"))] = values.pop((2, ("d", "d*")))
    with pytest.raises(BadParamError, match=re.escape("(2, ('d*', 'd'))")):
        mo.CumulantSpec("free", values)


@pytest.mark.parametrize("values", [
    {(1, ()): 0.5, (2, ()): 1},
    {(1, ()): 0, (2, ()): "1"},
    {(0, ()): 1, (2, ()): 1},
    {(2, ("d",)): 1},
    {(1, ("d", "d*")): 1},
    {(1.5, ()): 1, (2, ()): 1},
    {(2, "dd"): 1},
    {("2", ()): 1},
], ids=["float", "str", "size-0", "too-few-marks", "too-many-marks",
        "float-size", "str-marks", "str-size"])
def test_cumulant_spec_refuses_what_it_cannot_evaluate(values):
    with pytest.raises(BadParamError):
        mo.CumulantSpec("free", values)


# ---------------------------------------------------------------------------
# the package against the per-word reference sum

_UNITS = (("a",), ("d", "d*"))
_DRAWN_VALUES = (0, 1, -1, Fraction(1, 2), 3)


def _outcome(fn, spec, unit, k_max):
    try:
        return fn(spec, unit, k_max)
    except UndefinedBlockValueError as exc:
        return f"error: {exc}"


def _expected(spec, unit, k_max):
    """The reference outcome if every block shape that the largest point set
    can hold is defined up to the largest declared size; otherwise the error
    of the least undefined shape, in (size, sorted marks) order."""
    points = sorted(unit * k_max)
    top = max((size for size, _ in spec.values), default=0)
    for size in range(1, min(top, len(points)) + 1):
        for marks in sorted(set(combinations(points, size))):
            try:
                spec.block_value(size, marks)
            except UndefinedBlockValueError as exc:
                return f"error: {exc}"
    return _outcome(moments_reference.moments_from_cumulants, spec, unit, k_max)


def _random_spec(rng, kind, unit):
    """Bare shapes up to a random largest size, each declared with
    probability 2/3, plus marked shapes of size <= 2 with probability 1/2;
    an undeclared shape below the largest size is undefined."""
    values = {}
    for size in range(1, rng.randint(1, 4) + 1):
        if rng.random() < 2 / 3:
            values[(size, ())] = rng.choice(_DRAWN_VALUES)
        if size <= 2:
            for marks in combinations_with_replacement(sorted(set(unit)), size):
                if rng.random() < 1 / 2:
                    values[(size, marks)] = rng.choice(_DRAWN_VALUES)
    return mo.CumulantSpec(kind, values)


def test_cumulant_sums_match_the_reference_on_random_specs():
    rng = random.Random(20121)
    errors = values = 0
    for _ in range(300):
        kind = rng.choice((mo.FREE, mo.CLASSICAL))
        unit = rng.choice(_UNITS)
        spec = _random_spec(rng, kind, unit)
        k_max = 6 // len(unit)
        want = _expected(spec, unit, k_max)
        assert _outcome(mo.moments_from_cumulants, spec, unit, k_max) == want, spec
        if isinstance(want, str):
            errors += 1
        else:
            values += 1
    # both kinds of outcome are exercised
    assert errors >= 50 and values >= 50, (errors, values)


def test_a_zero_block_does_not_hide_an_undefined_one():
    # (1, ("d*",)) is undefined; the word (0, 1) on d d* would meet the zero
    # block of d first, but every shape is valued before the sum
    spec = mo.CumulantSpec(mo.CLASSICAL, {(1, ("d",)): 0, (2, ()): 1})
    for k_max in (1, 2):
        with pytest.raises(
            UndefinedBlockValueError, match=r"^no value for block shape \(1, \('d\*',\)\)$"
        ):
            mo.moments_from_cumulants(spec, ("d", "d*"), k_max)


_THREE_MARK_UNITS = (("d", "d", "d*"), ("a", "b", "c"), ("d*", "d", "d"))


@st.composite
def _drawn_specs(draw):
    """A unit of three marks and a spec on it: bare shapes up to size four
    and marked shapes of size <= 2, each present or not."""
    unit = draw(st.sampled_from(_THREE_MARK_UNITS))
    keys = [(size, ()) for size in range(1, 5)]
    keys += [
        (size, marks)
        for size in (1, 2)
        for marks in combinations_with_replacement(sorted(set(unit)), size)
    ]
    values = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(_DRAWN_VALUES)))
    return draw(st.sampled_from((mo.FREE, mo.CLASSICAL))), unit, values


@settings(max_examples=40, deadline=None)
@given(drawn=_drawn_specs())
def test_cumulant_sums_match_the_reference_on_three_mark_units(drawn):
    kind, unit, values = drawn
    spec = mo.CumulantSpec(kind, values)
    k_max = 9 // len(unit)
    want = _expected(spec, unit, k_max)
    assert _outcome(mo.moments_from_cumulants, spec, unit, k_max) == want


_NAMED_LAWS = {
    "semicircle": (mo.semicircular_spec, ("a",)),
    "shifted-semicircle": (mo.shifted_semicircular_spec, ("a",)),
    "shifted-circle": (mo.shifted_circular_spec, ("d", "d*")),
    "real-gaussian": (mo.gaussian_spec, ("a",)),
    "shifted-real-gaussian": (mo.shifted_gaussian_spec, ("a",)),
    "shifted-complex-gaussian": (mo.shifted_complex_gaussian_spec, ("d", "d*")),
}


@pytest.mark.parametrize("law", sorted(_NAMED_LAWS))
def test_named_laws_match_the_reference(law):
    make_spec, unit = _NAMED_LAWS[law]
    # the largest sizes the benchmark's count workload and criterion 8 use
    k_max = 9 if len(unit) == 1 else 5
    spec = make_spec()
    want = moments_reference.moments_from_cumulants(spec, unit, k_max)
    assert mo.moments_from_cumulants(spec, unit, k_max) == want


# ---------------------------------------------------------------------------
# transforms and the generating-function identity


def test_squeeze_and_symmetrize_examples():
    assert list(mo.squeeze((2, 7, 30))) == [0, 2, 0, 7, 0, 30]
    assert list(mo.symmetrize((1, 2, 4, 9))) == [0, 2, 0, 9]
    even = (0, 5, 0, 7)
    assert mo.symmetrize(even) == even


def test_fuss_catalan_square_identity():
    coeffs = mo.fuss_catalan_series(6)
    assert coeffs == (1, 1, 3, 12, 55, 273, 1428)
    squared = mo.poly_square(coeffs)[:7]
    assert squared == tuple(mo.closed_form(mo.B_FORMULA, k) for k in range(7))
