"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``partcat report`` for the same battery outside pytest.
"""

import pytest

from partcat import acceptance


def _check(result):
    print(result.line())
    assert result.passed, "\n".join([result.line()] + result.details)


def test_criterion_01_seven_category_equivalence():
    _check(acceptance.criterion_1())


def test_criterion_02_lattice_classification():
    _check(acceptance.criterion_2())


def test_criterion_03_classical_six():
    _check(acceptance.criterion_3())


def test_criterion_04_half_liberated():
    _check(acceptance.criterion_4())


def test_criterion_05_thirteen_nonhyperoctahedral():
    _check(acceptance.criterion_5())


def test_thirteen_are_the_ruled_names_that_are_not_hyperoctahedral():
    # hyperoctahedral: the rule admits the four-block but not the double singleton
    thirteen = ["O", "O*", "O+", "S", "S+", "B", "B+", "S'", "S'+", "B'", "B'+", "B#*", "B#+"]
    assert sorted(acceptance._THIRTEEN) == sorted(thirteen)


def test_criterion_06_character_law_counts():
    _check(acceptance.criterion_6())


def test_criterion_07_fuss_catalan_identity():
    _check(acceptance.criterion_7())


def test_criterion_08_moment_cumulant_identities():
    _check(acceptance.criterion_8())


def test_criterion_09_intertwiner_dictionary():
    _check(acceptance.criterion_9())


def test_criterion_10_functor_law():
    _check(acceptance.criterion_10())
