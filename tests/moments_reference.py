"""The per-word moment counts and sums, kept only as references for tests.

``count_moments`` below counts the words that ``member_words`` yields on
each number of points; the package's ``count_moments`` must give the same
tuple.  ``moments_from_cumulants`` below multiplies the block values of every word
in ``Fraction`` arithmetic, block by block in label order, and stops at the
first zero block.  On every spec that defines each block shape the largest
point set can hold, up to the largest declared size, the package's
``moments_from_cumulants`` must give the same tuple, or raise the same
non-integer ``UndefinedBlockValueError``.  On any other spec the package
raises for the least undefined shape before it sums, where this reference
raises at the first word that meets an undefined shape before a zero one.
"""

from __future__ import annotations

from fractions import Fraction

from partcat.catalog import member_words
from partcat.errors import BadParamError, UndefinedBlockValueError
from partcat.moments import FREE, CumulantSpec
from partcat.ops import check_enumeration_cap, iter_words


def count_moments(category_name: str, k_max: int) -> tuple[int, ...]:
    return tuple(sum(1 for _ in member_words(category_name, k)) for k in range(1, k_max + 1))


def moments_from_cumulants(
    spec: CumulantSpec, word_unit: tuple[str, ...], k_max: int
) -> tuple[int, ...]:
    if not word_unit:
        raise BadParamError("the mark word must not be empty")
    check_enumeration_cap(len(word_unit) * k_max)
    noncrossing = spec.kind == FREE
    values = []
    for k in range(1, k_max + 1):
        marks = word_unit * k
        total = Fraction(0)
        for w in iter_words(len(marks), noncrossing_only=noncrossing):
            term = Fraction(1)
            for lab in range(max(w) + 1):
                positions = [i for i, x in enumerate(w) if x == lab]
                term *= spec.block_value(
                    len(positions), tuple(marks[i] for i in positions)
                )
                if not term:
                    break
            total += term
        if total.denominator != 1 or total < 0:
            raise UndefinedBlockValueError(
                f"moment m_{k} is not a nonnegative integer: {total}"
            )
        values.append(int(total))
    return tuple(values)
