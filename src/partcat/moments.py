"""Character-law moments: category counts, closed forms, cumulant sums.

The k-th asymptotic moment of a category's character is the number of its
members on k points in a row; ``count_moments`` computes these by the
catalog's block recursion, which splits off one block at a time and builds
no word.  ``moments_from_cumulants`` evaluates moment sums over all
partitions (classical) or noncrossing partitions (free), with a block-value
rule supplied by a :class:`CumulantSpec`; block shapes above the largest
declared size count 0.  It values every block shape first and then sums by
the same recursion, with the block values as weights, so it builds no word
either.  ``squeeze`` and ``symmetrize`` reshape a sequence.  Everything here
is exact integer / rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Iterable, Mapping

from .catalog import block_sum, member_counter
from .errors import BadParamError, UndefinedBlockValueError
from .ops import bell_number, check_enumeration_cap

FREE = "free"
CLASSICAL = "classical"


def count_moments(category_name: str, k_max: int) -> tuple[int, ...]:
    """(m_1, ..., m_k_max), m_k = number of category members on k points.

    Checks the name, then ``k_max >= 0``, then the enumeration cap, and then
    counts by the catalog's block recursion (``member_counter``), with one
    memo for the call: no word or partition is built.
    """
    count = member_counter(category_name)
    if k_max < 0:
        raise BadParamError(f"k_max must be >= 0, got {k_max}")
    check_enumeration_cap(k_max)
    return tuple(count(k) for k in range(1, k_max + 1))


# ---------------------------------------------------------------------------
# closed-form sequences

CATALAN = "catalan"
BELL = "bell"
MOTZKIN = "motzkin"
INVOLUTIONS = "involutions"
DOUBLE_FACTORIAL = "double-factorial"
FUSS_CATALAN_2 = "fuss-catalan-2"
B_FORMULA = "b-formula"
FACTORIAL = "factorial"


def closed_form(name: str, k: int) -> int:
    """Evaluate one of the named integer sequences at k >= 0."""
    if k < 0:
        raise BadParamError("sequence index must be >= 0")
    if name == CATALAN:
        return comb(2 * k, k) // (k + 1)
    if name == BELL:
        return bell_number(k)
    if name == MOTZKIN:
        return sum(comb(k, 2 * j) * comb(2 * j, j) // (j + 1) for j in range(k // 2 + 1))
    if name == INVOLUTIONS:
        return sum(
            factorial(k) // (factorial(k - 2 * j) * factorial(j) * 2**j)
            for j in range(k // 2 + 1)
        )
    if name == DOUBLE_FACTORIAL:
        out = 1
        for x in range(2 * k - 1, 0, -2):
            out *= x
        return out
    if name == FUSS_CATALAN_2:
        return comb(3 * k, k) // (2 * k + 1)
    if name == B_FORMULA:
        return comb(3 * k + 1, k) // (k + 1)
    if name == FACTORIAL:
        return factorial(k)
    raise BadParamError(f"unknown sequence {name!r}")


def fuss_catalan_series(degree: int) -> tuple[int, ...]:
    """Coefficients of sum_k C_k^(2) x^k up to the given degree."""
    return tuple(closed_form(FUSS_CATALAN_2, k) for k in range(degree + 1))


def poly_square(coeffs: Iterable[int]) -> tuple[int, ...]:
    """Coefficients of the square of a polynomial, exact."""
    c = tuple(coeffs)
    out = [0] * (2 * len(c) - 1) if c else []
    for i, a in enumerate(c):
        for j, b in enumerate(c):
            out[i + j] += a * b
    return tuple(out)


# ---------------------------------------------------------------------------
# moment-cumulant summation


@dataclass(frozen=True)
class CumulantSpec:
    """Block-value rule for a moment-cumulant sum.

    ``values`` maps (size, marks) to an exact rational, an ``int`` or a
    ``Fraction``, where ``size`` is an ``int`` of at least 1 and ``marks`` is
    the sorted tuple of the block's ``size`` point marks (empty tuple for
    mark-free rules).  Undeclared shapes of size above the largest declared
    size evaluate to 0; any other undeclared shape raises
    UndefinedBlockValueError.  Marked entries are only accepted for blocks of
    size one or two.
    """

    kind: str  # "free" | "classical"
    values: Mapping[tuple[int, tuple[str, ...]], int | Fraction]

    def __post_init__(self) -> None:
        if self.kind not in (FREE, CLASSICAL):
            raise BadParamError(f"unknown cumulant kind {self.kind!r}")
        for (size, marks), value in self.values.items():
            if not isinstance(size, int) or not isinstance(marks, tuple):
                raise BadParamError(f"cumulant key {(size, marks)} must pair an int with a tuple")
            if size < 1:
                raise BadParamError(f"block size must be >= 1, got {size}")
            if marks and len(marks) != size:
                raise BadParamError(f"a block of size {size} cannot carry the marks {marks}")
            if marks and size > 2:
                raise UndefinedBlockValueError(
                    "marked cumulants are only supported for blocks of size <= 2"
                )
            if list(marks) != sorted(marks):
                raise BadParamError(f"the marks of {(size, marks)} are not sorted")
            if not isinstance(value, (int, Fraction)):
                raise BadParamError(
                    f"cumulant of {(size, marks)} must be an int or a Fraction, got {value!r}"
                )

    @property
    def _max_size(self) -> int:
        return max((size for size, _ in self.values), default=0)

    def block_value(self, size: int, marks: tuple[str, ...]) -> Fraction:
        key = (size, tuple(sorted(marks)))
        if key in self.values:
            return self.values[key]
        bare = (size, ())
        if bare in self.values:
            return self.values[bare]
        if size > self._max_size:
            return Fraction(0)
        raise UndefinedBlockValueError(f"no value for block shape {key}")


def _spec(kind: str, entries: dict[tuple[int, tuple[str, ...]], int | Fraction]) -> CumulantSpec:
    return CumulantSpec(kind, {k: Fraction(v) for k, v in entries.items()})


# each table serves a free law and its classical analogue
_CENTRED = {(1, ()): 0, (2, ()): 1}
_SHIFTED = {(1, ()): 1, (2, ()): 1}
_SHIFTED_MARKED = {
    (1, ("d",)): 1,
    (1, ("d*",)): 1,
    (2, ("d", "d*")): 1,
    (2, ("d", "d")): 0,
    (2, ("d*", "d*")): 0,
}


def semicircular_spec() -> CumulantSpec:
    """Second cumulant 1, everything else 0 (free)."""
    return _spec(FREE, _CENTRED)


def shifted_semicircular_spec() -> CumulantSpec:
    """First and second cumulants 1 (free): the law of 1 + s."""
    return _spec(FREE, _SHIFTED)


def shifted_circular_spec() -> CumulantSpec:
    """Mixed cumulants of d = 1 + c: singletons 1, opposite-mark pairs 1."""
    return _spec(FREE, _SHIFTED_MARKED)


def gaussian_spec() -> CumulantSpec:
    """Second classical cumulant 1: the standard real Gaussian."""
    return _spec(CLASSICAL, _CENTRED)


def shifted_gaussian_spec() -> CumulantSpec:
    return _spec(CLASSICAL, _SHIFTED)


def shifted_complex_gaussian_spec() -> CumulantSpec:
    """Classical analogue of the shifted-circular rule."""
    return _spec(CLASSICAL, _SHIFTED_MARKED)


def moments_from_cumulants(
    spec: CumulantSpec, word_unit: tuple[str, ...], k_max: int
) -> tuple[int, ...]:
    """(m_1, ..., m_k_max), m_k = sum over partitions of the repeated mark word's points.

    ``word_unit`` is repeated k times to mark the points of the k-th moment:
    ("a",) gives the plain single-variable moments, ("d", "d*") the
    alternating starred moments.  Free specs sum over noncrossing partitions,
    classical specs over all partitions.  The largest moment's point count,
    ``len(word_unit) * k_max``, must stay within the enumeration cap.

    First ``spec.block_value`` runs on every block shape that a partition
    of the largest point set can hold, in ascending (size, sorted marks)
    order, so the least undefined shape raises its own message whatever the
    other blocks are worth: the shapes above the largest declared size come
    last and are worth 0 without raising.  Then the catalog's ``block_sum``
    adds up the products of the block values, one exact recursion per world
    that builds no word.
    """
    if not word_unit:
        raise BadParamError("the mark word must not be empty")
    if k_max < 0:
        raise BadParamError(f"k_max must be >= 0, got {k_max}")
    check_enumeration_cap(len(word_unit) * k_max)
    marks = sorted(set(word_unit))
    held = [word_unit.count(mark) * k_max for mark in marks]
    shapes = sorted(
        (sum(block), tuple(m for m, n in zip(marks, block) for _ in range(n)), block)
        for block in product(*(range(n + 1) for n in held))
        if any(block)
    )
    block_values = {block: spec.block_value(size, key) for size, key, block in shapes}
    total = block_sum(word_unit, block_values.__getitem__, spec.kind == FREE)
    values = []
    for k in range(1, k_max + 1):
        m_k = total(len(word_unit) * k)
        if m_k.denominator != 1 or m_k < 0:
            raise UndefinedBlockValueError(
                f"moment m_{k} is not a nonnegative integer: {m_k}"
            )
        values.append(int(m_k))
    return tuple(values)


# ---------------------------------------------------------------------------
# squeezing and symmetrizing


def squeeze(seq: Iterable[int]) -> tuple[int, ...]:
    """Interleave zeros: entry k of the input becomes entry 2k."""
    return tuple(x for v in seq for x in (0, v))


def symmetrize(seq: Iterable[int]) -> tuple[int, ...]:
    """Zero all odd-order entries."""
    return tuple(0 if k % 2 == 1 else v for k, v in enumerate(seq, start=1))
