"""Named partitions and the table of named categories.

``CATALOG`` is the one table of the named categories (Weber's
classification).  Each row gives a category's name, its world, the
generators it is known by, whether its members are noncrossing, and its
block rule on boundary words, a ``BlockRule``: a test on each block's
(plus, minus) mark counts, plus meaning an even walk position, and a flag
asking for an even number of points.  That flag is every global condition:
for blocks of at most two points an even number of singletons is an even
number of points (``B'``, ``B#``), and the number of odd blocks has the
parity of the number of points (``S'``).

* ``Free7``:      ``O+ H+ S'+ S+ B#+ B'+ B+``, noncrossing plus a block rule
* ``Classical6``: ``O  H  S'  S  B'  B``, the same block rules with crossings
* ``HalfLib``:    ``O* H* B#*``, crossings allowed and mark rules that bite
* ``Series``:     ``fatcross``, known by its generators only, and the
  parametrized ``H^(s)``: every block's imbalance, its plus marks minus its
  minus marks, is a multiple of s, on an even number of points

Everything else is read from the table: ``member_words``, the one stream of
a category's words, ``member_counter``, their number by ``block_sum`` (one
weighted recursion over blocks, shared with the cumulant sums, that builds
no word), ``category_predicate``, the name tuple of
each world (in table order), ``RULED_NAMES``, the 16 ruled rows, and
``included``, the one inclusion order of the ruled names.
``catalog_entry`` resolves every name, a ``CATALOG`` row or ``H^(s)`` with
s >= 3 spelled as the series prints it; every other name is a BadParamError.
Only ``fatcross`` has no block rule, so only it raises NoPredicateError when
asked for a predicate or words; its membership questions go through the
closure engine instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from math import comb, prod
from operator import sub
from typing import Callable, Iterator

from .errors import BadParamError, CapExceededError, NoPredicateError, PointRangeError
from .ops import ENUMERATION_CAP, LISTING_CAP, check_enumeration_cap, iter_words, word_total
from .partition import (
    Partition,
    Word,
    _quote,
    partition_from_word,
    sorted_partitions,
    word_noncrossing,
)

# ---------------------------------------------------------------------------
# named partitions


def unit_partition() -> Partition:
    """{u1,l1}: one vertical line."""
    return partition_from_word((0, 0), 1)


def pair_partition() -> Partition:
    """{l1,l2}: one lower pair."""
    return partition_from_word((0, 0))


def singleton() -> Partition:
    """{l1}: one lower point."""
    return partition_from_word((0,))


def double_singleton() -> Partition:
    """{l1}{l2}: two lower points, each a block."""
    return partition_from_word((0, 1))


def block(size: int) -> Partition:
    """A single block of the given size on the lower row."""
    if size < 1:
        raise BadParamError(f"block size must be >= 1, got {size}")
    return partition_from_word((0,) * size)


def four_block() -> Partition:
    return block(4)


def positioner() -> Partition:
    """{1}{2,4}{3}: a pair around a free middle point, plus an outer singleton."""
    return partition_from_word((0, 1, 2, 1))


def crossing() -> Partition:
    """The transposition diagram {u1,l2}{u2,l1}."""
    return partition_from_word((0, 1, 0, 1), 2)


def half_lib() -> Partition:
    """{1,3'}{2,2'}{3,1'}: the three-strand reversal diagram."""
    return partition_from_word((0, 1, 2, 0, 1, 2), 3)


def h_series(s: int) -> Partition:
    """Two interleaved blocks {1,3,..,2s-1} and {2,4,..,2s} on 2s points."""
    if s < 1:
        raise BadParamError(f"h-series parameter must be >= 1, got {s}")
    return partition_from_word((0, 1) * s)


def k_series(length: int) -> Partition:
    """Four block on the outer columns of P(l+2, l+2), vertical pairs inside."""
    if length < 1:
        raise BadParamError(f"k-series parameter must be >= 1, got {length}")
    inner = tuple(range(1, length + 1))
    return partition_from_word((0, *inner, 0, 0, *inner[::-1], 0), length + 2)


def fat_crossing() -> Partition:
    """{1,2,3',4'}{3,4,1',2'}: two crossing four blocks in P(4,4)."""
    return partition_from_word((0, 0, 1, 1, 0, 0, 1, 1), 4)


_NAMED: dict[str, Callable[..., Partition]] = {
    "unit": unit_partition,
    "pair": pair_partition,
    "singleton": singleton,
    "double-singleton": double_singleton,
    "block": block,
    "four-block": four_block,
    "positioner": positioner,
    "crossing": crossing,
    "half-lib": half_lib,
    "h": h_series,
    "k": k_series,
    "fat-crossing": fat_crossing,
}


def named_partition(name: str, *params: int) -> Partition:
    try:
        ctor = _NAMED[name]
    except KeyError:
        raise BadParamError(f"unknown partition name {name!r}") from None
    return ctor(*params)


# ---------------------------------------------------------------------------
# membership predicates

Predicate = Callable[[Partition], bool]
BlockTest = Callable[[int, int], bool]


def _pair(plus: int, minus: int) -> bool:
    return plus + minus == 2


def _even(plus: int, minus: int) -> bool:
    return (plus + minus) % 2 == 0


def _at_most_two(plus: int, minus: int) -> bool:
    return plus + minus <= 2


def _balanced(plus: int, minus: int) -> bool:
    return plus == minus


def _balanced_pair(plus: int, minus: int) -> bool:
    return plus == minus == 1


def _singleton_or_balanced_pair(plus: int, minus: int) -> bool:
    return plus + minus == 1 or plus == minus == 1


def block_marks(w: Word) -> tuple[list[int], list[int]]:
    """Each block's count of plus marks and each block's count of minus marks
    in ``w``, per label 0 .. max(w), in one pass over the word: plus at even
    walk positions, minus at odd ones; an unused label counts (0, 0)."""
    size = max(w, default=-1) + 1
    plus, minus = [0] * size, [0] * size
    for x in w[::2]:
        plus[x] += 1
    for x in w[1::2]:
        minus[x] += 1
    return plus, minus


@dataclass(frozen=True, slots=True)
class BlockRule:
    """A word rule as data: every block's (plus, minus) marks pass ``block``
    (None passes every block), and the word has an even number of points if
    ``even_points``.  Calling it tests one word."""

    block: BlockTest | None
    even_points: bool

    def __call__(self, w: Word) -> bool:
        if self.even_points and len(w) % 2:
            return False
        block = self.block
        if block is None:
            return True
        return all(map(block, *block_marks(w)))


# the most points a block sum takes: its memo grows as a power of the point total
BLOCK_SUM_CAP = 64


def _check_block_sum_points(n_points: int) -> None:
    if n_points < 0:
        raise PointRangeError(f"point total must be nonnegative, got {n_points}")
    if n_points > BLOCK_SUM_CAP:
        raise CapExceededError(f"{n_points} points exceeds the block sum cap {BLOCK_SUM_CAP}")


def block_sum(
    unit: tuple[str, ...],
    weight: Callable[[tuple[int, ...]], int | Fraction],
    noncrossing: bool,
) -> Callable[[int], int | Fraction]:
    """The sum over the partitions of n points (the noncrossing ones if
    ``noncrossing``) of the product of their block weights, as a function of
    n; more than ``BLOCK_SUM_CAP`` points are refused before any work.

    The point i carries the mark ``unit[i % len(unit)]``, and ``weight`` takes a
    block's count of each mark, in sorted mark order.  One exact recursion
    per world splits off a block and builds no word; its memo lives as long
    as the returned function.  Classical (and half-liberated):
    ``marked(left)`` splits off the block of the first point of the first
    mark with points left.  Noncrossing: ``interval(length, start)`` starts
    at offset ``start`` of the unit, and ``legs(rest, start, block)``
    finishes its first point's block, with ``rest`` points after the last
    leg: the block closes, or its next leg follows a gap that is itself an
    interval.
    """
    marks = sorted(set(unit))
    period, index = len(unit), [marks.index(mark) for mark in unit]

    def add_leg(block: tuple[int, ...], offset: int) -> tuple[int, ...]:
        j = index[offset]
        return block[:j] + (block[j] + 1,) + block[j + 1 :]

    if noncrossing:

        @cache
        def interval(length: int, start: int) -> int | Fraction:
            if length == 0:
                return 1
            return legs(length - 1, (start + 1) % period, add_leg((0,) * len(marks), start))

        @cache
        def legs(rest: int, start: int, block: tuple[int, ...]) -> int | Fraction:
            value = weight(block)
            total = value * interval(rest, start) if value else 0
            for gap in range(rest):
                if inner := interval(gap, start):
                    leg = (start + gap) % period
                    total += inner * legs(rest - gap - 1, (leg + 1) % period, add_leg(block, leg))
            return total

        def points(n: int) -> int | Fraction:
            return interval(n, 0)

    else:

        @cache
        def marked(left: tuple[int, ...]) -> int | Fraction:
            first = next((j for j, r in enumerate(left) if r), None)
            if first is None:
                return 1
            sizes = [range(r + 1) for r in left]
            sizes[first] = range(1, left[first] + 1)
            total = 0
            for block in product(*sizes):
                if value := weight(block):
                    # choose the block's other points: comb(r - 1, b - 1) for the first mark
                    ways = prod(map(comb, left, block)) * block[first] // left[first]
                    total += ways * value * marked(tuple(map(sub, left, block)))
            return total

        def points(n: int) -> int | Fraction:
            return marked(tuple(map((unit * n)[:n].count, marks)))

    def total(n_points: int) -> int | Fraction:
        _check_block_sum_points(n_points)
        return points(n_points)

    return total


# ---------------------------------------------------------------------------
# the catalog table

WORLD_FREE = "Free7"
WORLD_CLASSICAL = "Classical6"
WORLD_HALF_LIBERATED = "HalfLib"
WORLD_SERIES = "Series"


@dataclass(frozen=True)
class CatalogEntry:
    """One named category: its generators, and its membership rule if any.

    Members are the partitions whose word passes ``rule`` and, when
    ``noncrossing`` is set, has no crossing.  ``rule`` is None for the
    categories known only by their generators.  ``repr``, ``==`` and
    ``hash`` do not read the generators, which a series entry builds only
    when asked.
    """

    name: str
    world: str
    generators: tuple[Partition, ...] = field(repr=False, compare=False)
    noncrossing: bool = False
    rule: BlockRule | None = None

    @property
    def predicate(self) -> Predicate | None:
        rule = self.rule
        if rule is None:
            return None
        if self.noncrossing:
            return lambda p: word_noncrossing(p.word) and rule(p.word)
        return lambda p: rule(p.word)


def _build_catalog() -> dict[str, CatalogEntry]:
    s, ss, fb, pos = singleton(), double_singleton(), four_block(), positioner()
    x, hl = crossing(), half_lib()
    # name, world, generators, noncrossing, block test, even number of points
    ruled = [
        # free world: noncrossing plus a block rule
        ("O+", WORLD_FREE, (), True, _pair, False),
        ("H+", WORLD_FREE, (fb,), True, _even, False),
        ("S'+", WORLD_FREE, (ss, fb), True, None, True),
        ("S+", WORLD_FREE, (s, fb), True, None, False),
        ("B#+", WORLD_FREE, (ss,), True, _singleton_or_balanced_pair, True),
        ("B'+", WORLD_FREE, (pos,), True, _at_most_two, True),
        ("B+", WORLD_FREE, (s,), True, _at_most_two, False),
        # classical world: the same block rules, crossings allowed, no mark rule
        ("O", WORLD_CLASSICAL, (x,), False, _pair, False),
        ("H", WORLD_CLASSICAL, (fb, x), False, _even, False),
        ("S'", WORLD_CLASSICAL, (ss, fb, x), False, None, True),
        ("S", WORLD_CLASSICAL, (s, fb, x), False, None, False),
        ("B'", WORLD_CLASSICAL, (pos, x), False, _at_most_two, True),
        ("B", WORLD_CLASSICAL, (s, x), False, _at_most_two, False),
        # half-liberated world: crossings allowed, mark rules bite
        ("O*", WORLD_HALF_LIBERATED, (hl,), False, _balanced_pair, False),
        ("H*", WORLD_HALF_LIBERATED, (hl, fb), False, _balanced, False),
        ("B#*", WORLD_HALF_LIBERATED, (hl, ss), False, _singleton_or_balanced_pair, True),
    ]
    entries = [
        CatalogEntry(name, world, gens, noncrossing, BlockRule(block, even_points))
        for name, world, gens, noncrossing, block, even_points in ruled
    ]
    # known by its generators only
    entries.append(CatalogEntry("fatcross", WORLD_SERIES, (fat_crossing(), fb)))
    return {e.name: e for e in entries}


CATALOG: dict[str, CatalogEntry] = _build_catalog()


def _names_in(world: str) -> tuple[str, ...]:
    return tuple(name for name, e in CATALOG.items() if e.world == world)


FREE_NAMES = _names_in(WORLD_FREE)
CLASSICAL_NAMES = _names_in(WORLD_CLASSICAL)
HALF_LIBERATED_NAMES = _names_in(WORLD_HALF_LIBERATED)
RULED_NAMES = tuple(name for name, e in CATALOG.items() if e.rule is not None)


def _ruled_entry(name: str) -> CatalogEntry:
    entry = catalog_entry(name)
    if entry.rule is None:
        raise NoPredicateError(f"category {name!r} has no membership predicate")
    return entry


def member_words(name: str, n_points: int) -> Iterator[Word]:
    """The category's words on n_points points, read lazily; the name is
    checked first, then n_points against the enumeration cap."""
    entry = _ruled_entry(name)
    check_enumeration_cap(n_points)
    return filter(entry.rule, iter_words(n_points, entry.noncrossing))


def member_counter(name: str) -> Callable[[int], int]:
    """The number of the category's words on n points, as a function of
    0 <= n <= ``BLOCK_SUM_CAP``.

    The name is checked at once.  The counts come from ``block_sum`` on the
    unit ("+", "-") with the block test as a 0/1 weight, so they build no
    word; an odd n of an ``even_points`` rule counts 0 without a sum.
    """
    entry = _ruled_entry(name)
    rule = entry.rule
    test = rule.block or (lambda plus, minus: True)
    words = block_sum(("+", "-"), lambda block: int(test(*block)), entry.noncrossing)

    def count(n_points: int) -> int:
        _check_block_sum_points(n_points)
        return 0 if rule.even_points and n_points % 2 else words(n_points)

    return count


def category_predicate(name: str) -> Predicate:
    return _ruled_entry(name).predicate


class _SeriesEntry(CatalogEntry):
    """The entry of ``H^(s)``.  Its generator h(s) has 2s points, so it is
    built when the generators are first read, not when the name is resolved:
    resolving a name, and every question its rule answers, costs the same
    for every s."""

    def __init__(self, s: int) -> None:
        # noncrossing keeps its class default, False
        object.__setattr__(self, "name", f"H^({s})")
        object.__setattr__(self, "world", WORLD_SERIES)
        rule = BlockRule(lambda plus, minus: (plus - minus) % s == 0, even_points=True)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "_s", s)

    @cached_property
    def generators(self) -> tuple[Partition, ...]:
        return (half_lib(), four_block(), h_series(self._s))


def series_entry(s: int) -> CatalogEntry:
    """The parametrized series ⟨half-lib, four-block, h(s)⟩, s >= 3."""
    if s < 3:
        raise BadParamError(f"series parameter must be >= 3, got {s}")
    return _SeriesEntry(s)


def catalog_entry(name: str) -> CatalogEntry:
    """The entry of a ``CATALOG`` name, or ``series_entry(s)`` for its own name ``H^(s)``."""
    if name in CATALOG:
        return CATALOG[name]
    try:
        s = int(name[3:-1])
    except ValueError:
        pass
    else:
        if name == f"H^({s})":
            return series_entry(s)
    raise BadParamError(f"unknown category {_quote(name)}")


def enumerate_category(name: str, total_points: int) -> list[Partition]:
    """All members of the category in P(0, total_points), canonical order.

    Checks the name, then the enumeration cap, then that total_points is
    nonnegative, then the number of members against ``LISTING_CAP``, all
    before any word is built.  The members are counted only where the
    world's words, Bell(n) or Catalan(n), exceed the cap: only at 12 points,
    outside the noncrossing world.
    """
    count = member_counter(name)
    check_enumeration_cap(total_points)
    if (
        total_points >= 0
        and word_total(total_points, catalog_entry(name).noncrossing) > LISTING_CAP
        and (lines := count(total_points)) > LISTING_CAP
    ):
        raise CapExceededError(
            f"{lines} members of {name} on {total_points} points exceed the "
            f"listing cap Bell({ENUMERATION_CAP - 1}) = {LISTING_CAP}"
        )
    return sorted_partitions(0, total_points, member_words(name, total_points))


# ---------------------------------------------------------------------------
# inclusion order of the ruled names


def included(a: str, b: str) -> bool:
    """Whether the category named a is included in the one named b, both
    names with a rule: b's predicate accepts every catalog generator of a.

    A category contains the category generated by G iff it contains G
    (Banica-Speicher), so this is the inclusion of the categories; the order
    is reflexive and transitive, across worlds as within one.
    """
    return all(map(category_predicate(b), catalog_entry(a).generators))
