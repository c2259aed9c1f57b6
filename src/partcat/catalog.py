"""Named partitions and named categories with their membership predicates.

Category identifiers are stable text names used by the CLI and result files:

* free (noncrossing) world: ``O+ H+ S'+ S+ B#+ B'+ B+``
* classical world:          ``O  H  S'  S  B'  B``
* half-liberated world:     ``O* H* B#*``
* parametrized series:      ``H^(s)`` and the category ``fatcross``

The last two have generators but no closed membership predicate; asking for
one raises NoPredicateError and membership questions go through the closure
engine instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import BadParamError, NoPredicateError
from .ops import ENUMERATION_CAP, check_enumeration_cap, iter_words
from .partition import (
    Partition,
    Word,
    lower,
    make_partition,
    sorted_partitions,
    upper,
    word_noncrossing,
)

# ---------------------------------------------------------------------------
# named partitions


def unit_partition() -> Partition:
    return make_partition(1, 1, [[upper(1), lower(1)]])


def pair_partition() -> Partition:
    return make_partition(0, 2, [[lower(1), lower(2)]])


def singleton() -> Partition:
    return make_partition(0, 1, [[lower(1)]])


def double_singleton() -> Partition:
    return make_partition(0, 2, [[lower(1)], [lower(2)]])


def block(size: int) -> Partition:
    """A single block of the given size on the lower row."""
    if size < 1:
        raise BadParamError(f"block size must be >= 1, got {size}")
    return make_partition(0, size, [[lower(j) for j in range(1, size + 1)]])


def four_block() -> Partition:
    return block(4)


def positioner() -> Partition:
    """{1}{2,4}{3}: a pair around a free middle point, plus an outer singleton."""
    return make_partition(0, 4, [[lower(1)], [lower(2), lower(4)], [lower(3)]])


def crossing() -> Partition:
    """The transposition diagram {u1,l2}{u2,l1}."""
    return make_partition(2, 2, [[upper(1), lower(2)], [upper(2), lower(1)]])


def half_lib() -> Partition:
    """{1,3'}{2,2'}{3,1'}: the three-strand reversal diagram."""
    return make_partition(
        3, 3, [[upper(1), lower(3)], [upper(2), lower(2)], [upper(3), lower(1)]]
    )


def h_series(s: int) -> Partition:
    """Two interleaved blocks {1,3,..,2s-1} and {2,4,..,2s} on 2s points."""
    if s < 1:
        raise BadParamError(f"h-series parameter must be >= 1, got {s}")
    odds = [lower(j) for j in range(1, 2 * s + 1, 2)]
    evens = [lower(j) for j in range(2, 2 * s + 1, 2)]
    return make_partition(0, 2 * s, [odds, evens])


def k_series(length: int) -> Partition:
    """Four block on the outer columns of P(l+2, l+2), vertical pairs inside."""
    if length < 1:
        raise BadParamError(f"k-series parameter must be >= 1, got {length}")
    n = length + 2
    blocks: list[list] = [[upper(1), lower(1), upper(n), lower(n)]]
    blocks += [[upper(i), lower(i)] for i in range(2, n)]
    return make_partition(n, n, blocks)


def fat_crossing() -> Partition:
    """{1,2,3',4'}{3,4,1',2'}: two crossing four blocks in P(4,4)."""
    return make_partition(
        4,
        4,
        [
            [upper(1), upper(2), lower(3), lower(4)],
            [upper(3), upper(4), lower(1), lower(2)],
        ],
    )


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
#
# One rule table on boundary words: a named category asks for noncrossing
# words or not, plus a block rule.  Block sizes are label counts; the mark of
# walk position i is plus for even i and minus for odd i.

Predicate = Callable[[Partition], bool]
WordRule = Callable[[Word], bool]


def _sizes(w: Word) -> list[int]:
    return [w.count(x) for x in range(max(w, default=-1) + 1)]


def _any(w: Word) -> bool:
    return True


def _sizes_at_most_two(w: Word) -> bool:
    return all(s <= 2 for s in _sizes(w))


def _all_pairs(w: Word) -> bool:
    return all(s == 2 for s in _sizes(w))


def _all_even(w: Word) -> bool:
    return all(s % 2 == 0 for s in _sizes(w))


def _even_odd_blocks(w: Word) -> bool:
    # the number of odd blocks has the parity of the number of points
    return len(w) % 2 == 0


def _even_singletons(w: Word) -> bool:
    return _sizes(w).count(1) % 2 == 0


def _pairs_balanced(w: Word) -> bool:
    """Every block of size two carries one plus and one minus mark."""
    plus = w[::2]
    return all(plus.count(x) == 1 for x, s in enumerate(_sizes(w)) if s == 2)


def _blocks_balanced(w: Word) -> bool:
    """Every block carries as many plus as minus marks."""
    plus, minus = w[::2], w[1::2]
    return all(plus.count(x) == minus.count(x) for x in range(max(w, default=-1) + 1))


def _b_prime(w: Word) -> bool:
    return _sizes_at_most_two(w) and _even_singletons(w)


def _b_sharp(w: Word) -> bool:
    return _b_prime(w) and _pairs_balanced(w)


# name -> (members are noncrossing, block rule)
_RULES: dict[str, tuple[bool, WordRule]] = {
    # free world: noncrossing plus a block rule
    "O+": (True, _all_pairs),
    "H+": (True, _all_even),
    "S'+": (True, _even_odd_blocks),
    "S+": (True, _any),
    "B#+": (True, _b_sharp),
    "B'+": (True, _b_prime),
    "B+": (True, _sizes_at_most_two),
    # classical world: the same block rules, crossings allowed, no mark rule
    "O": (False, _all_pairs),
    "H": (False, _all_even),
    "S'": (False, _even_odd_blocks),
    "S": (False, _any),
    "B'": (False, _b_prime),
    "B": (False, _sizes_at_most_two),
    # half-liberated world: crossings allowed, mark rules bite
    "O*": (False, lambda w: _all_pairs(w) and _blocks_balanced(w)),
    "H*": (False, lambda w: _all_even(w) and _blocks_balanced(w)),
    "B#*": (False, _b_sharp),
}


def word_rule(name: str) -> tuple[bool, WordRule]:
    """Whether the category's members are noncrossing, and its block rule."""
    if name in _RULES:
        return _RULES[name]
    if name in CATALOG or _series_param(name) is not None:
        raise NoPredicateError(f"category {name!r} has no membership predicate")
    raise BadParamError(f"unknown category {name!r}")


def category_predicate(name: str) -> Predicate:
    noncrossing, rule = word_rule(name)
    if noncrossing:
        return lambda p: word_noncrossing(p.word) and rule(p.word)
    return lambda p: rule(p.word)


# ---------------------------------------------------------------------------
# catalog table

FREE_WORLD = "free"
CLASSICAL_WORLD = "classical"
HALF_LIBERATED_WORLD = "half-liberated"
SERIES_WORLD = "hyperoctahedral-series"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    world: str
    generators: tuple[Partition, ...]
    predicate: Predicate | None


def _entry(name: str, world: str, generators: Iterable[Partition]) -> CatalogEntry:
    predicate = category_predicate(name) if name in _RULES else None
    return CatalogEntry(name, world, tuple(generators), predicate)


def _build_catalog() -> dict[str, CatalogEntry]:
    s, ss, fb, pos = singleton(), double_singleton(), four_block(), positioner()
    x, hl = crossing(), half_lib()
    entries = [
        _entry("O+", FREE_WORLD, []),
        _entry("H+", FREE_WORLD, [fb]),
        _entry("S'+", FREE_WORLD, [ss, fb]),
        _entry("S+", FREE_WORLD, [s, fb]),
        _entry("B#+", FREE_WORLD, [ss]),
        _entry("B'+", FREE_WORLD, [pos]),
        _entry("B+", FREE_WORLD, [s]),
        _entry("O", CLASSICAL_WORLD, [x]),
        _entry("H", CLASSICAL_WORLD, [fb, x]),
        _entry("S'", CLASSICAL_WORLD, [ss, fb, x]),
        _entry("S", CLASSICAL_WORLD, [s, fb, x]),
        _entry("B'", CLASSICAL_WORLD, [pos, x]),
        _entry("B", CLASSICAL_WORLD, [s, x]),
        _entry("O*", HALF_LIBERATED_WORLD, [hl]),
        _entry("H*", HALF_LIBERATED_WORLD, [hl, fb]),
        _entry("B#*", HALF_LIBERATED_WORLD, [hl, ss]),
        _entry("fatcross", SERIES_WORLD, [fat_crossing(), fb]),
    ]
    return {e.name: e for e in entries}


CATALOG: dict[str, CatalogEntry] = _build_catalog()

FREE_NAMES = ("O+", "H+", "S'+", "S+", "B#+", "B'+", "B+")
CLASSICAL_NAMES = ("O", "H", "S'", "S", "B'", "B")
HALF_LIBERATED_NAMES = ("O*", "H*", "B#*")


def _series_param(name: str) -> int | None:
    if name.startswith("H^(") and name.endswith(")"):
        try:
            return int(name[3:-1])
        except ValueError:
            return None
    return None


def series_entry(s: int) -> CatalogEntry:
    """The parametrized series ⟨half-lib, four-block, h(s)⟩, s >= 3."""
    if s < 3:
        raise BadParamError(f"series parameter must be >= 3, got {s}")
    return CatalogEntry(
        name=f"H^({s})",
        world=SERIES_WORLD,
        generators=(half_lib(), four_block(), h_series(s)),
        predicate=None,
    )


def catalog_entry(name: str) -> CatalogEntry:
    if name in CATALOG:
        return CATALOG[name]
    s = _series_param(name)
    if s is not None:
        return series_entry(s)
    raise BadParamError(f"unknown category {name!r}")


def enumerate_category(
    name: str, total_points: int, cap: int = ENUMERATION_CAP
) -> list[Partition]:
    """All members of the category in P(0, total_points), canonical order."""
    noncrossing, rule = word_rule(name)
    check_enumeration_cap(total_points, cap)
    words = (w for w in iter_words(total_points, noncrossing) if rule(w))
    return sorted_partitions(0, total_points, words)


# ---------------------------------------------------------------------------
# inclusion order of the named worlds (transitively closed)


def _transitive(pairs: set[tuple[str, str]], names: tuple[str, ...]) -> set[tuple[str, str]]:
    closed = set(pairs) | {(n, n) for n in names}
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


FREE_INCLUSIONS = _transitive(
    {
        ("O+", "B#+"),
        ("B#+", "B'+"),
        ("B'+", "B+"),
        ("B+", "S+"),
        ("O+", "H+"),
        ("H+", "S'+"),
        ("S'+", "S+"),
        ("B'+", "S'+"),
    },
    FREE_NAMES,
)

CLASSICAL_INCLUSIONS = _transitive(
    {
        ("O", "B'"),
        ("B'", "B"),
        ("B", "S"),
        ("O", "H"),
        ("H", "S'"),
        ("S'", "S"),
        ("B'", "S'"),
    },
    CLASSICAL_NAMES,
)


def included(a: str, b: str, world_order: set[tuple[str, str]]) -> bool:
    """True iff category a is contained in category b."""
    return (a, b) in world_order
