"""Exact combinatorics of two-row partition categories.

Submodules:

* ``partition``: the partition data type (shape + boundary word), text grammar
* ``ops``      : tensor, composition with loop counting, involution, rotation
* ``catalog``  : named partitions and the table of named categories
* ``closure``  : bounded categorial hulls
* ``classify`` : classification against the named categories
* ``linmap``   : exact intertwiner matrices and concrete group checks
* ``moments``  : character-law counts, closed forms, cumulant sums
* ``cli``      : command-line entry point
"""

from .partition import (
    Partition,
    canonical_text,
    is_noncrossing,
    parse_partition,
)
from .ops import ComposeResult, Rotation, compose, enumerate_all, involute, rotate, tensor
from .catalog import (
    CATALOG,
    CatalogEntry,
    category_predicate,
    enumerate_category,
    named_partition,
)
from .closure import ClosureSet, Containment, generate_closure
from .classify import Classification, classify_easy
from .linmap import (
    GroupRep,
    check_functor,
    classical_rep,
    delta,
    t_matrix,
)
from .moments import (
    CumulantSpec,
    closed_form,
    count_moments,
    moments_from_cumulants,
    squeeze,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "Classification",
    "ClosureSet",
    "ComposeResult",
    "Containment",
    "CumulantSpec",
    "GroupRep",
    "Partition",
    "Rotation",
    "canonical_text",
    "category_predicate",
    "check_functor",
    "classical_rep",
    "classify_easy",
    "closed_form",
    "compose",
    "count_moments",
    "delta",
    "enumerate_all",
    "enumerate_category",
    "generate_closure",
    "involute",
    "is_noncrossing",
    "moments_from_cumulants",
    "named_partition",
    "parse_partition",
    "rotate",
    "squeeze",
    "symmetrize",
    "t_matrix",
    "tensor",
]
