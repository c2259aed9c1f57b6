"""The package's public names: a removal or an addition has to change the
pinned list below on purpose."""

import partcat

PUBLIC = [
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


def test_public_names_are_pinned_and_sorted():
    assert partcat.__all__ == PUBLIC == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in partcat.__all__:
        assert getattr(partcat, name) is not None, name
