import hypothesis.strategies as st
import pytest
from hypothesis import settings

import block_reference

from partcat.ops import enumerate_upto
from partcat.partition import Partition, partition_from_word

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


@st.composite
def words(draw, length: int) -> tuple[int, ...]:
    """A random boundary word of the given length, labels in order of first use."""
    labels: list[int] = []
    used = 0
    for _ in range(length):
        v = draw(st.integers(min_value=0, max_value=used))
        labels.append(v)
        used = max(used, v + 1)
    return tuple(labels)


@st.composite
def partitions(draw, max_points: int = 8) -> Partition:
    """A random partition of a random shape with at most max_points points."""
    n = draw(st.integers(min_value=0, max_value=max_points))
    k = draw(st.integers(min_value=0, max_value=n))
    return partition_from_word(draw(words(n)), k, n - k)


@pytest.fixture(scope="session")
def all_upto_6() -> list[Partition]:
    """Every partition of every shape with at most 6 points."""
    return enumerate_upto(6)


@pytest.fixture(autouse=True)
def _fresh_t_matrices():
    """Empty the reference's memo of dense T-matrices after every test, so
    its memory stays bounded by one test's matrices."""
    yield
    block_reference.clear_t_matrices()
