"""Label kinds: validation and the rendered forms used in exports."""

import pytest

from nearhex import Edge, OrderedPair, Pair, Partition, PrimedEdge
from nearhex.labels import perp_related


def test_edge_rendering_and_validation():
    assert str(Edge({2, 1})) == "12"
    assert str(PrimedEdge({3, 4})) == "34'"
    for kind in (Edge, PrimedEdge):
        for ends in ({1}, {1, 7}, {0, 1}, {1, 2, 3}):
            with pytest.raises(ValueError, match="not a 2-subset of 1..6"):
                kind(ends)
    assert not isinstance(PrimedEdge({1, 2}), Edge)


def test_pair_rendering():
    assert str(Pair(Edge({1, 2}), PrimedEdge({3, 4}))) == "(12,34')"


def test_ordered_pair_rendering():
    assert str(OrderedPair(Edge({1, 2}), Edge({4, 6}))) == "(12,46)"
    assert str(OrderedPair(Edge({1, 2}), Edge({1, 2}))) == "(12,12)"


def test_partition_rendering_and_validation():
    blocks = (frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6}), frozenset({7, 8}))
    assert str(Partition(frozenset(blocks))) == "{12,34,56,78}"
    with pytest.raises(ValueError):
        Partition(frozenset(blocks[:3]))
    with pytest.raises(ValueError):
        Partition(frozenset(blocks[:3] + (frozenset({7, 7}),)))
    overlapping = blocks[:3] + (frozenset({1, 8}),)
    with pytest.raises(ValueError):
        Partition(frozenset(overlapping))
    # four blocks covering 1..8, so only the block sizes are wrong
    with pytest.raises(ValueError, match="need four 2-subsets"):
        Partition(frozenset(map(frozenset, ({1, 2, 3}, {4, 5}, {6, 7}, {8}))))


def test_perp_related_is_equal_or_disjoint():
    a, b, c = frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 3})
    assert perp_related(a, a)
    assert perp_related(a, b)
    assert not perp_related(a, c)
