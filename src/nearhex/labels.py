"""Point provenance labels.

Every geometry built by this package tags each point with one of the label
kinds below, so that verification code can classify point pairs from the
labels alone, without consulting the line structure it is trying to check.

Rendered forms (used in the JSON interchange format):

    Edge         "12"
    PrimedEdge   "34'"
    Pair         "(12,34')"
    Partition    "{12,34,56,78}"
    OrderedPair  "(12,46)"
"""

from __future__ import annotations

from dataclasses import dataclass


#: the ground set of a :class:`Partition`
_EIGHT = frozenset(range(1, 9))


def _blockstr(block: frozenset[int]) -> str:
    return "".join(str(x) for x in sorted(block))


@dataclass(frozen=True)
class _EdgeKind:
    """An edge of either copy of the ground set.  :class:`Edge` and
    :class:`PrimedEdge` both derive from it and neither from the other, so
    ``isinstance`` tells them apart."""

    ends: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ends", frozenset(self.ends))
        if len(self.ends) != 2 or not self.ends <= frozenset(range(1, 7)):
            raise ValueError(f"not a 2-subset of 1..6: {set(self.ends)!r}")


class Edge(_EdgeKind):
    """A 2-subset of the 6-element ground set."""

    def __str__(self) -> str:
        return _blockstr(self.ends)


class PrimedEdge(_EdgeKind):
    """An edge of the second (primed) copy of the ground set."""

    def __str__(self) -> str:
        return _blockstr(self.ends) + "'"


@dataclass(frozen=True)
class Pair:
    """A point of the 105-point hexagon: an edge together with a primed edge."""

    base: Edge
    prime: PrimedEdge

    def __str__(self) -> str:
        return f"({self.base},{self.prime})"


@dataclass(frozen=True)
class Partition:
    """A partition of an 8-element set into four 2-subsets."""

    blocks: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        blocks = frozenset(map(frozenset, self.blocks))
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) != 4 or set(map(len, blocks)) != {2}:
            raise ValueError("need four 2-subsets")
        union = frozenset().union(*blocks)
        if union != _EIGHT:
            raise ValueError(f"blocks do not partition 1..8: {sorted(union)}")

    def __str__(self) -> str:
        inner = ",".join(sorted((_blockstr(b) for b in self.blocks)))
        return "{" + inner + "}"


@dataclass(frozen=True)
class OrderedPair:
    """An ordered pair of edges (possibly equal), a point of the flag model."""

    first: Edge
    second: Edge

    def __str__(self) -> str:
        return f"({self.first},{self.second})"


def perp_related(a: frozenset[int], b: frozenset[int]) -> bool:
    """Whether edge b lies in the perp of edge a in the edge/factor model.

    Two distinct edges are collinear exactly when they are disjoint, and a
    point always lies in its own perp, so this is: equal or disjoint.
    """
    return a == b or a.isdisjoint(b)
