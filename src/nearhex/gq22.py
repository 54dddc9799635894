"""The edge/factor model of the unique (2,2) generalized quadrangle and
its triad machinery.

Points of the model are the 15 edges (2-subsets) of a fixed 6-set, lines
are the 15 factors (triples of pairwise disjoint edges), and two points are
collinear exactly when the edges are disjoint.  Triads of points, triads of
lines (realised on the dual geometry) and the grid/complete-triad structure
around them are what the near-hexagon builders consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .geometry import (
    Geometry,
    GeometryError,
    _check_points,
    _lines_inside,
    bits_of,
    collinear,
    dual_geometry,
    mask_of,
)
from .labels import Edge

GROUND = (1, 2, 3, 4, 5, 6)

#: the 15 edges in lexicographic order; fixes point indices 0..14 for good
EDGES: tuple[frozenset[int], ...] = tuple(
    frozenset(c) for c in combinations(GROUND, 2)
)
EDGE_INDEX: dict[frozenset[int], int] = {e: i for i, e in enumerate(EDGES)}


def _matchings(items: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """The perfect matchings of ``items``, each a tuple of pairs.  For
    increasing ``items``, each pair is increasing, the pairs come in
    increasing order, and so do the matchings."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for i, second in enumerate(rest):
        pair = (first, second)
        for sub in _matchings(rest[:i] + rest[i + 1 :]):
            out.append((pair,) + sub)
    return out


def build_w2() -> Geometry:
    """Build the (2,2)-GQ on the 15 edges of a 6-set, with Edge labels; its
    lines, the triples of pairwise disjoint edges, are the 15 factors: the
    perfect matchings of the 6-set.  Edge indices follow the edges'
    lexicographic order, so each factor comes out as an increasing triple
    of indices, and the factors in increasing order."""
    factors = tuple(
        tuple(EDGE_INDEX[frozenset(e)] for e in m) for m in _matchings(GROUND)
    )
    return Geometry(len(EDGES), factors, tuple(Edge(e) for e in EDGES))


class GqVerdict(NamedTuple):
    order: tuple[int, int] | None
    witness: str | None

    @property
    def ok(self) -> bool:
        return self.order is not None


def is_gq(g: Geometry, points: Iterable[int] | None = None) -> GqVerdict:
    """Decide whether the geometry induced on ``points`` (all of ``g`` by
    default) is a generalized quadrangle, and find its order.

    Checks, in order: partial linear space, constant line size s+1, constant
    number t+1 of lines per point, and the one-point axiom (every point off
    a line is collinear with exactly one of its points).  The witness names
    the first failure, by ``g``'s point and line indices.

    Everything is read off ``g``'s bitmasks, so the induced geometry is
    never built: ``geometry._lines_inside`` lists its lines, each point's
    neighbourhood is read off them, so is each inside line's one-point mask
    (:func:`_one_point_masks`), and :func:`_gq_axioms` decides.  Points are
    checked as by ``geometry._check_points``.
    """
    m = g.full_mask if points is None else mask_of(_check_points(g, points))
    members = bits_of(m)
    inside = _lines_inside(g, members, m)
    lines, line_masks = g.lines, g.line_masks
    nbr = [0] * g.point_count
    for i in inside:
        lm = line_masks[i]
        for p in lines[i]:
            nbr[p] |= lm ^ 1 << p
    return _gq_axioms(g, members, m, inside, nbr, _one_point_masks(g, nbr, inside))


def _one_point_masks(g: Geometry, nbr, indices) -> dict[int, int]:
    """Per line index in ``indices``, the line's points plus the points
    collinear with exactly one of them, where ``nbr[p]`` is the
    neighbourhood of point ``p``: the one-point mask of :func:`_gq_axioms`."""
    lines, line_masks = g.lines, g.line_masks
    out = {}
    for i in indices:
        once = twice = 0
        for q in lines[i]:
            near = nbr[q]
            twice |= once & near
            once |= near
        out[i] = line_masks[i] | once & ~twice
    return out


def _gq_axioms(g: Geometry, members: list[int], m: int, inside: list[int], nbr, one_point) -> GqVerdict:
    """The quadrangle axioms of :func:`is_gq` on the geometry induced on a
    point set, given as its points ``members`` in increasing order and
    their bitmask ``m``, on ``g``'s bitmasks: ``inside`` lists the indices
    of its lines in increasing order, ``nbr[p] & m`` is the neighbourhood
    of each point ``p`` of it, and ``one_point[i]`` is the one-point mask of
    each line ``i`` of it (:func:`_one_point_masks`), which may be read off
    any neighbourhoods that agree with ``nbr`` on ``m``.

    Counted with its ordered pairs, each line of ``k`` points gives
    ``k (k - 1)`` collinear pairs, so the set is a partial linear space
    exactly when these sum to its neighbourhood sizes; when they do not,
    the lines are walked for the first pair on two of them.  In a partial
    linear space with lines of ``s + 1`` points, a point with ``n``
    neighbours lies on ``n / s`` lines.  The one-point axiom is checked a
    line at a time: every point of the set must lie in the line's
    one-point mask.  A census of many sets builds the masks once for all
    of them, so a line in several sets is not worked out again in each.
    """
    lines, line_masks = g.lines, g.line_masks
    valence = [(nbr[p] & m).bit_count() for p in members]
    if sum(valence) != sum(len(lines[i]) * (len(lines[i]) - 1) for i in inside):
        first: dict[tuple[int, int], int] = {}
        for i in inside:
            for pair in combinations(lines[i], 2):
                if pair in first:
                    a, b = pair
                    return GqVerdict(None, f"points {a},{b} lie on lines {first[pair]} and {i}")
                first[pair] = i
    if not inside:
        return GqVerdict(None, "no lines")
    sizes = {len(lines[i]) for i in inside}
    if len(sizes) != 1:
        return GqVerdict(None, f"line sizes vary: {sorted(sizes)}")
    s = sizes.pop() - 1
    degrees = {n // s for n in valence}
    if len(degrees) != 1:
        return GqVerdict(None, f"lines per point vary: {sorted(degrees)}")
    for li in inside:
        bad = m & ~one_point[li]
        if bad:
            x = (bad & -bad).bit_length() - 1
            hits = (nbr[x] & line_masks[li]).bit_count()
            return GqVerdict(
                None, f"point {x} is collinear with {hits} points of line {li}"
            )
    return GqVerdict((s, degrees.pop() - 1), None)


@dataclass(frozen=True)
class Triad:
    """Three pairwise non-collinear points (or pairwise disjoint lines)."""

    elements: tuple[int, int, int]
    kind: str  # "complete" | "incomplete"
    perp_set: frozenset[int]
    mode: str = "points"  # "points" | "lines"


def _classify_triad(perps: Sequence[int], elems: tuple[int, int, int], mode: str) -> Triad:
    """The triad ``elems`` with its perp, the AND of the three ``perps``
    masks (``Geometry.perps``), of 1 or 3 points."""
    a, b, c = elems
    m = perps[a] & perps[b] & perps[c]
    size = m.bit_count()
    if size == 3:
        kind = "complete"
    elif size == 1:
        kind = "incomplete"
    else:
        raise GeometryError(f"triad {elems} has perp of size {size}; expected 1 or 3")
    return Triad(elems, kind, frozenset(bits_of(m)), mode)


def enumerate_triads(g: Geometry, mode: str = "points") -> list[Triad]:
    """All triads of points, or of lines (computed on the dual geometry),
    in increasing order: W(2)'s triad machinery, which the builders and
    the acceptance suite read.  Each triad is classified complete or
    incomplete by the size of its perp, 3 or 1 points; a perp of any
    other size raises :class:`GeometryError`, as W(2) has none.

    The walk meets only the triples of pairwise non-collinear points:
    each point's later points off its perp, and among those the later
    ones off the second point's."""
    if mode == "points":
        h = g
    elif mode == "lines":
        h = dual_geometry(g)
    else:
        raise GeometryError(f"unknown triad mode {mode!r}")
    perps = h.perps
    full = h.full_mask
    out = []
    for a in range(h.point_count):
        # the points after a (-(2 << a) sets every higher bit) off a's perp
        far = full & ~perps[a] & -(2 << a)
        for b in bits_of(far):
            for c in bits_of(far & ~perps[b] & -(2 << b)):
                out.append(_classify_triad(perps, (a, b, c), mode))
    return out


def incomplete_triad_subgq(g: Geometry, triad: Triad) -> frozenset[int]:
    """The unique 9-point set containing an incomplete triad that induces a
    (2,1)-GQ.  The search itself certifies uniqueness."""
    if triad.mode != "points":
        raise GeometryError("grid search applies to point triads")
    if triad.kind != "incomplete":
        raise GeometryError("complete triads are not contained in a grid")
    adj, line_masks = g.adjacency, g.line_masks
    triad_mask = mask_of(triad.elements)
    # a grid through the triad lies inside the points collinear with >= 2
    # of its elements, so the subset search can be pruned to those
    once = twice = 0
    for t in triad.elements:
        twice |= once & adj[t]
        once |= adj[t]
    twice &= ~triad_mask
    # a 9-point (2,1)-GQ has 9 * 2 / 3 = 6 lines, so only the sets with
    # exactly 6 lines inside them go to the full check; those lines lie
    # inside the union of the triad and its candidates, found once
    union = triad_mask | twice
    inside = [line_masks[i] for i in _lines_inside(g, bits_of(union), union)]
    found = []
    for rest in combinations([1 << p for p in bits_of(twice)], 6):
        m = triad_mask | sum(rest)
        if len([lm for lm in inside if lm & m == lm]) == 6:
            members = bits_of(m)
            if is_gq(g, members).order == (2, 1):
                found.append(frozenset(members))
    if len(found) != 1:
        raise GeometryError(
            f"triad {triad.elements}: found {len(found)} grids, expected exactly 1"
        )
    return found[0]


def complete_triad_through(g: Geometry, x: int, y: int) -> Triad:
    """The unique complete triad containing a non-collinear pair: the
    points z off both perps whose own perp meets the pair's common one in
    3 points, classified by :func:`_classify_triad`."""
    if collinear(g, x, y) or x == y:
        raise GeometryError(f"points {x} and {y} are not a non-collinear pair")
    perps = g.perps
    common = perps[x] & perps[y]
    off = g.full_mask & ~(perps[x] | perps[y])
    found = [z for z in bits_of(off) if (common & perps[z]).bit_count() == 3]
    if len(found) != 1:
        raise GeometryError(
            f"pair ({x},{y}): found {len(found)} complete triads, expected exactly 1"
        )
    return _classify_triad(perps, tuple(sorted((x, y, *found))), "points")
