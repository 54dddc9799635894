"""Builders for the four labelled geometries.

* :func:`build_h3` -- the 105-point near hexagon assembled from two
  copies of the (2,2)-GQ, glued along a fixed isomorphism.
* :func:`build_dsp62` -- the 135-point dual polar space obtained by
  adjoining both base copies to the 105-point hexagon.
* :func:`build_h3_partitions` -- the partition model (perfect matchings of
  an 8-set).
* :func:`build_h3_debruyn` -- the flag model on ordered pairs of edges.

The two copies of the base quadrangle share the ground set, and the pairing
x <-> x' is the identity on edge labels, which keeps point indices
reproducible.  Only this pairing is built here.  The tests enumerate the
20,160 pairings that carry base triples onto base triples; the
construction along one pairing of each of their three classes is
isomorphic to :func:`build_h3`'s, and along a random bijection some base
triple has a perp of other than 3 points.  Each builder's docstring names
the facts it checks, and why the rest hold; what its construction already
guarantees is not checked again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations

from .geometry import Geometry, GeometryError, bits_of, validate_pls
from .gq22 import (
    EDGES,
    EDGE_INDEX,
    Triad,
    _classify_triad,
    _matchings,
    build_w2,
    enumerate_triads,
)
from .labels import Edge, OrderedPair, Pair, Partition, PrimedEdge, perp_related


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GeometryError("construction failure: " + message)


def build_h3() -> Geometry:
    """Build the 105-point near hexagon with Pair labels.

    The points are the pairs (x, u') with u' in x'^perp, the mask
    ``cross[x]``.  Each of the 35 base triples T (15 lines, 20 complete
    triads) has T'^perp, the AND of three cross masks, and every bijection
    T -> T'^perp gives one line.  Checked: 35 triples.  The rest follows
    from W(2)'s facts.  Each T'^perp has 3 points: a complete triad's perp
    has 3 by definition, and a line's perp is its own points, as every
    point off a line is collinear with just one of them.  The lines from T
    have first coordinates T, so the 35 triples give 210 distinct lines.
    The base triples are the lines of PG(3,2) on W(2)'s points, as the
    tests check, and each u^perp is one of its planes, so a point (x, u')
    lies on 2 lines for each of the 3 triples through x in u^perp, 6 in
    all; two points (x, u'), (y, v') of a line fix T, the triple through x
    and y, and the bijection on x and y, so the line: a partial linear
    space.  The tests and ``nearhex verify`` check these facts on the
    result.  The labels share W(2)'s Edge objects and one PrimedEdge per
    edge.
    """
    w2 = build_w2()
    cross = w2.perps
    points = [(x, u) for x in range(15) for u in bits_of(cross[x])]
    index = {p: i for i, p in enumerate(points)}
    triples = list(w2.lines)
    triples += [t.elements for t in enumerate_triads(w2, "points") if t.kind == "complete"]
    _require(len(triples) == 35, f"expected 35 base triples, got {len(triples)}")
    lines = []
    for t in triples:
        a, b, c = t
        for sigma in permutations(bits_of(cross[a] & cross[b] & cross[c])):
            # increasing, as t is and the points are ordered by x
            lines.append(tuple(index[p] for p in zip(t, sigma)))
    plain, primed = w2.labels, tuple(PrimedEdge(e) for e in EDGES)
    labels = tuple(Pair(plain[x], primed[u]) for x, u in points)
    return Geometry(len(points), tuple(lines), labels)


def build_dsp62(h3: Geometry) -> Geometry:
    """Adjoin both base copies to the 105-point hexagon.

    Points 0..104 are the hexagon's points, 105..119 the plain edges,
    120..134 the primed edges; the new lines are {x, (x,u'), u'}, one per
    hexagon point.  Checked: each label is a Pair (x, u') with x and u'
    perp-related, 315 lines, partial linear space, 7 lines per point.  Two
    points with one label would put two new lines through x and u', so the
    labels are the 105 perp-related pairs, and plain x is collinear with
    primed u' exactly when they are perp-related.
    """
    if h3.point_count != 105 or h3.labels is None:
        raise GeometryError("input must be the 105-point hexagon with Pair labels")
    lines = [tuple(line) for line in h3.lines]
    for i, label in enumerate(h3.labels):
        if not isinstance(label, Pair):
            raise GeometryError(f"point {i} lacks a Pair label")
        base, prime = label.base.ends, label.prime.ends
        if not perp_related(base, prime):  # the message is built on failure only
            _require(False, f"point {i} label {label} is not perp-related")
        lines.append((i, 105 + EDGE_INDEX[base], 120 + EDGE_INDEX[prime]))
    labels = (
        h3.labels
        + tuple(Edge(e) for e in EDGES)
        + tuple(PrimedEdge(e) for e in EDGES)
    )
    g = Geometry(135, tuple(lines), labels)
    _require(len(g.lines) == 315, f"expected 315 lines, got {len(g.lines)}")
    _require(validate_pls(g).ok, "two lines share two points")
    degrees = {len(t) for t in g.lines_by_point}
    _require(degrees == {7}, f"lines per point {sorted(degrees)}, expected {{7}}")
    return g


def build_h3_partitions() -> Geometry:
    """The partition model: points are the 105 perfect matchings of an
    8-set, lines are the triples of matchings sharing two blocks.  Checked:
    105 distinct matchings.  These are all of them, so each pair of disjoint
    blocks lies in exactly 3, and two matchings on two common lines share
    three blocks, so are equal: a partial linear space of 210 lines."""
    points = sorted(_matchings(tuple(range(1, 9))))
    index = {m: i for i, m in enumerate(points)}
    _require(len(index) == 105, f"expected 105 matchings, got {len(index)}")
    by_block_pair: dict[tuple[tuple[int, int], tuple[int, int]], list[int]] = {}
    for m in points:
        for blocks in combinations(m, 2):
            by_block_pair.setdefault(blocks, []).append(index[m])
    # the 28 blocks, each frozen once and shared by the 15 labels holding it
    blocks = {b: frozenset(b) for b in combinations(range(1, 9), 2)}
    labels = tuple(Partition(frozenset(map(blocks.__getitem__, m))) for m in points)
    return Geometry(105, tuple(map(tuple, by_block_pair.values())), labels)


@dataclass(frozen=True)
class DebruynCensus:
    """The flag-model geometry plus per-type line bookkeeping.

    ``escort_triads`` records, for each of the 120 swap-type lines, the point
    triad {x',y',z'} used to build it, classified complete/incomplete.
    Descriptions of this construction sometimes call these triads
    incomplete; :func:`debruyn_census` argues that each is complete, and
    the census records the kinds it finds instead of asserting either.
    """

    geometry: Geometry
    type_counts: dict[str, int]
    escort_triads: tuple[Triad, ...]

    @property
    def escort_kind_counts(self) -> dict[str, int]:
        return {"complete": 0, "incomplete": 0} | Counter(t.kind for t in self.escort_triads)


def debruyn_census() -> DebruynCensus:
    """Build the flag model, keeping per-type line counts and the triads
    behind the swap-type lines.  A swap-type (type-iv) line comes from an
    incomplete triad of lines k, m, n, whose one centre c meets them in
    x, y and z, and a point x' of k other than x; its mates y' and z' are
    the points of m and n, other than y and z, not collinear with x'.
    Checked: 105 points, and escort perps of 1 or 3 points
    (``gq22._classify_triad``).  The rest follows from W(2) being a
    (2,2)-quadrangle, with no triangle, every point off a line collinear
    with one of its points, and triads of 1 or 3 centres:

    - x' is collinear with one point of m other than y (x' ~ y would close
      a triangle with x), and likewise on n, so its mates are unique;
    - y' and z' are not collinear: else x', collinear with neither, is
      collinear with the third point w of their line, and w is off k, as
      only c meets k, m and n; the two lines through x' other than k go
      to the other points of m and n (one line through both would meet
      k, m and n), so w is collinear with two points of m or n;
    - a line's type, and its W(2) line, point and orientation or its
      triad and x', are read off its points, so no line is emitted twice
      or has two types: 15, 45, 30 and 2 x 60 lines, one type-iv line for
      each incomplete line triad and each choice of x';
    - two points fix the type of a line through both (points (x, x) lie on
      types i and ii only, equal first coordinates on type ii only,
      collinear second coordinates on type iii and a triad on type iv),
      and then the line.  Two points of a type-iv line fix k, m and c, so
      z; of the two lines through z besides c, exactly one misses both
      other lines meeting k and m -- z is collinear with one point of
      each, not along c, which misses them, and a line through z meets
      both or neither -- and it is n.  So the result is a partial linear
      space;
    - each escort triad is complete, with perp {x'', y'', z''}, the third
      points of k = {x, x', x''}, m and n: y' ~ x'', as y' is collinear
      with one point of k, not x (a triangle with y) nor x'; so too
      z' ~ x''.  The construction is symmetric in k, m and n (x' and z'
      are the points of k and n, not x or z, off y'^perp), so y'' and z''
      join x'' in the perp, which has 1 or 3 points, so is these three.

    The tests and ``nearhex verify`` check these facts on the result.
    The labels share W(2)'s Edge objects.
    """
    w2 = build_w2()
    adj, perps = w2.adjacency, w2.perps
    points = [(x, y) for x in range(15) for y in bits_of(perps[x])]
    index = {p: i for i, p in enumerate(points)}
    _require(len(points) == 105, f"expected 105 points, got {len(points)}")

    by_type: dict[str, set[tuple[int, ...]]] = {k: set() for k in "i ii iii iv".split()}

    def emit(kind: str, pairs) -> None:
        by_type[kind].add(tuple(sorted(index[p] for p in pairs)))

    for line in w2.lines:
        a, b, c = line
        emit("i", [(a, a), (b, b), (c, c)])
        for x in line:
            y, z = (p for p in line if p != x)
            emit("ii", [(x, x), (x, y), (x, z)])
        emit("iii", [(a, b), (b, c), (c, a)])
        emit("iii", [(a, c), (c, b), (b, a)])

    line_masks = w2.line_masks
    escorts = []
    for triad in enumerate_triads(w2, "lines"):
        if triad.kind != "incomplete":
            continue
        (centre,) = triad.perp_set
        k, m, n = (line_masks[li] for li in triad.elements)
        # the centre meets each line of the triad, and two lines meet at most once
        (x,), (y,), (z,) = (bits_of(line & line_masks[centre]) for line in (k, m, n))
        for xp in bits_of(k & ~(1 << x)):
            (yp,) = bits_of(m & ~(adj[xp] | 1 << y))
            (zp,) = bits_of(n & ~(adj[xp] | 1 << z))
            escorts.append(_classify_triad(perps, tuple(sorted((xp, yp, zp))), "points"))
            emit("iv", [(x, xp), (y, yp), (z, zp)])

    counts = {k: len(v) for k, v in by_type.items()}
    edges = w2.labels
    labels = tuple(OrderedPair(edges[x], edges[y]) for x, y in points)
    g = Geometry(105, tuple(set().union(*by_type.values())), labels)
    return DebruynCensus(g, counts, tuple(escorts))


def build_h3_debruyn() -> Geometry:
    """The flag model on ordered pairs of edges, with OrderedPair labels."""
    return debruyn_census().geometry
