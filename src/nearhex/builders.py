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
the facts it checks, and in one clause why the rest hold; what its
construction already guarantees is not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .geometry import Geometry, GeometryError, bits_of, validate_pls
from .gq22 import EDGES, EDGE_INDEX, Triad, _classify_triad, build_w2, enumerate_triads
from .labels import Edge, OrderedPair, Pair, Partition, PrimedEdge, perp_related


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GeometryError("construction failure: " + message)


def build_h3() -> Geometry:
    """Build the 105-point near hexagon with Pair labels.

    The points are the pairs (x, u') with u' in x'^perp, the mask
    ``cross[x]``.  Each of the 35 base triples T (15 lines, 20 complete
    triads) has T'^perp, the AND of three cross masks, and every bijection
    T -> T'^perp gives one line.  Checked: 35 triples, 3 points in each
    T'^perp, 210 distinct lines, 6 lines per point, partial linear space.
    """
    w2 = build_w2()
    cross = [a | 1 << x for x, a in enumerate(w2.adjacency)]
    points = [(x, u) for x in range(15) for u in bits_of(cross[x])]
    index = {p: i for i, p in enumerate(points)}
    triples = list(w2.lines)
    triples += [t.elements for t in enumerate_triads(w2, "points") if t.kind == "complete"]
    _require(len(triples) == 35, f"expected 35 base triples, got {len(triples)}")
    lines = set()
    for t in triples:
        a, b, c = t
        t_perp = bits_of(cross[a] & cross[b] & cross[c])
        _require(len(t_perp) == 3, f"base triple {t} has perp of size {len(t_perp)}")
        for sigma in permutations(t_perp):
            lines.add(tuple(sorted(index[p] for p in zip(t, sigma))))
    _require(len(lines) == 210, f"expected 210 distinct lines, got {len(lines)}")
    labels = tuple(
        Pair(Edge(EDGES[x]), PrimedEdge(EDGES[u])) for x, u in points
    )
    g = Geometry(len(points), tuple(lines), labels)
    degrees = {len(t) for t in g.lines_by_point}
    _require(degrees == {6}, f"lines per point {sorted(degrees)}, expected {{6}}")
    _require(validate_pls(g).ok, "two lines share two points")
    return g


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
        _require(perp_related(base, prime), f"point {i} label {label} is not perp-related")
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


def _matchings(items: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for i, second in enumerate(rest):
        pair = (first, second)
        for sub in _matchings(rest[:i] + rest[i + 1 :]):
            out.append((pair,) + sub)
    return out


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
    labels = tuple(
        Partition(frozenset(frozenset(b) for b in m)) for m in points
    )
    return Geometry(105, tuple(map(tuple, by_block_pair.values())), labels)


@dataclass(frozen=True)
class DebruynCensus:
    """The flag-model geometry plus per-type line bookkeeping.

    ``escort_triads`` records, for each of the 120 swap-type lines, the point
    triad {x',y',z'} used to build it, classified complete/incomplete.
    Descriptions of this construction sometimes call these triads
    incomplete; the census records what actually happens instead of
    asserting either reading.
    """

    geometry: Geometry
    type_counts: dict[str, int]
    escort_triads: tuple[Triad, ...]

    @property
    def escort_kind_counts(self) -> dict[str, int]:
        out = {"complete": 0, "incomplete": 0}
        for t in self.escort_triads:
            out[t.kind] += 1
        return out


def debruyn_census() -> DebruynCensus:
    """Build the flag model, keeping per-type line counts and the triads
    behind the swap-type lines.  Checked: 105 points, unique mates y', z'
    of each escort x', y' and z' non-collinear (x' is not collinear with
    either by choice), escort perps of 1 or 3 points, line counts by type,
    partial linear space.  Each type emits a fixed number of lines, so a
    line emitted twice shows as a short count; no line has two types, as
    they hold 3, 1, 0 and 0 points (x, x), and a type-iii line's second
    coordinates lie on a W(2) line while a type-iv line's do not.
    """
    w2 = build_w2()
    adj = w2.adjacency
    points = [(x, x) for x in range(15)]
    points += [
        (x, y)
        for x in range(15)
        for y in range(15)
        if x != y and adj[x] >> y & 1
    ]
    points.sort()
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

    escorts = []
    for triad in enumerate_triads(w2, "lines"):
        if triad.kind != "incomplete":
            continue
        (centre,) = triad.perp_set
        centre_pts = set(w2.lines[centre])
        kpts, mpts, npts = (set(w2.lines[li]) for li in triad.elements)
        # the centre meets each line of the triad, and two lines meet at most once
        (x,), (y,), (z,) = kpts & centre_pts, mpts & centre_pts, npts & centre_pts
        for xp in sorted(kpts - {x}):
            yps = [q for q in mpts - {y} if not adj[xp] >> q & 1]
            zps = [q for q in npts - {z} if not adj[xp] >> q & 1]
            _require(
                len(yps) == 1 and len(zps) == 1,
                f"non-collinear mate of {xp} not unique in triad {triad.elements}",
            )
            yp, zp = yps[0], zps[0]
            _require(not adj[yp] >> zp & 1, f"escort triple {xp},{yp},{zp} not a triad")
            escorts.append(_classify_triad(w2, tuple(sorted((xp, yp, zp))), "points"))
            emit("iv", [(x, xp), (y, yp), (z, zp)])

    counts = {k: len(v) for k, v in by_type.items()}
    _require(
        counts == {"i": 15, "ii": 45, "iii": 30, "iv": 120},
        f"line counts by type {counts}",
    )
    labels = tuple(
        OrderedPair(Edge(EDGES[x]), Edge(EDGES[y])) for x, y in points
    )
    g = Geometry(105, tuple(set().union(*by_type.values())), labels)
    _require(validate_pls(g).ok, "two lines share two points")
    return DebruynCensus(g, counts, tuple(escorts))


def build_h3_debruyn() -> Geometry:
    """The flag model on ordered pairs of edges, with OrderedPair labels."""
    return debruyn_census().geometry
