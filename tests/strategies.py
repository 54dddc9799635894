"""Hypothesis strategies and helpers shared by the differential tests."""

import re
from itertools import combinations, permutations

from hypothesis import strategies as st

from nearhex import Geometry, induced_geometry


@st.composite
def small_geometries(draw):
    """Geometries of at most 8 points with lines of 2 to 4 points, so
    disconnected spaces and spaces where two points share several lines
    (not partial linear spaces) are included."""
    n = draw(st.integers(1, 8))
    if n < 2:
        return Geometry(n, ())
    line = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
    return Geometry(n, tuple(draw(st.lists(line, max_size=10))))


def distance_two_pairs(g):
    """``(x, y, common)`` for each pair ``x < y`` at distance 2, with its
    number of common neighbours, in increasing order, by brute force over
    ``distance_rows`` and the popcount of each pair's common adjacency."""
    rows, adj = g.distance_rows, g.adjacency
    return [
        (x, y, (adj[x] & adj[y]).bit_count())
        for x, y in combinations(range(g.point_count), 2)
        if rows[x][y] == 2
    ]


def cyclic_sts13():
    """The cyclic Steiner triple system on 13 points, developed from the
    base blocks {0,1,4} and {0,2,7} mod 13."""
    blocks = set()
    for base in ((0, 1, 4), (0, 2, 7)):
        for shift in range(13):
            blocks.add(tuple(sorted((x + shift) % 13 for x in base)))
    return Geometry(13, tuple(sorted(blocks)))


def pg32_sts15():
    """The points and lines of PG(3,2) as a Steiner triple system: the
    nonzero vectors of GF(2)^4, vector v as point v - 1, with the lines
    {a, b, a ^ b}."""
    lines = {tuple(sorted((a - 1, b - 1, (a ^ b) - 1))) for a in range(1, 16) for b in range(1, a)}
    return Geometry(15, tuple(lines))


def pasch_switches(lines):
    """Every Pasch configuration of a Steiner triple system, as the pair
    (its four triples, the four that replace them).  The triples
    {x,y,z}, {x,u,v}, {w,y,u}, {w,z,v} cover the same pairs as
    {x,y,u}, {x,z,v}, {w,y,z}, {w,u,v}, so trading one set for the other
    gives another Steiner triple system on the same points."""
    line_of = {}
    for line in lines:
        for a in line:
            for b in line:
                line_of[a, b] = line
    out = set()
    for l1 in lines:
        for l2 in lines:
            common = set(l1) & set(l2)
            if l1 >= l2 or len(common) != 1:
                continue
            (x,) = common
            y, z = sorted(set(l1) - common)
            for u, v in permutations(sorted(set(l2) - common)):
                (w,) = set(line_of[y, u]) - {y, u}
                if w in line_of[z, v]:
                    old = frozenset((l1, l2, line_of[y, u], line_of[z, v]))
                    new = frozenset(
                        tuple(sorted(t)) for t in ((x, y, u), (x, z, v), (w, y, z), (w, u, v))
                    )
                    out.add((old, new))
    return sorted(out, key=lambda switch: sorted(switch[0]))


@st.composite
def pasch_switched(draw, base):
    """``base`` after one to three random Pasch switches, relabeled."""
    lines = set(base.lines)
    for _ in range(draw(st.integers(1, 3))):
        old, new = draw(st.sampled_from(pasch_switches(lines)))
        lines = (lines - old) | new
    perm = draw(st.permutations(range(base.point_count)))
    return Geometry(base.point_count, tuple(tuple(perm[p] for p in line) for line in lines))


def lifted_witness(g, pts, witness):
    """A witness for ``induced_geometry(g, pts)`` with its point and line
    indices taken back to ``g``'s."""
    order = sorted(set(pts))
    sub = induced_geometry(g, pts)
    line_index = {line: i for i, line in enumerate(g.lines)}

    def point(q):
        return str(order[int(q)])

    def line(j):
        return str(line_index[tuple(order[q] for q in sub.lines[int(j)])])

    if found := re.fullmatch(r"points (\d+),(\d+) lie on lines (\d+) and (\d+)", witness or ""):
        a, b, i, j = found.groups()
        return f"points {point(a)},{point(b)} lie on lines {line(i)} and {line(j)}"
    if found := re.fullmatch(r"point (\d+) is collinear with (\d+) points of line (\d+)", witness or ""):
        x, hits, li = found.groups()
        return f"point {point(x)} is collinear with {hits} points of line {line(li)}"
    return witness


def gq24():
    """The (2,4)-quadrangle: the 27 singular points of the elliptic
    quadratic form x0 x1 + x2 x3 + x4^2 + x4 x5 + x5^2 on GF(2)^6, and its
    45 lines {a, b, a ^ b}.  Each of its 720 triads has 3 centres."""

    def singular(v):
        x = [v >> i & 1 for i in range(6)]
        return not (x[0] & x[1] ^ x[2] & x[3] ^ x[4] ^ x[4] & x[5] ^ x[5])

    points = [v for v in range(1, 64) if singular(v)]
    index = {v: i for i, v in enumerate(points)}
    lines = {
        tuple(sorted((index[a], index[b], index[a ^ b])))
        for a in points
        for b in points
        if a < b and a ^ b in index
    }
    return Geometry(len(points), tuple(lines))
