"""The edge/factor quadrangle and its triad structure, scanned exhaustively."""

from collections import Counter
from dataclasses import astuple
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearhex.gq22
from nearhex import (
    Geometry,
    GeometryError,
    complete_triad_through,
    dual_geometry,
    enumerate_quads,
    enumerate_triads,
    incomplete_triad_subgq,
    induced_geometry,
    is_gq,
    perp,
)
from nearhex.geometry import collinear
from nearhex.gq22 import EDGE_INDEX, EDGES, Triad
from nearhex.labels import Edge

from strategies import gq24, lifted_witness, small_geometries


def eidx(name):
    return EDGE_INDEX[frozenset(int(c) for c in name)]


def test_build_w2_counts_and_labels(w2):
    assert w2.point_count == 15
    assert len(w2.lines) == 15
    assert all(isinstance(l, Edge) for l in w2.labels)
    assert [str(l) for l in w2.labels[:3]] == ["12", "13", "14"]


def test_every_point_on_three_factors(w2):
    assert {len(t) for t in w2.lines_by_point} == {3}


def test_collinear_means_disjoint(w2):
    for i, j in combinations(range(15), 2):
        assert collinear(w2, i, j) == EDGES[i].isdisjoint(EDGES[j])


def test_point_off_line_has_unique_neighbour_on_it(w2):
    # 12 versus the factor {13,25,46}: only 46 is disjoint from 12
    line = tuple(sorted((eidx("13"), eidx("25"), eidx("46"))))
    assert line in w2.line_set
    hits = [p for p in line if collinear(w2, eidx("12"), p)]
    assert hits == [eidx("46")]


def test_is_gq_w2_and_grid(w2, grid33):
    assert is_gq(w2).order == (2, 2)
    assert is_gq(grid33).order == (2, 1)


def gq_verdict_by_axioms(g):
    """The order ``(s, t)`` of ``g`` read straight off the quadrangle axioms,
    or None, with a witness for the first axiom that fails: any two points
    on at most one line, every line on s+1 points, every point on t+1
    lines, and every point off a line collinear with exactly one of its
    points."""
    lines = [set(line) for line in g.lines]
    points = range(g.point_count)

    def lines_through(*pts):
        return [i for i, line in enumerate(lines) if set(pts) <= line]

    for i, line in enumerate(g.lines):
        for a, b in combinations(line, 2):
            first = lines_through(a, b)[0]
            if first < i:
                return None, f"points {a},{b} lie on lines {first} and {i}"
    if not lines:
        return None, "no lines"
    sizes = {len(line) for line in lines}
    if len(sizes) != 1:
        return None, f"line sizes vary: {sorted(sizes)}"
    degrees = {len(lines_through(p)) for p in points}
    if len(degrees) != 1:
        return None, f"lines per point vary: {sorted(degrees)}"
    for i, line in enumerate(lines):
        for x in points:
            hits = sum(1 for y in line if lines_through(x, y)) if x not in line else 1
            if hits != 1:
                return None, f"point {x} is collinear with {hits} points of line {i}"
    return (sizes.pop() - 1, degrees.pop() - 1), None


def gq_order_by_axioms(g):
    return gq_verdict_by_axioms(g)[0]


@given(small_geometries())
@settings(max_examples=300, deadline=None)
def test_is_gq_matches_the_axioms(g):
    verdict, (want, witness) = is_gq(g), gq_verdict_by_axioms(g)
    assert verdict.ok == (want is not None)
    assert verdict.order == want
    assert verdict.witness == witness


def test_is_gq_matches_the_axioms_on_known_cases(w2, grid33, h3):
    square = Geometry(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    # rows of 3 and columns of 2: every other axiom holds
    grid23 = Geometry(6, ((0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)))
    quads = {q.kind: induced_geometry(h3, q.points) for q in enumerate_quads(h3)}
    cases = [
        (w2, (2, 2)),
        (grid33, (2, 1)),
        (dual_geometry(grid33), (1, 2)),
        (square, (1, 1)),
        (grid23, None),
        (quads["grid21"], (2, 1)),
        (quads["gq22"], (2, 2)),
    ]
    for g, order in cases:
        assert gq_order_by_axioms(g) == order
        assert is_gq(g).order == order


def check_point_set(g, pts):
    """``is_gq`` on a point set against the induced geometry, built and
    checked against the axioms one by one."""
    sub = induced_geometry(g, pts)
    order, witness = gq_verdict_by_axioms(sub)
    verdict = is_gq(g, pts)
    assert verdict.order == order
    assert verdict.witness == lifted_witness(g, pts, witness)


@st.composite
def geometries_with_point_sets(draw):
    g = draw(small_geometries())
    return g, draw(st.sets(st.integers(0, g.point_count - 1)))


@given(geometries_with_point_sets())
@settings(max_examples=100, deadline=None)
def test_is_gq_on_a_point_set_matches_the_induced_geometry(case):
    g, pts = case
    check_point_set(g, pts)
    assert is_gq(g, range(g.point_count)) == is_gq(g)


@pytest.fixture(scope="module")
def named(w2, h3):
    """Geometries with their quads (all of the space for W(2) and the two
    projective spaces): W(2), H3, the Fano plane and the complete graph K5,
    whose points off a line are collinear with 3 and 2 of its points."""
    fano = Geometry(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)))
    k5 = Geometry(5, tuple(combinations(range(5), 2)))
    return {
        "w2": (w2, [range(15)]),
        "h3": (h3, [sorted(q.points) for q in enumerate_quads(h3)]),
        "fano": (fano, [range(7)]),
        "k5": (k5, [range(5)]),
    }


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_is_gq_on_point_sets_of_named_geometries(named, data):
    """Random small sets, and quads with a few points toggled, so that GQs
    of both orders and near misses all occur."""
    g, quads = named[data.draw(st.sampled_from(sorted(named)))]
    if data.draw(st.booleans()):
        pts = data.draw(st.sets(st.integers(0, g.point_count - 1), max_size=18))
    else:
        pts = set(data.draw(st.sampled_from(quads)))
        pts ^= data.draw(st.sets(st.integers(0, g.point_count - 1), max_size=3))
    check_point_set(g, pts)


def test_is_gq_on_a_point_set_names_g_indices(grid33):
    # the grid on points 2..10 of an 11-point geometry whose first line,
    # {0,1,2}, leaves the set: verdicts read g's indices, and point 0 added
    # to the grid lies on no line inside, so its degree is 0
    g = Geometry(11, ((0, 1, 2),) + tuple(tuple(p + 2 for p in line) for line in grid33.lines))
    grid = range(2, 11)
    assert is_gq(g, grid) == ((2, 1), None)
    assert is_gq(g, [*grid, 0]) == (None, "lines per point vary: [0, 2]")
    assert is_gq(g) == (None, "lines per point vary: [1, 2, 3]")
    # a triangle on points 2, 3, 4 behind the line {0,1}
    triangle = Geometry(5, ((0, 1), (2, 3), (2, 4), (3, 4)))
    assert is_gq(triangle, {2, 3, 4}) == (None, "point 4 is collinear with 2 points of line 1")
    # two lines sharing points 2 and 3, behind the line {0,1}
    double = Geometry(6, ((0, 1), (2, 3, 4), (2, 3, 5), (4, 5)))
    assert is_gq(double, {2, 3, 4, 5}) == (None, "points 2,3 lie on lines 1 and 2")
    assert is_gq(g, []) == (None, "no lines")
    with pytest.raises(GeometryError, match="point index 11 out of range"):
        is_gq(g, [0, 11])


def test_is_gq_rejects_h3(h3):
    verdict = is_gq(h3)
    assert verdict.order is None
    assert "collinear with 0 points" in verdict.witness


def test_enumerate_point_triads(w2):
    triads = enumerate_triads(w2, "points")
    assert len(triads) == 80
    assert Counter(t.kind for t in triads) == {"complete": 20, "incomplete": 60}
    assert all(len(t.perp_set) in (1, 3) for t in triads)


def test_enumerate_line_triads_via_dual(w2):
    triads = enumerate_triads(w2, "lines")
    assert len(triads) == 80
    assert Counter(t.kind for t in triads) == {"complete": 20, "incomplete": 60}


def test_specific_triads(w2):
    triads = {t.elements: t for t in enumerate_triads(w2, "points")}
    complete = triads[(eidx("12"), eidx("13"), eidx("23"))]
    assert complete.kind == "complete"
    assert complete.perp_set == {eidx("45"), eidx("46"), eidx("56")}
    incomplete = triads[(eidx("12"), eidx("13"), eidx("14"))]
    assert incomplete.kind == "incomplete"
    assert incomplete.perp_set == {eidx("56")}


def test_complete_triad_perp_is_involutive(w2):
    for t in enumerate_triads(w2, "points"):
        if t.kind == "complete":
            back = perp(w2, t.perp_set)
            assert back == set(t.elements)


def test_incomplete_triad_subgq(w2):
    triads = {t.elements: t for t in enumerate_triads(w2, "points")}
    t = triads[(eidx("12"), eidx("13"), eidx("14"))]
    grid = incomplete_triad_subgq(w2, t)
    # the cross edges between {1,5,6} and {2,3,4}; the triad centre 56 is
    # a pure {1,5,6}-edge, hence outside
    want = {eidx(n) for n in ("12", "13", "14", "25", "26", "35", "36", "45", "46")}
    assert grid == want
    assert eidx("56") not in grid
    assert is_gq(induced_geometry(w2, grid)).order == (2, 1)


def test_every_incomplete_triad_has_unique_grid(w2):
    grids = set()
    for t in enumerate_triads(w2, "points"):
        if t.kind == "incomplete":
            grids.add(incomplete_triad_subgq(w2, t))  # raises unless unique
    assert len(grids) == 10


def grids_unfiltered(g, triad):
    """Every 9-set of the grid search that induces a (2,1)-GQ, each checked
    in full: the search without the six-line prefilter."""
    adj = g.adjacency
    candidates = [
        p
        for p in range(g.point_count)
        if p not in triad.elements and sum(adj[p] >> t & 1 for t in triad.elements) >= 2
    ]
    return [
        frozenset(triad.elements) | frozenset(rest)
        for rest in combinations(candidates, 6)
        if is_gq(induced_geometry(g, frozenset(triad.elements) | frozenset(rest))).order
        == (2, 1)
    ]


def test_grid_search_matches_the_unfiltered_search(w2):
    incomplete = [t for t in enumerate_triads(w2, "points") if t.kind == "incomplete"]
    assert len(incomplete) == 60
    for t in incomplete:
        assert [incomplete_triad_subgq(w2, t)] == grids_unfiltered(w2, t)


def test_grid_search_checks_only_the_grid_in_full(w2, monkeypatch):
    """Of the 6-subsets of each triad's 7 candidates, only the grid has 6
    lines inside, so only the grid reaches ``is_gq``."""
    checked = []
    original = nearhex.gq22.is_gq

    def recording(g, points=None):
        checked.append(frozenset(points))
        return original(g, points)

    monkeypatch.setattr(nearhex.gq22, "is_gq", recording)
    for t in enumerate_triads(w2, "points"):
        if t.kind == "incomplete":
            checked.clear()
            grid = incomplete_triad_subgq(w2, t)
            assert checked == [grid]


def test_grid_search_raises_when_no_grid_contains_the_triad():
    # a 3x3 grid with its last column traded for the diagonal {2,4,6}, and
    # a line {5,8,9} that keeps 5 a candidate: the 9-set {0..8} has six
    # lines inside but point 5 lies on one of them only, so it is no grid
    g = Geometry(
        10,
        ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 4, 6), (5, 8, 9)),
    )
    triad = Triad((0, 4, 8), "incomplete", perp(g, (0, 4, 8)))
    assert triad.perp_set == {6}
    assert grids_unfiltered(g, triad) == []
    with pytest.raises(GeometryError, match="found 0 grids"):
        incomplete_triad_subgq(g, triad)


def test_subgq_rejects_complete_triads(w2):
    t = next(t for t in enumerate_triads(w2, "points") if t.kind == "complete")
    with pytest.raises(GeometryError):
        incomplete_triad_subgq(w2, t)


def test_subgq_rejects_line_triads(w2):
    t = next(t for t in enumerate_triads(w2, "lines") if t.kind == "incomplete")
    with pytest.raises(GeometryError, match=r"^grid search applies to point triads$"):
        incomplete_triad_subgq(w2, t)


@pytest.mark.parametrize("dual", [False, True], ids=["w2", "dual"])
def test_complete_triad_through_is_the_enumerated_triad(w2, dual):
    """Each non-collinear pair gives, field for field, the complete triad
    of ``enumerate_triads`` that holds it."""
    g = dual_geometry(w2) if dual else w2
    complete = [t for t in enumerate_triads(g) if t.kind == "complete"]
    pairs = [(x, y) for x, y in combinations(range(15), 2) if not collinear(g, x, y)]
    assert len(pairs) == 60
    for x, y in pairs:
        (want,) = [t for t in complete if {x, y} <= set(t.elements)]
        got = complete_triad_through(g, x, y)
        assert astuple(got) == astuple(want)


def test_complete_triad_through(w2):
    t = complete_triad_through(w2, eidx("12"), eidx("13"))
    assert set(t.elements) == {eidx("12"), eidx("13"), eidx("23")}
    t = complete_triad_through(w2, eidx("12"), eidx("15"))
    assert set(t.elements) == {eidx("12"), eidx("15"), eidx("25")}
    with pytest.raises(GeometryError):
        complete_triad_through(w2, eidx("12"), eidx("34"))


def test_every_noncollinear_pair_in_unique_complete_triad(w2):
    pairs = [
        (x, y) for x, y in combinations(range(15), 2) if not collinear(w2, x, y)
    ]
    assert len(pairs) == 60
    for x, y in pairs:
        complete_triad_through(w2, x, y)  # raises unless unique


def test_noncollinear_pairs_have_three_centres(w2):
    for x, y in combinations(range(15), 2):
        if not collinear(w2, x, y):
            assert len(perp(w2, (x, y))) == 3


# ---- the triad layer against its first, set-based form ------------------


def reference_triads(g, mode="points"):
    """``enumerate_triads`` as first written: every 3-set in order, those
    with a collinear pair skipped, each classified by the size of its
    ``perp``."""
    if mode == "points":
        h = g
    elif mode == "lines":
        h = dual_geometry(g)
    else:
        raise GeometryError(f"unknown triad mode {mode!r}")
    adj = h.adjacency
    out = []
    for a, b, c in combinations(range(h.point_count), 3):
        if adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1:
            continue
        p = perp(h, (a, b, c))
        if len(p) == 3:
            kind = "complete"
        elif len(p) == 1:
            kind = "incomplete"
        else:
            raise GeometryError(f"triad {(a, b, c)} has perp of size {len(p)}; expected 1 or 3")
        out.append(Triad((a, b, c), kind, p, mode))
    return out


def reference_complete_triad_through(g, x, y):
    """``complete_triad_through`` as first written: every third point off
    both, kept when the three have a 3-point ``perp``."""
    if collinear(g, x, y) or x == y:
        raise GeometryError(f"points {x} and {y} are not a non-collinear pair")
    adj = g.adjacency
    found = []
    for z in range(g.point_count):
        if z in (x, y) or adj[z] >> x & 1 or adj[z] >> y & 1:
            continue
        p = perp(g, (x, y, z))
        if len(p) == 3:
            found.append(Triad(tuple(sorted((x, y, z))), "complete", p))
    if len(found) != 1:
        raise GeometryError(
            f"pair ({x},{y}): found {len(found)} complete triads, expected exactly 1"
        )
    return found[0]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the text of the GeometryError it raises."""
    try:
        return fn(*args)
    except GeometryError as e:
        return f"GeometryError: {e}"


def assert_triad_layer_matches(g):
    """Both triad modes, and the complete triad through every ordered pair,
    equal the reference: the same triads in the same order, or the same
    error."""
    for mode in ("points", "lines", "planes"):
        assert outcome(enumerate_triads, g, mode) == outcome(reference_triads, g, mode)
    for x in range(g.point_count):
        for y in range(g.point_count):
            assert outcome(complete_triad_through, g, x, y) == outcome(
                reference_complete_triad_through, g, x, y
            )


@pytest.fixture(scope="module")
def triad_cases(w2, grid33):
    """W(2) and its dual; the 3x3 grid, whose triads have empty perps;
    GQ(2,4), where each non-collinear pair lies in 10 complete triads;
    K(4,4), the dual of the 4x4 grid, whose triads have 4 centres; and
    points 0 and 1 with 4 common neighbours, 3 of them collinear with 6."""
    k44 = Geometry(8, tuple((r, c) for r in range(4) for c in range(4, 8)))
    wide = Geometry(7, tuple((p, q) for p in (0, 1, 6) for q in (2, 3, 4, 5) if (p, q) != (6, 5)))
    return {
        "w2": w2,
        "dual w2": dual_geometry(w2),
        "grid33": grid33,
        "gq24": gq24(),
        "k44": k44,
        "wide": wide,
    }


@pytest.mark.parametrize("name", ["w2", "dual w2", "grid33", "gq24", "k44", "wide"])
def test_triad_layer_matches_the_reference(triad_cases, name):
    assert_triad_layer_matches(triad_cases[name])


@given(small_geometries())
@settings(max_examples=200, deadline=None)
def test_triad_layer_matches_the_reference_on_small_geometries(g):
    assert_triad_layer_matches(g)


def test_perp_size_check_fires(grid33):
    # three points of a 3x3 grid, one per row and column, have no common
    # neighbour: each point is collinear with at most two of them
    with pytest.raises(
        GeometryError, match=r"^triad \(0, 4, 8\) has perp of size 0; expected 1 or 3$"
    ):
        enumerate_triads(grid33)


def test_complete_triad_check_fires(grid33):
    # in the grid no third point completes (0, 4); in GQ(2,4), where every
    # triad has 3 centres, each of the 27 - 2 - (10 + 10 - 5) points off
    # both completes the pair
    with pytest.raises(
        GeometryError, match=r"^pair \(0,4\): found 0 complete triads, expected exactly 1$"
    ):
        complete_triad_through(grid33, 0, 4)
    g = gq24()
    x, y = next((x, y) for x, y in combinations(range(27), 2) if not collinear(g, x, y))
    message = f"^pair \\({x},{y}\\): found 10 complete triads, expected exactly 1$"
    with pytest.raises(GeometryError, match=message):
        complete_triad_through(g, x, y)

