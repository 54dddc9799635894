"""Core incidence primitives, checked on W(2) and small handmade geometries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearhex import (
    Geometry,
    GeometryError,
    convex_closure,
    dual_geometry,
    enumerate_quads,
    induced_geometry,
    is_geometric_hyperplane,
    is_gq,
    is_subspace,
    metrics,
    perp,
    validate_pls,
)
from nearhex.geometry import _lines_inside, bits_of, collinear, mask_of
from nearhex.gq22 import EDGE_INDEX, complete_triad_through

from strategies import small_geometries

E = {
    name: EDGE_INDEX[frozenset(int(c) for c in name)]
    for name in ("12 13 14 15 16 23 24 25 26 34 35 36 45 46 56").split()
}


def test_geometry_canonicalizes_lines():
    g = Geometry(4, ((2, 0, 1), (1, 0, 2), (3, 1, 2)))
    assert g.lines == ((0, 1, 2), (1, 2, 3))


def test_geometry_rejects_short_and_out_of_range_lines():
    with pytest.raises(GeometryError):
        Geometry(3, ((0,),))
    with pytest.raises(GeometryError):
        Geometry(3, ((0, 7),))
    with pytest.raises(GeometryError):
        Geometry(2, ((0, 1),), labels=("a",))


def test_geometry_rejects_a_negative_point_count():
    with pytest.raises(GeometryError, match=r"^negative point count$"):
        Geometry(-1, ())


@pytest.mark.parametrize(
    "count, lines",
    [
        (3, ((True, 2),)), (3, ((0.0, 1.0),)), (3, ((0, 1), (1, "2"))), (3.0, ()), (True, ()),
        (3, (("x" * 5000, 1),)), ("x" * 5000, ()),
    ],
)
def test_geometry_rejects_indices_that_are_not_integers(count, lines):
    """The message shows at most 80 characters of a long value."""
    with pytest.raises(GeometryError, match="is not an integer") as info:
        Geometry(count, lines)
    assert len(str(info.value)) < 120


@pytest.mark.parametrize(
    "points", [[True], [True, 2], [1.0], [2, 1.0], [1, 99], [-1, 3], ["x" * 5000], [10**200]]
)
def test_point_arguments_reject_indices_that_are_not_integers(w2, points):
    """Functions of a point set take ``points``; those of a point pair take
    its first and last entry.  The message shows at most 80 characters of a
    long value."""
    error = "out of range" if all(type(p) is int for p in points) else "is not an integer"
    for call in (perp, is_subspace, is_geometric_hyperplane, convex_closure, is_gq, induced_geometry):
        with pytest.raises(GeometryError, match=error) as info:
            call(w2, points)
        assert len(str(info.value)) < 120
    for call in (collinear, complete_triad_through):
        with pytest.raises(GeometryError, match=error) as info:
            call(w2, points[0], points[-1])
        assert len(str(info.value)) < 120


def test_validate_pls_accepts_w2(w2):
    assert validate_pls(w2).ok


def test_validate_pls_flags_double_line():
    g = Geometry(4, ((0, 1, 2), (0, 1, 3)))
    verdict = validate_pls(g)
    assert not verdict.ok
    (pair, li, lj), = verdict.violations
    assert pair == (0, 1)
    assert (li, lj) == (0, 1)


def test_validate_pls_accepts_h3(h3):
    assert validate_pls(h3).ok


def test_perp_of_single_point(w2):
    got = perp(w2, {E["12"]})
    want = {E[name] for name in ("12", "34", "35", "36", "45", "46", "56")}
    assert got == want
    assert E["12"] in got


def test_perp_of_a_line_is_the_line(w2):
    for line in w2.lines:
        assert perp(w2, line) == set(line)


def test_perp_of_complete_triad(w2):
    got = perp(w2, {E["12"], E["13"], E["23"]})
    assert got == {E["45"], E["46"], E["56"]}


def closed_neighbourhoods(g):
    """Per point, the mask of the point and every point on a line through
    it, by a scan of the lines."""
    return tuple(mask_of({p}.union(*(l for l in g.lines if p in l))) for p in range(g.point_count))


@given(small_geometries())
@settings(max_examples=200, deadline=None)
def test_perps_are_the_closed_neighbourhoods_on_small_geometries(g):
    assert g.perps == closed_neighbourhoods(g)


def test_perps_are_the_closed_neighbourhoods_on_the_models(w2, h3, dsp, h3_partitions, h3_debruyn):
    for g in (w2, h3, dsp, h3_partitions, h3_debruyn):
        assert g.perps == closed_neighbourhoods(g)


def test_perp_usage_errors(w2):
    with pytest.raises(GeometryError):
        perp(w2, ())
    with pytest.raises(GeometryError):
        perp(w2, {99})


@given(st.sets(st.integers(0, 14), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_perp_monotone_on_w2(subset):
    from nearhex import build_w2

    g = build_w2()
    smaller = set(list(subset)[:1])
    assert perp(g, subset) <= perp(g, smaller)


def test_perp_of_collinear_pair_is_their_line(w2):
    assert perp(w2, {E["12"], E["34"]}) == {E["12"], E["34"], E["56"]}


def test_distances_and_metrics(w2, h3, dsp):
    assert metrics(w2) == (True, 2)
    assert metrics(h3) == (True, 3)
    assert metrics(dsp) == (True, 3)
    row = w2.distance_rows[0]
    assert row[0] == 0
    assert sorted(set(row)) == [0, 1, 2]


def test_distance_lipschitz_along_lines(h3):
    rows = [h3.distance_rows[s] for s in range(0, 105, 21)]
    for row in rows:
        for line in h3.lines:
            a, b, c = line
            assert abs(row[a] - row[b]) <= 1
            assert abs(row[b] - row[c]) <= 1


def test_disconnected_metrics_flag():
    g = Geometry(4, ((0, 1), (2, 3)))
    connected, _ = metrics(g)
    assert not connected


def test_is_subspace(w2, dsp):
    assert is_subspace(w2, {0})
    assert is_subspace(dsp, range(105))
    a, b, c = w2.lines[0]
    assert not is_subspace(w2, {a, b})


def test_is_geometric_hyperplane(w2, dsp):
    assert is_geometric_hyperplane(dsp, range(105))
    assert not is_geometric_hyperplane(w2, range(15))
    assert not is_geometric_hyperplane(w2, {0})


def test_hyperplane_meets_every_line_in_one_or_all(dsp):
    m = set(range(105))
    for line in dsp.lines:
        inside = sum(1 for p in line if p in m)
        assert inside in (1, len(line))


def test_convex_closure_point_and_pair(w2):
    assert convex_closure(w2, {3}) == {3}
    # any non-collinear pair saturates the whole quadrangle
    assert len(convex_closure(w2, {E["12"], E["13"]})) == 15


def test_convex_closure_h3_grid_pair(h3):
    # a distance-2 pair with exactly two common neighbours spans a grid
    adj = h3.adjacency
    rows = h3.distance_rows
    for x in range(105):
        hit = None
        for y in range(x + 1, 105):
            if rows[x][y] == 2 and (adj[x] & adj[y]).bit_count() == 2:
                hit = y
                break
        if hit is not None:
            break
    closure = convex_closure(h3, {x, hit})
    assert len(closure) == 9
    assert is_gq(induced_geometry(h3, closure)).order == (2, 1)


@given(st.sets(st.integers(0, 14), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_convex_closure_idempotent_and_monotone(seed):
    from nearhex import build_w2

    g = build_w2()
    closure = convex_closure(g, seed)
    assert convex_closure(g, closure) == closure
    assert closure >= seed


def test_induced_geometry_full_is_identity(w2, h3):
    assert induced_geometry(w2, range(15)) == w2
    assert induced_geometry(h3, range(105)) == h3


def test_induced_geometry_keeps_only_interior_lines(w2):
    a, b, c = w2.lines[0]
    sub = induced_geometry(w2, {a, b, c, 0 if 0 not in w2.lines[0] else 4})
    assert sub.point_count == 4
    assert len(sub.lines) == 1


def assert_lines_inside_match_a_scan(g, pts):
    """``_lines_inside`` lists the lines inside ``pts`` as a scan of all
    lines does, in the same order; the table it reads files each line
    under its first point and under no other."""
    members = sorted(pts)
    assert _lines_inside(g, members, mask_of(members)) == [
        i for i, line in enumerate(g.lines) if set(line) <= set(members)
    ]
    starts = g.lines_by_first_point
    assert len(starts) == g.point_count
    assert sorted(i for row in starts for i in row) == list(range(len(g.lines)))
    assert all(g.lines[i][0] == p for p, row in enumerate(starts) for i in row)


@given(small_geometries(), st.data())
@settings(max_examples=200, deadline=None)
def test_lines_inside_matches_a_scan_on_small_geometries(g, data):
    pts = data.draw(st.sets(st.integers(0, g.point_count - 1)))
    assert_lines_inside_match_a_scan(g, pts)


def test_lines_inside_matches_a_scan_on_every_quad(h3, dsp):
    for g in (h3, dsp):
        for record in enumerate_quads(g):
            assert_lines_inside_match_a_scan(g, record.points)


@given(st.integers(0, 1 << 3100))
@settings(max_examples=100, deadline=None)
def test_bits_of_matches_a_scan(mask):
    assert bits_of(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_of_edge_cases():
    assert bits_of(0) == []
    assert bits_of(1) == [0]
    wide = 1 << 3779 | 1 << 3000 | 1 << 64 | 1
    assert bits_of(wide) == [0, 64, 3000, 3779]
    assert bits_of((1 << 3780) - 1) == list(range(3780))


def test_dual_geometry(w2, grid33):
    from nearhex import canonical_form

    d = dual_geometry(w2)
    assert d.point_count == 15
    assert len(d.lines) == 15
    dd = dual_geometry(d)
    assert canonical_form(dd).certificate == canonical_form(w2).certificate
    dg = dual_geometry(grid33)
    assert (dg.point_count, len(dg.lines)) == (6, 9)


def test_dual_geometry_needs_two_lines_per_point():
    g = Geometry(3, ((0, 1, 2),))
    with pytest.raises(GeometryError):
        dual_geometry(g)
