"""Near-polygon verification: parameters, NP, quads, case analyses.

Frozen expected values were derived independently: the case counts by
elementary counting over the edge model (|x^perp \\ y^perp| = 4 for any
distinct x,y gives 15*14*16/2 = 1680 for A3, and so on), the quad counts by
double counting distance-2 pairs (18 per grid, 60 per (2,2)-quad), and all
of it cross-checked by a from-scratch brute-force script.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearhex.verify
from nearhex import (
    Geometry,
    GeometryError,
    build_w2,
    check_np,
    dsp_case_analysis,
    dual_geometry,
    enumerate_quads,
    h3_case_analysis,
    line_distance_profiles,
    induced_geometry,
    is_gq,
    metrics,
    parameters,
)
from nearhex.geometry import convex_closures, mask_of
from nearhex.gq22 import _one_point_masks
from nearhex.iso import relabel
from nearhex.verify import (
    CHECKS,
    EXPECTED,
    QuadRecord,
    _classify_quad,
    default_checks,
    run_check,
)

from strategies import distance_two_pairs, lifted_witness, small_geometries


def test_parameters_w2(w2):
    p = parameters(w2)
    assert (p.v, p.diameter) == (15, 2)
    assert p.line_sizes == {3}
    assert p.lines_per_point == {3}
    assert p.t2_values == {2}
    assert p.connected and p.dense and p.slim


def test_parameters_h3(h3):
    p = parameters(h3)
    assert p.v == 105
    assert p.line_sizes == {3}
    assert p.lines_per_point == {6}
    assert p.t2_values == {1, 2}
    assert p.diameter == 3
    assert p.dense and p.slim


def test_parameters_dsp(dsp):
    p = parameters(dsp)
    assert p.v == 135
    assert p.lines_per_point == {7}
    assert p.t2_values == {2}
    assert p.diameter == 3
    assert p.dense and p.slim


def test_distance_distributions(h3, dsp):
    for g, want in ((h3, (1, 12, 44, 48)), (dsp, (1, 14, 56, 64))):
        for row in g.distance_rows:
            census = Counter(row)
            assert tuple(census[d] for d in range(4)) == want


def test_check_np(w2, h3, dsp):
    assert check_np(w2).ok
    assert check_np(h3).ok
    assert check_np(dsp).ok


def test_check_np_pentagon_witness():
    pentagon = Geometry(5, tuple((i, (i + 1) % 5) for i in range(5)))
    verdict = check_np(pentagon)
    assert not verdict.ok
    x, li = verdict.witness
    assert x not in pentagon.lines[li]


def test_check_np_square_is_a_thin_quadrangle():
    # a 4-cycle is the (1,1)-GQ: nearest points are unique everywhere
    square = Geometry(4, tuple((i, (i + 1) % 4) for i in range(4)))
    assert check_np(square).ok


def test_check_np_rejects_disconnected():
    g = Geometry(4, ((0, 1), (2, 3)))
    with pytest.raises(GeometryError):
        check_np(g)


def test_enumerate_quads_rejects_a_connected_geometry_that_is_not_a_near_polygon():
    # each point of a triangle is collinear with both points of the opposite line
    triangle = Geometry(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(GeometryError, match=r"^quad enumeration expects a near polygon$"):
        enumerate_quads(triangle)


def test_line_distance_profiles(h3, dsp):
    assert line_distance_profiles(h3) == {(1, 2, 2): 6300, (2, 3, 3): 15120}
    profiles = line_distance_profiles(dsp)
    assert profiles == {(1, 2, 2): 11340, (2, 3, 3): 30240}
    glue = [i for i, line in enumerate(dsp.lines) if any(p >= 105 for p in line)]
    assert len(glue) == 105
    assert line_distance_profiles(dsp, glue) == {(1, 2, 2): 3780, (2, 3, 3): 10080}
    # a generator is read once, and the last index is the last line
    assert line_distance_profiles(dsp, iter(glue)) == line_distance_profiles(dsp, glue)
    assert line_distance_profiles(dsp, [314]) == {(1, 2, 2): 36, (2, 3, 3): 96}


@pytest.mark.parametrize("indices", [[-1], [15], [99], [0, -15], [True], [1.0]])
def test_line_distance_profiles_rejects_out_of_range_indices(w2, indices):
    with pytest.raises(GeometryError, match="line index"):
        line_distance_profiles(w2, indices)


def test_quads_w2(w2):
    records = enumerate_quads(w2)
    assert len(records) == 1
    (q,) = records
    assert q.kind == "gq22"
    assert q.points == frozenset(range(15))


def test_quads_h3(h3):
    records = enumerate_quads(h3)
    census = Counter((r.kind, len(r.points)) for r in records)
    assert census == {("grid21", 9): 35, ("gq22", 15): 28}


def test_quads_dsp(dsp):
    records = enumerate_quads(dsp)
    census = Counter((r.kind, len(r.points)) for r in records)
    assert census == {("gq22", 15): 63}


def test_enumerate_quads_names_the_quads_by_the_axioms_alone(
    w2, h3, dsp, h3_partitions, h3_debruyn, monkeypatch
):
    """Every closure of the five models' censuses is a quad, so no shape
    test runs on any of them."""

    def refuse(g, members, m):
        raise AssertionError(f"shape test ran on {members}")

    monkeypatch.setattr(nearhex.verify, "_shape_witness", refuse)
    for g in (w2, h3, dsp, h3_partitions, h3_debruyn):
        assert {r.kind for r in enumerate_quads(g)} <= {"grid21", "gq22"}


def classify(g, pts):
    """``_classify_quad`` on a closure given as a set of points, with the
    one-point table built as ``enumerate_quads`` builds it."""
    one_point = _one_point_masks(g, g.adjacency, range(len(g.lines)))
    return _classify_quad(g, sorted(pts), mask_of(pts), one_point)


def test_classify_quad_witnesses():
    """Every verdict of the quad classifier, each with its exact witness;
    points and lines are named by the parent geometry's indices."""
    hexagon = Geometry(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    two_lines = Geometry(6, ((0, 1, 2), (3, 4, 5)))
    pencil = Geometry(5, ((0, 1, 2), (0, 3, 4)))
    # a pentagon on points 2..6 behind the line {0,1,2}
    pentagon = Geometry(7, ((0, 1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)))
    k33 = Geometry(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
    square = Geometry(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    cases = [
        (hexagon, range(6), None, "closure has diameter 3"),
        (two_lines, range(6), None, "closure is disconnected"),
        (pencil, range(5), None, "point 0 adjacent to all others"),
        (pentagon, range(2, 7), None, "point 5 is collinear with 0 points of line 1"),
        (k33, range(6), (1, 2), "generalized quadrangle of order (1, 2)"),
        (square, range(4), (1, 1), "generalized quadrangle of order (1, 1)"),
    ]
    for g, pts, order, witness in cases:
        pts = frozenset(pts)
        assert classify(g, pts) == QuadRecord(pts, "other", order, witness)


def classify_quad_on_the_induced_geometry(g, pts):
    """``classify``'s record, read off the induced geometry, built:
    its ``metrics``, a point collinear with all others, then ``is_gq``,
    with the witness taken back to ``g``'s indices."""
    order = sorted(pts)
    sub = induced_geometry(g, pts)
    connected, diameter = metrics(sub)
    if not connected:
        return QuadRecord(pts, "other", None, "closure is disconnected")
    if diameter != 2:
        return QuadRecord(pts, "other", None, f"closure has diameter {diameter}")
    for q, near in enumerate(sub.adjacency):
        if near == sub.full_mask & ~(1 << q):
            return QuadRecord(pts, "other", None, f"point {order[q]} adjacent to all others")
    verdict = is_gq(sub)
    kind = {(2, 1): "grid21", (2, 2): "gq22"}.get(verdict.order)
    if kind:
        return QuadRecord(pts, kind, verdict.order)
    if verdict.ok:
        return QuadRecord(pts, "other", verdict.order, f"generalized quadrangle of order {verdict.order}")
    return QuadRecord(pts, "other", None, lifted_witness(g, pts, verdict.witness))


def _relabeled(g, rng):
    perm = list(range(g.point_count))
    rng.shuffle(perm)
    return relabel(g, perm)


def _quad_closures(g, rng, seeds):
    """The distinct closures of ``g``'s qualifying pairs and of ``seeds``
    random seeds of 1 to 3 points."""
    pairs = [(x, y) for x, y, common in distance_two_pairs(g) if common >= 2]
    random_seeds = [rng.sample(range(g.point_count), rng.randint(1, 3)) for _ in range(seeds)]
    return dict.fromkeys(convex_closures(g, pairs + random_seeds))


def test_classify_quad_matches_the_induced_geometry(w2, h3, dsp, h3_partitions, h3_debruyn):
    """Every distinct closure of the five models, relabeled, and of random
    seeds: quads of both kinds, single points, lines and whole models."""
    rng = random.Random(31)
    found = set()
    for base in (w2, h3, dsp, h3_partitions, h3_debruyn):
        g = _relabeled(base, rng)
        for pts in _quad_closures(g, rng, 30):
            record = classify(g, pts)
            assert record == classify_quad_on_the_induced_geometry(g, pts)
            found.add(record.witness or record.kind)
    assert found == {"grid21", "gq22"} | {f"closure has diameter {d}" for d in (0, 1, 3)}


def test_classify_quad_matches_the_induced_geometry_on_mutants(h3, dsp):
    """1 to 5 lines deleted from h3 and dsp62: besides quads, closures of
    diameter 0, 1, 3 and 4."""
    rng = random.Random(34)
    found = set()
    for k in range(10):
        base = (h3, dsp)[k % 2]
        lines = list(base.lines)
        for _ in range(rng.randint(1, 5)):
            lines.pop(rng.randrange(len(lines)))
        g = _relabeled(Geometry(base.point_count, tuple(lines)), rng)
        for pts in _quad_closures(g, rng, 20):
            record = classify(g, pts)
            assert record == classify_quad_on_the_induced_geometry(g, pts)
            found.add(record.witness or record.kind)
    assert found == {"grid21", "gq22"} | {f"closure has diameter {d}" for d in (0, 1, 3, 4)}


_GRID = Geometry(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)))
# W(2), the grid, its dual K3,3, the square and the pentagon
_SMALL_SPACES = (
    build_w2(),
    _GRID,
    dual_geometry(_GRID),
    Geometry(4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    Geometry(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
)


@st.composite
def small_closures(draw):
    """A geometry and the closure of a seed in it: a random geometry of up
    to 8 points (some disconnected, some with two points on several lines),
    or a small quadrangle or the pentagon with up to two random lines added,
    whose closures reach the quadrangle axioms and fail each of them."""
    if draw(st.booleans()):
        g = draw(small_geometries())
        if not g.point_count:
            return g, frozenset()
    else:
        base = draw(st.sampled_from(_SMALL_SPACES))
        line = st.lists(st.integers(0, base.point_count - 1), min_size=2, max_size=4, unique=True)
        g = Geometry(base.point_count, base.lines + tuple(map(tuple, draw(st.lists(line, max_size=2)))))
    points = st.integers(0, g.point_count - 1)
    seed = draw(st.sets(points, min_size=1, max_size=3) | st.just(range(g.point_count)))
    return g, convex_closures(g, [seed])[0]


@given(small_closures())
@settings(max_examples=300, deadline=None)
def test_classify_quad_matches_the_induced_geometry_on_small_geometries(case):
    g, pts = case
    if pts:
        assert classify(g, pts) == classify_quad_on_the_induced_geometry(g, pts)


def test_quads_of_other_orders_carry_a_witness():
    k33 = Geometry(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
    square = Geometry(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert enumerate_quads(k33) == [
        QuadRecord(frozenset(range(6)), "other", (1, 2), "generalized quadrangle of order (1, 2)")
    ]
    assert enumerate_quads(square) == [
        QuadRecord(frozenset(range(4)), "other", (1, 1), "generalized quadrangle of order (1, 1)")
    ]


def test_quad_double_counting(h3, dsp):
    # every distance-2 pair lies in exactly one quad: 18 per grid, 60 per
    # (2,2)-quad, matching the case counts
    h3_d2 = sum(row.count(2) for row in h3.distance_rows) // 2
    assert h3_d2 == 315 + 315 + 1680
    assert h3_d2 == 35 * 18 + 28 * 60
    dsp_d2 = sum(row.count(2) for row in dsp.distance_rows) // 2
    assert dsp_d2 == 3780 == 63 * 60


def test_h3_case_analysis(h3):
    reports = {r.case: r for r in h3_case_analysis(h3)}
    assert all(r.ok for r in reports.values())
    assert {c: r.pair_count for c, r in reports.items()} == {
        "A1": 315,
        "A2": 315,
        "A3": 1680,
        "A4": 2520,
        "collinear": 630,
    }
    assert reports["A1"].observed == {2: 315}
    assert reports["A2"].observed == {2: 315}
    assert reports["A3"].observed == {3: 1680}
    assert reports["A4"].observed == {3: 2520}
    total = sum(r.pair_count for r in reports.values())
    assert total == 105 * 104 // 2


def test_h3_case_analysis_worked_example(h3):
    """(12,12') and (12,34') fall in case A1 with common neighbours exactly
    {(34,56'), (56,56')}."""
    from nearhex.geometry import bits_of

    def pidx(x, u):
        want = (frozenset(x), frozenset(u))
        return next(
            i
            for i, l in enumerate(h3.labels)
            if (l.base.ends, l.prime.ends) == want
        )

    a = pidx((1, 2), (1, 2))
    b = pidx((1, 2), (3, 4))
    common = frozenset(bits_of(h3.adjacency[a] & h3.adjacency[b]))
    assert common == {pidx((3, 4), (5, 6)), pidx((5, 6), (5, 6))}


def test_h3_case_analysis_needs_labels(h3):
    with pytest.raises(GeometryError):
        h3_case_analysis(Geometry(h3.point_count, h3.lines))


def test_dsp_case_analysis(dsp):
    reports = {r.case: r for r in dsp_case_analysis(dsp, range(105))}
    assert all(r.ok for r in reports.values())
    assert {c: r.pair_count for c, r in reports.items()} == {
        "B1": 105,
        "B2": 105,
        "B3": 120,
        "B4": 630,
        "B5": 630,
        "B6": 840,
        "B7": 840,
        "A1": 315,
        "A2": 315,
        "A3": 1680,
        "A4": 2520,
        "collinear": 945,
    }
    # only >= 3 is guaranteed a priori for B1/B2/B4/B5; the scan pins the
    # exact count
    for case in ("B1", "B2", "B4", "B5"):
        assert set(reports[case].observed) == {3}
    for case in ("B3", "B6", "B7", "A4"):
        assert set(reports[case].observed) == {3}
    # inside the embedded hexagon the extra glue neighbour lifts A1/A2 to 3
    for case in ("A1", "A2", "A3"):
        assert set(reports[case].observed) == {3}


def test_dsp_case_analysis_worked_examples(dsp):
    """12 vs 13' sit at distance 3 (B3); 12 vs (34,56') have 3 common
    neighbours (B4, since 56 is disjoint from 12)."""
    from nearhex.gq22 import EDGE_INDEX

    def eidx(name):
        return EDGE_INDEX[frozenset(int(c) for c in name)]

    def pidx(x, u):
        want = (frozenset(x), frozenset(u))
        return next(
            i
            for i, l in enumerate(dsp.labels[:105])
            if (l.base.ends, l.prime.ends) == want
        )

    rows = dsp.distance_rows
    assert rows[105 + eidx("12")][120 + eidx("13")] == 3
    a = 105 + eidx("12")
    b = pidx((3, 4), (5, 6))
    assert rows[a][b] == 2
    assert (dsp.adjacency[a] & dsp.adjacency[b]).bit_count() == 3


def test_dsp_case_analysis_checks_h3_points(dsp):
    with pytest.raises(GeometryError):
        dsp_case_analysis(dsp, range(104))


@pytest.mark.parametrize(
    "h3_points, error",
    [
        ([0, True, *range(2, 105)], "point index True is not an integer"),
        ([0.0, *range(1, 105)], "point index 0.0 is not an integer"),
        ([*range(105), 135], "point index 135 out of range"),
    ],
)
def test_dsp_case_analysis_checks_each_h3_point(dsp, h3_points, error):
    """Entries that a frozenset would equate with ``range(105)``, and one
    past the last point, are rejected one by one."""
    with pytest.raises(GeometryError, match=error):
        dsp_case_analysis(dsp, h3_points)


def test_case_reports_state_the_value_checked(h3, dsp):
    """Each report names the measure and the value its scan requires, the
    scan observed exactly that value, and reports come in table order."""
    for name, reports in (
        ("h3", h3_case_analysis(h3)),
        ("dsp62", dsp_case_analysis(dsp, range(105))),
    ):
        table = EXPECTED[name].cases
        assert [r.case for r in reports] == list(table)
        for r in reports:
            want = table[r.case]
            noun = "common neighbours" if want.measure == "common" else "distance"
            assert noun in r.expected and str(want.value) in r.expected.split()
            assert r.observed == {want.value: want.pairs}


def test_expected_facts_cover_the_cli_models():
    from nearhex.cli import MODELS

    assert list(EXPECTED) == list(MODELS)
    for facts in EXPECTED.values():
        if facts.cases is not None:
            assert sum(c.pairs for c in facts.cases.values()) == facts.v * (facts.v - 1) // 2
        assert facts.lines * 3 == facts.v * facts.lines_per_point


def _with_line_through_two_collinear_points(g: Geometry) -> Geometry:
    a, b, _ = g.lines[0]
    z = next(p for p in range(g.point_count) if p not in g.lines[0])
    return Geometry(g.point_count, g.lines + ((a, b, z),), g.labels)


def test_every_check_fails_on_a_mutant(w2, h3, dsp):
    """For each of CHECKS, a model broken for it fails, with a witness that
    names the failure: an extra line through two collinear points of W(2),
    a line deleted from h3, h3 judged as dsp62, and dsp62 with its first and
    last point swapped, so that points 0..104 are no longer the hexagon."""
    plus_line = _with_line_through_two_collinear_points(w2)
    a, b, _ = w2.lines[0]
    less_line = Geometry(h3.point_count, h3.lines[1:], h3.labels)
    swapped = relabel(dsp, [134, *range(1, 134), 0])
    mutants = {
        "pls": ("w2", plus_line, f"(({a}, {b}), 0, "),
        "np": ("w2", plus_line, "near-polygon axiom fails at ("),
        "dense": ("h3", less_line, "not dense"),
        "params": ("h3", less_line, "line count 209"),
        "quads": ("dsp62", h3, "quad kinds ['gq22', 'grid21'], expected ['gq22']"),
        "cases": ("h3", less_line, "(("),
        "hyperplane": ("dsp62", swapped, "embedded 105-point set is not a geometric hyperplane"),
    }
    assert tuple(mutants) == CHECKS
    for check, (model, g, witness) in mutants.items():
        ok, counts, witnesses = run_check(check, model, g)
        assert not ok, check
        assert any(w.startswith(witness) for w in witnesses), (check, witnesses)
    assert run_check("pls", "w2", plus_line).counts == {"violations": 1}
    assert 0 in run_check("dense", "h3", less_line).counts["t2_values"]


def test_failing_checks_name_each_unmet_expectation(monkeypatch, w2, h3):
    """The paths a mutant above does not reach: a quad of another order, a
    line count that alone differs from the model's, and a case whose pair
    count alone does."""
    k33 = Geometry(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
    ok, counts, witnesses = run_check("quads", "w2", k33)
    assert not ok and counts == {"kinds": {"other": 1}}
    assert witnesses == [
        "quad [0, 1, 2, 3]...: generalized quadrangle of order (1, 2)",
        "quad kinds ['other'], expected ['gq22']",
    ]
    monkeypatch.setitem(EXPECTED, "w2", EXPECTED["w2"]._replace(lines=16))
    assert run_check("params", "w2", w2)[::2] == (False, ["line count 15, expected 16"])
    table = EXPECTED["h3"].cases
    monkeypatch.setitem(table, "A1", table["A1"]._replace(pairs=314))
    assert run_check("cases", "h3", h3)[::2] == (False, ["case A1: 315 pairs, expected 314"])


def test_run_check_rejects_checks_that_do_not_apply(w2, h3):
    assert default_checks("w2") == ("pls", "np", "dense", "params", "quads")
    assert default_checks("h3") == ("pls", "np", "dense", "params", "quads", "cases")
    assert default_checks("dsp62") == CHECKS
    for check, model, g in (("cases", "w2", w2), ("hyperplane", "h3", h3), ("bogus", "w2", w2)):
        with pytest.raises(GeometryError, match=repr(check)):
            run_check(check, model, g)
    unknown = "unknown model 'bogus'; choose from w2, h3, h3-partition, h3-debruyn, dsp62"
    with pytest.raises(GeometryError, match=unknown):
        run_check("pls", "bogus", w2)
    with pytest.raises(GeometryError, match=unknown):
        default_checks("bogus")
