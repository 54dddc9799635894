"""Near-polygon verification: axioms, parameters, quads and the exhaustive
case analyses for the two constructed hexagons, plus ``EXPECTED``, the one
table of facts each model must show, and :func:`run_check`, the one judge
of a model against it, whose verdicts ``nearhex verify`` and the
acceptance suite both report.

Pair classification in the case analyses reads point labels only: each
point gets one row of bitmasks over the points after it, one mask per case,
made from unions of per-edge point masks.  The geometric conclusions
(common-neighbour counts, distances) are then read off the line structure a
whole mask at a time, so the two sides stay independent.  One scan serves
both case analyses, driven by the model's case table.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

from .geometry import (
    UNREACHABLE,
    Geometry,
    GeometryError,
    NpVerdict,
    _check_indices,
    _check_points,
    _closure_groups,
    _lines_inside,
    bits_of,
    is_geometric_hyperplane,
    metrics,
    validate_pls,
)
from .gq22 import GqVerdict, _gq_axioms, _one_point_masks
from .labels import Edge, Pair, PrimedEdge, perp_related


@dataclass(frozen=True)
class ParameterSummary:
    v: int
    line_sizes: frozenset[int]
    lines_per_point: frozenset[int]
    t2_values: frozenset[int]
    diameter: int
    connected: bool
    dense: bool
    slim: bool


def parameters(g: Geometry) -> ParameterSummary:
    """Exact census of sizes, degrees, t2 values, diameter and density.

    t2 is reported as the set of observed values because it may genuinely
    depend on the pair (the 105-point hexagon has both 1 and 2).  A pair at
    distance 2 has ``t2 + 1`` common neighbours, so t2 and density are read
    off the keys of ``g.common_counts``: dense when no such pair has only
    one.
    """
    commons = {c for counts in g.common_counts for c in counts}
    connected, diameter = metrics(g)
    line_sizes = frozenset(len(line) for line in g.lines)
    return ParameterSummary(
        v=g.point_count,
        line_sizes=line_sizes,
        lines_per_point=frozenset(len(t) for t in g.lines_by_point),
        t2_values=frozenset(c - 1 for c in commons),
        diameter=diameter,
        connected=connected,
        dense=1 not in commons,
        slim=line_sizes == frozenset({3}),
    )


def check_np(g: Geometry) -> NpVerdict:
    """Near-polygon axiom: every point off a line has a unique nearest point
    on it.  Raises for disconnected geometries, where distance is undefined.

    The verdict is ``g.np_verdict``, worked out once per geometry.
    """
    return g.np_verdict


def line_distance_profiles(
    g: Geometry, line_indices: Iterable[int] | None = None
) -> dict[tuple[int, ...], int]:
    """Census of sorted distance multisets from external points to lines.

    Read off ``g.line_levels``: a group ``(k, m)`` of a line of ``s``
    points has the profile ``(k,) * m + (k + 1,) * (s - m)``, which for
    unreachable points is ``(UNREACHABLE,) * s``.  Groups come in order of
    their lowest point, so profiles are counted in the order a point scan
    meets them.  A line index that is not a plain ``int`` (a ``bool`` is
    not) or lies outside ``0..len(g.lines) - 1`` raises ``GeometryError``.
    """
    indices = range(len(g.lines))
    if line_indices is not None:
        indices = _check_indices(line_indices, len(g.lines), "line")
    census = g.line_levels
    out: dict[tuple[int, ...], int] = {}
    for li in indices:
        size = len(g.lines[li])
        for k, m, members in census[li]:
            key = (k,) * m + (k + 1,) * (size - m)
            out[key] = out.get(key, 0) + members.bit_count()
    return out


@dataclass(frozen=True)
class QuadRecord:
    points: frozenset[int]
    kind: str  # "grid21" | "gq22" | "other"
    order: tuple[int, int] | None
    witness: str | None = None


def _classify_quad(g: Geometry, members: list[int], m: int, one_point) -> QuadRecord:
    """Classify a closure on ``g``'s bitmasks, without building the geometry
    it induces: the axioms of :func:`is_gq` name its order.  A witness
    names the first failure, by ``g``'s point and line indices.

    The closure is given as its points in increasing order and their
    bitmask ``m``.  It must be convex and a subspace, as every closure from
    :func:`nearhex.geometry._closure_groups` is.  Then a line of ``g`` with
    two of its points lies inside it, so its collinearity is ``g``'s
    ``adjacency`` masked to it, and every geodesic between two of its
    points stays inside, so its distances are ``g``'s.  A quadrangle with
    s, t >= 1 on it is connected, has diameter 2 and has no point
    collinear with all others, so the axioms alone decide the kinds
    ``grid21`` and ``gq22``; only a closure of neither runs
    :func:`_shape_witness`, whose failure comes first in its witness.  The
    lines inside come from :func:`nearhex.geometry._lines_inside`, and
    ``one_point`` holds the one-point mask of each of them, read off
    ``adjacency``: inside a subspace it agrees with the induced geometry's.
    """
    verdict: GqVerdict = _gq_axioms(g, members, m, _lines_inside(g, members, m), g.adjacency, one_point)
    pts = frozenset(members)
    if verdict.order == (2, 1):
        return QuadRecord(pts, "grid21", verdict.order)
    if verdict.order == (2, 2):
        return QuadRecord(pts, "gq22", verdict.order)
    shape = _shape_witness(g, members, m)
    if shape is not None:
        return QuadRecord(pts, "other", None, shape)
    witness = f"generalized quadrangle of order {verdict.order}" if verdict.ok else verdict.witness
    return QuadRecord(pts, "other", verdict.order, witness)


def _shape_witness(g: Geometry, members: list[int], m: int) -> str | None:
    """Why a closure is not connected of diameter 2 with no point collinear
    with all others, the first failure in that order, or ``None`` when it
    is: it is connected when its first point's spheres cover it, and its
    diameter is the farthest sphere of a member that meets it."""
    adj, spheres = g.adjacency, g.distance_spheres
    if sum(spheres[members[0]]) & m != m:
        return "closure is disconnected"
    diameter = 0
    for p in members:
        layers = spheres[p]
        k = len(layers) - 1
        while not layers[k] & m:
            k -= 1
        diameter = max(diameter, k)
    if diameter != 2:
        return f"closure has diameter {diameter}"
    spanning = (p for p in members if adj[p] & m == m & ~(1 << p))
    return next((f"point {p} adjacent to all others" for p in spanning), None)


def enumerate_quads(g: Geometry) -> list[QuadRecord]:
    """Convex closures of all distance-2 pairs with >= 2 common neighbours,
    each distinct closure classified once, in order of its sorted points.

    The closures are seeded by line pairs, not point pairs.  For a point
    ``x`` and a later point ``y`` at distance 2, take the first two lines
    through ``x``, in ``g.lines_by_point[x]`` order, that hold a common
    neighbour ``c_i``, ``c_j`` of ``x`` and ``y``; the seed is the union of
    the two lines.  In a near polygon, checked first, the seed has the
    closure of ``x, y``, by the definition of closure alone:

    - each ``c_i`` lies in the interval of ``x`` and ``y``, so the closure
      of ``x, y`` holds ``x`` and ``c_i`` and so the whole line ``x c_i``;
    - ``c_i`` and ``c_j`` are not collinear, or ``c_j`` would be collinear
      with two points of the line ``x c_i``, so they lie at distance 2 with
      common neighbour ``y``, and the closure of the two lines holds ``y``.

    A line through ``x`` holds at most one common neighbour of such a pair,
    for the same reason, so a pair with one line has one common neighbour
    and is no quad pair.  No uniqueness of quads is assumed: every pair
    still gets a seed with its own closure, and all of ``x``'s partners
    with the same first two lines share one seed bit.  Per point ``x``,
    ``reach[i]`` is the later points off ``x``'s perp that are collinear
    with a point of its ``i``-th line; walking ``i`` upward, ``rest`` keeps
    the points whose first line is ``i``, and a later line ``j`` that meets
    ``rest`` makes ``(i, j)`` a seed and takes its points out of ``rest``.
    One :func:`nearhex.geometry._closure_groups` pass closes every seed and
    returns each distinct closure once.  Every line lies in several quads,
    so each line's one-point mask is worked out once, on ``adjacency``, for
    all of them; the groups are sorted by their member lists, which are
    sorted already.
    """
    if not check_np(g).ok:
        raise GeometryError("quad enumeration expects a near polygon")
    adj, perps, lines = g.adjacency, g.perps, g.lines
    # per line, the points collinear with one of its points
    line_reach = []
    for line in lines:
        r = 0
        for p in line:
            r |= adj[p]
        line_reach.append(r)
    held = [0] * g.point_count
    bit = 1
    for x, through in enumerate(g.lines_by_point):
        later = ~perps[x] & -2 << x
        reach = [line_reach[i] & later for i in through]
        seeds = [0] * len(through)  # per line, the bits of the seeds holding it
        reached = 0
        for i, r in enumerate(reach):
            rest = r & ~reached
            reached |= r
            for j in range(i + 1, len(reach)):
                if not rest:
                    break
                hit = rest & reach[j]
                if hit:
                    rest ^= hit
                    seeds[i] |= bit
                    seeds[j] |= bit
                    bit <<= 1
        for i, s in zip(through, seeds):
            if s:
                for p in lines[i]:
                    held[p] |= s
    one_point = _one_point_masks(g, adj, range(len(lines)))
    groups = sorted(_closure_groups(g, held), key=itemgetter(0))
    return [_classify_quad(g, members, m, one_point) for members, m, _ in groups]


class Case(NamedTuple):
    """One row of a case table.  Every pair in the case must give ``value``
    for ``measure`` -- "common": common neighbours of a non-collinear pair;
    "distance": distance, 1 for collinear pairs -- and the case must hold
    ``pairs`` pairs."""

    measure: str
    value: int
    pairs: int

    @property
    def text(self) -> str:
        if self.measure == "common":
            return f"exactly {self.value} common neighbours"
        return f"distance {self.value}"


class ModelFacts(NamedTuple):
    """What a model must show; :func:`run_check` judges the model by them."""

    v: int
    lines: int
    lines_per_point: int
    t2: frozenset[int]
    diameter: int
    quad_kinds: frozenset[str]  # the quad kinds that occur, and no others
    aut_order: int  # the order of its automorphism group, as canonical_form finds it
    cases: dict[str, Case] | None = None  # its case analysis, in report order
    hexagon: range | None = None  # the embedded hexagon, a geometric hyperplane


# |S8|, the group acting on the partition model
_HEXAGON = ModelFacts(105, 210, 6, frozenset({1, 2}), 3, frozenset({"grid21", "gq22"}), 40320)

# The expected facts of each model, keyed by the CLI model names.  On 105
# points, pairs with the same first (A1) or second (A2) coordinate have
# exactly 2 common neighbours, the doubly generic A3 pairs exactly 3, and
# the mixed A4 pairs sit at distance 3.  On 135 points every distance-2
# pair has exactly 3 (the adjoined copies lift A1/A2 to 3); only >= 3 is
# guaranteed a priori for B1/B2/B4/B5, and the scan pins the exact count.
EXPECTED: dict[str, ModelFacts] = {
    "w2": ModelFacts(15, 15, 3, frozenset({2}), 2, frozenset({"gq22"}), 720),  # |S6|
    "h3": _HEXAGON._replace(cases={
        "A1": Case("common", 2, 315),
        "A2": Case("common", 2, 315),
        "A3": Case("common", 3, 1680),
        "A4": Case("distance", 3, 2520),
        "collinear": Case("distance", 1, 630),
    }),
    "h3-partition": _HEXAGON,
    "h3-debruyn": _HEXAGON,
    "dsp62": ModelFacts(
        135, 315, 7, frozenset({2}), 3, frozenset({"gq22"}), 1451520,  # |Sp(6,2)|
        cases={
            "B1": Case("common", 3, 105),
            "B2": Case("common", 3, 105),
            "B3": Case("distance", 3, 120),
            "B4": Case("common", 3, 630),
            "B5": Case("common", 3, 630),
            "B6": Case("distance", 3, 840),
            "B7": Case("distance", 3, 840),
            "A1": Case("common", 3, 315),
            "A2": Case("common", 3, 315),
            "A3": Case("common", 3, 1680),
            "A4": Case("distance", 3, 2520),
            "collinear": Case("distance", 1, 945),
        },
        hexagon=range(105),
    ),
}


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one case of a pair classification scan, ``ok`` exactly
    when it has no witnesses, as :func:`_case_scan` lists them."""

    case: str
    pair_count: int
    expected: str
    # histogram of the measured quantity
    observed: dict[int, int]
    ok: bool
    witnesses: tuple[str, ...]


def _case_rows(g: Geometry) -> list[dict[str, int]]:
    """Per point ``i``, the points ``j > i`` of each case as bitmasks, built
    from the labels alone; cases with no such point are left out.

    Each row is a union of per-edge point masks, made once: the hexagon
    points by base edge ``x`` (``X``) and by primed edge ``u'`` (``U``), the
    copy points by edge (``P`` plain, ``Q`` primed), and for each edge the
    union of one of these over the edges perp-related to it (``PX`` and so
    on).  Two Pairs ``(x, u')`` and ``(y, v')`` share ``x`` (A1) or else
    ``u'`` (A2); otherwise they are collinear when ``u'`` is perp to ``y``
    and ``v'`` to ``x``, A3 when neither holds and A4 when one does.  A Pair
    ``(y, v')`` and a copy point ``o`` are collinear when ``o`` is ``y``
    (plain) or ``v'`` (primed); otherwise they are B4 or B6 (plain) and B5
    or B7 (primed) by whether ``o`` is perp to the Pair's other edge.  Two
    plain points are B1 and two primed ones B2; a plain and a primed point
    are collinear when their edges are perp, else B3.
    """
    if g.labels is None:
        raise GeometryError("case analysis needs labels")
    X, U, P, Q = (defaultdict(int) for _ in range(4))
    sides = []
    for i, label in enumerate(g.labels):
        if isinstance(label, Pair):
            x, u = label.base.ends, label.prime.ends
            X[x] |= 1 << i
            U[u] |= 1 << i
            sides.append(("pair", (x, u)))
        elif isinstance(label, Edge):
            P[label.ends] |= 1 << i
            sides.append(("P", label.ends))
        elif isinstance(label, PrimedEdge):
            Q[label.ends] |= 1 << i
            sides.append(("Q", label.ends))
        else:
            raise GeometryError(f"unexpected label {label!r} at point {i}")
    edges = {*X, *U, *P, *Q}
    perp = {e: [f for f in edges if perp_related(e, f)] for e in edges}
    # a point has one edge of each kind, so the masks summed are disjoint
    PX, PU, PP, PQ = (
        {e: sum(masks[f] for f in perp[e]) for e in edges} for masks in (X, U, P, Q)
    )
    pairs, plain, primed = sum(X.values()), sum(P.values()), sum(Q.values())
    rows = []
    for i, (side, o) in enumerate(sides):
        if side == "P":
            row = {
                "collinear": X[o] | PQ[o],
                "B1": plain,
                "B3": primed & ~PQ[o],
                "B4": PU[o] & ~X[o],
                "B6": pairs & ~(PU[o] | X[o]),
            }
        elif side == "Q":
            row = {
                "collinear": U[o] | PP[o],
                "B2": primed,
                "B3": plain & ~PP[o],
                "B5": PX[o] & ~U[o],
                "B7": pairs & ~(PX[o] | U[o]),
            }
        else:
            x, u = o
            a1 = X[x]
            a2 = U[u] & ~a1
            rest = pairs & ~(a1 | a2)
            m1, m2 = PX[u], PU[x]  # u' perp to y, v' perp to x
            row = {
                "A1": a1,
                "A2": a2,
                "A3": rest & ~(m1 | m2),
                "A4": rest & (m1 ^ m2),
                "collinear": rest & m1 & m2 | P[x] | Q[u],
                "B4": PP[u] & ~P[x],
                "B5": PQ[x] & ~Q[u],
                "B6": plain & ~(PP[u] | P[x]),
                "B7": primed & ~(PQ[x] | Q[u]),
            }
        above = -2 << i
        rows.append({case: m & above for case, m in row.items() if m & above})
    return rows


def _case_scan(g: Geometry, rows: list[dict[str, int]], table: dict[str, Case]) -> list[CaseReport]:
    """Measure each case of each label row on the line structure, a whole
    row at a time, against what the case's table row prescribes.

    A "distance" case is split by the distance layers of ``i``.  A "common"
    case records distance 1 for its collinear part, 0 for its points beyond
    distance 2 and, for the pairs at distance 2 alone, the count of common
    neighbours: each count's mask of ``g.common_counts[i]``, masked to the
    row, joins that count's part, so a count of 1 merges with the collinear
    part.  A case fails exactly when it has witnesses: a wrong pair count
    first, then its failing pairs in ``(i, j)`` order, 10 in all at most.
    """
    adj, spheres, common, names = g.adjacency, g.distance_spheres, g.common_counts, g.labels
    found = {case: ({}, []) for case in table}  # histogram, witnesses
    for i, row in enumerate(rows):
        adj_i, layers = adj[i], spheres[i]
        for case, m in row.items():
            measure, want, _ = table[case]
            if measure == "common":
                near = m & adj_i
                parts = {0: m ^ near, 1: near}
                for c, part in common[i].items():
                    part &= m
                    parts[0] ^= part
                    parts[c] = parts.get(c, 0) | part
            else:
                parts = {}
                for d, layer in enumerate(layers):
                    parts[d] = m & layer
                    m ^= parts[d]
                parts[UNREACHABLE] = m
            hist, witnesses = found[case]
            fail = 0
            for value, part in parts.items():
                if part:
                    hist[value] = hist.get(value, 0) + part.bit_count()
                    if value != want:
                        fail |= part
            if fail and len(witnesses) < 10:
                witnesses.extend(
                    f"({names[i]},{names[j]})" for j in bits_of(fail)[: 10 - len(witnesses)]
                )
    reports = []
    for case, (hist, witnesses) in found.items():
        n, want = sum(hist.values()), table[case].pairs
        if n != want:
            witnesses = [f"case {case}: {n} pairs, expected {want}", *witnesses[:9]]
        reports.append(CaseReport(
            case, n, table[case].text, dict(sorted(hist.items())), not witnesses, tuple(witnesses)
        ))
    return reports


def h3_case_analysis(g: Geometry) -> list[CaseReport]:
    """Exhaustive scan of all point pairs of the 105-point hexagon against
    ``EXPECTED["h3"].cases``."""
    rows = _case_rows(g)
    if not all(isinstance(label, Pair) for label in g.labels):
        raise GeometryError("case analysis needs Pair labels")
    return _case_scan(g, rows, EXPECTED["h3"].cases)


def dsp_case_analysis(g: Geometry, h3_points: Iterable[int]) -> list[CaseReport]:
    """Exhaustive scan of the 135-point space against
    ``EXPECTED["dsp62"].cases``: pairs touching an adjoined copy fall in
    B1..B7, pairs inside the embedded hexagon in the A-cases.

    ``h3_points`` are checked as point indices and must be exactly the
    Pair-labelled points."""
    rows = _case_rows(g)
    pair_points = frozenset(i for i, label in enumerate(g.labels) if isinstance(label, Pair))
    if frozenset(_check_points(g, h3_points)) != pair_points:
        raise GeometryError("h3_points does not match the Pair-labelled points")
    return _case_scan(g, rows, EXPECTED["dsp62"].cases)


class Check(NamedTuple):
    """The verdict of one of ``CHECKS`` on a model: pass or fail, what it
    counted, and witnesses in the order found, exactly when it fails."""

    ok: bool
    counts: dict
    witnesses: list[str]


CHECKS = ("pls", "np", "dense", "params", "quads", "cases", "hyperplane")


def _facts(model: str) -> ModelFacts:
    if model not in EXPECTED:
        raise GeometryError(f"unknown model {model!r}; choose from {', '.join(EXPECTED)}")
    return EXPECTED[model]


def default_checks(model: str) -> tuple[str, ...]:
    """The checks that apply to a model: all of ``CHECKS``, less "cases"
    without a case table and "hyperplane" without an embedded hexagon."""
    facts = _facts(model)
    return tuple(
        c for c in CHECKS
        if not (c == "cases" and facts.cases is None or c == "hyperplane" and facts.hexagon is None)
    )


def run_check(check: str, model: str, g: Geometry) -> Check:
    """Judge ``g`` by one of ``CHECKS`` against ``EXPECTED[model]``.

    A model not in ``EXPECTED``, or a check that is unknown or does not
    apply to the model (see :func:`default_checks`), raises
    ``GeometryError``.
    """
    facts = _facts(model)
    if check == "pls":
        pls = validate_pls(g)
        return Check(pls.ok, {"violations": len(pls.violations)}, [str(v) for v in pls.violations])
    if check == "np":
        np = check_np(g)
        return Check(np.ok, {}, [] if np.ok else [f"near-polygon axiom fails at {np.witness}"])
    if check == "dense":
        p = parameters(g)
        return Check(p.dense, {"t2_values": sorted(p.t2_values)}, [] if p.dense else ["not dense"])
    if check == "params":
        p = parameters(g)
        got = {
            "v": p.v,
            "lines_per_point": sorted(p.lines_per_point),
            "t2_values": sorted(p.t2_values),
            "diameter": p.diameter,
        }
        want = {
            "v": facts.v,
            "lines_per_point": [facts.lines_per_point],
            "t2_values": sorted(facts.t2),
            "diameter": facts.diameter,
        }
        witnesses = [f"{key} {got[key]}, expected {want[key]}" for key in got if got[key] != want[key]]
        witnesses += [w for ok, w in (
            (len(g.lines) == facts.lines, f"line count {len(g.lines)}, expected {facts.lines}"),
            (p.slim, f"line sizes {sorted(p.line_sizes)}"),
            (p.dense, "not dense"),
            (p.connected, "disconnected"),
        ) if not ok]
        return Check(not witnesses, {"observed": got, "expected": want}, witnesses)
    if check == "quads":
        records = enumerate_quads(g)
        kinds = dict(Counter(r.kind for r in records))
        witnesses = [f"quad {sorted(r.points)[:4]}...: {r.witness}" for r in records if r.kind == "other"]
        if set(kinds) != facts.quad_kinds:
            witnesses.append(f"quad kinds {sorted(kinds)}, expected {sorted(facts.quad_kinds)}")
        return Check(not witnesses, {"kinds": kinds}, witnesses)
    if check == "cases":
        if facts.cases is None:
            raise GeometryError(f"check 'cases' needs labelled pair points; model {model!r} has none")
        reports = h3_case_analysis(g) if facts.hexagon is None else dsp_case_analysis(g, facts.hexagon)
        counts = {r.case: {"pairs": r.pair_count, "observed": r.observed} for r in reports}
        witnesses = [w for r in reports for w in r.witnesses]
        return Check(not witnesses, counts, witnesses)
    if check == "hyperplane":
        if facts.hexagon is None:
            raise GeometryError(f"check 'hyperplane' needs an embedded hexagon; model {model!r} has none")
        ok = is_geometric_hyperplane(g, facts.hexagon)
        witness = f"embedded {len(facts.hexagon)}-point set is not a geometric hyperplane"
        return Check(ok, {}, [] if ok else [witness])
    raise GeometryError(f"unknown check {check!r}; choose from {', '.join(CHECKS)}")
