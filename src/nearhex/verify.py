"""Near-polygon verification: axioms, parameters, quads and the exhaustive
case analyses for the two constructed hexagons.

Pair classification in the case analyses reads point labels only; the
geometric conclusions (common-neighbour counts, distances) are then checked
against the line structure, so the two sides stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, NamedTuple

from .geometry import (
    UNREACHABLE,
    Geometry,
    GeometryError,
    bits_of,
    convex_closure,
    induced_geometry,
    mask_of,
    metrics,
)
from .gq22 import GqVerdict, is_gq
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


def _distance_two_pairs(g: Geometry):
    """Yield ``(x, y, common)`` for each pair ``x < y`` at distance 2, with
    its number of common neighbours; ``y`` is read from the sphere S_2(x)."""
    adj = g.adjacency
    for x, layers in enumerate(g.distance_spheres):
        if len(layers) > 2:
            for y in bits_of(layers[2] >> (x + 1) << (x + 1)):
                yield x, y, (adj[x] & adj[y]).bit_count()


def parameters(g: Geometry) -> ParameterSummary:
    """Exact census of sizes, degrees, t2 values, diameter and density.

    t2 is reported as the set of observed values because it may genuinely
    depend on the pair (the 105-point hexagon has both 1 and 2).
    """
    t2 = set()
    dense = True
    for _, _, common in _distance_two_pairs(g):
        t2.add(common - 1)
        if common < 2:
            dense = False
    connected, diameter = metrics(g)
    line_sizes = frozenset(len(line) for line in g.lines)
    return ParameterSummary(
        v=g.point_count,
        line_sizes=line_sizes,
        lines_per_point=frozenset(len(t) for t in g.lines_by_point),
        t2_values=frozenset(t2),
        diameter=diameter,
        connected=connected,
        dense=dense,
        slim=line_sizes == frozenset({3}),
    )


class NpVerdict(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None  # (point, line index)


def check_np(g: Geometry) -> NpVerdict:
    """Near-polygon axiom: every point off a line has a unique nearest point
    on it.  Raises for disconnected geometries, where distance is undefined.

    Each line is tested whole: at distance level ``k`` the points first
    reached by some line point's sphere ``S_k`` are nearest to the line at
    ``k``, and those reached by two of them violate the axiom.  The witness
    is the lowest such point on the lowest-indexed failing line.
    """
    if not metrics(g).connected:
        raise GeometryError("near-polygon check requires a connected geometry")
    spheres = g.distance_spheres
    for li, line in enumerate(g.lines):
        line_spheres = [spheres[p] for p in line]
        seen = bad = 0
        for level in count():
            once = twice = 0
            for layers in line_spheres:
                if level < len(layers):
                    fresh = layers[level] & ~seen
                    twice |= once & fresh
                    once |= fresh
            if not once:
                break
            bad |= twice
            seen |= once
        if bad:
            return NpVerdict(False, ((bad & -bad).bit_length() - 1, li))
    return NpVerdict(True, None)


def line_distance_profiles(
    g: Geometry, line_indices: Iterable[int] | None = None
) -> dict[tuple[int, ...], int]:
    """Census of sorted distance multisets from external points to lines.

    The points off a line are split by sphere membership, one line point
    after another, so each group shares one profile; points a line point
    cannot reach get the entry UNREACHABLE.
    """
    spheres = g.distance_spheres
    full = g.full_mask
    indices = range(len(g.lines)) if line_indices is None else line_indices
    out: dict[tuple[int, ...], int] = {}
    for li in indices:
        groups = [((), full & ~g.line_masks[li])]
        for p in g.lines[li]:
            split = []
            for profile, rest in groups:
                for d, layer in enumerate(spheres[p]):
                    part = rest & layer
                    if part:
                        split.append((profile + (d,), part))
                        rest ^= part
                if rest:
                    split.append((profile + (UNREACHABLE,), rest))
            groups = split
        # count in order of each group's lowest point, as a point scan would
        for profile, members in sorted(groups, key=lambda group: group[1] & -group[1]):
            key = tuple(sorted(profile))
            out[key] = out.get(key, 0) + members.bit_count()
    return out


@dataclass(frozen=True)
class QuadRecord:
    points: frozenset[int]
    kind: str  # "grid21" | "gq22" | "other"
    order: tuple[int, int] | None
    witness: str | None = None


def _classify_quad(g: Geometry, pts: frozenset[int]) -> QuadRecord:
    sub = induced_geometry(g, pts)
    connected, diameter = metrics(sub)
    if not connected or diameter != 2:
        return QuadRecord(pts, "other", None, f"closure has diameter {diameter}")
    adj = g.adjacency
    m = mask_of(pts)
    for p in pts:
        if adj[p] & m == m & ~(1 << p):
            return QuadRecord(pts, "other", None, f"point {p} adjacent to all others")
    verdict: GqVerdict = is_gq(sub)
    if verdict.order == (2, 1):
        return QuadRecord(pts, "grid21", verdict.order)
    if verdict.order == (2, 2):
        return QuadRecord(pts, "gq22", verdict.order)
    return QuadRecord(pts, "other", verdict.order, verdict.witness)


def enumerate_quads(g: Geometry) -> list[QuadRecord]:
    """Convex closures of all distance-2 pairs with >= 2 common neighbours,
    deduplicated and classified.

    Every such pair is closed, also when it lies in a quad already found:
    skipping it would assume the uniqueness of quads that this checks.
    """
    if not check_np(g).ok:
        raise GeometryError("quad enumeration expects a near polygon")
    seen: dict[frozenset[int], QuadRecord] = {}
    for x, y, common in _distance_two_pairs(g):
        if common < 2:
            continue
        pts = convex_closure(g, (x, y))
        if pts not in seen:
            seen[pts] = _classify_quad(g, pts)
    return sorted(seen.values(), key=lambda r: sorted(r.points))


@dataclass(frozen=True)
class CaseReport:
    """Outcome of one case of a pair classification scan."""

    case: str
    pair_count: int
    expected: str
    # histogram of the observed quantity: common-neighbour count for
    # distance-2 cases, distance for distance-3 cases
    observed: dict[int, int] = field(default_factory=dict)
    ok: bool = True
    witnesses: tuple[str, ...] = ()


def _label_arrays(g: Geometry) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    if g.labels is None:
        raise GeometryError("case analysis needs Pair labels")
    xs, us = [], []
    for i, label in enumerate(g.labels):
        if not isinstance(label, Pair):
            raise GeometryError(f"point {i} lacks a Pair label")
        xs.append(label.base.ends)
        us.append(label.prime.ends)
    return xs, us


def _a_case(xi, ui, xj, uj) -> str:
    """Classify a distinct pair of hexagon points from labels alone."""
    if xi == xj:
        return "A1"
    if ui == uj:
        return "A2"
    m1 = perp_related(ui, xj)  # u' in y'^perp
    m2 = perp_related(uj, xi)  # v' in x'^perp
    if m1 and m2:
        return "collinear"
    if not m1 and not m2:
        return "A3"
    return "A4"


class _CaseTally:
    def __init__(self, case: str, expected: str):
        self.case = case
        self.expected = expected
        self.count = 0
        self.observed: dict[int, int] = {}
        self.witnesses: list[str] = []

    def record(self, value: int, ok: bool, witness: str) -> None:
        self.count += 1
        self.observed[value] = self.observed.get(value, 0) + 1
        if not ok and len(self.witnesses) < 10:
            self.witnesses.append(witness)

    def report(self) -> CaseReport:
        return CaseReport(
            self.case,
            self.count,
            self.expected,
            dict(sorted(self.observed.items())),
            not self.witnesses,
            tuple(sorted(self.witnesses)),
        )


def _pair_name(g: Geometry, i: int, j: int) -> str:
    return f"({g.labels[i]},{g.labels[j]})"


def h3_case_analysis(g: Geometry) -> list[CaseReport]:
    """Exhaustive scan of all unordered point pairs of the 105-point hexagon.

    Expected outcomes: A1 and A2 pairs have exactly 2 common neighbours, A3
    pairs exactly 3, A4 pairs sit at distance 3, and together with the
    collinear pairs the cases partition everything.
    """
    xs, us = _label_arrays(g)
    adj = g.adjacency
    rows = g.distance_rows
    tallies = {
        "A1": _CaseTally("A1", "exactly 2 common neighbours"),
        "A2": _CaseTally("A2", "exactly 2 common neighbours"),
        "A3": _CaseTally("A3", "exactly 3 common neighbours"),
        "A4": _CaseTally("A4", "distance 3"),
        "collinear": _CaseTally("collinear", "adjacent in the collinearity graph"),
    }
    for i in range(g.point_count):
        for j in range(i + 1, g.point_count):
            case = _a_case(xs[i], us[i], xs[j], us[j])
            tally = tallies[case]
            adjacent = bool(adj[i] >> j & 1)
            if (case == "collinear") != adjacent:
                tally.record(rows[i][j], False, _pair_name(g, i, j))
                continue
            if case == "collinear":
                tally.record(1, True, "")
            elif case == "A4":
                d = rows[i][j]
                tally.record(d, d == 3, _pair_name(g, i, j))
            else:
                want = 3 if case == "A3" else 2
                c = (adj[i] & adj[j]).bit_count()
                tally.record(c, c == want, _pair_name(g, i, j))
    total = sum(t.count for t in tallies.values())
    expected_total = g.point_count * (g.point_count - 1) // 2
    if total != expected_total:
        raise GeometryError(f"case partition covers {total} of {expected_total} pairs")
    return [tallies[k].report() for k in ("A1", "A2", "A3", "A4", "collinear")]


def _b_case(side_i: str, li, side_j: str, lj) -> str:
    """Classify a pair touching an adjoined copy from labels alone.

    ``side`` is "P" (plain edge), "Q" (primed edge) or "pair"; ``li``/``lj``
    carry the label data.  Returns "collinear" when the labels predict
    adjacency, otherwise one of B1..B7.
    """
    sides = {side_i, side_j}
    if sides == {"P"}:
        return "B1"
    if sides == {"Q"}:
        return "B2"
    if sides == {"P", "Q"}:
        x = li if side_i == "P" else lj
        u = lj if side_i == "P" else li
        return "collinear" if perp_related(u, x) else "B3"
    outer, inner = (li, lj) if side_i != "pair" else (lj, li)
    outer_side = side_i if side_i != "pair" else side_j
    y, v = inner
    if outer_side == "P":
        if outer == y:
            return "collinear"
        return "B4" if perp_related(v, outer) else "B6"
    if outer == v:
        return "collinear"
    return "B5" if perp_related(y, outer) else "B7"


def dsp_case_analysis(g: Geometry, h3_points: Iterable[int]) -> list[CaseReport]:
    """Exhaustive scan of the 135-point space.

    Pairs touching an adjoined copy are classified B1..B7; pairs inside the
    embedded hexagon are delegated to the A-case logic, where the expected
    common-neighbour count rises to 3 (the adjoined copies supply the extra
    neighbour for A1/A2).
    """
    if g.labels is None:
        raise GeometryError("case analysis needs labels")
    hset = frozenset(h3_points)
    sides: list[str] = []
    data: list = []
    for i, label in enumerate(g.labels):
        if isinstance(label, Pair):
            sides.append("pair")
            data.append((label.base.ends, label.prime.ends))
        elif isinstance(label, Edge):
            sides.append("P")
            data.append(label.ends)
        elif isinstance(label, PrimedEdge):
            sides.append("Q")
            data.append(label.ends)
        else:
            raise GeometryError(f"unexpected label {label!r} at point {i}")
    if hset != frozenset(i for i, s in enumerate(sides) if s == "pair"):
        raise GeometryError("h3_points does not match the Pair-labelled points")

    adj = g.adjacency
    rows = g.distance_rows
    tallies = {
        "B1": _CaseTally("B1", ">= 3 common neighbours"),
        "B2": _CaseTally("B2", ">= 3 common neighbours"),
        "B3": _CaseTally("B3", "distance 3"),
        "B4": _CaseTally("B4", ">= 3 common neighbours"),
        "B5": _CaseTally("B5", ">= 3 common neighbours"),
        "B6": _CaseTally("B6", "distance 3"),
        "B7": _CaseTally("B7", "distance 3"),
        "A1": _CaseTally("A1", "exactly 3 common neighbours"),
        "A2": _CaseTally("A2", "exactly 3 common neighbours"),
        "A3": _CaseTally("A3", "exactly 3 common neighbours"),
        "A4": _CaseTally("A4", "distance 3"),
        "collinear": _CaseTally("collinear", "adjacent in the collinearity graph"),
    }
    for i in range(g.point_count):
        for j in range(i + 1, g.point_count):
            adjacent = bool(adj[i] >> j & 1)
            if sides[i] == "pair" and sides[j] == "pair":
                (xi, ui), (xj, uj) = data[i], data[j]
                case = _a_case(xi, ui, xj, uj)
            else:
                case = _b_case(sides[i], data[i], sides[j], data[j])
            tally = tallies[case]
            if (case == "collinear") != adjacent:
                tally.record(rows[i][j], False, _pair_name(g, i, j))
                continue
            if case == "collinear":
                tally.record(1, True, "")
            elif case in ("B3", "B6", "B7", "A4"):
                d = rows[i][j]
                tally.record(d, d == 3, _pair_name(g, i, j))
            else:
                c = (adj[i] & adj[j]).bit_count()
                tally.record(c, c == 3, _pair_name(g, i, j))
    total = sum(t.count for t in tallies.values())
    expected_total = g.point_count * (g.point_count - 1) // 2
    if total != expected_total:
        raise GeometryError(f"case partition covers {total} of {expected_total} pairs")
    order = ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "A1", "A2", "A3", "A4", "collinear")
    return [tallies[k].report() for k in order]
