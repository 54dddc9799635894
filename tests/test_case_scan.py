"""The label-mask case scan against a pair-at-a-time reference.

``reference_pairs`` classifies each unordered pair on its own from its
labels and measures it on its own, as the scan used to, and
``reference_case_scan`` sums those measures into reports; the mask scan in
``nearhex.verify`` must return equal ``CaseReport`` lists -- pair counts,
histograms, verdicts and the witness tuples in order -- on a seeded corpus
of label swaps and line deletions, relabeled by seeded permutations.
"""

import random

import pytest

from nearhex import Geometry, GeometryError, dsp_case_analysis, h3_case_analysis
from nearhex.geometry import UNREACHABLE
from nearhex.iso import relabel
from nearhex.labels import Edge, Pair, PrimedEdge, perp_related
from nearhex.verify import EXPECTED, CaseReport, _case_rows


def _a_case(xi, ui, xj, uj) -> str:
    if xi == xj:
        return "A1"
    if ui == uj:
        return "A2"
    m1 = perp_related(ui, xj)
    m2 = perp_related(uj, xi)
    if m1 and m2:
        return "collinear"
    if not m1 and not m2:
        return "A3"
    return "A4"


def _b_case(side_i, li, side_j, lj) -> str:
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


def _side(label):
    if isinstance(label, Pair):
        return "pair", (label.base.ends, label.prime.ends)
    if isinstance(label, Edge):
        return "P", label.ends
    assert isinstance(label, PrimedEdge)
    return "Q", label.ends


def reference_pairs(g: Geometry, table) -> list[tuple[int, int, str, int]]:
    """``(i, j, case, value)`` for every pair ``i < j``, in order: its case
    from its labels and the value of the case's measure, each on its own."""
    sides = [_side(label) for label in g.labels]
    adj, rows = g.adjacency, g.distance_rows
    out = []
    for i, (side_i, data_i) in enumerate(sides):
        for j in range(i + 1, len(sides)):
            side_j, data_j = sides[j]
            if side_i == side_j == "pair":
                case = _a_case(*data_i, *data_j)
            else:
                case = _b_case(side_i, data_i, side_j, data_j)
            if table[case].measure == "common" and not adj[i] >> j & 1:
                value = (adj[i] & adj[j]).bit_count()
            else:
                value = rows[i][j]
            out.append((i, j, case, value))
    return out


def reference_case_scan(g: Geometry, table, pairs) -> list[CaseReport]:
    """The case reports of ``pairs``, as :func:`reference_pairs` gives them."""
    names = g.labels
    found = {case: ({}, []) for case in table}
    for i, j, case, value in pairs:
        want = table[case].value
        hist, witnesses = found[case]
        hist[value] = hist.get(value, 0) + 1
        if value != want and len(witnesses) < 10:
            witnesses.append(f"({names[i]},{names[j]})")
    reports = []
    for case, (hist, witnesses) in found.items():
        n = sum(hist.values())
        ok = not witnesses and n == table[case].pairs
        reports.append(CaseReport(
            case, n, table[case].text, dict(sorted(hist.items())), ok, tuple(sorted(witnesses))
        ))
    return reports


def _pair_points(g):
    return [i for i, label in enumerate(g.labels) if isinstance(label, Pair)]


def _swap(labels, rng, a_side, b_side, copy=False):
    a = rng.choice([i for i, label in enumerate(labels) if isinstance(label, a_side)])
    b = rng.choice([i for i, label in enumerate(labels) if isinstance(label, b_side) and i != a])
    labels[a], labels[b] = labels[b], labels[b] if copy else labels[a]


def _mutants(g: Geometry, seed: int, swaps, count: int):
    """Seeded mutants of a labelled model, each relabeled by a random
    permutation: label swaps drawn from ``swaps``; random line deletions; a
    point cut off by deleting its lines; only the lines through one point
    kept, so that its neighbours see distance 2 as their last layer; and one
    label copied over another, with a Pair whose primed edge meets its
    base edge."""
    rng = random.Random(seed)
    for k in range(count):
        labels, lines = list(g.labels), list(g.lines)
        kind = k % 6
        if kind in (0, 3):
            for _ in range(rng.randint(1, 2)):
                _swap(labels, rng, *rng.choice(swaps))
        if kind == 4:
            _swap(labels, rng, *rng.choice(swaps), copy=True)
            i = rng.choice(_pair_points(g))
            a, b = sorted(labels[i].base.ends)
            c = min({1, 2, 3} - {a, b})
            labels[i] = Pair(labels[i].base, PrimedEdge({a, c}))
        if kind == 5:
            p = rng.randrange(g.point_count)
            lines = [line for line in lines if p in line]
        if kind in (1, 3):
            for _ in range(rng.randint(1, 5)):
                lines.pop(rng.randrange(len(lines)))
        if kind == 2:
            p = rng.randrange(g.point_count)
            lines = [line for line in lines if p not in line]
        perm = list(range(g.point_count))
        rng.shuffle(perm)
        yield relabel(Geometry(g.point_count, tuple(lines), tuple(labels)), perm)


HEXAGON_SWAPS = [(Pair, Pair)]
DSP_SWAPS = [(Pair, Pair), (Edge, Edge), (PrimedEdge, PrimedEdge), (Pair, Edge), (Pair, PrimedEdge)]


def test_mask_scan_matches_the_reference_on_mutants(h3, dsp):
    corpus = [("h3", g) for g in _mutants(h3, 11, HEXAGON_SWAPS, 24)]
    corpus += [("dsp62", g) for g in _mutants(dsp, 12, DSP_SWAPS, 36)]
    corpus += [("h3", relabel(h3, list(reversed(range(105))))), ("dsp62", dsp)]
    seen = set()
    for name, g in corpus:
        table = EXPECTED[name].cases
        pairs = reference_pairs(g, table)
        want = reference_case_scan(g, table, pairs)
        if name == "h3":
            got = h3_case_analysis(g)
        else:
            got = dsp_case_analysis(g, _pair_points(g))
        assert got == want
        # with every line kept no distance-2 pair has 1 common neighbour,
        # so a 1 is a pair the labels wrongly call apart
        intact = len(g.lines) == EXPECTED[name].lines
        # with lines deleted, a pair at distance 2 can keep one common
        # neighbour, which the scan must merge with the collinear part
        rows = g.distance_rows
        if not intact and any(
            value == 1 and table[case].measure == "common" and rows[i][j] == 2
            for i, j, case, value in pairs
        ):
            seen.add("common pair with one common neighbour")
        for r in want:
            if table[r.case].measure == "common" and 1 in r.observed and intact:
                seen.add("common pair collinear")
            if table[r.case].measure == "distance" and UNREACHABLE in r.observed:
                seen.add("unreachable pair")
            failing = r.pair_count - r.observed.get(table[r.case].value, 0)
            if failing > 10:
                assert len(r.witnesses) == 10
                seen.add("more than 10 failures")
        seen.add("fails" if not all(r.ok for r in want) else "passes")
    assert seen == {
        "common pair collinear", "common pair with one common neighbour", "unreachable pair",
        "more than 10 failures", "fails", "passes",
    }


def test_label_rows_partition_the_pairs(h3, dsp):
    corpus = [("h3", h3), ("dsp62", dsp), *(("dsp62", g) for g in _mutants(dsp, 13, DSP_SWAPS, 12))]
    for name, g in corpus:
        n = g.point_count
        for i, row in enumerate(_case_rows(g)):
            assert set(row) <= set(EXPECTED[name].cases)
            union = 0
            for m in row.values():
                assert m and not m & union
                union |= m
            assert union == ((1 << n) - 1) & (-2 << i)


def test_label_rows_read_labels_alone(h3, dsp):
    for g in (h3, dsp):
        fresh = Geometry(g.point_count, g.lines, g.labels)
        rows = _case_rows(fresh)
        assert set(vars(fresh)) == {"point_count", "lines", "labels"}
        assert _case_rows(Geometry(g.point_count, (), g.labels)) == rows


@pytest.mark.parametrize("labels", [None, "strings", "mixed"])
def test_case_scans_reject_unusable_labels(dsp, labels):
    if labels == "strings":
        labels = tuple(str(label) for label in dsp.labels)
    elif labels == "mixed":
        labels = dsp.labels[:104] + ("x",) + dsp.labels[105:]
    g = Geometry(dsp.point_count, dsp.lines, labels)
    with pytest.raises(GeometryError):
        dsp_case_analysis(g, range(105))
    with pytest.raises(GeometryError):
        h3_case_analysis(g)


def test_h3_case_analysis_needs_pair_labels(dsp):
    with pytest.raises(GeometryError, match="Pair labels"):
        h3_case_analysis(dsp)
