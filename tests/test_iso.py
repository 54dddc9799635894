"""Canonical labeling and isomorphism testing.

The relabeling battery drives are_isomorphic over 100 seeded random
relabelings spread across the five built geometries and checks the verdict
against ground truth every time; every returned mapping is re-verified
here as well, independently of the library's own verification.

The counting refinement is checked against the plain split loop it
replaced, kept here as the reference, against a brute-force test of
equitability, and against a relabeled copy that replays its trace to the
image partition, on the incidence graphs of small random geometries.  The
cheap invariants are checked against a form that takes the distance
census from histograms of the ``distance_rows`` rows, kept here as the
reference too.
"""

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearhex import (
    Geometry,
    GeometryError,
    are_isomorphic,
    canonical_form,
    dual_geometry,
    relabel,
)
from nearhex.geometry import mask_of
from nearhex.iso import _incidence_neighbours, _invariant_mismatch, _Partition, _refine

from strategies import small_geometries


def assert_mapping_valid(g1, g2, mapping):
    assert sorted(mapping) == list(range(g1.point_count))
    lines2 = set(g2.lines)
    for line in g1.lines:
        assert tuple(sorted(mapping[p] for p in line)) in lines2


def test_relabel_roundtrip(w2):
    perm = list(reversed(range(15)))
    r = relabel(w2, perm)
    inverse = [0] * 15
    for p, q in enumerate(perm):
        inverse[q] = p
    assert relabel(r, inverse) == w2
    with pytest.raises(GeometryError):
        relabel(w2, [0] * 15)


def test_canonical_form_deterministic(w2):
    a = canonical_form(w2)
    b = canonical_form(w2)
    assert a.certificate == b.certificate
    assert a.relabeling == b.relabeling


@given(st.permutations(list(range(15))))
@settings(max_examples=25, deadline=None)
def test_canonical_form_invariant_under_relabeling(perm):
    from nearhex import build_w2

    g = build_w2()
    assert canonical_form(relabel(g, perm)).certificate == canonical_form(g).certificate


def test_canonical_form_w2_self_dual(w2):
    assert canonical_form(dual_geometry(w2)).certificate == canonical_form(w2).certificate


def test_canonical_form_distinguishes(w2, grid33):
    assert canonical_form(grid33).certificate != canonical_form(w2).certificate


def test_canonical_form_invariant_on_hexagon(h3, h3_partitions, h3_debruyn, dsp):
    rng = random.Random(20240817)
    for g in (h3, h3_partitions, h3_debruyn, dsp):
        want = canonical_form(g).certificate
        for _ in range(3):
            perm = list(range(g.point_count))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).certificate == want
    # the three constructions of one near hexagon share one certificate
    for g in (h3_partitions, h3_debruyn):
        assert canonical_form(g).certificate == canonical_form(h3).certificate


def test_canonical_relabeling_is_a_point_permutation(h3):
    form = canonical_form(h3)
    assert sorted(form.relabeling) == list(range(105))


def test_are_isomorphic_w2_dual(w2):
    verdict = are_isomorphic(w2, dual_geometry(w2))
    assert verdict.isomorphic
    assert_mapping_valid(w2, dual_geometry(w2), verdict.mapping)


def test_three_hexagon_models_agree(h3, h3_partitions, h3_debruyn):
    for other in (h3_partitions, h3_debruyn):
        verdict = are_isomorphic(h3, other)
        assert verdict.isomorphic
        assert_mapping_valid(h3, other, verdict.mapping)


def test_hexagon_vs_dsp(h3, dsp):
    verdict = are_isomorphic(h3, dsp)
    assert not verdict.isomorphic
    assert "point counts differ" in verdict.detail


def test_same_counts_different_structure(w2):
    # a triangle of 3-point lines plus an isolated point vs three concurrent
    # 3-point lines: equal point and line counts and line sizes, different
    # degree sequences
    triangle = Geometry(7, ((0, 1, 3), (1, 2, 4), (0, 2, 5)))
    star = Geometry(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6)))
    verdict = are_isomorphic(triangle, star)
    assert not verdict.isomorphic
    assert verdict.mapping is None
    assert verdict.detail == "degree sequences differ"


def test_same_counts_different_line_sizes():
    # two lines on four points each, one of them with three points
    verdict = are_isomorphic(Geometry(4, ((0, 1, 2), (2, 3))), Geometry(4, ((0, 1), (2, 3))))
    assert not verdict.isomorphic
    assert verdict.mapping is None
    assert verdict.detail == "line size multisets differ"


def test_distance_census_separates_a_hexagon_from_two_triangles():
    # six 2-point lines each, so the same counts, line sizes and degrees,
    # but the two triangles are disconnected
    hexagon = Geometry(6, tuple((i, (i + 1) % 6) for i in range(6)))
    triangles = Geometry(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    verdict = are_isomorphic(hexagon, triangles)
    assert not verdict.isomorphic
    assert verdict.mapping is None
    assert verdict.detail == "distance distributions differ"


def invariant_mismatch_by_rows(g1, g2):
    """``_invariant_mismatch`` with a histogram of each ``distance_rows``
    row as the distance census: the reference for the sphere sizes."""
    if g1.point_count != g2.point_count:
        return f"point counts differ: {g1.point_count} vs {g2.point_count}"
    if len(g1.lines) != len(g2.lines):
        return f"line counts differ: {len(g1.lines)} vs {len(g2.lines)}"
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return "line size multisets differ"
    if sorted(map(len, g1.lines_by_point)) != sorted(map(len, g2.lines_by_point)):
        return "degree sequences differ"

    def dist_census(g):
        out = []
        for row in g.distance_rows:
            hist = {}
            for d in row:
                hist[d] = hist.get(d, 0) + 1
            out.append(tuple(sorted(hist.items())))
        return sorted(out)

    if dist_census(g1) != dist_census(g2):
        return "distance distributions differ"
    return None


@st.composite
def equal_size_pairs(draw):
    """Two geometries on the same number of points: either two independent
    ones, the smaller padded with isolated points, or one and a relabeled
    copy in which pairs of lines traded a point, which keeps line sizes
    and degrees, so that the distance census decides."""
    if draw(st.booleans()):
        g1, g2 = draw(small_geometries()), draw(small_geometries())
        n = max(g1.point_count, g2.point_count)
        return Geometry(n, g1.lines), Geometry(n, g2.lines)
    g1 = draw(small_geometries().filter(lambda g: len(g.lines) >= 3))
    lines = [set(line) for line in g1.lines]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
        if lines[i] - lines[j] and lines[j] - lines[i]:
            a = draw(st.sampled_from(sorted(lines[i] - lines[j])))
            b = draw(st.sampled_from(sorted(lines[j] - lines[i])))
            lines[i] ^= {a, b}
            lines[j] ^= {a, b}
    perm = draw(st.permutations(range(g1.point_count)))
    return g1, Geometry(g1.point_count, tuple(tuple(perm[p] for p in line) for line in lines))


@given(equal_size_pairs())
@settings(max_examples=300, deadline=None)
def test_invariant_mismatch_matches_the_row_census(pair):
    g1, g2 = pair
    assert _invariant_mismatch(g1, g2) == invariant_mismatch_by_rows(g1, g2)


def test_grid_not_isomorphic_to_its_dual(grid33):
    verdict = are_isomorphic(grid33, dual_geometry(grid33))
    assert not verdict.isomorphic
    assert "point counts differ" in verdict.detail


def test_relabeling_battery_all_models(w2, h3, h3_partitions, h3_debruyn, dsp):
    """100 seeded relabelings across the five geometries; are_isomorphic
    must find a valid bijection for each."""
    rng = random.Random(991)
    models = [
        (w2, 40),
        (h3, 15),
        (h3_partitions, 15),
        (h3_debruyn, 15),
        (dsp, 15),
    ]
    assert sum(n for _, n in models) == 100
    for g, trials in models:
        for _ in range(trials):
            perm = list(range(g.point_count))
            rng.shuffle(perm)
            shuffled = relabel(g, perm)
            verdict = are_isomorphic(g, shuffled)
            assert verdict.isomorphic, verdict.detail
            assert_mapping_valid(g, shuffled, verdict.mapping)


def _cyclic_sts13():
    blocks = set()
    for base in ((0, 1, 4), (0, 2, 7)):
        for shift in range(13):
            blocks.add(tuple(sorted((x + shift) % 13 for x in base)))
    return Geometry(13, tuple(sorted(blocks)))


def _switched_sts13():
    """The other Steiner triple system on 13 points, obtained from the
    cyclic one by trading the Pasch configuration
    {0,6,8},{0,3,12},{1,6,12},{1,3,8} for
    {0,6,12},{0,3,8},{1,6,8},{1,3,12}."""
    g = _cyclic_sts13()
    removed = {(0, 6, 8), (0, 3, 12), (1, 6, 12), (1, 3, 8)}
    added = ((0, 6, 12), (0, 3, 8), (1, 6, 8), (1, 3, 12))
    lines = tuple(l for l in g.lines if l not in removed) + added
    return Geometry(13, lines)


def test_sts13_pair_needs_certificates():
    """The two Steiner triple systems on 13 points share every cheap
    invariant (26 triples, 6 lines per point, complete collinearity graph),
    so no invariant separates them.  Within the default budget the lockstep
    search settles the pair by exhausting every branch; their canonical
    certificates differ as well, and each is invariant under relabeling."""
    a = _cyclic_sts13()
    b = _switched_sts13()
    for g in (a, b):
        assert len(g.lines) == 26
        assert {len(t) for t in g.lines_by_point} == {6}
        from nearhex import metrics, validate_pls

        assert validate_pls(g).ok
        assert metrics(g) == (True, 1)
    verdict = are_isomorphic(a, b)
    assert not verdict.isomorphic
    assert verdict.detail.startswith("refinement search exhausted")
    assert canonical_form(a).certificate != canonical_form(b).certificate
    rng = random.Random(13)
    for g in (a, b):
        for _ in range(3):
            perm = list(range(13))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)).certificate == canonical_form(g).certificate


def test_certificates_decide_when_the_search_budget_runs_out(monkeypatch):
    import nearhex.iso

    monkeypatch.setattr(nearhex.iso, "_SEARCH_BUDGET", 10)
    verdict = are_isomorphic(_cyclic_sts13(), _switched_sts13())
    assert not verdict.isomorphic
    assert verdict.detail == "canonical certificate mismatch"


def test_certificate_bijection_when_the_search_budget_runs_out(monkeypatch, h3, h3_partitions):
    import nearhex.iso

    monkeypatch.setattr(nearhex.iso, "_SEARCH_BUDGET", 10)
    verdict = are_isomorphic(h3, h3_partitions)
    assert verdict.isomorphic
    assert verdict.detail == "bijection derived from equal canonical certificates"
    assert_mapping_valid(h3, h3_partitions, verdict.mapping)


def test_sts13_verdict_agrees_with_networkx():
    """Independent cross-check of the isomorphism decision procedure.

    Non-isomorphism is proved on the block-intersection graphs (one vertex
    per triple, two triples adjacent when they share a point), 26 vertices
    against the incidence graphs' 39.  An isomorphism of the two systems
    would carry one block-intersection graph onto the other, so graphs that
    are not isomorphic prove that the systems are not either."""
    nx = pytest.importorskip("networkx")

    def incidence_graph(g):
        graph = nx.Graph()
        for p in range(g.point_count):
            graph.add_node(("p", p))
        for line in g.lines:
            graph.add_node(("l", line))
            for p in line:
                graph.add_edge(("p", p), ("l", line))
        return graph

    def block_intersection_graph(g):
        graph = nx.Graph()
        graph.add_nodes_from(g.lines)
        graph.add_edges_from(
            (x, y) for x, y in combinations(g.lines, 2) if set(x) & set(y)
        )
        return graph

    a = _cyclic_sts13()
    b = _switched_sts13()
    assert not are_isomorphic(a, b).isomorphic
    assert not nx.vf2pp_is_isomorphic(block_intersection_graph(a), block_intersection_graph(b))
    shuffled = relabel(a, [(3 * p + 1) % 13 for p in range(13)])
    assert nx.vf2pp_is_isomorphic(incidence_graph(a), incidence_graph(shuffled))
    assert are_isomorphic(a, shuffled).isomorphic


# -- the counting refinement against the split loop it replaced -----------


def naive_refine(adj, cells, active):
    """Split every cell of two or more by neighbour counts in each active
    splitter set, queueing every fragment, until nothing changes."""
    work = deque(active)
    nonsingleton = sum(1 for c in cells if len(c) > 1)
    while work and nonsingleton:
        splitter = work.popleft()
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            buckets = {}
            for v in cell:
                buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            if len(buckets) == 1:
                out.append(cell)
            else:
                nonsingleton -= 1
                for key in sorted(buckets):
                    group = buckets[key]
                    out.append(group)
                    work.append(mask_of(group))
                    if len(group) > 1:
                        nonsingleton += 1
        cells = out
    return cells


def cells_of(part):
    """The cells of a partition, after checking its bookkeeping."""
    cells = [part.lab[s : part.end[s]] for s in part.starts()]
    assert sorted(part.lab) == list(range(len(part.lab)))
    assert all(part.pos[v] == i for i, v in enumerate(part.lab))
    assert all(part.cell_of[v] == s for s in part.starts() for v in part.lab[s : part.end[s]])
    assert part.open == sum(len(c) > 1 for c in cells)
    return cells


def assert_equitable(nbrs, cells):
    for x in cells:
        for y in map(set, cells):
            assert len({len(y.intersection(nbrs[v])) for v in x}) == 1


@given(small_geometries(), st.data())
@settings(max_examples=200, deadline=None)
def test_refine_matches_the_naive_split_loop(g, data):
    nbrs = _incidence_neighbours(g)
    adj = [mask_of(vs) for vs in nbrs]
    part = _Partition.points_then_lines(g.point_count, len(nbrs))
    base = cells_of(part)
    trace = []
    assert _refine(nbrs, part, part.starts(), trace)
    refined = cells_of(part)
    want = naive_refine(adj, base, [mask_of(c) for c in base])
    assert {frozenset(c) for c in refined} == {frozenset(c) for c in want}
    assert_equitable(nbrs, refined)

    # a relabeled copy replays the same trace, to the image partition
    perm = data.draw(st.permutations(range(g.point_count)))
    copy = relabel(g, perm)
    nbrs_copy = _incidence_neighbours(copy)
    line_index = {line: li for li, line in enumerate(copy.lines)}
    image = perm + [
        g.point_count + line_index[tuple(sorted(perm[p] for p in line))] for line in g.lines
    ]
    part_copy = _Partition.points_then_lines(copy.point_count, len(nbrs_copy))
    assert _refine(nbrs_copy, part_copy, part_copy.starts(), trace, replay=True)
    assert [set(c) for c in cells_of(part_copy)] == [{image[u] for u in c} for c in refined]

    # individualize one vertex of a cell of two or more, queue only it
    choices = [v for v in part.lab if part.end[part.cell_of[v]] - part.cell_of[v] > 1]
    if not choices:
        return
    v = data.draw(st.sampled_from(choices))
    target = part.cell_of[v]
    part.individualize(target, v)
    trace = []
    assert _refine(nbrs, part, [target], trace)
    refined = cells_of(part)

    # and so does the copy with the image of v individualized
    assert part_copy.cell_of[image[v]] == target
    part_copy.individualize(target, image[v])
    assert _refine(nbrs_copy, part_copy, [target], trace, replay=True)
    assert [set(c) for c in cells_of(part_copy)] == [{image[u] for u in c} for c in refined]

    split = []
    for cell in want:
        if v in cell:
            rest = [u for u in cell if u != v]
            split += [[v], rest]
            active = [1 << v, mask_of(rest)]
        else:
            split.append(cell)
    want = naive_refine(adj, split, active)
    assert {frozenset(c) for c in refined} == {frozenset(c) for c in want}
    assert_equitable(nbrs, refined)
