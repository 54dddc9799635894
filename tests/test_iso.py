"""Canonical labeling and isomorphism testing.

The relabeling battery drives are_isomorphic over 100 seeded random
relabelings spread across the five built geometries and checks the verdict
against ground truth every time; every returned mapping is re-verified
here as well, independently of the library's own verification.

The counting refinement is checked against the plain split loop it
replaced, kept here as the reference, against a brute-force test of
equitability, and against a relabeled copy that replays its trace to the
image partition, on the incidence graphs of small random geometries; a
traced and an untraced run leave the same partition, and a replay that
stops at an altered entry leaves whole bookkeeping.  The
cheap invariants are checked against a form that takes the distance
census from histograms of the ``distance_rows`` rows, kept here as the
reference too.  The automorphism group order that the walker reports is
checked against a stabiliser-chain count by plain backtracking, and
against the known group orders of the five models.  A corpus of Steiner
triple systems a few Pasch switches from the cyclic STS(13) or PG(3,2),
where cheap invariants collide, cross-checks verdicts with certificates,
networkx and that count.
"""

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearhex import (
    CanonicalForm,
    Geometry,
    GeometryError,
    are_isomorphic,
    are_isomorphic_to,
    canonical_form,
    dual_geometry,
    relabel,
)
from nearhex.geometry import mask_of
from nearhex.iso import (
    _guide,
    _incidence_neighbours,
    _invariant_mismatch,
    _mapping_ok,
    _Partition,
    _refine,
    _Walker,
)
from nearhex.verify import EXPECTED

from strategies import cyclic_sts13, pasch_switched, pasch_switches, pg32_sts15, small_geometries


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


@pytest.mark.parametrize("perm", [[0, 1.0, 2], [0, True, 2]])
def test_relabel_rejects_indices_that_are_not_integers(perm):
    g = Geometry(3, (), ("a", "b", "c"))
    with pytest.raises(GeometryError, match=f"point index {perm[1]!r} is not an integer"):
        relabel(g, perm)


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
    for a, b in combinations((h3, h3_partitions, h3_debruyn), 2):
        verdict = are_isomorphic(a, b)
        assert verdict.isomorphic
        assert_mapping_valid(a, b, verdict.mapping)


def test_are_isomorphic_to_walks_one_guide_for_many_targets(guides, h3, h3_partitions, h3_debruyn, dsp):
    """One reference against a mixed list gives, geometry by geometry, the
    verdict of its own pairwise search, from one walk of the reference's
    first path, and none when no geometry passes the cheap invariants."""
    perm = list(range(105))
    random.Random(105).shuffle(perm)
    line_deleted = Geometry(105, h3.lines[1:], h3.labels)
    shuffled_sts = relabel(cyclic_sts13(), [(5 * p + 2) % 13 for p in range(13)])
    for reference, others, expected in (
        (h3, [relabel(h3, perm), h3_partitions, h3_debruyn, dsp, line_deleted], [True, True, True, False, False]),
        (cyclic_sts13(), [_switched_sts13(), shuffled_sts], [False, True]),
    ):
        guides.clear()
        verdicts = are_isomorphic_to(reference, others)
        assert len(guides) == 1
        assert [v.isomorphic for v in verdicts] == expected
        for g, verdict in zip(others, verdicts):
            assert verdict == are_isomorphic(reference, g)
            if verdict.isomorphic:
                assert_mapping_valid(reference, g, verdict.mapping)
    guides.clear()
    verdicts = are_isomorphic_to(h3, [dsp, line_deleted])
    assert [v.detail for v in verdicts] == ["point counts differ: 105 vs 135", "line counts differ: 210 vs 209"]
    assert are_isomorphic_to(h3, []) == []
    assert guides == []


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


def _switched_sts13():
    """The other Steiner triple system on 13 points, obtained from the
    cyclic one by trading the Pasch configuration
    {0,6,8},{0,3,12},{1,6,12},{1,3,8} for
    {0,6,12},{0,3,8},{1,6,8},{1,3,12}."""
    g = cyclic_sts13()
    removed = {(0, 6, 8), (0, 3, 12), (1, 6, 12), (1, 3, 8)}
    added = ((0, 6, 12), (0, 3, 8), (1, 6, 8), (1, 3, 12))
    lines = tuple(l for l in g.lines if l not in removed) + added
    return Geometry(13, lines)


def test_sts13_pair_needs_certificates():
    """The two Steiner triple systems on 13 points share every cheap
    invariant (26 triples, 6 lines per point, complete collinearity graph),
    so no invariant separates them.  The guided walk settles the pair by
    exhausting its tree; their canonical certificates differ as well, and
    each is invariant under relabeling."""
    a = cyclic_sts13()
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


def test_root_trace_mismatch_exhausts_without_a_node():
    """These two share every cheap invariant, but their root refinements
    differ, so the guided walk ends before its first node."""
    g1 = Geometry(5, ((0, 1, 4), (0, 2), (0, 3, 4), (1, 2), (1, 3), (2, 3, 4), (2, 4)))
    g2 = Geometry(5, ((0, 1, 3), (0, 2, 3), (0, 4), (1, 2), (1, 4), (2, 3, 4), (2, 4)))
    assert _invariant_mismatch(g1, g2) is None
    walker = _Walker(g2, _guide(g1))
    part = _Partition.points_then_lines(5, walker.n)
    assert not walker._refine(part, part.starts(), 0)
    verdict = are_isomorphic(g1, g2)
    assert not verdict.isomorphic and verdict.mapping is None
    assert verdict.detail == "refinement search exhausted: no line-preserving bijection"


def test_exhaustion_after_failed_leaves_prunes_by_automorphisms():
    """Guided by the cyclic system, the walk on the switched one reaches
    leaves whose bijections fail, and the automorphisms their equal
    certificates give prune the rest of the tree."""
    walker = _Walker(_switched_sts13(), _guide(cyclic_sts13()))
    walker.run()
    assert walker.mapping is None and walker.first is not None and walker.autos
    verdict = are_isomorphic(cyclic_sts13(), _switched_sts13())
    assert not verdict.isomorphic and verdict.mapping is None
    assert verdict.detail == "refinement search exhausted: no line-preserving bijection"


def test_exhaustion_below_the_root_without_a_leaf():
    """Guided by the switched system, the walk on the cyclic one passes the
    root but no child replays the trace all the way down to a leaf."""
    walker = _Walker(cyclic_sts13(), _guide(_switched_sts13()))
    part = _Partition.points_then_lines(13, walker.n)
    assert walker._refine(part, part.starts(), 0)
    walker.run()
    assert walker.mapping is None and walker.first is None
    verdict = are_isomorphic(_switched_sts13(), cyclic_sts13())
    assert not verdict.isomorphic and verdict.mapping is None
    assert verdict.detail == "refinement search exhausted: no line-preserving bijection"


def test_empty_geometries():
    none = are_isomorphic(Geometry(0, ()), Geometry(0, ()))
    assert none.isomorphic and none.mapping == ()
    assert canonical_form(Geometry(0, ())) == CanonicalForm((0, 0, ()), (), 1)
    three = are_isomorphic(Geometry(3, ()), Geometry(3, ()))
    assert three.isomorphic
    assert_mapping_valid(Geometry(3, ()), Geometry(3, ()), three.mapping)
    assert canonical_form(Geometry(3, ())).aut_order == 6


def pasch_counts(g):
    """How many Pasch configurations hold each point and each line of a
    Steiner triple system: an isomorphism invariant, used to label the
    vertices of the graphs that networkx compares."""
    counts = dict.fromkeys([*range(g.point_count), *g.lines], 0)
    for old, _ in pasch_switches(g.lines):
        for line in old:
            counts[line] += 1
        for p in set().union(*old):
            counts[p] += 1
    return counts


def incidence_graph(nx, g):
    """The incidence graph, each vertex labelled by its side and its Pasch
    count."""
    counts = pasch_counts(g)
    graph = nx.Graph()
    for p in range(g.point_count):
        graph.add_node(("p", p), label=("p", counts[p]))
    for line in g.lines:
        graph.add_node(("l", line), label=("l", counts[line]))
        for p in line:
            graph.add_edge(("p", p), ("l", line))
    return graph


def block_intersection_graph(nx, g):
    """One vertex per triple, labelled by its Pasch count; two triples are
    adjacent when they share a point.  An isomorphism of two systems
    carries one such graph onto the other, so graphs that are not
    isomorphic prove that the systems are not either."""
    counts = pasch_counts(g)
    graph = nx.Graph()
    for line in g.lines:
        graph.add_node(line, label=counts[line])
    graph.add_edges_from((x, y) for x, y in combinations(g.lines, 2) if set(x) & set(y))
    return graph


def networkx_isomorphic(nx, a, b):
    """Decide isomorphism with networkx ``vf2pp``: first on the
    block-intersection graphs, whose 26 or 35 vertices against the incidence
    graphs' 39 or 50 make a refusal cheap, then on the incidence graphs."""
    if not nx.vf2pp_is_isomorphic(
        block_intersection_graph(nx, a), block_intersection_graph(nx, b), node_label="label"
    ):
        return False
    return nx.vf2pp_is_isomorphic(incidence_graph(nx, a), incidence_graph(nx, b), node_label="label")


def test_a_verdict_is_true_exactly_when_isomorphic(w2, grid33):
    assert bool(are_isomorphic(w2, dual_geometry(w2))) is True
    assert bool(are_isomorphic(w2, grid33)) is False


def test_sts13_verdict_agrees_with_networkx():
    """Independent cross-check of the isomorphism decision procedure.

    Non-isomorphism is proved on the block-intersection graphs, and a
    relabeled copy is confirmed on the incidence graphs.  The vertices
    carry Pasch counts as labels, which every isomorphism preserves, so
    the proofs stand as they would unlabelled."""
    nx = pytest.importorskip("networkx")
    a = cyclic_sts13()
    b = _switched_sts13()
    assert not are_isomorphic(a, b).isomorphic
    assert not nx.vf2pp_is_isomorphic(
        block_intersection_graph(nx, a), block_intersection_graph(nx, b), node_label="label"
    )
    shuffled = relabel(a, [(3 * p + 1) % 13 for p in range(13)])
    assert nx.vf2pp_is_isomorphic(incidence_graph(nx, a), incidence_graph(nx, shuffled), node_label="label")
    assert are_isomorphic(a, shuffled).isomorphic


# -- |Aut| against a stabiliser chain; the Pasch-switch corpus -----------


def aut_order_by_stabiliser_chain(g):
    """The order of the automorphism group without the refinement walker:
    the product, over the points in turn, of the orbit length of point
    ``i`` under the automorphisms that fix the points before it.  Point
    ``c`` is in that orbit when a backtracking search extends the map
    ``j -> j`` (``j < i``), ``i -> c`` to a permutation carrying every line
    onto a line.  The points are first renumbered so that each closes as
    many lines as it can, and a point that closes a line may only go where
    it completes the image of the line's other points to a line."""
    n = g.point_count
    order = []
    while len(order) < n:
        done = set(order)

        def closed(p):
            return sum(set(line) - {p} <= done for line in g.lines if p in line)

        order.append(max((p for p in range(n) if p not in done), key=lambda p: (closed(p), -p)))
    rank = {p: i for i, p in enumerate(order)}
    degree = [0] * n
    closing = [[] for _ in range(n)]  # per point, the lines it closes, less itself
    completes = {}  # a line less one point -> the points that complete it
    for line in g.lines:
        line = sorted(rank[p] for p in line)
        closing[line[-1]].append(line[:-1])
        for p in line:
            degree[p] += 1
            completes.setdefault(tuple(q for q in line if q != p), set()).add(p)

    def extends(images):
        i = len(images)
        if i == n:
            return True
        options = set(range(n)) - set(images)
        for rest in closing[i]:
            options &= completes.get(tuple(sorted(images[q] for q in rest)), set())
        return any(degree[c] == degree[i] and extends(images + [c]) for c in sorted(options))

    total = 1
    for i in range(n):
        total *= sum(extends(list(range(i)) + [c]) for c in range(i, n))
    return total


@given(small_geometries())
@settings(max_examples=200, deadline=None)
def test_aut_order_matches_the_stabiliser_chain(g):
    assert canonical_form(g).aut_order == aut_order_by_stabiliser_chain(g)


def test_aut_order_of_the_models(w2, h3, h3_partitions, h3_debruyn, dsp):
    """|S6| for W(2), |S8| for each 105-point model and |Sp(6,2)| for the
    135-point space, the same on a relabeling of each."""
    rng = random.Random(720)
    for name, g in (("w2", w2), ("h3", h3), ("h3-partition", h3_partitions),
                    ("h3-debruyn", h3_debruyn), ("dsp62", dsp)):
        perm = list(range(g.point_count))
        rng.shuffle(perm)
        for copy in (g, relabel(g, perm)):
            assert canonical_form(copy).aut_order == EXPECTED[name].aut_order


def test_is_automorphism_accepts_the_walkers_automorphisms(w2, h3, h3_partitions, h3_debruyn, dsp):
    """Every automorphism the walker keeps passes the one-sided check and,
    independently, carries each line vertex onto the vertex of the image
    line, with its points onto that line's points."""
    for g in (w2, h3, h3_partitions, h3_debruyn, dsp):
        walker = _Walker(g)
        walker.run()
        assert walker.autos
        n_points = g.point_count
        line_index = {line: li for li, line in enumerate(g.lines)}
        for sigma in walker.autos:
            assert walker._is_automorphism(sigma)
            assert sorted(sigma[:n_points]) == list(range(n_points))
            for li, line in enumerate(g.lines):
                image = tuple(sorted(sigma[p] for p in line))
                assert sigma[n_points + li] == n_points + line_index[image]


def test_is_automorphism_rejects_a_swap(w2, h3, h3_partitions, h3_debruyn, dsp):
    """The identity with two line vertices swapped sends a line to another
    while it keeps the first line's points; the identity with two points
    swapped moves the points of a line that holds one of them and not the
    other, while it keeps that line."""
    for g in (w2, h3, h3_partitions, h3_debruyn, dsp):
        walker = _Walker(g)
        n_points = g.point_count
        assert walker._is_automorphism(list(range(walker.n)))
        sigma = list(range(walker.n))
        sigma[n_points], sigma[n_points + 1] = n_points + 1, n_points
        assert not walker._is_automorphism(sigma)
        swap = [1, 0, *range(2, n_points)]
        assert relabel(g, swap).line_set != g.line_set  # no automorphism swaps 0 and 1 alone
        assert not walker._is_automorphism(swap + list(range(n_points, walker.n)))


def test_mapping_ok_rejects_a_map_that_is_not_injective():
    """[0, 1, 0, 1] carries each of two disjoint 2-point lines onto a line,
    yet two points share each image, so it is no bijection."""
    lines = [(0, 1), (2, 3)]
    mapping = [0, 1, 0, 1]
    assert all(tuple(sorted(mapping[p] for p in line)) in lines for line in lines)
    assert not _mapping_ok(lines, frozenset(lines), mapping)
    assert _mapping_ok(lines, frozenset(lines), [2, 3, 0, 1])


@given(st.sampled_from([cyclic_sts13(), pg32_sts15()]).flatmap(
    lambda base: st.tuples(
        pasch_switched(base), pasch_switched(base), st.permutations(range(base.point_count))
    )
))
@settings(max_examples=10, deadline=None)
def test_pasch_switched_pairs(drawn):
    """Steiner triple systems a few Pasch switches from the cyclic STS(13)
    or from PG(3,2), where cheap invariants collide.  On two such systems
    the verdict matches the certificates and networkx; one of them against
    a relabeled copy is isomorphic with equal certificates; every mapping
    carries lines onto lines; and |Aut| matches the stabiliser chain."""
    nx = pytest.importorskip("networkx")
    a, b, perm = drawn
    form_a, form_b = canonical_form(a), canonical_form(b)
    verdict = are_isomorphic(a, b)
    assert verdict.isomorphic == (form_a.certificate == form_b.certificate)
    assert verdict.isomorphic == networkx_isomorphic(nx, a, b)
    if verdict.isomorphic:
        assert_mapping_valid(a, b, verdict.mapping)
    copy = relabel(a, perm)
    assert canonical_form(copy).certificate == form_a.certificate
    verdict = are_isomorphic(a, copy)
    assert verdict.isomorphic
    assert_mapping_valid(a, copy, verdict.mapping)
    for g, form in ((a, form_a), (b, form_b)):
        assert form.aut_order == aut_order_by_stabiliser_chain(g)


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


def incidence_image(g, perm, copy):
    """Where each incidence-graph vertex of ``g`` goes in ``copy``, which is
    ``relabel(g, perm)``."""
    line_index = {line: li for li, line in enumerate(copy.lines)}
    return perm + [
        g.point_count + line_index[tuple(sorted(perm[p] for p in line))] for line in g.lines
    ]


def state(part):
    """Everything a refinement leaves in a partition."""
    return part.lab, part.pos, part.cell_of, part.end, part.open


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


def assert_altered_replays_stop_whole(nbrs, part, splitters, trace):
    """A replay from a copy of ``part`` stops at any one entry of ``trace``
    made to differ, and leaves a partition whose bookkeeping holds."""
    for k, entry in enumerate(trace):
        stopped = part.copy()
        altered = trace[:k] + [(*entry[:-1], entry[-1] + 1)]
        assert not _refine(nbrs, stopped, splitters, altered, replay=True)
        cells_of(stopped)


@given(small_geometries(), st.data())
@settings(max_examples=200, deadline=None)
def test_refine_matches_the_naive_split_loop(g, data):
    nbrs = _incidence_neighbours(g)
    adj = [mask_of(vs) for vs in nbrs]
    part = _Partition.points_then_lines(g.point_count, len(nbrs))
    base = cells_of(part)
    untraced = part.copy()
    trace = []
    assert _refine(nbrs, part, part.starts(), trace)
    refined = cells_of(part)
    assert _refine(nbrs, untraced, untraced.starts())
    assert state(untraced) == state(part)
    want = naive_refine(adj, base, [mask_of(c) for c in base])
    assert {frozenset(c) for c in refined} == {frozenset(c) for c in want}
    assert_equitable(nbrs, refined)

    # a relabeled copy replays the same trace, to the image partition
    perm = data.draw(st.permutations(range(g.point_count)))
    copy = relabel(g, perm)
    nbrs_copy = _incidence_neighbours(copy)
    image = incidence_image(g, perm, copy)
    part_copy = _Partition.points_then_lines(copy.point_count, len(nbrs_copy))
    assert_altered_replays_stop_whole(nbrs_copy, part_copy, part_copy.starts(), trace)
    assert _refine(nbrs_copy, part_copy, part_copy.starts(), trace, replay=True)
    assert [set(c) for c in cells_of(part_copy)] == [{image[u] for u in c} for c in refined]

    # individualize one vertex of a cell of two or more, queue only it
    choices = [v for v in part.lab if part.end[part.cell_of[v]] - part.cell_of[v] > 1]
    if not choices:
        return
    v = data.draw(st.sampled_from(choices))
    target = part.cell_of[v]
    part.individualize(target, v)
    untraced = part.copy()
    trace = []
    assert _refine(nbrs, part, [target], trace)
    refined = cells_of(part)
    assert _refine(nbrs, untraced, [target])
    assert state(untraced) == state(part)

    # and so does the copy with the image of v individualized
    assert part_copy.cell_of[image[v]] == target
    part_copy.individualize(target, image[v])
    individualized = part_copy.copy()
    assert _refine(nbrs_copy, part_copy, [target], trace, replay=True)
    assert [set(c) for c in cells_of(part_copy)] == [{image[u] for u in c} for c in refined]

    assert_altered_replays_stop_whole(nbrs_copy, individualized, [target], trace)

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


class UnitMarkingTrace(list):
    """A refinement trace that also notes, per entry, whether its splitter
    was a unit cell when it split: a splitter never touches its own cell in
    the bipartite incidence graph, so its size is unchanged at that point."""

    def __init__(self, part):
        super().__init__()
        self.part = part
        self.unit = []

    def append(self, entry):
        self.unit.append(self.part.end[entry[0]] - entry[0] == 1)
        super().append(entry)


def test_replay_fails_at_an_altered_unit_split_entry(h3):
    """Individualize a vertex of h3 and record the trace; a relabeled copy
    with the image vertex individualized replays it, and the replay fails
    once any one entry written by a unit splitter has its size altered."""
    nbrs = _incidence_neighbours(h3)
    part = _Partition.points_then_lines(h3.point_count, len(nbrs))
    assert _refine(nbrs, part, part.starts())
    target = part.target()
    v = part.lab[target]
    part.individualize(target, v)
    trace = UnitMarkingTrace(part)
    assert _refine(nbrs, part, [target], trace)
    unit_entries = [k for k, unit in enumerate(trace.unit) if unit]
    assert unit_entries and trace.unit[0] and len(unit_entries) < len(trace)
    assert any(len(trace[k]) == 6 for k in unit_entries)  # a split with an untouched front

    perm = list(range(h3.point_count))
    random.Random(14).shuffle(perm)
    copy = relabel(h3, perm)
    nbrs_copy = _incidence_neighbours(copy)
    root = _Partition.points_then_lines(copy.point_count, len(nbrs_copy))
    assert _refine(nbrs_copy, root, root.starts())
    image = incidence_image(h3, perm, copy)[v]
    assert root.cell_of[image] == target

    def replay(entries):
        child = root.copy()
        child.individualize(target, image)
        replayed = _refine(nbrs_copy, child, [target], list(entries), replay=True)
        cells_of(child)  # a replay that stops leaves a whole partition
        return replayed

    assert replay(trace)
    for k in unit_entries:
        altered = list(trace)
        altered[k] = (*trace[k][:-1], trace[k][-1] + 1)
        assert not replay(altered)


def test_replay_fails_on_a_uniform_count_alone(w2):
    """At the root, each of w2's two cells is touched whole, with one
    count, by the other: every line has 3 points and every point lies on 3
    lines.  A 15-gon has as many points and lines, but 2 of each, so only
    those counts tell the two root traces apart, and its replay of w2's
    fails."""
    nbrs = _incidence_neighbours(w2)
    part = _Partition.points_then_lines(w2.point_count, len(nbrs))
    trace = []
    assert _refine(nbrs, part, part.starts(), trace)
    assert trace == [(0, 15, 3, 15), (15, 0, 3, 15)]
    assert len(cells_of(part)) == 2

    polygon = Geometry(15, tuple(tuple(sorted((p, (p + 1) % 15))) for p in range(15)))
    nbrs = _incidence_neighbours(polygon)
    part = _Partition.points_then_lines(polygon.point_count, len(nbrs))
    assert not _refine(nbrs, part, part.starts(), trace, replay=True)
    assert len(cells_of(part)) == 2
