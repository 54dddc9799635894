"""The four labelled geometries, including the worked micro-examples."""

import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest

import nearhex.builders
from nearhex import (
    Geometry,
    GeometryError,
    are_isomorphic,
    build_dsp62,
    build_h3_partitions,
    canonical_form,
    enumerate_triads,
    validate_pls,
)
from nearhex.geometry import bits_of
from nearhex.gq22 import EDGE_INDEX, EDGES
from nearhex.labels import Edge, OrderedPair, Pair, Partition, PrimedEdge

from strategies import gq24, pg32_sts15


def eidx(name):
    return EDGE_INDEX[frozenset(int(c) for c in name)]


def pair_index(g, x, u):
    want = (frozenset(x), frozenset(u))
    for i, label in enumerate(g.labels):
        if (label.base.ends, label.prime.ends) == want:
            return i
    raise AssertionError(f"no point ({x},{u}')")


# ---- the 105-point hexagon, glued model --------------------------------


def test_h3_counts(h3):
    assert h3.point_count == 105
    assert len(h3.lines) == 210
    assert validate_pls(h3).ok
    assert {len(t) for t in h3.lines_by_point} == {6}
    assert all(isinstance(l, Pair) for l in h3.labels)


def test_h3_line_count_identity(h3):
    # v(t+1)/(s+1) with 6 lines per point and 3 points per line
    assert len(h3.lines) == 105 * 6 // 3
    # and 35 base triples, 6 bijections each
    assert len(h3.lines) == 35 * 6


def test_h3_identity_and_swap_lines_from_a_factor(h3):
    # base triple {12,34,56}: its primed perp is {12',34',56'}, so both the
    # identity pairing and a swapped pairing must appear among the lines
    identity = tuple(
        sorted(
            (
                pair_index(h3, (1, 2), (1, 2)),
                pair_index(h3, (3, 4), (3, 4)),
                pair_index(h3, (5, 6), (5, 6)),
            )
        )
    )
    swapped = tuple(
        sorted(
            (
                pair_index(h3, (1, 2), (1, 2)),
                pair_index(h3, (3, 4), (5, 6)),
                pair_index(h3, (5, 6), (3, 4)),
            )
        )
    )
    assert identity in h3.line_set
    assert swapped in h3.line_set


def test_h3_point_membership_condition(h3):
    from nearhex.labels import perp_related

    for label in h3.labels:
        assert perp_related(label.base.ends, label.prime.ends)


def test_h3_line_type_split_per_point(h3):
    """Diagonal points draw their 6 lines from 3 base lines; off-diagonal
    points from 1 base line and 2 complete triads, 2 bijections each."""
    from nearhex.labels import perp_related

    by_point = h3.lines_by_point
    for i, label in enumerate(h3.labels):
        base_triples = Counter()
        for li in by_point[i]:
            firsts = frozenset(h3.labels[p].base.ends for p in h3.lines[li])
            kinds = "line" if all(
                a.isdisjoint(b) for a, b in combinations(firsts, 2)
            ) else "triad"
            base_triples[(firsts, kinds)] += 1
        assert all(v == 2 for v in base_triples.values())
        kinds = Counter(k for (_, k), v in base_triples.items())
        if label.base.ends == label.prime.ends:
            assert kinds == {"line": 3}
        else:
            assert kinds == {"line": 1, "triad": 2}


# ---- the 135-point extension -------------------------------------------


def test_dsp_counts(dsp):
    assert dsp.point_count == 135
    assert len(dsp.lines) == 315
    assert validate_pls(dsp).ok
    assert {len(t) for t in dsp.lines_by_point} == {7}


def test_dsp_label_layout(dsp):
    assert all(isinstance(l, Pair) for l in dsp.labels[:105])
    assert all(isinstance(l, Edge) for l in dsp.labels[105:120])
    assert all(isinstance(l, PrimedEdge) for l in dsp.labels[120:135])


def test_dsp_glue_line_through_pair_point(dsp, h3):
    i = pair_index(h3, (1, 2), (3, 4))
    line = tuple(sorted((i, 105 + eidx("12"), 120 + eidx("34"))))
    assert line in dsp.line_set


def test_dsp_no_collinearity_inside_copies(dsp):
    adj = dsp.adjacency
    for a in range(105, 120):
        for b in range(a + 1, 120):
            assert not adj[a] >> b & 1
    for a in range(120, 135):
        for b in range(a + 1, 135):
            assert not adj[a] >> b & 1


def test_dsp_cross_collinearity_matches_membership(dsp, h3):
    pair_points = {
        (label.base.ends, label.prime.ends) for label in h3.labels
    }
    adj = dsp.adjacency
    for a in range(105, 120):
        for b in range(120, 135):
            expected = (dsp.labels[a].ends, dsp.labels[b].ends) in pair_points
            assert bool(adj[a] >> b & 1) == expected


def _relabeled(h3, i, label):
    labels = list(h3.labels)
    labels[i] = label
    return Geometry(105, h3.lines, tuple(labels))


def _triad_line(h3):
    """Three pairwise non-collinear points of ``h3`` off its first line, to
    stand in for that line."""
    adj, first = h3.adjacency, set(h3.lines[0])
    for t in combinations(range(105), 3):
        a, b, c = t
        if first.isdisjoint(t) and not (adj[a] >> b & 1 or adj[a] >> c & 1 or adj[b] >> c & 1):
            return t
    raise AssertionError("no triad")


def test_dsp_rejects_wrong_input(w2):
    with pytest.raises(GeometryError, match="^input must be the 105-point hexagon with Pair labels$"):
        build_dsp62(w2)


BAD_HEXAGONS = {
    "no labels": (
        lambda h3: Geometry(105, h3.lines),
        "input must be the 105-point hexagon with Pair labels",
    ),
    "edge label": (
        lambda h3: _relabeled(h3, 3, Edge(frozenset({1, 2}))),
        "point 3 lacks a Pair label",
    ),
    "not perp-related": (
        lambda h3: _relabeled(h3, 3, Pair(Edge(frozenset({1, 2})), PrimedEdge(frozenset({1, 3})))),
        "construction failure: point 3 label (12,13') is not perp-related",
    ),
    "repeated label": (
        lambda h3: _relabeled(h3, 1, h3.labels[0]),
        "construction failure: two lines share two points",
    ),
    "too few lines": (
        lambda h3: Geometry(105, h3.lines[1:], h3.labels),
        "construction failure: expected 315 lines, got 314",
    ),
    "uneven lines per point": (
        lambda h3: Geometry(105, h3.lines[1:] + (_triad_line(h3),), h3.labels),
        "construction failure: lines per point [6, 7, 8], expected {7}",
    ),
}


@pytest.mark.parametrize("case", BAD_HEXAGONS)
def test_dsp_input_check_fires(h3, case):
    """Each check on ``build_dsp62``'s input fires on a hexagon changed in
    one place, with its own message."""
    make, message = BAD_HEXAGONS[case]
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        build_dsp62(make(h3))


# ---- the partition model ------------------------------------------------


def test_partition_model_counts(h3_partitions):
    g = h3_partitions
    assert g.point_count == 105
    assert len(g.lines) == 210
    assert validate_pls(g).ok
    assert {len(t) for t in g.lines_by_point} == {6}
    assert all(isinstance(l, Partition) for l in g.labels)


def test_partition_line_sharing_12_34(h3_partitions):
    g = h3_partitions
    blocks = (frozenset({1, 2}), frozenset({3, 4}))
    members = [
        i
        for i, label in enumerate(g.labels)
        if set(blocks) <= label.blocks
    ]
    assert len(members) == 3
    assert tuple(sorted(members)) in g.line_set
    rendered = sorted(str(g.labels[i]) for i in members)
    assert rendered == [
        "{12,34,56,78}",
        "{12,34,57,68}",
        "{12,34,58,67}",
    ]


def test_partitions_reject_a_repeated_matching(monkeypatch):
    original = nearhex.builders._matchings

    def repeating(items):
        out = original(items)
        if len(items) == 8:
            out[-1] = out[0]
        return out

    monkeypatch.setattr(nearhex.builders, "_matchings", repeating)
    with pytest.raises(GeometryError, match="^construction failure: expected 105 matchings, got 104$"):
        build_h3_partitions()


# ---- the flag model -----------------------------------------------------


def test_debruyn_counts(debruyn):
    g = debruyn.geometry
    assert g.point_count == 105
    assert len(g.lines) == 210
    assert validate_pls(g).ok
    assert debruyn.type_counts == {"i": 15, "ii": 45, "iii": 30, "iv": 120}
    assert all(isinstance(l, OrderedPair) for l in g.labels)


def opair_index(g, x, y):
    want = (frozenset(x), frozenset(y))
    for i, label in enumerate(g.labels):
        if (label.first.ends, label.second.ends) == want:
            return i
    raise AssertionError(f"no point ({x},{y})")


def test_debruyn_cycle_lines_of_a_factor(h3_debruyn):
    g = h3_debruyn
    one = tuple(
        sorted(
            (
                opair_index(g, (1, 2), (3, 4)),
                opair_index(g, (3, 4), (5, 6)),
                opair_index(g, (5, 6), (1, 2)),
            )
        )
    )
    other = tuple(
        sorted(
            (
                opair_index(g, (1, 2), (5, 6)),
                opair_index(g, (5, 6), (3, 4)),
                opair_index(g, (3, 4), (1, 2)),
            )
        )
    )
    assert one in g.line_set
    assert other in g.line_set
    assert one != other


def test_debruyn_worked_swap_line(h3_debruyn):
    """Line triad k={12,34,56}, m={13,25,46}, n={14,26,35} has centre
    l={12,35,46}; choosing 34 on k forces 13 on m and 14 on n."""
    g = h3_debruyn
    line = tuple(
        sorted(
            (
                opair_index(g, (1, 2), (3, 4)),
                opair_index(g, (4, 6), (1, 3)),
                opair_index(g, (3, 5), (1, 4)),
            )
        )
    )
    assert line in g.line_set


def test_debruyn_escort_triads_recorded(debruyn):
    assert len(debruyn.escort_triads) == 120
    kinds = debruyn.escort_kind_counts
    assert kinds["complete"] + kinds["incomplete"] == 120
    # sometimes described as incomplete; the census finds every one of
    # them complete
    assert kinds == {"complete": 120, "incomplete": 0}


def test_debruyn_escort_check_fires(monkeypatch):
    """An escort triad whose perp has 2 points stops the census: each is
    classified with its first point's closed neighbourhood one centre short."""
    original = nearhex.builders._classify_triad

    def one_centre_short(closed, elems, mode):
        a, b, c = elems
        centres = closed[a] & closed[b] & closed[c]
        short = list(closed)
        short[a] &= ~(centres & -centres)
        return original(short, elems, mode)

    monkeypatch.setattr(nearhex.builders, "_classify_triad", one_centre_short)
    message = r"^triad \(\d+, \d+, \d+\) has perp of size 2; expected 1 or 3$"
    with pytest.raises(GeometryError, match=message):
        nearhex.builders.debruyn_census()


def _perfect_matchings(items):
    """The perfect matchings of ``items`` as tuples of pairs, in
    lexicographic order."""
    if not items:
        return [()]
    first = items[0]
    return sorted(
        ((first, second),) + rest
        for second in items[1:]
        for rest in _perfect_matchings([x for x in items[1:] if x != second])
    )


def test_build_w2_lines_are_the_disjoint_triples(w2):
    """The factors, emitted as the perfect matchings of the 6-set, are the
    triples of pairwise disjoint edges among all 455."""
    disjoint = tuple(
        trip
        for trip in combinations(range(15), 3)
        if all(EDGES[i].isdisjoint(EDGES[j]) for i, j in combinations(trip, 2))
    )
    assert w2.lines == disjoint
    matchings = _perfect_matchings(list(range(1, 7)))
    assert [tuple(EDGE_INDEX[frozenset(e)] for e in m) for m in matchings] == list(disjoint)


def test_labels_equal_fresh_ones(w2, h3, dsp, h3_partitions, h3_debruyn):
    """Each model's labels equal labels built afresh, one object per point,
    by ``==`` and by ``str``; the builders share one Edge or PrimedEdge
    object per edge of a call among the points."""
    perp_pairs = [
        (x, u) for x in range(15) for u in range(15) if x == u or EDGES[x].isdisjoint(EDGES[u])
    ]
    pairs = [Pair(Edge(EDGES[x]), PrimedEdge(EDGES[u])) for x, u in perp_pairs]
    fresh = {
        "w2": (w2, [Edge(e) for e in EDGES]),
        "h3": (h3, pairs),
        "dsp62": (dsp, pairs + [Edge(e) for e in EDGES] + [PrimedEdge(e) for e in EDGES]),
        "h3-partition": (
            h3_partitions,
            [
                Partition(frozenset(frozenset(b) for b in m))
                for m in _perfect_matchings(list(range(1, 9)))
            ],
        ),
        "h3-debruyn": (
            h3_debruyn,
            [OrderedPair(Edge(EDGES[x]), Edge(EDGES[y])) for x, y in perp_pairs],
        ),
    }
    for name, (g, want) in fresh.items():
        assert list(g.labels) == want, name
        assert [str(label) for label in g.labels] == [str(label) for label in want], name
    assert len({id(label.base) for label in h3.labels}) == 15
    assert len({id(label.prime) for label in h3.labels}) == 15
    ends = {id(e) for label in h3_debruyn.labels for e in (label.first, label.second)}
    assert len(ends) == 15


def test_determinism_of_builders(h3, h3_partitions, h3_debruyn, dsp):
    from nearhex import (
        build_dsp62,
        build_h3_debruyn,
        build_h3,
        build_h3_partitions,
    )

    assert build_h3() == h3
    assert build_h3_partitions() == h3_partitions
    assert build_h3_debruyn() == h3_debruyn
    assert build_dsp62(build_h3()) == dsp


# ---- the pairing of the two copies --------------------------------------


def _cross(w2):
    """Per point x of W(2), the mask of its perp x^perp, x included."""
    return [a | 1 << x for x, a in enumerate(w2.adjacency)]


def _base_triples(w2):
    """W(2)'s 15 lines and 20 complete triads."""
    complete = [t.elements for t in enumerate_triads(w2, "points") if t.kind == "complete"]
    return list(w2.lines) + complete


def _glued(w2, pi):
    """The construction along the pairing x <-> pi[x]': the points are the
    pairs (x, u') with u' in pi[x]'^perp, and each base triple T of the
    first copy gives one line per bijection of T onto pi(T)'^perp.  None
    when some pi(T)'^perp does not have 3 points."""
    cross = _cross(w2)
    points = [(x, u) for x in range(15) for u in bits_of(cross[pi[x]])]
    index = {p: i for i, p in enumerate(points)}
    lines = []
    for t in _base_triples(w2):
        a, b, c = (pi[x] for x in t)
        t_perp = bits_of(cross[a] & cross[b] & cross[c])
        if len(t_perp) != 3:
            return None
        lines += [tuple(index[p] for p in zip(t, sigma)) for sigma in permutations(t_perp)]
    return Geometry(len(points), tuple(lines))


def _third_points(triples):
    """``third[x, y]``, the third point of the triple through x and y."""
    return {(x, y): z for t in triples for x, y, z in permutations(t)}


def _collineations(triples):
    """Every bijection of 0..14 carrying ``triples``, the lines of PG(3,2),
    onto themselves.  The third points of lines through points already
    reached reach every point from a frame, four points in general
    position; so each collineation is fixed by the frame's image, which is
    a frame again, and every frame's image is tried."""
    third = _third_points(triples)

    def plane(a, b, c):
        line = {a, b, third[a, b]}
        return line | {c} | {third[p, c] for p in line}

    everything = set(range(15))
    f3 = min(everything - {0, 1, third[0, 1]})
    frame = (0, 1, f3, min(everything - plane(0, 1, f3)))
    reached, steps = list(frame), []
    for i, p in enumerate(reached):  # grows as third points are reached
        for q in reached[:i]:
            if third[p, q] not in reached:
                steps.append((third[p, q], p, q))
                reached.append(third[p, q])
    assert len(reached) == 15
    for q1, q2 in permutations(range(15), 2):
        for q3 in everything - {q1, q2, third[q1, q2]}:
            for q4 in everything - plane(q1, q2, q3):
                image = dict(zip(frame, (q1, q2, q3, q4)))
                for k, p, q in steps:
                    image[k] = third[image[p], image[q]]
                yield tuple(image[x] for x in range(15))


W2_STAND_INS = {
    "GQ(2,4)": (
        "build_h3",
        lambda w2: gq24(),
        "construction failure: expected 35 base triples, got 765",
    ),
    "W(2) less a line": (
        "debruyn_census",
        lambda w2: Geometry(15, w2.lines[1:], w2.labels),
        "construction failure: expected 105 points, got 99",
    ),
}


@pytest.mark.parametrize("case", W2_STAND_INS)
def test_w2_check_fires(monkeypatch, w2, case):
    """Each check that ``build_h3`` and ``debruyn_census`` make on the W(2)
    they are built from fires on a stand-in, with its own message."""
    builder, make, message = W2_STAND_INS[case]
    stand_in = make(w2)
    monkeypatch.setattr(nearhex.builders, "build_w2", lambda: stand_in)
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        getattr(nearhex.builders, builder)()


def test_base_triples_are_the_3_sets_with_a_3_point_perp(w2):
    """Of W(2)'s 455 3-sets, exactly its 15 lines and 20 complete triads
    have 3 points in their perp, and they are the lines of PG(3,2)."""
    cross = _cross(w2)
    found = {
        (a, b, c)
        for a, b, c in combinations(range(15), 3)
        if (cross[a] & cross[b] & cross[c]).bit_count() == 3
    }
    triples = _base_triples(w2)
    assert len(triples) == len(set(triples)) == 35
    assert found == set(triples)
    assert are_isomorphic(Geometry(15, tuple(triples)), pg32_sts15()).isomorphic


def test_pairings_that_keep_the_construction_defined(w2, h3):
    """The pairings x <-> pi[x]' along which every base triple of the first
    copy keeps a 3-point perp are the 20,160 collineations of the base
    triples.  720 of them are automorphisms of W(2), and by W(2) lines kept
    they split 720 / 10,800 / 8,640; the construction along one of each
    class is isomorphic to h3.  A random bijection breaks it."""
    triples = _base_triples(w2)
    third, w2_third = _third_points(triples), _third_points(w2.lines)
    pairings = list(_collineations(triples))
    assert len(set(pairings)) == len(pairings) == 20160
    assert canonical_form(Geometry(15, tuple(triples))).aut_order == 20160
    kept = {}
    for pi in pairings:
        assert len(set(pi)) == 15
        assert all(third[pi[a], pi[b]] == pi[c] for a, b, c in triples)
        n = sum(w2_third.get((pi[a], pi[b])) == pi[c] for a, b, c in w2.lines)
        kept.setdefault(n, []).append(pi)
    assert {n: len(group) for n, group in kept.items()} == {15: 720, 7: 10800, 5: 8640}
    assert _glued(w2, range(15)) == Geometry(105, h3.lines)
    for group in kept.values():
        assert are_isomorphic(_glued(w2, group[-1]), h3).isomorphic
    rng = random.Random(2006)
    pairing_set = set(pairings)
    for _ in range(50):
        pi = rng.sample(range(15), 15)
        assert tuple(pi) not in pairing_set
        assert _glued(w2, pi) is None
