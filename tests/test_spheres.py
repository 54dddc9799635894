"""Distance spheres and the set-level routines built on them, checked against
row-based and brute-force definitions on small random geometries.

The random geometries have at most 8 points and lines of 2 to 4 points, so
they include disconnected spaces and spaces where two points share several
lines (not partial linear spaces).
"""

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nearhex.verify
from nearhex import (
    Geometry,
    GeometryError,
    check_np,
    convex_closure,
    convex_closures,
    enumerate_quads,
    is_subspace,
    line_distance_profiles,
    validate_pls,
)
from nearhex.acceptance import run_acceptance
from nearhex.cli import MODELS, main
from nearhex.geometry import UNREACHABLE, _closure_groups, bits_of
from nearhex.iso import relabel

from strategies import distance_two_pairs, gq24, small_geometries
from test_closures import reference_convex_closures


def bfs_rows(g):
    """Distances by a queue-based BFS over the line lists, without bitsets."""
    neighbours = [set() for _ in range(g.point_count)]
    for line in g.lines:
        for p in line:
            neighbours[p].update(q for q in line if q != p)
    rows = []
    for s in range(g.point_count):
        dist = [UNREACHABLE] * g.point_count
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if dist[w] == UNREACHABLE:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


def closed_sets(g):
    """Every set of points that is a subspace and holds every geodesic
    between two of its members, by trying every set."""
    rows = g.distance_rows
    closed = []
    for m in range(1 << g.point_count):
        pts = {p for p in range(g.point_count) if m >> p & 1}
        if not is_subspace(g, pts):
            continue
        if all(
            z in pts
            for a, b in combinations(sorted(pts), 2)
            if rows[a][b] != UNREACHABLE
            for z in range(g.point_count)
            if rows[a][z] != UNREACHABLE and rows[a][z] + rows[z][b] == rows[a][b]
        ):
            closed.append(frozenset(pts))
    return closed


def closure_oracle(g, seed, closed=None):
    """The smallest closed superset of ``seed``, from ``closed_sets(g)``
    unless those are given."""
    supersets = [c for c in closed or closed_sets(g) if seed <= c]
    smallest = min(supersets, key=len)
    # closed sets are closed under intersection, so the smallest is unique
    assert all(smallest <= c for c in supersets)
    return smallest


def check_np_by_rows(g):
    """The point-by-point near-polygon check that ``check_np`` replaces."""
    rows = g.distance_rows
    for li, line in enumerate(g.lines):
        for x in range(g.point_count):
            if x in line:
                continue
            ds = [rows[x][p] for p in line]
            if ds.count(min(ds)) != 1:
                return (False, (x, li))
    return (True, None)


def profiles_by_rows(g, line_indices=None):
    """The point-by-point census that ``line_distance_profiles`` replaces."""
    rows = g.distance_rows
    indices = range(len(g.lines)) if line_indices is None else line_indices
    out = {}
    for li in indices:
        line = g.lines[li]
        for x in range(g.point_count):
            if x not in line:
                profile = tuple(sorted(rows[x][p] for p in line))
                out[profile] = out.get(profile, 0) + 1
    return out


@given(small_geometries())
@settings(max_examples=150, deadline=None)
def test_spheres_match_rows_and_bfs(g):
    rows = g.distance_rows
    assert rows == bfs_rows(g)
    for p, layers in enumerate(g.distance_spheres):
        assert len(layers) == max(rows[p]) + 1
        for k, layer in enumerate(layers):
            assert layer == sum(1 << q for q, d in enumerate(rows[p]) if d == k)


def common_counts_by_pairs(g):
    """``common_counts`` rebuilt pair by pair from the brute-force
    ``distance_two_pairs``."""
    table = [{} for _ in range(g.point_count)]
    for x, y, common in distance_two_pairs(g):
        table[x][common] = table[x].get(common, 0) | 1 << y
    return tuple(table)


@given(small_geometries())
@settings(max_examples=150, deadline=None)
def test_common_counts_match_the_pairs(g):
    assert g.common_counts == common_counts_by_pairs(g)


def test_common_counts_count_a_neighbour_on_two_lines_once():
    # 1 lies on both lines through 0 and 1, so 0 and 4 have one common
    # neighbour, though a walk of the lines through 0 meets 1 twice
    g = Geometry(5, ((0, 1, 2), (0, 1, 3), (1, 4)))
    assert g.common_counts[0] == {1: 1 << 4}
    assert g.common_counts == common_counts_by_pairs(g)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 33])
def test_common_counts_past_the_first_high_plane(n):
    # K(2, n) as 2-point lines: the two points of the small side have n
    # common neighbours, so from n = 8 the counts carry past the first
    # plane above the two low ones
    rng = random.Random(n)
    base = Geometry(n + 2, tuple((a, b) for a in (0, 1) for b in range(2, n + 2)))
    perm = list(range(base.point_count))
    rng.shuffle(perm)
    for g, (x, y) in ((base, (0, 1)), (relabel(base, perm), sorted(perm[:2]))):
        assert g.common_counts[x] == {n: 1 << y}
        assert g.common_counts == common_counts_by_pairs(g)


def test_common_counts_of_the_models(w2, h3, dsp, h3_partitions, h3_debruyn):
    # gq24's distance-2 pairs have five common neighbours: three planes
    rng = random.Random(29)
    models = (
        (w2, {3}, 60), (h3, {2, 3}, 2310), (dsp, {3}, 3780),
        (h3_partitions, {2, 3}, 2310), (h3_debruyn, {2, 3}, 2310), (gq24(), {5}, 216),
    )
    for base, commons, pairs in models:
        perm = list(range(base.point_count))
        rng.shuffle(perm)
        for g in (base, relabel(base, perm)):
            table = g.common_counts
            assert table == common_counts_by_pairs(g)
            assert {c for counts in table for c in counts} == commons
            assert sum(m.bit_count() for counts in table for m in counts.values()) == pairs


@given(small_geometries(), st.data())
@settings(max_examples=150, deadline=None)
def test_convex_closure_matches_oracle(g, data):
    seed = data.draw(st.sets(st.integers(0, g.point_count - 1), min_size=1, max_size=3))
    closure = convex_closure(g, seed)
    assert closure == closure_oracle(g, seed)
    assert is_subspace(g, closure)


@given(small_geometries(), st.data())
@settings(max_examples=150, deadline=None)
def test_convex_closures_match_oracle_seed_by_seed(g, data):
    # seeds share one call, so a bit leaking from one seed into another
    # shows as a closure that differs from the seed's own
    full = frozenset(range(g.point_count))
    seed = st.one_of(
        st.sets(st.integers(0, g.point_count - 1), min_size=1), st.just(full)
    )
    seeds = data.draw(st.lists(seed, min_size=1, max_size=4))
    if len(seeds) > 1 and data.draw(st.booleans()):
        seeds[-1] = seeds[0]
    assert convex_closures(g, seeds) == [closure_oracle(g, s) for s in seeds]


@given(small_geometries(), st.data())
@settings(max_examples=100, deadline=None)
def test_convex_closures_match_oracle_past_the_first_byte(g, data):
    # 9 to 40 seeds set seed bits past the first byte of the final sweep's
    # view; repeated, nested and all-point seeds give closures shared by
    # several seeds and closures strictly inside others
    n = g.point_count
    seed = st.one_of(
        st.frozensets(st.integers(0, n - 1), min_size=1), st.just(frozenset(range(n)))
    )
    seeds = data.draw(st.lists(seed, min_size=9, max_size=40))
    for i in range(len(seeds)):
        j = data.draw(st.integers(0, len(seeds) - 1))
        how = data.draw(st.sampled_from(("keep", "repeat", "nest")))
        if how == "repeat":
            seeds[i] = seeds[j]
        elif how == "nest":
            seeds[i] = seeds[i] | seeds[j]
    closed = closed_sets(g)
    assert convex_closures(g, seeds) == [closure_oracle(g, s, closed) for s in seeds]


def test_convex_closures_of_no_seeds_and_of_an_empty_seed(w2):
    assert convex_closures(w2, []) == []
    with pytest.raises(GeometryError):
        convex_closures(w2, [{0, 1}, set()])
    with pytest.raises(GeometryError):
        convex_closure(w2, ())


def assert_line_levels_match_rows(g):
    """Each line's groups partition the points off it, in order of their
    lowest point, one group per ``(k, m)``; a group's points lie at
    distance ``k`` from exactly ``m`` line points and ``k + 1`` from the
    rest, and the unreachable group holds the points no line point reaches."""
    rows = g.distance_rows
    assert len(g.line_levels) == len(g.lines)
    for line, lm, groups in zip(g.lines, g.line_masks, g.line_levels):
        lows = [mask & -mask for _, _, mask in groups]
        assert all(lows) and lows == sorted(lows)
        assert len({(k, m) for k, m, _ in groups}) == len(groups)
        covered = lm
        for k, m, mask in groups:
            assert not covered & mask
            covered |= mask
            for x in bits_of(mask):
                ds = sorted(rows[x][p] for p in line)
                if k == UNREACHABLE:
                    assert m == len(line) and set(ds) == {UNREACHABLE}
                else:
                    assert 1 <= m <= len(line)
                    assert ds == [k] * m + [k + 1] * (len(line) - m)
        assert covered == g.full_mask


@given(small_geometries())
@settings(max_examples=150, deadline=None)
def test_line_levels_match_rows(g):
    assert_line_levels_match_rows(g)


# a line of 5 points; 5 sees 4 of them, 6 sees them through 5, 7 sees all 5
FIVE_POINT_LINE = Geometry(
    8,
    ((0, 1, 2, 3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (5, 6))
    + tuple((p, 7) for p in range(5)),
)


@pytest.mark.parametrize(
    "g, levels, profiles, np",
    [
        # counts of 4 and 5 need a third count plane
        (
            FIVE_POINT_LINE,
            ((1, 4, 1 << 5), (2, 4, 1 << 6), (1, 5, 1 << 7)),
            {(1, 1, 1, 1, 2): 1, (2, 2, 2, 2, 3): 1, (1, 1, 1, 1, 1): 1},
            (False, (5, 0)),
        ),
        # disconnected: each line reaches nothing off it, and a lone point
        (
            Geometry(6, ((0, 1, 2), (3, 4))),
            ((UNREACHABLE, 3, 0b111000),),
            {(UNREACHABLE,) * 3: 3},
            None,
        ),
        # not a partial linear space: 0 and 1 share two lines, so 3 is
        # collinear with two points of the first line
        (
            Geometry(4, ((0, 1, 2), (0, 1, 3))),
            ((1, 2, 1 << 3),),
            {(1, 1, 2): 1},
            (False, (3, 0)),
        ),
        # a pentagon: 3 is nearest to both ends of the line {0, 1} at once
        (
            Geometry(5, tuple((i, (i + 1) % 5) for i in range(5))),
            ((1, 1, 1 << 2 | 1 << 4), (2, 2, 1 << 3)),
            {(1, 2): 2, (2, 2): 1},
            (False, (3, 0)),
        ),
    ],
)
def test_line_levels_on_geometries_beyond_the_strategy(g, levels, profiles, np):
    assert_line_levels_match_rows(g)
    assert g.line_levels[0] == levels
    assert line_distance_profiles(g, [0]) == profiles
    assert line_distance_profiles(g) == profiles_by_rows(g)
    if np is None:
        with pytest.raises(GeometryError):
            check_np(g)
    else:
        assert tuple(check_np(g)) == np == check_np_by_rows(g)


@given(small_geometries())
@settings(max_examples=150, deadline=None)
def test_check_np_matches_rows(g):
    connected = all(UNREACHABLE not in row for row in g.distance_rows)
    if not connected:
        with pytest.raises(GeometryError):
            check_np(g)
        return
    assert tuple(check_np(g)) == check_np_by_rows(g)


@given(small_geometries(), st.data())
@settings(max_examples=150, deadline=None)
def test_line_distance_profiles_match_rows(g, data):
    got = line_distance_profiles(g)
    want = profiles_by_rows(g)
    assert got == want
    assert list(got) == list(want)
    if g.lines:
        picked = data.draw(st.lists(st.integers(0, len(g.lines) - 1), max_size=4))
        assert line_distance_profiles(g, picked) == profiles_by_rows(g, picked)


def test_routines_match_rows_on_the_models(w2, h3, dsp, h3_partitions, h3_debruyn):
    rng = random.Random(15)
    for model in (w2, h3, dsp, h3_partitions, h3_debruyn):
        perm = list(range(model.point_count))
        rng.shuffle(perm)
        for g in (model, relabel(model, perm)):
            assert tuple(check_np(g)) == check_np_by_rows(g)
            # same counts in the same order as a point-by-point scan
            assert list(line_distance_profiles(g).items()) == list(profiles_by_rows(g).items())
            assert_line_levels_match_rows(g)


def test_check_np_witness_matches_rows_on_line_deleted_models(h3, dsp):
    rng = random.Random(15)
    for g in (h3, dsp):
        for count in (1, 2, 3):
            drop = set(rng.sample(range(len(g.lines)), count))
            mutant = Geometry(
                g.point_count, tuple(line for i, line in enumerate(g.lines) if i not in drop)
            )
            verdict = check_np(mutant)
            assert not verdict.ok
            assert tuple(verdict) == check_np_by_rows(mutant)
            assert list(line_distance_profiles(mutant).items()) == list(
                profiles_by_rows(mutant).items()
            )


def test_convex_closure_completes_every_line_through_a_pair():
    # {0,1} lies on two lines, so this is not a partial linear space
    g = Geometry(4, ((0, 1, 2), (0, 1, 3)))
    assert not validate_pls(g).ok
    closure = convex_closure(g, {0, 1})
    assert closure == {0, 1, 2, 3}
    assert is_subspace(g, closure)


def test_convex_closure_adds_the_interval_of_a_far_pair():
    # in the ordinary hexagon and a path with a pendant point, only the
    # geodesics between the two far points can grow their closure
    hexagon = Geometry(6, tuple((i, (i + 1) % 6) for i in range(6)))
    assert convex_closure(hexagon, {0, 3}) == set(range(6))
    path = Geometry(5, ((0, 1), (1, 2), (2, 3), (2, 4)))
    assert convex_closure(path, {0, 3}) == {0, 1, 2, 3}
    assert convex_closure(path, {0, 3}) == closure_oracle(path, {0, 3})


def test_convex_closure_completes_a_line_an_interval_reaches():
    # the far pair 0, 3 adds its interval 1, 2, and only the line
    # through 1 and 2 then adds 5
    g = Geometry(6, ((0, 1), (1, 2, 5), (2, 3)))
    assert convex_closure(g, {0, 3}) == {0, 1, 2, 3, 5} == closure_oracle(g, {0, 3})


@pytest.mark.parametrize(
    "lines",
    [
        # a triangle across the lines through 0: its neighbours 1 and 2
        # are collinear, so a seed holding both must not take 0
        ((0, 1), (0, 2), (1, 2), (2, 3)),
        ((0, 1, 4), (0, 2), (1, 2, 3)),
        # two lines through the pair 0, 1: neighbour 1 of 0 lies on both
        ((0, 1, 2), (0, 1, 3)),
        ((0, 1, 2), (0, 1, 3), (2, 4), (3, 4)),
    ],
)
def test_convex_closures_at_points_whose_neighbourhood_is_not_clean(lines):
    n = 1 + max(p for line in lines for p in line)
    g = Geometry(n, lines)
    seeds = [
        frozenset(p for p in range(n) if m >> p & 1) for m in range(1, 1 << n)
    ]
    closed = closed_sets(g)
    assert convex_closures(g, seeds) == [closure_oracle(g, s, closed) for s in seeds]


def test_enumerate_quads_closes_every_qualifying_pair(h3, dsp, monkeypatch):
    calls = []
    real = nearhex.verify._closure_groups

    def recording(g, held):
        calls.append(list(held))  # the pass grows held in place
        return real(g, held)

    monkeypatch.setattr(nearhex.verify, "_closure_groups", recording)
    for g, pair_count in ((dsp, 3780), (h3, 2310)):
        calls.clear()
        quads = enumerate_quads(g)
        rows, adj = g.distance_rows, g.adjacency
        qualifying = [
            (x, y)
            for x, y in combinations(range(g.point_count), 2)
            if rows[x][y] == 2 and (adj[x] & adj[y]).bit_count() >= 2
        ]
        assert len(qualifying) == pair_count
        assert len(calls) == 1
        # each seed bit, decoded into the points that hold it
        seeds = [[] for _ in range(max(h.bit_length() for h in calls[0]))]
        for p, h in enumerate(calls[0]):
            for j in bits_of(h):
                seeds[j].append(p)
        assert sorted(map(tuple, seeds)) == qualifying
        assert len(quads) == 63


def test_enumerate_quads_skips_pairs_with_one_common_neighbour():
    # two lines meeting in a point: a near polygon whose distance-2 pairs
    # each have one common neighbour, so no pair is closed
    g = Geometry(5, ((0, 1, 2), (0, 3, 4)))
    assert check_np(g).ok
    assert {common for _, _, common in distance_two_pairs(g)} == {1}
    assert enumerate_quads(g) == []


def assert_closure_groups_partition_the_seeds(g, seeds, closures):
    """``_closure_groups`` on ``seeds`` gives each distinct closure once,
    in order of its lowest seed: the groups' seed masks are disjoint and
    cover every seed, no two groups have the same members, and seed
    ``j``'s group holds ``closures[j]``."""
    held = [0] * g.point_count
    for j, seed in enumerate(seeds):
        for p in seed:
            held[p] |= 1 << j
    groups = _closure_groups(g, held)
    covered = 0
    lowest = []
    for members, mask, same in groups:
        assert members == sorted(members) and mask == sum(1 << p for p in members)
        assert same and not covered & same
        covered |= same
        lowest.append(same & -same)
        for j in bits_of(same):
            assert frozenset(members) == closures[j]
    assert covered == (1 << len(seeds)) - 1
    assert lowest == sorted(lowest)
    assert len({mask for _, mask, _ in groups}) == len(groups)


@given(small_geometries(), st.data())
@settings(max_examples=100, deadline=None)
def test_closure_groups_match_oracle(g, data):
    n = g.point_count
    seed = st.one_of(
        st.frozensets(st.integers(0, n - 1), min_size=1), st.just(frozenset(range(n)))
    )
    seeds = data.draw(st.lists(seed, min_size=1, max_size=12))
    if len(seeds) > 1 and data.draw(st.booleans()):
        seeds[-1] = seeds[0]
    closed = closed_sets(g)
    assert_closure_groups_partition_the_seeds(g, seeds, [closure_oracle(g, s, closed) for s in seeds])


def test_closure_groups_partition_the_qualifying_pairs(h3, dsp):
    for g in (h3, dsp):
        pairs = [(x, y) for x, y, common in distance_two_pairs(g) if common >= 2]
        assert_closure_groups_partition_the_seeds(g, pairs, reference_convex_closures(g, pairs))


def test_check_np_stops_at_the_first_failing_line(h3, dsp):
    rng = random.Random(19)
    for base in (h3, dsp) * 3:
        lines = list(base.lines)
        for _ in range(rng.randint(1, 3)):
            lines.pop(rng.randrange(len(lines)))
        perm = list(range(base.point_count))
        rng.shuffle(perm)
        g = relabel(Geometry(base.point_count, tuple(lines)), perm)
        verdict = check_np(g)
        assert not verdict.ok
        assert tuple(verdict) == check_np_by_rows(g)


def np_outcome(g):
    """``check_np``'s verdict as a tuple, or the message it raises."""
    try:
        return tuple(check_np(g))
    except GeometryError as exc:
        return str(exc)


def test_check_np_does_not_depend_on_the_profiles_running_first(
    w2, h3, dsp, h3_partitions, h3_debruyn
):
    """The same verdict on two fresh copies of a geometry, one of which
    built its census through ``line_distance_profiles`` first: the five
    models, and mutants of each with 1 to 3 lines deleted."""
    rng = random.Random(37)
    for base in (w2, h3, dsp, h3_partitions, h3_debruyn):
        variants = [base.lines]
        for count in (1, 2, 3):
            drop = set(rng.sample(range(len(base.lines)), count))
            variants.append(tuple(line for i, line in enumerate(base.lines) if i not in drop))
        for lines in variants:
            cold = Geometry(base.point_count, lines)
            warm = Geometry(base.point_count, lines)
            line_distance_profiles(warm)
            assert "line_levels" in vars(warm) and "line_levels" not in vars(cold)
            outcome = np_outcome(cold)
            assert np_outcome(warm) == outcome
            if lines is base.lines:
                assert outcome == (True, None)
            elif all(UNREACHABLE not in row for row in cold.distance_rows):
                assert outcome == check_np_by_rows(cold)
            else:
                assert outcome == "near-polygon check requires a connected geometry"


def test_check_np_keeps_the_census_of_a_passing_model(w2, h3, dsp):
    for model in (w2, h3, dsp):
        g = Geometry(model.point_count, model.lines)
        assert check_np(g).ok
        assert vars(g)["line_levels"] == Geometry(g.point_count, g.lines).line_levels


def test_no_command_builds_distance_rows(monkeypatch, tmp_path, capsys):
    """``distance_rows`` is a view for callers; the acceptance suite,
    ``verify`` and ``iso`` read the spheres alone."""

    def refuse(self):
        raise AssertionError("distance_rows built")

    monkeypatch.setattr(Geometry, "distance_rows", property(refuse))
    assert all(r.verdict in ("pass", "info") for r in run_acceptance())
    for model in MODELS:
        assert main(["verify", "--model", model]) == 0
    files = {}
    for model in ("h3", "h3-partition", "dsp62"):
        files[model] = str(tmp_path / f"{model}.json")
        assert main(["build", "--model", model, "--out", files[model]]) == 0
    assert main(["iso", files["h3"], files["h3-partition"]]) == 0
    assert main(["iso", files["h3"], files["dsp62"]]) == 1
    capsys.readouterr()
