"""The point-by-point closure engine against a pair-at-a-time reference.

``reference_convex_closures`` is the bit-sliced engine as it used to run:
each round completes every line with two members and then walks every pair
at distance 2 or more that holds a seed, adding its interval.
``nearhex.geometry.convex_closures`` gathers lines and distance 2 at each
point and checks far pairs once per distinct closure; it must return the
same closures on the five models' qualifying pairs and on random seeds,
each under a seeded relabeling, and on mutants with lines deleted.
"""

import random
from itertools import combinations

from nearhex import Geometry
from nearhex.geometry import GeometryError, _closure_groups, bits_of, convex_closures, mask_of
from nearhex.iso import relabel

from strategies import distance_two_pairs


def reference_convex_closures(g: Geometry, seeds) -> list[frozenset[int]]:
    """Close every seed by the line rule and by the interval of every pair
    at distance ``>= 2``, round after round, until a round changes
    nothing; then read each distinct closure off the masks once."""
    n = g.point_count
    held = [0] * n
    count = 0
    for seed in seeds:
        bit, p = 1 << count, None
        for p in seed:
            if not 0 <= p < n:
                raise GeometryError(f"point index {p} out of range")
            held[p] |= bit
        if p is None:
            raise GeometryError("closure of an empty set is undefined")
        count += 1
    spheres = g.distance_spheres
    # per point a and distance d >= 2, the points b > a at distance d, read
    # the first time a holds a seed; and the interval of a pair, read the
    # first time both its points hold one seed
    far_rows: list[list[tuple[int, list[int]]] | None] = [None] * n
    intervals: dict[int, list[int]] = {}
    while True:
        before = held[:]
        for line in g.lines:
            once = twice = 0
            for p in line:
                twice |= once & held[p]
                once |= held[p]
            if twice:
                for p in line:
                    held[p] |= twice
        for a in range(n):
            ha = held[a]
            if not ha:
                continue
            rows = far_rows[a]
            if rows is None:
                layers, above = spheres[a], -1 << (a + 1)
                rows = far_rows[a] = [
                    (d, bits_of(layers[d] & above)) for d in range(2, len(layers))
                ]
            for d, row in rows:
                for b in row:
                    both = ha & held[b]
                    if not both:
                        continue
                    key = a * n + b
                    between = intervals.get(key)
                    if between is None:
                        near, far = spheres[a], spheres[b]
                        m = 0
                        for k in range(1, d):
                            m |= near[k] & far[d - k]
                        between = intervals[key] = bits_of(m)
                    for z in between:
                        held[z] |= both
        if held == before:
            break
    closures: list = [None] * count
    width = (count + 7) >> 3
    views = [h.to_bytes(width, "little") for h in held]
    for j in range(count):
        if closures[j] is not None:
            continue
        byte, bit = j >> 3, 1 << (j & 7)
        same = (1 << count) - 1
        outside = 0
        members = []
        for p, view in enumerate(views):
            if view[byte] & bit:
                members.append(p)
                same &= held[p]
            else:
                outside |= held[p]
        same &= ~outside
        closure = frozenset(members)
        for k in bits_of(same):
            closures[k] = closure
    return closures


def _qualifying_pairs(g):
    return [(x, y) for x, y, common in distance_two_pairs(g) if common >= 2]


def _random_seeds(g, rng, count):
    return [rng.sample(range(g.point_count), rng.randint(1, 4)) for _ in range(count)]


def _relabeled(g, rng):
    perm = list(range(g.point_count))
    rng.shuffle(perm)
    return relabel(g, perm)


def _has_far_pair(g, seed):
    rows = g.distance_rows
    return any(rows[a][b] >= 3 for a in seed for b in seed)


def test_closures_match_the_reference_on_the_models(w2, h3, dsp, h3_partitions, h3_debruyn):
    rng = random.Random(21)
    far = 0
    for base in (w2, h3, dsp, h3_partitions, h3_debruyn):
        g = _relabeled(base, rng)
        pairs = _qualifying_pairs(g)
        assert convex_closures(g, pairs) == reference_convex_closures(g, pairs)
        seeds = _random_seeds(g, rng, 40)
        assert convex_closures(g, seeds) == reference_convex_closures(g, seeds)
        far += sum(_has_far_pair(g, seed) for seed in seeds)
    assert far


def test_closure_groups_match_the_reference_in_any_visit_order(h3, dsp):
    """A point that grows leaves out of the next gather round its
    neighbours still to come in the current one, so which points a round
    revisits depends on the order of the points: the groups must still
    give every seed its reference closure on three seeded relabelings each
    of h3 and dsp62, with each distinct closure once."""
    rng = random.Random(25)
    for base in (h3, h3, h3, dsp, dsp, dsp):
        g = _relabeled(base, rng)
        seeds = _qualifying_pairs(g) + _random_seeds(g, rng, 20)
        held = [0] * g.point_count
        for j, seed in enumerate(seeds):
            for p in seed:
                held[p] |= 1 << j
        got: list = [None] * len(seeds)
        groups = _closure_groups(g, held)
        for members, mask, same in groups:
            assert members == sorted(members) and mask == mask_of(members)
            for j in bits_of(same):
                got[j] = frozenset(members)
        want = reference_convex_closures(g, seeds)
        assert got == want
        assert len(groups) == len(set(want))


def test_closures_match_the_reference_on_mutants(h3, dsp):
    """1 to 5 lines deleted: distances grow past 3, the closures of pairs
    stop being quads, and far pairs inside a closure add points."""
    rng = random.Random(22)
    sizes = set()
    for k in range(12):
        base = (h3, dsp)[k % 2]
        lines = list(base.lines)
        for _ in range(rng.randint(1, 5)):
            lines.pop(rng.randrange(len(lines)))
        g = _relabeled(Geometry(base.point_count, tuple(lines)), rng)
        seeds = _qualifying_pairs(g) + _random_seeds(g, rng, 20)
        got = convex_closures(g, seeds)
        assert got == reference_convex_closures(g, seeds)
        sizes.update(len(c) for c in got)
    # besides quads and whole models, some closures of other sizes
    assert sizes - {9, 15, 105, 135}


def test_closures_of_nested_repeated_and_equal_seeds(h3, dsp):
    """The sweep gives each seed its own closure when one closure lies
    strictly inside another's (``{x}`` in ``{x, y}``, a line in a quad),
    when seeds repeat, and when distinct seeds close to one set, which
    they then share as one frozenset."""
    rng = random.Random(23)
    for base in (h3, dsp):
        g = _relabeled(base, rng)
        x, y, _ = next(pair for pair in distance_two_pairs(g) if pair[2] >= 2)
        a, b = bits_of(g.adjacency[x] & g.adjacency[y])[:2]
        seeds = [(x, y), (x,), (x, a), (x, y), (a, b), (y,), (x,), (y, x, y), (a, x)]
        got = convex_closures(g, seeds)
        assert got == reference_convex_closures(g, seeds)
        quad, point, line = got[0], got[1], got[2]
        assert point == {x} and len(line) == 3 and point < line < quad
        assert len(quad) in (9, 15) and got[5] == {y}
        for i, j in combinations(range(len(seeds)), 2):
            assert (got[i] is got[j]) == (got[i] == got[j])
        assert [got.index(c) for c in got] == [0, 1, 2, 0, 0, 5, 1, 0, 2]


def test_equal_closures_share_one_frozenset(h3, dsp):
    for g in (h3, dsp):
        got = convex_closures(g, _qualifying_pairs(g))
        assert len({id(c) for c in got}) == len(set(got)) == 63
