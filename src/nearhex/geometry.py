"""Finite point-line geometries and their metric/subspace primitives.

Points are dense integer indices ``0..point_count-1``; lines are stored as
sorted tuples of point indices, deduplicated and ordered lexicographically,
so structural equality of geometries is plain dataclass equality.  All set
manipulation runs over Python-int bitsets sized to the point count, which
keeps the exhaustive scans used elsewhere in the package fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from typing import Iterable, NamedTuple

UNREACHABLE = -1

#: per bit ``k``, the byte table that maps a byte to its bit ``k`` (0 or 1)
_BIT_FLAGS = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]


class GeometryError(ValueError):
    """An operation was applied outside its stated domain."""


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, cut after 80 characters so that
    one large input value still gives a short message."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> list[int]:
    """The set bit positions of ``mask``, in increasing order.

    The bits are taken off the top with ``bit_length``, so each step works
    on an integer no wider than the bits still to come; on a 2-core Xeon
    this lists 56 bits of a 135-bit mask in about 12 us and 60 bits of a
    3,780-bit mask in about 18 us, against 17 and 45 us for a generator
    that strips the lowest bit.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


@dataclass(frozen=True)
class Geometry:
    """An abstract point-line incidence structure.

    ``labels``, when present, carries one provenance label per point (see
    :mod:`nearhex.labels`); imported geometries may carry plain strings.
    """

    point_count: int
    lines: tuple[tuple[int, ...], ...]
    labels: tuple | None = None

    def __post_init__(self) -> None:
        # an index must be a plain int: a bool or a float would be read as
        # another point, or fail later with a bare TypeError
        if type(self.point_count) is not int:
            raise GeometryError(f"point count {_shown(self.point_count)} is not an integer")
        if self.point_count < 0:
            raise GeometryError("negative point count")
        seen = set()
        canon = []
        for line in self.lines:
            for p in line:
                if type(p) is not int:
                    raise GeometryError(f"point index {_shown(p)} is not an integer")
            pts = tuple(sorted(set(line)))
            if len(pts) < 2:
                raise GeometryError(f"line with fewer than 2 points: {_shown(line)}")
            if pts[0] < 0 or pts[-1] >= self.point_count:
                raise GeometryError(f"line {_shown(line)} has out-of-range point index")
            if pts not in seen:
                seen.add(pts)
                canon.append(pts)
        canon.sort()
        object.__setattr__(self, "lines", tuple(canon))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.point_count:
                raise GeometryError("label count does not match point count")
            object.__setattr__(self, "labels", labels)

    # -- cached incidence machinery -------------------------------------

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Bitmask of neighbours (collinear points, self excluded) per point."""
        adj = [0] * self.point_count
        for line, lm in zip(self.lines, self.line_masks):
            for p in line:
                adj[p] |= lm
        return tuple(adj[p] & ~(1 << p) for p in range(self.point_count))

    @cached_property
    def perps(self) -> tuple[int, ...]:
        """Bitmask of each point's perp: the point and its neighbours.  The
        perp of a point set is the AND of its members' perps."""
        return tuple(a | 1 << p for p, a in enumerate(self.adjacency))

    @cached_property
    def lines_by_point(self) -> tuple[tuple[int, ...], ...]:
        through: list[list[int]] = [[] for _ in range(self.point_count)]
        for i, line in enumerate(self.lines):
            for p in line:
                through[p].append(i)
        return tuple(tuple(t) for t in through)

    @cached_property
    def lines_by_first_point(self) -> tuple[tuple[int, ...], ...]:
        """Per point, the indices of the lines that start at it; see :func:`_lines_inside`."""
        starts: list[list[int]] = [[] for _ in range(self.point_count)]
        for i, line in enumerate(self.lines):
            starts[line[0]].append(i)
        return tuple(map(tuple, starts))

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        """Bitmask of each line, in the order of ``lines``."""
        return tuple(mask_of(line) for line in self.lines)

    @cached_property
    def line_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.lines)

    @cached_property
    def distance_spheres(self) -> tuple[tuple[int, ...], ...]:
        """Per point, its distance layers in the collinearity graph as bitmasks.

        ``distance_spheres[p][k]`` is the set of points at distance ``k`` from
        ``p``; the layers stop at the farthest reachable point, so points in
        no layer are unreachable from ``p``, and no layer is empty.

        All balls grow together, one radius per round: a line's ball is the
        union of the balls of its points, and the ball of radius ``k + 1``
        around ``p`` is the union of the balls of the lines through ``p``.
        A point stops when its ball stops growing or holds every point.
        """
        full = self.full_mask
        through = self.lines_by_point
        balls = [1 << p for p in range(self.point_count)]
        spheres = [[ball] for ball in balls]
        growing = [p for p in range(self.point_count) if through[p]]
        while growing:
            line_balls = []
            for line in self.lines:
                ball = 0
                for p in line:
                    ball |= balls[p]
                line_balls.append(ball)
            still = []
            for p in growing:
                ball = 0
                for i in through[p]:
                    ball |= line_balls[i]
                if ball != balls[p]:
                    spheres[p].append(ball & ~balls[p])
                    balls[p] = ball
                    if ball != full:
                        still.append(p)
            growing = still
        return tuple(map(tuple, spheres))

    @cached_property
    def common_counts(self) -> tuple[dict[int, int], ...]:
        """Per point ``x``, the points ``y > x`` of its sphere ``S_2(x)`` by
        their number of common neighbours with ``x``: a dict from each count
        that occurs to the bitmask of the points with that count.

        Each neighbour ``z`` of ``x`` -- a bit of ``adjacency[x]``, so a
        point on two lines through ``x`` counts once -- adds
        ``adjacency[z] & S_2(x)`` into bit-sliced count planes, as in
        ``line_levels``, and the planes are decoded into one mask per count.
        Only the later points are counted, so each pair is counted once.
        The two lowest planes are plain variables and the decode of counts
        below 4 is written out: on the 105- and 135-point models no count
        reaches 4, and this cuts the time of the loop-only form by about 40%
        (0.40 against 0.63 ms on 105 points, 0.58 against 0.97 ms on 135,
        2-core Xeon, Python 3.11.7).
        """
        adj = self.adjacency
        table = []
        for x, layers in enumerate(self.distance_spheres):
            counts = {}
            two = layers[2] >> (x + 1) << (x + 1) if len(layers) > 2 else 0
            if two:
                # bits 0 and 1 of each point's count, and its bits 2 and up
                ones = twos = 0
                high: list[int] = []
                for z in bits_of(adj[x]):
                    h = adj[z] & two
                    carry = ones & h
                    ones ^= h
                    if carry:
                        h = twos & carry
                        twos ^= carry
                        if h:
                            for i, plane in enumerate(high):
                                high[i] = plane ^ h
                                h &= plane
                                if not h:
                                    break
                            else:
                                high.append(h)
                if high:
                    planes = [ones, twos, *high]
                    for c in range(1, 1 << len(planes)):
                        part = two
                        for i, plane in enumerate(planes):
                            part &= plane if c >> i & 1 else ~plane
                        if part:
                            counts[c] = part
                else:
                    for c, part in ((1, ones & ~twos), (2, twos & ~ones), (3, ones & twos)):
                        if part:
                            counts[c] = part
            table.append(counts)
        return tuple(table)

    @cached_property
    def line_levels(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per line, the points off it grouped as ``(k, m, mask)``, ordered
        by lowest point: the line first reaches ``mask`` at distance ``k``,
        through exactly ``m`` of its points.  A line's points are pairwise
        collinear, so such a point lies at distance ``k + 1`` from the rest;
        the points it cannot reach form ``(UNREACHABLE, len(line), mask)``.

        One level pass per line: at level ``k`` each line point's sphere
        ``S_k``, minus the points already reached, is added into bit-sliced
        count planes (bit ``i`` of a point's count is its bit in
        ``planes[i]``), so lines of any size count exactly.
        """
        spheres = self.distance_spheres
        full = self.full_mask
        census = []
        for line, seen in zip(self.lines, self.line_masks):
            line_spheres = [spheres[p] for p in line]
            groups = []
            k = 1
            while True:
                unseen = ~seen
                planes: list[int] = []
                for layers in line_spheres:
                    if k < len(layers):
                        h = layers[k] & unseen
                        i = 0
                        for plane in planes:
                            planes[i] = plane ^ h
                            h &= plane
                            if not h:
                                break
                            i += 1
                        else:
                            if h:
                                planes.append(h)
                if not planes:
                    break
                for m in range(1, 1 << len(planes)):
                    part = -1  # m >= 1 sets a plane's bit, which bounds part
                    for i, plane in enumerate(planes):
                        part &= plane if m >> i & 1 else ~plane
                    if part:
                        groups.append((k, m, part))
                        seen |= part
                k += 1
            if seen != full:
                groups.append((UNREACHABLE, len(line), full & ~seen))
            groups.sort(key=lambda group: group[2] & -group[2])
            census.append(tuple(groups))
        return tuple(census)

    @cached_property
    def np_verdict(self) -> NpVerdict:
        """The near-polygon axiom: every point off a line has a unique
        nearest point on it.  Raises for disconnected geometries, where
        distance is undefined.

        Read off ``line_levels``: a line fails when it reaches some point
        through two or more of its points at once.  The witness is the
        lowest such point on the lowest-indexed failing line.
        """
        if not metrics(self).connected:
            raise GeometryError("near-polygon check requires a connected geometry")
        for li, groups in enumerate(self.line_levels):
            bad = sum(mask for _, m, mask in groups if m >= 2)  # groups are disjoint
            if bad:
                return NpVerdict(False, ((bad & -bad).bit_length() - 1, li))
        return NpVerdict(True, None)

    @cached_property
    def distance_rows(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs collinearity-graph distances (UNREACHABLE when disconnected)."""
        rows = []
        for layers in self.distance_spheres:
            dist = [UNREACHABLE] * self.point_count
            for d, layer in enumerate(layers):
                for v in bits_of(layer):
                    dist[v] = d
            rows.append(tuple(dist))
        return tuple(rows)

    @property
    def full_mask(self) -> int:
        return (1 << self.point_count) - 1


class NpVerdict(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None  # (point, line index)


class Metrics(NamedTuple):
    connected: bool
    diameter: int


class PlsVerdict(NamedTuple):
    ok: bool
    # each violation: ((a, b), line_index_1, line_index_2)
    violations: tuple[tuple[tuple[int, int], int, int], ...]


def _check_indices(indices: Iterable[int], count: int, kind: str) -> list[int]:
    """The indices as a list, each checked to be a plain ``int`` (a ``bool``
    is not) in ``0..count - 1``; ``kind`` names them in the error."""
    out = []
    for i in indices:
        if type(i) is not int:
            raise GeometryError(f"{kind} index {_shown(i)} is not an integer")
        if not 0 <= i < count:
            raise GeometryError(f"{kind} index {_shown(i)} out of range")
        out.append(i)
    return out


def _check_points(g: Geometry, pts: Iterable[int]) -> list[int]:
    return _check_indices(pts, g.point_count, "point")


def _lines_inside(g: Geometry, members: list[int], m: int) -> list[int]:
    """The indices, in increasing order, of the lines inside a point set given
    as its sorted ``members`` and their bitmask ``m``; each is met at its first point."""
    starts, line_masks = g.lines_by_first_point, g.line_masks
    outside = ~m
    return [i for p in members for i in starts[p] if not line_masks[i] & outside]


def collinear(g: Geometry, x: int, y: int) -> bool:
    x, y = _check_points(g, (x, y))
    return x != y and bool(g.adjacency[x] >> y & 1)


def validate_pls(g: Geometry) -> PlsVerdict:
    """Check the partial-linear-space property: any two points on <= 1 line.

    Counted with its ordered pairs, each line of ``k`` points gives
    ``k (k - 1)`` collinear pairs, and ``adjacency`` counts each collinear
    pair once, so the property holds exactly when these sum to the
    neighbourhood sizes; only when they do not are the lines walked for
    each pair on a second line, in order.
    """
    if sum(a.bit_count() for a in g.adjacency) == sum(len(line) * (len(line) - 1) for line in g.lines):
        return PlsVerdict(True, ())
    first: dict[tuple[int, int], int] = {}
    violations = []
    for i, line in enumerate(g.lines):
        for pair in combinations(line, 2):
            if pair in first:
                violations.append((pair, first[pair], i))
            else:
                first[pair] = i
    return PlsVerdict(not violations, tuple(violations))


def perp(g: Geometry, points: Iterable[int]) -> frozenset[int]:
    """Intersection of the perps of the given points.

    The perp of a single point contains the point itself; consequently for a
    non-collinear pair the result holds only their common neighbours.
    """
    pts = _check_points(g, points)
    if not pts:
        raise GeometryError("perp of an empty set is undefined")
    m = g.full_mask
    for p in pts:
        m &= g.perps[p]
    return frozenset(bits_of(m))


def metrics(g: Geometry) -> Metrics:
    """Connectivity flag plus the largest finite distance."""
    spheres = g.distance_spheres
    # the layers are disjoint, and one point reaches all iff every point does
    connected = g.point_count > 0 and sum(spheres[0]) == g.full_mask
    diameter = max((len(layers) - 1 for layers in spheres), default=0)
    return Metrics(connected, diameter)


def is_subspace(g: Geometry, points: Iterable[int]) -> bool:
    """True iff every line meeting the set in >= 2 points lies inside it."""
    m = mask_of(_check_points(g, points))
    for lm in g.line_masks:
        inter = lm & m
        if inter and inter != (inter & -inter) and lm & ~m:
            return False
    return True


def is_geometric_hyperplane(g: Geometry, points: Iterable[int]) -> bool:
    """Proper nonempty subspace meeting every line."""
    m = mask_of(_check_points(g, points))
    if m == 0 or m == g.full_mask:
        return False
    if not is_subspace(g, bits_of(m)):
        return False
    return all(lm & m for lm in g.line_masks)


def convex_closure(g: Geometry, points: Iterable[int]) -> frozenset[int]:
    """Smallest convex subspace containing the given points; one seed of
    :func:`convex_closures`.  Each call rebuilds the per-geometry tables of
    :func:`_closure_groups`, about 0.32 ms of the 0.42 ms that closing a
    lone distance-2 pair of the 105- or 135-point model takes (medians,
    2-core Xeon, Python 3.11.7), so many seeds close faster in one
    :func:`convex_closures` call."""
    return convex_closures(g, [points])[0]


def convex_closures(
    g: Geometry, seeds: Iterable[Iterable[int]]
) -> list[frozenset[int]]:
    """Smallest convex subspace containing each seed, all seeds at once.

    Each seed's points are checked by :func:`_check_points`, and an empty
    seed raises ``GeometryError``.  Seed ``j`` becomes bit ``j`` of the mask
    of each of its points, and :func:`_closure_groups` closes them all in
    one pass.  Seeds with equal closures share one frozenset.
    """
    held = [0] * g.point_count
    count = 0
    for seed in seeds:
        pts = _check_points(g, seed)
        if not pts:
            raise GeometryError("closure of an empty set is undefined")
        for p in pts:
            held[p] |= 1 << count
        count += 1
    closures: list = [None] * count
    for members, _, same in _closure_groups(g, held):
        closure = frozenset(members)
        for j in bits_of(same):
            closures[j] = closure
    return closures


def _closure_groups(g: Geometry, held: list[int]) -> list[tuple[list[int], int, int]]:
    """The closures of many seeds in one pass, each distinct closure once,
    as ``(members, mask, seeds)``: its points in increasing order, their
    bitmask, and the bitmask of the seeds whose closure it is.  The groups
    come in order of their lowest seed.

    ``held[p]`` is a bitmask over the seeds, whose bit ``j`` is set when
    point ``p`` lies in seed ``j``; every seed must hold a point.  The pass
    grows ``held`` in place until bit ``j`` marks the closure of seed ``j``,
    so each closure is bit-sliced over the points.  A closure must hold
    every line with two of its points -- every such line, so that each
    result is a subspace even when two points share several lines -- and
    the interval of each pair ``a, b`` at distance ``d >= 2``, the union of
    ``S_k(a) & S_{d-k}(b)`` over ``0 < k < d`` (for ``d = 2`` the common
    neighbours).  Line completion is required: closing under geodesics
    alone stalls on sets (4-cycles and the like) that are metrically convex
    but carry no full line, and those are useless for quad classification.
    Every bit follows its own seed alone, so each result is exactly that
    seed's closure.

    Lines and distance 2 are gathered point by point: a point ``z`` joins
    the seeds that hold two neighbours ``a, b`` of ``z`` lying on one line
    with ``z`` or not collinear with each other.  Where ``z``'s
    neighbourhood is clean -- its lines minus ``z``, with no point on two
    of them and no edge between two of them, as at every point of a near
    polygon -- that is every pair of its neighbours, so ``z`` takes the
    seeds holding two of them by one once/twice OR pass; any other point
    walks the list of its neighbour pairs that force it.  The points are
    visited in increasing order, and a point gathers again only when a
    neighbour has grown after its visit, until none grows: a neighbour
    still to come in the round reads the growth there.  A sweep then reads
    each distinct closure once off the masks, starting from its lowest
    seed ``j`` not yet placed: all masks are joined into one buffer of
    ``width`` bytes per point, so byte ``j // 8`` of every point is the
    strided column ``buf[j // 8 :: width]``, which one ``bytes.translate``
    turns into 0/1 flags for ``itertools.compress``.  The closure gets the
    seeds held by all its points whose closures have as many points,
    counted for every seed at once on bit-sliced planes.  Pairs at distance
    ``>= 3`` are checked once per distinct closure, off a per-point mask of
    the points at distance ``>= 3``, which misses a quad at each of its
    points; an interval that adds points sends them back to the gather,
    and the pass ends when the far pairs add nothing.
    """
    n = g.point_count
    adj, lines, line_masks, through = g.adjacency, g.lines, g.line_masks, g.lines_by_point
    # a point is clean when its lines meet only in it, so its neighbour
    # list has no repeats, and no edge joins two of them, so no line missing
    # it has two points collinear with it; the line test also flags some
    # clean points off a partial linear space, where the pair list below is
    # exact all the same
    unclean = 0
    for line, lm in zip(lines, line_masks):
        once = twice = 0
        for p in line:
            twice |= once & adj[p]
            once |= adj[p]
        unclean |= twice & ~lm
    neighbours = [[p for i in through[z] for p in lines[i] if p != z] for z in range(n)]
    # per flagged point, the neighbour pairs that force it; None at a clean
    # point, where every pair does
    forcing: list[list[tuple[int, int]] | None] = [None] * n
    for z in range(n):
        if not unclean >> z & 1 and len(neighbours[z]) == adj[z].bit_count():
            continue
        parts = [line_masks[i] for i in through[z]]
        forcing[z] = [
            (a, b)
            for a, b in combinations(bits_of(adj[z]), 2)
            if not adj[a] >> b & 1 or any(m >> a & m >> b & 1 for m in parts)
        ]
    spheres = g.distance_spheres
    far_masks = [sum(layers[3:]) for layers in spheres]
    everyone = todo = 0
    for p in range(n):
        if held[p]:
            everyone |= held[p]
            todo |= adj[p]
    while True:
        while todo:
            grown = 0
            for z in bits_of(todo):
                pairs = forcing[z]
                if pairs is None:
                    once = twice = 0
                    for p in neighbours[z]:
                        twice |= once & held[p]
                        once |= held[p]
                else:
                    twice = 0
                    for a, b in pairs:
                        twice |= held[a] & held[b]
                if twice & ~held[z]:
                    held[z] |= twice
                    # the neighbours still to come this round read it there
                    grown |= adj[z] & ~(todo & -2 << z)
            todo = grown
        # one sweep per distinct closure reads its points off one strided
        # byte column of all masks, and the seeds sharing it: those held by
        # every member whose closure has as many points, read off
        # bit-sliced column counts (bit j of planes[i] is bit i of seed j's
        # count)
        groups = []
        planes: list[int] = []
        for h in held:
            for i, plane in enumerate(planes):
                planes[i] = plane ^ h
                h &= plane
                if not h:
                    break
            else:
                if h:
                    planes.append(h)
        width = (everyone.bit_length() + 7) >> 3
        buf = b"".join([h.to_bytes(width, "little") for h in held])
        unplaced = everyone
        while unplaced:
            j = (unplaced & -unplaced).bit_length() - 1
            flags = buf[j >> 3 :: width].translate(_BIT_FLAGS[j & 7])
            members = list(compress(range(n), flags))
            same = everyone
            for p in members:
                same &= held[p]
            size = len(members)
            for i, plane in enumerate(planes):
                same &= plane if size >> i & 1 else ~plane
            # seed j lies in same; clearing it too, like queueing below only
            # the points that grow, keeps every loop finite even if a
            # member read goes wrong
            unplaced &= ~(same | 1 << j)
            groups.append((members, mask_of(members), same))
        # each distinct closure adds, for the seeds sharing it, the
        # intervals of its own pairs at distance >= 3
        for members, inside, same in groups:
            for a in members:
                far = far_masks[a] & inside
                if not far:
                    continue
                layers = spheres[a]
                for b in bits_of(far & -2 << a):
                    d = next(k for k in range(3, len(layers)) if layers[k] >> b & 1)
                    between = 0
                    for k in range(1, d):
                        between |= layers[k] & spheres[b][d - k]
                    for z in bits_of(between & ~inside):
                        if same & ~held[z]:
                            held[z] |= same
                            todo |= adj[z]
        if not todo:
            return groups


def induced_geometry(g: Geometry, points: Iterable[int]) -> Geometry:
    """Geometry on the given points whose lines are the lines lying inside."""
    pts = sorted(set(_check_points(g, points)))
    remap = {p: i for i, p in enumerate(pts)}
    lines = [tuple(remap[q] for q in g.lines[i]) for i in _lines_inside(g, pts, mask_of(pts))]
    labels = tuple(g.labels[p] for p in pts) if g.labels is not None else None
    return Geometry(len(pts), tuple(lines), labels)


def dual_geometry(g: Geometry) -> Geometry:
    """Swap points and lines: dual point i is line i, dual lines are pencils."""
    through = g.lines_by_point
    for p, t in enumerate(through):
        if len(t) < 2:
            raise GeometryError(f"point {p} lies on {len(t)} < 2 lines")
    return Geometry(len(g.lines), tuple(tuple(t) for t in through))
