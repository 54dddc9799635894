"""Isomorphism testing for point-line geometries.

Both entry points work on the bipartite incidence graph (point vertices
first, then one vertex per line) with one counting refinement,
:func:`_refine`: the ordered partition is a vertex array with cell starts
and its inverse, each splitter cell counts neighbours through its own
vertices' neighbour lists, and only the cells it touches split in place,
by count.  A split moves only the touched vertices: the untouched keep the
front of the cell, so its cost follows the neighbour visits, not the cell
sizes.  A Hopcroft queue keeps out the first largest fragment of a cell
that is not itself queued, and after individualizing a vertex only its
singleton is queued.  Both searches branch on the first largest cell, so
a few levels of individualization make the partition discrete (McKay &
Piperno, *Practical Graph Isomorphism II*, 2014).

:func:`canonical_form` runs a backtracking individualization-refinement
search over that graph, keeping the lexicographically least certificate
over all branches.  Automorphisms discovered when two branches produce the
same certificate are used to skip orbit-equivalent candidates, which is
what makes the search fast on these highly symmetric geometries.  A node
joins the orbits on its target cell through the cell's own vertices, only
when new automorphisms have arrived, and stops once every vertex of the
cell lies in the orbit of a tried one.

:func:`are_isomorphic` first rejects on cheap invariants, then looks for an
explicit bijection with a lockstep search on the two graphs (the fast path
for actually-isomorphic inputs), falling back to certificate comparison
when that search runs out of budget.  At each node the first graph's
refinement records a trace (splitter, cell, and the count and size of
each fragment); each candidate in the second graph reruns the same
refinement and is dropped at its first entry that differs.  Any returned
mapping is re-verified line by line before being trusted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .geometry import Geometry, GeometryError

_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class CanonicalForm:
    """A relabeling-invariant certificate plus a relabeling achieving it.

    ``certificate`` is ``(point_count, line_count, canonical_lines)``;
    ``relabeling[p]`` is the canonical index of point ``p``.
    """

    certificate: tuple
    relabeling: tuple[int, ...]


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    mapping: tuple[int, ...] | None
    detail: str

    def __bool__(self) -> bool:
        return self.isomorphic


def relabel(g: Geometry, perm: Sequence[int]) -> Geometry:
    """Apply a point permutation: point p becomes point perm[p]."""
    if sorted(perm) != list(range(g.point_count)):
        raise GeometryError("not a permutation of the points")
    lines = tuple(tuple(perm[p] for p in line) for line in g.lines)
    labels = None
    if g.labels is not None:
        relabeled = [None] * g.point_count
        for p, label in enumerate(g.labels):
            relabeled[perm[p]] = label
        labels = tuple(relabeled)
    return Geometry(g.point_count, lines, labels)


# -- incidence graph and refinement -------------------------------------


def _incidence_neighbours(g: Geometry) -> list[list[int]]:
    """Ascending neighbour lists of the incidence graph: points first, then
    line ``li`` as vertex ``point_count + li``."""
    n_points = g.point_count
    nbrs: list[list[int]] = [[] for _ in range(n_points)]
    for v, line in enumerate(g.lines, n_points):
        for p in line:
            nbrs[p].append(v)
        nbrs.append(list(line))
    return nbrs


@dataclass(slots=True)
class _Partition:
    """An ordered partition of the vertices, refined in place.

    ``lab`` lists the vertices cell by cell and ``pos`` is its inverse:
    ``lab[pos[v]] == v``.  A cell is named by its start, the position of
    its first vertex in ``lab``; ``end[s]`` is one past its last position
    (set at starts only) and ``cell_of[v]`` is the start of the cell
    holding ``v``.  ``open`` counts the cells of two or more.
    """

    lab: list[int]
    pos: list[int]
    cell_of: list[int]
    end: list[int]
    open: int

    @classmethod
    def points_then_lines(cls, n_points: int, n: int) -> _Partition:
        """The points as one cell, then the lines as another."""
        cell_of = [0] * n_points + [n_points] * (n - n_points)
        end = [0] * n
        starts = [s for s in (0, n_points) if s < n]
        for s, e in zip(starts, starts[1:] + [n]):
            end[s] = e
        open_cells = sum(end[s] - s > 1 for s in starts)
        return cls(list(range(n)), list(range(n)), cell_of, end, open_cells)

    def starts(self) -> list[int]:
        out = []
        s = 0
        while s < len(self.lab):
            out.append(s)
            s = self.end[s]
        return out

    def copy(self) -> _Partition:
        return _Partition(self.lab[:], self.pos[:], self.cell_of[:], self.end[:], self.open)

    def target(self) -> int | None:
        """Start of the first largest cell of two or more, if any: a
        function of the cell sizes alone, so relabeling-invariant."""
        if not self.open:
            return None
        end = self.end
        best, best_size = None, 1
        s = 0
        while s < len(self.lab):
            size = end[s] - s
            if size > best_size:
                best, best_size = s, size
            s = end[s]
        return best

    def individualize(self, s: int, v: int) -> None:
        """Split ``v`` off the front of the cell starting at ``s``."""
        lab, pos, cell_of = self.lab, self.pos, self.cell_of
        e = self.end[s]
        i = pos[v]
        u = lab[s]
        lab[i] = u
        pos[u] = i
        lab[s] = v
        pos[v] = s
        self.end[s] = s + 1
        self.end[s + 1] = e
        for u in lab[s + 1 : e]:
            cell_of[u] = s + 1
        if e - s == 2:
            self.open -= 1


def _refine(
    nbrs: list[list[int]],
    part: _Partition,
    splitters: list[int],
    trace: list | None = None,
    replay: bool = False,
    budget: _Budget | None = None,
) -> bool:
    """Refine ``part`` in place to the coarsest equitable partition finer
    than it, given that it is already equitable with respect to every cell
    not listed in ``splitters``.

    Each splitter counts neighbours from its own vertices' lists, and only
    the cells it touches split, in place, into fragments ordered by count.
    Only the touched vertices move: the untouched ones (count 0) keep the
    front of the cell and its start, and the touched ones are swapped to
    the back and written there by count, so a split costs the touched
    vertices, not the cell.  A split cell that is queued queues all its
    new fragments; one that is not queued queues all but its first
    largest fragment (Hopcroft's rule).  Every touched cell appends
    ``(splitter, cell, counts..., sizes...)`` to ``trace``.  With
    ``replay``, each entry is compared with the next one of ``trace``
    instead (another run's trace), and refinement stops and returns False
    at the first that differs.  Deterministic and equivariant.
    """
    lab, pos, cell_of, end = part.lab, part.pos, part.cell_of, part.end
    queue = deque(splitters)
    queued = set(splitters)
    matched = 0
    while queue and part.open:
        if budget is not None and not budget.spend():
            raise _BudgetExceeded
        sp = queue.popleft()
        queued.discard(sp)
        counts: dict[int, int] = {}
        for v in lab[sp : end[sp]]:
            for w in nbrs[v]:
                counts[w] = counts.get(w, 0) + 1
        hit: dict[int, list[int]] = {}
        for w in counts:
            s = cell_of[w]
            if end[s] - s > 1:
                hit.setdefault(s, []).append(w)
        for s in sorted(hit):
            touched = hit[s]
            e = end[s]
            groups: dict[int, list[int]] = {}
            for w in touched:
                groups.setdefault(counts[w], []).append(w)
            keys = sorted(groups)
            back = e - len(touched)  # where the touched vertices go
            if trace is not None:
                sizes = [len(groups[k]) for k in keys]
                if back > s:
                    entry = (sp, s, 0, *keys, back - s, *sizes)
                else:
                    entry = (sp, s, *keys, *sizes)
                if not replay:
                    trace.append(entry)
                elif matched == len(trace) or trace[matched] != entry:
                    return False
                matched += 1
            if back == s and len(keys) == 1:
                continue
            frags = []
            kept, kept_size = s, 0  # the first largest fragment
            if back > s:
                # the untouched keep the front: move every touched vertex
                # in front of ``back`` onto an untouched one behind it
                j = back
                for w in touched:
                    i = pos[w]
                    if i < back:
                        while lab[j] in counts:
                            j += 1
                        u = lab[j]
                        lab[i] = u
                        pos[u] = i
                        j += 1
                end[s] = back
                frags.append(s)
                kept_size = back - s
                if kept_size > 1:
                    part.open += 1
            at = back
            for k in keys:
                group = groups[k]
                size = len(group)
                for i, w in enumerate(group, at):
                    lab[i] = w
                    pos[w] = i
                    cell_of[w] = at
                end[at] = at + size
                frags.append(at)
                if size > kept_size:
                    kept, kept_size = at, size
                if size > 1:
                    part.open += 1
                at += size
            part.open -= 1
            if s in queued:
                kept = s
            for f in frags:
                if f != kept:
                    queue.append(f)
                    queued.add(f)
    return not replay or matched == len(trace)


# -- canonical search -----------------------------------------------------


class _PruneTo(Exception):
    """Unwind the search to the node at the given depth."""

    def __init__(self, depth: int):
        self.depth = depth


class _Orbits:
    """Union-find over a target cell for the orbits of the automorphisms
    that fix ``fixed`` pointwise.  One search node keeps one, and each
    :meth:`merge` takes in only the automorphisms found since the last, as
    the earlier merges stay valid.  Such an automorphism maps the cell onto
    itself, since refinement commutes with automorphisms, so the orbits on
    the cell are joined through the cell's own vertices alone."""

    def __init__(self, n: int, fixed: tuple[int, ...], cell: list[int]):
        self.parent = list(range(n))
        self.fixed = fixed
        self.cell = cell
        self.merged = 0

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def merge(self, autos: list[tuple[int, ...]]) -> None:
        for sigma in autos[self.merged :]:
            if all(sigma[f] == f for f in self.fixed):
                for v in self.cell:
                    w = sigma[v]
                    if v != w:
                        ra, rb = self.find(v), self.find(w)
                        if ra != rb:
                            self.parent[ra] = rb
        self.merged = len(autos)


class _Canonicalizer:
    def __init__(self, g: Geometry):
        self.n_points = g.point_count
        self.lines = g.lines
        self.nbrs = _incidence_neighbours(g)
        self.n = len(self.nbrs)
        self.best_cert: tuple | None = None
        self.best_pos: list[int] | None = None  # vertex -> canonical position
        self.best_vertex_at: list[int] | None = None  # position -> vertex
        self.best_path: tuple[int, ...] = ()
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> CanonicalForm:
        if self.n == 0:
            return CanonicalForm((0, 0, ()), ())
        part = _Partition.points_then_lines(self.n_points, self.n)
        _refine(self.nbrs, part, part.starts())
        try:
            self._node(part, ())
        except _PruneTo:  # pragma: no cover - cannot outlive the root
            raise GeometryError("internal error: search pruned past the root")
        assert self.best_pos is not None
        relabeling = tuple(self.best_pos[: self.n_points])
        cert = (self.n_points, len(self.lines), self.best_cert)
        return CanonicalForm(cert, relabeling)

    def _certificate(self, pos: list[int]) -> tuple:
        return tuple(
            sorted(tuple(sorted(pos[p] for p in line)) for line in self.lines)
        )

    def _leaf(self, part: _Partition, path: tuple[int, ...]) -> None:
        pos = [0] * self.n
        for position, v in enumerate(part.lab):
            pos[v] = position
        cert = self._certificate(pos)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
            self.best_pos = pos
            self.best_vertex_at = part.lab[:]
            self.best_path = path
            return
        if cert != self.best_cert:
            return
        sigma = tuple(self.best_vertex_at[pos[v]] for v in range(self.n))
        if not (any(sigma[v] != v for v in range(self.n)) and self._is_automorphism(sigma)):
            return
        self.autos.append(sigma)
        # cells split in place, so the position of an individualized vertex
        # is fixed once created; equal certificates therefore mean sigma
        # carries this leaf's path onto the best leaf's path, the subtrees
        # rooted at their first difference coincide, and the search can
        # unwind to that level
        depth = 0
        limit = min(len(path), len(self.best_path))
        while depth < limit and path[depth] == self.best_path[depth]:
            depth += 1
        if depth < len(path):
            raise _PruneTo(depth)

    def _is_automorphism(self, sigma: tuple[int, ...]) -> bool:
        nbrs = self.nbrs
        return all(
            sorted(sigma[w] for w in nbrs[v]) == nbrs[sigma[v]] for v in range(self.n)
        )

    def _node(self, part: _Partition, path: tuple[int, ...]) -> None:
        target = part.target()
        if target is None:
            self._leaf(part, path)
            return
        depth = len(path)
        cell = part.lab[target : part.end[target]]
        tried: list[int] = []
        roots: set[int] = set()  # the roots of the tried vertices' orbits
        orbits = _Orbits(self.n, path, cell)
        for k, v in enumerate(cell):
            if tried and orbits.merged < len(self.autos):
                orbits.merge(self.autos)
                roots = {orbits.find(u) for u in tried}
                if all(orbits.find(u) in roots for u in cell[k:]):
                    break
            root = orbits.find(v)
            if root in roots:
                continue
            tried.append(v)
            roots.add(root)
            child = part.copy()
            child.individualize(target, v)
            _refine(self.nbrs, child, [target])
            try:
                self._node(child, path + (v,))
            except _PruneTo as prune:
                if prune.depth < depth:
                    raise
                # this candidate's subtree repeats an explored sibling's


def _canonical_form_uncached(g: Geometry) -> CanonicalForm:
    return _Canonicalizer(g).run()


@lru_cache(maxsize=32)
def _canonical_form_cached(g: Geometry) -> CanonicalForm:
    return _canonical_form_uncached(g)


def canonical_form(g: Geometry) -> CanonicalForm:
    """Canonical certificate of the incidence structure (labels ignored)."""
    return _canonical_form_cached(g)


# -- explicit isomorphism search ------------------------------------------


class _Budget:
    def __init__(self, limit: int):
        self.left = limit

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


class _BudgetExceeded(Exception):
    pass


def _search_mapping(g1: Geometry, g2: Geometry, budget: _Budget) -> tuple[int, ...] | None:
    """Backtracking search for a point bijection between geometries with
    equal point and line counts.  Each node refines the first graph once;
    each candidate in the second graph reruns the same refinement against
    that trace and is dropped at its first difference.  Complete:
    exhausting the tree proves non-isomorphism."""
    n_points = g1.point_count
    nbrs_a = _incidence_neighbours(g1)
    nbrs_b = _incidence_neighbours(g2)
    line_set = g2.line_set

    def recurse(part_a: _Partition, part_b: _Partition) -> tuple[int, ...] | None:
        target = part_a.target()
        if target is None:
            mapping = [0] * n_points
            for v, w in zip(part_a.lab[:n_points], part_b.lab):
                mapping[v] = w
            return tuple(mapping) if _mapping_ok(g1, line_set, mapping) else None
        child_a = part_a.copy()
        child_a.individualize(target, part_a.lab[target])
        trace: list = []
        _refine(nbrs_a, child_a, [target], trace, budget=budget)
        for w in part_b.lab[target : part_b.end[target]]:
            child_b = part_b.copy()
            child_b.individualize(target, w)
            if _refine(nbrs_b, child_b, [target], trace, True, budget):
                result = recurse(child_a, child_b)
                if result is not None:
                    return result
        return None

    root_a = _Partition.points_then_lines(n_points, len(nbrs_a))
    root_b = _Partition.points_then_lines(n_points, len(nbrs_b))
    trace: list = []
    _refine(nbrs_a, root_a, root_a.starts(), trace, budget=budget)
    if not _refine(nbrs_b, root_b, root_b.starts(), trace, True, budget):
        return None
    return recurse(root_a, root_b)


def _mapping_ok(g1: Geometry, line_set2: frozenset, mapping: Sequence[int]) -> bool:
    if sorted(mapping) != list(range(len(mapping))):
        return False
    return all(
        tuple(sorted(mapping[p] for p in line)) in line_set2 for line in g1.lines
    )


def _invariant_mismatch(g1: Geometry, g2: Geometry) -> str | None:
    if g1.point_count != g2.point_count:
        return f"point counts differ: {g1.point_count} vs {g2.point_count}"
    if len(g1.lines) != len(g2.lines):
        return f"line counts differ: {len(g1.lines)} vs {len(g2.lines)}"
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return "line size multisets differ"
    if sorted(map(len, g1.lines_by_point)) != sorted(map(len, g2.lines_by_point)):
        return "degree sequences differ"

    # with equal point counts, the sphere sizes of a point fix its distance
    # histogram, unreachable points included
    def dist_census(g: Geometry):
        return sorted(tuple(map(int.bit_count, layers)) for layers in g.distance_spheres)

    if dist_census(g1) != dist_census(g2):
        return "distance distributions differ"
    return None


def are_isomorphic(g1: Geometry, g2: Geometry) -> IsoVerdict:
    """Decide isomorphism, returning a verified point bijection or the
    invariant that separates the two geometries."""
    reason = _invariant_mismatch(g1, g2)
    if reason is not None:
        return IsoVerdict(False, None, reason)
    budget = _Budget(_SEARCH_BUDGET)
    try:
        mapping = _search_mapping(g1, g2, budget)
        if mapping is not None:
            return IsoVerdict(True, mapping, "explicit bijection found by refinement search")
        exhausted = True
    except _BudgetExceeded:
        exhausted = False
    if exhausted:
        return IsoVerdict(False, None, "refinement search exhausted: no line-preserving bijection")
    # very symmetric non-isomorphic inputs: settle it with certificates
    c1 = canonical_form(g1)
    c2 = canonical_form(g2)
    if c1.certificate != c2.certificate:
        return IsoVerdict(False, None, "canonical certificate mismatch")
    inverse2 = [0] * g2.point_count
    for p, pos in enumerate(c2.relabeling):
        inverse2[pos] = p
    mapping = tuple(inverse2[c1.relabeling[p]] for p in range(g1.point_count))
    if not _mapping_ok(g1, g2.line_set, mapping):
        raise GeometryError("internal error: certificate mapping failed verification")
    return IsoVerdict(True, mapping, "bijection derived from equal canonical certificates")
