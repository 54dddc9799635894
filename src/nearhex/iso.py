"""Isomorphism testing for point-line geometries.

Both entry points work on the bipartite incidence graph (point vertices
first, then one vertex per line) with one counting refinement,
:func:`_refine`: the ordered partition is a vertex array with cell starts
and its inverse, each splitter cell counts neighbours through its own
vertices' neighbour lists, and only the cells it touches split in place,
by count.  A split moves only the touched vertices: the untouched keep the
front of the cell, so its cost follows the neighbour visits, not the cell
sizes.  A splitter that is a unit cell counts nothing: each of its
neighbours has count 1, so a touched cell splits straight into its
untouched front and touched back (bliss's unit-cell split; Junttila &
Kaski, *Engineering an efficient canonical labeling tool for large and
sparse graphs*, 2007).  Most passes split nothing, and those cost least: a
unit splitter with no neighbour in a cell of two or more is dropped after
one pass over its neighbour list, and one touching a single vertex of a
cell swaps it with the cell's last.  A larger splitter counts into one
list per refinement, only the vertices of cells of two or more, and lists
each cell's touched vertices in the same pass; a cell it touches whole
with one count writes its trace entry and is left as it is.  None of this
changes a partition, a trace entry or a queue decision.  A Hopcroft queue
keeps out the first largest fragment of a cell that is not itself queued,
and after individualizing a vertex only its singleton is queued.

One tree walker, :class:`_Walker`, serves both entry points (McKay &
Piperno, *Practical Graph Isomorphism II*, 2014).  Each node branches on
the first largest cell, so a few levels of individualization make the
partition discrete.  Each leaf is first tried as an automorphism onto the
first leaf, which needs no certificate; only a leaf that is not one builds
its certificate, to compare with the least one so far, and an equal one
is tried as an automorphism onto that leaf.  An automorphism is checked
once per incidence, from its line end; it unwinds the walk to where the
two paths part and skips orbit-equivalent candidates from then on.  A
node joins the orbits on its target cell through the cell's own
vertices, only when new automorphisms have arrived, and stops once every
vertex of the cell lies in the orbit of a tried one.  Because leaves are
tried against the first leaf, the automorphisms found generate the
stabiliser of each prefix of the first path, and the order of the
automorphism group comes out as the product of the orbit lengths along
that path.

:func:`canonical_form` keeps the least certificate, with a relabeling
achieving it and that group order.  :func:`are_isomorphic_to` compares
one reference geometry with several others.  It first rejects each on
cheap invariants.  For those that pass, it walks the reference's first
path once, recording the refinement trace at every level (splitter, cell,
and the count and size of each fragment), and walks each one's tree
guided by that one guide: each child must replay the trace of its depth
and is dropped at its first entry that differs.  A walk stops at the
first leaf whose point bijection carries the reference's lines onto its
geometry's; running out of tree proves that there is none.
:func:`are_isomorphic` is its one-target form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .geometry import Geometry, GeometryError, _check_points

@dataclass(frozen=True)
class CanonicalForm:
    """A relabeling-invariant certificate plus a relabeling achieving it.

    ``certificate`` is ``(point_count, line_count, canonical_lines)``;
    ``relabeling[p]`` is the canonical index of point ``p``; ``aut_order``
    is the number of point permutations that carry the lines onto
    themselves.
    """

    certificate: tuple
    relabeling: tuple[int, ...]
    aut_order: int


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    mapping: tuple[int, ...] | None
    detail: str

    def __bool__(self) -> bool:
        return self.isomorphic


def relabel(g: Geometry, perm: Sequence[int]) -> Geometry:
    """Apply a point permutation: point p becomes point perm[p].  Entries
    are checked as point indices, and must be a permutation of the points."""
    if sorted(_check_points(g, perm)) != list(range(g.point_count)):
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
) -> bool:
    """Refine ``part`` in place to the coarsest equitable partition finer
    than it, given that it is already equitable with respect to every cell
    not listed in ``splitters``.

    A splitter of two or more vertices counts neighbours from its own
    vertices' lists into one list of counts per call, reset after each
    splitter.  It counts only the vertices of cells of two or more, and
    lists each such cell's touched vertices, in the order first met, in
    the same pass.  Only the cells it touches split, in place, into
    fragments ordered by count; a cell touched whole with one count does
    not split, and its entry is written without grouping.  Only the
    touched vertices move: the untouched ones (count 0) keep the front of
    the cell and its start, and the touched ones are swapped to the back
    and written there by count, so a split costs the touched vertices, not
    the cell.  A unit splitter gives each neighbour a count of 1, so it
    builds no counts: each touched cell splits into its untouched front and
    its touched back, with the moves and trace entries that a count of 1
    gives.  One that touches a single vertex of a cell swaps it with the
    cell's last, and one with no neighbour in a cell of two or more costs
    one pass over its neighbour list.  A split cell that is queued queues
    all its new fragments; one that is not queued queues all but its first
    largest fragment (Hopcroft's rule).  Every touched cell appends
    ``(splitter, cell, counts..., sizes...)`` to ``trace``, with count 0
    first when some of the cell is untouched.  The short cuts leave every
    partition, entry and queue decision as the general split would.  With
    ``replay``, each entry is compared with the next one of
    ``trace`` instead (another run's trace), and refinement stops and
    returns False at the first that differs, leaving ``part`` a whole
    partition.  Deterministic and equivariant.
    """
    lab, pos, cell_of, end = part.lab, part.pos, part.cell_of, part.end
    open_cells = part.open
    queue = deque(splitters)
    queued = bytearray(len(lab))  # by cell start
    for s in splitters:
        queued[s] = 1
    counts = [0] * len(lab)  # nonzero only while a splitter is counting
    matched = 0
    while queue and open_cells:
        sp = queue.popleft()
        queued[sp] = 0
        if end[sp] - sp == 1:
            # a unit splitter gives each neighbour a count of 1: every
            # touched cell splits into its untouched front and touched back
            hit: dict[int, list[int]] = {}
            for w in nbrs[lab[sp]]:
                s = cell_of[w]
                if end[s] - s > 1:
                    hit.setdefault(s, []).append(w)
            for s in sorted(hit) if len(hit) > 1 else hit:
                touched = hit[s]
                e = end[s]
                size = len(touched)
                back = e - size
                if trace is not None:
                    entry = (sp, s, 0, 1, back - s, size) if back > s else (sp, s, 1, size)
                    if not replay:
                        trace.append(entry)
                    elif matched == len(trace) or trace[matched] != entry:
                        part.open = open_cells
                        return False
                    matched += 1
                if back == s:
                    continue
                if size == 1:
                    # one touched vertex: swap it with the cell's last
                    w = touched[0]
                    i = pos[w]
                    u = lab[back]
                    lab[i] = u
                    pos[u] = i
                    lab[back] = w
                    pos[w] = back
                    cell_of[w] = back
                else:
                    # mark the touched by their new cell, then fill each
                    # hole they leave in front of ``back`` with an untouched one
                    for w in touched:
                        cell_of[w] = back
                    j = back
                    for w in touched:
                        i = pos[w]
                        if i < back:
                            while cell_of[lab[j]] == back:
                                j += 1
                            u = lab[j]
                            lab[i] = u
                            pos[u] = i
                            j += 1
                    for i, w in enumerate(touched, back):
                        lab[i] = w
                        pos[w] = i
                end[s] = back
                end[back] = e
                open_cells += (back - s > 1) + (size > 1) - 1
                # keep out the larger fragment, the front on a tie or when
                # the cell is queued already
                f = s if size > back - s and not queued[s] else back
                queue.append(f)
                queued[f] = 1
            continue
        # count only the neighbours in cells of two or more, listing each
        # cell's touched vertices in the order they are first met
        hit = {}
        for v in lab[sp : end[sp]]:
            for w in nbrs[v]:
                c = counts[w]
                if c:
                    counts[w] = c + 1
                else:
                    s = cell_of[w]
                    if end[s] - s > 1:
                        counts[w] = 1
                        hit.setdefault(s, []).append(w)
        for s in sorted(hit) if len(hit) > 1 else hit:
            touched = hit[s]
            e = end[s]
            back = e - len(touched)  # where the touched vertices go
            if back == s:
                c = counts[touched[0]]
                for w in touched:
                    if counts[w] != c:
                        break
                else:
                    # touched whole with one count: the cell does not split
                    if trace is not None:
                        entry = (sp, s, c, e - s)
                        if not replay:
                            trace.append(entry)
                        elif matched == len(trace) or trace[matched] != entry:
                            part.open = open_cells
                            return False
                        matched += 1
                    continue
            groups: dict[int, list[int]] = {}
            for w in touched:
                groups.setdefault(counts[w], []).append(w)
            keys = sorted(groups)
            if trace is not None:
                sizes = [len(groups[k]) for k in keys]
                if back > s:
                    entry = (sp, s, 0, *keys, back - s, *sizes)
                else:
                    entry = (sp, s, *keys, *sizes)
                if not replay:
                    trace.append(entry)
                elif matched == len(trace) or trace[matched] != entry:
                    part.open = open_cells
                    return False
                matched += 1
            frags = []
            kept, kept_size = s, 0  # the first largest fragment
            if back > s:
                # the untouched keep the front: move every touched vertex
                # in front of ``back`` onto an untouched one behind it
                j = back
                for w in touched:
                    i = pos[w]
                    if i < back:
                        while counts[lab[j]]:
                            j += 1
                        u = lab[j]
                        lab[i] = u
                        pos[u] = i
                        j += 1
                end[s] = back
                frags.append(s)
                kept_size = back - s
                if kept_size > 1:
                    open_cells += 1
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
                    open_cells += 1
                at += size
            open_cells -= 1
            if queued[s]:
                kept = s
            for f in frags:
                if f != kept:
                    queue.append(f)
                    queued[f] = 1
        for touched in hit.values():
            for w in touched:
                counts[w] = 0
    part.open = open_cells
    return not replay or matched == len(trace)


# -- the tree walk --------------------------------------------------------


class _PruneTo(Exception):
    """Unwind the walk to the node at the given depth; -1 stops it."""

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


class _Guide(NamedTuple):
    """The first path of ``g1``'s tree, which a guided walk on ``g2``
    follows: the refinement trace at the root and after each level's
    individualization, the leaf's vertex order, and ``g1``'s lines."""

    traces: list[list]
    lab: list[int]
    lines: tuple[tuple[int, ...], ...]


def _guide(g: Geometry) -> _Guide:
    """Walk ``g``'s first path: refine the root, then individualize the
    first vertex of the target cell at each level, recording every trace."""
    nbrs = _incidence_neighbours(g)
    part = _Partition.points_then_lines(g.point_count, len(nbrs))
    traces: list[list] = [[]]
    _refine(nbrs, part, part.starts(), traces[0])
    while (target := part.target()) is not None:
        part.individualize(target, part.lab[target])
        traces.append([])
        _refine(nbrs, part, [target], traces[-1])
    return _Guide(traces, part.lab, g.lines)


@dataclass(slots=True)
class _Leaf:
    """A discrete partition the walk reached: its certificate, its vertex
    order and the inverse, and the individualized vertices on its path."""

    cert: tuple
    lab: list[int]
    pos: list[int]
    path: tuple[int, ...]


class _Walker:
    """Depth-first individualization-refinement over one geometry's tree.

    Each leaf after the first is tried as an automorphism onto the first
    leaf before it builds a certificate: an automorphism carries the
    leaf's certificate onto the first's, and that is never less than
    ``best``'s, so the try decides such a leaf exactly as an equal
    certificate would.  Only a leaf that is not one builds and sorts its
    certificate to compare with ``best``'s, and an equal certificate is
    tried as an automorphism onto ``best``.  An automorphism found is kept
    for orbit pruning and unwinds the walk to the level where the two paths
    part, since the subtrees below coincide.  Without a ``guide``,
    ``best`` ends as the least leaf, and the automorphisms found generate
    the stabiliser of each prefix of the first path, so ``aut_order``, the
    product of the orbit lengths of the first path's vertices at its nodes,
    is the order of the automorphism group.

    With a ``guide`` from ``g1``, each refinement must replay the guide's
    trace at its depth, and the walk stops at the first leaf whose point
    bijection from ``g1``'s leaf carries ``g1``'s lines onto this
    geometry's, leaving it in ``mapping``; a leaf that fails still prunes by
    automorphisms.
    """

    def __init__(self, g: Geometry, guide: _Guide | None = None):
        self.n_points = g.point_count
        self.lines = g.lines
        self.line_set = g.line_set
        self.nbrs = _incidence_neighbours(g)
        self.n = len(self.nbrs)
        self.guide = guide
        self.first: _Leaf | None = None
        self.best: _Leaf | None = None
        self.autos: list[tuple[int, ...]] = []
        self.aut_order = 1
        self.mapping: tuple[int, ...] | None = None

    def run(self) -> None:
        part = _Partition.points_then_lines(self.n_points, self.n)
        if not self._refine(part, part.starts(), 0):
            return
        try:
            self._node(part, ())
        except _PruneTo:  # a guided walk found its mapping
            pass

    def _refine(self, part: _Partition, splitters: list[int], depth: int) -> bool:
        if self.guide is None:
            return _refine(self.nbrs, part, splitters)
        return _refine(self.nbrs, part, splitters, self.guide.traces[depth], True)

    def _leaf(self, part: _Partition, path: tuple[int, ...]) -> None:
        lab, pos = part.lab, part.pos
        if self.guide is not None:
            mapping = [0] * self.n_points
            for v, w in zip(self.guide.lab[: self.n_points], lab):
                mapping[v] = w
            if _mapping_ok(self.guide.lines, self.line_set, mapping):
                self.mapping = tuple(mapping)
                raise _PruneTo(-1)
        if self.first is not None:
            self._try_automorphism(lab, path, self.first)
        cert = tuple(sorted(tuple(sorted(pos[p] for p in line)) for line in self.lines))
        if self.first is None:
            self.first = self.best = _Leaf(cert, lab, pos, path)
            return
        if self.best is not self.first and cert == self.best.cert:
            self._try_automorphism(lab, path, self.best)
        if cert < self.best.cert:
            self.best = _Leaf(cert, lab, pos, path)

    def _try_automorphism(self, lab: list[int], path: tuple[int, ...], known: _Leaf) -> None:
        """Unwind to where this leaf's path parts from ``known``'s if the
        map between their vertex orders is an automorphism."""
        # cells split in place, so an individualized vertex keeps its
        # position: sigma carries this leaf's path onto the known one's
        sigma = [0] * self.n
        for v, w in zip(lab, known.lab):
            sigma[v] = w
        if self._is_automorphism(sigma):
            self.autos.append(tuple(sigma))
            depth = 0
            while path[depth] == known.path[depth]:
                depth += 1
            raise _PruneTo(depth)

    def _is_automorphism(self, sigma: Sequence[int]) -> bool:
        """Whether ``sigma`` carries each line's points onto the points of
        its image line.  ``sigma`` must keep points among points, as a map
        between two leaves does, since refinement never merges the points
        cell and the lines cell.  A bijection that carries every incidence
        onto an incidence is then an automorphism, so each incidence is
        checked once, from its line end."""
        nbrs = self.nbrs
        return all(
            sorted([sigma[p] for p in nbrs[v]]) == nbrs[sigma[v]]
            for v in range(self.n_points, self.n)
        )

    def _node(self, part: _Partition, path: tuple[int, ...]) -> None:
        target = part.target()
        if target is None:
            self._leaf(part, path)
            return
        depth = len(path)
        on_first_path = self.first is None
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
            if not self._refine(child, [target], depth + 1):
                continue
            try:
                self._node(child, path + (v,))
            except _PruneTo as prune:
                if prune.depth < depth:
                    raise
                # this candidate's subtree repeats an explored sibling's
        if on_first_path:
            orbits.merge(self.autos)
            root = orbits.find(cell[0])
            self.aut_order *= sum(orbits.find(u) == root for u in cell)


def canonical_form(g: Geometry) -> CanonicalForm:
    """Canonical certificate of the incidence structure (labels ignored),
    with a relabeling achieving it and the order of the automorphism group."""
    walker = _Walker(g)
    walker.run()
    best = walker.best
    certificate = (g.point_count, len(g.lines), best.cert)
    return CanonicalForm(certificate, tuple(best.pos[: g.point_count]), walker.aut_order)


def _mapping_ok(lines1: Sequence[tuple[int, ...]], line_set2: frozenset, mapping: Sequence[int]) -> bool:
    if sorted(mapping) != list(range(len(mapping))):
        return False
    return all(tuple(sorted(mapping[p] for p in line)) in line_set2 for line in lines1)


def _invariant_mismatch(g1: Geometry, g2: Geometry) -> str | None:
    if g1.point_count != g2.point_count:
        return f"point counts differ: {g1.point_count} vs {g2.point_count}"
    if len(g1.lines) != len(g2.lines):
        return f"line counts differ: {len(g1.lines)} vs {len(g2.lines)}"
    if sorted(map(len, g1.lines)) != sorted(map(len, g2.lines)):
        return "line size multisets differ"
    if sorted(map(len, g1.lines_by_point)) != sorted(map(len, g2.lines_by_point)):
        return "degree sequences differ"
    return None


def are_isomorphic_to(reference: Geometry, others: Sequence[Geometry]) -> list[IsoVerdict]:
    """Decide isomorphism of ``reference`` with each of ``others``: one
    verdict per geometry, in order, each with a verified bijection from
    ``reference``'s points or the invariant that separates the two.

    ``reference``'s first path is walked once, and only if some geometry
    passes the cheap invariants; each that does gets one walk guided by it.
    """
    guide = None
    verdicts = []
    for g in others:
        reason = _invariant_mismatch(reference, g)
        if reason is not None:
            verdicts.append(IsoVerdict(False, None, reason))
            continue
        if guide is None:
            guide = _guide(reference)
        walker = _Walker(g, guide)
        walker.run()
        if walker.mapping is None:
            verdict = IsoVerdict(False, None, "refinement search exhausted: no line-preserving bijection")
        else:
            verdict = IsoVerdict(True, walker.mapping, "explicit bijection found by refinement search")
        verdicts.append(verdict)
    return verdicts


def are_isomorphic(g1: Geometry, g2: Geometry) -> IsoVerdict:
    """Decide isomorphism, returning a verified point bijection or the
    invariant that separates the two geometries: the one-target form of
    :func:`are_isomorphic_to`."""
    return are_isomorphic_to(g1, [g2])[0]
