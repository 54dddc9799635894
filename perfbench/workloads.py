"""The four workloads: set-up and one cycle of operations each.

A workload's ``__init__`` is its set-up (model builds, seeded relabelings,
input files).  ``cycle()`` returns the operations of one cycle as
``(label, prepare, run)``: ``prepare()`` makes the op's input outside the
timed region, ``run(input)`` is the timed op and returns the mismatches
against the oracle.  Every cycle has the same mix, so a run of whole cycles
has the same mix whatever its length.
"""

from __future__ import annotations

import json
import random
import weakref
from dataclasses import fields
from pathlib import Path

import oracle

MODEL_NAMES = ("w2", "h3", "h3-partition", "h3-debruyn", "dsp62")


def build_models(nh) -> dict:
    h3 = nh.build_h3()
    return {
        "w2": nh.build_w2(),
        "h3": h3,
        "h3-partition": nh.build_h3_partitions(),
        "h3-debruyn": nh.build_h3_debruyn(),
        "dsp62": nh.build_dsp62(h3),
    }


def build_sts13(nh) -> dict:
    """The cyclic Steiner triple system on 13 points (base blocks {0,1,4}
    and {0,2,7} mod 13) and the one obtained from it by switching the Pasch
    configuration {0,6,8},{0,3,12},{1,6,12},{1,3,8}.  The two are not
    isomorphic but agree on every cheap invariant."""
    cyclic = sorted({
        tuple(sorted((x + shift) % 13 for x in base))
        for base in ((0, 1, 4), (0, 2, 7))
        for shift in range(13)
    })
    removed = {(0, 6, 8), (0, 3, 12), (1, 6, 12), (1, 3, 8)}
    added = [(0, 6, 12), (0, 3, 8), (1, 6, 8), (1, 3, 12)]
    switched = [b for b in cyclic if b not in removed] + added
    return {
        "sts13-cyclic": nh.Geometry(13, tuple(cyclic)),
        "sts13-switched": nh.Geometry(13, tuple(switched)),
    }


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


class ColdGuard:
    """Asserts that each op gets a Geometry never handed out before, with
    none of its lazy properties computed, and that no ``nearhex.iso`` cache
    serves a hit during an op."""

    def __init__(self, nh):
        self.nh = nh
        self._seen: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        self._fields = {f.name for f in fields(nh.Geometry)}

    def register(self, geometries) -> None:
        for g in geometries:
            self._seen[id(g)] = g

    def admit(self, g) -> None:
        if self._seen.get(id(g)) is g:
            raise AssertionError("cold-state guard: op input reuses an earlier Geometry")
        warm = sorted(set(vars(g)) - self._fields)
        if warm:
            raise AssertionError(f"cold-state guard: op input has computed {warm}")
        self._seen[id(g)] = g

    def cache_hits(self) -> int:
        return sum(
            obj.cache_info().hits
            for obj in vars(self.nh.iso).values()
            if hasattr(obj, "cache_info")
        )


def _document(g, name: str) -> dict:
    labels = g.labels or tuple(range(g.point_count))
    return {
        "name": name,
        "points": [{"id": i, "label": str(label)} for i, label in enumerate(labels)],
        "lines": [list(line) for line in g.lines],
    }


class Report:
    """``nearhex report`` in-process; every op builds all models cold."""

    def __init__(self, nh, rng, workdir: Path, guard: ColdGuard):
        self.nh = nh
        self.out = workdir / "report.json"
        self.first: bytes | None = None

    def cycle(self):
        return [("report", lambda: None, self._run)]

    def _run(self, _):
        code = self.nh.cli.main(["report", "--out", str(self.out)])
        data = self.out.read_bytes()
        if self.first is None:
            self.first = data
        bad = [] if code == 0 else [f"report exit code {code}"]
        if data != self.first:
            bad.append("report output differs from the first op's")
        return bad + oracle.check_report(json.loads(data))


class Verify:
    """The full verify check list through the public functions, on a fresh
    seeded relabeling of one model per op."""

    def __init__(self, nh, rng, workdir: Path, guard: ColdGuard):
        self.nh, self.rng, self.guard = nh, rng, guard
        self.models = build_models(nh)
        guard.register(self.models.values())

    def cycle(self):
        return [(m, self._prepare(m), self._run) for m in MODEL_NAMES]

    def _prepare(self, model):
        def prepare():
            base = self.models[model]
            perm = permutation(self.rng, base.point_count)
            g = self.nh.iso.relabel(base, perm)
            self.guard.admit(g)
            # the embedded hexagon is points 0..104 of the built dsp62
            hexagon = [perm[p] for p in range(105)] if model == "dsp62" else None
            return model, g, hexagon
        return prepare

    def _run(self, arg):
        model, g, hexagon = arg
        nh = self.nh
        got = {
            "line_count": len(g.lines),
            "pls": nh.geometry.validate_pls(g),
            "params": nh.verify.parameters(g),
            "np": nh.verify.check_np(g),
            "profiles": nh.verify.line_distance_profiles(g),
            "quads": nh.verify.enumerate_quads(g),
        }
        if model == "h3":
            got["cases"] = nh.verify.h3_case_analysis(g)
        elif model == "dsp62":
            got["cases"] = nh.verify.dsp_case_analysis(g, hexagon)
            got["hyperplane"] = nh.geometry.is_geometric_hyperplane(g, hexagon)
        return oracle.check_verify(model, got)


class Iso:
    """``nearhex iso A B`` in-process on files written during set-up: each
    model against a relabeling of itself, the 105-point models against one
    another's relabelings, and the non-isomorphic STS(13) pair."""

    def __init__(self, nh, rng, workdir: Path, guard: ColdGuard):
        self.nh = nh
        self.out = workdir / "iso.json"
        self.docs: dict[str, dict] = {}
        self.paths: dict[str, str] = {}
        models = build_models(nh)
        sts = build_sts13(nh)
        guard.register([*models.values(), *sts.values()])
        for name, g in {**models, **sts}.items():
            self._write(workdir, name, g)
        for name in MODEL_NAMES:
            g = models[name]
            copy = nh.iso.relabel(g, permutation(rng, g.point_count))
            self._write(workdir, name + "~r", copy)
        self.pairs = [(m, m + "~r") for m in MODEL_NAMES] + [
            ("h3", "h3-partition~r"),
            ("h3", "h3-debruyn~r"),
            ("h3-partition", "h3-debruyn~r"),
            ("sts13-cyclic", "sts13-switched"),
        ]

    def _write(self, workdir: Path, key: str, g) -> None:
        doc = _document(g, key)
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.docs[key] = doc
        self.paths[key] = str(path)

    def cycle(self):
        return [(f"{a}~{b}", lambda pair=(a, b): pair, self._run) for a, b in self.pairs]

    def _run(self, pair):
        a, b = pair
        code = self.nh.cli.main(["iso", self.paths[a], self.paths[b], "--out", str(self.out)])
        doc = json.loads(self.out.read_text(encoding="utf-8"))
        return oracle.check_iso(
            a, b.removesuffix("~r"), code, doc, self.docs[a], self.docs[b]
        )


class Canon:
    """``canonical_form`` on a fresh seeded relabeling of the five models
    and both STS(13); no two ops share an input, so its cache never hits.
    The 105-point models run twice a cycle, which puts the median op inside
    their cluster of times instead of on its edge (w2 and both STS(13) are
    fast, dsp62 slow)."""

    def __init__(self, nh, rng, workdir: Path, guard: ColdGuard):
        self.nh, self.rng, self.guard = nh, rng, guard
        self.models = {**build_models(nh), **build_sts13(nh)}
        guard.register(self.models.values())
        self.certificates: dict = {}

    def cycle(self):
        order = [*self.models, "h3", "h3-partition", "h3-debruyn"]
        return [(m, self._prepare(m), self._run) for m in order]

    def _prepare(self, model):
        def prepare():
            base = self.models[model]
            g = self.nh.iso.relabel(base, permutation(self.rng, base.point_count))
            self.guard.admit(g)
            return model, g
        return prepare

    def _run(self, arg):
        model, g = arg
        form = self.nh.iso.canonical_form(g)
        return oracle.check_canonical(model, g.lines, form, self.certificates)


WORKLOADS = {"report": Report, "verify": Verify, "iso": Iso, "canon": Canon}
