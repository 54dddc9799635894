"""Spans around the public functions of each nearhex module, recorded from
outside the package.

``Tracer.install`` replaces each traced function at every attribute its
callers look it up by -- module globals, the package namespace, and the
dicts and tuples that hold it (``cli.MODELS``, ``acceptance.CRITERIA``) --
and the ``Geometry.distance_rows`` cached property on the class.
``uninstall`` puts the originals back.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import cached_property

BUILDERS = (
    ("gq22", "build_w2"),
    ("builders", "build_h3"),
    ("builders", "build_h3_partitions"),
    ("builders", "build_h3_debruyn"),
    ("builders", "build_dsp62"),
    ("builders", "debruyn_census"),
)
FUNCTIONS = BUILDERS + (
    ("geometry", "convex_closure"),
    ("geometry", "is_geometric_hyperplane"),
    ("gq22", "is_gq"),
    ("gq22", "enumerate_triads"),
    ("verify", "parameters"),
    ("verify", "check_np"),
    ("verify", "line_distance_profiles"),
    ("verify", "enumerate_quads"),
    ("verify", "h3_case_analysis"),
    ("verify", "dsp_case_analysis"),
    ("iso", "are_isomorphic"),
    ("iso", "canonical_form"),
    ("iso", "relabel"),
    ("jsonio", "load_geometry"),
    ("jsonio", "dumps"),
    ("cli", "main"),
) + tuple(("acceptance", f"criterion_{n}") for n in range(1, 11))

ISO_PATHS = ("lockstep", "exhausted", "certificate", "invariant")

def iso_path(detail: str) -> str:
    """The decision path named by an ``IsoVerdict.detail``."""
    if detail.startswith("explicit bijection"):
        return "lockstep"
    if detail.startswith("refinement search exhausted"):
        return "exhausted"
    if "canonical certificate" in detail:
        return "certificate"
    if "differ" in detail:
        return "invariant"
    return "unknown"


class Tracer:
    def __init__(self, nearhex):
        self.nearhex = nearhex
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op: object = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, n: int) -> None:
        self.counts[("setup", key) if self.op == "setup" else ("loop", key)] += n

    def _after(self, name):
        if name == "verify.enumerate_quads":
            return lambda quads: self._count("quads", len(quads))
        if name in ("verify.h3_case_analysis", "verify.dsp_case_analysis"):
            return lambda reports: self._count("case_pairs", sum(r.pair_count for r in reports))
        if name == "iso.are_isomorphic":
            return lambda verdict: self._count("iso.path." + iso_path(verdict.detail), 1)
        return None

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "nearhex" and not modname.startswith("nearhex."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch_attr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append(("item", value, k, v))
                            value[k] = wrapper
                elif isinstance(value, tuple) and any(v is original for v in value):
                    self._patch_attr(mod, key, tuple(wrapper if v is original else v for v in value))

    def _patch_attr(self, obj, key, new) -> None:
        self._patches.append(("attr", obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def install(self) -> None:
        for modname, attr in FUNCTIONS:
            name = f"{modname}.{attr}"
            mod = sys.modules.get(f"nearhex.{modname}")
            original = getattr(mod, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._replace_everywhere(original, self._wrap(name, original, self._after(name)))
        geometry_cls = self.nearhex.geometry.Geometry
        prop = vars(geometry_cls).get("distance_rows")
        if isinstance(prop, cached_property):
            traced = cached_property(self._wrap("geometry.distance_rows", prop.func))
            traced.__set_name__(geometry_cls, "distance_rows")
            self._patch_attr(geometry_cls, "distance_rows", traced)
        elif "geometry.distance_rows" not in self.missing:
            self.missing.append("geometry.distance_rows")

    def uninstall(self) -> None:
        while self._patches:
            kind, obj, key, old = self._patches.pop()
            if kind == "attr":
                setattr(obj, key, old)
            else:
                obj[key] = old

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, cycles: int) -> tuple[dict[str, float], float]:
        """Per-layer totals of one traced set-up plus the mean traced cycle,
        and the mean count of verdicts whose decision path is unknown."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        builders = {f"{m}.{a}" for m, a in BUILDERS}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            share = 1.0 if op == "setup" else 1.0 / cycles
            dur = end - start
            total[name] += dur * share
            self_s[name] += (dur - children[i]) * share
            calls[name] += share
            if name in builders and (parent < 0 or self.spans[parent][0] not in builders):
                total["builders.build"] += dur * share
            if name == "geometry.convex_closure" and parent >= 0 \
                    and self.spans[parent][0] == "verify.enumerate_quads":
                calls["quad_closures"] += share
        c: dict[str, float] = defaultdict(float)
        for (phase, key), count in self.counts.items():
            c[key] += count if phase == "setup" else count / cycles
        closures = calls["quad_closures"]
        layers = {
            "builders.build.s": total["builders.build"],
            "geometry.distance_rows.calls": calls["geometry.distance_rows"],
            "geometry.distance_rows.s": total["geometry.distance_rows"],
            "geometry.convex_closure.calls": calls["geometry.convex_closure"],
            "geometry.convex_closure.s": total["geometry.convex_closure"],
            "geometry.is_geometric_hyperplane.s": total["geometry.is_geometric_hyperplane"],
            "gq22.is_gq.calls": calls["gq22.is_gq"],
            "gq22.is_gq.s": total["gq22.is_gq"],
            "gq22.enumerate_triads.s": total["gq22.enumerate_triads"],
            "verify.parameters.s": total["verify.parameters"],
            "verify.check_np.s": total["verify.check_np"],
            "verify.line_distance_profiles.s": total["verify.line_distance_profiles"],
            "verify.case_analysis.s": total["verify.h3_case_analysis"] + total["verify.dsp_case_analysis"],
            "verify.case_analysis.pairs": c["case_pairs"],
            "verify.enumerate_quads.self_s": self_s["verify.enumerate_quads"],
            "verify.enumerate_quads.quads_per_closure": c["quads"] / closures if closures else 0.0,
            "iso.are_isomorphic.calls": calls["iso.are_isomorphic"],
            "iso.are_isomorphic.s": total["iso.are_isomorphic"],
            **{f"iso.path.{p}": c[f"iso.path.{p}"] for p in ISO_PATHS},
            "iso.canonical_form.calls": calls["iso.canonical_form"],
            "iso.canonical_form.s": total["iso.canonical_form"],
            "iso.relabel.s": total["iso.relabel"],
            "jsonio.load_geometry.s": total["jsonio.load_geometry"],
            "jsonio.dumps.s": total["jsonio.dumps"],
            **{f"acceptance.criterion_{n}.s": total[f"acceptance.criterion_{n}"] for n in range(1, 11)},
            "cli.self_s": self_s["cli.main"],
        }
        return layers, c["iso.path.unknown"]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
            fh.write("\n")
