"""The acceptance suite: every headline claim about the constructed
geometries, run exhaustively and timed.

Each criterion is written once, as a body that records its expectations
and returns its counts; the :func:`_criterion` decorator times it and
builds its :class:`CriterionResult`.  Where a criterion judges a model
against ``verify.EXPECTED`` -- its parameters, case analysis, embedded
hexagon or quad kinds -- it takes the verdict from
:func:`~nearhex.verify.run_check`, the same judge ``nearhex verify``
reports, and reshapes its counts.  The ``report`` CLI command and the
test suite both consume :func:`run_acceptance`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from itertools import combinations

from .builders import (
    DebruynCensus,
    build_dsp62,
    build_h3,
    build_h3_partitions,
    debruyn_census,
)
from .geometry import Geometry, dual_geometry
from .gq22 import (
    build_w2,
    complete_triad_through,
    enumerate_triads,
    incomplete_triad_subgq,
    is_gq,
)
from .iso import IsoVerdict, _mapping_ok, are_isomorphic, are_isomorphic_to
from .verify import EXPECTED, Check, line_distance_profiles, run_check

HEX_PROFILES = {(1, 2, 2), (2, 3, 3)}


@dataclass
class CriterionResult:
    criterion: int
    title: str
    verdict: str  # "pass" | "fail" | "info"
    runtime: float
    limit: float | None
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


class _Checker:
    def __init__(self):
        self.witnesses: list[str] = []

    def expect(self, cond: bool, witness: str) -> None:
        if not cond and len(self.witnesses) < 10:
            self.witnesses.append(witness)

    def check(self, check: str, model: str, g: Geometry) -> Check:
        """Record the witnesses of ``run_check(check, model, g)``, each
        prefixed with the model and check names, and return its verdict."""
        result = run_check(check, model, g)
        for witness in result.witnesses:
            self.expect(False, f"{model} {check}: {witness}")
        return result


def _criterion(number: int, title: str, limit: float | None):
    """Make ``body(c, models, census) -> counts`` a timed criterion: the body
    records its expectations on a fresh :class:`_Checker` ``c``, and the
    verdict is "info" without a limit, else "pass" or "fail" from ``c``."""

    def decorate(body):
        @wraps(body)
        def run(models: dict[str, Geometry], census: DebruynCensus) -> CriterionResult:
            t0 = time.perf_counter()
            c = _Checker()
            counts = body(c, models, census)
            verdict = "info" if limit is None else "fail" if c.witnesses else "pass"
            return CriterionResult(
                number, title, verdict, time.perf_counter() - t0, limit, counts, c.witnesses
            )

        return run

    return decorate


@_criterion(1, "W(2) model: 15 points, 15 lines, order (2,2), self-dual", 1.0)
def criterion_1(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    w2 = models["w2"]
    c.check("params", "w2", w2)
    verdict = is_gq(w2)
    c.expect(verdict.order == (2, 2), f"order {verdict.order}: {verdict.witness}")
    dual = dual_geometry(w2)
    iso = are_isomorphic(w2, dual)
    c.expect(iso.isomorphic, f"self-duality failed: {iso.detail}")
    return {"points": w2.point_count, "lines": len(w2.lines), "order": list(verdict.order or ())}


@_criterion(2, "Triad facts: perp sizes 1/3, 20+60 split, unique grids and complete triads", 1.0)
def criterion_2(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    """The triad total is not checked on its own: ``_classify_triad``
    raises unless each triad is complete or incomplete, so the checked
    20/60 split fixes the total at 80."""
    w2 = models["w2"]
    counts = {}
    for mode in ("points", "lines"):
        triads = enumerate_triads(w2, mode)
        kinds = {"complete": 0, "incomplete": 0} | Counter(t.kind for t in triads)
        c.expect(kinds == {"complete": 20, "incomplete": 60}, f"{mode}: {kinds}")
        counts[f"{mode[:-1]}_triads"] = {"total": len(triads), **kinds}
        if mode == "points":
            grids = set()
            for t in triads:
                if t.kind == "incomplete":
                    grids.add(incomplete_triad_subgq(w2, t))  # raises unless unique
            counts["distinct_grids"] = len(grids)
    adj = w2.adjacency
    noncollinear = [(x, y) for x, y in combinations(range(15), 2) if not adj[x] >> y & 1]
    c.expect(len(noncollinear) == 60, f"{len(noncollinear)} non-collinear pairs")
    for x, y in noncollinear:
        complete_triad_through(w2, x, y)  # raises unless unique
    counts["noncollinear_pairs"] = len(noncollinear)
    return counts


def _hexagon_counts(c: _Checker, g: Geometry, name: str) -> dict:
    observed = c.check("params", name, g).counts["observed"]
    c.check("np", name, g)
    return {"v": observed.pop("v"), "lines": len(g.lines), **observed}


@_criterion(3, "105-point hexagon: v=105, t+1=6, dense, NP, diameter 3, t2 in {1,2}", 5.0)
def criterion_3(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    return _hexagon_counts(c, models["h3"], "h3")


@_criterion(4, "135-point space: v=135, 315 lines, t+1=7, dense, NP, diameter 3, t2=2", 10.0)
def criterion_4(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    return _hexagon_counts(c, models["dsp62"], "dsp62")


@_criterion(5, "105-point case analysis: A1/A2 give 2, A3 gives 3, A4 gives distance 3", 5.0)
def criterion_5(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    counts = c.check("cases", "h3", models["h3"]).counts
    counts["total_pairs"] = sum(case["pairs"] for case in counts.values())
    return counts


@_criterion(6, "135-point case analysis: B1/B2/B4/B5 give 3, B3/B6/B7 give distance 3", 10.0)
def criterion_6(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    """The glue lines, those with a point off the hexagon, are counted and
    profiled but not checked on their own.  ``build_dsp62`` adds exactly
    one line through each of the 105 hexagon points, and the hexagon's
    own lines stay inside points 0..104, so there are 105 of them.  They
    are among all the lines, whose profiles must lie in ``HEX_PROFILES``."""
    dsp = models["dsp62"]
    hexagon = EXPECTED["dsp62"].hexagon
    counts = c.check("cases", "dsp62", dsp).counts
    glue = [i for i, line in enumerate(dsp.lines) if any(p not in hexagon for p in line)]
    profiles = line_distance_profiles(dsp)
    glue_profiles = line_distance_profiles(dsp, glue)
    c.expect(
        set(profiles) <= HEX_PROFILES,
        f"unexpected line distance profiles {sorted(set(profiles) - HEX_PROFILES)}",
    )
    counts["line_profiles"] = {str(k): v for k, v in sorted(profiles.items())}
    counts["glue_line_profiles"] = {str(k): v for k, v in sorted(glue_profiles.items())}
    return counts


@_criterion(7, "The 105-point hexagon is a geometric hyperplane of the 135-point space", 1.0)
def criterion_7(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    return {"hyperplane": c.check("hyperplane", "dsp62", models["dsp62"]).ok}


@_criterion(8, "Model isomorphisms: three 105-point models agree, 135-point differs", 60.0)
def criterion_8(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    counts = {}

    def record(name_a: str, name_b: str, verdict: IsoVerdict) -> None:
        name = f"{name_a}~{name_b}"
        c.expect(verdict.isomorphic, f"{name}: {verdict.detail}")
        if verdict.mapping is not None:
            carried = _mapping_ok(models[name_a].lines, models[name_b].line_set, verdict.mapping)
            c.expect(carried, f"{name}: returned bijection does not carry lines")
        counts[name] = verdict.isomorphic

    # one guide from h3 serves every walk; the third 105-point pair is
    # psi . phi^-1 of the two bijections out of h3, checked line by line
    others = [models[name] for name in ("h3-partition", "h3-debruyn", "dsp62")]
    phi, psi, dsp = are_isomorphic_to(models["h3"], others)
    record("h3", "h3-partition", phi)
    record("h3", "h3-debruyn", psi)
    if phi.isomorphic and psi.isomorphic:
        composed = [0] * len(phi.mapping)
        for p, q in enumerate(phi.mapping):
            composed[q] = psi.mapping[p]
        pair = IsoVerdict(True, tuple(composed), "composed from the bijections out of h3")
    else:
        pair = are_isomorphic(models["h3-partition"], models["h3-debruyn"])
    record("h3-partition", "h3-debruyn", pair)
    c.expect(not dsp.isomorphic, "105- and 135-point spaces compare isomorphic")
    counts["h3~dsp62"] = dsp.isomorphic
    return counts


@_criterion(9, "Quad census: all 135-point quads are (2,2); 105-point has both kinds", 30.0)
def criterion_9(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    counts = {}
    for name in ("dsp62", "h3"):
        kinds = c.check("quads", name, models[name]).counts["kinds"]
        counts[name] = {"grid21": 0, "gq22": 0, "other": 0} | kinds
    return counts


@_criterion(
    10, "Flag-model swap lines: completeness census of their escort triads (documentation only)", None
)
def criterion_10(c: _Checker, models: dict[str, Geometry], census: DebruynCensus) -> dict:
    kinds = census.escort_kind_counts
    return {
        "line_type_counts": census.type_counts,
        "swap_line_escort_triads": kinds,
        # sometimes described as incomplete, though debruyn_census argues
        # that each is complete; record whether the census agrees
        "described_kind": "incomplete",
        "agrees_with_description": kinds["complete"] == 0,
    }


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_acceptance() -> list[CriterionResult]:
    """Build each model once, the 135-point space from the same hexagon and
    the flag model from the census that criterion 10 reads, and run every
    criterion on them."""
    census = debruyn_census()
    h3 = build_h3()
    models = {
        "w2": build_w2(),
        "h3": h3,
        "h3-partition": build_h3_partitions(),
        "h3-debruyn": census.geometry,
        "dsp62": build_dsp62(h3),
    }
    return [fn(models, census) for fn in CRITERIA]


def acceptance_report(results: list[CriterionResult]) -> dict:
    # measured runtimes stay out of the document so that a fixed version
    # yields byte-identical reports; the test suite enforces the limits
    return {
        "suite": "nearhex-acceptance",
        "all_pass": all(r.verdict != "fail" for r in results),
        "criteria": [
            {
                "criterion": r.criterion,
                "title": r.title,
                "verdict": r.verdict,
                "limit_seconds": r.limit,
                "counts": r.counts,
                "witnesses": r.witnesses,
            }
            for r in results
        ],
    }
