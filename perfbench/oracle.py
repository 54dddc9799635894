"""Known answers for every benchmark operation.

The facts are stated here, once, from the paper and its README and from
counting arguments spelled out beside them; none is read from
``nearhex.acceptance`` or ``nearhex.cli``.  Each ``check_*`` function
returns a list of mismatches, empty when the output is right.
"""

from __future__ import annotations

import json

# v, lines, t+1 (lines per point), t2 values and diameter, from the README's
# table of geometries.
#
# Line distance profiles follow from the near-polygon axiom: a point off a
# line L is collinear with at most one point of L, so each point of L
# contributes (t+1-1)*s = 2t neighbours with profile (1,2,2), and every other
# point off L has profile (2,3,3) (diameter 3) -- or none (diameter 2).
#   w2:   3*4  = 12 per line, 0 left;   x15 lines
#   h3:   3*10 = 30 per line, 72 left;  x210 lines
#   dsp:  3*12 = 36 per line, 96 left;  x315 lines
#
# Quads: a generalized quadrangle is its own unique quad; the 105-point
# hexagon has 35 grids and 28 (2,2)-quads; all 63 quads of DSp(6,2) are
# (2,2)-quadrangles.
_H3 = {
    "v": 105, "lines": 210, "lines_per_point": 6, "t2": {1, 2}, "diameter": 3,
    "profiles": {(1, 2, 2): 6300, (2, 3, 3): 15120},
    "quads": {"grid21": 35, "gq22": 28},
}
MODELS = {
    "w2": {
        "v": 15, "lines": 15, "lines_per_point": 3, "t2": {2}, "diameter": 2,
        "profiles": {(1, 2, 2): 180},
        "quads": {"gq22": 1},
    },
    "h3": {**_H3, "cases": "h3"},
    "h3-partition": _H3,
    "h3-debruyn": _H3,
    "dsp62": {
        "v": 135, "lines": 315, "lines_per_point": 7, "t2": {2}, "diameter": 3,
        "profiles": {(1, 2, 2): 11340, (2, 3, 3): 30240},
        "quads": {"gq22": 63},
        "cases": "dsp", "hyperplane": True,
    },
}

# Isomorphism classes: the three 105-point models are one class; the two
# Steiner triple systems on 13 points are not isomorphic.
ISO_CLASS = {
    "w2": "w2", "h3": "h3", "h3-partition": "h3", "h3-debruyn": "h3",
    "dsp62": "dsp62", "sts13-cyclic": "sts13-cyclic", "sts13-switched": "sts13-switched",
}

# Point and line counts of every input, the two Steiner triple systems on 13
# points included (13*12/6 = 26 triples).
SIZES = {name: (m["v"], m["lines"]) for name, m in MODELS.items()}
SIZES.update({"sts13-cyclic": (13, 26), "sts13-switched": (13, 26)})

# Pair counts of the case analyses, with the observed histogram each case
# must give (common neighbours at distance 2, distance for distance-3 cases).
#   h3:  105 points, 12 neighbours each -> 630 collinear pairs.  A point
#        (x,u') shares x with 6 others and u' with 6 others: 105*6/2 = 315
#        each (A1, A2, two common neighbours).  The 12 neighbours have 10
#        further neighbours each, 120 incidences, so (120 - 12*2)/3 = 32
#        A3 points with three common neighbours: 105*32/2 = 1680.  The rest,
#        105-1-12-12-32 = 48 per point at distance 3: 2520 A4 pairs.
#   dsp: 135 points, 14 neighbours -> 945 collinear pairs; t2 = 2 puts every
#        distance-2 pair at exactly 3 common neighbours.  B1/B2 are the
#        C(15,2) = 105 pairs inside one base copy; B3 the 15*15 - 105 = 120
#        non-collinear plain/primed pairs; the 1575 - 105 = 1470 non-collinear
#        plain/hexagon pairs split 630 (B4) + 840 (B6), as do primed/hexagon
#        pairs (B5, B7).
H3_CASES = {
    "A1": (315, {2: 315}), "A2": (315, {2: 315}), "A3": (1680, {3: 1680}),
    "A4": (2520, {3: 2520}), "collinear": (630, {1: 630}),
}
DSP_CASES = {
    "B1": (105, {3: 105}), "B2": (105, {3: 105}), "B3": (120, {3: 120}),
    "B4": (630, {3: 630}), "B5": (630, {3: 630}), "B6": (840, {3: 840}),
    "B7": (840, {3: 840}), "A1": (315, {3: 315}), "A2": (315, {3: 315}),
    "A3": (1680, {3: 1680}), "A4": (2520, {3: 2520}), "collinear": (945, {1: 945}),
}


def _profile_doc(profiles: dict) -> dict:
    return {str(k): v for k, v in sorted(profiles.items())}


def _cases_doc(cases: dict, total: bool) -> dict:
    doc = {
        case: {"pairs": pairs, "observed": {str(k): v for k, v in hist.items()}}
        for case, (pairs, hist) in cases.items()
    }
    if total:
        doc["total_pairs"] = sum(pairs for pairs, _ in cases.values())
    return doc


def _params_doc(m: dict) -> dict:
    return {
        "v": m["v"], "lines": m["lines"], "lines_per_point": [m["lines_per_point"]],
        "t2_values": sorted(m["t2"]), "diameter": m["diameter"],
    }


def _triads() -> dict:
    return {"total": 80, "complete": 20, "incomplete": 60}


# Counts of the ten acceptance criteria.  Criterion 2: W(2) has 20 complete
# and 60 incomplete triads of points and of lines; each incomplete triad lies
# in exactly one 3x3 grid, which holds 6 triads, so there are 60/6 = 10
# grids; 15 points with 8 non-collinear partners give 60 pairs.  Criterion
# 6: the 105 glue lines {x,(x,u'),u'} have 36 + 96 profiles each.
# Criterion 10: the flag model has 15 + 45 + 30 + 120 lines of types i-iv,
# and every swap-line escort triad is complete.
REPORT_COUNTS = {
    1: {"points": 15, "lines": 15, "order": [2, 2]},
    2: {
        "point_triads": _triads(), "distinct_grids": 10,
        "line_triads": _triads(), "noncollinear_pairs": 60,
    },
    3: _params_doc(MODELS["h3"]),
    4: _params_doc(MODELS["dsp62"]),
    5: _cases_doc(H3_CASES, total=True),
    6: {
        **_cases_doc(DSP_CASES, total=False),
        "line_profiles": _profile_doc(MODELS["dsp62"]["profiles"]),
        "glue_line_profiles": _profile_doc({(1, 2, 2): 105 * 36, (2, 3, 3): 105 * 96}),
    },
    7: {"hyperplane": True},
    8: {
        "h3~h3-partition": True, "h3~h3-debruyn": True,
        "h3-partition~h3-debruyn": True, "h3~dsp62": False,
    },
    9: {
        "dsp62": {"grid21": 0, "gq22": 63, "other": 0},
        "h3": {"grid21": 35, "gq22": 28, "other": 0},
    },
    10: {
        "line_type_counts": {"i": 15, "ii": 45, "iii": 30, "iv": 120},
        "swap_line_escort_triads": {"complete": 120, "incomplete": 0},
        "described_kind": "incomplete",
        "agrees_with_description": False,
    },
}


def check_report(doc: dict) -> list[str]:
    """Every criterion passes (criterion 10 is informational) with the
    counts stated above and no witnesses."""
    bad = []
    if doc.get("suite") != "nearhex-acceptance" or doc.get("all_pass") is not True:
        bad.append(f"suite/all_pass: {doc.get('suite')!r} {doc.get('all_pass')!r}")
    criteria = {c.get("criterion"): c for c in doc.get("criteria", [])}
    if sorted(criteria) != list(range(1, 11)):
        bad.append(f"criteria present: {sorted(criteria)}")
    for n, want in REPORT_COUNTS.items():
        c = criteria.get(n, {})
        verdict = "info" if n == 10 else "pass"
        if c.get("verdict") != verdict or c.get("witnesses"):
            bad.append(f"criterion {n}: verdict {c.get('verdict')!r}, witnesses {c.get('witnesses')!r}")
        if c.get("counts") != want:
            bad.append(f"criterion {n}: counts {json.dumps(c.get('counts'))}")
    return bad


def check_verify(model: str, got: dict) -> list[str]:
    """``got`` holds the raw results of the verify check list on one
    relabeled copy of ``model`` (see ``workloads.verify_op``)."""
    m = MODELS[model]
    bad = []
    p = got["params"]
    observed = {
        "v": p.v, "lines": got["line_count"], "lines_per_point": set(p.lines_per_point),
        "t2": set(p.t2_values), "diameter": p.diameter,
        "dense": p.dense, "slim": p.slim, "connected": p.connected,
    }
    expected = {
        "v": m["v"], "lines": m["lines"], "lines_per_point": {m["lines_per_point"]},
        "t2": m["t2"], "diameter": m["diameter"], "dense": True, "slim": True, "connected": True,
    }
    for key, want in expected.items():
        if observed[key] != want:
            bad.append(f"{model} {key}: {observed[key]!r} != {want!r}")
    if not got["pls"].ok:
        bad.append(f"{model}: not a partial linear space")
    if not got["np"].ok:
        bad.append(f"{model}: near-polygon axiom fails at {got['np'].witness}")
    if got["profiles"] != m["profiles"]:
        bad.append(f"{model} profiles: {got['profiles']}")
    kinds: dict[str, int] = {}
    for q in got["quads"]:
        kinds[q.kind] = kinds.get(q.kind, 0) + 1
    if kinds != m["quads"]:
        bad.append(f"{model} quads: {kinds}")
    if "cases" in m:
        want_cases = H3_CASES if m["cases"] == "h3" else DSP_CASES
        seen = {r.case: (r.pair_count, dict(r.observed)) for r in got["cases"]}
        if seen != want_cases or not all(r.ok for r in got["cases"]):
            bad.append(f"{model} cases: {seen}")
    if m.get("hyperplane") and got.get("hyperplane") is not True:
        bad.append(f"{model}: embedded hexagon is not a geometric hyperplane")
    return bad


def check_mapping(doc_a: dict, doc_b: dict, mapping: dict) -> list[str]:
    """``mapping`` (label -> label) is a bijection carrying every line of A
    onto a line of B."""
    index_a = {p["label"]: p["id"] for p in doc_a["points"]}
    index_b = {p["label"]: p["id"] for p in doc_b["points"]}
    if set(mapping) != set(index_a) or sorted(mapping.values()) != sorted(index_b):
        return ["mapping is not a bijection of the point labels"]
    label_a = {i: label for label, i in index_a.items()}
    image = {i: index_b[mapping[label_a[i]]] for i in index_a.values()}
    lines_b = {tuple(sorted(line)) for line in doc_b["lines"]}
    for line in doc_a["lines"]:
        if tuple(sorted(image[p] for p in line)) not in lines_b:
            return [f"line {line} is not carried onto a line"]
    return []


def check_iso(a: str, b: str, code: int, doc: dict, doc_a: dict, doc_b: dict) -> list[str]:
    iso = ISO_CLASS[a] == ISO_CLASS[b]
    want = (0, "isomorphic") if iso else (1, "not isomorphic")
    if (code, doc.get("verdict")) != want:
        return [f"{a}~{b}: exit {code}, verdict {doc.get('verdict')!r}, want {want}"]
    if iso:
        return check_mapping(doc_a, doc_b, doc.get("mapping", {}))
    return []


def check_canonical(model: str, lines, form, certificates: dict) -> list[str]:
    """The relabeling carries the input's lines exactly onto the
    certificate; certificates agree within a class and differ across
    classes.  ``certificates`` holds the first certificate seen per class."""
    n, n_lines, cert_lines = form.certificate
    relabeling = form.relabeling
    if (n, n_lines) != SIZES[model]:
        return [f"{model} certificate sizes {(n, n_lines)}"]
    if sorted(relabeling) != list(range(n)):
        return [f"{model} relabeling is not a permutation"]
    relabeled = tuple(sorted(tuple(sorted(relabeling[p] for p in line)) for line in lines))
    if relabeled != cert_lines:
        return [f"{model} relabeling does not carry the lines onto the certificate"]
    cls = ISO_CLASS[model]
    known = certificates.setdefault(cls, form.certificate)
    if known != form.certificate:
        return [f"{model} certificate differs from its class {cls}"]
    if any(c == form.certificate for k, c in certificates.items() if k != cls):
        return [f"{model} certificate equals that of another class"]
    return []
