"""Acceptance suite: every headline criterion, run at its stated runtime
limit, one pass/fail line printed per criterion.

Criterion 10 is documentation-only by design: it records whether the
escort triads of the flag model's swap lines are complete or incomplete
instead of asserting either reading.
"""

from dataclasses import replace

import pytest

from nearhex import Geometry
from nearhex.acceptance import _Checker, _criterion, acceptance_report, criterion_8, run_acceptance
from nearhex.cli import _entry
from nearhex.iso import are_isomorphic_to


CRITERION_8_COUNTS = {
    "h3~h3-partition": True,
    "h3~h3-debruyn": True,
    "h3-partition~h3-debruyn": True,
    "h3~dsp62": False,
}


@pytest.fixture(scope="module")
def results():
    out = run_acceptance()
    for r in out:
        limit = f" < {r.limit:.0f}s" if r.limit else ""
        print(f"criterion {r.criterion:2d}: {r.verdict.upper():4s} "
              f"({r.runtime:.2f}s{limit})  {r.title}")
    return {r.criterion: r for r in out}


def _check(r):
    assert r.verdict in ("pass", "info"), f"criterion {r.criterion}: {r.witnesses}"
    if r.limit is not None:
        assert r.runtime < r.limit, (
            f"criterion {r.criterion} took {r.runtime:.2f}s, limit {r.limit}s"
        )


def test_criterion_01_w2_model(results):
    r = results[1]
    _check(r)
    assert r.counts["points"] == 15
    assert r.counts["lines"] == 15
    assert r.counts["order"] == [2, 2]


def test_criterion_02_triad_facts(results):
    r = results[2]
    _check(r)
    assert r.counts["point_triads"] == {"total": 80, "complete": 20, "incomplete": 60}
    assert r.counts["line_triads"] == {"total": 80, "complete": 20, "incomplete": 60}
    assert r.counts["distinct_grids"] == 10
    assert r.counts["noncollinear_pairs"] == 60


def test_criterion_03_h3_parameters(results):
    r = results[3]
    _check(r)
    assert r.counts["v"] == 105
    assert r.counts["lines"] == 210
    assert r.counts["t2_values"] == [1, 2]
    assert r.counts["diameter"] == 3


def test_criterion_04_dsp_parameters(results):
    r = results[4]
    _check(r)
    assert r.counts["v"] == 135
    assert r.counts["lines"] == 315
    assert r.counts["t2_values"] == [2]
    assert r.counts["diameter"] == 3


def test_criterion_05_h3_cases(results):
    r = results[5]
    _check(r)
    assert r.counts["total_pairs"] == 5460
    assert r.counts["A1"] == {"pairs": 315, "observed": {2: 315}}
    assert r.counts["A2"] == {"pairs": 315, "observed": {2: 315}}
    assert r.counts["A3"] == {"pairs": 1680, "observed": {3: 1680}}
    assert r.counts["A4"] == {"pairs": 2520, "observed": {3: 2520}}


def test_criterion_06_dsp_cases(results):
    r = results[6]
    _check(r)
    for case, pairs in (("B1", 105), ("B2", 105), ("B4", 630), ("B5", 630)):
        assert r.counts[case] == {"pairs": pairs, "observed": {3: pairs}}
    for case, pairs in (("B3", 120), ("B6", 840), ("B7", 840)):
        assert r.counts[case] == {"pairs": pairs, "observed": {3: pairs}}
    assert set(r.counts["line_profiles"]) == {"(1, 2, 2)", "(2, 3, 3)"}
    assert set(r.counts["glue_line_profiles"]) == {"(1, 2, 2)", "(2, 3, 3)"}


def test_criterion_07_hyperplane(results):
    r = results[7]
    _check(r)
    assert r.counts["hyperplane"] is True


def test_criterion_08_model_isomorphisms(results):
    r = results[8]
    _check(r)
    assert r.counts == CRITERION_8_COUNTS


@pytest.fixture
def hexagon_models(h3, h3_partitions, h3_debruyn, dsp):
    return {"h3": h3, "h3-partition": h3_partitions, "h3-debruyn": h3_debruyn, "dsp62": dsp}


def test_criterion_08_walks_h3s_first_path_once(guides, hexagon_models, h3):
    r = criterion_8(hexagon_models, None)
    assert r.verdict == "pass"
    assert r.counts == CRITERION_8_COUNTS
    assert guides == [h3]


def test_criterion_08_checks_the_composed_bijection(monkeypatch, hexagon_models):
    """A bijection out of h3 that does not carry lines fails its own pair
    and the third pair composed from it, though every verdict says
    isomorphic."""
    from nearhex import acceptance

    def swapping(reference, others):
        verdicts = are_isomorphic_to(reference, others)
        swapped = list(verdicts[1].mapping)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        verdicts[1] = replace(verdicts[1], mapping=tuple(swapped))
        return verdicts

    monkeypatch.setattr(acceptance, "are_isomorphic_to", swapping)
    r = criterion_8(hexagon_models, None)
    assert r.verdict == "fail"
    assert r.counts == CRITERION_8_COUNTS
    assert r.witnesses == [
        "h3~h3-debruyn: returned bijection does not carry lines",
        "h3-partition~h3-debruyn: returned bijection does not carry lines",
    ]


def test_criterion_09_quad_census(results):
    r = results[9]
    _check(r)
    assert r.counts["dsp62"] == {"grid21": 0, "gq22": 63, "other": 0}
    assert r.counts["h3"] == {"grid21": 35, "gq22": 28, "other": 0}


def test_criterion_10_swap_line_documentation(results):
    r = results[10]
    assert r.verdict == "info"
    assert r.counts["line_type_counts"] == {"i": 15, "ii": 45, "iii": 30, "iv": 120}
    kinds = r.counts["swap_line_escort_triads"]
    assert kinds["complete"] + kinds["incomplete"] == 120
    assert r.counts["described_kind"] == "incomplete"
    assert isinstance(r.counts["agrees_with_description"], bool)


def test_report_document_shape(results):
    report = acceptance_report(list(results.values()))
    assert report["all_pass"] is True
    assert len(report["criteria"]) == 10
    for entry in report["criteria"]:
        assert set(entry) == {
            "criterion", "title", "verdict", "limit_seconds", "counts", "witnesses",
        }


def test_report_is_deterministic(results):
    from nearhex.jsonio import dumps

    again = run_acceptance()
    assert dumps(acceptance_report(list(results.values()))) == dumps(
        acceptance_report(again)
    )


def test_criterion_decorator_builds_the_result():
    def body(c, models, census):
        for i in reversed(range(12)):
            c.expect(False, f"witness {i:02d}")
        return {"expectations": 12}

    r = _criterion(11, "twelve failures", 1.0)(body)({}, None)
    assert (r.criterion, r.title, r.verdict, r.limit) == (11, "twelve failures", "fail", 1.0)
    assert r.counts == {"expectations": 12}
    assert r.witnesses == [f"witness {i:02d}" for i in reversed(range(2, 12))]
    assert r.runtime >= 0
    assert _criterion(11, "no limit", None)(body)({}, None).verdict == "info"
    assert _criterion(11, "nothing to fail", 1.0)(lambda c, models, census: {})({}, None).verdict == "pass"


def test_checker_keeps_the_witnesses_verify_lists():
    """Thirteen lines through the pair {0, 1} give 12 ``pls`` violations,
    more than the 10 kept: the criterion path keeps the same 10 as
    ``nearhex verify``, the first in the order found, lines 1 to 10 in
    numeric order (a string sort would put 10, 11 and 12 before 2)."""
    g = Geometry(15, tuple((0, 1, k) for k in range(2, 15)))
    c = _Checker()
    assert c.check("pls", "w2", g).counts == {"violations": 12}
    kept = [w.removeprefix("w2 pls: ") for w in c.witnesses]
    assert kept == _entry("pls", "w2", g)["witnesses"]
    assert kept == [f"((0, 1), 0, {k})" for k in range(1, 11)]
