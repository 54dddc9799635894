"""CLI behaviour: exit codes, determinism, JSON round trips."""

import json

import pytest

from nearhex.cli import main
from nearhex.jsonio import document_to_geometry, dumps, geometry_to_document, load_geometry
from nearhex import GeometryError, build_w2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_w2(tmp_path, capsys):
    out = tmp_path / "w2.json"
    code, _, _ = run(capsys, "build", "--model", "w2", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "w2"
    assert len(doc["points"]) == 15
    assert len(doc["lines"]) == 15
    assert doc["points"][0] == {"id": 0, "label": "12"}


def test_build_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "build", "--model", "h3", "--out", str(a))[0] == 0
    assert run(capsys, "build", "--model", "h3", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_dsp62_counts(tmp_path, capsys):
    out = tmp_path / "dsp.json"
    assert run(capsys, "build", "--model", "dsp62", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    assert (len(doc["points"]), len(doc["lines"])) == (135, 315)
    labels = [p["label"] for p in doc["points"]]
    assert labels[105] == "12"
    assert labels[120] == "12'"
    assert labels[0] == "(12,12')"


def test_build_unknown_model(capsys):
    code, _, err = run(capsys, "build", "--model", "nope")
    assert code == 2
    assert "unknown model" in err


def test_export_checks_format(tmp_path, capsys):
    code, _, err = run(capsys, "export", "--model", "w2", "--format", "xml")
    assert code == 2
    out = tmp_path / "w2.json"
    code, _, _ = run(capsys, "export", "--model", "w2", "--format", "json", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["name"] == "w2"


@pytest.mark.parametrize(
    "model,checks",
    [
        ("w2", "pls,params,np,quads"),
        ("h3", "params,cases"),
        ("h3-partition", "pls,params"),
        ("h3-debruyn", "pls,params"),
        ("dsp62", "params,hyperplane"),
    ],
)
def test_verify_passes(capsys, model, checks):
    code, out, _ = run(capsys, "verify", "--model", model, "--checks", checks)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert [e["check"] for e in doc["checks"]] == checks.split(",")
    assert all(e["verdict"] == "pass" for e in doc["checks"])


def test_verify_default_checks_h3(capsys):
    code, out, _ = run(capsys, "verify", "--model", "h3")
    assert code == 0
    doc = json.loads(out)
    names = [e["check"] for e in doc["checks"]]
    assert names == ["pls", "np", "dense", "params", "quads", "cases"]


def test_verify_params_payload(capsys):
    code, out, _ = run(capsys, "verify", "--model", "h3", "--checks", "params")
    assert code == 0
    entry = json.loads(out)["checks"][0]
    assert entry["counts"]["observed"]["t2_values"] == [1, 2]
    assert entry["counts"]["observed"]["lines_per_point"] == [6]


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "verify", "--model", "w2", "--checks", "pls,params", "--out", str(out)
    )
    assert code == 0
    assert stdout == ""
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert [e["check"] for e in doc["checks"]] == ["pls", "params"]


def test_debruyn_export_labels(tmp_path, capsys):
    out = tmp_path / "deb.json"
    assert run(capsys, "build", "--model", "h3-debruyn", "--out", str(out))[0] == 0
    labels = {p["label"] for p in json.loads(out.read_text())["points"]}
    assert "(12,12)" in labels
    assert "(12,46)" in labels


def test_verify_rejects_misapplied_checks(capsys):
    assert run(capsys, "verify", "--model", "w2", "--checks", "hyperplane")[0] == 2
    assert run(capsys, "verify", "--model", "h3-partition", "--checks", "cases")[0] == 2
    assert run(capsys, "verify", "--model", "h3", "--checks", "bogus")[0] == 2


def test_verify_rejects_an_empty_check_list(capsys):
    assert run(capsys, "verify", "--model", "h3", "--checks", " , ") == (2, "", "error: empty check list\n")


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "h3.json"
    b = tmp_path / "part.json"
    c = tmp_path / "dsp.json"
    run(capsys, "build", "--model", "h3", "--out", str(a))
    run(capsys, "build", "--model", "h3-partition", "--out", str(b))
    run(capsys, "build", "--model", "dsp62", "--out", str(c))

    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "isomorphic"
    assert len(doc["mapping"]) == 105

    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1
    assert json.loads(out)["verdict"] == "not isomorphic"


def test_iso_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    good = tmp_path / "w2.json"
    run(capsys, "build", "--model", "w2", "--out", str(good))
    code, _, err = run(capsys, "iso", str(good), str(bad))
    assert code == 2
    assert "error:" in err
    missing = tmp_path / "missing.json"
    assert run(capsys, "iso", str(good), str(missing))[0] == 2
    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(json.dumps({"name": "x", "points": [{"id": 1}], "lines": []}))
    assert run(capsys, "iso", str(good), str(schema_bad))[0] == 2


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "build")[0] == 2


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "w2.json"
    code, _, err = run(capsys, "build", "--model", "w2", "--out", str(target))
    assert code == 2
    assert "error:" in err


def test_json_roundtrip():
    g = build_w2()
    doc = geometry_to_document(g, "w2")
    name, back = document_to_geometry(doc)
    assert name == "w2"
    assert back.lines == g.lines
    assert back.labels == tuple(str(l) for l in g.labels)


def test_document_validation():
    with pytest.raises(GeometryError):
        document_to_geometry([1, 2, 3])
    with pytest.raises(GeometryError):
        document_to_geometry({"name": "x", "points": [{"id": 5}], "lines": []})
    with pytest.raises(GeometryError):
        document_to_geometry({"name": "x", "points": [], "lines": [["a"]]})


def test_dumps_trailing_newline():
    assert dumps({"a": 1}).endswith("\n")


def test_load_geometry_missing_file(tmp_path):
    with pytest.raises(GeometryError):
        load_geometry(str(tmp_path / "nope.json"))


@pytest.mark.parametrize(
    "points,lines",
    [
        (3, [[0, 1, 2], [2, 1, 0]]),  # the same line twice
        (3, [[0, 0, 1]]),  # a repeated point on a line
        (3, [[True, 1, 2]]),  # a boolean line entry, equal to 1
        ([False, True, 2], [[0, 1, 2]]),  # boolean point ids, equal to 0 and 1
    ],
    ids=["repeated-line", "repeated-point", "bool-entry", "bool-ids"],
)
def test_loading_rejects_what_geometry_would_normalise(tmp_path, capsys, points, lines):
    ids = list(range(points)) if isinstance(points, int) else points
    doc = {"name": "x", "points": [{"id": i} for i in ids], "lines": lines}
    with pytest.raises(GeometryError):
        document_to_geometry(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"name": "y", "points": [{"id": i} for i in range(3)], "lines": [[0, 1, 2]]}))
    code, _, err = run(capsys, "iso", str(good), str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_loading_rejects_repeated_labels(tmp_path, capsys):
    # a mapping is printed label by label, so a repeated label would drop
    # an entry from it
    doc = {
        "name": "x",
        "points": [{"id": 0, "label": "x"}, {"id": 1, "label": "x"}, {"id": 2, "label": "y"}],
        "lines": [[0, 1, 2]],
    }
    with pytest.raises(GeometryError, match="labels"):
        document_to_geometry(doc)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "iso", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "name,label",
    [("x", None), ("x", {"x": 1}), ("x", 1), ([1, 2], "a")],
    ids=["null-label", "object-label", "integer-label", "array-name"],
)
def test_loading_rejects_names_and_labels_that_are_not_strings(tmp_path, capsys, name, label):
    # str() would print them as "None", "{'x': 1}", "1" or "[1, 2]"
    doc = {
        "name": name,
        "points": [{"id": 0, "label": label}, {"id": 1}, {"id": 2}],
        "lines": [[0, 1, 2]],
    }
    with pytest.raises(GeometryError, match="string"):
        document_to_geometry(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"name": "y", "points": [{"id": i} for i in range(3)], "lines": [[0, 1, 2]]}))
    for first, second in ((good, bad), (bad, good)):
        code, out, err = run(capsys, "iso", str(first), str(second))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"points": [], "lines": []}, "geometry document missing field: 'name'"),
        ({"name": "x", "lines": []}, "geometry document missing field: 'points'"),
        ({"name": "x", "points": []}, "geometry document missing field: 'lines'"),
        ({"name": "x", "points": {}, "lines": []}, "'points' and 'lines' must be arrays"),
        ({"name": "x", "points": [], "lines": "[]"}, "'points' and 'lines' must be arrays"),
    ],
    ids=["no-name", "no-points", "no-lines", "object-points", "string-lines"],
)
def test_iso_rejects_documents_without_their_fields(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = tmp_path / "w2.json"
    run(capsys, "build", "--model", "w2", "--out", str(good))
    for first, second in ((good, bad), (bad, good)):
        assert run(capsys, "iso", str(first), str(second)) == (2, "", f"error: {message}\n")


def test_missing_label_defaults_to_the_id():
    doc = {"name": "x", "points": [{"id": 0, "label": "a"}, {"id": 1}, {"id": 2}], "lines": [[0, 1, 2]]}
    assert document_to_geometry(doc)[1].labels == ("a", "1", "2")


def test_closed_stdout_is_an_output_error(monkeypatch, capsys):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    code = main(["build", "--model", "w2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_cases_checks_the_pair_counts(monkeypatch, capsys):
    from nearhex.verify import EXPECTED

    table = EXPECTED["h3"].cases
    monkeypatch.setitem(table, "A1", table["A1"]._replace(pairs=314))
    code, out, _ = run(capsys, "verify", "--model", "h3", "--checks", "cases")
    assert code == 1
    entry = json.loads(out)["checks"][0]
    assert entry["verdict"] == "fail"
    assert entry["counts"]["A1"]["pairs"] == 315


def test_report_fails_when_a_model_is_broken(monkeypatch, capsys):
    from nearhex import Geometry, build_h3

    h3 = build_h3()
    broken = Geometry(h3.point_count, h3.lines[1:], h3.labels)
    monkeypatch.setattr("nearhex.acceptance.build_h3_partitions", lambda: broken)
    code, out, _ = run(capsys, "report")
    assert code == 1
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert [c["criterion"] for c in doc["criteria"] if c["verdict"] == "fail"] == [8]
    # the broken model is not isomorphic to h3, so its pair with h3-debruyn
    # is searched directly instead of composed
    criterion = doc["criteria"][7]
    assert criterion["witnesses"] == [
        "h3~h3-partition: line counts differ: 210 vs 209",
        "h3-partition~h3-debruyn: line counts differ: 209 vs 210",
    ]
    assert criterion["counts"]["h3~h3-debruyn"] is True


def test_verify_rejects_unknown_checks_before_building(monkeypatch, capsys):
    from nearhex.cli import MODELS

    monkeypatch.setitem(MODELS, "dsp62", lambda: pytest.fail("the model was built"))
    code, out, err = run(capsys, "verify", "--model", "dsp62", "--checks", "params,bogus")
    assert (code, out) == (2, "")
    assert "unknown check 'bogus'" in err


def test_verify_and_report_share_one_judge(monkeypatch, capsys):
    from nearhex.verify import EXPECTED

    facts = EXPECTED["dsp62"]
    monkeypatch.setitem(EXPECTED, "dsp62", facts._replace(quad_kinds=frozenset({"grid21", "gq22"})))
    witness = "quad kinds ['gq22'], expected ['gq22', 'grid21']"
    code, out, _ = run(capsys, "verify", "--model", "dsp62", "--checks", "quads")
    assert code == 1
    assert json.loads(out)["checks"][0]["witnesses"] == [witness]
    code, out, _ = run(capsys, "report")
    assert code == 1
    failed = [c for c in json.loads(out)["criteria"] if c["verdict"] == "fail"]
    assert [(c["criterion"], c["witnesses"]) for c in failed] == [(9, [f"dsp62 quads: {witness}"])]


def test_report_judges_w2_against_its_expected_facts(monkeypatch, capsys):
    from nearhex.verify import EXPECTED

    monkeypatch.setitem(EXPECTED, "w2", EXPECTED["w2"]._replace(diameter=3))
    witness = "diameter 2, expected 3"
    code, out, _ = run(capsys, "verify", "--model", "w2", "--checks", "params")
    assert code == 1
    assert json.loads(out)["checks"][0]["witnesses"] == [witness]
    code, out, _ = run(capsys, "report")
    assert code == 1
    failed = [c for c in json.loads(out)["criteria"] if c["verdict"] == "fail"]
    assert [(c["criterion"], c["witnesses"]) for c in failed] == [(1, [f"w2 params: {witness}"])]


UNREADABLE = {
    # a Latin-1 name: the byte 0xe9 does not start a UTF-8 sequence
    "not-utf8": (b'{"name": "caf\xe9", "points": [], "lines": []}', "is not UTF-8"),
    # the JSON decoder recurses once per level and gives up long before this
    "deeply-nested": (b"[" * 200_000 + b"]" * 200_000, "nests too deeply"),
    # Python refuses to convert integers of more than 4300 digits
    "long-integer": (b'{"name": "x", "points": [], "lines": [' + b"1" * 5000 + b"]}", "is not valid JSON"),
}


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_files_are_input_errors(tmp_path, capsys, kind):
    content, expected = UNREADABLE[kind]
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(GeometryError, match=expected):
        load_geometry(str(bad))
    good = tmp_path / "w2.json"
    run(capsys, "build", "--model", "w2", "--out", str(good))
    for first, second in ((good, bad), (bad, good)):
        code, out, err = run(capsys, "iso", str(first), str(second))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad} ") and expected in err
        assert err.count("\n") == 1


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # argparse keeps no state between parse_args calls, so the parser built
    # at the first call gives every later call what a fresh one would
    from nearhex import cli

    a, b = tmp_path / "h3.json", tmp_path / "part.json"
    run(capsys, "build", "--model", "h3", "--out", str(a))
    run(capsys, "build", "--model", "h3-partition", "--out", str(b))
    calls = [
        ["frobnicate"],
        ["build"],
        ["--help"],
        ["iso", str(a), str(b)],
        ["iso", str(a), str(b)],
        ["verify", "--model", "w2"],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0, 0]
    assert "invalid choice: 'frobnicate'" in shared[0][2]
    assert "--model" in shared[1][2]
    assert shared[2][1].startswith("usage: nearhex ")
    assert shared[3] == shared[4]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert [run(capsys, *argv) for argv in calls] == shared
