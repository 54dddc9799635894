"""Reading geometry documents: the message for each malformed line, which
fault is reported when two lines are malformed, a differential check of
``document_to_geometry`` against the two-pass line loop it replaced, the
message for a JSON key given twice, and the cut of a long value in a
message."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearhex import Geometry, GeometryError
from nearhex.jsonio import document_to_geometry, load_geometry

# Each fault is one line added after the good line [0, 1, 2] of a document
# on the four points 0..3.  "read" faults are found while the lines are
# read; "built" faults only when the Geometry is built from them, so a read
# fault on any line is reported before a built fault on an earlier one.
FAULTS = {
    "bool": ([True, 2, 3], "read", "bad line entry: [True, 2, 3]"),
    "float": ([1.0, 3], "read", "bad line entry: [1.0, 3]"),
    "string": (["1", 3], "read", "bad line entry: ['1', 3]"),
    "nested": ([[1], 3], "read", "bad line entry: [[1], 3]"),
    "number-line": (13, "read", "bad line entry: 13"),
    "string-line": ("13", "read", "bad line entry: '13'"),
    "object-line": ({"1": 3}, "read", "bad line entry: {'1': 3}"),
    "repeated-point": ([1, 3, 1], "read", "line [1, 3, 1] repeats a point"),
    "reversed-repeat": ([2, 1, 0], "read", "line [2, 1, 0] is given twice"),
    "one-point": ([3], "built", "line with fewer than 2 points: (3,)"),
    "empty": ([], "built", "line with fewer than 2 points: ()"),
    "too-large": ([1, 4], "built", "line (1, 4) has out-of-range point index"),
    "negative": ([-1, 3], "built", "line (-1, 3) has out-of-range point index"),
}


def document(*extra):
    return {
        "name": "x",
        "points": [{"id": i} for i in range(4)],
        "lines": [[0, 1, 2], *extra],
    }


def message(doc):
    with pytest.raises(GeometryError) as info:
        document_to_geometry(doc)
    return str(info.value)


@pytest.mark.parametrize("fault", FAULTS)
def test_each_line_fault_has_its_message(fault):
    line, _, expected = FAULTS[fault]
    assert message(document(line)) == expected
    # a good line after the fault changes nothing
    assert message(document(line, [1, 3])) == expected


@pytest.mark.parametrize("first,second", list(permutations(FAULTS, 2)))
def test_two_faulty_lines_report_the_first_read_fault(first, second):
    (line_a, stage_a, message_a), (line_b, stage_b, message_b) = FAULTS[first], FAULTS[second]
    if stage_a == "read" or stage_b == "built":
        expected = message_a
    else:
        expected = message_b
    assert message(document(line_a, line_b)) == expected


# a key given twice, at the top, in a point, beside the lines, and in an
# object that nothing reads
REPEATED_KEYS = {
    "name": '{"name": "a", "name": "b", "points": [], "lines": []}',
    "label": '{"name": "a", "points": [{"id": 0, "label": "p", "label": "q"}], "lines": []}',
    "lines": '{"name": "a", "points": [], "lines": [], "lines": [[0, 1]]}',
    "k": '{"name": "a", "points": [{"id": 0, "extra": [{"k": 1, "k": 1}]}], "lines": []}',
}


@pytest.mark.parametrize("key", REPEATED_KEYS)
def test_a_repeated_key_is_an_input_error(tmp_path, key):
    path = tmp_path / "doc.json"
    path.write_text(REPEATED_KEYS[key])
    with pytest.raises(GeometryError) as info:
        load_geometry(str(path))
    assert str(info.value) == f"{path} repeats the key '{key}' in one object"
    # the same key in two objects is no repeat
    path.write_text('{"name": "a", "points": [{"id": 0, "label": "p"}, {"id": 1, "label": "q"}], "lines": []}')
    assert load_geometry(str(path))[1].labels == ("p", "q")


def test_a_long_value_is_cut_after_80_characters():
    assert message(document([True, *range(1, 2000)])) == (
        "bad line entry: [True, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21..."
    )
    # a value of 80 characters is shown whole, one of 81 is cut
    line = [True, 10, 10, *[1] * 22]
    assert len(repr(line)) == 80
    assert message(document(line)) == f"bad line entry: {line!r}"
    assert message(document([*line, 1])) == f"bad line entry: {repr([*line, 1])[:80]}..."


LONG = list(range(1000))


def cut(value):
    return repr(value)[:80] + "..."


# a long value in each message that shows one
LONG_VALUES = {
    "name": ({"name": LONG, "points": [], "lines": []}, f"'name' must be a string, not {cut(LONG)}"),
    "point": ({"name": "x", "points": [{"id": LONG}], "lines": []}, f"bad point entry: {cut({'id': LONG})}"),
    "label": (
        {"name": "x", "points": [{"id": 0, "label": LONG}], "lines": []},
        f"point label must be a string: {cut({'id': 0, 'label': LONG})}",
    ),
    "line": (document(["1", *LONG]), f"bad line entry: {cut(['1', *LONG])}"),
    "repeated-point": (document([0] * 1000), f"line {cut([0] * 1000)} repeats a point"),
    "given-twice": (
        {"name": "x", "points": [{"id": i} for i in LONG], "lines": [LONG, LONG[::-1]]},
        f"line {cut(LONG[::-1])} is given twice",
    ),
    "one-point": (document([10**4000]), f"line with fewer than 2 points: {cut((10**4000,))}"),
    "out-of-range": (document(LONG), f"line {cut(tuple(LONG))} has out-of-range point index"),
}


@pytest.mark.parametrize("fault", LONG_VALUES)
def test_each_message_cuts_a_long_value(fault):
    doc, expected = LONG_VALUES[fault]
    assert message(doc) == expected
    assert len(expected) < 130


def reference_document_to_geometry(doc):
    """``document_to_geometry`` as it was with its two-pass line loop: a
    type scan, a set for the length test and two frozensets per line."""
    if not isinstance(doc, dict):
        raise GeometryError("geometry document must be a JSON object")
    try:
        name = doc["name"]
        points = doc["points"]
        lines = doc["lines"]
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"geometry document missing field: {exc}") from exc
    if type(name) is not str:
        raise GeometryError(f"'name' must be a string, not {name!r}")
    if not isinstance(points, list) or not isinstance(lines, list):
        raise GeometryError("'points' and 'lines' must be arrays")
    ids = []
    labels = []
    for entry in points:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
            raise GeometryError(f"bad point entry: {entry!r}")
        label = entry.get("label", str(entry["id"]))
        if type(label) is not str:
            raise GeometryError(f"point label must be a string: {entry!r}")
        ids.append(entry["id"])
        labels.append(label)
    if ids != list(range(len(ids))):
        raise GeometryError("point ids must be 0..n-1 in order")
    if len(set(labels)) != len(labels):
        raise GeometryError("point labels must be distinct")
    seen = set()
    for line in lines:
        if not isinstance(line, list) or not all(type(p) is int for p in line):
            raise GeometryError(f"bad line entry: {line!r}")
        if len(set(line)) != len(line):
            raise GeometryError(f"line {line!r} repeats a point")
        if frozenset(line) in seen:
            raise GeometryError(f"line {line!r} is given twice")
        seen.add(frozenset(line))
    return name, Geometry(len(ids), tuple(tuple(l) for l in lines), tuple(labels))


def outcome(read, doc):
    try:
        name, g = read(doc)
    except GeometryError as exc:
        return "error", str(exc)
    return name, g.point_count, g.lines, g.labels


# JSON values that are not point indices
ODD_ENTRIES = st.sampled_from([True, False, 0.0, 1.5, "1", None, [], [2], {"p": 1}])
NON_LISTS = st.sampled_from([3, "01", None, {"p": [0, 1]}])


@st.composite
def documents(draw):
    n = draw(st.integers(0, 6))
    points = [{"id": i, "label": f"p{i}"} for i in range(n)]
    if n and draw(st.integers(0, 9)) == 0:
        # now and then a bad point entry, so point faults meet line faults
        points[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([{"id": True}, {"id": 0, "label": 1}, {"label": "q"}, 5])
        )
    # good lines, with up to two others put in among them: lines of
    # near-range indices, which may repeat a point, hold one point or leave
    # the range; lines with an entry that is not an index; values that are
    # not lists; and a drawn line again, reversed
    near = st.lists(st.integers(-1, n), max_size=4)
    good = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True) if n > 1 else near
    odd = st.lists(st.one_of(st.integers(-1, n), ODD_ENTRIES), min_size=1, max_size=4)
    lines = draw(st.lists(good, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["near", "odd", "non-list", "reversed"]))
        if kind == "reversed" and lines:
            line = lines[draw(st.integers(0, len(lines) - 1))]
            line = line[::-1] if isinstance(line, list) else line
        else:
            line = draw({"near": near, "odd": odd, "non-list": NON_LISTS, "reversed": good}[kind])
        lines.insert(draw(st.integers(0, len(lines))), line)
    return {"name": "x", "points": points, "lines": lines}


@settings(max_examples=500, deadline=None)
@given(documents())
def test_document_to_geometry_matches_the_two_pass_loop(doc):
    assert outcome(document_to_geometry, doc) == outcome(reference_document_to_geometry, doc)
