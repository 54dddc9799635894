"""JSON interchange for geometries and verification reports.

A geometry document is::

    {"name": ..., "points": [{"id": 0, "label": "12"}, ...], "lines": [[0,9,14], ...]}

with lines sorted lexicographically and each line ascending, which is how
:class:`~nearhex.geometry.Geometry` stores them; exports are therefore
byte-deterministic.
"""

from __future__ import annotations

import json
from typing import Any

from .geometry import Geometry, GeometryError, _shown


def geometry_to_document(g: Geometry, name: str) -> dict:
    labels = g.labels or tuple(str(i) for i in range(g.point_count))
    return {
        "name": name,
        "points": [
            {"id": i, "label": str(label)} for i, label in enumerate(labels)
        ],
        "lines": [list(line) for line in g.lines],
    }


def document_to_geometry(doc: Any) -> tuple[str, Geometry]:
    """Read a geometry document, rejecting what ``Geometry`` would quietly
    normalise: a repeated point on a line, a line given twice, and booleans
    as point ids or line entries.  The name and every label must be
    strings (a point without a label takes its id), and labels must be
    distinct, since a mapping is printed label by label."""
    if not isinstance(doc, dict):
        raise GeometryError("geometry document must be a JSON object")
    try:
        name = doc["name"]
        points = doc["points"]
        lines = doc["lines"]
    except KeyError as exc:
        raise GeometryError(f"geometry document missing field: {exc}") from exc
    if type(name) is not str:
        raise GeometryError(f"'name' must be a string, not {_shown(name)}")
    if not isinstance(points, list) or not isinstance(lines, list):
        raise GeometryError("'points' and 'lines' must be arrays")
    ids = []
    labels = []
    for entry in points:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
            raise GeometryError(f"bad point entry: {_shown(entry)}")
        label = entry.get("label", str(entry["id"]))
        if type(label) is not str:
            raise GeometryError(f"point label must be a string: {_shown(entry)}")
        ids.append(entry["id"])
        labels.append(label)
    if ids != list(range(len(ids))):
        raise GeometryError("point ids must be 0..n-1 in order")
    if len(set(labels)) != len(labels):
        raise GeometryError("point labels must be distinct")
    seen = set()
    for line in lines:
        if not isinstance(line, list) or not set(map(type, line)) <= {int}:
            raise GeometryError(f"bad line entry: {_shown(line)}")
        members = frozenset(line)
        if len(members) != len(line):
            raise GeometryError(f"line {_shown(line)} repeats a point")
        if members in seen:
            raise GeometryError(f"line {_shown(line)} is given twice")
        seen.add(members)
    return name, Geometry(len(ids), tuple(map(tuple, lines)), tuple(labels))


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object, read by ``json.load``: a key given twice is an
    error, where ``json`` would keep the last value and so rewrite it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise GeometryError(f"repeats the key {_shown(key)} in one object")
            seen.add(key)
    return obj


def load_geometry(path: str) -> tuple[str, Geometry]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_object)
    except GeometryError as exc:  # a repeated key, from _object
        raise GeometryError(f"{path} {exc}") from exc
    except OSError as exc:
        raise GeometryError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GeometryError(f"{path} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # a JSON syntax error, or an integer too long to convert
        raise GeometryError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GeometryError(f"{path} nests too deeply to read: {exc}") from exc
    return document_to_geometry(doc)
