"""Byte-for-byte pins of the deterministic CLI output.

The files under ``tests/golden/`` were written by ``nearhex report`` and
``nearhex verify --model M`` (default checks) before the expected facts
and the case analyses were folded into one table and one scan; they are
not to be regenerated to make a change pass.
"""

from pathlib import Path

import pytest

from nearhex.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


def test_report_matches_golden(capsys):
    code, out = _stdout(capsys, ["report"])
    assert code == 0
    assert out == (GOLDEN / "report.json").read_bytes()


@pytest.mark.parametrize("model", ["w2", "h3", "h3-partition", "h3-debruyn", "dsp62"])
def test_verify_matches_golden(capsys, model):
    code, out = _stdout(capsys, ["verify", "--model", model])
    assert code == 0
    assert out == (GOLDEN / f"verify-{model}.json").read_bytes()
