"""Byte-for-byte pins of the deterministic CLI output.

The files under ``tests/golden/`` were written by ``nearhex report`` and
``nearhex verify --model M`` (default checks) before the expected facts
and the case analyses were folded into one table and one scan;
``build.sha256`` holds the SHA-256 of each ``nearhex build --model M``
file, in ``sha256sum`` format, written before the builders dropped the
checks their constructions guarantee.  They are not to be regenerated to
make a change pass.
"""

import hashlib
from pathlib import Path

import pytest

from nearhex.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ["w2", "h3", "h3-partition", "h3-debruyn", "dsp62"]


def _stdout(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


def test_report_matches_golden(capsys):
    code, out = _stdout(capsys, ["report"])
    assert code == 0
    assert out == (GOLDEN / "report.json").read_bytes()


@pytest.mark.parametrize("model", MODELS)
def test_verify_matches_golden(capsys, model):
    code, out = _stdout(capsys, ["verify", "--model", model])
    assert code == 0
    assert out == (GOLDEN / f"verify-{model}.json").read_bytes()


BUILD_DIGESTS = {
    name: digest for digest, name in map(str.split, (GOLDEN / "build.sha256").read_text().splitlines())
}


@pytest.mark.parametrize("model", MODELS)
def test_build_matches_golden_digest(tmp_path, model):
    out = tmp_path / f"{model}.json"
    assert main(["build", "--model", model, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILD_DIGESTS[f"{model}.json"]
