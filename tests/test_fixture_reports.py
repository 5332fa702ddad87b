"""The classify and decompose reports of the mixed fixture corpus are pinned
byte for byte (see tests/data/mixed/README.md)."""

from pathlib import Path

import pytest

from spinorlab import cli

MIXED = Path(__file__).parent / "data" / "mixed"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", "corpus.csv"],
        ["decompose", "--input", "corpus.csv", "--base", "base.json"],
    ],
    ids=["classify", "decompose"],
)
def test_cli_reproduces_pinned_report(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("SPINORLAB_TOL", raising=False)
    monkeypatch.chdir(MIXED)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_FLAGGED
    assert out.read_bytes() == (MIXED / f"{argv[0]}.json").read_bytes()
