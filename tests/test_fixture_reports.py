"""The classify and decompose reports of the mixed fixture corpus, one
homotopy report against its base and one mdo report are pinned byte for
byte (see tests/data/mixed/README.md)."""

from pathlib import Path

import pytest

from spinorlab import cli

MIXED = Path(__file__).parent / "data" / "mixed"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--input", "corpus.csv"], cli.EXIT_FLAGGED),
        (["decompose", "--input", "corpus.csv", "--base", "base.json"], cli.EXIT_FLAGGED),
        (["homotopy", "--from", "homotopy_from.json", "--to", "homotopy_to.json", "--base", "base.json"], cli.EXIT_OK),
        (["mdo", "--momentum", "momentum.json", "--conj", "A", "--helicity", "-"], cli.EXIT_OK),
    ],
    ids=["classify", "decompose", "homotopy", "mdo"],
)
def test_cli_reproduces_pinned_report(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(MIXED)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == code
    assert out.read_bytes() == (MIXED / f"{argv[0]}.json").read_bytes()
