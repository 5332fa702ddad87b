import dataclasses
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, cli, homotopy, io, lounesto, mdo, plane, rim, spinor
from spinorlab.errors import SpinorlabError
from spinorlab.generators import random_rim_bases

from conftest import assert_class_at_crossing


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def base_setup(tmp_path, rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    params = rim.validate(0.6 + 0.2j, 0.6 - 0.7j)
    c = plane.coefficient_set(params, cov.A.real, cov.B.real, 1.0, 0.5, 0.7, +1)
    files = {
        "base": write_json(tmp_path / "base.json", spinor.to_json(base)),
        "params": write_json(
            tmp_path / "params.json",
            {"a": {"re": 0.6, "im": 0.2}, "b": {"re": 0.6, "im": -0.7}},
        ),
        "coeffs": write_json(
            tmp_path / "coeffs.json",
            {
                "A": float(np.real(cov.A)),
                "B": float(np.real(cov.B)),
                "M": 1.0,
                "m": 0.5,
                "theta": 0.7,
                "sign": "+",
            },
        ),
    }
    return base, cov, params, c, files, tmp_path


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_classify_singular_input(tmp_path, capsys):
    path = write_json(tmp_path / "e0.json", {"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]})
    code, rep = run_cli(["classify", "--input", path], capsys)
    assert code == 0
    row = rep["rows"][0]
    assert row["lounesto_class"] == 6
    assert row["regular"] is False
    assert max(row["fpk_residuals"]) < 1e-10
    assert set(row) >= {"id", "A", "B", "J", "K", "S", "fpk_residuals"}


def test_classify_csv_corpus(tmp_path, capsys):
    rows = np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [1, 0, 0, 0, 1, 0, 0.2, 0],
        ]
    )
    path = tmp_path / "corpus.csv"
    np.savetxt(path, rows, delimiter=",")
    code, rep = run_cli(["classify", "--input", str(path)], capsys)
    assert code == 0
    assert [r["id"] for r in rep["rows"]] == [0, 1]


def test_classify_corpus_holds_one_block(tmp_path, monkeypatch):
    # 10^4 rows of spinors take 0.6 MiB; streamed blocks read about 2.3 MiB,
    # where n-row result columns read 6.6 MiB
    rng = np.random.default_rng(5)
    n = 10_000
    path = tmp_path / "corpus.csv"
    np.savetxt(path, rng.standard_normal((n, 8)) * 10.0 ** rng.uniform(-3, 3, (n, 1)), delimiter=",")
    tracemalloc.start()
    try:
        code = cli.main(["classify", "--input", str(path), "--output", str(tmp_path / "blocks.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < 4 * 2**20
    # the same bytes as one pass over all the rows
    monkeypatch.setattr(bilinear, "_BLOCK", n)
    monkeypatch.setattr(io, "_ROWS_PER_SLICE", n)
    assert cli.main(["classify", "--input", str(path), "--output", str(tmp_path / "one.json")]) == cli.EXIT_OK
    assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def _classify_peak_beyond_corpus(n: int, where: Path) -> int:
    """Traced peak of ``classify`` on n rows, nine in ten of them tiny
    (cheap AmbiguousScale rows), minus the bytes of the loaded corpus."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 8))
    rows[rng.uniform(size=n) < 0.9] *= 1e-6
    np.savetxt(where / f"{n}.csv", rows, delimiter=",")
    tracemalloc.start()
    try:
        cli.main(["classify", "--input", str(where / f"{n}.csv"), "--output", str(where / f"{n}.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - n * 4 * np.dtype(complex).itemsize


def test_classify_peak_beyond_the_corpus_does_not_grow_with_it(tmp_path):
    # streamed: 1.70 MiB at 10^4 rows, 1.62 MiB at 5*10^4; n-row result
    # columns read 5.7 and 27.5 MiB.  Slack: 0.5 MiB.
    assert _classify_peak_beyond_corpus(50_000, tmp_path) <= _classify_peak_beyond_corpus(10_000, tmp_path) + 2**19


# Corpora that end just before, at and just after a 1024-row block boundary,
# and one spanning three blocks
BLOCK_EDGE_SIZES = [1023, 1024, 1025, 2049]


def _edge_rows(n: int, left: list[str], right: list[str]) -> dict[int, str]:
    """Row index -> kind: ``left`` ends just before each block boundary and
    the corpus's end, ``right`` starts at each boundary and row 0."""
    kinds = {}
    for edge in [0, *range(bilinear._BLOCK, n, bilinear._BLOCK), n]:
        kinds.update((i, k) for i, k in zip(range(edge - len(left), edge), left) if i >= 0)
        kinds.update((i, k) for i, k in zip(range(edge, n), right))
    return kinds


def _write_csv(path: Path, psis: np.ndarray) -> str:
    np.savetxt(path, np.ascontiguousarray(psis).view(float), delimiter=",")
    return str(path)


def _streamed_report(argv: list[str], where: Path, capsys, monkeypatch) -> tuple[int, str]:
    """(exit code, report text) of a corpus command, after checking that its
    file and stdout bytes are ``io.dumps_report`` of its rows, and the bytes
    of one block over all the rows."""
    code = cli.main(argv + ["--output", str(where / "blocks.json")])
    text = (where / "blocks.json").read_text()
    assert text == io.dumps_report(json.loads(text))
    assert cli.main(argv) == code
    assert capsys.readouterr().out == text
    with monkeypatch.context() as one_block:
        one_block.setattr(bilinear, "_BLOCK", 10**6)
        assert cli.main(argv + ["--output", str(where / "one.json")]) == code
    assert (where / "one.json").read_text() == text
    return code, text


def _classify_rows(n: int, kinds: dict[int, str]) -> np.ndarray:
    psis = np.random.default_rng(n).standard_normal((n, 4, 2)).view(complex)[..., 0]
    special = {
        "tiny": psis[0] * 1e-6,  # AmbiguousScale
        "overflow": psis[0] * 1e200,  # NonFiniteValue
        "near": np.array([1.0, 0.0, 1.0 + 3e-9j, 0.0]),  # B at three thresholds
    }
    for i, kind in kinds.items():
        psis[i] = special[kind]
    return psis


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_classify_rows_across_block_edges(n, tmp_path, capsys, monkeypatch):
    kinds = _edge_rows(n, ["tiny", "overflow", "near"], ["near", "overflow", "tiny"])
    path = _write_csv(tmp_path / "corpus.csv", _classify_rows(n, kinds))
    code, text = _streamed_report(["classify", "--input", path], tmp_path, capsys, monkeypatch)
    rows = json.loads(text)["rows"]
    assert code == cli.EXIT_FLAGGED
    assert [row["id"] for row in rows] == list(range(n))
    want = {"tiny": "AmbiguousScale", "overflow": "NonFiniteValue"}
    assert {i: rows[i].get("error") for i in kinds if kinds[i] != "near"} == {
        i: want[k] for i, k in kinds.items() if k != "near"
    }
    assert [i for i, row in enumerate(rows) if row.get("near_degenerate")] == sorted(
        i for i, k in kinds.items() if k == "near"
    )


def _plane_rows(n: int, base: np.ndarray, kinds: dict[int, str]) -> np.ndarray:
    rng = np.random.default_rng(n)
    r1, r2 = rng.standard_normal((2, n, 2)).view(complex)[..., 0]
    for i, kind in kinds.items():
        if kind == "near":  # r2 at five tolerances of zero
            r1[i], r2[i] = 1.0, 5e-9
    psis = plane.block_scale(np.broadcast_to(base, (n, 4)), r1, r2)
    off = [i for i, kind in kinds.items() if kind == "off"]
    psis[off] = rng.standard_normal((len(off), 4, 2)).view(complex)[..., 0]
    return psis


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_decompose_rows_across_block_edges(n, base_setup, capsys, monkeypatch):
    _, _, _, _, files, where = base_setup
    base = io.load_spinors(files["base"])[0]
    kinds = _edge_rows(n, ["off", "near", "off"], ["off", "near", "off"])
    path = _write_csv(where / "corpus.csv", _plane_rows(n, base, kinds))
    argv = ["decompose", "--input", path, "--base", files["base"]]
    code, text = _streamed_report(argv, where, capsys, monkeypatch)
    rows = json.loads(text)["rows"]
    assert code == cli.EXIT_FLAGGED
    assert [row["id"] for row in rows] == list(range(n))
    assert [i for i, row in enumerate(rows) if row.get("error")] == sorted(i for i, k in kinds.items() if k == "off")
    assert {row["error"] for row in rows if "error" in row} == {"NotInPlane"}
    assert [i for i, row in enumerate(rows) if row.get("near_degenerate")] == sorted(
        i for i, k in kinds.items() if k == "near"
    )


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_a_near_row_in_the_last_block_alone_exits_1(command, n, base_setup):
    _, _, _, _, files, where = base_setup
    base = io.load_spinors(files["base"])[0]
    codes = []
    for kinds in ({}, {n - 1: "near"}):
        if command == "classify":
            argv = ["classify", "--input", _write_csv(where / "corpus.csv", _classify_rows(n, kinds))]
        else:
            path = _write_csv(where / "corpus.csv", _plane_rows(n, base, kinds))
            argv = ["decompose", "--input", path, "--base", files["base"]]
        codes.append(cli.main(argv + ["--output", str(where / "report.json")]))
    assert codes == [cli.EXIT_OK, cli.EXIT_FLAGGED]


def test_classify_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["classify", "--input", str(path)])
    assert code == 2


def test_decompose_roundtrip(base_setup, tmp_path, capsys):
    base, cov, params, c, files, _ = base_setup
    psi = plane.apply_operator(plane.MOperator(0.5, 2.0 + 1j), base)
    path = write_json(tmp_path / "psi.json", spinor.to_json(psi))
    code, rep = run_cli(["decompose", "--input", path, "--base", files["base"]], capsys)
    assert code == 0
    row = rep["rows"][0]
    assert row["r1"]["re"] == pytest.approx(0.5, abs=1e-10)
    assert row["r2"]["re"] == pytest.approx(2.0, abs=1e-10)
    assert row["r2"]["im"] == pytest.approx(1.0, abs=1e-10)
    assert row["lounesto_class"] in (1, 2, 3)
    assert max(row["residuals"]) < 1e-10


def test_decompose_not_in_plane(base_setup, tmp_path, capsys):
    _, _, _, _, files, _ = base_setup
    alien = write_json(tmp_path / "alien.json", {"re": [1, 0, 0, 1], "im": [0, 0.5, 0, 0]})
    code, rep = run_cli(["decompose", "--input", alien, "--base", files["base"]], capsys)
    assert code == 0
    assert rep["rows"][0]["error"] == "NotInPlane"


def test_map_roundtrip(base_setup, tmp_path, capsys):
    base, cov, params, c, files, _ = base_setup
    psi_d = plane.dirac_from_base(base, c)
    path = write_json(tmp_path / "psid.json", spinor.to_json(psi_d))
    code, rep = run_cli(
        [
            "map",
            "--direction",
            "dirac-to-mdo",
            "--params",
            files["params"],
            "--coeffs",
            files["coeffs"],
            "--input",
            path,
        ],
        capsys,
    )
    assert code == 0
    assert rep["roundtrip_residual"] < 1e-12
    mapped = spinor.from_json(rep["mapped"])
    lam = plane.mdo_from_base(base, c)
    assert np.max(np.abs(mapped - lam)) < 1e-10


def test_map_rejects_integrability_violation(base_setup, tmp_path):
    _, _, _, _, files, _ = base_setup
    bad = write_json(
        tmp_path / "bad.json", {"a": {"re": 0.6, "im": 0.2}, "b": {"re": 0.7, "im": -0.7}}
    )
    code = cli.main(
        [
            "map",
            "--direction",
            "dirac-to-mdo",
            "--params",
            bad,
            "--coeffs",
            files["coeffs"],
            "--input",
            files["base"],
        ]
    )
    assert code == 2


def test_homotopy_sweep(base_setup, tmp_path, capsys):
    base, cov, params, c, files, _ = base_setup
    psi1 = plane.apply_operator(plane.MOperator(1.0, 0.8), base)
    psi6 = plane.apply_operator(plane.MOperator(1.0, 0.0), base)
    f1 = write_json(tmp_path / "p1.json", spinor.to_json(psi1))
    f6 = write_json(tmp_path / "p6.json", spinor.to_json(psi6))
    code, rep = run_cli(
        ["homotopy", "--from", f1, "--to", f6, "--base", files["base"], "--steps", "10"],
        capsys,
    )
    assert code == 0
    classes = [r["lounesto_class"] for r in rep["rows"]]
    assert classes[0] == 1 and classes[-1] == 6
    assert rep["crossings"] == [{"lounesto_class": 6, "t": 1.0}]
    assert len(rep["rows"]) == 11


MIXED = Path(__file__).parent / "data" / "mixed"
MIXED_BASE = MIXED / "base.json"


def _homotopy(tmp_path, ends, steps):
    """Exit code and report of ``homotopy`` between block_scale(base, *ends[k])
    of the mixed fixture's base."""
    base = io.load_spinors(MIXED_BASE)[0]
    files = [write_json(tmp_path / f"end{k}.json", spinor.to_json(plane.block_scale(base, *rs))) for k, rs in enumerate(ends)]
    out = tmp_path / "report.json"
    argv = ["homotopy", "--from", files[0], "--to", files[1], "--base", str(MIXED_BASE), "--steps", str(steps)]
    code = cli.main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_homotopy_below_unit_r1_leaves_the_zero_band_without_a_crossing(tmp_path):
    # with |r1| < 1 the zero-test is absolute: r2 = 5e-10 is zero at x = r1
    # (type 6) but not at x = 1; the path leaves that band without meeting r2 = 0
    code, rep = _homotopy(tmp_path, [(1e-6, 5e-10), (1e-6, 5e-7)], 10)
    assert code == cli.EXIT_OK
    assert [r["lounesto_class"] for r in rep["rows"]] == [6] + [1] * 10
    assert rep["crossings"] == []


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_homotopy_from_an_off_plane_spinor_whose_norm_overflows_exits_2(tmp_path, capsys):
    off = write_json(tmp_path / "off.json", {"re": [1e200, 0, 0, 1e200], "im": [0, 5e199, 0, 0]})
    code = cli.main(["homotopy", "--from", off, "--to", str(MIXED_BASE), "--base", str(MIXED_BASE)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == "error: NotInPlane: block residual 4.473e+199 exceeds 1.0e-08 x 1.118e+200\n"


def test_homotopy_against_an_invalid_base_exits_2_with_the_scalar_error(tmp_path, capsys):
    base = np.array([1, 0, 0, 1], dtype=complex)  # both blocks nonzero, A = B = 0
    ends = [plane.block_scale(base, 1.5, 0.3 + 0.2j), plane.block_scale(base, 0.7, 0.0)]
    files = [write_json(tmp_path / f"{k}.json", spinor.to_json(v)) for k, v in enumerate([base, *ends])]
    code = cli.main(["homotopy", "--from", files[1], "--to", files[2], "--base", files[0], "--steps", "7"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == "error: InvalidBase: base must have A != 0 and B != 0\n"


_magnitudes = st.floats(min_value=-6.0, max_value=3.0)  # log10 |r1|
_phases = st.floats(min_value=0.0, max_value=2 * np.pi)


@st.composite
def _plane_endpoint(draw):
    """(r1, r2) with |r1| in [1e-6, 1e3] and r2 generic, zero, or in the band
    around the zero-test threshold tol * max(1, |r1|)."""
    r1 = 10.0 ** draw(_magnitudes) * np.exp(1j * draw(_phases))
    kind = draw(st.sampled_from(["generic", "zero", "band"]))
    if kind == "zero":
        return r1, 0.0
    if kind == "band":
        size = 10.0 ** draw(st.floats(min_value=-1.0, max_value=1.5)) * 1e-9 * max(1.0, abs(r1))
    else:
        size = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)) * abs(r1)
    return r1, size * np.exp(1j * draw(_phases))


@given(ends=st.tuples(_plane_endpoint(), _plane_endpoint()), steps=st.integers(min_value=1, max_value=40))
@settings(deadline=None, max_examples=150)
def test_homotopy_crossings_are_sorted_in_the_unit_interval_and_agree_with_the_classifier(tmp_path_factory, ends, steps):
    code, rep = _homotopy(tmp_path_factory.mktemp("homotopy"), ends, steps)
    assert code == cli.EXIT_OK
    ts = [c["t"] for c in rep["crossings"]]
    assert ts == sorted(ts) and all(0.0 < t <= 1.0 for t in ts)
    base = io.load_spinors(MIXED_BASE)[0]
    psi_c, phi_c = (plane.decompose(plane.block_scale(base, *rs), base) for rs in ends)
    path = homotopy.spinor_homotopy(psi_c, phi_c)
    for c in rep["crossings"]:
        assert_class_at_crossing(path, psi_c.r1, rep["base"]["A"], rep["base"]["B"], c["t"], c["lounesto_class"])


def test_mdo_command(tmp_path, capsys):
    mom = write_json(tmp_path / "mom.json", {"m": 1.0, "p": 0.5, "theta": 1.0, "phi": 0.4})
    code, rep = run_cli(["mdo", "--momentum", mom, "--conj", "S", "--helicity", "+"], capsys)
    assert code == 0
    assert rep["diraclike_sign"] == 1
    assert rep["diraclike_residual"] < 1e-9
    assert max(rep["chirality_current_residuals"]) < 1e-9
    assert abs(rep["dirac_dual_norm"]["re"]) < 1e-12
    assert abs(complex(rep["mdo_dual_norm"]["re"], rep["mdo_dual_norm"]["im"])) > 0.1


def test_verify_exit_codes(capsys):
    code, rep = run_cli(["verify", "--suite", "clifford", "--trials", "50", "--seed", "3"], capsys)
    assert code == 0
    assert rep["pass"] is True
    assert rep["suites"][0]["suite"] == "clifford"


def test_verify_all_composes_every_suite(capsys):
    code, rep = run_cli(["verify", "--suite", "all", "--trials", "50", "--seed", "3"], capsys)
    assert code == 0
    names = [s["suite"] for s in rep["suites"]]
    assert names == ["clifford", "fpk", "rim", "plane", "homotopy", "mdo", "props"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    from spinorlab import suites

    def broken(cfg):
        return {"suite": "clifford", "checks": [
            {"name": "x", "trials": 1, "value": 1.0, "tol": 0.0, "pass": False}
        ], "pass": False}

    monkeypatch.setitem(suites.SUITES, "clifford", broken)
    code, rep = run_cli(["verify", "--suite", "clifford", "--trials", "10", "--seed", "1"], capsys)
    assert code == 3
    assert rep["pass"] is False


def test_verify_check_whose_value_is_nan_writes_its_report_and_exits_3(monkeypatch, capsys):
    inverse_operator = plane.inverse_operator
    calls = []

    def with_nan(op):
        inv = inverse_operator(op)
        calls.append(op)
        if len(calls) == 1:  # the suite's inverse of m_operator: 1/chi1, 1/chi2
            chi2_inv = np.array(inv.c2)
            chi2_inv[3] = np.nan
            inv = dataclasses.replace(inv, c2=chi2_inv)
        return inv

    monkeypatch.setattr(plane, "inverse_operator", with_nan)
    code = cli.main(["verify", "--suite", "plane", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_SUITE_FAILURE and captured.err == ""
    rep = json.loads(captured.out)
    checks = {c["name"]: c for c in rep["suites"][0]["checks"]}
    assert checks["chi_roundtrip"] == {"name": "chi_roundtrip", "trials": 10, "value": None, "tol": 1e-12, "pass": False}
    # no other check reads the suite's inverse of m_operator
    assert rep["pass"] is False and {n for n, c in checks.items() if not c["pass"]} == {"chi_roundtrip"}


def _small_report_argv(command: str, files: dict, tmp_path) -> list[str]:
    base = io.load_spinors(files["base"])[0]
    if command == "homotopy":
        ends = [write_json(tmp_path / f"end{r2}.json", spinor.to_json(plane.block_scale(base, 1.0, r2))) for r2 in (0.8, 0.0)]
        return ["homotopy", "--from", ends[0], "--to", ends[1], "--base", files["base"], "--steps", "10"]
    if command.startswith("mdo"):
        mom = write_json(tmp_path / "mom.json", {"m": 1.0, "p": 0.5, "theta": 1.0, "phi": 0.4})
        return ["mdo", "--momentum", mom, "--conj", command[-1], "--helicity", "-"]
    if command.startswith("map"):
        direction = command.split()[-1]
        return ["map", "--direction", direction, "--params", files["params"], "--coeffs", files["coeffs"], "--input", files["base"]]
    return ["verify", "--suite", "all", "--trials", "20", "--seed", "5"]


@pytest.mark.parametrize("command", ["map dirac-to-mdo", "map mdo-to-dirac", "homotopy", "mdo S", "mdo A", "verify"])
def test_every_small_report_is_plain_json(command, base_setup, capsys):
    """Each report value is a Python bool, int, float, str, None, list or
    dict, so its text is ``io.dumps_report`` of the text read back."""
    *_, files, tmp_path = base_setup
    assert cli.main(_small_report_argv(command, files, tmp_path)) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert text == io.dumps_report(json.loads(text))


def test_verify_plane_passes_its_tol_to_the_coefficient_set(monkeypatch):
    coefficient_set = plane.coefficient_set
    tols = []

    def spy(*args, **kwargs):
        tols.append(inspect.signature(coefficient_set).bind(*args, **kwargs).arguments.get("tol"))
        return coefficient_set(*args, **kwargs)

    monkeypatch.setattr(plane, "coefficient_set", spy)
    cli.main(["verify", "--suite", "plane", "--trials", "10", "--tol", "1e-6"])
    assert tols == [1e-6]


def test_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            cli.main(["verify", "--suite", "fpk", "--trials", "200", "--seed", "42", "--output", str(out)])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_tol_option_sets_the_tolerance(tmp_path, capsys):
    path = write_json(tmp_path / "e0.json", {"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]})
    code, rep = run_cli(["classify", "--input", path, "--tol", "1e-6"], capsys)
    assert code == 0
    assert rep["config"]["tol"] == 1e-6
    code, rep = run_cli(["classify", "--input", path], capsys)
    assert code == 0
    assert rep["config"]["tol"] == spinor.DEFAULT_TOL


def _tol_argv(command: str, tmp_path) -> list[str]:
    """A one-row ``command`` whose row is a zero test's input at 1e-6 but
    not at 1e-9: B = -2e-7 of a spinor at scale 1.89 for ``classify``, and
    r2 = 5e-7 at r1 = 1 against the mixed fixture's base otherwise."""
    base = io.load_spinors(MIXED_BASE)[0]
    if command == "classify":
        return ["classify", "--input", write_json(tmp_path / "psi.json", spinor.to_json(np.array([1, 0.2, 0.9, 0.2 + 5e-7j])))]
    near = write_json(tmp_path / "near.json", spinor.to_json(plane.block_scale(base, 1.0, 5e-7)))
    if command == "decompose":
        return ["decompose", "--input", near, "--base", str(MIXED_BASE)]
    far = write_json(tmp_path / "far.json", spinor.to_json(plane.block_scale(base, 1.0, 0.7 - 0.4j)))
    return ["homotopy", "--from", near, "--to", far, "--base", str(MIXED_BASE)]


@pytest.mark.parametrize("command, at_default, at_1e6", [("classify", 1, 2), ("decompose", 1, 6), ("homotopy", 1, 6)])
def test_a_non_default_tol_reaches_every_zero_test(command, at_default, at_1e6, tmp_path, capsys):
    argv = _tol_argv(command, tmp_path)
    code, default = run_cli(argv, capsys)
    assert code == 0 and default["rows"][0]["lounesto_class"] == at_default
    code, rep = run_cli(argv + ["--tol", "1e-6"], capsys)
    assert code == 0 and rep["rows"][0]["lounesto_class"] == at_1e6
    if command == "homotopy":
        # the rows leave the 1e-6 zero band, but the path meets no surface: no crossing at either tol
        assert [r["lounesto_class"] for r in rep["rows"][:2]] == [6, 1]
        assert default["crossings"] == rep["crossings"] == []


def test_near_degenerate_flag_sets_exit_code(base_setup, tmp_path, capsys):
    base, cov, _, _, files, _ = base_setup
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    # coordinates a few tolerances away from the type-2 surface
    z = complex(-A, B) * 1.3
    r2 = np.conj(z) * np.exp(1j * 4e-9)
    psi = plane.apply_operator(plane.MOperator(1.0, r2), base)
    path = write_json(tmp_path / "near.json", spinor.to_json(psi))
    code, rep = run_cli(["decompose", "--input", path, "--base", files["base"]], capsys)
    assert code == 1
    assert rep["rows"][0]["near_degenerate"] is True
    assert rep["rows"][0]["lounesto_class"] == 1


def test_report_order_matches_input_order(tmp_path, capsys, rng):
    spinors = [spinor.to_json(random_rim_bases(rng, 1)[0]) for _ in range(5)]
    path = write_json(tmp_path / "many.json", {"spinors": spinors})
    code, rep = run_cli(["classify", "--input", path], capsys)
    assert code == 0
    assert [r["id"] for r in rep["rows"]] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_classify_rejects_non_finite_csv(tmp_path, capsys, bad):
    path = tmp_path / "corpus.csv"
    path.write_text("1,0,0,0,0,0,0,0\n1,0,0,0,%s,0,0.2,0\n" % bad)
    code = cli.main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert str(path) in lines[0] and "row 2" in lines[0] and "non-finite" in lines[0]


def test_report_refuses_nan():
    with pytest.raises(ValueError):
        io.dumps_report({"value": float("nan")})


@pytest.mark.parametrize(
    "flags",
    [["--trials", "0"], ["--trials", "-5"], ["--trials", "x"], ["--seed", "-1"], ["--seed", str(2**112)]],
)
def test_verify_rejects_out_of_range_arguments(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "clifford"] + flags)
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "Traceback" not in capsys.readouterr().err


def test_verify_accepts_range_edges(capsys):
    code, rep = run_cli(["verify", "--suite", "clifford", "--trials", "1", "--seed", str(2**112 - 1)], capsys)
    assert code == 0
    assert rep["config"]["seed"] == 2**112 - 1


def test_one_parser_serves_every_call_and_still_rejects_bad_usage(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _ = run_cli(["verify", "--suite", "clifford", "--trials", "1"], capsys)
    assert code == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "invalid choice" in capsys.readouterr().err
    assert cli.build_parser().parse_args(["verify", "--suite", "all"]).suite == "all"


def test_input_error_is_a_spinorlab_error():
    assert issubclass(io.InputError, SpinorlabError)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--input", "x.json", "--tol", "-1"],
        ["decompose", "--input", "x.json", "--base", "b.json", "--tol", "0"],
        ["verify", "--suite", "clifford", "--tol", "nan"],
        ["map", "--direction", "dirac-to-mdo", "--params", "p", "--coeffs", "c", "--input", "x", "--tol", "inf"],
        ["homotopy", "--from", "f", "--to", "t", "--base", "b", "--tol", "x"],
    ],
)
def test_tol_must_be_positive_and_finite(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    err = capsys.readouterr().err
    assert "--tol" in err and "Traceback" not in err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_homotopy_rejects_steps_below_one(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["homotopy", "--from", "f", "--to", "t", "--base", "b", "--steps", steps])
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "--steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, detail",
    [
        ({"m": 0, "p": 1}, "m > 0"),
        ({"m": -1.0, "p": 1}, "m > 0"),
        ({"m": 1.0, "p": -0.5}, "p >= 0"),
        ({"m": float("nan"), "p": 1}, "finite"),
        ({"m": 1.0, "p": 1, "theta": float("inf")}, "finite"),
        ({"p": 1}, "momentum needs m, p"),
        ({"m": True, "p": 1}, "m must be a number, got true"),
        ({"m": "1", "p": 1}, 'm must be a number, got "1"'),
        ({"m": 1, "p": 1, "phi": False}, "phi must be a number, got false"),
    ],
)
def test_mdo_rejects_bad_momentum(tmp_path, capsys, payload, detail):
    path = tmp_path / "mom.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["mdo", "--momentum", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and str(path) in lines[0] and detail in lines[0]


def test_momentum_parse_failure_names_json(tmp_path):
    path = tmp_path / "mom.json"
    path.write_text("{not json")
    with pytest.raises(io.InputError, match="cannot parse JSON"):
        io.load_momentum(path)


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_non_finite_report_from_finite_input_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "mom.json", {"m": 1e308, "p": 1e308})
    code = cli.main(["mdo", "--momentum", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == (
        "error: NonFiniteMomentum: momentum m=1e+308, p=1e+308, theta=0.0, phi=0.0: "
        "Xi is not finite: p sin(theta)/m or (E +- p cos(theta))/m overflows\n"
    )


@pytest.mark.filterwarnings("error")
def test_mdo_overflow_names_the_momentum(tmp_path, capsys):
    # E = p and p / m overflows: the spinor is finite, Xi is not
    path = write_json(tmp_path / "mom.json", {"m": 1e-300, "p": 1e300, "theta": 0.5, "phi": 0.2})
    code = cli.main(["mdo", "--momentum", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: NonFiniteMomentum: momentum m=1e-300, p=1e+300, theta=0.5, phi=0.2: Xi is not finite")


def test_mdo_at_large_p_over_m_keeps_xi_an_involution(tmp_path, capsys):
    # Xi's entries are ~ 2 p/m = 2e5: the rounding in Xi^2 is far above 1e-9
    path = write_json(tmp_path / "mom.json", {"m": 1, "p": 1e5, "theta": 0.5, "phi": 0.2})
    code, rep = run_cli(["mdo", "--momentum", path], capsys)
    assert code == cli.EXIT_OK
    assert 0.0 < rep["xi_involution_error"] <= 1e-9 * (2e5) ** 2


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
@pytest.mark.parametrize("p, field", [(1e200, "diraclike_residual")])  # slash(p) Xi lambda overflows
def test_mdo_non_finite_report_names_the_momentum_and_field(tmp_path, capsys, p, field):
    path = write_json(tmp_path / "mom.json", {"m": 1, "p": p, "theta": 0.5, "phi": 0.2})
    code = cli.main(["mdo", "--momentum", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == f"error: NonFiniteMomentum: momentum m=1.0, p={p!r}, theta=0.5, phi=0.2: {field} is not finite\n"


def _large_p_mdo(tmp_path, capsys, p):
    """The mdo report (S, helicity +) at m = 1 and momentum p, after the
    checks of its spinor and residual that hold at every p/m up to 1e9."""
    path = write_json(tmp_path / "mom.json", {"m": 1, "p": p, "theta": 0.5, "phi": 0.2})
    code, rep = run_cli(["mdo", "--momentum", path, "--conj", "S", "--helicity", "+"], capsys)
    # E rounds to p: sqrt(E - p) is formed as sqrt(m^2 / (E + p)), so the
    # helicity-(+) block keeps its norm^2 m^2 / (E + p) instead of cancelling
    lam = np.array(rep["spinor"]["re"]) + 1j * np.array(rep["spinor"]["im"])
    assert np.sum(np.abs(lam[2:]) ** 2) == pytest.approx(1.0 / (rep["energy"] + p), rel=1e-14)
    # slash(p) and Xi have entries ~ p and p/m, so rounding leaves ~ eps (p/m)^2 m |lambda|
    assert rep["diraclike_residual"] <= 1e-15 * p**2 * np.linalg.norm(lam)
    return code, rep


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
@pytest.mark.parametrize("p", [1e7])
def test_mdo_large_p_over_m_exits_0_with_a_small_residual(tmp_path, capsys, p):
    code, rep = _large_p_mdo(tmp_path, capsys, p)
    assert (code, rep["diraclike_sign"]) == (cli.EXIT_OK, mdo.DIRACLIKE_SIGN["S"])


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
@pytest.mark.parametrize("p", [1e8, 1e9])
def test_mdo_unresolved_diraclike_sign_is_flagged(tmp_path, capsys, p):
    # the rounding floor of slash(p) Xi lambda is past m |lambda|, half the
    # gap between the two signs' residuals: the sign read there could be -1
    code, rep = _large_p_mdo(tmp_path, capsys, p)
    assert (code, rep["diraclike_sign"]) == (cli.EXIT_FLAGGED, 0)


@pytest.mark.parametrize(
    "exc, err",
    [
        (KeyError("no such field"), "error: internal: KeyError: 'no such field'\n"),
        (RuntimeError("first line\nsecond line"), "error: internal: RuntimeError: first line second line\n"),
    ],
    ids=["KeyError", "two-line message"],
)
def test_an_internal_error_exits_4_with_one_line(monkeypatch, capsys, exc, err):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    code = cli.main(["classify", "--input", "corpus.csv"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL_ERROR == 4
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_map_non_finite_report_names_the_field(tmp_path, capsys):
    # m = 1e300 overflows the phase of chi1; finite inputs, non-finite report
    params = write_json(tmp_path / "params.json", {"a": {"re": 0.5, "im": 0.2}, "b": {"re": 0.5, "im": -0.9}})
    coeffs = write_json(tmp_path / "coeffs.json", {"A": 0.6, "B": 0.8, "M": 1.0, "m": 1e300, "theta": 0.5})
    psi = write_json(tmp_path / "psi.json", {"re": [1.0, 0.2, 0.9, -0.1], "im": [0.0, 0.0, 0.3, 0.3]})
    code = cli.main(["map", "--direction", "dirac-to-mdo", "--params", params, "--coeffs", coeffs, "--input", psi])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == "error: chi1.im is not finite\n"


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_empty_csv_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code = cli.main(["classify", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == f"error: {path}: no data rows\n"


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_exits_2_with_one_line(where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
    code = cli.main(["classify", "--input", str(MIXED_BASE), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]


@pytest.mark.parametrize(
    "field, value, detail", [("A", True, "A must be a number, got true"), ("theta", "0.5", 'theta must be a number, got "0.5"')]
)
def test_map_rejects_coefficients_that_are_not_numbers(field, value, detail, base_setup, capsys):
    _, _, _, _, files, tmp_path = base_setup
    coeffs = json.loads(Path(files["coeffs"]).read_text())
    path = write_json(tmp_path / "bad_coeffs.json", {**coeffs, field: value})
    argv = ["map", "--direction", "dirac-to-mdo", "--params", files["params"], "--coeffs", path, "--input", files["base"]]
    code = cli.main(argv)
    assert code == cli.EXIT_INVALID_INPUT
    assert _only_error_line(capsys) == f"error: {path}: coefficient inputs need A, B [, M, m, theta, sign] ({detail})\n"


@pytest.mark.parametrize(
    "params, detail",
    [
        ({"a": {"re": True, "im": 0.2}, "b": {"re": 1, "im": -0.7}}, "a.re must be a number, got true"),
        ({"a": {"re": 0.6, "im": 0.2}, "b": {"re": "0.6", "im": -0.7}}, 'b.re must be a number, got "0.6"'),
        ({"a": {"re": 0.6, "im": "0.2"}, "b": {"re": 0.6, "im": -0.7}}, 'a.im must be a number, got "0.2"'),
    ],
    ids=["bool_re", "string_re", "string_im"],
)
def test_map_rejects_params_that_are_not_numbers(params, detail, base_setup, capsys):
    _, _, _, _, files, tmp_path = base_setup
    path = write_json(tmp_path / "bad_params.json", params)
    argv = ["map", "--direction", "dirac-to-mdo", "--params", path, "--coeffs", files["coeffs"], "--input", files["base"]]
    code = cli.main(argv)
    assert code == cli.EXIT_INVALID_INPUT
    assert _only_error_line(capsys) == f"error: {path}: params need fields a/b with re/im ({detail})\n"


@pytest.mark.parametrize("digits", [401, 5001], ids=["beyond_float", "beyond_int_parsing"])
@pytest.mark.parametrize("loader", ["classify --input", "map --params", "map --coeffs", "mdo --momentum"])
def test_an_integer_beyond_float_range_exits_2_naming_the_file(loader, digits, base_setup, capsys):
    # 10^400 is too large for float(); from 4301 digits json cannot parse an int at all
    _, _, _, _, files, tmp_path = base_setup
    params = json.loads(Path(files["params"]).read_text())
    coeffs = json.loads(Path(files["coeffs"]).read_text())
    bad = {
        "classify --input": {"re": ["BIG", 0, 0, 0], "im": [0, 0, 0, 0]},
        "map --params": {**params, "b": {"re": 0.6, "im": "BIG"}},
        "map --coeffs": {**coeffs, "M": "BIG"},
        "mdo --momentum": {"m": 1.0, "p": "BIG"},
    }[loader]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad).replace('"BIG"', "1" + "0" * (digits - 1)))
    map_argv = ["map", "--direction", "dirac-to-mdo", "--input", files["base"]]
    argv = {
        "classify --input": ["classify", "--input", str(path)],
        "map --params": map_argv + ["--params", str(path), "--coeffs", files["coeffs"]],
        "map --coeffs": map_argv + ["--params", files["params"], "--coeffs", str(path)],
        "mdo --momentum": ["mdo", "--momentum", str(path)],
    }[loader]
    assert cli.main(argv) == cli.EXIT_INVALID_INPUT
    line = _only_error_line(capsys)
    assert line.startswith(f"error: {path}: ") and len(line.replace(str(path), "PATH")) < 200
    if digits == 401 and loader != "classify --input":  # shown by its first digits
        assert "must be a number in float range, got 100000... (401 digits)" in line


_SPINOR_SHAPE = '{"re": [4 numbers], "im": [4 numbers]}'


@pytest.mark.parametrize(
    "base, detail",
    [
        ([1, 2, 3], f"spinor #0: expected {_SPINOR_SHAPE}, got int"),
        ({"re": [1, 0, 0, 0]}, f"spinor #0: missing field 'im'; expected {_SPINOR_SHAPE}"),
        ({"re": [1, 0, 0, 0], "im": [0, 0, True, 0]}, f"spinor #0: 'im' must be a list of 4 numbers; expected {_SPINOR_SHAPE}"),
    ],
    ids=["list_of_numbers", "missing_im", "bool_component"],
)
def test_spinor_loader_names_the_expected_shape(base, detail, tmp_path, capsys):
    path = write_json(tmp_path / "base.json", base)
    code = cli.main(["decompose", "--input", str(MIXED / "corpus.csv"), "--base", path])
    assert code == cli.EXIT_INVALID_INPUT
    assert _only_error_line(capsys) == f"error: {path}: {detail}\n"


@pytest.mark.parametrize("sign", ["x", "+1", 0, 2, 1.0, True, None], ids=repr)
def test_map_rejects_a_sign_that_is_not_plus_or_minus_one(sign, base_setup, capsys):
    _, _, _, _, files, tmp_path = base_setup
    coeffs = json.loads(Path(files["coeffs"]).read_text())
    path = write_json(tmp_path / "bad_sign.json", {**coeffs, "sign": sign})
    argv = ["map", "--direction", "dirac-to-mdo", "--params", files["params"], "--coeffs", path, "--input", files["base"]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == f'error: {path}: sign must be "+", "-", 1 or -1, got {sign!r}\n'


@pytest.mark.parametrize("sign", ["+", "-", 1, -1])
def test_map_accepts_the_four_spellings_of_a_sign(sign, base_setup, capsys):
    _, _, _, _, files, tmp_path = base_setup
    coeffs = json.loads(Path(files["coeffs"]).read_text())
    path = write_json(tmp_path / "sign.json", {**coeffs, "sign": sign})
    argv = ["map", "--direction", "dirac-to-mdo", "--params", files["params"], "--coeffs", path, "--input", files["base"]]
    assert cli.main(argv) == cli.EXIT_OK
    assert io.load_coeff_inputs(path)["sign"] == (-1 if sign in ("-", -1) else 1)


def _decompose_rows(tmp_path, capsys, base, psis):
    base_path = write_json(tmp_path / "zbase.json", spinor.to_json(base))
    path = write_json(tmp_path / "rows.json", {"spinors": [spinor.to_json(p) for p in psis]})
    return run_cli(["decompose", "--input", path, "--base", base_path], capsys)


def test_decompose_against_zero_block_base_fails_every_row(tmp_path, capsys):
    base = np.array([0.0, 0.0, 1.0, 0.5j])
    psis = [base, 2.0 * base, np.array([1.0, 0.0, 0.0, 1.0]), np.zeros(4)]
    code, rep = _decompose_rows(tmp_path, capsys, base, psis)
    assert code == cli.EXIT_OK
    assert [set(r) for r in rep["rows"]] == [{"id", "error", "detail"}] * 4
    assert {r["error"] for r in rep["rows"]} == {"DegenerateBasis"}


def test_decompose_with_zero_second_block_reports_first_block_misfit_first(tmp_path, capsys):
    # the first block is tested before the second block's base is found empty
    base = np.array([1.0, 0.5j, 0.0, 0.0])
    psis = [base, np.array([1.0, 0.0, 0.3, 0.0])]
    code, rep = _decompose_rows(tmp_path, capsys, base, psis)
    assert code == cli.EXIT_OK
    assert [r["error"] for r in rep["rows"]] == ["DegenerateBasis", "NotInPlane"]


@pytest.mark.parametrize("bottom", [1j, 1.0], ids=["A=0", "B=0"])
def test_decompose_against_invalid_base_keeps_coordinates(tmp_path, capsys, bottom):
    u = np.array([0.6 - 0.2j, 0.3 + 0.9j])
    base = spinor.assemble(u, 0.8 * bottom * u)
    psis = [plane.block_scale(base, 2.0, -1.5j), plane.block_scale(base, 0.5, 0.0), np.zeros(4)]
    code, rep = _decompose_rows(tmp_path, capsys, base, psis)
    assert code == cli.EXIT_OK
    for row, (r1, r2) in zip(rep["rows"], [(2.0, -1.5j), (0.5, 0.0), (0.0, 0.0)]):
        assert row["error"] == "InvalidBase"
        assert abs(complex(row["r1"]["re"], row["r1"]["im"]) - r1) < 1e-12
        assert abs(complex(row["r2"]["re"], row["r2"]["im"]) - r2) < 1e-12
        assert max(row["residuals"]) < 1e-12
        assert "lounesto_class" not in row


def test_decompose_zero_row_keeps_coordinates(base_setup, tmp_path, capsys):
    base, *_ = base_setup
    code, rep = _decompose_rows(tmp_path, capsys, base, [np.zeros(4)])
    row = rep["rows"][0]
    assert code == cli.EXIT_OK
    assert row["error"] == "ZeroDecomposition"
    assert row["r1"] == row["r2"] == {"re": 0.0, "im": 0.0}
    assert row["residuals"] == [0.0, 0.0]


def test_decompose_huge_finite_row_classifies_without_overflow(base_setup, tmp_path, capsys):
    # |r1| |r2| = 1e160: its square overflows a double
    base, *_ = base_setup
    code, rep = _decompose_rows(tmp_path, capsys, base, [1e80 * base, plane.block_scale(1e80 * base, 1.0, 0.0)])
    assert code == cli.EXIT_OK
    assert [r["lounesto_class"] for r in rep["rows"]] == [1, 6]
    assert rep["rows"][0]["r1"]["re"] == pytest.approx(1e80, rel=1e-12)


def test_decompose_row_whose_norm_overflows_keeps_the_corpus(base_setup, tmp_path, capsys):
    # |psi| ~ 1e200: its squared norm overflows, its residuals must not
    base, *_ = base_setup
    off = np.array([1e200, 5e199j, 0.0, 1e200])
    code, rep = _decompose_rows(tmp_path, capsys, base, [1e200 * base, off, base])
    assert code == cli.EXIT_OK
    huge, rejected, unit = rep["rows"]
    assert huge["lounesto_class"] == unit["lounesto_class"] == 1
    assert huge["r1"]["re"] == pytest.approx(1e200, rel=1e-12)
    assert max(huge["residuals"]) <= 1e-14 * 1e200
    assert rejected["error"] == "NotInPlane"


def test_decompose_off_plane_row_with_near_degenerate_coordinates_is_not_flagged(base_setup, tmp_path, capsys):
    # block 2 holds 5e-9 x the base block (a near-zero r2) plus an orthogonal part
    base, *_ = base_setup
    orth = np.array([-np.conj(base[3]), np.conj(base[2])])
    psi = plane.block_scale(base, 1.0, 5e-9) + np.concatenate([[0, 0], 0.5 * orth])
    code, rep = _decompose_rows(tmp_path, capsys, base, [psi])
    assert rep["rows"][0]["error"] == "NotInPlane"
    assert code == cli.EXIT_OK


def test_decompose_against_a_tiny_base_gives_finite_coordinates(tmp_path, capsys):
    # |base| ~ 1e-160: its blocks' squared norms underflow to subnormals
    base = spinor.from_json(json.loads((Path(__file__).parent / "data" / "mixed" / "base.json").read_text()))
    tiny = 1e-160 * base
    code, rep = _decompose_rows(tmp_path, capsys, tiny, [tiny, base])
    assert code in (cli.EXIT_OK, cli.EXIT_FLAGGED)
    for row, want in zip(rep["rows"], (1.0, 1e160)):
        for key in ("r1", "r2"):
            got = complex(row[key]["re"], row[key]["im"])
            assert abs(got - want) <= plane.DECOMPOSE_TOL * want, (row, key)


_BASE_OVERFLOWS = "the base's A or B is not finite (its norm is too large)"


def _only_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_classify_overflowing_rows_are_row_errors(tmp_path, capsys):
    # |psi|^2 = 2e400 overflows A; at |psi| ~ 1e100 the covariants are
    # finite but the quartic FPK residuals overflow
    rows = [[1, 0, 0, 0, 0, 0, 0, 0], [1e200, 0, 0, 0, 1e200, 0, 0, 0], [1e100, 0, 0, 0, 1e100, 0, 0, 0], [1] * 8]
    path = tmp_path / "corpus.csv"
    path.write_text("".join(",".join(map(repr, map(float, row))) + "\n" for row in rows))
    code, rep = run_cli(["classify", "--input", str(path)], capsys)
    assert code == cli.EXIT_OK
    assert rep["rows"][1] == {"id": 1, "error": "NonFiniteValue", "detail": "A is not finite"}
    assert rep["rows"][2] == {"id": 2, "error": "NonFiniteValue", "detail": "fpk_residuals is not finite"}
    # the scalar route gives the same values: the first non-finite one in key order is the one named
    for row, psi in zip(rep["rows"], io.load_spinors(path)):
        with np.errstate(all="ignore"):
            b = bilinear.compute(psi)
            values = [b.A.real, b.B.real, b.J.real, b.K.real, b.S.real, bilinear.fpk_residuals(b)]
        finite = [bool(np.isfinite(v).all()) for v in values]
        if "error" in row:
            assert row["detail"] == f"{('A', 'B', 'J', 'K', 'S', 'fpk_residuals')[finite.index(False)]} is not finite"
        else:
            assert all(finite) and row["lounesto_class"] == lounesto.classify(b)


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_decompose_overflowing_rows_are_row_errors(tmp_path, capsys):
    # against a base of norm ~1e-10, a row of norm ~1e300 has |r1| ~ 1e310
    base = io.load_spinors(MIXED_BASE)[0]
    base_path = write_json(tmp_path / "base.json", spinor.to_json(1e-10 * base))
    rows = [base, 1e300 * base, 2.0 * base, -1e299 * base]
    argv = ["decompose", "--input", write_json(tmp_path / "rows.json", {"spinors": list(map(spinor.to_json, rows))})]
    code, rep = run_cli(argv + ["--base", base_path], capsys)
    assert code == cli.EXIT_OK
    assert rep["rows"][1] == {"id": 1, "error": "NonFiniteValue", "detail": "r1 is not finite"}
    assert rep["rows"][3] == {"id": 3, "error": "NonFiniteValue", "detail": "r1 is not finite"}
    # the other rows are those of a corpus without the overflowing ones
    argv = ["decompose", "--input", write_json(tmp_path / "finite.json", {"spinors": list(map(spinor.to_json, rows[::2]))})]
    code, alone = run_cli(argv + ["--base", base_path], capsys)
    assert code == cli.EXIT_OK
    assert [rep["rows"][0], {**rep["rows"][2], "id": 1}] == alone["rows"]


@pytest.fixture
def overflowing_base(tmp_path):
    """The mixed fixture base x 1e200: finite, but its A and B overflow."""
    base = io.load_spinors(MIXED_BASE)[0]
    return write_json(tmp_path / "huge_base.json", spinor.to_json(1e200 * base))


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_decompose_against_a_base_whose_scalars_overflow_names_the_base(overflowing_base, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["decompose", "--input", str(MIXED / "corpus.csv"), "--base", overflowing_base]
    code = cli.main(argv + ["--output", str(out)])
    assert code == cli.EXIT_INVALID_INPUT
    assert _only_error_line(capsys) == f"error: {overflowing_base}: {_BASE_OVERFLOWS}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # no warning may leave cli.main
def test_homotopy_against_a_base_whose_scalars_overflow_names_the_base(overflowing_base, capsys):
    argv = ["homotopy", "--from", str(MIXED / "homotopy_from.json"), "--to", str(MIXED / "homotopy_to.json")]
    code = cli.main(argv + ["--base", overflowing_base])
    assert code == cli.EXIT_INVALID_INPUT
    assert _only_error_line(capsys) == f"error: {overflowing_base}: {_BASE_OVERFLOWS}\n"


@pytest.mark.parametrize(
    "argv",
    [["classify", "--input", "corpus.csv"], ["decompose", "--input", "corpus.csv", "--base", "base.json"]],
    ids=["classify", "decompose"],
)
def test_stdout_and_output_give_the_pinned_report(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(MIXED)
    pinned = (MIXED / f"{argv[0]}.json").read_bytes()
    assert cli.main(argv) == cli.EXIT_FLAGGED
    assert capsys.readouterr().out.encode() == pinned
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_FLAGGED
    assert out.read_bytes() == pinned
