import json

import numpy as np
import pytest

from spinorlab import bilinear, cli, io, plane, rim, spinor
from spinorlab.errors import SpinorlabError
from spinorlab.generators import random_rim_bases
from spinorlab.lounesto import LounestoClass


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def base_setup(tmp_path, rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    params = rim.validate(0.6 + 0.2j, 0.6 - 0.7j)
    c = plane.coefficient_set(params, cov, 1.0, 0.5, 0.7, +1)
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


def test_classify_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["classify", "--input", str(path)])
    assert code == 2


def test_decompose_roundtrip(base_setup, tmp_path, capsys):
    base, cov, params, c, files, _ = base_setup
    psi = plane.apply_operator(plane.make_operator(0.5, 2.0 + 1j), base)
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
    psi1 = plane.apply_operator(plane.make_operator(1.0, 0.8), base)
    psi6 = plane.apply_operator(plane.make_operator(1.0, 0.0), base)
    f1 = write_json(tmp_path / "p1.json", spinor.to_json(psi1))
    f6 = write_json(tmp_path / "p6.json", spinor.to_json(psi6))
    code, rep = run_cli(
        ["homotopy", "--from", f1, "--to", f6, "--base", files["base"], "--steps", "10"],
        capsys,
    )
    assert code == 0
    classes = [r["lounesto_class"] for r in rep["rows"]]
    assert classes[0] == 1 and classes[-1] == 6
    assert rep["transition"]["class_before"] == 1
    assert rep["transition"]["class_after"] == 6
    assert len(rep["rows"]) == 11


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


def test_verify_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert (
            cli.main(["verify", "--suite", "fpk", "--trials", "200", "--seed", "42", "--output", str(out)])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_env_var_overrides_tolerance(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "e0.json", {"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]})
    monkeypatch.setenv("SPINORLAB_TOL", "1e-6")
    code, rep = run_cli(["classify", "--input", path], capsys)
    assert code == 0
    assert rep["config"]["tol"] == 1e-6
    monkeypatch.setenv("SPINORLAB_TOL", "-1")
    assert cli.main(["classify", "--input", path]) == 2


def test_near_degenerate_flag_sets_exit_code(base_setup, tmp_path, capsys):
    base, cov, _, _, files, _ = base_setup
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    # coordinates a few tolerances away from the type-2 surface
    z = complex(-A, B) * 1.3
    r2 = np.conj(z) * np.exp(1j * 4e-9)
    psi = plane.apply_operator(plane.make_operator(1.0, r2), base)
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


def test_report_encodes_numpy_and_complex_like_python():
    report = {
        "arr": np.array([[1.5, -0.0], [2.0, 3.25]]),
        "flag": np.bool_(True),
        "count": np.int64(7),
        "f32": np.float32(0.5),
        "f64": np.float64(0.1),
        "z": 1 - 2j,
        "zs": np.array([0.5j]),
        "cls": LounestoClass.TYPE3,
    }
    plain = {
        "arr": [[1.5, -0.0], [2.0, 3.25]],
        "flag": True,
        "count": 7,
        "f32": 0.5,
        "f64": 0.1,
        "z": {"re": 1.0, "im": -2.0},
        "zs": [{"re": 0.0, "im": 0.5}],
        "cls": 3,
    }
    assert io.dumps_report(report) == io.dumps_report(plain)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_report_from_finite_input_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "mom.json", {"m": 1e308, "p": 1e308})
    code = cli.main(["mdo", "--momentum", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        "error: Out of range float values are not JSON compliant: nan"
    ]


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


def test_decompose_off_plane_row_with_near_degenerate_coordinates_is_not_flagged(base_setup, tmp_path, capsys):
    # block 2 holds 5e-9 x the base block (a near-zero r2) plus an orthogonal part
    base, *_ = base_setup
    orth = np.array([-np.conj(base[3]), np.conj(base[2])])
    psi = plane.block_scale(base, 1.0, 5e-9) + np.concatenate([[0, 0], 0.5 * orth])
    code, rep = _decompose_rows(tmp_path, capsys, base, [psi])
    assert rep["rows"][0]["error"] == "NotInPlane"
    assert code == cli.EXIT_OK
