"""Batch command-line front-end.

Commands: classify, decompose, map, homotopy, mdo, verify.  Exit codes:
0 success, 1 classification produced but with near-degenerate flags,
2 invalid input, 3 identity-suite failure.  The SPINORLAB_TOL environment
variable overrides the default tolerance (1e-9); report order always equals
input order.  ``classify`` and ``decompose`` each make one vectorised pass
over the corpus (covariants or plane coordinates, then classes) and only
build the report rows one at a time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bilinear, homotopy, io, lounesto, mdo, plane, rim, rng, spinor
from .errors import IntegrabilityViolation, SpinorlabError
from .spinor import DEFAULT_TOL
from .suites import SuiteConfig, run_suites

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_INVALID_INPUT = 2
EXIT_SUITE_FAILURE = 3

_ROWS_PER_SLICE = 2048


def _tol_default() -> float:
    env = os.environ.get("SPINORLAB_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError as exc:
        raise io.InputError(f"SPINORLAB_TOL={env!r} is not a number") from exc
    if not (math.isfinite(tol) and tol > 0):
        raise io.InputError("SPINORLAB_TOL must be positive and finite")
    return tol


def _int_range(lo: int, hi: float = math.inf):
    """argparse type: an int in [lo, hi), else a usage error (exit 2)."""

    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi})")
        return value

    return integer


def _positive_float(text: str) -> float:
    """argparse type: a positive finite float, else a usage error (exit 2)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None)
    tol = argparse.ArgumentParser(add_help=False, parents=[output])
    tol.add_argument("--tol", type=_positive_float, default=None)

    p = sub.add_parser("classify", parents=[tol], help="Lounesto class of each input spinor")
    p.add_argument("--input", required=True)

    decompose_help = (
        "plane coordinates against a base spinor; --tol sets the classification "
        f"tolerance only; plane membership always uses DECOMPOSE_TOL = {plane.DECOMPOSE_TOL:g}"
    )
    p = sub.add_parser("decompose", parents=[tol], help=decompose_help, description=decompose_help)
    p.add_argument("--input", required=True)
    p.add_argument("--base", required=True)

    p = sub.add_parser("map", parents=[tol], help="block-scalar map between Dirac and MDO images")
    p.add_argument("--direction", required=True, choices=["dirac-to-mdo", "mdo-to-dirac"])
    p.add_argument("--params", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--input", required=True)

    p = sub.add_parser("homotopy", parents=[tol], help="straight-line path between two spinors")
    p.add_argument("--from", dest="from_path", required=True)
    p.add_argument("--to", dest="to_path", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--steps", type=_int_range(1), default=10)

    p = sub.add_parser("mdo", parents=[output], help="construct a dual-helicity spinor and its residuals")
    p.add_argument("--momentum", required=True)
    p.add_argument("--conj", choices=["S", "A"], default="S")
    p.add_argument("--helicity", choices=["+", "-"], default="+")

    p = sub.add_parser("verify", parents=[tol], help="run the randomized identity suites")
    p.add_argument(
        "--suite",
        required=True,
        choices=["clifford", "fpk", "rim", "plane", "homotopy", "mdo", "props", "all"],
    )
    p.add_argument("--trials", type=_int_range(1), default=1000)
    p.add_argument("--seed", type=_int_range(0, rng.SEED_LIMIT), default=0)
    return parser


def _emit(report: dict, output: str | None) -> None:
    text = io.write_report(report, output)
    if output is None:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    opt = lounesto.ClassifyOptions(tol=args.tol)
    cov = bilinear.compute_batch(io.load_spinors(args.input))
    classes, errors, near = lounesto.classify_batch(cov, opt)
    residuals = bilinear.fpk_residuals_batch(cov)
    columns = zip(
        classes.tolist(),
        errors.tolist(),
        near.tolist(),
        np.real(cov["A"]).tolist(),
        np.real(cov["B"]).tolist(),
        np.real(cov["J"]).tolist(),
        np.real(cov["K"]).tolist(),
        np.real(cov["S"]).tolist(),
        np.real(residuals).tolist(),
    )
    rows = []
    for i, (cls, err, flag, a_val, b_val, j, k, s, res) in enumerate(columns):
        if err:
            exc, detail = lounesto.ROW_ERRORS[err - 1]
            rows.append({"id": i, "error": exc.__name__, "detail": detail})
            continue
        rows.append(
            {
                "id": i,
                "lounesto_class": cls,
                "regular": lounesto.LounestoClass(cls).regular,
                "near_degenerate": flag,
                "A": a_val,
                "B": b_val,
                "J": j,
                "K": k,
                "S": s,
                "fpk_residuals": res,
            }
        )
    report = {"command": "classify", "config": {"tol": args.tol, "input": str(args.input)}, "rows": rows}
    _emit(report, args.output)
    return EXIT_FLAGGED if near.any() else EXIT_OK


def _cmd_decompose(args) -> int:
    opt = lounesto.ClassifyOptions(tol=args.tol)
    psis = io.load_spinors(args.input)
    base = io.load_spinors(args.base)[0]
    base_cov = bilinear.compute(base)
    a_val = float(np.real(base_cov.A))
    b_val = float(np.real(base_cov.B))
    coords, residuals, failures = plane.decompose_batch(psis, base)
    classes, errors, near = lounesto.classify_by_coefficients_batch(
        coords[:, 0], coords[:, 1], a_val, b_val, opt
    )
    near[list(failures)] = False
    rows = []
    # a slice at a time, so the Python lists of one column never all coexist
    for start in range(0, psis.shape[0], _ROWS_PER_SLICE):
        part = slice(start, start + _ROWS_PER_SLICE)
        columns = zip(
            coords[part].real.tolist(),
            coords[part].imag.tolist(),
            residuals[part].tolist(),
            classes[part].tolist(),
            errors[part].tolist(),
            near[part].tolist(),
        )
        for i, (re, im, res, cls, err, flag) in enumerate(columns, start):
            exc = failures.get(i)
            if exc is not None:
                rows.append({"id": i, "error": type(exc).__name__, "detail": str(exc)})
                continue
            row = {
                "id": i,
                "r1": {"re": re[0], "im": im[0]},
                "r2": {"re": re[1], "im": im[1]},
                "residuals": res,
            }
            if err:
                exc, detail = lounesto.COEFFICIENT_ERRORS[err - 1]
                row.update({"error": exc.__name__, "detail": detail})
            else:
                row.update(
                    {
                        "lounesto_class": cls,
                        "regular": lounesto.LounestoClass(cls).regular,
                        "near_degenerate": flag,
                    }
                )
            rows.append(row)
    report = {
        "command": "decompose",
        "config": {"tol": args.tol, "input": str(args.input), "base": str(args.base)},
        "base": {"A": a_val, "B": b_val},
        "rows": rows,
    }
    _emit(report, args.output)
    return EXIT_FLAGGED if near.any() else EXIT_OK


def _cmd_map(args) -> int:
    a, b = io.load_params(args.params)
    params = rim.validate(a, b, args.tol)
    inputs = io.load_coeff_inputs(args.coeffs)
    psi = io.load_spinors(args.input)[0]
    cov = bilinear.from_scalars(
        inputs["A"], inputs["B"], [0.0] * 4, [0.0] * 4, np.zeros((4, 4))
    )
    c = plane.coefficient_set(
        params, cov, inputs["M"], inputs["m"], inputs["theta"], inputs["sign"], args.tol
    )
    mapped = plane.map_dirac_mdo(psi, c, args.direction)
    reverse = "mdo-to-dirac" if args.direction == "dirac-to-mdo" else "dirac-to-mdo"
    back = plane.map_dirac_mdo(mapped, c, reverse)
    roundtrip = float(np.linalg.norm(back - psi))
    chi = plane.chi_factors(c)
    report = {
        "command": "map",
        "config": {
            "tol": args.tol,
            "direction": args.direction,
            "params": str(args.params),
            "coeffs": str(args.coeffs),
            "input": str(args.input),
        },
        "chi1": spinor.complex_to_json(chi.chi1),
        "chi2": spinor.complex_to_json(chi.chi2),
        "mapped": spinor.to_json(mapped),
        "roundtrip_residual": roundtrip,
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_homotopy(args) -> int:
    opt = lounesto.ClassifyOptions(tol=args.tol)
    psi = io.load_spinors(args.from_path)[0]
    phi = io.load_spinors(args.to_path)[0]
    base = io.load_spinors(args.base)[0]
    base_cov = bilinear.compute(base)
    a_val = float(np.real(base_cov.A))
    b_val = float(np.real(base_cov.B))
    psi_c = plane.decompose(psi, base)
    phi_c = plane.decompose(phi, base)
    path = homotopy.spinor_homotopy(psi_c, phi_c)
    steps = args.steps
    rows = []
    for i in range(steps + 1):
        t = i / steps
        coords = homotopy.eval_path(path, psi_c.r1, t)
        wt = homotopy.multiplier_at(path, t)
        degenerate = path.degenerate_t is not None and abs(t - path.degenerate_t) <= 1.0 / (2 * steps)
        row = {
            "t": t,
            "coords": {
                "r1": spinor.complex_to_json(coords.r1),
                "r2": spinor.complex_to_json(coords.r2),
            },
            "multiplier": spinor.complex_to_json(wt),
            "degenerate": degenerate,
        }
        try:
            cls = lounesto.classify_by_coefficients(coords.r1, coords.r2, a_val, b_val, opt)
            row["lounesto_class"] = int(cls)
            row["regular"] = cls.regular
        except SpinorlabError as exc:
            row["error"] = type(exc).__name__
        rows.append(row)
    transition = homotopy.class_transition(path, a_val, b_val, opt, steps=steps)
    report = {
        "command": "homotopy",
        "config": {
            "tol": args.tol,
            "from": str(args.from_path),
            "to": str(args.to_path),
            "base": str(args.base),
            "steps": steps,
        },
        "base": {"A": a_val, "B": b_val},
        "degenerate_t": path.degenerate_t,
        "rows": rows,
        "transition": None
        if transition is None
        else {
            "t": transition[0],
            "class_before": int(transition[1]),
            "class_after": int(transition[2]),
        },
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_mdo(args) -> int:
    payload = io.load_momentum(args.momentum)
    mom = mdo.Momentum(payload["m"], payload["p"], payload["theta"], payload["phi"])
    hel = +1 if args.helicity == "+" else -1
    e = mdo.elko(mom, hel, args.conj)
    res, eta = mdo.diraclike_residual(e, mom)
    chirality = mdo.chirality_current_residuals(e, mom)
    inv, comm = mdo.xi_checks(mom)
    ev_top, ev_bottom = mdo.dual_helicity_eigenvalues(e, mom)
    d = spinor.dirac_dual(e.spinor)
    report = {
        "command": "mdo",
        "config": {
            "momentum": str(args.momentum),
            "conj": args.conj,
            "helicity": args.helicity,
        },
        "energy": mom.E,
        "spinor": spinor.to_json(e.spinor),
        "diraclike_residual": res,
        "diraclike_sign": eta,
        "chirality_current_residuals": [float(x) for x in chirality],
        "xi_involution_error": inv,
        "xi_commutator_error": comm,
        "helicity_eigenvalues": {"top": ev_top, "bottom": ev_bottom},
        "dirac_dual_norm": spinor.complex_to_json(complex(d @ e.spinor)),
        "mdo_dual_norm": spinor.complex_to_json(mdo.mdo_norm(e, mom)),
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(trials=args.trials, seed=args.seed, tol=args.tol)
    report = run_suites([args.suite], cfg)
    report = {"command": "verify", **report}
    _emit(report, args.output)
    return EXIT_OK if report["pass"] else EXIT_SUITE_FAILURE


_COMMANDS = {
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "map": _cmd_map,
    "homotopy": _cmd_homotopy,
    "mdo": _cmd_mdo,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", DEFAULT_TOL) is None:
            args.tol = _tol_default()
        return _COMMANDS[args.command](args)
    # ValueError: a report with a non-finite value (json allow_nan=False)
    except (io.InputError, IntegrabilityViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SpinorlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
