"""Batch command-line front-end.

Commands: classify, decompose, map, homotopy, mdo, verify.  Exit codes:
0 success, 1 classification produced but with near-degenerate flags (or an
``mdo`` report whose Dirac-like sign is unresolved), 2 invalid input or an
--output that cannot be written, 3 identity-suite failure, 4 an internal
error (any other exception); stderr is empty or one ``error:`` line.  --tol
defaults to 1e-9; report order always equals input order.  ``classify`` and
``decompose`` each make one pass over the corpus in ``bilinear._blocks`` of
1024 rows (covariants or plane coordinates, then classes) and hand
``io.write_rows_report`` the report's header and, block by block, the numpy
columns and per-row layouts; it checks that each block's floats are finite
and streams its rows through one template per layout before the next block
is computed.  A row whose covariants, residuals or plane coordinates
overflow is a ``NonFiniteValue`` error row naming its first such field, and
the rest of the corpus is written.  ``homotopy`` classifies its rows in one
sweep of their grid at their x (the from-spinor's r1), lists every t in
(0, 1] where the path meets a type-2, 3 or 6 surface exactly, and fails with
exit 2 on a row that cannot be classified.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import bilinear, homotopy, io, lounesto, mdo, plane, rim, rng, spinor
from .errors import IntegrabilityViolation, NonFiniteMomentum, NonFiniteValue, SpinorlabError
from .spinor import DEFAULT_TOL
from .suites import SUITES, SuiteConfig, run_suites

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_INVALID_INPUT = 2
EXIT_SUITE_FAILURE = 3
EXIT_INTERNAL_ERROR = 4


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


@functools.lru_cache(maxsize=1)  # one parser per process: every in-process main call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None)
    tol = argparse.ArgumentParser(add_help=False, parents=[output])
    tol.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)

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
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p.add_argument("--trials", type=_int_range(1), default=1000)
    p.add_argument("--seed", type=_int_range(0, rng.SEED_LIMIT), default=0)
    return parser


def _emit(report: dict, output: str | None) -> None:
    text = io.write_report(report, output)
    if output is None:
        sys.stdout.write(text)


# regularity of each class code; code 0 (an error row) is never written
_REGULAR = np.array([False] + [c.regular for c in lounesto.LounestoClass])


def _error_texts(table, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exception names and details of error codes into ``table`` (code c is
    ``table[c - 1]``), as object arrays; "" where the code is 0."""
    names = np.array([""] + [exc.__name__ for exc, _ in table], dtype=object)
    details = np.array([""] + [detail for _, detail in table], dtype=object)
    return names[codes], details[codes]


def _load_base(path: str) -> tuple[np.ndarray, float, float]:
    """The base spinor and its real scalars A and B, which must be finite."""
    base = io.load_spinors(path)[0]
    cov = bilinear.compute(base)
    a_val, b_val = float(np.real(cov.A)), float(np.real(cov.B))
    if not (math.isfinite(a_val) and math.isfinite(b_val)):
        raise io.InputError(f"{path}: the base's A or B is not finite (its norm is too large)")
    return base, a_val, b_val


def _non_finite_rows(columns: dict, rows: np.ndarray, names, details, near) -> np.ndarray:
    """Make each of ``rows`` (a mask) whose ``columns`` hold a non-finite
    value a NonFiniteValue error row with detail "FIELD is not finite", the
    first such column in key order; returns the mask of rows it made so."""
    keys = sorted(columns)
    bad = np.stack([~np.isfinite(np.reshape(columns[k], (rows.size, -1))).all(axis=1) for k in keys], axis=-1)
    over = rows & bad.any(axis=1)
    names[over], near[over] = NonFiniteValue.__name__, False
    details[over] = np.array([f"{k} is not finite" for k in keys], dtype=object)[np.argmax(bad[over], axis=1)]
    return over


def _write_blocks(header: dict, n: int, block, output: str | None) -> int:
    """Stream the report of an n-row corpus, one ``bilinear._blocks`` block
    at a time: ``block(rows, flagged)`` gives the block's (layouts, codes)
    for ``io.write_rows_report`` and appends to ``flagged`` whether any of
    its rows is near-degenerate.  Returns the exit code."""
    flagged: list[bool] = []
    io.write_rows_report(header, (block(rows, flagged) for rows in bilinear._blocks(n)), output)
    return EXIT_FLAGGED if any(flagged) else EXIT_OK


def _cmd_classify(args) -> int:
    psis = io.load_spinors(args.input)

    def block(rows, flagged):
        cov = bilinear.compute_batch(psis[rows])
        classes, errors, near = lounesto.classify_batch(cov, args.tol)
        residuals = bilinear.fpk_residuals_batch(cov)
        ids = np.arange(rows.start, rows.start + classes.size)
        names, details = _error_texts(lounesto.ROW_ERRORS, errors)
        class_row = {
            "id": ids,
            "lounesto_class": classes,
            "regular": _REGULAR[classes],
            "near_degenerate": near,
            "A": np.real(cov["A"]),
            "B": np.real(cov["B"]),
            "J": np.real(cov["J"]),
            "K": np.real(cov["K"]),
            "S": np.real(cov["S"]),
            "fpk_residuals": np.real(residuals),
        }
        # a class row whose covariants or residuals overflow is an error row naming its first such field
        floats = {k: class_row[k] for k in ("A", "B", "J", "K", "S", "fpk_residuals")}
        over = _non_finite_rows(floats, errors == 0, names, details, near)
        error_row = {"id": ids, "error": names, "detail": details}
        flagged.append(bool(near.any()))
        return [class_row, error_row], (errors != 0) | over

    header = {"command": "classify", "config": {"tol": args.tol, "input": str(args.input)}}
    return _write_blocks(header, psis.shape[0], block, args.output)


def _cmd_decompose(args) -> int:
    psis = io.load_spinors(args.input)
    base, a_val, b_val = _load_base(args.base)

    def block(rows, flagged):
        coords, residuals, failures = plane.decompose_batch(psis[rows], base)
        classes, errors, near = lounesto.classify_by_coefficients_batch(
            coords[:, 0], coords[:, 1], a_val, b_val, args.tol
        )
        # layouts: 0 class row, 1 coefficient-error row, 2 failed row
        layout = np.minimum(errors, 1)
        names, details = _error_texts(lounesto.COEFFICIENT_ERRORS, errors)
        failed = list(failures)
        layout[failed] = 2
        near[failed] = False
        names[failed] = [type(exc).__name__ for exc in failures.values()]
        details[failed] = [str(exc) for exc in failures.values()]
        # a row whose coordinates or residuals overflow is an error row naming its first such field
        floats = {"r1": coords[:, 0], "r2": coords[:, 1], "residuals": residuals}
        layout[_non_finite_rows(floats, layout != 2, names, details, near)] = 2
        ids = np.arange(rows.start, rows.start + classes.size)
        r1 = {"re": coords[:, 0].real, "im": coords[:, 0].imag}
        r2 = {"re": coords[:, 1].real, "im": coords[:, 1].imag}
        class_row = {
            "id": ids,
            "r1": r1,
            "r2": r2,
            "residuals": residuals,
            "lounesto_class": classes,
            "regular": _REGULAR[classes],
            "near_degenerate": near,
        }
        error_row = {"id": ids, "error": names, "detail": details}
        coefficient_error_row = {**error_row, "r1": r1, "r2": r2, "residuals": residuals}
        flagged.append(bool(near.any()))
        return [class_row, coefficient_error_row, error_row], layout

    header = {
        "command": "decompose",
        "config": {"tol": args.tol, "input": str(args.input), "base": str(args.base)},
        "base": {"A": a_val, "B": b_val},
    }
    return _write_blocks(header, psis.shape[0], block, args.output)


def _cmd_map(args) -> int:
    a, b = io.load_params(args.params)
    params = rim.validate(a, b, args.tol)
    inputs = io.load_coeff_inputs(args.coeffs)
    psi = io.load_spinors(args.input)[0]
    c = plane.coefficient_set(
        params, inputs["A"], inputs["B"], inputs["M"], inputs["m"], inputs["theta"], inputs["sign"], args.tol
    )
    mapped = plane.map_dirac_mdo(psi, c, args.direction)
    reverse = "mdo-to-dirac" if args.direction == "dirac-to-mdo" else "dirac-to-mdo"
    back = plane.map_dirac_mdo(mapped, c, reverse)
    roundtrip = float(np.linalg.norm(back - psi))
    m = plane.m_operator(c)
    report = {
        "command": "map",
        "config": {
            "tol": args.tol,
            "direction": args.direction,
            "params": str(args.params),
            "coeffs": str(args.coeffs),
            "input": str(args.input),
        },
        "chi1": spinor.complex_to_json(m.c1),
        "chi2": spinor.complex_to_json(m.c2),
        "mapped": spinor.to_json(mapped),
        "roundtrip_residual": roundtrip,
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_homotopy(args) -> int:
    psi = io.load_spinors(args.from_path)[0]
    phi = io.load_spinors(args.to_path)[0]
    base, a_val, b_val = _load_base(args.base)
    psi_c = plane.decompose(psi, base)
    phi_c = plane.decompose(phi, base)
    path = homotopy.spinor_homotopy(psi_c, phi_c)
    steps = args.steps
    crossings, grid = homotopy.class_transition(path, a_val, b_val, args.tol, steps=steps, x=psi_c.r1)
    ts = np.arange(steps + 1) / steps
    coords, wt = homotopy.eval_path(path, psi_c.r1, ts), homotopy.multiplier_at(path, ts)
    degenerate = np.abs(ts - (np.nan if path.degenerate_t is None else path.degenerate_t)) <= 1.0 / (2 * steps)
    met = [(t, int(c)) for t, c in zip(crossings[0].tolist(), homotopy.SURFACES) if not math.isnan(t)]
    rows = [
        {
            "t": t,
            "coords": {"r1": spinor.complex_to_json(r1), "r2": spinor.complex_to_json(r2)},
            "multiplier": spinor.complex_to_json(w),
            "degenerate": bool(d),
            "lounesto_class": int(c),
            "regular": bool(_REGULAR[c]),
        }
        for t, r1, r2, w, d, c in zip(ts.tolist(), coords.r1, coords.r2, wt, degenerate, grid[:, 0])
    ]
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
        "crossings": [{"t": t, "lounesto_class": c} for t, c in sorted(met)],
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
    try:
        _emit(report, args.output)
    except ValueError as exc:  # a non-finite field, named by io.dumps_report
        where = f"momentum m={mom.m!r}, p={mom.p!r}, theta={mom.theta!r}, phi={mom.phi!r}"
        raise NonFiniteMomentum(f"{where}: {exc}") from exc
    # sign 0: rounding hides which sign the Dirac-like relation takes (p/m >~ 2e7)
    return EXIT_OK if eta else EXIT_FLAGGED


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
    # one error state and warning filter for the whole command, so stderr
    # holds at most the one error line; no result depends on them
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return _COMMANDS[args.command](args)
        # ValueError: a report with a non-finite value, which is never
        # written; OSError: an --output that cannot be written
        except (io.InputError, IntegrabilityViolation, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        except SpinorlabError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        except Exception as exc:  # a defect, not an input: never 1, "flagged"
            print(f"error: internal: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
            return EXIT_INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
