"""Straight-line homotopies between coordinate functions and between spinors.

Every coordinate function here is linear, y(x) = w*x, stored as num/den so
that y(den) returns num bitwise (endpoint exactness).  A basis homotopy
deforms the plane's basis while one tracked spinor keeps coordinates (x, x);
a spinor homotopy deforms the second coordinate in a fixed basis.

Paths, points and parameters are scalars, or (n,) arrays for n paths at
once.  Scalars are computed with Python's complex type, whose products are
not fused and whose quotients divide by the denominator; on arrays
``_times`` and ``_over`` round the same way, so a path in an array has the
bits of the same path given alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateParameter, raise_first
from .lounesto import ClassifyOptions, LounestoClass, classify_by_coefficients

# ``decompose`` stays importable from here: bench/test_bench.py checks that
# the benchmark's tracer patches this binding
from .plane import PlaneCoords, block_scale, decompose, decompose_batch  # noqa: F401
from .spinor import DEFAULT_TOL, chiral_parts

_PARAM_TOL = 1e-12  # relative size below which Im(t) or an endpoint's r1 is zero


def _is_scalar(a, b) -> bool:
    return not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.stack(np.broadcast_arrays(re, im), axis=-1).view(complex)[..., 0]


def _times(a, b):
    """a * b as Python's complex type rounds it: numpy's array loop fuses
    the multiply-add, so on arrays the parts are formed one by one."""
    if _is_scalar(a, b):
        return complex(a) * complex(b)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _over(a, b):
    """a / b as Python's complex type rounds it (Smith's method, dividing by
    the denominator where numpy multiplies by its reciprocal); NaN on arrays
    where b = 0, which Python refuses."""
    if _is_scalar(a, b):
        return complex(a) / complex(b)
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_re = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


@dataclass(frozen=True)
class CoordFunction:
    """y(x) = (num/den) x, anchored so that y(den) is num bitwise.

    The anchor short-circuit matters because complex division z/z is not
    exactly 1+0j in floating point; endpoint exactness relies on it.
    """

    num: complex
    den: complex = 1.0 + 0j

    @property
    def w(self) -> complex:
        return _over(self.num, self.den)

    def __call__(self, x: complex) -> complex:
        if _is_scalar(x, self.den):
            return self.num if x == self.den else _times(self.num, _over(x, self.den))
        return np.where(x == self.den, self.num, _times(self.num, _over(x, self.den)))


@dataclass(frozen=True)
class HomotopyPath:
    f: CoordFunction
    g: CoordFunction
    degenerate_t: float | None  # NaN marks a path without one in an array
    basis: str = "B"


def _degenerate_t(wf, wg):
    """Interior parameter where (1-t)wf + t*wg = 0, if one exists on (0,1):
    None, or NaN in the (n,) array of n paths."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _over(wf, wf - wg) if np.any(wf != wg) else np.nan
    real, imag = np.real(t), np.imag(t)
    inside = (wf != wg) & (np.abs(imag) <= _PARAM_TOL * np.fmax(1.0, np.abs(real))) & (0.0 < real) & (real < 1.0)
    if np.ndim(inside):
        return np.where(inside, real, np.nan)
    return float(real) if inside else None


def basis_homotopy(f: CoordFunction, g: CoordFunction) -> HomotopyPath:
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w))


def multiplier_at(path: HomotopyPath, t: float) -> complex:
    return (1.0 - t) * path.f.w + t * path.g.w


def eval_path(path: HomotopyPath, x: complex, t: float) -> PlaneCoords:
    """Point (x, (1-t) f(x) + t g(x)); endpoints are bitwise the inputs."""
    y = (1.0 - t) * path.f(x) + t * path.g(x)
    if np.ndim(y):
        return PlaneCoords(*np.broadcast_arrays(np.asarray(x, dtype=complex), y), basis=path.basis)
    return PlaneCoords(r1=complex(x), r2=complex(y), basis=path.basis)


def degenerate_at(path: HomotopyPath, t: float):
    """Whether the interpolated multiplier vanishes at t, where the induced
    basis is not invertible; elementwise on (n,) paths or parameters."""
    wscale = np.fmax(1.0, np.fmax(np.abs(path.f.w), np.abs(path.g.w)))
    return np.abs(multiplier_at(path, t)) <= DEFAULT_TOL * wscale


def sample_basis(
    path: HomotopyPath,
    base: np.ndarray,
    t: float,
) -> tuple[tuple[np.ndarray, np.ndarray], PlaneCoords]:
    """Intermediate basis pair at parameter t, plus the tracked coordinates.

    The spinor with base-basis coordinates (1, w(t)) supplies the new
    basis through its own chiral blocks; re-decomposing it against itself
    must give the identity coordinates (ratio 1).  Raises at parameters
    where the interpolated multiplier vanishes (the induced basis is not
    invertible there).  With (n,) paths or parameters and one base or an
    (n, 4) stack of them, the pair holds (n, 4) stacks and the coordinates
    (n,) arrays; an error names the first failing row.
    """
    raise_first(~((0.0 <= np.asarray(t)) & (np.asarray(t) <= 1.0)), ValueError, "t must lie in [0, 1]")
    raise_first(degenerate_at(path, t), DegenerateParameter, "vanishing block coefficient at t={!r}", t)
    tracked = block_scale(base, 1.0, multiplier_at(path, t))
    pair = chiral_parts(tracked)
    rows = np.atleast_2d(tracked)
    coords, _, failures = decompose_batch(rows, rows)
    if failures:
        raise failures[min(failures)]
    if tracked.ndim == 1:
        return pair, PlaneCoords(r1=complex(coords[0, 0]), r2=complex(coords[0, 1]))
    return pair, PlaneCoords(r1=coords[:, 0], r2=coords[:, 1])


def spinor_homotopy(psi_coords: PlaneCoords, phi_coords: PlaneCoords) -> HomotopyPath:
    """Path between two spinors given as coordinates in one shared basis."""
    if psi_coords.basis != phi_coords.basis:
        raise BasisMismatch(f"{psi_coords.basis!r} vs {phi_coords.basis!r}")
    for c in (psi_coords, phi_coords):
        r1, r2 = np.abs(c.r1), np.abs(c.r2)
        zero = r1 <= _PARAM_TOL * np.fmax(1.0, np.fmax(r1, r2))
        raise_first(zero, DegenerateParameter, "coordinate-function form needs r1 != 0")
    f = CoordFunction(num=psi_coords.r2, den=psi_coords.r1)
    g = CoordFunction(num=phi_coords.r2, den=phi_coords.r1)
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w), basis=psi_coords.basis)


def class_transition(
    path: HomotopyPath,
    A: float,
    B: float,
    opt: ClassifyOptions = ClassifyOptions(),
    steps: int = 10,
    x: complex = 1.0 + 0j,
) -> tuple[float, LounestoClass, LounestoClass] | None:
    """First class change of the points (x, y(t)): a sweep of the grid
    t = i/steps, raising at the first point that cannot be classified, then
    80 bisection steps.  Returns (t_star, class_before, class_after), or
    None if the class is constant on the grid."""

    def klass(t: float) -> LounestoClass:
        c = eval_path(path, x, t)
        return classify_by_coefficients(c.r1, c.r2, A, B, opt)

    grid = [i / steps for i in range(steps + 1)]
    classes = [klass(t) for t in grid]
    bracket = None
    for i in range(1, len(grid)):
        if classes[i] != classes[i - 1]:
            bracket = (grid[i - 1], grid[i], classes[i - 1], classes[i])
            break
    if bracket is None:
        return None
    lo, hi, c_lo, c_hi = bracket
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if klass(mid) == c_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), c_lo, c_hi
