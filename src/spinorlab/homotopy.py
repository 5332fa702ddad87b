"""Straight-line homotopies between coordinate functions and between spinors.

Every coordinate function here is linear, y(x) = w*x, stored as num/den so
that y(den) returns num bitwise (endpoint exactness).  A basis homotopy
deforms the plane's basis while one tracked spinor keeps coordinates (x, x);
a spinor homotopy deforms the second coordinate in a fixed basis.

Paths, points and parameters are scalars, or (n,) arrays for n paths at
once.  Everything is computed over rows: a scalar call is lifted to one row
and unwrapped by ``errors.one_row``.  ``_times`` and ``_over`` round as
Python's complex type does (products not fused, quotients dividing by the
denominator), so a path in an array has the bits of the same path given
alone, and of Python's complex arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateParameter, one_row, raise_first
from .lounesto import COEFFICIENT_ERRORS, ClassifyOptions, classify_by_coefficients_batch

# ``decompose`` stays importable from here: bench/test_bench.py checks that
# the benchmark's tracer patches this binding
from .plane import PlaneCoords, block_scale, decompose, decompose_batch  # noqa: F401
from .spinor import DEFAULT_TOL, chiral_parts

_PARAM_TOL = 1e-12  # relative size below which Im(t) or an endpoint's r1 is zero


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return np.stack(np.broadcast_arrays(re, im), axis=-1).view(complex)[..., 0]


def _times(a, b):
    """a * b as Python's complex type rounds it: numpy's array loop fuses
    the multiply-add, so the parts are formed one by one."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return _complex(ar * br - ai * bi, ar * bi + ai * br)


def _over(a, b):
    """a / b as Python's complex type rounds it (Smith's method, dividing by
    the denominator where numpy multiplies by its reciprocal); NaN where
    b = 0, which Python refuses."""
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
    def one(self) -> bool:
        return np.ndim(self.num) == np.ndim(self.den) == 0

    @property
    def w(self) -> complex:
        return one_row(_over(np.atleast_1d(self.num), self.den), self.one)

    def __call__(self, x: complex) -> complex:
        xs = np.atleast_1d(x)
        y = np.where(xs == self.den, self.num, _times(self.num, _over(xs, self.den)))
        return one_row(y, self.one and np.ndim(x) == 0)


@dataclass(frozen=True)
class HomotopyPath:
    f: CoordFunction
    g: CoordFunction
    degenerate_t: float | None  # NaN marks a path without one in an array
    basis: str = "B"

    @property
    def one(self) -> bool:
        return self.f.one and self.g.one


def _degenerate_t(wf, wg):
    """Interior parameter where (1-t)wf + t*wg = 0, if one exists on (0,1):
    None, or NaN in the (n,) array of n paths."""
    one = np.ndim(wf) == np.ndim(wg) == 0
    wf, wg = np.atleast_1d(wf, wg)
    t = _over(wf, wf - wg)
    real, imag = np.real(t), np.imag(t)
    inside = (wf != wg) & (np.abs(imag) <= _PARAM_TOL * np.fmax(1.0, np.abs(real))) & (0.0 < real) & (real < 1.0)
    return one_row(np.where(inside, real, np.nan), one, lambda t: None if np.isnan(t) else t.item())


def basis_homotopy(f: CoordFunction, g: CoordFunction) -> HomotopyPath:
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w))


def multiplier_at(path: HomotopyPath, t: float) -> complex:
    return one_row((1.0 - np.atleast_1d(t)) * path.f.w + t * path.g.w, path.one and np.ndim(t) == 0)


def _between(fx, gx, t):
    return (1.0 - t) * fx + t * gx


def eval_path(path: HomotopyPath, x: complex, t: float) -> PlaneCoords:
    """Point (x, (1-t) f(x) + t g(x)); endpoints are bitwise the inputs."""
    xs = np.atleast_1d(np.asarray(x, dtype=complex))
    coords = np.broadcast_arrays(xs, _between(path.f(xs), path.g(xs), t))
    return PlaneCoords(*one_row(coords, path.one and np.ndim(x) == np.ndim(t) == 0), basis=path.basis)


def degenerate_at(path: HomotopyPath, t: float):
    """Whether the interpolated multiplier vanishes at t, where the induced
    basis is not invertible; elementwise on (n,) paths or parameters."""
    wscale = np.fmax(1.0, np.fmax(np.abs(path.f.w), np.abs(path.g.w)))
    vanishing = np.abs(multiplier_at(path, np.atleast_1d(t))) <= DEFAULT_TOL * wscale
    return one_row(vanishing, path.one and np.ndim(t) == 0)


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
    one = tracked.ndim == 1
    tracked = np.atleast_2d(tracked)
    coords, _, failures = decompose_batch(tracked, tracked)
    if failures:
        raise failures[min(failures)]
    pair, r = one_row((chiral_parts(tracked), (coords[:, 0], coords[:, 1])), one)
    return pair, PlaneCoords(*r)


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


def _classify(x, y, A, B, opt: ClassifyOptions) -> np.ndarray:
    """Class codes of the points (x, y), broadcast, from one batch call; raises what
    ``classify_by_coefficients`` would at the first failing point, path by path."""
    points = np.broadcast_arrays(x, y, A, B)
    classes, errors, _ = classify_by_coefficients_batch(*(a.ravel() for a in points), opt)
    errors = errors.reshape(points[0].shape).T
    if errors.any():
        exc, message = COEFFICIENT_ERRORS[errors[errors != 0][0] - 1]
        raise exc(message)
    return classes.reshape(points[0].shape)


def class_transition(path: HomotopyPath, A, B, opt: ClassifyOptions = ClassifyOptions(), steps: int = 10, x=1.0 + 0j):
    """First class change of the points (x, y(t)) along one path, or n paths
    where the path, A, B or x hold (n,) arrays.

    The grid t = i/steps is one batch call, then every path whose class
    changes on it bisects its first changing interval, all in lockstep: 80
    halvings of one batch call each, fewer once every bracket is two
    adjacent floats.  Returns (t_star, before, after, grid): per path the
    transition (NaN where the class is constant) and the classes either side
    of it, and the (steps + 1, n) grid classes.  A path alone has its bits
    among n."""
    fx, gx, x, A, B = np.broadcast_arrays(*np.atleast_1d(path.f(x), path.g(x), x, A, B))
    ts = np.arange(steps + 1) / steps
    grid = _classify(x, _between(fx, gx, ts[:, None]), A, B, opt)
    changed = grid[1:] != grid[:-1]
    moving, first = changed.any(axis=0), np.argmax(changed, axis=0)
    before, after = np.take_along_axis(grid, np.stack([first, first + 1]), axis=0)
    lo, hi = ts[first[moving]], ts[first[moving] + 1]
    fx, gx, x, A, B, c_lo = (a[moving] for a in (fx, gx, x, A, B, before))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break  # every bracket is two adjacent floats, which no halving moves
        below = _classify(x, _between(fx, gx, mid), A, B, opt) == c_lo
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t_star = np.full(grid.shape[1], np.nan)
    t_star[moving] = 0.5 * (lo + hi)
    return t_star, before, after, grid
