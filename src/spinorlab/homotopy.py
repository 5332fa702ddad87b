"""Straight-line homotopies between coordinate functions and between spinors.

Every coordinate function here is linear, y(x) = w*x, stored as num/den so
that y(den) returns num bitwise (endpoint exactness).  A basis homotopy
deforms the plane's basis while one tracked spinor keeps coordinates (x, x);
a spinor homotopy deforms the second coordinate in a fixed basis.

Paths, points and parameters are scalars, or (n,) arrays for n paths at
once.  Everything is computed over rows: a scalar call is lifted to one row
and unwrapped by ``errors.one_row``, so a path in an array has the bits of
the same path given alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateParameter, one_row, raise_first
from .lounesto import COEFFICIENT_ERRORS, LounestoClass, classify_by_coefficients_batch

# ``decompose`` stays importable from here: bench/test_bench.py checks that
# the benchmark's tracer patches this binding
from .plane import PlaneCoords, block_scale, decompose, decompose_batch  # noqa: F401
from .spinor import DEFAULT_TOL, chiral_parts

_PARAM_TOL = 1e-12  # relative size below which Im(t) or an endpoint's r1 is zero
SURFACES = (LounestoClass.TYPE2, LounestoClass.TYPE3, LounestoClass.TYPE6)  # class_transition's crossing columns


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
        return one_row(np.atleast_1d(self.num) / self.den, self.one)

    def __call__(self, x: complex) -> complex:
        xs = np.atleast_1d(x)
        y = np.where(xs == self.den, self.num, self.num * (xs / self.den))
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


def _root(v0, v1):
    """The t in (0, 1] where (1-t) v0 + t v1 = 0, elementwise, or NaN where
    there is none: a zero span, a complex root or a root outside (0, 1]."""
    span = v0 - v1
    # a reflexive path has v0 = v1, and a span far below v0 overflows t (no root there)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = v0 / span
    # v0 / v0 can round below 1 (numpy divides by a reciprocal): a span equal to v0 ends at t = 1
    real, imag = np.where(span == v0, 1.0, np.real(t)), np.imag(t)
    inside = (span != 0) & (np.abs(imag) <= _PARAM_TOL * np.fmax(1.0, np.abs(real)))
    return np.where(inside & (0.0 < real) & (real <= 1.0), real, np.nan)


def _unit_scaled(wf, wg):
    """wf and wg times one power of two per path that brings the largest part
    of either into [1, 2), as the coefficient rules rescale (r1, r2): every
    root of a line through them keeps its t, and products of them stay finite and normal."""
    wf, wg = np.broadcast_arrays(*np.atleast_1d(wf, wg))
    k = 1 - np.frexp(np.max(np.abs([wf.real, wf.imag, wg.real, wg.imag]), axis=0))[1]
    return [np.ldexp(w.real, k) + 1j * np.ldexp(w.imag, k) for w in (wf, wg)]


def _degenerate_t(wf, wg):
    """Interior parameter where (1-t)wf + t*wg = 0, if one exists on (0,1):
    None, or NaN in the (n,) array of n paths."""
    t = _root(*_unit_scaled(wf, wg))
    one = np.ndim(wf) == np.ndim(wg) == 0
    return one_row(np.where(t < 1.0, t, np.nan), one, lambda t: None if np.isnan(t) else t.item())


def basis_homotopy(f: CoordFunction, g: CoordFunction) -> HomotopyPath:
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w))


def multiplier_at(path: HomotopyPath, t: float) -> complex:
    return one_row(_between(path.f.w, path.g.w, np.atleast_1d(t)), path.one and np.ndim(t) == 0)


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
    zero = False  # per row, either endpoint, so that the first failing row is named
    for c in (psi_coords, phi_coords):
        r1, r2 = np.abs(c.r1), np.abs(c.r2)
        zero = zero | (r1 <= _PARAM_TOL * np.fmax(1.0, np.fmax(r1, r2)))
    raise_first(zero, DegenerateParameter, "coordinate-function form needs r1 != 0")
    f = CoordFunction(num=psi_coords.r2, den=psi_coords.r1)
    g = CoordFunction(num=phi_coords.r2, den=phi_coords.r1)
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w), basis=psi_coords.basis)


def _classify(x, y, A, B, tol: float) -> np.ndarray:
    """Class codes of the points (x, y), broadcast, from one batch call; raises what
    ``classify_by_coefficients`` would at the first failing point, path by path."""
    points = np.broadcast_arrays(x, y, A, B)
    classes, errors, _ = classify_by_coefficients_batch(*(a.ravel() for a in points), tol)
    errors = errors.reshape(points[0].shape).T
    if errors.any():
        exc, message = COEFFICIENT_ERRORS[errors[errors != 0][0] - 1]
        raise exc(message)
    return classes.reshape(points[0].shape)


def class_transition(path: HomotopyPath, A, B, tol: float = DEFAULT_TOL, steps: int = 10, x=1.0 + 0j):
    """(crossings, grid) of the points (x, y(t)) along one path, or n paths
    where the path, A, B or x hold (n,) arrays: the (n, 3) t in (0, 1] where
    a path meets each of the ``SURFACES`` (NaN where it does not), and the
    (steps + 1, n) classes at t = i/steps from one batch call, the only part
    that reads x and tol.  As z = x conj(y) = |x|^2 conj(w), (B + iA) w is
    (A Im z + B Re z + i (A Re z - B Im z)) / |x|^2, affine in t: type 2 and 3
    are the roots of its real and imaginary parts, and where w vanishes, so
    do both, and only type 6 is kept.  A path alone has its bits among n."""
    fx, gx, wf, wg, A, B = np.broadcast_arrays(*np.atleast_1d(path.f(x), path.g(x), path.f.w, path.g.w, A, B))
    wf, wg = _unit_scaled(wf, wg)  # so that (B + iA) w stays finite and normal
    uf, ug = (B + 1j * A) * wf, (B + 1j * A) * wg
    crossings = np.stack([_root(uf.real, ug.real), _root(uf.imag, ug.imag), _root(wf, wg)], axis=1)
    crossings[~np.isnan(crossings[:, 2]), :2] = np.nan  # both lines pass through w = 0
    return crossings, _classify(x, _between(fx, gx, np.arange(steps + 1)[:, None] / steps), A, B, tol)
