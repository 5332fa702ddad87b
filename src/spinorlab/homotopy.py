"""Straight-line homotopies between coordinate functions and between spinors.

Every coordinate function here is linear, y(x) = w*x, stored as num/den so
that y(den) returns num bitwise (endpoint exactness).  A basis homotopy
deforms the plane's basis while one tracked spinor keeps coordinates (x, x);
a spinor homotopy deforms the second coordinate in a fixed basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DegenerateParameter
from .lounesto import ClassifyOptions, LounestoClass, classify_by_coefficients
from .plane import PlaneCoords, block_scale, decompose
from .spinor import DEFAULT_TOL, chiral_parts

_PARAM_TOL = 1e-12  # relative size below which Im(t) or an endpoint's r1 is zero


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
        return self.num / self.den

    def __call__(self, x: complex) -> complex:
        if x == self.den:
            return self.num
        return self.num * (x / self.den)


@dataclass(frozen=True)
class HomotopyPath:
    f: CoordFunction
    g: CoordFunction
    degenerate_t: float | None
    basis: str = "B"


def _degenerate_t(wf: complex, wg: complex) -> float | None:
    """Interior parameter where (1-t)wf + t*wg = 0, if one exists on (0,1)."""
    if wf == wg:
        return None
    t = wf / (wf - wg)
    if abs(t.imag) <= _PARAM_TOL * max(1.0, abs(t.real)) and 0.0 < t.real < 1.0:
        return float(t.real)
    return None


def basis_homotopy(f: CoordFunction, g: CoordFunction) -> HomotopyPath:
    return HomotopyPath(f=f, g=g, degenerate_t=_degenerate_t(f.w, g.w))


def multiplier_at(path: HomotopyPath, t: float) -> complex:
    return (1.0 - t) * path.f.w + t * path.g.w


def eval_path(path: HomotopyPath, x: complex, t: float) -> PlaneCoords:
    """Point (x, (1-t) f(x) + t g(x)); endpoints are bitwise the inputs."""
    y = (1.0 - t) * path.f(x) + t * path.g(x)
    return PlaneCoords(r1=complex(x), r2=complex(y), basis=path.basis)


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
    invertible there).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    wt = multiplier_at(path, t)
    wscale = max(1.0, abs(path.f.w), abs(path.g.w))
    if abs(wt) <= DEFAULT_TOL * wscale:
        raise DegenerateParameter(f"vanishing block coefficient at t={t!r}")
    tracked = block_scale(base, 1.0, wt)
    pair = chiral_parts(tracked)
    coords = decompose(tracked, tracked)
    return pair, coords


def spinor_homotopy(psi_coords: PlaneCoords, phi_coords: PlaneCoords) -> HomotopyPath:
    """Path between two spinors given as coordinates in one shared basis."""
    if psi_coords.basis != phi_coords.basis:
        raise BasisMismatch(f"{psi_coords.basis!r} vs {phi_coords.basis!r}")
    for c in (psi_coords, phi_coords):
        if abs(c.r1) <= _PARAM_TOL * max(1.0, abs(c.r1), abs(c.r2)):
            raise DegenerateParameter("coordinate-function form needs r1 != 0")
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
