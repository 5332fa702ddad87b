import numpy as np
import pytest
from hypothesis import strategies as st

from spinorlab import clifford, homotopy, lounesto
from spinorlab.spinor import DEFAULT_TOL

# mantissas in [1, 10) with all 52 fraction bits drawn, so that products and
# sums round; short ones (1.5, 9.999) would hide the order of an operation
MANTISSAS = st.integers(2**52, 10 * 2**52 - 1).map(lambda k: k / 2**52)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240917))


@pytest.fixture(scope="session")
def gamma():
    return clifford.build()


def random_spinor(rng, n=None):
    shape = (4,) if n is None else (n, 4)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


COORDINATE_KINDS = ("generic", "type2", "type3", "near_surface", "one_zero", "near_zero", "all_zero")


def coordinate_rows(rng, A, B, n):
    """n plane coordinates (r1, r2), |r| in [1e-3, 1e3], cycling through
    COORDINATE_KINDS for a base with scalars A, B (floats or (n,) arrays):
    generic pairs, pairs on the type-2 and type-3 surfaces, a few
    tolerances off the type-2 surface, one zero coordinate, one coordinate
    in the near-zero band, and both zero.  Returns r1, r2 and the kinds."""
    A, B = np.broadcast_to(A, (n,)), np.broadcast_to(B, (n,))
    kinds = np.array([COORDINATE_KINDS[i % len(COORDINATE_KINDS)] for i in range(n)])
    r1 = 10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    r2 = 10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    # z = r1 conj(r2) on a surface: A Im z = -B Re z (type 2), A Re z = B Im z (type 3)
    t = sign * np.abs(r2) * np.abs(r1) / np.hypot(A, B)
    z2 = t * (-A + 1j * B)
    z3 = t * (B + 1j * A)
    offset = np.exp(1j * rng.uniform(2e-9, 8e-9, n))
    r2 = np.select(
        [kinds == "type2", kinds == "type3", kinds == "near_surface"],
        [np.conj(z2 / r1), np.conj(z3 / r1), np.conj(z2 * offset / r1)],
        r2,
    )
    band = 5e-9 * np.maximum(1.0, np.abs(r1)) * np.exp(2j * np.pi * rng.uniform(size=n))
    r2 = np.where(kinds == "near_zero", band, r2)
    r2 = np.where(kinds == "one_zero", 0.0, r2)
    r1 = np.where(kinds == "all_zero", 0.0, r1)
    r2 = np.where(kinds == "all_zero", 0.0, r2)
    return r1, r2, kinds


def assert_class_at_crossing(path, x, A, B, t, surface, tol=DEFAULT_TOL):
    """The coefficient rules give ``surface``'s class at the point of one
    path at its crossing t, or type 6 where that point is in the zero band,
    which the rules test first.  Where w(t) is below 1e-3 of the path's
    larger end, one ulp of t moves the point by more than tol relative to
    it, so no float t lands within tol of the surface: such a point is not
    tested."""
    point = homotopy.eval_path(path, x, t)
    got = lounesto.classify_by_coefficients(point.r1, point.r2, A, B, tol)
    a1, a2 = abs(point.r1), abs(point.r2)
    if min(a1, a2) <= tol * max(1.0, a1, a2):
        assert got == lounesto.LounestoClass.TYPE6, (t, surface)
    elif a2 >= 1e-3 * max(abs(path.f(x)), abs(path.g(x))):
        assert got == surface, (t, surface)
