import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, homotopy, lounesto, plane
from spinorlab.errors import BasisMismatch, DegenerateParameter, InvalidBase, ZeroDecomposition
from spinorlab.generators import random_rim_bases
from spinorlab.homotopy import CoordFunction
from spinorlab.spinor import DEFAULT_TOL

from conftest import COORDINATE_KINDS, assert_class_at_crossing, coordinate_rows, random_spinor


def test_basis_homotopy_multiplier_segment():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(0.2 - 0.4j))
    for t in (0.0, 0.3, 0.5, 1.0):
        expected = (1 - t) * 1.0 + t * (0.2 - 0.4j)
        assert homotopy.multiplier_at(path, t) == expected


def test_constant_path_when_endpoints_match():
    f = CoordFunction(0.7 + 0.1j)
    path = homotopy.basis_homotopy(f, f)
    for t in (0.0, 0.25, 0.8):
        assert abs(homotopy.multiplier_at(path, t) - f.w) < 1e-15
    assert path.degenerate_t is None


def test_degenerate_parameter_antipodal():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(-1.0))
    assert path.degenerate_t == pytest.approx(0.5, abs=1e-15)


def test_degenerate_parameter_of_subnormal_multipliers():
    """The antipodal path keeps its t = 0.5 at any scale: a subnormal span
    would overflow w / span, so the root is taken of the rescaled pair.  A
    span far below w still overflows it, silently: there is no root."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = homotopy.basis_homotopy(CoordFunction(1e-310), CoordFunction(-1e-310))
        near = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(1.0 + 1e-310j))
    assert path.degenerate_t == 0.5
    assert near.degenerate_t is None


def test_degenerate_parameter_absent_for_complex_pairs():
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(1j))
    assert path.degenerate_t is None


def test_a_path_into_a_zero_multiplier_has_no_interior_degenerate_t():
    """A path into w = 0 (a type-6 end) vanishes at the end t = 1, not inside,
    though numpy's wf / wf rounds below 1 for some wf."""
    wf = np.random.default_rng(0).normal(size=(2000, 2)) @ np.array([1.0, 1j])
    assert np.count_nonzero((wf / wf).real < 1.0) > 100  # the rounding this guards against
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(np.zeros_like(wf)))
    assert np.isnan(path.degenerate_t).all()
    assert all(homotopy.basis_homotopy(CoordFunction(w), CoordFunction(0j)).degenerate_t is None for w in wf[:300])


def test_sample_basis_endpoints(rng):
    base = random_rim_bases(rng, 1)[0]
    wf, wg = 1.0, 0.3 + 0.9j
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(wg))
    pair0, coords0 = homotopy.sample_basis(path, base, 0.0)
    assert np.max(np.abs((pair0[0] + pair0[1]) - (base[:2].tolist() + (wf * base[2:]).tolist()))) < 1e-15
    assert abs(coords0.r2 / coords0.r1 - 1.0) < 1e-12
    pair1, _ = homotopy.sample_basis(path, base, 1.0)
    assert np.max(np.abs(pair1[1][2:] - wg * base[2:])) < 1e-15


def test_sample_basis_midpoint_ratio(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(0.1 - 0.7j))
    for t in (0.25, 0.5, 0.75):
        _, coords = homotopy.sample_basis(path, base, t)
        assert abs(coords.r2 / coords.r1 - 1.0) < 1e-10


def test_sample_basis_raises_at_degenerate_t(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(-1.0))
    with pytest.raises(DegenerateParameter):
        homotopy.sample_basis(path, base, 0.5)
    homotopy.sample_basis(path, base, 0.25)  # fine away from the zero


def test_sample_basis_rejects_bad_t(rng):
    base = random_rim_bases(rng, 1)[0]
    path = homotopy.basis_homotopy(CoordFunction(1.0), CoordFunction(2.0))
    with pytest.raises(ValueError):
        homotopy.sample_basis(path, base, 1.5)


def test_spinor_homotopy_endpoints_bitwise(rng):
    for _ in range(200):
        z = random_spinor(rng)
        psi_c = plane.PlaneCoords(z[0], z[1], "B")
        phi_c = plane.PlaneCoords(z[2], z[3], "B")
        path = homotopy.spinor_homotopy(psi_c, phi_c)
        e0 = homotopy.eval_path(path, psi_c.r1, 0.0)
        e1 = homotopy.eval_path(path, phi_c.r1, 1.0)
        assert abs(e0.r1 - psi_c.r1) == 0.0
        assert abs(e0.r2 - psi_c.r2) == 0.0
        assert abs(e1.r1 - phi_c.r1) == 0.0
        assert abs(e1.r2 - phi_c.r2) == 0.0


COMPLEX = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _bits(z) -> bytes:
    return np.asarray(z, dtype=complex).tobytes()


@given(num=COMPLEX, den=COMPLEX, x=COMPLEX, wf=COMPLEX, s=st.floats(1e-3, 1e3))
@settings(deadline=None, max_examples=200)
def test_paths_take_numpys_complex_arithmetic(num, den, x, wf, s):
    """Off its anchor a coordinate function is numpy's num * (x / den), its
    multiplier numpy's num / den, and an interior degenerate parameter the
    real part of numpy's wf / (wf - wg): one arithmetic for every module."""
    if x == den:
        x = -x  # off the anchor; x = den = 0 cannot be drawn
    f = CoordFunction(num, den)
    assert _bits(f(x)) == _bits(np.array([num]) * (np.array([x]) / np.array([den])))
    assert _bits(f.w) == _bits(np.array([num]) / np.array([den]))
    path = homotopy.basis_homotopy(CoordFunction(wf), CoordFunction(-s * wf))
    wf, wg = np.array([path.f.w]), np.array([path.g.w])
    assert path.degenerate_t is not None  # t = 1 / (1 + s), up to rounding
    assert np.float64(path.degenerate_t).tobytes() == (wf / (wf - wg)).real.tobytes()


def test_spinor_homotopy_symmetry_dyadic(rng):
    z = random_spinor(rng)
    fwd = homotopy.spinor_homotopy(plane.PlaneCoords(z[0], z[1]), plane.PlaneCoords(z[2], z[3]))
    bwd = homotopy.spinor_homotopy(plane.PlaneCoords(z[2], z[3]), plane.PlaneCoords(z[0], z[1]))
    for t in (0.25, 0.5, 0.75):
        a = homotopy.eval_path(fwd, z[0], t)
        b = homotopy.eval_path(bwd, z[0], 1.0 - t)
        assert abs(a.r2 - b.r2) < 1e-12


def test_spinor_homotopy_basis_mismatch():
    with pytest.raises(BasisMismatch):
        homotopy.spinor_homotopy(plane.PlaneCoords(1, 1, "B"), plane.PlaneCoords(1, 1, "D"))


def test_spinor_homotopy_rejects_vertical_endpoint():
    with pytest.raises(DegenerateParameter):
        homotopy.spinor_homotopy(plane.PlaneCoords(0.0, 1.0), plane.PlaneCoords(1.0, 1.0))


def test_class_transition_type1_to_type6(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    path = homotopy.spinor_homotopy(
        plane.PlaneCoords(1.0 + 0j, 0.8 + 0j), plane.PlaneCoords(1.0 + 0j, 0.0 + 0j)
    )
    # interior stays regular: the ratio conditions are invariant along this path
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        coords = homotopy.eval_path(path, 1.0 + 0j, t)
        assert (
            lounesto.classify_by_coefficients(coords.r1, coords.r2, A, B, DEFAULT_TOL)
            == lounesto.LounestoClass.TYPE1
        )
    (crossings,), _ = homotopy.class_transition(path, A, B, DEFAULT_TOL)
    # both surfaces meet w = 0 at the end, where only type 6 is kept
    assert np.isnan(crossings[:2]).all() and crossings[2] == 1.0


def test_class_transition_none_for_constant_class(rng):
    base = random_rim_bases(rng, 1)[0]
    cov = bilinear.compute(base)
    A, B = float(np.real(cov.A)), float(np.real(cov.B))
    path = homotopy.spinor_homotopy(
        plane.PlaneCoords(1.0 + 0j, 0.5 + 0j), plane.PlaneCoords(1.0 + 0j, 2.0 + 0j)
    )
    crossings, grid = homotopy.class_transition(path, A, B, DEFAULT_TOL)
    assert crossings.shape == (1, 3) and np.isnan(crossings).all()
    assert grid.shape == (11, 1) and np.all(grid == lounesto.LounestoClass.TYPE1)


def _example(scale=1.0):
    """The path (1, 2+i) -> (1, 1+3i), its multipliers scaled by ``scale``."""
    return homotopy.basis_homotopy(CoordFunction((2 + 1j) * scale), CoordFunction((1 + 3j) * scale))


def test_a_type2_crossing_between_grid_points_is_found():
    """With A = B = 1, y(t) = (2+i)(1-t) + (1+3i)t meets the type-2 surface
    at t = 1/3 only, a sliver of t about tol wide that the grid t = i/10
    steps over: every grid class is type 1."""
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 2 + 1j), plane.PlaneCoords(1.0 + 0j, 1 + 3j))
    (crossings,), grid = homotopy.class_transition(path, 1.0, 1.0, DEFAULT_TOL)
    assert crossings[0] == pytest.approx(1 / 3, rel=1e-15) and np.isnan(crossings[1:]).all()
    assert np.all(grid == lounesto.LounestoClass.TYPE1)
    point = homotopy.eval_path(path, 1.0 + 0j, crossings[0])
    assert lounesto.classify_by_coefficients(point.r1, point.r2, 1.0, 1.0) == lounesto.LounestoClass.TYPE2


@pytest.mark.parametrize(
    "scale, ab",
    [(2.0**1000, 1.0), (2.0**-1000, 1.0), (2.0**1022, 2.0), (2.0**-1060, 1.0)],
    ids=["2^1000", "2^-1000", "2^1022, A=B=2", "2^-1060, subnormal"],
)
def test_crossings_are_unchanged_by_a_power_of_two_scale(scale, ab):
    """A power-of-two scale of w is exact and the roots are homogeneous in
    w, so the crossings keep their bits.  At 2^1022 with A = B = 2, A Im w of
    the unscaled w overflows, and at 2^-1060 w is subnormal, its rescale
    factor beyond the float range: these pin the rescale to [1, 2)."""
    expected, _ = homotopy.class_transition(_example(), 1.0, 1.0, DEFAULT_TOL)
    with np.errstate(over="ignore"):  # the grid's points overflow at 2^1022; the crossings do not
        crossings, _ = homotopy.class_transition(_example(scale), ab, ab, DEFAULT_TOL)
    assert crossings.tobytes() == expected.tobytes()


def test_crossings_read_neither_tol_nor_x(rng):
    cov = bilinear.compute_batch(random_rim_bases(rng, 50))
    w = random_spinor(rng, 50)
    paths = homotopy.basis_homotopy(CoordFunction(w[:, 0]), CoordFunction(w[:, 1]))
    runs = [(1e-9, 1.0 + 0j), (1e-6, 1.0 + 0j), (1e-9, 0.3 - 2j), (1e-6, w[:, 2])]
    crossings = [homotopy.class_transition(paths, cov["A"].real, cov["B"].real, tol, x=x)[0] for tol, x in runs]
    assert (~np.isnan(crossings[0])).sum() > 10
    assert all(c.tobytes() == crossings[0].tobytes() for c in crossings)


def test_every_crossing_is_a_sign_change_on_a_dense_grid():
    """Completeness by a second route.  On 200 random spinor paths (x != 1)
    the type-2 and type-3 surface functions A Im z + B Re z and
    A Re z - B Im z, formed by the classifier's own arithmetic
    (``lounesto._conj_product``) from ``eval_path`` points at 10^4 + 1
    values of t, change sign between neighbouring t exactly where a reported
    crossing of that surface lies between them."""
    gen = np.random.default_rng(11)
    n = 200
    cov = bilinear.compute_batch(random_rim_bases(gen, n))
    A, B = cov["A"].real, cov["B"].real
    r = random_spinor(gen, n).T
    ends = [plane.PlaneCoords(r[0], r[1]), plane.PlaneCoords(r[2], r[3])]
    crossings, _ = homotopy.class_transition(homotopy.spinor_homotopy(*ends), A, B, DEFAULT_TOL, x=r[0])
    ts = np.linspace(0.0, 1.0, 10_001)
    for i in range(n):
        path = homotopy.spinor_homotopy(plane.PlaneCoords(r[0, i], r[1, i]), plane.PlaneCoords(r[2, i], r[3, i]))
        points = homotopy.eval_path(path, r[0, i], ts)
        zr, zi = lounesto._conj_product(points.r1, points.r2, 1.0)
        for k, f in enumerate([A[i] * zi + B[i] * zr, A[i] * zr - B[i] * zi]):
            flips = np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1]))
            t = crossings[i, k]
            assert flips.tolist() == ([] if np.isnan(t) else [np.searchsorted(ts, t) - 1]), (i, k)
    assert np.isnan(crossings[:, 2]).all()  # no random path passes through w = 0
    assert (~np.isnan(crossings[:, :2])).sum() > 100


def _path_ends(gen, A, B):
    """(r1, r2) of a path's from- and to-end: two kinds of ``coordinate_rows``
    other than both-zero, so that paths run from or into the type-2/3
    surfaces and the zero band, or stay in one class, with |r| from 1e-6
    to 1e3."""
    r1, r2, _ = coordinate_rows(gen, A, B, len(COORDINATE_KINDS))
    pick = gen.choice(COORDINATE_KINDS.index("all_zero"), 2)
    scale = 10.0 ** gen.uniform(-3.0, 0.0, 2)
    return r1[pick] * scale, r2[pick] * scale


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.sampled_from([1, 2, 7, 10, 37]))
@settings(deadline=None, max_examples=40)
def test_class_transition_over_paths_is_each_path_alone(seed, n, steps):
    gen = np.random.default_rng(seed)
    cov = bilinear.compute_batch(random_rim_bases(gen, n))
    A, B = cov["A"].real, cov["B"].real
    r1, r2 = np.moveaxis(np.array([_path_ends(gen, A[i], B[i]) for i in range(n)]), 1, 0)  # (n, 2 ends) each
    paths = homotopy.spinor_homotopy(plane.PlaneCoords(r1[:, 0], r2[:, 0]), plane.PlaneCoords(r1[:, 1], r2[:, 1]))
    together = homotopy.class_transition(paths, A, B, DEFAULT_TOL, steps, x=r1[:, 0])
    for i in range(n):
        path = homotopy.spinor_homotopy(plane.PlaneCoords(r1[i, 0], r2[i, 0]), plane.PlaneCoords(r1[i, 1], r2[i, 1]))
        alone = homotopy.class_transition(path, A[i], B[i], DEFAULT_TOL, steps, x=r1[i, 0])
        assert together[0][i].tobytes() == alone[0][0].tobytes(), f"path {i}, crossings"
        assert together[1][:, i].tobytes() == alone[1][:, 0].tobytes(), f"path {i}, grid"
        points = [homotopy.eval_path(path, r1[i, 0], j / steps) for j in range(steps + 1)]
        scalar = [lounesto.classify_by_coefficients(c.r1, c.r2, A[i], B[i], DEFAULT_TOL) for c in points]
        assert alone[1][:, 0].tolist() == scalar
        for t, surface in zip(alone[0][0], homotopy.SURFACES):
            if not np.isnan(t):
                assert_class_at_crossing(path, r1[i, 0], A[i], B[i], t, surface)


def test_class_transition_raises_the_scalar_error_without_a_row():
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1.0 + 0j, 0.5 + 0j), plane.PlaneCoords(1.0 + 0j, 2.0 + 0j))
    with pytest.raises(InvalidBase) as scalar:
        lounesto.classify_by_coefficients(1.0, 0.5, 1.0, 0.0, DEFAULT_TOL)
    with pytest.raises(InvalidBase) as swept:
        homotopy.class_transition(path, np.array([1.0, 1.0]), np.array([1.0, 0.0]), DEFAULT_TOL)
    assert str(swept.value) == str(scalar.value)
    # paths are taken one after another: path 0 fails only at t = 1 (r1 below
    # the zero test, r2 = 0), still before path 1, whose base fails everywhere
    path = homotopy.spinor_homotopy(plane.PlaneCoords(1e-10 + 0j, 0.5 + 0j), plane.PlaneCoords(1e-10 + 0j, 0j))
    with pytest.raises(ZeroDecomposition, match="^r1 = r2 = 0 is not a decomposition$"):
        homotopy.class_transition(path, np.array([1.0, 1.0]), np.array([1.0, 0.0]), DEFAULT_TOL, x=1e-10 + 0j)
