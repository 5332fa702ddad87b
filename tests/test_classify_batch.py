"""classify_batch against the scalar classify, and
classify_by_coefficients_batch against the scalar coefficient rules, row by
row.

Each pair computes its tests once with array masks and once on Python
numbers and reports errors as codes, so every row must give the same class
and near flag, or the same exception type and message."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, lounesto
from spinorlab.errors import AmbiguousScale, InconsistentBilinears, InvalidBase, NullCurrent, ZeroDecomposition
from spinorlab.generators import random_rim_bases
from spinorlab.lounesto import LounestoClass
from spinorlab.spinor import DEFAULT_TOL, DualKind

from conftest import coordinate_rows


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
spinor_parts = st.tuples(*[unit] * 8)
decades = st.floats(min_value=-6.0, max_value=6.0)
phases = st.floats(min_value=0.0, max_value=2 * np.pi)


def _spinor(parts):
    re, im = np.array(parts[:4]), np.array(parts[4:])
    return re + 1j * im


def _row(cov, i):
    return bilinear.Bilinears(
        A=complex(cov["A"][i]),
        B=complex(cov["B"][i]),
        J=cov["J"][i],
        K=cov["K"][i],
        S=cov["S"][i],
        dual=DualKind.DIRAC,
        scale=float(cov["scale"][i]),
    )


def _near_oracle(b, tol=DEFAULT_TOL, band=10.0):
    thr = tol * max(1.0, b.scale)
    values = (abs(b.A), abs(b.B), np.max(np.abs(b.K)), np.max(np.abs(b.S)))
    return any(thr < v <= band * thr for v in values)


def assert_batch_matches_scalar(cov, tol=DEFAULT_TOL):
    classes, errors, near = lounesto.classify_batch(cov, tol)
    n = cov["A"].shape[0]
    assert classes.shape == errors.shape == near.shape == (n,)
    for i in range(n):
        b = _row(cov, i)
        try:
            cls = lounesto.classify(b, tol)
        except (AmbiguousScale, NullCurrent, InconsistentBilinears) as exc:
            assert errors[i] != 0, f"row {i}: scalar raised {exc!r}"
            assert lounesto.ROW_ERRORS[errors[i] - 1] == (type(exc), str(exc))
            assert classes[i] == 0 and not near[i]
        else:
            assert errors[i] == 0, f"row {i}: batch error {errors[i]}, scalar {cls!r}"
            assert classes[i] == cls
            assert near[i] == _near_oracle(b, tol)
    return classes, errors, near


@given(parts=st.lists(spinor_parts, min_size=1, max_size=12), decade=decades, phi=phases)
@settings(deadline=None, max_examples=150)
def test_random_spinors_under_phase_and_scale(parts, decade, phi):
    psis = np.stack([_spinor(p) for p in parts])
    c = 10.0**decade * np.exp(1j * phi)
    assert_batch_matches_scalar(bilinear.compute_batch(np.concatenate([psis, c * psis])))


def _boundary(p, t, imaginary):
    """A1 = t real (B = 0, type 2) or A1 = i t (A = 0, type 3), solved for psi4."""
    p = p.copy()
    if abs(p[1]) < 0.3:
        p[1] = 0.3 * np.exp(1j * np.angle(p[1]))
    target = 1j * t if imaginary else t + 0j
    p[3] = np.conj((target - np.conj(p[2]) * p[0]) / p[1])
    return p


def _elko(p):
    chi = p[2:]
    if np.max(np.abs(chi)) < 0.1:
        chi = chi + 0.5
    top = np.exp(1j * np.angle(p[0] + 0.1)) * np.array([np.conj(chi[1]), -np.conj(chi[0])])
    return np.concatenate([top, chi])


def _weyl(p, upper):
    out = np.zeros(4, dtype=complex)
    block = p[:2] if np.max(np.abs(p[:2])) >= 0.1 else p[:2] + 0.5
    out[(0 if upper else 2) : (2 if upper else 4)] = block
    return out


@given(
    parts=spinor_parts,
    t=st.floats(min_value=0.5, max_value=1.5),
    sign=st.sampled_from([-1.0, 1.0]),
    decade=st.floats(min_value=-2.0, max_value=2.0),
    phi=phases,
)
@settings(deadline=None, max_examples=150)
def test_constructed_singular_and_boundary_rows(parts, t, sign, decade, phi):
    p = _spinor(parts)
    rows = {
        LounestoClass.TYPE2: _boundary(p, sign * t, imaginary=False),
        LounestoClass.TYPE3: _boundary(p, sign * t, imaginary=True),
        LounestoClass.TYPE5: _elko(p),
        LounestoClass.TYPE6: _weyl(p, upper=True),
    }
    psis = np.stack(list(rows.values()) + [_weyl(p, upper=False)])
    c = 10.0**decade * np.exp(1j * phi)
    classes, errors, _ = assert_batch_matches_scalar(bilinear.compute_batch(c * psis))
    assert not errors.any()
    assert classes.tolist() == [int(k) for k in rows] + [6]


def _cov(A, B, J, K, S, scale):
    """Hand-built Dirac-dual covariant dict, one row per list entry."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return {
        "A": A,
        "B": B,
        "J": np.asarray(J, dtype=complex),
        "K": np.asarray(K, dtype=complex),
        "S": np.asarray(S, dtype=complex),
        "scale": np.asarray(scale, dtype=float),
    }


def _s(value):
    S = np.zeros((4, 4))
    S[0, 1], S[1, 0] = value, -value
    return S


def _table_rows():
    """One row per decision-table index: bit set means that input is zero."""
    rows = []
    for index in range(16):
        a0, b0, k0, s0 = (bool(index >> bit & 1) for bit in (3, 2, 1, 0))
        K = [0 if k0 else 1, 0, 0, 0]
        rows.append((0.0 if a0 else 1.0, 0.0 if b0 else 1.0, [1, 0, 0, 0], K, _s(0 if s0 else 1), 1.0))
    return rows


def test_every_table_entry_and_error():
    rows = _table_rows()
    rows.append((1.0, 5e-9, [1, 0, 0, 0], [1, 0, 0, 0], _s(1), 1e-12))  # AmbiguousScale, B in the band
    rows.append((0.0, 0.0, [0, 0, 0, 0], [0, 0, 0, 0], _s(0), 0.0))  # AmbiguousScale over NullCurrent
    rows.append((1.0, 1.0, [0, 0, 0, 0], [1, 0, 0, 0], _s(1), 1.0))  # NullCurrent
    rows.append((1.0, 1.0, [0, 0, 0, 0], [0, 0, 0, 0], _s(0), 1.0))  # NullCurrent over the table
    cov = _cov(*(list(col) for col in zip(*rows)))
    classes, errors, _ = assert_batch_matches_scalar(cov)

    assert classes[:16].tolist() == [
        e if isinstance(e, LounestoClass) else 0 for e in lounesto.DECISION
    ]
    assert [int(c) for c in classes[[0, 4, 8, 12, 14, 13]]] == [1, 2, 3, 4, 5, 6]
    names = [lounesto.ROW_ERRORS[e - 1] if e else None for e in errors.tolist()]
    assert names[16:] == [
        (AmbiguousScale, "spinor norm below threshold"),
        (AmbiguousScale, "spinor norm below threshold"),
        (NullCurrent, "all current components below threshold"),
        (NullCurrent, "all current components below threshold"),
    ]
    raised = {entry for entry in names if entry is not None}
    assert raised == set(lounesto.ROW_ERRORS)
    messages = {msg for exc, msg in raised if exc is InconsistentBilinears}
    assert messages == {"regular class requires K != 0 and S != 0", "A = B = 0 with K = S = 0 but J != 0"}


def _band_row(which, value, scale):
    mags = [max(1.0, scale)] * 4  # every other zero-test far from its threshold
    mags[which] = value
    A, B, k, s = mags
    return (A, B, [max(1.0, scale), 0, 0, 0], [k, 0, 0, 0], _s(s), scale)


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("which", range(4))
def test_near_degenerate_band_edges(which, scale):
    thr = DEFAULT_TOL * max(1.0, scale)
    cases = [
        (thr, False),  # on the threshold: not zero, not near
        (np.nextafter(thr, np.inf), True),  # just above the zero threshold
        (10.0 * thr, True),  # on the outer edge of the 10x band
        (np.nextafter(10.0 * thr, np.inf), False),  # just outside the band
        (100.0 * thr, False),
    ]
    rows = [_band_row(which, value, scale) for value, _ in cases]
    cov = _cov(*(list(col) for col in zip(*rows)))
    _, errors, near = assert_batch_matches_scalar(cov)
    assert near.tolist() == [flag for _, flag in cases]
    assert not errors.any()


def _base_scalars(gen, n):
    cov = bilinear.compute_batch(random_rim_bases(gen, n))
    return np.real(cov["A"]), np.real(cov["B"])


def assert_coefficient_batch_matches_scalar(r1, r2, A, B, tol=DEFAULT_TOL):
    classes, errors, near = lounesto.classify_by_coefficients_batch(r1, r2, A, B, tol)
    n = r1.shape[0]
    assert classes.shape == errors.shape == near.shape == (n,)
    A, B = np.broadcast_to(A, (n,)), np.broadcast_to(B, (n,))
    for i in range(n):
        try:
            cls = lounesto.classify_by_coefficients(r1[i], r2[i], A[i], B[i], tol)
        except (InvalidBase, ZeroDecomposition) as exc:
            assert errors[i] != 0, f"row {i}: scalar raised {exc!r}"
            assert lounesto.COEFFICIENT_ERRORS[errors[i] - 1] == (type(exc), str(exc))
            assert classes[i] == 0 and not near[i]
        else:
            assert errors[i] == 0, f"row {i}: batch error {errors[i]}, scalar {cls!r}"
            assert classes[i] == cls
            assert near[i] == lounesto.near_degenerate(r1[i], r2[i], A[i], B[i], tol)
    return classes, errors, near


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=7, max_value=35))
@settings(deadline=None, max_examples=100)
def test_coefficient_batch_matches_scalar(seed, n):
    gen = np.random.default_rng(seed)
    A, B = _base_scalars(gen, n)
    r1, r2, kinds = coordinate_rows(gen, A, B, n)
    classes, errors, near = assert_coefficient_batch_matches_scalar(r1, r2, A, B)
    assert set(classes[kinds == "type2"]) == {LounestoClass.TYPE2}
    assert set(classes[kinds == "type3"]) == {LounestoClass.TYPE3}
    assert set(classes[kinds == "one_zero"]) == {LounestoClass.TYPE6}
    assert near[kinds == "near_zero"].all()
    assert set(errors[kinds == "all_zero"]) == {1 + lounesto.COEFFICIENT_ERRORS.index(
        (ZeroDecomposition, "r1 = r2 = 0 is not a decomposition")
    )}
    # one base for every row, and per-row bases of which some are invalid
    assert_coefficient_batch_matches_scalar(r1, r2, float(A[0]), float(B[0]))
    A[::3], B[1::4] = 0.0, 1e-12
    _, errors, _ = assert_coefficient_batch_matches_scalar(r1, r2, A, B)
    assert errors[::3].all() and errors[1::4].all()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decade=st.floats(min_value=0.0, max_value=150.0),
)
@settings(deadline=None, max_examples=100)
def test_coefficient_class_is_scale_invariant(seed, decade):
    """Classes are homogeneous in (r1, r2): c r gives the class of r for c
    up to 1e150, where the quartic products of c r overflow a double."""
    gen = np.random.default_rng(seed)
    A, B = _base_scalars(gen, 28)
    r1, r2, kinds = coordinate_rows(gen, A, B, 28)
    keep = np.isin(kinds, ["generic", "type2", "type3", "one_zero"])
    r1, r2, A, B = r1[keep], r2[keep], A[keep], B[keep]
    c = 10.0**decade
    want, errors, _ = lounesto.classify_by_coefficients_batch(r1, r2, A, B, DEFAULT_TOL)
    assert not errors.any()
    with np.errstate(over="raise", invalid="raise"):
        got, _, _ = assert_coefficient_batch_matches_scalar(c * r1, c * r2, A, B)
    assert got.tolist() == want.tolist()
