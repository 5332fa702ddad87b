"""Array forms against their one-row views, bit for bit.

Each array function of ``bilinear``, ``clifford``, ``rim``, ``mdo``,
``homotopy`` and ``plane`` is checked against the same function called on
each row alone, over magnitudes from 1e-150 to 1e150 and random phases.  An
array call that raises must raise the first failing row's error, with the
row named.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, clifford, homotopy, mdo, plane, rim
from spinorlab.errors import SpinorlabError
from spinorlab.generators import random_rim_bases, random_valid_params

# overflow and underflow at the ends of the range are expected
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

EXAMPLES = 40
seeds = st.integers(min_value=0, max_value=2**32 - 1)
rows = st.integers(min_value=1, max_value=9)
# a range of decades inside [-150, 150] for the magnitudes of one example
decades = st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)).map(lambda d: (min(d) + 0.0, max(d) + 0.0))


def _magnitudes(gen, n, span):
    return 10.0 ** gen.uniform(span[0], span[1], n)


def _spinors(gen, n, span):
    """Random directions with random phases, scaled into ``span``."""
    unit = gen.standard_normal((n, 4)) + 1j * gen.standard_normal((n, 4))
    return unit * (_magnitudes(gen, n, span) * np.exp(2j * np.pi * gen.uniform(size=n)))[:, None]


def _leaves(value):
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in _leaves(getattr(value, f.name))]
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key])]
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _same_bits(row, want) -> bool:
    if want is None:  # a scalar path's "none" is NaN in an array of paths
        return np.isnan(row)
    if not isinstance(row, np.ndarray) and not isinstance(row, np.generic):
        return row == want
    dtype = np.result_type(np.asarray(row), np.asarray(want))  # a scalar view may return a complex of a real
    return np.asarray(row, dtype=dtype).tobytes() == np.asarray(want, dtype=dtype).tobytes()


def assert_rows_match(array_call, row_call, n, errors=(SpinorlabError, ValueError)):
    """``array_call()`` against ``row_call(i)`` for every row i; where a row
    raises, the array call raises that error for the first such row."""
    wants = []
    for i in range(n):
        try:
            wants.append(row_call(i))
        except errors as exc:
            with pytest.raises(type(exc)) as info:
                array_call()
            assert str(info.value) == f"row {i}: {exc}"
            return
    got = _leaves(array_call())
    for i, want in enumerate(wants):
        want = _leaves(want)
        assert len(got) == len(want)
        for k, (leaf, expected) in enumerate(zip(got, want)):
            row = leaf[i] if isinstance(leaf, np.ndarray) and leaf.ndim else leaf
            assert _same_bits(row, expected), f"row {i}, leaf {k}: {row!r} != {expected!r}"


# ---------------------------------------------------------------------------
# covariants and the slash


@given(seed=seeds, n=rows, span=decades)
@settings(deadline=None, max_examples=EXAMPLES)
def test_compute_batch_rows_are_compute(seed, n, span):
    psis = _spinors(np.random.default_rng(seed), n, span)
    keys = ("A", "B", "J", "K", "S", "A1", "A2", "scale")
    assert_rows_match(
        lambda: [bilinear.compute_batch(psis)[k] for k in keys],
        lambda i: [getattr(bilinear.compute(psis[i]), k) for k in keys],
        n,
    )


@given(seed=seeds, n=rows, span=decades)
@settings(deadline=None, max_examples=EXAMPLES)
def test_compute_fast_batch_rows_are_compute_fast(seed, n, span):
    gen = np.random.default_rng(seed)
    bases = _spinors(gen, n, span)
    r1, r2 = _spinors(gen, n, (0.0, 0.0))[:, :2].T
    keys = ("A", "B", "J", "K0", "S01", "S02", "S03", "S12", "S13", "S23", "scale")
    assert_rows_match(
        lambda: [bilinear.compute_fast_batch(bases, r1, r2)[k] for k in keys],
        lambda i: [getattr(bilinear.compute_fast(bases[i], r1[i], r2[i]), k) for k in keys],
        n,
    )


@given(seed=seeds, n=rows, span=decades)
@settings(deadline=None, max_examples=EXAMPLES)
def test_slash_and_minkowski_dot_rows(seed, n, span):
    gen = np.random.default_rng(seed)
    u, v = _spinors(gen, n, span), _spinors(gen, n, span)
    assert_rows_match(lambda: clifford.slash(u), lambda i: clifford.slash(u[i]), n)
    assert_rows_match(lambda: clifford.minkowski_dot(u, v), lambda i: clifford.minkowski_dot(u[i], v[i]), n)


# ---------------------------------------------------------------------------
# rim


@given(seed=seeds, n=rows, span=decades)
@settings(deadline=None, max_examples=EXAMPLES)
def test_rim_array_forms_rows(seed, n, span):
    gen = np.random.default_rng(seed)
    psis = random_rim_bases(gen, n) * _magnitudes(gen, n, span)[:, None]
    a, b = random_valid_params(gen, n)
    params = rim.validate(a, b)
    cov = bilinear.compute_batch(psis)

    def one(i):
        return bilinear.compute(psis[i]), rim.validate(a[i], b[i])

    assert_rows_match(lambda: rim.potentials(cov, params), lambda i: rim.potentials(*one(i)), n)
    assert_rows_match(
        lambda: rim.vartheta(params, rim.potentials(cov, params)),
        lambda i: rim.vartheta(one(i)[1], rim.potentials(*one(i))),
        n,
    )
    assert_rows_match(lambda: rim.restriction_operator(cov), lambda i: rim.restriction_operator(one(i)[0]), n)
    assert_rows_match(lambda: rim.validate_rim_base(psis), lambda i: rim.validate_rim_base(psis[i]), n)


def test_validate_rim_base_names_the_failed_constraints():
    psis = np.array([[1, 0, 1, 0], [1, 0, 1j, 0], [1, 0, np.exp(1j * np.pi / 4), 0]], dtype=complex)
    val = rim.validate_rim_base(psis)
    assert val.ok.tolist() == [False, False, True]
    assert [rim.validate_rim_base(psi).reasons for psi in psis] == [("B=0", "A1=+A2"), ("A=0", "A1=-A2"), ()]
    one = [rim.validate_rim_base(psi) for psi in psis]
    assert val.failed.tolist() == [[name in v.reasons for name in rim.BASE_CONSTRAINTS] for v in one]


# ---------------------------------------------------------------------------
# mdo


def _momenta(gen, n, span):
    m, p = _magnitudes(gen, n, span), _magnitudes(gen, n, span)
    return mdo.Momentum(m, p, gen.uniform(0.0, np.pi, n), gen.uniform(0.0, 2.0 * np.pi, n))


def _momentum(mom, i):
    return mdo.Momentum(mom.m[i], mom.p[i], mom.theta[i], mom.phi[i])


@given(seed=seeds, n=rows, span=decades, conj=st.sampled_from("SA"))
@settings(deadline=None, max_examples=EXAMPLES // 2)
def test_mdo_array_forms_rows(seed, n, span, conj):
    gen = np.random.default_rng(seed)
    mom = _momenta(gen, n, span)
    h = np.where(gen.uniform(size=n) < 0.5, -1, 1)

    def row(i):
        return _momentum(mom, i)

    assert_rows_match(lambda: mom.E, lambda i: row(i).E, n)
    assert_rows_match(lambda: mdo.four_momentum(mom), lambda i: mdo.four_momentum(row(i)), n)
    assert_rows_match(lambda: mdo.xi(mom), lambda i: mdo.xi(row(i)), n)
    assert_rows_match(lambda: mdo.xi_checks(mom), lambda i: mdo.xi_checks(row(i)), n)
    assert_rows_match(
        lambda: mdo.helicity_spinor(mom.theta, mom.phi, h),
        lambda i: mdo.helicity_spinor(mom.theta[i], mom.phi[i], h[i]),
        n,
    )
    assert_rows_match(lambda: mdo.sigma_phat(mom.theta, mom.phi), lambda i: mdo.sigma_phat(mom.theta[i], mom.phi[i]), n)
    assert_rows_match(lambda: mdo.boosted_left(mom, h), lambda i: mdo.boosted_left(row(i), h[i]), n)
    assert_rows_match(lambda: mdo.elko(mom, h, conj).spinor, lambda i: mdo.elko(row(i), h[i], conj).spinor, n)
    for fn in (
        mdo.diraclike_residual,
        mdo.dual_helicity_eigenvalues,
        mdo.chirality_current_residuals,
        mdo.mdo_norm,
    ):
        assert_rows_match(
            lambda: fn(mdo.elko(mom, h, conj), mom),
            lambda i: fn(mdo.elko(row(i), h[i], conj), row(i)),
            n,
        )


@given(seed=seeds, n=rows, span=decades)
@settings(deadline=None, max_examples=EXAMPLES)
def test_fg_forms_rows(seed, n, span):
    gen = np.random.default_rng(seed)
    bases = random_rim_bases(gen, n) * _magnitudes(gen, n, (span[0] / 4, span[1] / 4))[:, None]
    a, b = random_valid_params(gen, n)
    params = rim.validate(a, b)
    cov = bilinear.compute_batch(bases)
    mom = _momenta(gen, n, span)
    sign = np.where(gen.uniform(size=n) < 0.5, -1, 1)

    def inputs():
        pots = rim.potentials(cov, params)
        return pots.S, pots.R, params, cov, mom, sign

    def row(i):
        bil, p = bilinear.compute(bases[i]), rim.validate(a[i], b[i])
        pots = rim.potentials(bil, p)
        return pots.S, pots.R, p, bil, _momentum(mom, i), int(sign[i])

    assert_rows_match(lambda: mdo.fg_functions(*inputs()), lambda i: mdo.fg_functions(*row(i)), n)
    assert_rows_match(lambda: mdo.fg_exponential_forms(*inputs()), lambda i: mdo.fg_exponential_forms(*row(i)), n)


# ---------------------------------------------------------------------------
# homotopy and per-row decomposition


@given(seed=seeds, n=rows, span=decades, t=st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=EXAMPLES)
def test_homotopy_array_forms_rows(seed, n, span, t):
    gen = np.random.default_rng(seed)
    r = _spinors(gen, n, span)
    ts = gen.uniform(size=n)
    psi_c, phi_c = plane.PlaneCoords(r[:, 0], r[:, 1]), plane.PlaneCoords(r[:, 2], r[:, 3])

    def one(i):
        return plane.PlaneCoords(r[i, 0], r[i, 1]), plane.PlaneCoords(r[i, 2], r[i, 3])

    assert_rows_match(lambda: homotopy.spinor_homotopy(psi_c, phi_c), lambda i: homotopy.spinor_homotopy(*one(i)), n)
    try:
        path = homotopy.spinor_homotopy(psi_c, phi_c)
    except homotopy.DegenerateParameter:
        return  # an endpoint's r1 is zero at its own scale, as checked above
    for x, when in ((r[:, 0], t), (r[:, 2], ts), (r[:, 1], 1.0)):
        assert_rows_match(
            lambda: homotopy.eval_path(path, x, when),
            lambda i: homotopy.eval_path(homotopy.spinor_homotopy(*one(i)), x[i], np.broadcast_to(when, n)[i]),
            n,
        )
        assert_rows_match(
            lambda: homotopy.multiplier_at(path, when),
            lambda i: homotopy.multiplier_at(homotopy.spinor_homotopy(*one(i)), np.broadcast_to(when, n)[i]),
            n,
        )

    wf, wg = r[:, 0] / np.abs(r[:, 0]), r[:, 1] / np.abs(r[:, 1])
    bases = random_rim_bases(gen, n) * _magnitudes(gen, n, span)[:, None]

    def basis_path(i=slice(None)):
        return homotopy.basis_homotopy(homotopy.CoordFunction(wf[i]), homotopy.CoordFunction(wg[i]))

    assert_rows_match(basis_path, basis_path, n)
    assert_rows_match(
        lambda: homotopy.sample_basis(basis_path(), bases, ts),
        lambda i: homotopy.sample_basis(basis_path(i), bases[i], ts[i]),
        n,
    )


def test_degenerate_t_of_antipodal_paths_in_an_array():
    f, g = homotopy.CoordFunction(np.array([1.0, 1.0])), homotopy.CoordFunction(np.array([-1.0, 1j]))
    path = homotopy.basis_homotopy(f, g)
    assert path.degenerate_t[0] == 0.5 and np.isnan(path.degenerate_t[1])
    with pytest.raises(homotopy.DegenerateParameter, match="row 0: vanishing block coefficient at t=0.5"):
        homotopy.sample_basis(path, random_rim_bases(np.random.default_rng(0), 2), 0.5)


@given(seed=seeds, n=rows, span=decades, off=st.integers(min_value=0, max_value=9))
@settings(deadline=None, max_examples=EXAMPLES)
def test_decompose_batch_against_per_row_bases(seed, n, span, off):
    gen = np.random.default_rng(seed)
    bases = _spinors(gen, n, span)
    r1, r2 = _spinors(gen, n, (-3.0, 3.0))[:, :2].T
    psis = plane.block_scale(bases, r1, r2)
    psis[: min(off, n) // 3] += _spinors(gen, min(off, n) // 3, span)  # some rows leave their plane
    coords, residuals, failures = plane.decompose_batch(psis, bases)
    for i in range(n):
        try:
            c = plane.decompose(psis[i], bases[i])
        except SpinorlabError as exc:
            assert (type(failures[i]), str(failures[i])) == (type(exc), str(exc))
            continue
        assert i not in failures
        assert coords[i].tobytes() == np.array([c.r1, c.r2]).tobytes()
