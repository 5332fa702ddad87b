import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, clifford, mdo, spinor
from spinorlab.errors import one_row
from spinorlab.generators import random_momenta
from spinorlab.spinor import DualKind, quartic_scale

from conftest import MANTISSAS, random_spinor


def oracle_bilinears(psi, dual_row=None):
    """Independent brute-force covariants, written out against raw matrices."""
    g = clifford.build()
    d = np.conj(psi) @ g.gamma[0] if dual_row is None else dual_row
    A = d @ psi
    B = 1j * (d @ g.gamma5 @ psi)
    J = np.array([d @ g.gamma[mu] @ psi for mu in range(4)])
    K = np.array([d @ g.gamma5 @ g.gamma[mu] @ psi for mu in range(4)])
    S = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            if mu != nu:
                S[mu, nu] = d @ (1j * g.gamma[mu] @ g.gamma[nu]) @ psi
    return A, B, J, K, S


def test_basis_spinor_values():
    b = bilinear.compute(np.array([1, 0, 0, 0], dtype=complex))
    assert abs(b.A) < 1e-15 and abs(b.B) < 1e-15
    assert abs(b.J[0] - 1) < 1e-15
    assert abs(b.K[0] - 1) < 1e-15
    assert abs(b.J[3] + 1) < 1e-15
    assert clifford.minkowski_dot(b.J, b.J) == pytest.approx(0.0, abs=1e-14)
    assert clifford.minkowski_dot(b.K, b.K) == pytest.approx(0.0, abs=1e-14)


def test_balanced_spinor_scalar():
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    b = bilinear.compute(psi)
    A1, A2 = spinor.chiral_overlaps(psi)
    assert b.A == pytest.approx(1.0, abs=1e-14)
    assert A1 == pytest.approx(0.5, abs=1e-14)
    assert A2 == pytest.approx(0.5, abs=1e-14)


def test_compute_matches_oracle(rng):
    for _ in range(200):
        psi = random_spinor(rng)
        b = bilinear.compute(psi)
        A, B, J, K, S = oracle_bilinears(psi)
        assert abs(b.A - A) < 1e-12
        assert abs(b.B - B) < 1e-12
        assert np.max(np.abs(b.J - J)) < 1e-12
        assert np.max(np.abs(b.K - K)) < 1e-12
        assert np.max(np.abs(b.S - S)) < 1e-12


def test_reality_under_dirac_dual(rng):
    for _ in range(200):
        b = bilinear.compute(random_spinor(rng))
        scale = max(1.0, b.scale)
        assert abs(b.A.imag) < 1e-12 * scale
        assert abs(b.B.imag) < 1e-12 * scale
        assert np.max(np.abs(b.J.imag)) < 1e-12 * scale
        assert np.max(np.abs(b.K.imag)) < 1e-12 * scale
        assert np.max(np.abs(b.S.imag)) < 1e-12 * scale
        assert np.max(np.abs(b.S + b.S.T)) < 1e-12 * scale


def test_chiral_overlap_split(rng):
    for _ in range(100):
        psi = random_spinor(rng)
        b = bilinear.compute(psi)
        A1, A2 = spinor.chiral_overlaps(psi)
        assert abs(b.A - (A1 + A2)) < 1e-12 * max(1.0, b.scale)
        assert abs(b.B - 1j * (-A1 + A2)) < 1e-12 * max(1.0, b.scale)


def fast_row(base, r1, r2):
    """One row of the component route for one base, as Python numbers."""
    return one_row(bilinear.compute_fast_batch(np.asarray(base, dtype=complex).reshape(1, 4), [r1], [r2]), True)


def s_items(fast):
    return ((index, fast[f"S{index[0]}{index[1]}"]) for index in bilinear._S_INDEX)


def test_fast_matches_compute_on_shared_fields(rng):
    for _ in range(300):
        base = random_spinor(rng)
        r1 = complex(rng.standard_normal(), rng.standard_normal())
        r2 = complex(rng.standard_normal(), rng.standard_normal())
        psi = np.concatenate([r1 * base[:2], r2 * base[2:]])
        full = bilinear.compute(psi)
        fast = fast_row(base, r1, r2)
        scale = max(1.0, full.scale)
        assert abs(fast["A"] - full.A) < 1e-10 * scale
        assert abs(fast["B"] - full.B) < 1e-10 * scale
        assert np.max(np.abs(fast["J"] - full.J)) < 1e-10 * scale
        assert abs(fast["K0"] - full.K[0]) < 1e-10 * scale
        for (mu, nu), value in s_items(fast):
            assert abs(value - full.S[mu, nu]) < 1e-10 * scale


def test_fast_one_sided_decomposition_kills_s():
    base = np.array([1, 0, 1, 0], dtype=complex)
    fast = fast_row(base, 1.0, 0.0)
    assert fast["J"][0] == pytest.approx(1.0)
    assert fast["K0"] == pytest.approx(1.0)
    for _, value in s_items(fast):
        assert value == 0.0


def test_fast_unit_coefficients_reduce_to_base(rng):
    base = random_spinor(rng)
    fast = fast_row(base, 1.0, 1.0)
    full = bilinear.compute(base)
    A1, A2 = spinor.chiral_overlaps(base)
    assert abs(fast["A"] - (A1 + A2)) < 1e-12 * max(1.0, full.scale)


def test_fpk_residuals_random(rng):
    for _ in range(300):
        psi = random_spinor(rng)
        res = bilinear.fpk_residuals(bilinear.compute(psi))
        assert np.max(res) < 1e-10 * quartic_scale(psi)


def test_fpk_residuals_detect_inconsistent_record():
    # covariants not coming from any spinor violate all four constraints
    b = bilinear.from_scalars(1.0, 2.0, [3.0, 0, 0, 0], [0.5, 1.0, 0, 0], np.zeros((4, 4)))
    res = bilinear.fpk_residuals(b)
    assert np.min(res) > 0.1


def test_fpk_zero_record():
    b = bilinear.from_scalars(0.0, 0.0, np.zeros(4), np.zeros(4), np.zeros((4, 4)))
    assert np.max(bilinear.fpk_residuals(b)) == 0.0


@given(
    theta=st.floats(min_value=0.0, max_value=2 * np.pi),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(deadline=None, max_examples=60)
def test_phase_and_scale_invariance(theta, scale):
    psi = np.array([0.4 - 0.2j, 1.1, -0.3j, 0.8 + 0.5j])
    b0 = bilinear.compute(psi)
    b1 = bilinear.compute(np.exp(1j * theta) * psi)
    assert abs(b1.A - b0.A) < 1e-10 * max(1.0, b0.scale)
    assert np.max(np.abs(b1.S - b0.S)) < 1e-10 * max(1.0, b0.scale)
    b2 = bilinear.compute(scale * psi)
    assert abs(b2.A - scale**2 * b0.A) < 1e-10 * max(1.0, b2.scale)
    assert np.max(np.abs(b2.J - scale**2 * b0.J)) < 1e-10 * max(1.0, b2.scale)


def test_mdo_dual_route_requires_xi(rng):
    with pytest.raises(ValueError):
        bilinear.compute(random_spinor(rng), DualKind.MDO)


def test_mdo_dual_route_rejects_bad_xi(rng):
    from spinorlab.errors import DegenerateXi

    with pytest.raises(DegenerateXi):
        bilinear.compute(random_spinor(rng), DualKind.MDO, 3.0 * np.eye(4))


def test_batch_equals_scalar_route(rng):
    psis = random_spinor(rng, 64)
    batch = bilinear.compute_batch(psis)
    for i in (0, 17, 63):
        b = bilinear.compute(psis[i])
        assert abs(batch["A"][i] - b.A) < 1e-14
        assert np.max(np.abs(batch["S"][i] - b.S)) < 1e-14


# ---------------------------------------------------------------------------
# The monomial kernels against the full matrix formulas, bit for bit


def full_sandwich(psis, duals):
    """The full 16-matrix sandwich and the S assembly loop, as references."""
    vals = np.einsum("ni,fij,nj->nf", duals, bilinear._form_stack(), psis)
    S = np.zeros((psis.shape[0], 4, 4), dtype=complex)
    for f, (mu, nu) in enumerate(bilinear._S_INDEX):
        S[:, mu, nu] = vals[:, 10 + f]
        S[:, nu, mu] = -vals[:, 10 + f]
    return {"A": vals[:, 0], "B": 1j * vals[:, 1], "J": vals[:, 2:6], "K": vals[:, 6:10], "S": S}


def levi_civita_by_parity():
    eps = np.zeros((4, 4, 4, 4))
    for p in itertools.permutations(range(4)):
        eps[p] = (-1.0) ** sum(a > b for a, b in itertools.combinations(p, 2))
    return eps


def full_fpk_residuals(b):
    """The residuals with the full eta matmuls and eta/Levi-Civita einsums."""
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    J, K, S, A, B = b["J"], b["K"], b["S"], b["A"], b["B"]
    Jl = J @ eta
    Kl = K @ eta
    Sl = np.einsum("ma,nab,bv->nmv", eta, S, eta)
    Seps = np.einsum("mnab,qab->qmn", levi_civita_by_parity(), S)
    j2 = np.einsum("nm,nm->n", J, Jl)
    k2 = np.einsum("nm,nm->n", K, Kl)
    jk = np.einsum("nm,nm->n", J, Kl)
    comb = (
        Jl[:, :, None] * Kl[:, None, :]
        - Kl[:, :, None] * Jl[:, None, :]
        + B[:, None, None] * Sl
        - (A / 2.0)[:, None, None] * Seps
    )
    return np.stack([np.abs(j2 - A**2 - B**2), np.max(np.abs(comb), axis=(1, 2)), np.abs(jk), np.abs(j2 + k2)], axis=1)


def assert_same_bits(got, want):
    """Equal real and imaginary bits (so signed zeros and infinities), and
    NaN in the same places."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert np.array_equal(np.where(nan, 0.0, g).view(np.uint64), np.where(nan, 0.0, w).view(np.uint64))


def _part(exponent):
    """One real part: +-0, or +-m 10^e with e near ``exponent``."""
    value = st.builds(lambda m, e: m * 10.0**e, MANTISSAS, st.integers(exponent, exponent + 3))
    return st.one_of(st.sampled_from([0.0, -0.0]), value, value.map(lambda x: -x))


@st.composite
def spinor_stacks(draw):
    """(n, 4) stacks, n = 1..5, of components that are exactly zero, real,
    imaginary or both, with magnitudes from 1e-300 to 1e300: near one scale
    per stack, so that sums can cancel and round, or over all decades."""
    n = draw(st.integers(1, 5))
    shared = draw(st.integers(-300, 296))
    rows = []
    for _ in range(4 * n):
        part = _part(shared if draw(st.booleans()) else draw(st.integers(-300, 296)))
        kind = draw(st.sampled_from(["zero", "real", "imaginary", "complex"]))
        re = draw(part) if kind in ("real", "complex") else draw(st.sampled_from([0.0, -0.0]))
        im = draw(part) if kind in ("imaginary", "complex") else draw(st.sampled_from([0.0, -0.0]))
        rows.append(complex(re, im))
    return np.array(rows).reshape(n, 4)


XI = mdo.xi(mdo.Momentum(1.0, 0.7, 0.4, 1.1))
# full-precision complex rows at one scale: every product and sum rounds, so
# a kernel that changes an operation's order or operands shows in its bits
DENSE = np.random.default_rng(11).standard_normal((64, 4, 2)).view(complex)[..., 0]


def _covariants(psis, kind):
    with np.errstate(all="ignore"):
        if kind is DualKind.DIRAC:
            return bilinear.compute_batch(psis), spinor.dirac_dual(psis)
        return bilinear.compute_batch(psis, DualKind.MDO, XI), spinor.mdo_dual(psis, XI)


@given(psis=spinor_stacks(), kind=st.sampled_from(DualKind))
@example(psis=DENSE, kind=DualKind.DIRAC)
@example(psis=DENSE, kind=DualKind.MDO)
@settings(deadline=None, max_examples=150)
def test_compute_batch_is_the_full_sandwich_bit_for_bit(psis, kind):
    cov, duals = _covariants(psis, kind)
    assert list(cov) == list(FIELDS)
    with np.errstate(all="ignore"):
        want = full_sandwich(psis, duals)
    for key, value in want.items():
        assert_same_bits(cov[key], value)
    # one row alone has the bits of its row in the stack
    one, _ = _covariants(psis[-1:], kind)
    for key in want:
        assert_same_bits(one[key][0], cov[key][-1])


@given(psis=spinor_stacks(), kind=st.sampled_from(DualKind))
@example(psis=DENSE, kind=DualKind.DIRAC)
@example(psis=DENSE, kind=DualKind.MDO)
@settings(deadline=None, max_examples=150)
def test_fpk_residuals_batch_is_the_full_contraction_bit_for_bit(psis, kind):
    cov, _ = _covariants(psis, kind)
    with np.errstate(all="ignore"):
        got, want = bilinear.fpk_residuals_batch(cov), full_fpk_residuals(cov)
        one = bilinear.fpk_residuals_batch({k: v[-1:] for k, v in cov.items()})
    assert_same_bits(got, want)
    assert_same_bits(one[0], got[-1])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), decade=st.floats(-150.0, 150.0), kind=st.sampled_from(DualKind))
@settings(deadline=None, max_examples=100)
def test_compute_batch_s_is_bitwise_antisymmetric_with_a_positive_zero_diagonal(seed, n, decade, kind):
    """S^{nu mu} has the bits of -S^{mu nu} and each S^{mu mu} is +0.0 in both
    parts, so the report writer renders every finite classify row's S from
    its upper triangle (``io._square_columns``)."""
    gen = np.random.default_rng(seed)
    psis = gen.standard_normal((n, 4, 2)).view(complex)[..., 0] * 10.0**decade
    psis[gen.random((n, 4)) < 0.25] = 0.0  # exact zeros, so sums of signed zeros too
    cov, _ = _covariants(psis, kind)
    bits = cov["S"].view(np.float64).view(np.int64).reshape(n, 4, 4, 2)
    upper, lower = np.triu_indices(4, 1)
    assert not bits[:, range(4), range(4)].any()
    assert np.array_equal(bits[:, lower, upper], bits[:, upper, lower] ^ np.int64(-(2**63)))


@st.composite
def blocked_batches(draw):
    """(n, 4) spinors with n around blocks of 3 rows, a dual and its Xi:
    none, one for every row, or an (n, 4, 4) stack of one per row."""
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 10]))
    psis = np.array(draw(st.lists(_part(-2), min_size=8 * n, max_size=8 * n))).view(complex).reshape(n, 4)
    kind = draw(st.sampled_from(["dirac", "one xi", "xi stack"]))
    if kind == "dirac":
        return psis, DualKind.DIRAC, None
    if kind == "one xi":
        return psis, DualKind.MDO, XI
    momenta = random_momenta(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return psis, DualKind.MDO, mdo.xi(mdo.Momentum(*momenta.T))


def assert_same_array(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert_same_bits(got, want)


@given(case=blocked_batches())
@settings(deadline=None, max_examples=150)
def test_blocks_of_rows_give_the_single_pass_bit_for_bit(case):
    psis, kind, xi = case
    stack = (xi,) if np.ndim(xi) == 3 else ()  # an Xi stack is sliced with the rows

    def block(rows, *xi_rows):
        cov = bilinear.compute_batch(rows, kind, xi_rows[0] if xi_rows else xi)
        return (*cov.values(), bilinear.fpk_residuals_batch(cov))

    with np.errstate(all="ignore"):
        whole = bilinear.compute_batch(psis, kind, xi)
        whole_fpk = bilinear.fpk_residuals_batch(whole)
        with mock.patch.object(bilinear, "_BLOCK", 3):
            *blocked, blocked_fpk = bilinear.by_row_blocks(block, psis, *stack)
    assert len(blocked) == len(whole)
    for got, want in zip(blocked, whole.values()):
        assert_same_array(got, want)
    assert_same_array(blocked_fpk, whole_fpk)
    # A, B, J and K are views of one (n, 10) array
    assert whole["A"].base is whole["B"].base is whole["J"].base is whole["K"].base
    assert whole["J"].base.shape == (len(psis), 10)


FIELDS = ("A", "B", "J", "K", "S", "scale")


def _record(psi, kind):
    with np.errstate(all="ignore"):
        return bilinear.compute(psi, kind, XI if kind is DualKind.MDO else None)


@given(psis=spinor_stacks(), kind=st.sampled_from(DualKind))
@settings(deadline=None, max_examples=100)
def test_compute_is_one_row_of_its_batch(psis, kind):
    b = _record(psis[-1], kind)
    cov, _ = _covariants(psis[-1:], kind)
    want = one_row(cov, True)
    assert [f.name for f in dataclasses.fields(b)] == ["rows", *FIELDS[:5], "dual", "scale"]
    assert b.dual is kind
    for key in FIELDS:
        got = getattr(b, key)
        assert type(got) is type(want[key]), key
        assert np.shape(got) == np.shape(want[key]), key
        assert_same_bits(got, want[key])
    # the record holds the one-row dict itself, and its arrays are row views
    assert list(b.rows) == list(cov)
    for key in FIELDS:
        assert_same_array(b.rows[key], cov[key])
    assert b.rows["A"].base is b.rows["B"].base is b.rows["J"].base is b.rows["K"].base
    assert b.rows["J"].base.shape == (1, 10)
    assert all(np.shares_memory(getattr(b, key), b.rows[key]) for key in ("J", "K", "S"))


@given(psis=spinor_stacks(), kind=st.sampled_from(DualKind))
@settings(deadline=None, max_examples=100)
def test_from_scalars_of_a_computed_record_has_its_fields_and_rows(psis, kind):
    b = _record(psis[-1], kind)
    rebuilt = bilinear.from_scalars(b.A, b.B, b.J, b.K, b.S, kind, b.scale)
    assert repr(rebuilt) == repr(b)
    for key in FIELDS:
        assert type(getattr(rebuilt, key)) is type(getattr(b, key)), key
        assert_same_bits(getattr(rebuilt, key), getattr(b, key))
        assert_same_array(rebuilt.rows[key], b.rows[key])
    with np.errstate(all="ignore"):
        assert_same_bits(bilinear.fpk_residuals(rebuilt), bilinear.fpk_residuals(b))


def test_a_record_field_is_read_from_its_rows_and_cannot_be_replaced():
    b = bilinear.compute(DENSE[0])
    same = dataclasses.replace(b)  # the fields are read again from the same rows
    assert same.rows is b.rows and repr(same) == repr(b)
    for key in FIELDS:
        assert_same_bits(getattr(same, key), getattr(b, key))
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(b, A=0.0)


@given(psis=spinor_stacks())
@settings(deadline=None, max_examples=100)
def test_dirac_dual_is_the_gamma0_product(psis):
    want = np.conj(psis) @ clifford.build().gamma[0]
    got = spinor.dirac_dual(psis)
    # the same values; only the signs of zeros may differ
    assert np.array_equal(got, want)
    assert np.array_equal(spinor.dirac_dual(psis[0]), got[0])


def test_sandwich_tables_rebuild_every_form():
    xor, coef, at = bilinear._sandwich_tables()
    rebuilt = np.zeros((4, 4, 4, 4), dtype=complex)
    for s, i in itertools.product(range(4), range(4)):
        rebuilt[s, :, i, xor[s, i]] = coef[s, :, i]
    assert sorted(at.tolist()) == list(range(16))
    assert np.array_equal(rebuilt.reshape(16, 4, 4)[at], bilinear._form_stack())


def test_hodge_table_is_the_levi_civita_contraction(rng):
    S = rng.integers(-9, 10, (4, 4)).astype(float)
    S = S - S.T
    full = np.einsum("mnab,ab->mn", levi_civita_by_parity(), S)
    assert np.array_equal(S.reshape(16)[bilinear._HODGE_AT] * bilinear._HODGE, full)
    # the table reads S^{ab} over the pair complementary to (m, n), a < b
    for m, n in itertools.permutations(range(4), 2):
        a, b = sorted(set(range(4)) - {m, n})
        assert bilinear._HODGE_AT[m, n] == 4 * a + b
