import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, clifford, rim
from spinorlab.errors import DegenerateB, IntegrabilityViolation, NullCurrent
from spinorlab.generators import random_rim_bases, random_valid_params
from spinorlab.spinor import chiral_overlaps, quartic_scale

from conftest import random_spinor

FIXED_SPINORS = [
    np.array([1.0, 0.0, 1.0, 0.0]),
    np.array([1.0, 0.0, np.exp(1j * np.pi / 4), 0.0]),
    np.array([0.3, -1.1j, 0.8, 0.2 + 0.4j]),
    np.array([2.0, 1.0, -0.5, 0.25j]),
    np.array([0.1j, 0.2, 0.3j, 0.4]),
    np.array([1.0, 1.0, 1.0, -1.0]),
    np.array([-0.7, 0.2j, 1.3, 0.5]),
    np.array([0.9 + 0.1j, -0.2, 0.4, 1.1j]),
    np.array([1.5, 0.0, 0.0, 2.5]),
    np.array([0.2, 0.8, -0.8j, 0.2j]),
]


def test_fierz_identities_on_fixed_spinors(gamma):
    """The two contraction identities that make the residual close."""
    for psi in FIXED_SPINORS:
        b = bilinear.compute(psi)
        mass_op = b.A * np.eye(4) + 1j * b.B * gamma.gamma5
        lhs_j = clifford.slash(b.J) @ psi
        lhs_k = clifford.slash(b.K) @ gamma.gamma5 @ psi
        scale = max(1.0, b.scale ** 1.5)
        assert np.max(np.abs(lhs_j - mass_op @ psi)) < 1e-12 * scale
        # the axial contraction comes out with a plus sign in this rep
        assert np.max(np.abs(lhs_k - mass_op @ psi)) < 1e-12 * scale


def test_validate_domain_tags():
    a = np.exp(1j * np.pi / 4)
    p = rim.validate(a, np.exp(1j * np.pi / 4))
    assert p.domain == rim.OmegaDomain.OMEGA_1


def test_validate_unpaired_quarters_are_outside():
    # equal real parts but phi1 in the first quarter, phi2 in the fourth:
    # no admissible pair covers (W1, Z4)
    a = np.exp(1j * np.pi / 4)
    b = (a.real / math.cos(7 * np.pi / 4)) * np.exp(1j * 7 * np.pi / 4)
    p = rim.validate(a, b)
    assert p.domain == rim.OmegaDomain.OUTSIDE


def test_validate_rejects_unequal_real_parts():
    with pytest.raises(IntegrabilityViolation):
        rim.validate(0.3 + 1j, 0.4 + 1j)


def test_validate_rejects_real_b():
    with pytest.raises(DegenerateB):
        rim.validate(0.3 + 1j, 0.3 + 0j)


def test_params_derived_quantities(rng):
    a_arr, b_arr = random_valid_params(rng, 200)
    for a, b in zip(a_arr, b_arr):
        p = rim.validate(a, b)
        assert abs(2 * p.s - 1j * (a - b)) < 1e-12
        assert abs(p.rho - (a.imag - b.imag) / b.imag) < 1e-12
        assert abs(p.rho + 2 * p.s / b.imag) < 1e-12


def test_domain_boundaries_are_outside():
    for boundary in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        assert rim.domain_of(boundary, 0.7) == rim.OmegaDomain.OUTSIDE


@pytest.mark.parametrize(
    "dom,phi1,phi2",
    [
        (rim.OmegaDomain.OMEGA_1, 0.7, 0.7),
        (rim.OmegaDomain.OMEGA_2, 5.5, 0.7),
        (rim.OmegaDomain.OMEGA_3, 5.5, 5.5),
        (rim.OmegaDomain.OMEGA_4, 2.0, 2.0),
        (rim.OmegaDomain.OMEGA_5, 4.0, 2.0),
        (rim.OmegaDomain.OMEGA_6, 4.0, 4.0),
    ],
)
def test_domain_representatives(dom, phi1, phi2):
    assert rim.domain_of(phi1, phi2) == dom


def test_domains_disjoint_under_sampling(rng):
    phi = rng.uniform(0.0, 2 * np.pi, (20000, 2))
    hits = np.zeros(20000, dtype=int)
    edges = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]
    q1 = np.digitize(phi[:, 0], edges)
    q2 = np.digitize(phi[:, 1], edges)
    for (w, z), _ in rim.DOMAIN_PAIRS.items():
        hits += (q1 == w) & (q2 == z)
    assert np.max(hits) <= 1


def test_potentials_trivial_scalar():
    b = bilinear.from_scalars(1.0, 0.0, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))
    p = rim.validate(1.0 + 0.5j, 1.0 - 1.0j)
    pots = rim.potentials(b, p)
    assert pots.S == pytest.approx(0.0, abs=1e-15)
    assert pots.R == pytest.approx(0.0, abs=1e-15)


def test_potentials_unit_current_phase():
    b = bilinear.from_scalars(0.6, 0.8, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))
    p = rim.validate(0.7 + 0.5j, 0.7 - 1.25j)
    pots = rim.potentials(b, p)
    assert pots.S == pytest.approx(0.0, abs=1e-15)
    assert pots.R == pytest.approx(math.atan2(-0.8, 0.6) / (2 * p.b.imag), abs=1e-12)
    assert abs(abs(rim.vartheta(p, pots)) - 1.0) < 1e-12


def test_potentials_scaling_behaviour(rng):
    base = random_rim_bases(rng, 1)[0]
    p = rim.validate(0.9 + 0.2j, 0.9 + 0.7j)
    pots = rim.potentials(bilinear.compute(base), p)
    c = 1.7
    pots_c = rim.potentials(bilinear.compute(c * base), p)
    assert pots_c.S - pots.S == pytest.approx(math.log(c * c) / (2 * 0.9), abs=1e-12)
    assert pots_c.R == pytest.approx(pots.R, abs=1e-12)


def test_potentials_null_current():
    b = bilinear.from_scalars(0.0, 0.0, [1.0, 0, 0, 1.0], [0.0] * 4, np.zeros((4, 4)))
    p = rim.validate(1.0 + 0.5j, 1.0 - 1.0j)
    with pytest.raises(NullCurrent):
        rim.potentials(b, p)


def derivative(psi, params):
    """The (4mu, 4) D_mu psi = (a J_mu - b K_mu gamma5) psi of one spinor, the
    definition behind the pointwise identities, with the currents of
    ``bilinear.compute`` lowered by eta."""
    b = bilinear.compute(psi)
    g5psi = clifford.build().gamma5 @ psi
    return params.a * (clifford.ETA * b.J)[:, None] * psi - params.b * (clifford.ETA * b.K)[:, None] * g5psi


def test_rim_derivative_balanced_spinor():
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    p = rim.validate(0.8 + 0.3j, 0.8 - 0.6j)
    d = derivative(psi, p)
    # J0 = 1 and K0 = 0 for this spinor, so the time derivative is a*psi
    assert np.max(np.abs(d[0] - p.a * psi)) < 1e-14


def test_rim_derivative_linear_in_a():
    psi = np.array([0.3, -1.1j, 0.8, 0.2 + 0.4j])
    p1 = rim.validate(0.5 + 0.2j, 0.5 - 0.9j)
    p2 = rim.validate(1.0 + 0.4j, 1.0 - 0.9j)
    b = bilinear.compute(psi)
    d1 = derivative(psi, p1)
    d2 = derivative(psi, p2)
    eta_diag = np.array([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        delta = d2[mu] - d1[mu]
        expected = (p2.a - p1.a) * (eta_diag[mu] * b.J[mu]) * psi - (
            (p2.b - p1.b) * (eta_diag[mu] * b.K[mu])
        ) * (clifford.build().gamma5 @ psi)
        assert np.max(np.abs(delta - expected)) < 1e-12
    # rim's own pass builds the same D_mu: its identities close at both couplings
    for p in (p1, p2):
        assert max(rim.pointwise_residuals(psi, p)) < 1e-10 * quartic_scale(psi)


def test_heisenberg_residual_vanishes(rng):
    a_arr, b_arr = random_valid_params(rng, 200)
    for i in range(200):
        psi = random_spinor(rng)
        p = rim.validate(a_arr[i], b_arr[i])
        assert rim.pointwise_residuals(psi, p)[0] < 1e-10 * quartic_scale(psi)


def test_heisenberg_residual_zero_spinor():
    p = rim.validate(0.5 + 0.2j, 0.5 - 0.9j)
    assert rim.pointwise_residuals(np.zeros(4, dtype=complex), p)[0] == 0.0


def test_heisenberg_broken_balance_is_positive(rng):
    base = random_rim_bases(rng, 1)[0]
    base = base / np.linalg.norm(base)
    p = rim.validate(0.5 + 0.2j, 0.5 - 0.9j)
    shifted = rim.RimParams(a=p.a, b=p.b, s=p.s + 0.1, rho=p.rho, domain=p.domain)
    assert rim.pointwise_residuals(base, shifted)[0] > 1e-3


def test_del_ab_identities(rng):
    a_arr, b_arr = random_valid_params(rng, 200)
    for i in range(200):
        psi = random_spinor(rng)
        p = rim.validate(a_arr[i], b_arr[i])
        ra, rb = rim.pointwise_residuals(psi, p)[1:]
        assert ra < 1e-10 * quartic_scale(psi)
        assert rb < 1e-10 * quartic_scale(psi)


def test_del_ab_degenerate_couplings(rng):
    # a = b still closes (s = 0, pure algebra)
    psi = random_spinor(rng)
    p = rim.validate(0.4 + 0.7j, 0.4 + 0.7j)
    assert p.s == 0.0
    ra, rb = rim.pointwise_residuals(psi, p)[1:]
    assert max(ra, rb) < 1e-10 * quartic_scale(psi)


def test_batch_residuals_match_scalar(rng):
    psis = random_spinor(rng, 20)
    a_arr, b_arr = random_valid_params(rng, 20)
    params = rim.validate(a_arr, b_arr)
    batch = rim.pointwise_residuals(psis, params)
    for i in (0, 7, 19):
        p = rim.validate(a_arr[i], b_arr[i])
        assert rim.pointwise_residuals(psis[i], p) == tuple(r[i] for r in batch)


def test_base_validation_rejects_zero_pseudoscalar():
    psi = np.array([1, 0, 1, 0], dtype=complex) / np.sqrt(2)
    v = rim.validate_rim_base(psi)
    assert not v.ok
    assert v.failed[rim.BASE_CONSTRAINTS.index("B=0")]


def test_base_validation_rejects_zero_scalar():
    psi = np.array([1, 0, 1j, 0], dtype=complex) / np.sqrt(2)
    v = rim.validate_rim_base(psi)
    assert not v.ok
    assert v.failed[rim.BASE_CONSTRAINTS.index("A=0")]
    A1, A2 = chiral_overlaps(psi)
    assert A1 == pytest.approx(-0.5j, abs=1e-12)
    assert A2 == pytest.approx(+0.5j, abs=1e-12)


def test_base_validation_reads_its_tol():
    psi = np.array([1, 0.2, 0.9, 0.2 + 5e-7j])  # B = -2e-7 at scale 1.89
    assert rim.validate_rim_base(psi).ok
    v = rim.validate_rim_base(psi, tol=1e-6)
    assert not v.ok
    assert v.failed.tolist() == [name in ("B=0", "A1=+A2") for name in rim.BASE_CONSTRAINTS]


def test_base_validation_accepts_oblique_phase():
    psi = np.array([1, 0, np.exp(1j * np.pi / 4), 0]) / np.sqrt(2)
    assert rim.validate_rim_base(psi).ok
    cov = bilinear.compute(psi)
    assert cov.A.real == pytest.approx(math.cos(np.pi / 4), abs=1e-12)
    assert abs(cov.B.real) == pytest.approx(math.sin(np.pi / 4), abs=1e-12)


def test_restriction_operator_zero_k():
    b = bilinear.from_scalars(1.0, 0.0, [1.0, 0, 0, 0], [0.0] * 4, np.zeros((4, 4)))
    assert np.max(np.abs(rim.restriction_operator(b))) == 0.0


def test_restriction_operator_forms_agree(rng):
    g5 = clifford.build().gamma5
    for base in random_rim_bases(rng, 100):
        b = bilinear.compute(base)
        g = rim.restriction_operator(b)
        j2 = clifford.minkowski_dot(b.J, b.J)
        raw = clifford.slash(b.K) @ clifford.slash(b.J) @ g5 / j2
        assert np.max(np.abs(g - raw)) < 1e-10
        assert abs(np.trace(g)) < 1e-10


def test_restriction_operator_null_current():
    b = bilinear.from_scalars(0.0, 0.0, [1.0, 0, 0, 1.0], [1.0, 0, 0, 1.0], np.zeros((4, 4)))
    with pytest.raises(NullCurrent):
        rim.restriction_operator(b)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    decade=st.floats(min_value=-6.0, max_value=6.0),
    phase=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(deadline=None, max_examples=200)
def test_pointwise_identities_hold_under_scale_and_phase(seed, decade, phase):
    gen = np.random.default_rng(seed)
    psi = 10.0**decade * np.exp(1j * phase) * random_spinor(gen)
    a, b = random_valid_params(gen, 1)
    p = rim.validate(a[0], b[0])
    scale = quartic_scale(psi)
    heisenberg, ra, rb = rim.pointwise_residuals(psi, p)
    assert heisenberg / scale <= 1e-10
    assert max(ra, rb) / scale <= 1e-10


_EDGES = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi])


def _domain_by_definition(phi1, phi2):
    """The domain number of an angle pair from the open quarter intervals."""
    quarters = []
    for phi in (phi1 % (2 * np.pi), phi2 % (2 * np.pi)):
        quarters.append(next((i for i in range(1, 5) if _EDGES[i - 1] < phi < _EDGES[i]), None))
    return rim.DOMAIN_PAIRS.get(tuple(quarters), 0)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=16))
@settings(deadline=None, max_examples=100)
def test_validate_and_domain_of_arrays_equal_each_row_bit_for_bit(seed, n):
    gen = np.random.default_rng(seed)
    # couplings in every quarter pair, over six decades
    re = gen.uniform(0.2, 1.5, n) * gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-3, 3, n)
    a = re + 1j * gen.uniform(-1.0, 1.0, n) * 10.0 ** gen.uniform(-3, 3, n)
    b = re + 1j * gen.uniform(0.2, 1.5, n) * gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-3, 3, n)
    p = rim.validate(a, b)
    rows = [rim.validate(a[i], b[i]) for i in range(n)]
    for name in ("a", "b", "s", "rho"):
        assert getattr(p, name).tobytes() == np.array([getattr(r, name) for r in rows]).tobytes(), name
    assert p.domain.tolist() == [r.domain.value for r in rows]
    # angles over several turns, a third of them on a quarter edge
    phi = gen.uniform(-4 * np.pi, 4 * np.pi, (2, n))
    on_edge = gen.uniform(size=(2, n)) < 0.3
    phi[on_edge] = gen.choice(_EDGES, on_edge.sum())
    tags = rim.domain_of(phi[0], phi[1])
    assert tags.tolist() == [rim.domain_of(x, y).value for x, y in zip(*phi)]
    assert tags.tolist() == [_domain_by_definition(x, y) for x, y in zip(*phi)]


def test_validate_names_the_first_invalid_row():
    a = np.array([0.5 + 0.2j, 0.5 + 0.2j, 0.3 + 1j, 0.5 + 0.2j])
    b = np.array([0.5 - 0.9j, 0.5 - 0.9j, 0.4 + 1j, 0.5 + 0j])
    with pytest.raises(IntegrabilityViolation, match=r"^row 2: Re\(a\)=0\.3 != Re\(b\)=0\.4$"):
        rim.validate(a, b)
    with pytest.raises(DegenerateB, match=r"^row 3: Im\(b\) = 0 makes the axial potential diverge$"):
        rim.validate(a[[0, 1, 0, 3]], b[[0, 1, 0, 3]])
