import numpy as np
import pytest

from spinorlab import clifford

from conftest import random_spinor


def test_gamma5_is_fixed_diagonal(gamma):
    assert np.allclose(gamma.gamma5, np.diag([-1, -1, 1, 1]), atol=1e-15)


def test_gamma5_matches_quadruple_product(gamma):
    g = gamma.gamma
    product = 1j * g[0] @ g[1] @ g[2] @ g[3]
    assert np.max(np.abs(gamma.gamma5 - product)) < 1e-12


def test_gamma0_squares_to_identity(gamma):
    assert np.allclose(gamma.gamma[0] @ gamma.gamma[0], np.eye(4))


@pytest.mark.parametrize("mu", range(4))
@pytest.mark.parametrize("nu", range(4))
def test_anticommutators(gamma, mu, nu):
    lhs = clifford.anticommutator(gamma.gamma[mu], gamma.gamma[nu])
    assert np.max(np.abs(lhs - 2 * gamma.metric[mu, nu] * np.eye(4))) < 1e-12


def test_hermiticity(gamma):
    assert np.allclose(gamma.gamma[0], gamma.gamma[0].conj().T)
    for k in (1, 2, 3):
        assert np.allclose(gamma.gamma[k], -gamma.gamma[k].conj().T)


def test_projector_completeness_orthogonality():
    p1, p2 = clifford.projector(1), clifford.projector(2)
    assert np.array_equal(p1 + p2, np.eye(4))
    assert np.max(np.abs(p1 @ p2)) == 0.0
    assert np.array_equal(p1 @ p1, p1)
    assert np.array_equal(p2 @ p2, p2)


def test_projector2_is_positive_chirality(gamma):
    assert np.allclose(clifford.projector(2), 0.5 * (np.eye(4) + gamma.gamma5))


def test_projector_rejects_bad_block():
    with pytest.raises(ValueError):
        clifford.projector(3)


def test_slash_unit_vectors(gamma):
    # slash(e_mu) = eta_{mu mu} gamma^mu pins the sign of each term
    for mu in range(4):
        assert np.array_equal(clifford.slash(np.eye(4)[mu]), clifford.ETA[mu] * gamma.gamma[mu])


def test_slash_square_gives_norm(rng):
    for _ in range(100):
        v = random_spinor(rng)
        sq = clifford.slash(v) @ clifford.slash(v)
        assert np.max(np.abs(sq - clifford.minkowski_dot(v, v) * np.eye(4))) < 1e-12


def test_slash_polarization(rng):
    for _ in range(100):
        u, v = random_spinor(rng), random_spinor(rng)
        su, sv = clifford.slash(u), clifford.slash(v)
        target = 2 * clifford.minkowski_dot(u, v) * np.eye(4)
        assert np.max(np.abs(su @ sv + sv @ su - target)) < 1e-12


def test_matrices_are_immutable(gamma):
    with pytest.raises(ValueError):
        gamma.gamma5[0, 0] = 5.0
