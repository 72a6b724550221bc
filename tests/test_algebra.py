"""Exact-matrix oracles and random-sample properties of the symbol
algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulipml import algebra
from paulipml import geometry as geo
from paulipml.errors import ContinuationError, DomainError
from paulipml.stretching import AbsorptionProfile, StretchContext

I2 = np.eye(2)


def _random_domain_xi(rng):
    """Random complex direction with |Im| < 0.8 |Re|."""
    re = rng.standard_normal(3)
    re /= np.linalg.norm(re)
    im = rng.standard_normal(3)
    im *= 0.8 * rng.uniform(0.0, 1.0) / np.linalg.norm(im)
    scale = rng.uniform(0.2, 5.0)
    return scale * (re + 1j * im)


# -- frozen oracles ------------------------------------------------------

def test_matrices_are_the_standard_triple():
    a1, a2, a3 = algebra.pauli_matrices()
    assert np.array_equal(a1, np.diag([1.0, -1.0]))
    assert np.array_equal(a2, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(a3, np.array([[0, 1j], [-1j, 0]]))


def test_eigenvalues_345_triangle():
    lp, lm = algebra.eigenvalues([3.0, 4.0, 0.0])
    assert lp == pytest.approx(5.0)
    assert lm == pytest.approx(-5.0)


def test_eigenvalues_complex_direction():
    # sum xi_j^2 = 1 + (0.5i)^2 = 0.75
    lp, lm = algebra.eigenvalues([1.0, 0.5j, 0.0])
    assert lp == pytest.approx(np.sqrt(0.75))
    assert lm == pytest.approx(-np.sqrt(0.75))


def test_projector_e1_is_diagonal():
    assert np.allclose(algebra.projector(+1, [1.0, 0, 0]), np.diag([1.0, 0]))
    assert np.allclose(algebra.projector(-1, [1.0, 0, 0]), np.diag([0, 1.0]))


def test_partial_inverse_e1():
    assert np.allclose(algebra.partial_inverse([1.0, 0, 0]),
                       np.diag([0.0, -0.5]))


def test_projector_rejects_bad_sign():
    with pytest.raises(ValueError):
        algebra.projector(2, [1.0, 0, 0])


def test_domain_rejection_outside_cone():
    for xi in ([1.0 + 1.0j, 0, 0], [0.0, 0, 0], [1.0, 2.0j, 0]):
        assert not algebra.in_holomorphy_domain(xi)
        with pytest.raises(DomainError):
            algebra.eigenvalues(xi)
    # the projector needs only sum xi_j^2 off the cut: 2i is, -3 and 0 are not
    assert np.allclose(algebra.projector(+1, [1.0 + 1.0j, 0, 0]),
                       np.diag([1.0, 0]))
    for xi in ([1.0, 2.0j, 0], [0.0, 0, 0]):
        with pytest.raises(ContinuationError):
            algebra.projector(+1, xi)


def test_projector_stack_matches_pointwise():
    """Directions with leading axes give exactly the pointwise
    projectors, also for stretched conormals outside the cone."""
    rng = np.random.default_rng(3)
    free = rng.standard_normal((40, 3)) + 3j * rng.standard_normal((40, 3))
    q = geo.RoundedBox(geo.BoxDomain((1.0, 1.0, 1.0)), delta=0.3)
    ctx = StretchContext(0.1 + 1.0j, tuple(
        AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0) for _ in range(3)))
    stretched = np.array([ctx.nu_tilde(bp.x, bp.nu)
                          for bp in geo.sample_boundary(q, density=2)])
    assert not any(algebra.in_holomorphy_domain(x) for x in stretched)
    xi = np.concatenate([free, stretched])
    for sign in (+1, -1):
        stack = algebra.projector(sign, xi.reshape(-1, 2, 3))
        assert stack.shape == (len(xi) // 2, 2, 2, 2)
        for i, x in enumerate(xi):
            assert np.array_equal(stack[i // 2, i % 2],
                                  algebra.projector(sign, x))


# -- thousand-sample residual properties ---------------------------------

def test_spectral_calculus_residuals():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        xi = _random_domain_xi(rng)
        a = algebra.symbol(xi)
        lam, _ = algebra.eigenvalues(xi)
        pp = algebra.projector(+1, xi)
        pm = algebra.projector(-1, xi)
        q = algebra.partial_inverse(xi)
        scale = max(1.0, np.abs(a).max())
        res = [
            a @ a - algebra.quadratic(xi) * I2,       # symbol squares
            pp + pm - I2,                             # resolution of identity
            pp @ pp - pp, pm @ pm - pm, pp @ pm,      # idempotent, disjoint
            a @ pp - lam * pp, a @ pm + lam * pm,     # eigen relations
            q @ (a - lam * I2) - (I2 - pp),           # partial inverse
            q @ pp,
        ]
        worst = max(worst, max(np.abs(r).max() for r in res) / scale)
    assert worst <= 1e-10


def test_anticommutation_exact():
    a = algebra.pauli_matrices()
    for j in range(3):
        for k in range(3):
            want = 2.0 * I2 if j == k else np.zeros((2, 2))
            assert np.allclose(a[j] @ a[k] + a[k] @ a[j], want, atol=0)


def test_projector_derivative_order():
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    eta = rng.standard_normal(3)
    exact = algebra.projector_derivative(xi, eta)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        fd = (algebra.projector(+1, xi + h * eta)
              - algebra.projector(+1, xi - h * eta)) / (2 * h)
        errs.append(np.abs(fd - exact).max())
    order = np.mean(np.log(np.array(errs[:-1]) / np.array(errs[1:]))
                    / np.log(10.0))
    assert order >= 1.9


def test_projector_derivative_needs_unit_xi():
    with pytest.raises(DomainError):
        algebra.projector_derivative([2.0, 0, 0], [0, 1.0, 0])


# -- hypothesis properties -----------------------------------------------

real_dirs = st.lists(st.floats(-1, 1, allow_nan=False), min_size=3,
                     max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(max_examples=200, deadline=None)
@given(real_dirs)
def test_real_directions_spectral_identity(v):
    xi = np.asarray(v, dtype=float)
    lam, _ = algebra.eigenvalues(xi)
    assert lam == pytest.approx(np.linalg.norm(xi))
    pp = algebra.projector(+1, xi)
    # Hermitian projector for real xi
    assert np.allclose(pp, pp.conj().T, atol=1e-12)
    assert np.allclose(pp @ pp, pp, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(real_dirs, st.floats(0.1, 10.0))
def test_projector_scale_invariance(v, c):
    xi = np.asarray(v, dtype=float)
    assert np.allclose(algebra.projector(+1, c * xi),
                       algebra.projector(+1, xi), atol=1e-10)
