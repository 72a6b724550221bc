"""Exact 2x2 complex algebra of the Pauli symbol.

The symbol A(xi) = A1 xi1 + A2 xi2 + A3 xi3 is built from the three
coefficient matrices of the first-order system.  Away from the complex
cone {xi : sum xi_j^2 = 0} it has two simple eigenvalues
+-(sum xi_j^2)^{1/2} (principal square-root branch).

``projector`` is defined wherever sum xi_j^2 lies off the branch cut
(-inf, 0] and raises ContinuationError on it.  That covers the
stretched conormals of the absorbing layer, most of which lie outside
the cone |Im xi| < |Re xi|.  ``eigenvalues`` and ``partial_inverse``
keep to that cone, on which sum xi_j^2 stays off the cut, and raise
DomainError outside it.

``symbol``, ``quadratic`` and ``projector`` take directions of shape
(..., 3) with any leading axes; ``principal_sqrt`` works elementwise.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import ContinuationError, DomainError

__all__ = [
    "pauli_matrices",
    "symbol",
    "quadratic",
    "principal_sqrt",
    "eigenvalues",
    "projector",
    "partial_inverse",
    "projector_derivative",
    "in_holomorphy_domain",
]

_A1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_A2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_A3 = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return copies of the three coefficient matrices (A1, A2, A3)."""
    return _A1.copy(), _A2.copy(), _A3.copy()


def symbol(xi) -> np.ndarray:
    """Symbol A(xi) = [[xi1, xi2 + i xi3], [xi2 - i xi3, -xi1]]."""
    xi = np.asarray(xi, dtype=complex)
    x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
    a = np.empty(xi.shape[:-1] + (2, 2), dtype=complex)
    a[..., 0, 0], a[..., 0, 1] = x1, x2 + 1j * x3
    a[..., 1, 0], a[..., 1, 1] = x2 - 1j * x3, -x1
    return a


def quadratic(xi):
    """Holomorphic quadratic form sum_j xi_j^2 (NOT |xi|^2)."""
    xi = np.asarray(xi, dtype=complex)
    q = np.sum(xi * xi, axis=-1)
    return complex(q) if q.ndim == 0 else q


def principal_sqrt(z):
    """Principal square root, rejecting the branch cut.

    Raises ContinuationError when z lies on (-inf, 0] up to a relative
    tolerance, since values straddling the cut cannot be continued.
    Elementwise on arrays; a scalar gives a complex.
    """
    z = np.asarray(z, dtype=complex)
    cut = (z.real <= 0) & (np.abs(z.imag)
                           <= 1e-13 * np.maximum(1.0, np.abs(z.real)))
    if np.any(cut):
        raise ContinuationError(
            f"radicand {complex(z[cut][0])} on the branch cut (-inf, 0]")
    root = np.sqrt(z)
    return complex(root) if root.ndim == 0 else root


def in_holomorphy_domain(xi) -> bool:
    """True when |Im xi| < |Re xi| (and xi != 0)."""
    xi = np.asarray(xi, dtype=complex)
    re = np.linalg.norm(xi.real)
    im = np.linalg.norm(xi.imag)
    return im < re


def _lambda_plus(xi) -> complex:
    if not in_holomorphy_domain(xi):
        raise DomainError(
            f"xi={np.asarray(xi)} outside |Im xi| < |Re xi|; spectral "
            "quantities are not defined there"
        )
    return complex(np.sqrt(quadratic(xi)))


def eigenvalues(xi) -> tuple[complex, complex]:
    """Eigenvalues (lambda+, lambda-) = +-(sum xi_j^2)^{1/2}.

    Raises DomainError outside |Im xi| < |Re xi|.
    """
    lam = _lambda_plus(xi)
    return lam, -lam


def projector(sign: int, xi) -> np.ndarray:
    """Spectral projection pi^{+-}(xi) = (I +- A(xi)/lambda)/2 onto the
    eigenspace of A(xi) with eigenvalue +-lambda, for real or complex
    directions xi of shape (..., 3).

    ``sign`` is +1 or -1.  Raises ContinuationError where sum xi_j^2
    lies on the branch cut (-inf, 0].
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = np.asarray(principal_sqrt(quadratic(xi)))
    return 0.5 * (sign * symbol(xi) / lam[..., None, None] + _I2)


def partial_inverse(xi) -> np.ndarray:
    """Partial inverse Q(xi) = -pi^-(xi) / (2 lambda+).

    Satisfies Q (A - lambda+ I) = I - pi^+ and Q pi^+ = 0.
    """
    lam = _lambda_plus(xi)
    return projector(-1, xi) / (-2.0 * lam)


def projector_derivative(xi, eta) -> np.ndarray:
    """Directional derivative of s -> pi^+(xi + s eta) at s = 0.

    First-order perturbation theory for the simple eigenvalue lambda+:

        d pi^+ = -pi^+(xi) A(eta) Q(xi) - Q(xi) A(eta) pi^+(xi).

    ``xi`` must be a real unit vector (the case consumed by the boundary
    identity checks); ``eta`` is an arbitrary real direction.
    """
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise DomainError("projector_derivative expects a real unit vector xi")
    eta = np.asarray(eta, dtype=float)
    pi_p = projector(+1, xi)
    q = partial_inverse(xi)
    a_eta = symbol(eta)
    return -pi_p @ a_eta @ q - q @ a_eta @ pi_p
