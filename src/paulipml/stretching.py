"""Complex coordinate stretching and every tau-dependent coefficient.

For Re tau > 0 and nonnegative absorptions sigma_j(x_j) supported in the
outer layer of the box, the stretched coordinates are

    X_j(tau, x_j) = x_j + (1/tau) * int_0^{x_j} sigma_j(s) ds,

so that dX_j/dx_j = (tau + sigma_j)/tau.  All quantities of the
stretched boundary-value problem are rational or algebraic in the three
ratios tau/(tau + sigma_j): the conormal nu_tilde, the volume factor Pi,
the divergence-form coefficients c_j, the transverse field V, the
boundary weight pair (Phi, beta), the frame (normal, mean curvature) of
the stretched image of the rounded boundary, and the boundary defect
matrix m.  Principal branches are used throughout; a ContinuationError
signals a branch-cut crossing or a vanishing denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import principal_sqrt
from .errors import ContinuationError
from .geometry import BoundaryPoint
from . import algebra

__all__ = [
    "AbsorptionProfile",
    "StretchContext",
    "principal_sqrt",
]

# 48-point Gauss-Legendre rule on [-1, 1] for the smooth-bump antiderivative
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


@dataclass(frozen=True)
class AbsorptionProfile:
    """Even absorption profile on one axis.

    Vanishes on [-a, a] and rises on a < |s| <= b as

        polynomial bump:  sigma0 * t^m,          t = (|s| - a)/(b - a)
        smooth bump:      sigma0 * e * exp(-1/t)

    The polynomial bump of order m is C^{m-1} at |s| = a; the smooth
    bump is infinitely flat there.  Both reach sigma0 at |s| = b.
    """

    a: float
    b: float
    sigma0: float = 0.0
    kind: str = "polynomial_bump"
    order: int = 3

    def __post_init__(self):
        if not 0 <= self.a < self.b:
            raise ValueError("need 0 <= a < b")
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        if self.kind not in ("polynomial_bump", "smooth_bump"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "polynomial_bump" and self.order < 1:
            raise ValueError("polynomial bump order must be >= 1")

    @staticmethod
    def zero(b: float) -> "AbsorptionProfile":
        return AbsorptionProfile(a=0.5 * b, b=b, sigma0=0.0)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        t = np.clip((np.abs(s) - self.a) / (self.b - self.a), 0.0, 1.0)
        if self.kind == "polynomial_bump":
            val = self.sigma0 * t ** self.order
        else:
            with np.errstate(divide="ignore"):
                val = np.where(t > 0,
                               self.sigma0 * np.e
                               * np.exp(-1.0 / np.maximum(t, 1e-300)),
                               0.0)
        return val if val.shape else float(val)

    def derivative(self, s):
        """d sigma / d s (one-sided limits at the seams)."""
        s = np.asarray(s, dtype=float)
        t = np.clip((np.abs(s) - self.a) / (self.b - self.a), 0.0, 1.0)
        if self.kind == "polynomial_bump":
            mag = (self.sigma0 * self.order / (self.b - self.a)
                   * t ** (self.order - 1))
        else:
            with np.errstate(divide="ignore"):
                tt = np.maximum(t, 1e-300)
                mag = np.where(t > 0,
                               self.sigma0 * np.e * np.exp(-1.0 / tt)
                               / (tt ** 2 * (self.b - self.a)),
                               0.0)
        mag = np.where(np.abs(s) > self.b, 0.0, mag)
        out = np.sign(s) * mag
        return float(out) if out.shape == () else out

    def antiderivative(self, s):
        """int_0^s sigma, closed form for the polynomial bump and fixed
        Gauss quadrature (n = 48, smooth integrand) otherwise."""
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.shape == ()
        s_flat = np.atleast_1d(s_arr)
        t = np.clip((np.abs(s_flat) - self.a) / (self.b - self.a), 0.0, 1.0)
        if self.kind == "polynomial_bump":
            mag = (self.sigma0 * (self.b - self.a) / (self.order + 1)
                   * t ** (self.order + 1))
        else:
            # the rule on [a, a + t (b - a)], for all points at once
            half = 0.5 * t[..., None] * (self.b - self.a)
            mag = half[..., 0] * np.sum(
                _GL_WEIGHTS * self(half * (_GL_NODES + 1.0) + self.a), axis=-1)
        out = np.sign(s_flat) * mag
        return float(out[0]) if scalar else out.reshape(s_arr.shape)


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("x must have last dimension 3")
    return x


def _volume_factor(r) -> np.ndarray:
    """Pi = prod_j 1/r_j from the ratios r (..., 3)."""
    return np.prod(1.0 / r, axis=-1)


def _normalizer(r, nu) -> np.ndarray:
    """(sum nu_j^2 r_j^2)^{1/2} from the ratios r, principal branch."""
    return np.asarray(principal_sqrt(algebra.quadratic(np.asarray(nu) * r)))


# Chart offsets of the stretched jet: the origin, then for each chart
# parameter i the pairs +-h e_i and +-(h/2) e_i, whose central
# differences span 2h and h.
_JET_H = 1e-4
_JET_SPANS = 2.0 * np.array([_JET_H, _JET_H / 2] * 2)
_JET_OFFSETS = np.array([np.zeros(2)] + [
    sign * step * e for e in np.eye(2)
    for step in (_JET_H, _JET_H / 2) for sign in (1.0, -1.0)])


@dataclass(frozen=True)
class StretchContext:
    """Immutable bundle (tau, three absorption profiles).

    All evaluations are pure functions of the stored data; the context
    can be shared freely between threads.
    """

    tau: complex
    profiles: tuple[AbsorptionProfile, AbsorptionProfile, AbsorptionProfile]

    def __post_init__(self):
        if complex(self.tau).real <= 0:
            raise ValueError("Re tau must be positive")
        if len(self.profiles) != 3:
            raise ValueError("need one profile per axis")

    def sigma_at(self, x) -> np.ndarray:
        """All three sigmas at points x (..., 3)."""
        x = _as_points(x)
        return np.stack([self.profiles[j](x[..., j]) for j in range(3)],
                        axis=-1)

    def stretch_map(self, j: int, s):
        """X_j = x_j + (1/tau) int_0^{x_j} sigma_j."""
        s = np.asarray(s, dtype=float)
        out = s + self.profiles[j].antiderivative(s) / self.tau
        return complex(out) if out.shape == () else out.astype(complex)

    def ratios(self, x) -> np.ndarray:
        """The three stretching ratios tau/(tau + sigma_j(x_j))."""
        den = self.tau + self.sigma_at(x)
        if np.any(np.abs(den) < 1e-14 * abs(self.tau)):
            raise ContinuationError("tau + sigma_j vanishes")
        return self.tau / den

    def nu_tilde(self, x, nu) -> np.ndarray:
        """Conormal of the stretched face: component j is
        nu_j tau/(tau + sigma_j(x_j))."""
        return np.asarray(nu) * self.ratios(x)

    def Pi(self, x):
        """Volume factor prod_j (tau + sigma_j)/tau."""
        return _volume_factor(self.ratios(x))

    def p_coefficients(self, x) -> np.ndarray:
        """Divergence-form coefficients c_j = Pi * (tau/(tau+sigma_j))^2.

        Equivalently (tau+sigma_{j+1})(tau+sigma_{j+2})/(tau(tau+sigma_j)),
        indices mod 3.
        """
        r = self.ratios(x)
        return _volume_factor(r)[..., None] * r ** 2

    def V_coefficients(self, x, nu) -> np.ndarray:
        """Coefficient vectors (..., 3) of the transverse first-order
        operator

            V = (sum nu_j^2 r_j^2)^{-1/2} sum nu_j r_j^2 d_j,

        with r_j = tau/(tau + sigma_j), at points x with conormals nu.
        Reduces to nu . grad when all sigmas vanish.
        """
        r = self.ratios(x)
        return np.asarray(nu) * r ** 2 / _normalizer(r, nu)[..., None]

    def Phi(self, x, nu):
        """Boundary weight Phi = Pi (sum nu_j^2 r_j^2)^{1/2} at points x
        with conormals nu."""
        r = self.ratios(x)
        return _volume_factor(r) * _normalizer(r, nu)

    def stretched_jet(self, points: BoundaryPoint):
        """First-order data of the stretched image surface at boundary
        points of any leading shape (...).

        Returns (nu, H, tangents, dnu): the unit conormal (..., 3), the
        mean curvature (...), the two tangent vectors dy/dalpha_i of
        the image surface (columns of a (..., 3, 2) array), and the
        derivatives of the conormal along them (same layout).  On flat
        faces H and dnu are exactly zero.  The normal is normalized by
        the principal square root of its bilinear (not Hermitian)
        quadratic form, so all of it is holomorphic in tau above the
        continuation threshold.  The linear extension
        m(y) = nu + B (y - y0) with B tangents_i = dnu_i, B nu = 0 has
        the exact jet of the normal field that is constant along normal
        lines; the identity checks rely on this.
        """
        tangents = points.chart_jacobian(_JET_OFFSETS) \
            / self.ratios(points.chart(_JET_OFFSETS))[..., None]
        n = np.cross(tangents[..., 0], tangents[..., 1])
        nhat = n / principal_sqrt(algebra.quadratic(n))[..., None]
        # central differences at the +-h and +-h/2 offset pairs, then
        # Richardson: column i is (4 d_{h/2} - d_h) / 3
        d = (nhat[..., 1::2, :] - nhat[..., 2::2, :]) / _JET_SPANS[:, None]
        dn = np.swapaxes((4.0 * d[..., 1::2, :] - d[..., 0::2, :]) / 3.0,
                         -1, -2)
        t0 = tangents[..., 0, :, :]
        # shape operator: dnu_i = sum_j S[j, i] tangent_j
        S = np.linalg.pinv(t0) @ dn
        H = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
        face = points.kind == 0
        H = np.where(face, 0.0, H)[()]
        dn = np.where(face[..., None, None], 0.0, dn)
        return nhat[..., 0, :], H, t0, dn

    def Phi_beta(self, points):
        """Boundary weights Phi = Pi (sum nu_j^2 r_j^2)^{1/2} and
        beta = tau + 2 H, H the stretched mean curvature, at boundary
        points: two arrays of their leading shape (...)."""
        _, H, _, _ = self.stretched_jet(points)
        return self.Phi(points.x, points.nu), self.tau + 2.0 * H

    def m_matrix(self, points) -> np.ndarray:
        """Boundary defect matrix

            m = tau * pi^-(nu~)^T (conj(pi^+(nu~)) - pi^+(nu~)^T),

        where ^T is the plain transpose (adjoint for the bilinear dot
        product) and nu~ is the stretched conormal.  Vanishes on all six
        flat faces and is supported near the stretched edges and
        corners.  Boundary points of leading shape (...) give shape
        (..., 2, 2).
        """
        nt = self.nu_tilde(points.x, points.nu)
        pi_m = algebra.projector(-1, nt)
        pi_p = algebra.projector(+1, nt)
        return self.tau * np.swapaxes(pi_m, -1, -2) \
            @ (np.conj(pi_p) - np.swapaxes(pi_p, -1, -2))
