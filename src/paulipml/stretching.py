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
from scipy.integrate import fixed_quad

from .algebra import principal_sqrt
from .errors import ContinuationError
from .geometry import BoundaryPoint
from . import algebra

__all__ = [
    "AbsorptionProfile",
    "StretchContext",
    "principal_sqrt",
    "continuation_threshold",
]


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
            mag = np.empty_like(s_flat)
            for idx, ti in np.ndenumerate(t):
                if ti <= 0:
                    mag[idx] = 0.0
                else:
                    hi = self.a + ti * (self.b - self.a)
                    mag[idx], _ = fixed_quad(self, self.a, hi, n=48)
        out = np.sign(s_flat) * mag
        return float(out[0]) if scalar else out.reshape(s_arr.shape)


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("x must have last dimension 3")
    return x


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

    def sigma(self, j: int, s):
        """sigma_j evaluated at coordinate s; j in 0..2."""
        return self.profiles[j](s)

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
        r = self.ratios(x)
        return np.prod(1.0 / r, axis=-1)

    def p_coefficients(self, x) -> np.ndarray:
        """Divergence-form coefficients c_j = Pi * (tau/(tau+sigma_j))^2.

        Equivalently (tau+sigma_{j+1})(tau+sigma_{j+2})/(tau(tau+sigma_j)),
        indices mod 3.
        """
        r = self.ratios(x)
        return self.Pi(x)[..., None] * r ** 2 if r.ndim > 1 \
            else self.Pi(x) * r ** 2

    def _normalizer(self, x, nu) -> complex:
        nt = self.nu_tilde(x, nu)
        return principal_sqrt(algebra.quadratic(nt))

    def V_coefficients(self, bp: BoundaryPoint) -> np.ndarray:
        """Coefficient vector of the transverse first-order operator

            V = (sum nu_j^2 r_j^2)^{-1/2} sum nu_j r_j^2 d_j,

        with r_j = tau/(tau + sigma_j).  Reduces to nu . grad when all
        sigmas vanish.
        """
        r = self.ratios(bp.x)
        norm = self._normalizer(bp.x, bp.nu)
        return np.asarray(bp.nu) * r ** 2 / norm

    def stretched_jet(self, bp: BoundaryPoint):
        """First-order data of the stretched image surface at bp.

        Returns (nu, H, tangents, dnu): the unit conormal, the mean
        curvature, the two tangent vectors dy/dalpha_i of the image
        surface (columns of a 3x2 array), and the derivatives of the
        conormal along them (same layout).  The linear extension
        m(y) = nu + B (y - y0) with B tangents_i = dnu_i, B nu = 0 has
        the exact jet of the normal field that is constant along normal
        lines; the identity checks rely on this.
        """
        if bp.chart is None:
            raise ValueError("boundary point carries no chart")

        def frame_at(alpha):
            a = np.asarray(alpha, dtype=float)
            x = bp.chart(a)
            jac = bp.chart_jacobian(a)
            tangents = jac / self.ratios(x)[:, None]
            n = np.cross(tangents[:, 0], tangents[:, 1])
            nhat = n / principal_sqrt(algebra.quadratic(n))
            return nhat, tangents

        nu0, t0 = frame_at(np.zeros(2))
        if bp.patch[0] == "face":
            return nu0, 0.0 + 0.0j, t0, np.zeros((3, 2), dtype=complex)
        h = 1e-4

        def dnu(i, step):
            e = np.zeros(2)
            e[i] = step
            return (frame_at(e)[0] - frame_at(-e)[0]) / (2 * step)

        cols = []
        for i in range(2):
            d1 = dnu(i, h)
            d2 = dnu(i, h / 2)
            cols.append((4.0 * d2 - d1) / 3.0)
        dn = np.stack(cols, axis=1)
        # shape operator: dnu_i = sum_j S[j, i] tangent_j
        S, *_ = np.linalg.lstsq(t0, dn, rcond=None)
        return nu0, complex(0.5 * np.trace(S)), t0, dn

    def stretched_frame(self, bp: BoundaryPoint) -> tuple[np.ndarray, complex]:
        """Unit conormal and mean curvature of the stretched image of
        the rounded boundary at bp.

        The image surface is alpha -> X(tau, chart(alpha)).  Tangents
        come from the closed-form Jacobian dX/dx = diag(1/r_j); the
        normal is their cross product normalized by the principal square
        root of its own quadratic form (bilinear, not Hermitian).  The
        Weingarten map is assembled from Richardson-extrapolated central
        differences of the normal in the chart parameters, and the mean
        curvature is half its trace.  Everything is rational/algebraic
        in 1/tau, hence holomorphic above the continuation threshold.
        """
        nu0, H, _, _ = self.stretched_jet(bp)
        return nu0, H

    def Phi_beta(self, bp: BoundaryPoint) -> tuple[complex, complex]:
        """Boundary weights Phi = Pi (sum nu_j^2 r_j^2)^{1/2} and
        beta = tau + 2 H, H the stretched mean curvature at bp."""
        phi = complex(self.Pi(bp.x)) * self._normalizer(bp.x, bp.nu)
        _, H = self.stretched_frame(bp)
        return phi, self.tau + 2.0 * H

    def m_matrix(self, bp: BoundaryPoint) -> np.ndarray:
        """Boundary defect matrix

            m = tau * pi^-(nu~)^T (conj(pi^+(nu~)) - pi^+(nu~)^T),

        where ^T is the plain transpose (adjoint for the bilinear dot
        product) and nu~ is the stretched conormal.  Vanishes on all six
        flat faces and is supported near the stretched edges and
        corners.
        """
        nt = self.nu_tilde(bp.x, bp.nu)
        pi_m = algebra.projector(-1, nt)
        pi_p = algebra.projector(+1, nt)
        return self.tau * pi_m.T @ (np.conj(pi_p) - pi_p.T)


def continuation_threshold(profiles, bp: BoundaryPoint,
                           direction: complex = 1.0,
                           r_max: float = 1e4) -> float:
    """Empirical continuation threshold along the ray tau = r*direction.

    Bisects for the smallest radius r in (0, r_max] at which every
    coefficient (ratios, normalizer, stretched frame, m) evaluates
    without a ContinuationError at bp; returns r_max if none is found.
    The result is a measured, grid-dependent quantity, not a sharp
    constant.
    """
    direction = complex(direction)
    direction /= abs(direction)
    if direction.real <= 0:
        raise ValueError("ray must point into the right half plane")

    def ok(r: float) -> bool:
        try:
            ctx = StretchContext(r * direction, tuple(profiles))
            ctx.V_coefficients(bp)
            ctx.Phi_beta(bp)
            ctx.m_matrix(bp)
        except (ContinuationError, ValueError):
            return False
        return True

    lo, hi = 0.0, r_max
    if not ok(hi):
        return r_max
    # walk down until failure, then bisect the boundary
    r = hi
    while r > 1e-6 and ok(r / 2):
        r /= 2
    if r <= 1e-6:
        return 0.0
    lo, hi = r / 2, r
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
