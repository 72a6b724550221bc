"""Box and rounded-box geometry with exact normals and curvatures.

The computational domain is the open box Q(L1, L2, L3) centered at the
origin.  Its smoothed version Q_delta is realized as the Minkowski sum
of the box shrunk by r = delta/2 with the closed ball of radius r.  The
boundary of Q_delta then decomposes into

- 6 flat faces    (principal curvatures 0, 0),
- 12 quarter-cylinder edge strips (curvatures 1/r, 0),
- 8 octant-sphere corner caps     (curvatures 1/r, 1/r),

all with closed-form outward normals, so every sampled boundary point
carries its curvature data exactly.  Each boundary point also exposes a
local chart alpha -> x(alpha) with analytic Jacobian; the stretching
module uses these to continue the normal and mean curvature of the
image surface in tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GeometryError

__all__ = [
    "BoxDomain",
    "RoundedBox",
    "BoundaryPoint",
    "face_normal",
    "face_axis_sign",
    "faces",
    "rounded_box_point",
    "sample_boundary",
    "singular_distance",
    "rounded_box_area",
]

_EYE = np.eye(3)


def face_normal(k: int) -> np.ndarray:
    """Outward unit normal of face k in 1..6.

    Faces 1-3 are the x_j = -L_j/2 planes (normal -e_j); faces 4-6 the
    x_j = +L_j/2 planes (normal +e_j).
    """
    if not 1 <= k <= 6:
        raise IndexError(f"face index {k} outside 1..6")
    if k <= 3:
        return -_EYE[k - 1].copy()
    return _EYE[k - 4].copy()


def face_axis_sign(k: int) -> tuple[int, int]:
    """Axis (0-based) and sign of face k."""
    if not 1 <= k <= 6:
        raise IndexError(f"face index {k} outside 1..6")
    return (k - 1, -1) if k <= 3 else (k - 4, +1)


def faces():
    """Yield (k, axis, sign, normal, index) for the six faces, k = 1..6.

    ``index`` picks the nodes of face k out of an (n1, n2, n3) node
    array: the first or the last node along ``axis``.
    """
    for k in range(1, 7):
        axis, sign = face_axis_sign(k)
        index = [slice(None)] * 3
        index[axis] = -1 if sign > 0 else 0
        yield k, axis, sign, face_normal(k), tuple(index)


@dataclass(frozen=True)
class BoxDomain:
    """Open box {|x_j| < L_j/2} with an inner fraction ell reserved for
    sources."""

    half_lengths: tuple[float, float, float]
    inner_fraction: float = 0.5

    def __post_init__(self):
        if min(self.half_lengths) <= 0:
            raise ValueError("half lengths must be positive")
        if not 0 < self.inner_fraction < 1:
            raise ValueError("inner fraction must lie in (0, 1)")

    @property
    def h(self) -> np.ndarray:
        return np.asarray(self.half_lengths, dtype=float)

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(np.asarray(x, dtype=float)) <= self.h + tol))

    def in_inner_box(self, x, tol: float = 0.0) -> bool:
        return bool(
            np.all(np.abs(np.asarray(x, dtype=float))
                   <= self.inner_fraction * self.h + tol)
        )


@dataclass(frozen=True)
class RoundedBox:
    """Minkowski rounding of a box: shrink by r = delta/2, dilate by the
    ball of radius r.  Agrees with the box at distance > delta from the
    singular set and is convex and C^{1,1}."""

    parent: BoxDomain
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.radius >= min(self.parent.h):
            raise ValueError("delta too large for the box")

    @property
    def radius(self) -> float:
        return self.delta / 2.0

    @property
    def core_h(self) -> np.ndarray:
        """Half lengths of the shrunk box."""
        return self.parent.h - self.radius

    def signed_distance(self, x) -> float:
        """Signed distance to the boundary of Q_delta (negative inside)."""
        x = np.asarray(x, dtype=float)
        d = np.abs(x) - self.core_h
        outside = np.linalg.norm(np.maximum(d, 0.0))
        inside = min(np.max(d), 0.0)
        return outside + inside - self.radius

    def contains(self, x, tol: float = 0.0) -> bool:
        return self.signed_distance(x) <= tol


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point with exact normal, curvature, and a local chart.

    ``patch`` is ("face", k), ("edge", (i, j)), or ("corner", ()) with
    0-based axes for edges.  The chart maps surface parameters
    alpha = (a1, a2) near 0 to points of the boundary, with x(0) equal
    to ``x`` and tangents oriented so that t1 x t2 points outward.
    """

    x: np.ndarray
    patch: tuple
    nu: np.ndarray
    kappa: tuple[float, float]
    chart: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    chart_jacobian: Callable[[np.ndarray], np.ndarray] = field(
        repr=False, default=None)

    @property
    def mean_curvature(self) -> float:
        return 0.5 * (self.kappa[0] + self.kappa[1])

    H = mean_curvature


def _orient(chart, jac, nu):
    """Swap chart parameters if t1 x t2 points inward at alpha = 0."""
    j0 = jac(np.zeros(2))
    if np.dot(np.cross(j0[:, 0], j0[:, 1]), nu) >= 0:
        return chart, jac
    flipped = lambda a: chart(np.array([a[1], a[0]]))
    flipped_jac = lambda a: jac(np.array([a[1], a[0]]))[:, ::-1]
    return flipped, flipped_jac


def _face_point(q: RoundedBox, axis: int, sign: int, x: np.ndarray) -> BoundaryPoint:
    nu = sign * _EYE[axis]
    i1, i2 = [i for i in range(3) if i != axis]
    x0 = x.copy()
    x0[axis] = sign * q.parent.h[axis]

    def chart(a, x0=x0, i1=i1, i2=i2):
        p = x0.copy()
        p[i1] += a[0]
        p[i2] += a[1]
        return p

    def jac(a, i1=i1, i2=i2):
        m = np.zeros((3, 2))
        m[i1, 0] = 1.0
        m[i2, 1] = 1.0
        return m

    chart, jac = _orient(chart, jac, nu)
    return BoundaryPoint(x0, ("face", axis + 1 + (3 if sign > 0 else 0)),
                         nu, (0.0, 0.0), chart, jac)


def _edge_point(q: RoundedBox, i: int, j: int, si: int, sj: int,
                phi: float, t: float) -> BoundaryPoint:
    """Point on the quarter cylinder along axis k with angle phi in
    [0, pi/2] (phi = 0 on the face-i side) and axial offset t."""
    r = q.radius
    k = 3 - i - j
    c = np.zeros(3)
    c[i] = si * q.core_h[i]
    c[j] = sj * q.core_h[j]
    c[k] = t

    def normal(p):
        n = np.zeros(3)
        n[i] = si * np.cos(p)
        n[j] = sj * np.sin(p)
        return n

    nu = normal(phi)
    x0 = c + r * nu

    def chart(a, c=c, r=r, phi=phi, k=k):
        n = normal(phi + a[0] / r)
        p = c + r * n
        p[k] += a[1]
        return p

    def jac(a, r=r, phi=phi, i=i, j=j, k=k, si=si, sj=sj):
        p = phi + a[0] / r
        m = np.zeros((3, 2))
        m[i, 0] = -si * np.sin(p)
        m[j, 0] = sj * np.cos(p)
        m[k, 1] = 1.0
        return m

    chart, jac = _orient(chart, jac, nu)
    return BoundaryPoint(x0, ("edge", (i, j)), nu, (1.0 / r, 0.0), chart, jac)


def _corner_point(q: RoundedBox, signs: np.ndarray, n0: np.ndarray) -> BoundaryPoint:
    r = q.radius
    c = signs * q.core_h
    x0 = c + r * n0
    # orthonormal tangent frame at n0
    aux = _EYE[int(np.argmin(np.abs(n0)))]
    t1 = np.cross(n0, aux)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n0, t1)

    def chart(a, c=c, r=r, n0=n0, t1=t1, t2=t2):
        v = n0 + (a[0] * t1 + a[1] * t2) / r
        return c + r * v / np.linalg.norm(v)

    def jac(a, r=r, n0=n0, t1=t1, t2=t2):
        v = n0 + (a[0] * t1 + a[1] * t2) / r
        nv = np.linalg.norm(v)
        cols = []
        for t in (t1, t2):
            dv = t / r
            cols.append(r * (dv / nv - v * np.dot(v, dv) / nv ** 3))
        return np.stack(cols, axis=1)

    chart, jac = _orient(chart, jac, n0)
    return BoundaryPoint(x0, ("corner", ()), n0.copy(), (1.0 / r, 1.0 / r),
                         chart, jac)


def rounded_box_point(q: RoundedBox, x) -> BoundaryPoint:
    """Project x onto the boundary of Q_delta and classify the patch.

    x must lie within radius/2 of the boundary; otherwise GeometryError.
    """
    x = np.asarray(x, dtype=float)
    r = q.radius
    if abs(q.signed_distance(x)) > r / 2.0:
        raise GeometryError(
            f"point {x} is {q.signed_distance(x):+.3g} from the boundary; "
            "projection would be ambiguous")
    d = x - np.clip(x, -q.core_h, q.core_h)
    active = np.abs(x) > q.core_h
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        # inside the shrunk box: nearest face of the shrunk box decides
        gaps = q.core_h - np.abs(x)
        axis = int(np.argmin(gaps))
        sign = 1 if x[axis] >= 0 else -1
        return _face_point(q, axis, sign, x)
    if n_active == 1:
        axis = int(np.nonzero(active)[0][0])
        sign = 1 if x[axis] > 0 else -1
        return _face_point(q, axis, sign, x)
    if n_active == 2:
        i, j = (int(a) for a in np.nonzero(active)[0])
        si = 1 if x[i] > 0 else -1
        sj = 1 if x[j] > 0 else -1
        k = 3 - i - j
        phi = float(np.arctan2(abs(d[j]), abs(d[i])))
        return _edge_point(q, i, j, si, sj, phi, x[k])
    signs = np.sign(x)
    n0 = d / np.linalg.norm(d)
    return _corner_point(q, signs, n0)


def rounded_box_area(q: RoundedBox) -> float:
    """Closed-form surface area: faces + cylinder strips + sphere."""
    h = q.core_h
    r = q.radius
    faces = 8.0 * (h[0] * h[1] + h[0] * h[2] + h[1] * h[2])
    edges = 4.0 * np.pi * r * float(np.sum(h))
    corners = 4.0 * np.pi * r ** 2
    return faces + edges + corners


def _gauss(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def sample_boundary(q: RoundedBox, density: float = 100.0):
    """Per-patch product quadrature of the boundary of Q_delta.

    Returns a list of (BoundaryPoint, weight); weights sum to the
    surface area (seams carry no nodes).  ``density`` is the target
    number of points per unit area.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    lin = np.sqrt(density)

    def npts(length):
        return max(2, int(np.ceil(length * lin)))

    r = q.radius
    h = q.core_h
    out = []

    # faces
    for axis in range(3):
        i1, i2 = [i for i in range(3) if i != axis]
        u, wu = _gauss(npts(2 * h[i1]), -h[i1], h[i1])
        v, wv = _gauss(npts(2 * h[i2]), -h[i2], h[i2])
        for sign in (-1, 1):
            for a, wa in zip(u, wu):
                for b, wb in zip(v, wv):
                    x = np.zeros(3)
                    x[axis] = sign * q.parent.h[axis]
                    x[i1], x[i2] = a, b
                    out.append((_face_point(q, axis, sign, x), wa * wb))

    # edge strips
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            phis, wp = _gauss(npts(np.pi * r / 2), 0.0, np.pi / 2)
            ts, wt = _gauss(npts(2 * h[k]), -h[k], h[k])
            for si in (-1, 1):
                for sj in (-1, 1):
                    for phi, wphi in zip(phis, wp):
                        for t, wtt in zip(ts, wt):
                            bp = _edge_point(q, i, j, si, sj, phi, t)
                            out.append((bp, r * wphi * wtt))

    # corner caps (octant of the sphere, local polar coordinates)
    nang = max(2, int(np.ceil((np.pi * r / 2) * lin)))
    th, wth = _gauss(nang, 0.0, np.pi / 2)
    ph, wph = _gauss(nang, 0.0, np.pi / 2)
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            for s3 in (-1, 1):
                signs = np.array([s1, s2, s3], dtype=float)
                for t, wt in zip(th, wth):
                    for p, wp_ in zip(ph, wph):
                        local = np.array([
                            np.sin(t) * np.cos(p),
                            np.sin(t) * np.sin(p),
                            np.cos(t),
                        ])
                        n0 = signs * local
                        bp = _corner_point(q, signs, n0)
                        out.append((bp, r ** 2 * np.sin(t) * wt * wp_))
    return out


def singular_distance(b: BoxDomain, x) -> float:
    """Distance from x to the union of the 12 edges (and corners) of the
    box."""
    x = np.asarray(x, dtype=float)
    h = b.h
    best = np.inf
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            for si in (-1, 1):
                for sj in (-1, 1):
                    # segment: x_i = si h_i, x_j = sj h_j, |x_k| <= h_k
                    di = x[i] - si * h[i]
                    dj = x[j] - sj * h[j]
                    dk = x[k] - np.clip(x[k], -h[k], h[k])
                    best = min(best, float(np.sqrt(di * di + dj * dj + dk * dk)))
    return best
