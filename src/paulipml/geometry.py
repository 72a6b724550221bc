"""Box and rounded-box geometry with exact normals and curvatures.

The computational domain is the open box Q(L1, L2, L3) centered at the
origin.  Its smoothed version Q_delta is realized as the Minkowski sum
of the box shrunk by r = delta/2 with the closed ball of radius r.  The
boundary of Q_delta then decomposes into

- 6 flat faces    (principal curvatures 0, 0),
- 12 quarter-cylinder edge strips (curvatures 1/r, 0),
- 8 octant-sphere corner caps     (curvatures 1/r, 1/r),

all with closed-form outward normals, so every sampled boundary point
carries its curvature data exactly.  Boundary points are stacked along
leading axes, and each exposes a local chart alpha -> x(alpha) with
analytic Jacobian; the stretching module uses these to continue the
normal and mean curvature of the image surface in tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = [
    "BoxDomain",
    "RoundedBox",
    "BoundaryPoint",
    "faces",
    "rounded_box_point",
    "sample_boundary",
    "singular_distance",
]

_EYE = np.eye(3)


def _norm(v):
    """Euclidean norm over the last axis, summed in component order."""
    return np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)


def faces():
    """Yield (k, axis, sign, normal, index) for the six faces, k = 1..6.

    Faces 1-3 are the x_j = -L_j/2 planes (normal -e_j); faces 4-6 the
    x_j = +L_j/2 planes (normal +e_j).  ``axis`` is 0-based, ``normal``
    a fresh array, and ``index`` picks the nodes of face k out of an
    (n1, n2, n3) node array: the first or the last node along ``axis``.
    """
    for k in range(1, 7):
        axis, sign = (k - 1, -1) if k <= 3 else (k - 4, +1)
        index = [slice(None)] * 3
        index[axis] = -1 if sign > 0 else 0
        yield k, axis, sign, sign * _EYE[axis], tuple(index)


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

    def signed_distance(self, x):
        """Signed distance of points x (..., 3) to the boundary of
        Q_delta (negative inside)."""
        d = np.abs(np.asarray(x, dtype=float)) - self.core_h
        outside = _norm(np.maximum(d, 0.0))
        inside = np.minimum(np.max(d, axis=-1), 0.0)
        return outside + inside - self.radius

    def normal(self, x) -> np.ndarray:
        """Outward unit normal at the boundary point nearest to x (...,
        3), so constant along normal lines, at any x: the normal of the
        shrunk box's nearest face where x is beyond it along at most one
        axis, else d/|d| for the offset d of x from the shrunk box."""
        x = np.asarray(x, dtype=float)
        d = x - np.clip(x, -self.core_h, self.core_h)
        nrm = _norm(d)[..., None]
        axis = np.argmin(self.core_h - np.abs(x), axis=-1)
        sign = np.where(np.take_along_axis(x, axis[..., None], -1) >= 0,
                        1.0, -1.0)
        face = np.count_nonzero(np.abs(x) > self.core_h, axis=-1) <= 1
        return np.where(face[..., None], sign * _EYE[axis],
                        d / np.where(nrm > 0, nrm, 1.0))


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """Boundary points of a RoundedBox with exact normals, curvatures
    and local charts, stacked along leading axes.

    ``x`` and ``nu`` have shape (..., 3) and ``kind`` shape (...): 0 on
    a flat face, 1 on an edge strip, 2 on a corner cap.  One point is
    the zero-dimensional case.  Indexing the leading axis selects
    points, and a stack iterates over its single points.
    """

    x: np.ndarray
    nu: np.ndarray
    kind: np.ndarray
    box: RoundedBox

    def __len__(self) -> int:
        return len(self.kind)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index) -> "BoundaryPoint":
        return BoundaryPoint(self.x[index], self.nu[index], self.kind[index],
                             self.box)

    @property
    def kappa(self) -> np.ndarray:
        """Principal curvatures (..., 2): (0, 0), (1/r, 0), (1/r, 1/r)."""
        return np.stack([self.kind > 0, self.kind > 1],
                        axis=-1) / self.box.radius

    @property
    def H(self):
        """Mean curvature, half the sum of the principal curvatures."""
        k = self.kappa
        return 0.5 * (k[..., 0] + k[..., 1])

    def _local(self, alpha):
        """Point data reshaped to broadcast against the offsets alpha
        (..., 2), the centre c of the osculating sphere or cylinder, the
        tangent frame, and the two chart parameters."""
        alpha = np.asarray(alpha, dtype=float)
        shape = self.kind.shape + (1,) * (alpha.ndim - 1)
        x, nu = (a.reshape(shape + (3,)) for a in (self.x, self.nu))
        q = self.box
        c = np.clip(x, -q.core_h, q.core_h)
        # one frame for every kind: t1 x t2 = nu by construction
        aux = _EYE[np.argmin(np.abs(nu), axis=-1)]
        t1 = np.cross(nu, aux)
        t1 = t1 / _norm(t1)[..., None]
        t2 = np.cross(nu, t1)
        return (x, nu, c, t1, t2, self.kind.reshape(shape + (1,)),
                alpha[..., :1], alpha[..., 1:])

    def chart(self, alpha) -> np.ndarray:
        """Boundary points at chart parameters alpha (..., 2), the same
        offsets at every point: shape self.kind.shape + alpha.shape[:-1]
        + (3,).  chart(0) is x and t1 x t2 points outward."""
        x, nu, c, t1, t2, kind, a1, a2 = self._local(alpha)
        r = self.box.radius
        face = x + a1 * t1 + a2 * t2
        edge = c + r * (np.cos(a1 / r) * nu + np.sin(a1 / r) * t1) + a2 * t2
        v = nu + (a1 * t1 + a2 * t2) / r
        corner = c + r * v / _norm(v)[..., None]
        return np.where(kind == 0, face, np.where(kind == 1, edge, corner))

    def chart_jacobian(self, alpha) -> np.ndarray:
        """d chart / d alpha at the offsets alpha, columns in the last
        axis: shape self.kind.shape + alpha.shape[:-1] + (3, 2)."""
        x, nu, c, t1, t2, kind, a1, a2 = self._local(alpha)
        r = self.box.radius
        edge = -np.sin(a1 / r) * nu + np.cos(a1 / r) * t1
        v = nu + (a1 * t1 + a2 * t2) / r
        nv = _norm(v)[..., None]
        corner = [r * (dv / nv - v * np.sum(v * dv, axis=-1, keepdims=True)
                       / nv ** 3) for dv in (t1 / r, t2 / r)]
        d1 = np.where(kind == 0, t1, np.where(kind == 1, edge, corner[0]))
        d2 = np.where(kind == 2, corner[1], t2)
        return np.stack(np.broadcast_arrays(d1, d2), axis=-1)


def rounded_box_point(q: RoundedBox, x) -> BoundaryPoint:
    """Project points x (..., 3) onto the boundary of Q_delta and
    classify their patches.

    Every point must lie within radius/2 of the boundary; otherwise
    GeometryError.
    """
    x = np.asarray(x, dtype=float)
    r = q.radius
    dist = q.signed_distance(x)
    if np.any(np.abs(dist) > r / 2.0):
        worst = float(np.max(np.abs(dist)))
        raise GeometryError(
            f"a point is {worst:.3g} from the boundary; "
            "projection would be ambiguous")
    kind = np.maximum(np.count_nonzero(np.abs(x) > q.core_h, axis=-1) - 1, 0)
    nu = q.normal(x)
    # a face point keeps its tangential coordinates
    face_x = np.where(nu != 0.0, nu * q.parent.h, x)
    return BoundaryPoint(
        np.where((kind == 0)[..., None], face_x,
                 np.clip(x, -q.core_h, q.core_h) + r * nu), nu, kind, q)


def _gauss(n: int, a: float, b: float) -> np.ndarray:
    """The n Gauss-Legendre nodes of [a, b]."""
    x, _ = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b)


def _grid(u, v):
    """Flattened product grid of two node arrays, u outer."""
    return (a.ravel() for a in np.meshgrid(u, v, indexing="ij"))


def sample_boundary(q: RoundedBox, density: float = 100.0) -> BoundaryPoint:
    """Boundary points of Q_delta on a product grid per patch.

    Returns the stacked points, faces first, then edge strips, then
    corner caps; the seams carry none.  ``density`` is the target number
    of points per unit area.  The checks read values at the points and
    integrate nothing over them, yet each patch coordinate keeps its
    Gauss-Legendre nodes: other nodes would move every check value
    read from the samples.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    lin = np.sqrt(density)

    def npts(length):
        return max(2, int(np.ceil(length * lin)))

    r, h = q.radius, q.core_h
    arc = _gauss(npts(np.pi * r / 2), 0.0, np.pi / 2)
    xs, nus, kinds = [], [], []

    def add(x, nu, kind):
        xs.append(x)
        nus.append(np.broadcast_to(nu, x.shape))
        kinds.append(np.full(len(x), kind))

    # faces
    for axis in range(3):
        i1, i2 = [i for i in range(3) if i != axis]
        a, b = _grid(_gauss(npts(2 * h[i1]), -h[i1], h[i1]),
                     _gauss(npts(2 * h[i2]), -h[i2], h[i2]))
        for sign in (-1, 1):
            x = np.zeros((len(a), 3))
            x[:, axis] = sign * q.parent.h[axis]
            x[:, i1], x[:, i2] = a, b
            add(x, sign * _EYE[axis], 0)

    # edge strips
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            phi, t = _grid(arc, _gauss(npts(2 * h[k]), -h[k], h[k]))
            for si in (-1, 1):
                for sj in (-1, 1):
                    nu = np.zeros((len(phi), 3))
                    nu[:, i] = si * np.cos(phi)
                    nu[:, j] = sj * np.sin(phi)
                    c = np.zeros_like(nu)
                    c[:, i] = si * h[i]
                    c[:, j] = sj * h[j]
                    c[:, k] = t
                    add(c + r * nu, nu, 1)

    # corner caps (octant of the sphere, local polar coordinates)
    t, p = _grid(arc, arc)
    local = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p),
                      np.cos(t)], axis=-1)
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            for s3 in (-1, 1):
                signs = np.array([s1, s2, s3], dtype=float)
                n0 = signs * local
                add(signs * h + r * n0, n0, 2)
    return BoundaryPoint(np.concatenate(xs), np.concatenate(nus),
                         np.concatenate(kinds), q)


def singular_distance(b: BoxDomain, x):
    """Distance from points x (..., 3) to the union of the 12 edges (and
    corners) of the box."""
    gap = np.abs(np.asarray(x, dtype=float)) - b.h
    out = np.maximum(gap, 0.0)
    # the nearest of the four parallel edges along axis k
    return np.min([np.sqrt(gap[..., i] ** 2 + gap[..., j] ** 2
                           + out[..., k] ** 2)
                   for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0))], axis=0)
