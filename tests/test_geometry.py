"""Rounded-box geometry: classification, normals, curvature, charts,
and the boundary samples on every patch."""

import numpy as np
import pytest

from paulipml import geometry as geo
from paulipml.errors import GeometryError


@pytest.fixture
def rbox(unit_box):
    return geo.RoundedBox(unit_box, delta=0.3)


def test_face_normals_and_axes():
    """Faces 1-3 have normal -e_j, its zeros negative, and faces 4-6
    +e_j; each face's index picks its nodes, and each normal is a fresh
    array."""
    normals = [(-1.0, -0.0, -0.0), (-0.0, -1.0, -0.0), (-0.0, -0.0, -1.0),
               (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    on_face = np.zeros((5, 6, 7), dtype=bool)
    listed = list(geo.faces())
    assert [f[0] for f in listed] == [1, 2, 3, 4, 5, 6]
    for (k, axis, sign, nu, index), want in zip(listed, normals):
        assert (axis, sign) == ((k - 1) % 3, -1 if k <= 3 else 1)
        assert np.array_equal(nu, want)
        assert np.array_equal(np.signbit(nu), np.signbit(want))
        on_face[index] = True
    boundary = np.ones((5, 6, 7), dtype=bool)
    boundary[1:-1, 1:-1, 1:-1] = False
    assert np.array_equal(on_face, boundary)
    listed[0][3][0] = 7.0
    assert next(geo.faces())[3][0] == -1.0


def test_rounded_box_validation(unit_box):
    with pytest.raises(ValueError):
        geo.RoundedBox(unit_box, delta=0.0)
    with pytest.raises(ValueError):
        geo.RoundedBox(geo.BoxDomain((0.1, 1, 1)), delta=0.5)


def test_signed_distance_signs(rbox):
    assert rbox.signed_distance([0.0, 0.0, 0.0]) < 0
    assert rbox.signed_distance([2.0, 0.0, 0.0]) > 0
    # face center is exactly on the boundary
    assert rbox.signed_distance([1.0, 0.0, 0.0]) == pytest.approx(0.0)
    # box corner is outside Q_delta (it has been rounded away)
    assert rbox.signed_distance([1.0, 1.0, 1.0]) > 0


def test_classification(rbox):
    bp = geo.rounded_box_point(rbox, [1.0, 0.0, 0.0])
    assert bp.kind == 0
    assert np.allclose(bp.nu, [1, 0, 0])
    assert bp.H == 0.0

    r = rbox.radius
    ch = rbox.core_h
    # point on the edge strip between the +x and +y faces
    mid = np.array([ch[0], ch[1], 0.0]) + r * np.array([1, 1, 0]) / np.sqrt(2)
    bp = geo.rounded_box_point(rbox, mid)
    assert bp.kind == 1
    assert np.allclose(bp.nu, [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])
    assert tuple(bp.kappa) == (1.0 / r, 0.0)
    assert bp.H == pytest.approx(1.0 / (2 * r))

    corner = ch + r * np.ones(3) / np.sqrt(3)
    bp = geo.rounded_box_point(rbox, corner)
    assert bp.kind == 2
    assert tuple(bp.kappa) == (1.0 / r, 1.0 / r)
    assert bp.H == pytest.approx(1.0 / r)


def test_projection_rejects_far_points(rbox):
    with pytest.raises(GeometryError):
        geo.rounded_box_point(rbox, [0.0, 0.0, 0.0])
    # one far point spoils a whole stack
    near = geo.sample_boundary(rbox, density=10.0).x
    geo.rounded_box_point(rbox, near)
    with pytest.raises(GeometryError):
        geo.rounded_box_point(rbox, np.vstack([near, [[0.0, 0.5, 0.0]]]))


def test_chart_properties(rbox):
    """x(0) = x, tangents match the Jacobian, t1 x t2 points outward."""
    pts = [
        [1.0, 0.2, -0.3],
        [0.92, 0.92, 0.1],
        [0.93, 0.91, 0.94],
    ]
    for p in pts:
        bp = geo.rounded_box_point(rbox, p)
        assert np.allclose(bp.chart(np.zeros(2)), bp.x, atol=1e-14)
        j0 = bp.chart_jacobian(np.zeros(2))
        h = 1e-6
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd = (bp.chart(e) - bp.chart(-e)) / (2 * h)
            assert np.allclose(fd, j0[:, c], atol=1e-8)
        out = np.cross(j0[:, 0], j0[:, 1])
        assert np.dot(out, bp.nu) > 0
        # chart stays on the boundary
        a = np.array([0.01, -0.02])
        assert abs(rbox.signed_distance(bp.chart(a))) < 1e-12


def test_samples_lie_on_every_patch(unit_box):
    """Every sample lies on the boundary with a unit normal, and each of
    the 26 patches (6 faces, 12 edge strips, 8 corner caps) carries
    samples of its own kind.  A patch is the set of points beyond the
    shrunk box along the same axes on the same sides."""
    for delta in (0.3, 0.0375):
        q = geo.RoundedBox(unit_box, delta)
        s = geo.sample_boundary(q, density=40.0)
        assert np.max(np.abs(q.signed_distance(s.x))) < 1e-12
        assert np.allclose(np.linalg.norm(s.nu, axis=-1), 1.0,
                           rtol=0, atol=1e-15)
        side = np.sign(s.x) * (np.abs(s.x) > q.core_h)
        assert np.array_equal(np.count_nonzero(side, axis=-1), s.kind + 1)
        patches = {tuple(p) for p in side}
        assert len(patches) == 26
        assert [sum(np.count_nonzero(p) == k + 1 for p in patches)
                for k in (0, 1, 2)] == [6, 12, 8]


def test_singular_distance(unit_box):
    # center of the +x face: nearest edge is 1 away
    assert geo.singular_distance(unit_box, [1.0, 0, 0]) == pytest.approx(1.0)
    # on an edge
    assert geo.singular_distance(unit_box, [1.0, 1.0, 0.3]) == pytest.approx(0.0)
    assert geo.singular_distance(unit_box, [0.9, 0.8, 0.0]) == pytest.approx(
        np.hypot(0.1, 0.2))


def test_far_face_points_match_flat_box(rbox):
    """Q_delta agrees with Q at distance > delta from the edges."""
    bp = geo.rounded_box_point(rbox, [0.5, 0.2, 1.0])
    assert bp.kind == 0
    assert bp.x[2] == pytest.approx(1.0)
    assert geo.singular_distance(rbox.parent, bp.x) > rbox.delta


# -- stacked points against the pointwise definitions -----------------------

def _singular_distance_reference(b, x):
    """The distance to each of the 12 edge segments in turn."""
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
                    best = min(best, float(np.sqrt(di * di + dj * dj
                                                   + dk * dk)))
    return best


def test_singular_distance_matches_edge_loop(unit_box, rng):
    pts = np.vstack([rng.uniform(-1.3, 1.3, (200, 3)),
                     geo.sample_boundary(geo.RoundedBox(unit_box, 0.15),
                                         density=10.0).x])
    got = geo.singular_distance(unit_box, pts)
    assert got.shape == (len(pts),)
    for x, d in zip(pts, got):
        assert d == _singular_distance_reference(unit_box, x)
        assert geo.singular_distance(unit_box, x) == d


@pytest.mark.parametrize("delta", [0.3, 0.0375])
def test_projection_reproduces_the_samples(unit_box, delta):
    """Projecting the sample positions recovers every point's patch and
    position: faces and corners exactly, edges to 1e-15.  The normals
    of the curved patches come from x - c with |x - c| = r, so they
    carry the cancellation error eps/r."""
    q = geo.RoundedBox(unit_box, delta)
    s = geo.sample_boundary(q, density=40.0)
    p = geo.rounded_box_point(q, s.x)
    assert np.array_equal(p.kind, s.kind)
    assert set(np.unique(s.kind)) == {0, 1, 2}
    assert np.array_equal(p.H, s.H)
    exact = s.kind != 1
    assert np.array_equal(p.x[exact], s.x[exact])
    assert np.max(np.abs(p.x - s.x)) <= 1e-15
    face = s.kind == 0
    assert np.array_equal(p.nu[face], s.nu[face])
    assert np.max(np.abs(p.nu - s.nu)) <= np.finfo(float).eps / q.radius
    for i in range(0, len(s), 11):
        one = geo.rounded_box_point(q, s.x[i])
        assert one.kind == p.kind[i]
        assert np.array_equal(one.x, p.x[i])
        assert np.array_equal(one.nu, p.nu[i])


def test_stacked_charts_match_pointwise(rbox):
    s = geo.sample_boundary(rbox, density=10.0)
    alpha = np.array([[0.0, 0.0], [0.01, -0.02], [-0.015, 0.005]])
    x, jac = s.chart(alpha), s.chart_jacobian(alpha)
    assert x.shape == (len(s), 3, 3) and jac.shape == (len(s), 3, 3, 2)
    for i, bp in enumerate(s):
        assert np.array_equal(bp.chart(alpha), x[i])
        assert np.array_equal(bp.chart_jacobian(alpha), jac[i])
        for a in range(len(alpha)):
            assert np.array_equal(bp.chart(alpha[a]), x[i, a])
            assert np.array_equal(bp.chart_jacobian(alpha[a]), jac[i, a])


@pytest.mark.parametrize("delta", [0.3, 0.15, 0.0375])
def test_chart_invariants_on_every_sample(unit_box, delta):
    """At every sample: t1 x t2 = nu, chart(0) = x, the Jacobian is the
    central difference of the chart, and the chart stays on the
    boundary for |alpha| <= 0.02 wherever it stays on its own patch."""
    q = geo.RoundedBox(unit_box, delta)
    s = geo.sample_boundary(q, density=40.0)
    j0 = s.chart_jacobian(np.zeros(2))
    assert np.allclose(np.cross(j0[..., 0], j0[..., 1]), s.nu,
                       rtol=0, atol=1e-15)
    assert np.allclose(s.chart(np.zeros(2)), s.x, rtol=0, atol=1e-15)
    h = 1e-6
    steps = h * np.eye(2)
    fd = (s.chart(steps) - s.chart(-steps)) / (2 * h)
    assert np.allclose(np.swapaxes(fd, -1, -2), j0, rtol=0, atol=1e-8)
    alpha = 0.02 * np.array([[1.0, 0.0], [0.0, -1.0], [-0.6, 0.8],
                             [0.5, 0.5], [-0.25, -0.1]])
    y = s.chart(alpha)
    # a patch is the set of points outside the shrunk box along the same
    # axes: one for a face, two for an edge strip, three for a corner cap
    on_patch = np.all((np.abs(y) > q.core_h)
                      == (np.abs(s.x) > q.core_h)[:, None], axis=-1)
    assert np.mean(on_patch) > 0.5
    for k in (0, 1, 2):
        assert np.any(on_patch[s.kind == k])
    assert np.max(np.abs(q.signed_distance(y[on_patch]))) < 1e-12
