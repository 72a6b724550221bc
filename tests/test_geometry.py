"""Rounded-box geometry: classification, normals, curvature, charts,
quadrature against the closed-form area."""

import numpy as np
import pytest

from paulipml import geometry as geo
from paulipml.errors import GeometryError


@pytest.fixture
def rbox(unit_box):
    return geo.RoundedBox(unit_box, delta=0.3)


def test_face_normals_and_axes():
    seen = []
    for k in range(1, 7):
        nu = geo.face_normal(k)
        axis, sign = geo.face_axis_sign(k)
        assert np.linalg.norm(nu) == 1.0
        assert nu[axis] == sign
        seen.append(tuple(nu))
    assert len(set(seen)) == 6
    on_face = np.zeros((5, 6, 7), dtype=bool)
    listed = list(geo.faces())
    assert [f[0] for f in listed] == [1, 2, 3, 4, 5, 6]
    for k, axis, sign, nu, index in listed:
        assert (axis, sign) == geo.face_axis_sign(k)
        assert np.array_equal(nu, geo.face_normal(k))
        on_face[index] = True
    boundary = np.ones((5, 6, 7), dtype=bool)
    boundary[1:-1, 1:-1, 1:-1] = False
    assert np.array_equal(on_face, boundary)
    with pytest.raises(IndexError):
        geo.face_normal(0)
    with pytest.raises(IndexError):
        geo.face_axis_sign(7)


def test_box_membership(unit_box):
    assert unit_box.contains([0.9, -0.9, 0.2])
    assert not unit_box.contains([1.1, 0, 0])
    assert unit_box.in_inner_box([0.4, 0.4, -0.4])
    assert not unit_box.in_inner_box([0.6, 0, 0])


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
    assert bp.patch[0] == "face"
    assert np.allclose(bp.nu, [1, 0, 0])
    assert bp.H == 0.0

    r = rbox.radius
    ch = rbox.core_h
    # point on the edge strip between the +x and +y faces
    mid = np.array([ch[0], ch[1], 0.0]) + r * np.array([1, 1, 0]) / np.sqrt(2)
    bp = geo.rounded_box_point(rbox, mid)
    assert bp.patch == ("edge", (0, 1))
    assert bp.kappa == (1.0 / r, 0.0)
    assert bp.H == pytest.approx(1.0 / (2 * r))

    corner = ch + r * np.ones(3) / np.sqrt(3)
    bp = geo.rounded_box_point(rbox, corner)
    assert bp.patch[0] == "corner"
    assert bp.kappa == (1.0 / r, 1.0 / r)
    assert bp.H == pytest.approx(1.0 / r)


def test_projection_rejects_far_points(rbox):
    with pytest.raises(GeometryError):
        geo.rounded_box_point(rbox, [0.0, 0.0, 0.0])


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


def test_area_quadrature(rbox):
    samples = geo.sample_boundary(rbox, density=40.0)
    total = sum(w for _, w in samples)
    assert total == pytest.approx(geo.rounded_box_area(rbox), rel=2e-4)
    for bp, w in samples[::37]:
        assert w > 0
        assert abs(rbox.signed_distance(bp.x)) < 1e-12
        assert np.linalg.norm(bp.nu) == pytest.approx(1.0)


def test_area_closed_form(unit_box):
    # delta -> 0 recovers the box area 24
    for delta in (0.2, 0.05, 0.0125):
        q = geo.RoundedBox(unit_box, delta)
        assert abs(geo.rounded_box_area(q) - 24.0) < 25.0 * delta


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
    assert bp.patch[0] == "face"
    assert bp.x[2] == pytest.approx(1.0)
    assert geo.singular_distance(rbox.parent, bp.x) > rbox.delta
