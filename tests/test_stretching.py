"""Stretched-coordinate coefficients against closed-form oracles."""

import numpy as np
import pytest

from paulipml import geometry as geo
from paulipml.errors import ContinuationError
from paulipml.stretching import (_JET_OFFSETS, AbsorptionProfile,
                                 StretchContext, continuation_threshold,
                                 principal_sqrt)


def _ctx(tau=2.0 + 1.0j, sigma0=4.0):
    profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=sigma0)
                  for _ in range(3))
    return StretchContext(tau, profs)


def test_principal_sqrt_branch():
    assert principal_sqrt(4.0) == 2.0
    assert principal_sqrt(2j) == pytest.approx(1 + 1j)
    for z in (-1.0, 0.0, -4.0 + 1e-15j):
        with pytest.raises(ContinuationError):
            principal_sqrt(z)
    assert np.array_equal(principal_sqrt(np.array([[4.0, -4.0 + 1e-3j]])),
                          np.sqrt(np.array([[4.0, -4.0 + 1e-3j]])))
    with pytest.raises(ContinuationError):
        principal_sqrt(np.array([4.0, 2j, -1.0]))


class TestAbsorptionProfile:
    def test_polynomial_values(self):
        p = AbsorptionProfile(a=0.5, b=1.0, sigma0=8.0, order=2)
        assert p(0.3) == 0.0
        assert p(-0.75) == pytest.approx(8.0 * 0.25)  # t = 1/2 squared
        assert p(1.0) == pytest.approx(8.0)
        assert p(-1.0) == pytest.approx(8.0)

    def test_even_and_supported(self):
        p = AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0)
        s = np.linspace(-1, 1, 41)
        assert np.allclose(p(s), p(-s))
        assert np.all(p(s[np.abs(s) <= 0.5]) == 0.0)
        assert np.all(p(s) >= 0.0)

    def test_smooth_bump_flat_at_seam(self):
        p = AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0, kind="smooth_bump")
        assert p(0.5 + 1e-9) < 1e-30
        assert p(1.0) == pytest.approx(4.0)

    def test_derivative_oracle(self):
        for kind in ("polynomial_bump", "smooth_bump"):
            p = AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0, kind=kind)
            h = 1e-6
            for s in (0.6, 0.8, -0.7, 0.95):
                fd = (p(s + h) - p(s - h)) / (2 * h)
                assert p.derivative(s) == pytest.approx(fd, rel=1e-5)

    def test_antiderivative_oracle(self):
        for kind in ("polynomial_bump", "smooth_bump"):
            p = AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0, kind=kind)
            grid = np.linspace(0, 1.0, 2001)
            for s in (0.7, 1.0, -0.8):
                gs = grid[grid <= abs(s) + 1e-12]
                want = np.sign(s) * np.trapezoid(p(gs), gs)
                assert p.antiderivative(s) == pytest.approx(want, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            AbsorptionProfile(a=1.0, b=0.5)
        with pytest.raises(ValueError):
            AbsorptionProfile(a=0.5, b=1.0, sigma0=-1.0)
        with pytest.raises(ValueError):
            AbsorptionProfile(a=0.5, b=1.0, kind="mystery")


class TestStretchContext:
    def test_requires_right_half_plane(self):
        profs = tuple(AbsorptionProfile.zero(1.0) for _ in range(3))
        with pytest.raises(ValueError):
            StretchContext(-1.0, profs)

    def test_stretch_map_derivative(self):
        """dX_j/dx_j = (tau + sigma_j)/tau by finite differences."""
        ctx = _ctx()
        h = 1e-6
        for j in range(3):
            for s in (0.2, 0.7, -0.9):
                fd = (ctx.stretch_map(j, s + h)
                      - ctx.stretch_map(j, s - h)) / (2 * h)
                want = (ctx.tau + ctx.profiles[j](s)) / ctx.tau
                assert fd == pytest.approx(want, rel=1e-6)

    def test_pi_example(self):
        """Constant sigmas (1, 2, 3) at tau = 1 give Pi = 2*3*4 = 24."""
        # order-1 bumps saturated well inside the evaluation point act
        # as the constant profiles of the worked example
        profs = tuple(
            AbsorptionProfile(a=0.0, b=1e-6, sigma0=float(v), order=1)
            for v in (1, 2, 3))
        ctx = StretchContext(1.0, profs)
        x = np.array([0.5, 0.5, 0.5])
        assert complex(ctx.Pi(x)) == pytest.approx(24.0)
        r = ctx.ratios(x)
        assert np.allclose(r, [1 / 2, 1 / 3, 1 / 4])

    def test_p_coefficients_two_forms(self):
        """c_j = Pi r_j^2 equals (t+s_{j+1})(t+s_{j+2})/(t(t+s_j))."""
        ctx = _ctx(tau=3.0 - 1.0j)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            c = ctx.p_coefficients(x)
            sig = ctx.sigma_at(x)
            t = ctx.tau
            for j in range(3):
                jp, jq = (j + 1) % 3, (j + 2) % 3
                want = (t + sig[jp]) * (t + sig[jq]) / (t * (t + sig[j]))
                assert c[j] == pytest.approx(want)

    def test_sigma_zero_is_identity(self):
        profs = tuple(AbsorptionProfile.zero(1.0) for _ in range(3))
        ctx = StretchContext(5.0 + 2.0j, profs)
        x = np.array([0.9, -0.8, 0.7])
        assert np.allclose(ctx.ratios(x), 1.0)
        assert complex(ctx.Pi(x)) == pytest.approx(1.0)
        assert ctx.stretch_map(0, 0.9) == pytest.approx(0.9)

    def test_conormal_consistency(self, unit_box):
        """The frame normal of the stretched image surface is parallel
        to the stretched conormal nu_tilde."""
        q = geo.RoundedBox(unit_box, 0.3)
        ctx = _ctx(tau=10.0 + 5.0j)
        for p in ([1.0, 0.2, -0.3], [0.93, 0.91, 0.2], [0.92, 0.93, 0.94]):
            bp = geo.rounded_box_point(q, p)
            nt = ctx.nu_tilde(bp.x, bp.nu)
            nt = nt / principal_sqrt(complex(np.sum(nt * nt)))
            nu_frame, _, _, _ = ctx.stretched_jet(bp)
            assert np.allclose(nu_frame, nt, atol=1e-10)

    def test_face_mean_curvature_zero(self, unit_box):
        q = geo.RoundedBox(unit_box, 0.3)
        ctx = _ctx()
        bp = geo.rounded_box_point(q, [1.0, 0.0, 0.0])
        _, H, _, _ = ctx.stretched_jet(bp)
        assert H == 0.0

    def test_image_curvature_approaches_geometric(self, unit_box):
        """H of the stretched image -> H of Q_delta as |tau| grows."""
        q = geo.RoundedBox(unit_box, 0.3)
        r = q.radius
        mid = np.array([q.core_h[0], q.core_h[1], 0.0]) \
            + r * np.array([1, 1, 0]) / np.sqrt(2)
        bp = geo.rounded_box_point(q, mid)
        profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0)
                      for _ in range(3))
        errs = []
        for tau in (10.0, 40.0, 160.0):
            _, H, _, _ = StretchContext(tau, profs).stretched_jet(bp)
            errs.append(abs(H - bp.H))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < abs(bp.H) * 0.05

    def test_phi_beta_sigma_zero(self, unit_box):
        q = geo.RoundedBox(unit_box, 0.3)
        profs = tuple(AbsorptionProfile.zero(1.0) for _ in range(3))
        ctx = StretchContext(7.0, profs)
        bp = geo.rounded_box_point(q, [1.0, 0.1, 0.2])
        phi, beta = ctx.Phi_beta(bp)
        assert phi == pytest.approx(1.0)
        assert beta == pytest.approx(7.0)  # face: H = 0

    def test_m_vanishes_on_faces(self, unit_box):
        q = geo.RoundedBox(unit_box, 0.3)
        ctx = _ctx(tau=10.0 + 5.0j)
        for p in ([1.0, 0.2, -0.3], [0.1, -1.0, 0.3], [0.2, 0.3, 1.0]):
            bp = geo.rounded_box_point(q, p)
            assert np.max(np.abs(ctx.m_matrix(bp))) < 1e-12

    def test_m_vanishes_for_real_tau(self, unit_box):
        """Real tau keeps A(nu~) Hermitian, so conj pi^+ = (pi^+)^T."""
        q = geo.RoundedBox(unit_box, 0.3)
        profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0)
                      for _ in range(3))
        ctx = StretchContext(50.0, profs)
        bp = geo.rounded_box_point(q, [0.93, 0.91, 0.2])
        assert np.max(np.abs(ctx.m_matrix(bp))) < 1e-12

    def test_m_supported_at_edges(self, unit_box):
        q = geo.RoundedBox(unit_box, 0.3)
        ctx = _ctx(tau=10.0 + 5.0j)
        bp = geo.rounded_box_point(q, [0.93, 0.91, 0.2])
        assert np.max(np.abs(ctx.m_matrix(bp))) > 1e-4

    def test_holomorphy_in_tau(self, unit_box):
        """Cauchy-Riemann residual of tau -> Phi at |tau| = 100."""
        q = geo.RoundedBox(unit_box, 0.3)
        profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0)
                      for _ in range(3))
        bp = geo.rounded_box_point(q, [0.93, 0.91, 0.2])
        tau0 = 100.0 + 10.0j
        h = 1e-3

        def phi(tau):
            return StretchContext(tau, profs).Phi_beta(bp)[0]

        d_re = (phi(tau0 + h) - phi(tau0 - h)) / (2 * h)
        d_im = (phi(tau0 + 1j * h) - phi(tau0 - 1j * h)) / (2j * h)
        assert abs(d_re - d_im) <= 1e-6 * max(abs(d_re), 1.0)


@pytest.mark.parametrize("tau", [10.0 + 5.0j, 1e3 * (1.0 + 0.5j)])
def test_stacked_coefficients_match_pointwise(unit_box, tau):
    """m, the jet and (Phi, beta) on a stack of face, edge and corner
    points equal the per-point calls: m exactly, H and beta to 1e-12."""
    q = geo.RoundedBox(unit_box, 0.3)
    pts = np.array([
        [1.0, 0.2, -0.3], [0.1, -1.0, 0.3], [0.93, 0.91, 0.2],
        [-0.2, 0.94, -0.92], [0.92, 0.93, 0.94], [-0.93, -0.92, 0.95]])
    stack = geo.rounded_box_point(q, pts)
    bps = [geo.rounded_box_point(q, p) for p in pts]
    assert set(stack.kind) == {0, 1, 2}
    ctx = _ctx(tau=tau)
    m = ctx.m_matrix(stack)
    nu, H, T, dn = ctx.stretched_jet(stack)
    phi, beta = ctx.Phi_beta(stack)
    assert m.shape == (6, 2, 2) and H.shape == beta.shape == (6,)
    assert nu.shape == (6, 3) and T.shape == dn.shape == (6, 3, 2)
    for i, bp in enumerate(bps):
        assert bp.kind == stack.kind[i]
        assert np.array_equal(bp.x, stack.x[i])
        assert np.array_equal(bp.nu, stack.nu[i])
        assert np.array_equal(m[i], ctx.m_matrix(bp))
        nu1, H1, T1, dn1 = ctx.stretched_jet(bp)
        assert abs(H[i] - H1) <= 1e-12 * max(abs(H1), 1.0)
        assert np.allclose(nu[i], nu1, rtol=1e-12, atol=0)
        assert np.allclose(dn[i], dn1, rtol=1e-12, atol=1e-12)
        phi1, beta1 = ctx.Phi_beta(bp)
        assert abs(beta[i] - beta1) <= 1e-12 * abs(beta1)
        assert abs(phi[i] - phi1) <= 1e-12 * abs(phi1)
        if bp.kind == 0:
            assert H[i] == 0.0 and not np.any(dn[i])


def test_one_point_is_the_zero_dimensional_stack(unit_box):
    """One BoundaryPoint has shapes (3,) and () and its jet charts
    shapes (9, 3) and (9, 3, 2); an empty stack gives empty results."""
    q = geo.RoundedBox(unit_box, 0.3)
    one = geo.rounded_box_point(q, [0.93, 0.91, 0.2])
    assert one.x.shape == (3,) and one.kind.shape == ()
    assert one.chart(_JET_OFFSETS).shape == (9, 3)
    assert one.chart_jacobian(_JET_OFFSETS).shape == (9, 3, 2)
    _, H, _, _ = _ctx(tau=10.0 + 5.0j).stretched_jet(one)
    assert isinstance(H, complex)
    none = geo.rounded_box_point(q, np.empty((0, 3)))
    assert _ctx().m_matrix(none).shape == (0, 2, 2)


def test_continuation_threshold(unit_box):
    """Coefficients evaluate for every radius above the threshold."""
    q = geo.RoundedBox(unit_box, 0.3)
    profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=4.0)
                  for _ in range(3))
    bp = geo.rounded_box_point(q, [0.93, 0.91, 0.2])
    thr = continuation_threshold(profs, bp, direction=1.0 + 0.2j)
    assert 0.0 <= thr < 1e4
    for r in (2.0, 10.0):
        ctx = StretchContext(max(thr, 1e-3) * r * (1.0 + 0.2j)
                             / abs(1.0 + 0.2j), profs)
        ctx.Phi_beta(bp)
        ctx.m_matrix(bp)
