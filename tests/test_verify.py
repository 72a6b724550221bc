"""Check infrastructure: report serialization, order fitting, the test
fields, fast identity checks with their negative controls, and
determinism."""

import dataclasses
import signal
import warnings
import weakref

import numpy as np
import pytest

from paulipml import cli, freqdomain, verify
from paulipml.errors import TruncationWarning
from paulipml.timedomain import (FrameSeries, SimConfig, gaussian_source,
                                 replay, run)
from paulipml.geometry import (BoxDomain, RoundedBox, rounded_box_point,
                               sample_boundary, singular_distance)
from paulipml.stretching import AbsorptionProfile, StretchContext


def _profiles(sigma0=4.0):
    return tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=sigma0)
                 for _ in range(3))


# -- reports -------------------------------------------------------------

def _demo_report(worst):
    return verify.CheckReport(
        name="demo",
        params={"tau": "2+1j", "n": 13},
        measured={"worst": worst, "control_ratio": 40.0},
        orders={"main": 3.9},
        criteria=(verify.Criterion("worst_max", "measured.worst", "<=",
                                   2e-3),
                  verify.Criterion("control", "measured.control_ratio",
                                   ">", 10.0)),
        notes=["first note", "second note"],
        tables={"rates": (["h", "err"], [[0.02, 1e-3], [0.01, 6e-5]])},
    )


def test_report_round_trip():
    """Passing, failing and NaN reports keep their criteria and verdict
    through the text format."""
    for worst, passed in ((1.5e-3, True), (2.5e-3, False),
                          (float("nan"), False)):
        rep = _demo_report(worst)
        assert rep.passed is passed
        text = rep.to_text()
        assert f"verdict: {'pass' if passed else 'fail'}" in text
        assert "tolerance." not in text
        assert "criterion.control: measured.control_ratio > 10.0\n" in text
        back = verify.CheckReport.from_text(text)
        assert back.name == "demo"
        assert back.passed is passed
        assert back.criteria == rep.criteria
        assert back.params["tau"] == "2+1j"
        assert back.value("measured.worst") == pytest.approx(worst,
                                                             nan_ok=True)
        assert back.notes == ["first note", "second note"]
        header, rows = back.tables["rates"]
        assert header == ["h", "err"]
        assert float(rows[1][1]) == pytest.approx(6e-5)
        # serialization is stable under a second round trip
        assert back.to_text() == text
        # a criterion line has four tokens; a trailing mode does not parse
        with pytest.raises(ValueError, match="malformed criterion"):
            verify.CheckReport.from_text(text.replace(
                "measured.worst <= 0.002\n",
                "measured.worst <= 0.002 scalable\n"))


def test_report_verdict_line_must_match_criteria():
    text = _demo_report(1.5e-3).to_text().replace("verdict: pass",
                                                  "verdict: fail")
    with pytest.raises(ValueError, match="disagrees"):
        verify.CheckReport.from_text(text)


def test_malformed_criterion_is_rejected():
    for text in ("c: measured.x == 1.0", "c: measured.x < 1.0 maybe",
                 "c: measured.x <"):
        with pytest.raises(ValueError, match="malformed criterion"):
            verify.Criterion.parse(text)


def test_report_without_criteria_passes():
    assert verify.CheckReport(name="run", measured={"x": 1.0}).passed


def test_report_save(tmp_path):
    rep = verify.CheckReport(
        name="x", measured={"m": 2.0},
        criteria=(verify.Criterion("m_max", "measured.m", "<=", 1.0),))
    p = tmp_path / "r.txt"
    rep.save(p)
    back = verify.CheckReport.from_text(p.read_text())
    assert back.name == "x"
    assert back.passed is False
    assert "verdict: fail" in p.read_text()


def test_fit_order():
    errs = [1e-2 * (0.5 ** (3 * k)) for k in range(3)]
    assert verify.fit_order(errs) == pytest.approx(3.0)
    assert verify.fit_order([1e-3, 1e-3]) == pytest.approx(0.0)


# -- test fields ----------------------------------------------------------

def test_trig_field_derivative_oracle():
    w = verify.TrigField(seed=5)
    x = np.array([0.3, -0.2, 0.7])
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (w(x + e) - w(x - e)) / (2 * h)
        assert np.allclose(w.partial(j, x), fd, atol=1e-7)
        e2 = np.zeros(3)
        e2[j] = 1e-4  # larger step: second differences lose ~eps/h^2
        fd2 = (w(x + e2) - 2 * w(x) + w(x - e2)) / 1e-8
        assert np.allclose(w.partial2(j, x), fd2, atol=1e-5)


def test_trig_field_batched_evaluation():
    w = verify.TrigField(seed=5)
    pts = np.random.default_rng(0).uniform(-1, 1, (4, 5, 3))
    batch = w(pts)
    assert batch.shape == (4, 5, 2)
    assert np.allclose(batch[2, 3], w(pts[2, 3]))
    assert np.allclose(w.partial(1, pts)[1, 4], w.partial(1, pts[1, 4]))


@pytest.mark.parametrize("kmax", [1, 2])
def test_trig_field_on_grid_matches_pointwise(kmax):
    """The product-of-axis-factors evaluation equals the field evaluated
    at every mesh point, on an unequal box and grid."""
    grid = verify.Grid(BoxDomain((1.0, 1.1, 1.2), inner_fraction=0.5),
                       (8, 9, 10))
    pts = np.moveaxis(grid.mesh(), 0, -1)
    for seed in range(5):
        w = verify.TrigField(seed=seed, kmax=kmax)
        want = np.moveaxis(w(pts), -1, 0)
        got = w.on_grid(grid.axes)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_trig_field_entire():
    """Evaluation at complex points satisfies Cauchy-Riemann."""
    w = verify.TrigField(seed=2)
    z = np.array([0.1 + 0.2j, -0.3, 0.5])
    h = 1e-5
    e = np.array([1.0, 0, 0])
    d_re = (w(z + h * e) - w(z - h * e)) / (2 * h)
    d_im = (w(z + 1j * h * e) - w(z - 1j * h * e)) / (2j * h)
    assert np.allclose(d_re, d_im, atol=1e-8)


# -- identity checks -------------------------------------------------------

def test_helmholtz_identity_passes():
    ctx = StretchContext(2.0 + 1.0j, _profiles())
    rep = verify.check_helmholtz_identity(ctx, n_samples=4)
    assert rep.passed
    assert float(rep.orders["observed"]) >= 3.5


def test_neumann_identity_sphere():
    rep = verify.check_neumann_identity("sphere", n_points=6)
    assert rep.passed
    assert float(rep.orders["observed"]) >= 1.8
    # built-in negative control: doubling the curvature term leaves a
    # discrepancy far above the converging one
    ctrl = float(rep.measured["negative_control"])
    assert ctrl > 10 * float(rep.measured["discrepancy"])


def test_neumann_identity_rounded_box():
    rep = verify.check_neumann_identity("rounded_box", n_points=6)
    assert rep.passed


def test_transverse_identity_real_and_complex():
    rep = verify.check_transverse_identity(
        _profiles(), delta=0.3, tau_set=(50.0, 50.0 + 20.0j), n_points=4)
    assert rep.passed
    assert float(rep.orders["min_observed"]) >= 1.8


def test_rounded_box_neumann_identity_resolves_small_delta():
    """At delta = 0.1 the default steps shrink to (0.02, 0.01) / 3.  The
    unscaled +-2h stencil spans the patch seams of the radius-0.1
    corners: the order fit then read 1.99 on a discrepancy of 0.40."""
    rep = verify.check_neumann_identity("rounded_box", delta=0.1)
    assert rep.passed
    assert float(rep.measured["discrepancy"]) < 1e-2
    assert float(rep.orders["observed"]) >= 3.5


def test_transverse_identity_scales_steps_with_delta():
    """With unscaled steps the check fails at delta = 0.15 (order
    0.87); the scaled ladder is exactly (0.02, 0.01) at delta = 0.3."""
    rep = verify.check_transverse_identity(_profiles(), delta=0.15,
                                           tau_set=(10.0 + 5.0j,))
    assert rep.passed
    assert rep.params["steps"] == [0.01, 0.005]
    rep = verify.check_neumann_identity("rounded_box", n_points=2)
    assert rep.params["steps"] == [0.02, 0.01]


def test_checks_are_deterministic():
    ctx = StretchContext(2.0 + 1.0j, _profiles())
    a = verify.check_helmholtz_identity(ctx, n_samples=3, seed=11)
    b = verify.check_helmholtz_identity(ctx, n_samples=3, seed=11)
    assert a.to_text() == b.to_text()
    c = verify.check_helmholtz_identity(ctx, n_samples=3, seed=12)
    assert c.to_text() != a.to_text()


# -- identity checks: stacked evaluation against the per-point loops --------

def _worst(values):
    worst = 0.0
    for v in values:
        worst = verify._worse(worst, v)
    return worst


def _ladder_reference(discrepancy, steps, wrong):
    vals = [discrepancy(h) for h in steps]
    return (vals, verify.fit_order(vals, steps[0] / steps[1]),
            discrepancy(steps[-1], wrong))


def _helmholtz_reference(ctx, n_samples, seed, steps):
    """The per-point body of check_helmholtz_identity: (per-step
    discrepancies, order, control)."""
    rng = np.random.default_rng(seed)
    w = verify.TrigField(seed=seed + 1)
    A = verify.algebra.pauli_matrices()
    tau = ctx.tau
    margin = 4.0 * max(steps) + 0.02

    def admissible(x):
        return all(abs(abs(x[j]) - p.a) >= margin
                   and abs(x[j]) <= p.b - margin
                   for j, p in enumerate(ctx.profiles))

    pts = []
    while len(pts) < n_samples:
        x = np.array([rng.uniform(-p.b, p.b) for p in ctx.profiles])
        if admissible(x):
            pts.append(x)

    def apply_L(sgn, fun, x, h):
        val = sgn * tau * fun(x)
        r = ctx.ratios(x)
        for j in range(3):
            val = val + r[j] * (A[j] @ verify._fd_partial(fun, x, j, h))
        return val

    def divergence_side(x, fudge):
        c = ctx.p_coefficients(x)
        r = ctx.ratios(x)
        val = -tau ** 2 * complex(ctx.Pi(x)) * w(x)
        for j in range(3):
            dcj = -ctx.profiles[j].derivative(x[j]) * c[j] * r[j] / tau
            val = val + fudge * (dcj * w.partial(j, x)
                                 + c[j] * w.partial2(j, x))
        return val

    def discrepancy(h, fudge=1.0):
        def one(x):
            inner = lambda y: apply_L(+1, w, y, h)
            lhs = complex(ctx.Pi(x)) * apply_L(-1, inner, x, h)
            rhs = divergence_side(x, fudge)
            return np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1.0)
        return _worst(one(x) for x in pts)

    return _ladder_reference(discrepancy, steps, 1.01)


def _neumann_reference(surface, n_points, seed, delta=0.3,
                       steps=(0.02, 0.01)):
    """The per-point body of check_neumann_identity, with its own
    closed form of the rounded box's extended normal."""
    rng = np.random.default_rng(seed)
    w = verify.TrigField(seed=seed + 1)
    A = verify.algebra.pauli_matrices()
    if surface == "sphere":
        dirs = rng.standard_normal((n_points, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        points = [(d, 1.0) for d in dirs]

        def nu_ext(y):
            return y / np.linalg.norm(y)
    else:
        q = RoundedBox(BoxDomain((1.0, 1.0, 1.0)), delta)
        bps = verify._sample_patch_points(q, n_points, seed)
        points = list(zip(bps.x, bps.H))

        def nu_ext(y):
            d = y - np.clip(y, -q.core_h, q.core_h)
            n = np.linalg.norm(d)
            if n < 1e-12:
                axis = int(np.argmin(q.core_h - np.abs(y)))
                e = np.zeros(3)
                e[axis] = 1.0 if y[axis] >= 0 else -1.0
                return e
            return d / n

    def u_field(y):
        return verify.algebra.projector(+1, nu_ext(y)) @ w(y)

    def discrepancy(h, curv_factor=1.0):
        def one(x0, H):
            nu0 = nu_ext(x0)
            pip = verify.algebra.projector(+1, nu0)
            grads = [verify._fd_partial(u_field, x0, j, h) for j in range(3)]
            lhs = pip @ sum(A[j] @ grads[j] for j in range(3))
            normal_d = sum(nu0[j] * grads[j] for j in range(3))
            rhs = pip @ (normal_d + curv_factor * H * u_field(x0))
            return (np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(u_field(x0)), 1.0))
        return _worst(one(x0, H) for x0, H in points)

    return _ladder_reference(discrepancy, steps, 2.0)


def _transverse_reference(profiles, delta, tau_set, n_points, seed,
                          steps=(0.02, 0.01)):
    """The per-point body of check_transverse_identity: one (per-step
    discrepancies, order, control) triple per tau."""
    q = RoundedBox(BoxDomain((1.0, 1.0, 1.0)), delta)
    bps = verify._sample_patch_points(q, n_points, seed)
    w = verify.TrigField(seed=seed + 1, kmax=1)
    A = verify.algebra.pauli_matrices()
    out = []
    for tau in tau_set:
        ctx = StretchContext(complex(tau), tuple(profiles))

        def prepare(bp):
            nu_y, H, T, dn = ctx.stretched_jet(bp)
            y0 = np.array([ctx.stretch_map(j, bp.x[j]) for j in range(3)])
            M = np.column_stack([T, nu_y])
            B = np.column_stack([dn, np.zeros(3)]) @ np.linalg.inv(M)

            def u(x):
                y = np.array([ctx.stretch_map(j, x[j]) for j in range(3)])
                m = nu_y + B @ (y - y0)
                return verify.algebra.projector(+1, m) @ w(y)
            return (bp.x, H, ctx.V_coefficients(bp.x, bp.nu), u, u(bp.x),
                    verify.algebra.projector(+1, nu_y), ctx.ratios(bp.x))

        prepared = [prepare(bp) for bp in bps]

        def discrepancy(h, curv_factor=1.0):
            def one(x, H, vcoef, u, u0, pip, r):
                grads = [verify._fd_partial(u, x, j, h) for j in range(3)]
                lhs = pip @ sum(r[j] * (A[j] @ grads[j]) for j in range(3))
                Vu = sum(vcoef[j] * grads[j] for j in range(3))
                rhs = pip @ (Vu + curv_factor * H * u0)
                return np.linalg.norm(lhs - rhs) / max(np.linalg.norm(u0),
                                                       1.0)
            return _worst(one(*p) for p in prepared)

        out.append(_ladder_reference(discrepancy, steps, 0.0))
    return out


def _assert_close(got, ref, rel=1e-5):
    assert np.all(np.isfinite(ref))
    assert got == pytest.approx(ref, rel=rel)


@pytest.mark.parametrize("tau", [2.0, 2.0 + 1.0j])
def test_helmholtz_identity_matches_pointwise_reference(tau):
    """Every per-step discrepancy, the control and the order agree with
    the per-point loop.  The ladder is one
    step coarser than the default: at h = 0.005 the nested 4th-order
    difference sits within about 1e-5 of its roundoff floor, where a
    reordered BLAS sum in the test field alone moves the discrepancy by
    that much."""
    ctx = StretchContext(tau, _profiles())
    steps = (0.04, 0.02, 0.01)
    rep = verify.check_helmholtz_identity(ctx, n_samples=6, seed=0,
                                          steps=steps)
    vals, order, control = _helmholtz_reference(ctx, 6, 0, steps)
    _assert_close(rep.measured["per_step"], vals)
    _assert_close(rep.measured["negative_control"], control)
    _assert_close(rep.orders["observed"], order)


@pytest.mark.parametrize("surface", ["sphere", "rounded_box"])
def test_neumann_identity_matches_pointwise_reference(surface):
    rep = verify.check_neumann_identity(surface, n_points=8, seed=0)
    vals, order, control = _neumann_reference(surface, 8, 0)
    _assert_close(rep.measured["per_step"], vals)
    _assert_close(rep.measured["negative_control"], control)
    _assert_close(rep.orders["observed"], order)


def test_transverse_identity_matches_pointwise_reference():
    """The per-tau table against the per-point loop at real and complex
    tau.  The table holds the last step's discrepancy and the order of
    the two-step ladder, which together fix the first step's."""
    taus = (50.0, 50.0 + 20.0j)
    rep = verify.check_transverse_identity(_profiles(), delta=0.3,
                                           tau_set=taus, n_points=6)
    _, rows = rep.tables["per_tau"]
    ref = _transverse_reference(_profiles(), 0.3, taus, 6, 0)
    for (_, disc, order, ctrl), (vals, ref_order, ref_ctrl) in zip(rows, ref):
        _assert_close(disc, vals[-1])
        _assert_close(order, ref_order)
        _assert_close(ctrl, ref_ctrl)


def test_rounded_box_normal_extends_the_boundary_normal():
    """RoundedBox.normal is the normal of rounded_box_point near the
    boundary, and is defined far from it too."""
    q = RoundedBox(BoxDomain((1.0, 1.0, 1.0)), 0.3)
    samples = sample_boundary(q, density=10.0)
    for t in (-0.05, 0.0, 0.05):
        x = samples.x + t * samples.nu
        assert np.array_equal(q.normal(x), rounded_box_point(q, x).nu)
    deep = np.array([[0.0, 0.1, 0.0], [0.9, 0.9, 0.0], [2.0, 2.0, 2.0]])
    assert np.allclose(q.normal(deep), [[0.0, 1.0, 0.0],
                                        [2 ** -0.5, 2 ** -0.5, 0.0],
                                        [3 ** -0.5] * 3])


IDENTITY_CHECKS = {
    "helmholtz": lambda n: verify.check_helmholtz_identity(
        StretchContext(2.0 + 1.0j, _profiles()), n_samples=n),
    "sphere": lambda n: verify.check_neumann_identity("sphere", n_points=n),
    "rounded_box": lambda n: verify.check_neumann_identity(
        "rounded_box", n_points=n),
    "transverse": lambda n: verify.check_transverse_identity(
        _profiles(), delta=0.3, tau_set=(50.0, 50.0 + 20.0j), n_points=n),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_CHECKS))
def test_identity_checks_difference_all_points_at_once(name, monkeypatch):
    """The number of finite-difference calls does not grow with the
    number of sample points: each call differences the whole stack."""
    orig = verify._fd_partial
    calls = []

    def counted(fun, x, j, h):
        calls.append(np.shape(x))
        return orig(fun, x, j, h)
    monkeypatch.setattr(verify, "_fd_partial", counted)
    counts = []
    for n in (3, 6):
        calls.clear()
        IDENTITY_CHECKS[name](n)
        counts.append(len(calls))
        assert calls[0] == (n, 3)
    assert counts[0] == counts[1] > 0


class _Hang(Exception):
    pass


def _within(seconds, call):
    """call(), failing with _Hang after ``seconds`` instead of running
    on; _Hang is no error type the CLI catches."""
    def alarm(*_):
        raise _Hang(f"still running after {seconds} s")
    old = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_helmholtz_identity_without_admissible_points_raises():
    """Margin 0.1 from the seam at 0 and the face at 0.1 leaves no
    point on any axis: the check says so instead of drawing forever."""
    ctx = StretchContext(2.0 + 1.0j, (AbsorptionProfile(a=0.0, b=0.1),) * 3)
    with pytest.raises(ValueError, match="margin"):
        _within(20, lambda: verify.check_helmholtz_identity(ctx))


def test_helmholtz_cli_without_admissible_points_is_exit_1(tmp_path,
                                                           capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nkind = check:helmholtz\n"
                   "[domain]\nhalf_length = 0.1\ndelta = 0.05\n"
                   "[profile]\nstart = 0\n")
    code = _within(20, lambda: cli.main([str(cfg), "--out",
                                         str(tmp_path / "out")]))
    assert code == 1
    assert "margin" in capsys.readouterr().err


# -- m bounds: stacked evaluation against the per-point loop ----------------

M_BOUNDS_TAUS = tuple(t * (1.0 + 0.5j) for t in (1e2, 1e3, 1e4))


def _m_bounds_reference(box, profiles, delta_set, tau_set, density):
    """The per-point loop of check_m_bounds: one m_matrix call per
    sample and per +-h chart neighbour, one Phi_beta call per curved
    sample.  Returns face_far_max, sup ||m|| per tau, the gradient
    constant and the per-case rows."""
    rows = []
    face_far_max = 0.0
    sup_by_tau = {complex(t): 0.0 for t in tau_set}
    grad_const = 0.0
    h = 1e-4
    for delta in delta_set:
        q = RoundedBox(box, delta)
        samples = sample_boundary(q, density=density)
        for tau in tau_set:
            ctx = StretchContext(complex(tau), tuple(profiles))
            sup_m = far = c3 = 0.0
            for bp in samples:
                nrm = float(np.linalg.norm(ctx.m_matrix(bp), 2))
                sup_m = max(sup_m, nrm)
                if bp.kind == 0 and singular_distance(box, bp.x) > delta:
                    far = max(far, nrm)
                if bp.kind != 0 and verify._seam_clear(bp, q, 0.15):
                    acc = 0.0
                    for i in range(2):
                        e = np.zeros(2)
                        e[i] = h
                        mp = ctx.m_matrix(rounded_box_point(q, bp.chart(e)))
                        mm = ctx.m_matrix(rounded_box_point(q, bp.chart(-e)))
                        acc += np.linalg.norm((mp - mm) / (2 * h), 2) ** 2
                    _, beta = ctx.Phi_beta(bp)
                    c3 = max(c3, np.sqrt(acc) / abs(beta))
            rows.append([delta, complex(tau), sup_m, far, c3])
            face_far_max = max(face_far_max, far)
            sup_by_tau[complex(tau)] = max(sup_by_tau[complex(tau)], sup_m)
            grad_const = max(grad_const, c3)
    return face_far_max, sup_by_tau, grad_const, rows


def test_m_bounds_matches_pointwise_reference():
    box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
    deltas = [0.3, 0.15]
    rep = verify.check_m_bounds(box, _profiles(), deltas, M_BOUNDS_TAUS,
                                density=10.0)
    far, sups, grad, rows = _m_bounds_reference(
        box, _profiles(), deltas, M_BOUNDS_TAUS, 10.0)
    sups = np.array(list(sups.values()))
    assert rep.measured["face_far_max"] == far
    assert rep.constants["sup_norm"] == sups.max()
    assert rep.measured["sup_variation"] == \
        (sups.max() - sups.min()) / sups.max()
    assert rep.constants["grad_over_beta"] == pytest.approx(grad, rel=1e-12)
    assert grad > 0.0
    _, got = rep.tables["per_case"]
    assert len(got) == len(rows) == 6
    for g, r in zip(got, rows):
        assert g[:4] == r[:4]
        assert g[4] == pytest.approx(r[4], rel=1e-12)


def test_m_bounds_builds_geometry_once_per_delta(monkeypatch):
    """Sampling and the chart neighbours are built per delta, never
    per tau."""
    box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
    calls = {}

    def counted(name):
        orig = getattr(verify, name)

        def shim(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(verify, name, shim)

    counted("sample_boundary")
    counted("rounded_box_point")
    counts = []
    for taus in (M_BOUNDS_TAUS[:1], M_BOUNDS_TAUS):
        calls.clear()
        verify.check_m_bounds(box, _profiles(), [0.3, 0.15], taus,
                              density=10.0)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["sample_boundary"] == 2
    assert counts[0]["rounded_box_point"] > 0


# -- a NaN reaches the criteria ---------------------------------------------

def test_nan_beta_fails_m_bounds(monkeypatch):
    """A NaN beta makes the gradient constant NaN and fails the report;
    a running Python max would drop it and report a finite constant."""
    box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
    args = (box, _profiles(), [0.3], [100.0 + 50.0j])
    assert verify.check_m_bounds(*args, density=10.0).passed
    orig = StretchContext.Phi_beta
    monkeypatch.setattr(StretchContext, "Phi_beta",
                        lambda self, bp: (orig(self, bp)[0], complex(np.nan)))
    rep = verify.check_m_bounds(*args, density=10.0)
    assert np.isnan(rep.constants["grad_over_beta"])
    assert not rep.passed


def test_nan_discrepancy_fails_identity_check(monkeypatch):
    """NaN derivatives at the sample rows with x1 > 0 make the
    discrepancy NaN and fail the check, though the other points
    converge."""
    orig = verify._fd_partial

    def poisoned(fun, x, j, h):
        d = orig(fun, x, j, h)
        return np.where(x[..., :1] > 0, d * np.nan, d)
    monkeypatch.setattr(verify, "_fd_partial", poisoned)
    rep = verify.check_neumann_identity("sphere", n_points=6)
    assert np.isnan(rep.measured["discrepancy"])
    assert not rep.passed


# -- streamed time-domain checks ----------------------------------------

def test_time_domain_checks_keep_no_frames(monkeypatch):
    """check_stability and laplace_consistency stream their runs: no
    Recording they get back holds a frame (the reflection experiment's
    runs are checked with its metric below)."""
    recs = []
    real_run = verify.run

    def spy(*args, **kwargs):
        recs.append(real_run(*args, **kwargs))
        return recs[-1]

    monkeypatch.setattr(verify, "run", spy)
    box = BoxDomain((1.0,) * 3, inner_fraction=0.5)
    verify.check_stability(_profiles(), grid_sizes=(9, 11), lam_set=(1.0,),
                           transit_factor=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        verify.laplace_consistency(verify.Grid(box, (9, 9, 9)), _profiles(),
                                   (2.0, 2.0 + 1.0j), T=2.0)
    assert len(recs) == 3 + 1
    assert all(rec.times for rec in recs)
    assert [len(rec.traces) for rec in recs] == [0] * len(recs)


def test_streamed_reflection_metric_equals_replay(monkeypatch):
    """Each layered metric equals the comparator replayed over kept
    frames bit for bit, and no streamed run keeps a frame.  Every run,
    the kept ones too, ends at T = 0.25 instead of the experiment's
    T = 2, which keeps the test short; the metrics are then small (1e-7
    and below) but not 0."""
    T, sigma0 = 0.25, 10.0
    recs = []
    real_run = verify.run

    def short_run(config, *args, **kwargs):
        recs.append(real_run(dataclasses.replace(config, T=T), *args,
                             **kwargs))
        return recs[-1]

    monkeypatch.setattr(verify, "run", short_run)
    rep = verify.reflection_experiment(sigma0=sigma0)
    assert len(recs) == 5
    assert all(rec.times and not rec.traces for rec in recs)
    h, a, ref_half = (rep.params[k] for k in ("h", "a", "ref_half"))

    def kept_run(half, profs):
        n = int(round(2 * half / h)) + 1
        grid = verify.Grid(BoxDomain((half,) * 3, inner_fraction=a / half),
                           (n, n, n))
        src = gaussian_source(grid, width=0.08, t_off=0.5,
                              polarization=(1.0, 0.5j))
        return real_run(SimConfig(grid, cfl=0.5, T=T, stride=2), profs, src)

    rec_ref = kept_run(ref_half, tuple(AbsorptionProfile.zero(ref_half)
                                       for _ in range(3)))
    mask = verify._inner_mask(rec_ref.grid, a)
    ref, = replay(rec_ref, FrameSeries(lambda s: s[:, mask]))
    for i, width in enumerate(rep.params["widths"]):
        half = a + width
        for key, profs in (
                ("pml", tuple(AbsorptionProfile(a=a, b=half, sigma0=sigma0)
                              for _ in range(3))),
                ("bare", tuple(AbsorptionProfile.zero(half)
                               for _ in range(3)))):
            diff, = replay(kept_run(half, profs),
                           verify._InnerDifference(ref, a))
            assert diff.value() == rep.measured[key][i] > 0.0


def test_inner_difference_pairs_frames_by_time(unit_box):
    """A run whose frame times differ from the reference's raises
    instead of comparing frames by index."""
    grid = verify.Grid(unit_box, (9, 9, 9))
    src = gaussian_source(grid, width=0.15, t_off=0.5)
    ref = FrameSeries(lambda s: s[:, verify._inner_mask(grid, 0.5)])
    run(SimConfig(grid, cfl=0.5, T=0.5, stride=1), _profiles(), src,
        reducers=[ref])
    # five frames each, at t = 0, 0.25, ... against 0, 0.125, ...
    with pytest.raises(ValueError, match="no reference frame"):
        run(SimConfig(grid, cfl=0.5, T=1.0, stride=2), _profiles(), src,
            reducers=[verify._InnerDifference(ref, 0.5)])
    # more frames than the reference
    with pytest.raises(ValueError, match="no reference frame"):
        run(SimConfig(grid, cfl=0.5, T=0.625, stride=1), _profiles(), src,
            reducers=[verify._InnerDifference(ref, 0.5)])


# -- coercivity ------------------------------------------------------------

def _held_trial_fields(asm, n_fields, seed, grid):
    """The held-list form of the trial fields: every field evaluated
    point by point on the mesh and kept."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    out = []
    for i in range(n_fields):
        w = verify.TrigField(seed=int(rng.integers(1 << 30)), kmax=2)
        pts = np.moveaxis(mesh, 0, -1)
        vals = np.moveaxis(w(pts), -1, 0)
        if i % 3 == 2:
            # boundary-concentrated profile
            gap = np.min(grid.box.h[:, None, None, None] - np.abs(mesh),
                         axis=0)
            vals = vals * np.exp(-gap / 0.1)[None]
        u = asm.project_trial(vals)
        if np.max(np.abs(u)) < 1e-12:
            continue
        out.append(u)
    return out


def _coercivity_reference(profiles, grid, tau_list, n_fields, seed):
    """Per tau the smallest ratio over fields held across every pass,
    and the number of fields."""
    asm0 = verify._unit_assembly(grid)
    fields = _held_trial_fields(asm0, n_fields, seed, grid)
    parts = [[z.real for z in asm0.form_parts(u, np.conj(u))]
             for u in fields]
    mins = []
    for tau in map(complex, tau_list):
        asm = freqdomain.assemble_helmholtz(
            StretchContext(tau, tuple(profiles)), grid)
        ratios = []
        for u, (k0, m0, b0) in zip(fields, parts):
            bundle = (abs(tau) * tau.real * m0
                      + (tau.real / abs(tau)) * (abs(tau) * b0 + k0))
            if bundle > 0:
                ratios.append(abs(asm.form(u, np.conj(u))) / bundle)
        mins.append(min(ratios))
    return mins, len(fields)


def test_streamed_coercivity_matches_held_fields():
    """Regenerating the fields on every pass gives the ratios of the
    fields held across all passes."""
    grid = verify.Grid(BoxDomain((1.0,) * 3, inner_fraction=0.5), (9, 9, 9))
    taus = (4.0 + 1.0j, 2.0 - 1.0j)
    mins, count = _coercivity_reference(_profiles(), grid, taus, 12, 0)
    rep = verify.check_coercivity(_profiles(), grid, taus, n_fields=12,
                                  seed=0)
    rows = rep.tables["per_tau"][1]
    assert [row[2] for row in rows] == [count] * len(taus)
    for row, want in zip(rows, mins):
        assert abs(row[1] - want) <= 1e-13 * want
    assert abs(rep.measured["min_ratio"] - min(mins)) <= 1e-13 * min(mins)


def test_coercivity_holds_one_trial_field_at_a_time(monkeypatch):
    """When project_trial builds a field, at most one field it built
    earlier is still alive: the fields are streamed, not held."""
    built, most_alive = [], [0]
    real = freqdomain.HelmholtzAssembly.project_trial

    def spy(self, u):
        most_alive[0] = max(most_alive[0],
                            sum(ref() is not None for ref in built))
        out = real(self, u)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(freqdomain.HelmholtzAssembly, "project_trial", spy)
    grid = verify.Grid(BoxDomain((1.0,) * 3, inner_fraction=0.5), (9, 9, 9))
    verify.check_coercivity(_profiles(), grid, (4.0 + 1.0j, 2.0 - 1.0j),
                            n_fields=12, seed=0)
    assert len(built) == 3 * 12
    assert most_alive[0] <= 1
