"""Check infrastructure: report serialization, order fitting, the test
fields, fast identity checks with their negative controls, and
determinism."""

import numpy as np
import pytest

from paulipml import verify
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
                                   ">", 10.0, scalable=False)),
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
        assert "tolerance.worst_max: 0.002" in text
        assert ("criterion.control: measured.control_ratio > 10.0 fixed"
                in text)
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


def test_report_verdict_line_must_match_criteria():
    text = _demo_report(1.5e-3).to_text().replace("verdict: pass",
                                                  "verdict: fail")
    with pytest.raises(ValueError, match="disagrees"):
        verify.CheckReport.from_text(text)


def test_malformed_criterion_is_rejected():
    for text in ("c: measured.x == 1.0 fixed", "c: measured.x < 1.0 maybe"):
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


def test_tolerance_scale_must_be_finite_and_positive():
    rep = _demo_report(1.5e-3)
    for scale in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance scale"):
            rep.verdict(scale)


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


def test_checks_are_deterministic():
    ctx = StretchContext(2.0 + 1.0j, _profiles())
    a = verify.check_helmholtz_identity(ctx, n_samples=3, seed=11)
    b = verify.check_helmholtz_identity(ctx, n_samples=3, seed=11)
    assert a.to_text() == b.to_text()
    c = verify.check_helmholtz_identity(ctx, n_samples=3, seed=12)
    assert c.to_text() != a.to_text()


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
    """NaN derivatives at the sample points with x1 > 0 make the
    discrepancy NaN and fail the check, though the other points
    converge."""
    orig = verify._fd_partial

    def poisoned(fun, x, j, h):
        d = orig(fun, x, j, h)
        return d * np.nan if x[0] > 0 else d
    monkeypatch.setattr(verify, "_fd_partial", poisoned)
    rep = verify.check_neumann_identity("sphere", n_points=6)
    assert np.isnan(rep.measured["discrepancy"])
    assert not rep.passed
