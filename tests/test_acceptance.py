"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Tolerances here are the contract; they must
not be loosened to force a pass.

A criterion backed by a report asserts that the report's own criteria
match the literal contract below, then asserts the report's verdict, so
a bound loosened in ``verify`` fails here.  Criteria that compare
several solves (1, 2, 9 and the drift of 7) keep inline conditions."""

import numpy as np
import pytest

from paulipml import algebra, freqdomain, verify
from paulipml.geometry import BoxDomain
from paulipml.stretching import AbsorptionProfile, StretchContext
from paulipml.timedomain import Grid

I2 = np.eye(2)


# (key, op, bound, scalable) of every report criterion, per check
CONTRACT = {
    "helmholtz_identity": [("orders.observed", ">=", 3.5, True),
                           ("measured.control_ratio", ">", 10.0, False)],
    "neumann_identity": [("orders.observed", ">=", 1.8, True),
                         ("measured.control_ratio", ">", 10.0, False)],
    "transverse_identity": [("orders.min_observed", ">=", 1.8, True),
                            ("measured.control_ratio", ">", 10.0, False)],
    "m_bounds": [("measured.face_far_max", "<=", 1e-12, True),
                 ("measured.sup_variation", "<=", 0.10, True),
                 ("constants.grad_over_beta", "<", np.inf, False)],
    "coercivity": [("measured.min_ratio", ">", 0.0, True)],
    "stretched_estimate": [("measured.stability", "<=", 0.25, True),
                           ("constants.C_max", "<", np.inf, False)],
    "laplace_consistency": [
        ("measured.max_rel_difference", "<=", 0.05, True),
        ("measured.max_split_residual", "<=", 1e-6, True)],
    "stability": [("measured.fitted_c", "<=", 1.02, True),
                  ("measured.refine_growth", "<=", 1.10, True),
                  ("measured.blowup_ratio", "<=", 1.001, True)],
    "reflection": [("measured.self_metric", "<=", 0.0, False),
                   ("measured.max_pml_minus_bare", "<", 0.0, False),
                   ("measured.max_pml_increase", "<", 0.0, False)],
}


def _verdict(num, desc, ok):
    print(f"[criterion {num:2d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({desc}) failed"


def _report_verdict(num, desc, rep, contract):
    """Check the report's criteria against the contract, print each
    with its measured value and margin, and assert the verdict."""
    declared = [(c.key, c.op, c.bound, c.scalable) for c in rep.criteria]
    assert declared == CONTRACT[contract], \
        f"criterion {num}: {rep.name} criteria differ from the contract"
    for c in rep.criteria:
        v = rep.value(c.key)
        print(f"[criterion {num:2d}]   {c.key} = {v:.4g} {c.op} "
              f"{c.bound:g} (margin {c.margin(v):.3g})")
    _verdict(num, desc, rep.passed)


def _profiles(sigma0=4.0, a=0.5, b=1.0):
    return tuple(AbsorptionProfile(a=a, b=b, sigma0=sigma0)
                 for _ in range(3))


def _box():
    return BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)


def _grid(n):
    return Grid(_box(), (n, n, n))


def test_criterion_01_spectral_algebra_residuals():
    """Projector/partial-inverse identities hold to 1e-10 over 1000
    random directions in the holomorphy cone."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        re = rng.standard_normal(3)
        re /= np.linalg.norm(re)
        im = rng.standard_normal(3)
        im *= 0.8 * rng.uniform(0, 1) / np.linalg.norm(im)
        xi = rng.uniform(0.2, 5.0) * (re + 1j * im)
        a = algebra.symbol(xi)
        lam, _ = algebra.eigenvalues(xi)
        pp = algebra.projector(+1, xi)
        pm = algebra.projector(-1, xi)
        q = algebra.partial_inverse(xi)
        scale = max(1.0, float(np.abs(a).max()))
        res = [pp + pm - I2, pp @ pp - pp, pm @ pm - pm, pp @ pm,
               a @ pp - lam * pp, a @ pm + lam * pm,
               q @ (a - lam * I2) - (I2 - pp), q @ pp]
        worst = max(worst, max(float(np.abs(r).max()) for r in res) / scale)
    _verdict(1, f"spectral algebra residual {worst:.2e} <= 1e-10",
             worst <= 1e-10)


def test_criterion_02_projector_perturbation_order():
    """The projector derivative matches finite differences at 2nd-order
    accuracy of the central quotient (observed order >= 1.9)."""
    rng = np.random.default_rng(5)
    worst_order = np.inf
    for _ in range(10):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(3)
        exact = algebra.projector_derivative(xi, eta)
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            fd = (algebra.projector(+1, xi + h * eta)
                  - algebra.projector(+1, xi - h * eta)) / (2 * h)
            errs.append(np.abs(fd - exact).max())
        order = float(np.mean(np.log(np.array(errs[:-1])
                                     / np.array(errs[1:])) / np.log(10.0)))
        worst_order = min(worst_order, order)
    _verdict(2, f"perturbation order {worst_order:.2f} >= 1.9",
             worst_order >= 1.9)


def test_criterion_03_stretched_helmholtz_identity():
    """Factored stretched operator equals the divergence form at
    observed order >= 3.5, for absorbing and zero profiles alike."""
    for label, profs in (("absorbing", _profiles()),
                         ("zero", tuple(AbsorptionProfile.zero(1.0)
                                        for _ in range(3)))):
        rep = verify.check_helmholtz_identity(
            StretchContext(2.0 + 1.0j, profs))
        _report_verdict(3, f"helmholtz identity, {label} profiles", rep,
                        "helmholtz_identity")


def test_criterion_04_curved_boundary_identity():
    """Curvature term of the boundary identity on the sphere and the
    rounded box, observed order >= 1.8 with a failing doubled-curvature
    control."""
    for surface in ("sphere", "rounded_box"):
        rep = verify.check_neumann_identity(surface)
        _report_verdict(4, f"boundary identity on the {surface}", rep,
                        "neumann_identity")


def test_criterion_05_transverse_identity_real_and_complex():
    """Stretched transverse identity at tau = 50 and tau = 50 + 20i,
    both at the same order tolerance."""
    rep = verify.check_transverse_identity(
        _profiles(), delta=0.3, tau_set=(50.0, 50.0 + 20.0j))
    _report_verdict(5, "transverse identity", rep, "transverse_identity")


def test_criterion_06_boundary_defect_bounds():
    """The defect matrix m vanishes on far faces (<= 1e-12), its sup
    norm varies <= 10% along the ray tau = t(1 + i/2), t in [1e2, 1e4],
    and its surface gradient is bounded by |beta|."""
    taus = [t * (1.0 + 0.5j) for t in (1e2, 1e3, 1e4)]
    rep = verify.check_m_bounds(_box(), _profiles(), [0.3], taus)
    _report_verdict(6, "m bounds", rep, "m_bounds")


def test_criterion_07_coercivity_of_the_form():
    """Quadratic-form coercivity ratio positive over >= 100 trial
    fields per tau on 17^3, with tau both inside and outside
    |Im tau| < Re tau / 2, and stable within 20% under refinement."""
    taus = (4.0 + 1.0j, 8.0 + 0.5j, 2.0 + 2.0j, 2.0 - 1.0j)
    mins = []
    for n in (17, 21):
        rep = verify.check_coercivity(_profiles(), _grid(n), taus,
                                      n_fields=100)
        _report_verdict(7, f"coercivity on {n}^3", rep, "coercivity")
        mins.append(float(rep.measured["min_ratio"]))
    drift = abs(mins[0] - mins[1]) / mins[1]
    _verdict(7, f"coercivity refinement drift {drift:.1%} <= 20%",
             drift <= 0.20)


def test_criterion_08_resolvent_estimate_sampling():
    """Fitted constant of the resolvent-type estimate stable within 25%
    between the 17^3 and 25^3 meshes over the tau grid."""
    rep = verify.stretched_estimate(_profiles(), grid_sizes=(17, 25))
    _report_verdict(8, "estimate constant stability", rep,
                    "stretched_estimate")


def test_criterion_09_second_boundary_condition():
    """The second boundary condition, never imposed by the solver,
    emerges with observed order >= 1.5 across three grids."""
    profs = _profiles(sigma0=1.0)
    worsts, hs = [], []
    for n in (13, 17, 21):
        grid = _grid(n)
        ctx = StretchContext(2.0 + 1.0j, profs)
        x = grid.mesh()
        F = np.zeros((2,) + tuple(grid.shape), dtype=complex)
        F[0] = np.maximum(0.0, 1.0 - np.sum(x ** 2, axis=0) / 0.16) ** 4
        u = freqdomain.solve(freqdomain.assemble_stretched(ctx, grid, F))
        _, worst = freqdomain.second_bc_residual(u, ctx, grid)
        worsts.append(worst)
        hs.append(grid.spacing[0])
    order = float(np.polyfit(np.log(hs), np.log(worsts), 1)[0])
    _verdict(9, f"second boundary condition order {order:.2f} >= 1.5",
             order >= 1.5)


def test_criterion_10_laplace_consistency():
    """Laplace-transformed time-domain runs match the frequency-domain
    solves within 5% at 25^3, CFL 0.5, with split residual <= 1e-6."""
    taus = (2.0, 2.0 + 0.5j, 2.0 + 1.0j)
    rep = verify.laplace_consistency(_grid(25), _profiles(), taus,
                                     T=10.0, cfl=0.5)
    _report_verdict(10, "laplace consistency", rep, "laplace_consistency")


def test_criterion_11_exponential_weight_stability():
    """The weighted time-domain bound holds with a lambda-uniform
    constant (<= 1.02 including the doubled largest weight), degrades
    <= 10% under refinement, and long runs do not grow."""
    rep = verify.check_stability(_profiles())
    _report_verdict(11, "weighted stability", rep, "stability")


def test_criterion_12_reflection_experiment():
    """Layered runs reflect less than bare runs and improve
    monotonically with the layer width."""
    rep = verify.reflection_experiment()
    desc = ("reflection: layered "
            + "/".join(f"{v:.4f}" for v in rep.measured["pml"])
            + " below bare "
            + "/".join(f"{v:.4f}" for v in rep.measured["bare"])
            + ", monotone in width")
    _report_verdict(12, desc, rep, "reflection")


# -- no contract condition can be dropped ----------------------------------

def _at(c, past):
    """A value just inside (past=False) or just past (past=True) the
    bound of criterion c at scale 1."""
    upper = c.op[0] == "<"
    if past == (len(c.op) == 1):   # strict ops fail exactly at the bound
        return c.bound
    return np.nextafter(c.bound, np.inf if upper == past else -np.inf)


def _synthetic(check, past=None):
    """A report carrying the contract criteria of ``check`` with every
    value just inside its bound, except criterion ``past``."""
    criteria = tuple(verify.Criterion(f"c{i}", *row)
                     for i, row in enumerate(CONTRACT[check]))
    rep = verify.CheckReport(check, criteria=criteria)
    for i, c in enumerate(criteria):
        section, name = c.key.split(".", 1)
        getattr(rep, section)[name] = _at(c, past=i == past)
    return rep


@pytest.mark.parametrize("check", sorted(CONTRACT))
def test_contract_inside_every_bound_passes(check):
    rep = _synthetic(check)
    assert rep.passed and rep.verdict(2.0)
    assert verify.CheckReport.from_text(rep.to_text()).passed


@pytest.mark.parametrize("check, i", [(k, i) for k in sorted(CONTRACT)
                                      for i in range(len(CONTRACT[k]))])
def test_contract_criterion_cannot_be_dropped(check, i):
    """Each contract condition alone fails its report: just past the
    bound, at NaN, and, for the fixed ones, at any tolerance scale."""
    rep = _synthetic(check, past=i)
    c = rep.criteria[i]
    assert not rep.passed
    assert not verify.CheckReport.from_text(rep.to_text()).passed
    if not c.scalable:
        assert not rep.verdict(2.0) and not rep.verdict(0.5)
    elif c.bound != 0:
        assert rep.verdict(2.0) and not rep.verdict(0.5)
    section, name = c.key.split(".", 1)
    getattr(rep, section)[name] = np.nan
    assert not rep.passed
