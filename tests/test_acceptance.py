"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.  Tolerances here are the contract; they must
not be loosened to force a pass.

Every criterion runs the entries of the registry ``verify.ACCEPTANCE``
with its number through one path: it asserts that each report's own
criteria match the literal contract below, prints each measured value
with its bound and margin, then asserts the report's verdict, so a
bound loosened in ``verify`` fails here."""

import numpy as np
import pytest

from paulipml import algebra, verify


# (key, op, bound, scalable) of every report criterion, per check
CONTRACT = {
    "spectral_algebra": [("measured.max_residual", "<=", 1e-10, True)],
    "projector_perturbation": [
        ("orders.min_observed", ">=", 1.9, True),
        ("measured.control_ratio", ">", 10.0, False)],
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
    "coercivity_refinement": [("measured.min_ratio", ">", 0.0, True),
                              ("measured.drift", "<=", 0.20, True)],
    "stretched_estimate": [("measured.stability", "<=", 0.25, True),
                           ("constants.C_max", "<", np.inf, False)],
    "second_bc": [("orders.observed", ">=", 1.5, True)],
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


def _accept(num):
    """Run every registry entry of criterion ``num``: check its report's
    criteria against the contract, print each with its measured value
    and margin, and assert the report's verdict."""
    entries = [(t, run) for n, t, run in verify.ACCEPTANCE if n == num]
    assert entries, f"criterion {num} has no registry entry"
    for title, run in entries:
        rep = run()
        declared = [(c.key, c.op, c.bound, c.scalable) for c in rep.criteria]
        assert declared == CONTRACT[rep.name], \
            f"criterion {num}: {rep.name} criteria differ from the contract"
        for c in rep.criteria:
            v = rep.value(c.key)
            print(f"[criterion {num:2d}]   {c.key} = {v:.4g} {c.op} "
                  f"{c.bound:g} (margin {c.margin(v):.3g})")
        print(f"[criterion {num:2d}] {title}: "
              f"{'PASS' if rep.passed else 'FAIL'}")
        assert rep.passed, f"criterion {num} ({title}) failed"


def test_criterion_01_spectral_algebra_residuals():
    """Projector/partial-inverse identities hold to 1e-10 over 1000
    random directions in the holomorphy cone."""
    _accept(1)


def test_criterion_02_projector_perturbation_order():
    """The projector derivative matches finite differences at 2nd-order
    accuracy of the central quotient (observed order >= 1.9), and the
    formula without its second term does not."""
    _accept(2)


def test_criterion_03_stretched_helmholtz_identity():
    """Factored stretched operator equals the divergence form at
    observed order >= 3.5, for absorbing and zero profiles alike."""
    _accept(3)


def test_criterion_04_curved_boundary_identity():
    """Curvature term of the boundary identity on the sphere and the
    rounded box, observed order >= 1.8 with a failing doubled-curvature
    control."""
    _accept(4)


def test_criterion_05_transverse_identity_real_and_complex():
    """Stretched transverse identity at tau = 50 and tau = 50 + 20i,
    both at the same order tolerance."""
    _accept(5)


def test_criterion_06_boundary_defect_bounds():
    """The defect matrix m vanishes on far faces (<= 1e-12), its sup
    norm varies <= 10% along the ray tau = t(1 + i/2), t in [1e2, 1e4],
    and its surface gradient is bounded by |beta|."""
    _accept(6)


def test_criterion_07_coercivity_of_the_form():
    """Quadratic-form coercivity ratio positive over >= 100 trial
    fields per tau on 17^3 and 21^3, with tau both inside and outside
    |Im tau| < Re tau / 2, and stable within 20% under refinement."""
    _accept(7)


def test_criterion_08_resolvent_estimate_sampling():
    """Fitted constant of the resolvent-type estimate stable within 25%
    between the 17^3 and 25^3 meshes over the tau grid."""
    _accept(8)


def test_criterion_09_second_boundary_condition():
    """The second boundary condition, never imposed by the solver,
    emerges with observed order >= 1.5 across three grids."""
    _accept(9)


def test_criterion_10_laplace_consistency():
    """Laplace-transformed time-domain runs match the frequency-domain
    solves within 5% at 25^3, CFL 0.5, with split residual <= 1e-6."""
    _accept(10)


def test_criterion_11_exponential_weight_stability():
    """The weighted time-domain bound holds with a lambda-uniform
    constant (<= 1.02 including the doubled largest weight), degrades
    <= 10% under refinement, and long runs do not grow."""
    _accept(11)


def test_criterion_12_reflection_experiment():
    """Layered runs reflect less than bare runs and improve
    monotonically with the layer width."""
    _accept(12)


def test_registry_numbers_are_the_12_criteria():
    numbers, titles, _ = zip(*verify.ACCEPTANCE)
    assert set(numbers) == set(range(1, 13))
    assert len(set(titles)) == len(titles)


@pytest.mark.parametrize("number", [1, 2])
def test_nan_projector_fails_the_algebra_criteria(monkeypatch, number):
    """A NaN from the 7th projector call reaches the verdict; a running
    worst case kept with Python's max/min would drop it."""
    projector, calls = algebra.projector, []

    def nan_once(sign, xi):
        calls.append(sign)
        out = projector(sign, xi)
        return out * np.nan if len(calls) == 7 else out

    monkeypatch.setattr(algebra, "projector", nan_once)
    run, = [run for num, _, run in verify.ACCEPTANCE if num == number]
    assert not run().passed
    assert len(calls) > 7


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
