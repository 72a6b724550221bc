"""Identity and estimate checks packaged as repeatable experiments.

Each check draws deterministic random test fields (trigonometric
polynomials with bounded wavenumber, so finite-difference truncation is
under control), measures the residual of an analytic identity or the
constant of an estimate, and emits a CheckReport.  Identities are
accepted by observed convergence order under step refinement, not by a
single small number, and every identity check carries a negative
control: a deliberately wrong expression must not converge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import (BoxDomain, RoundedBox, BoundaryPoint,
                       rounded_box_point, sample_boundary, singular_distance)
from .stretching import AbsorptionProfile, StretchContext
from .timedomain import (CENTERED2, FrameSeries, Grid, LaplaceTransform,
                         Reducer, SimConfig, derivative, exp_weights,
                         gaussian_source, run)
# unused here; perfbench/test_smoke.py patches and restores this binding
from .timedomain import laplace_of_trace  # noqa: F401
from . import algebra, freqdomain

__all__ = [
    "ACCEPTANCE",
    "CheckReport",
    "TrigField",
    "fit_order",
    "check_spectral_algebra",
    "check_projector_perturbation",
    "check_helmholtz_identity",
    "check_neumann_identity",
    "check_transverse_identity",
    "check_coercivity",
    "check_coercivity_refinement",
    "check_m_bounds",
    "reflection_experiment",
    "laplace_consistency",
    "stretched_estimate",
    "check_second_bc",
    "check_stability",
]


# -- report ------------------------------------------------------------

_OPS = {"<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Criterion:
    """One pass condition on a report scalar, written
    ``<name>: <key> <op> <bound> <scalable|fixed>``.

    ``key`` names the scalar as ``<section>.<name>``, section one of
    ``measured``, ``constants``, ``orders``.  At tolerance scale s a
    scalable upper bound becomes ``bound * s`` and a scalable lower
    bound ``bound / s``; a fixed criterion (a negative control, a
    finiteness guard, an ordering) never moves.  NaN fails every op.
    """

    name: str
    key: str
    op: str
    bound: float
    scalable: bool = True

    @staticmethod
    def parse(text: str) -> "Criterion":
        name, rest = text.split(": ", 1)
        key, op, bound, mode = rest.split()
        if op not in _OPS or mode not in ("scalable", "fixed"):
            raise ValueError(f"malformed criterion {text!r}")
        return Criterion(name, key, op, float(bound), mode == "scalable")

    def __str__(self) -> str:
        mode = "scalable" if self.scalable else "fixed"
        return f"{self.name}: {self.key} {self.op} {self.bound} {mode}"

    def holds(self, value: float, scale: float = 1.0) -> bool:
        bound = self.bound
        if self.scalable:
            bound = bound * scale if self.op[0] == "<" else bound / scale
        return _OPS[self.op](float(value), bound)

    def margin(self, value: float) -> float:
        """Distance from value to the bound, positive when it holds."""
        return self.bound - value if self.op[0] == "<" else value - self.bound


def _criteria(*texts) -> tuple:
    return tuple(map(Criterion.parse, texts))


@dataclass
class CheckReport:
    """Outcome of one named check; it passes when every one of its
    ``criteria`` holds, so a report without criteria passes.

    Serializes to a text document: ``key: value`` lines for scalars
    (sections check/verdict/param/measured/constant/order/tolerance/
    criterion/note) followed by CSV tables, each opened by ``table:
    <name>`` and closed by ``end-table``.  ``criterion.`` prefixes each
    criterion's own line, and ``tolerance.<name>: <bound>`` repeats the
    bound of each scalable one.
    """

    name: str
    params: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    orders: dict = field(default_factory=dict)
    criteria: tuple = ()
    notes: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    def value(self, key: str) -> float:
        section, name = key.split(".", 1)
        return float(getattr(self, section)[name])

    def verdict(self, scale: float = 1.0) -> bool:
        """True when every criterion holds at tolerance scale ``scale``."""
        if not 0 < scale < np.inf:
            raise ValueError(f"tolerance scale {scale} must be finite and > 0")
        return all(c.holds(self.value(c.key), scale) for c in self.criteria)

    @property
    def passed(self) -> bool:
        return self.verdict()

    def to_text(self) -> str:
        lines = [f"check: {self.name}",
                 f"verdict: {'pass' if self.passed else 'fail'}"]
        tolerances = {c.name: c.bound for c in self.criteria if c.scalable}
        for prefix, d in (("param", self.params),
                          ("measured", self.measured),
                          ("constant", self.constants),
                          ("order", self.orders),
                          ("tolerance", tolerances)):
            for k in sorted(d):
                lines.append(f"{prefix}.{k}: {d[k]}")
        lines += [f"criterion.{c}" for c in self.criteria]
        for n in self.notes:
            lines.append(f"note: {n}")
        for tname in self.tables:
            lines += [f"table: {tname}", self.csv(tname) + "end-table"]
        return "\n".join(lines) + "\n"

    def csv(self, tname: str) -> str:
        """Table ``tname`` as CSV text, header line first."""
        header, rows = self.tables[tname]
        return "".join(",".join(map(str, line)) + "\n"
                       for line in [header, *rows])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @staticmethod
    def from_text(text: str) -> "CheckReport":
        rep = CheckReport(name="")
        verdict = None
        it = iter(text.splitlines())
        for line in it:
            if line.startswith("table: "):
                tname = line[len("table: "):]
                header = next(it).split(",")
                rows = []
                for row in it:
                    if row == "end-table":
                        break
                    rows.append(row.split(","))
                rep.tables[tname] = (header, rows)
                continue
            if ": " not in line:
                continue
            key, val = line.split(": ", 1)
            if key == "check":
                rep.name = val
            elif key == "verdict":
                verdict = val
            elif key == "note":
                rep.notes.append(val)
            elif key.startswith("criterion."):
                rep.criteria += _criteria(line[len("criterion."):])
            elif "." in key:
                prefix, k = key.split(".", 1)
                target = {"param": rep.params, "measured": rep.measured,
                          "constant": rep.constants,
                          "order": rep.orders}.get(prefix)
                if target is not None:
                    target[k] = val
        if verdict is not None and verdict != ("pass" if rep.passed
                                               else "fail"):
            raise ValueError(f"report {rep.name!r}: verdict {verdict!r} "
                             "disagrees with its criteria")
        return rep


def _worse(worst: float, value, pick=np.maximum) -> float:
    """Running worst case that keeps a NaN once one is seen; Python's
    ``max``/``min`` would drop it (``max(0.0, nan)`` is 0.0)."""
    return float(pick(worst, value))


def fit_order(values, factor: float = 2.0) -> float:
    """Observed convergence order from residuals at steps decreasing by
    ``factor``; the mean of the pairwise rates."""
    values = np.asarray(values, dtype=float)
    values = np.maximum(values, 1e-300)
    rates = np.log(values[:-1] / values[1:]) / np.log(factor)
    return float(np.mean(rates))


# -- spectral algebra ----------------------------------------------------

def check_spectral_algebra() -> CheckReport:
    """Projector and partial-inverse identities at 1000 random complex
    directions in the holomorphy cone |Im xi| < |Re xi|: pi^+ + pi^- = I,
    both idempotent and disjoint, the eigenrelations, Q (A - lambda I) =
    I - pi^+ and Q pi^+ = 0.  The worst residual, relative to
    max(1, |A(xi)|), must sit at roundoff."""
    n_directions, seed = 1000, 2024
    I2 = np.eye(2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_directions):
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
        worst = _worse(worst, np.max([np.abs(r).max() for r in res]) / scale)
    return CheckReport(
        "spectral_algebra",
        params={"n_directions": n_directions, "seed": seed},
        measured={"max_residual": worst},
        criteria=_criteria(
            "residual_max: measured.max_residual <= 1e-10 scalable"),
    )


def check_projector_perturbation() -> CheckReport:
    """The perturbation formula d pi^+ = -pi^+ A(eta) Q - Q A(eta) pi^+
    against central differences of pi^+ along eta, at 10 random real
    unit xi, with steps 1e-2, 1e-3, 1e-4: the difference falls at the
    central quotient's 2nd order.  The steps stay clear of the quotient's
    roundoff floor, which reaches about 1e-11 at h = 1e-5.  The
    negative control keeps only the first term of the formula and must
    not converge."""
    n_directions, seed = 10, 5
    steps = (1e-2, 1e-3, 1e-4)
    rng = np.random.default_rng(seed)
    worst_order = np.inf
    worst_ctrl = np.inf
    worst_err = 0.0
    for _ in range(n_directions):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        eta = rng.standard_normal(3)
        exact = algebra.projector_derivative(xi, eta)
        one_term = -(algebra.projector(+1, xi) @ algebra.symbol(eta)
                     @ algebra.partial_inverse(xi))
        errs = []
        for h in steps:
            fd = (algebra.projector(+1, xi + h * eta)
                  - algebra.projector(+1, xi - h * eta)) / (2 * h)
            errs.append(np.abs(fd - exact).max())
        worst_order = _worse(worst_order, fit_order(errs, 10.0), np.minimum)
        worst_err = _worse(worst_err, errs[-1])
        worst_ctrl = _worse(worst_ctrl, np.abs(fd - one_term).max()
                            / max(errs[-1], 1e-300), np.minimum)
    return CheckReport(
        "projector_perturbation",
        params={"n_directions": n_directions, "seed": seed,
                "steps": list(steps)},
        measured={"max_error": worst_err, "control_ratio": worst_ctrl},
        orders={"min_observed": worst_order},
        criteria=_criteria(
            "order_min: orders.min_observed >= 1.9 scalable",
            "control: measured.control_ratio > 10 fixed"),
    )


# -- test fields -------------------------------------------------------

class TrigField:
    """Random spinor-valued trigonometric polynomial of four modes with
    wavenumbers in [-kmax, kmax], entire in all three variables so it can
    be evaluated at complex points."""

    def __init__(self, seed: int = 0, kmax: int = 2):
        rng = np.random.default_rng(seed)
        self.k = rng.integers(-kmax, kmax + 1, size=(4, 3)).astype(float)
        self.c = (rng.standard_normal((4, 2))
                  + 1j * rng.standard_normal((4, 2)))

    def __call__(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=complex)
        phase = np.exp(1j * (y @ self.k.T))
        return phase @ self.c

    def partial(self, j: int, y) -> np.ndarray:
        y = np.asarray(y, dtype=complex)
        phase = 1j * self.k[:, j] * np.exp(1j * (y @ self.k.T))
        return phase @ self.c

    def partial2(self, j: int, y) -> np.ndarray:
        y = np.asarray(y, dtype=complex)
        phase = -self.k[:, j] ** 2 * np.exp(1j * (y @ self.k.T))
        return phase @ self.c


def _fd_partial(fun, x, j, h):
    """4th-order central derivative of fun: R^3 -> C^m along axis j, at
    points x (..., 3)."""
    e = np.zeros(3)
    e[j] = h
    return (fun(x - 2 * e) - 8 * fun(x - e)
            + 8 * fun(x + e) - fun(x + 2 * e)) / (12 * h)


def _act(M, v):
    """Per-point matrices M (..., m, n) applied to vectors v (..., n)."""
    return np.einsum("...ij,...j->...i", M, v)


def _ladder(residual, steps, wrong):
    """The step ladder of an identity check.  ``residual(h, k)`` gives
    the discrepancy at each sample point for step h, with the term that
    the negative control perturbs scaled by k.  Returns the worst
    discrepancy per step, their observed order, and the worst control
    discrepancy: k = ``wrong`` at the last step.  ``np.max`` keeps a
    NaN."""
    vals = [float(np.max(residual(h, 1.0), initial=0.0)) for h in steps]
    control = float(np.max(residual(steps[-1], wrong), initial=0.0))
    return vals, fit_order(vals, steps[0] / steps[1]), control


def _box_steps(steps, delta: float):
    """``steps``, or by default (0.02, 0.01) scaled by delta / 0.3, so
    that the +-2h stencil stays on one patch of the rounded box."""
    scale = delta / 0.3
    return (0.02 * scale, 0.01 * scale) if steps is None else steps


def _identity_report(name, params, ladder, order_min):
    """The report of a one-ladder identity check: it passes when the
    observed order reaches order_min and the control stays more than
    ten times the last discrepancy."""
    vals, order, control = ladder
    return CheckReport(
        name, params=params,
        measured={"discrepancy": vals[-1], "per_step": vals,
                  "negative_control": control,
                  "control_ratio": control / max(vals[-1], 1e-300)},
        orders={"observed": order},
        criteria=_criteria(
            f"order_min: orders.observed >= {order_min} scalable",
            "control: measured.control_ratio > 10 fixed"))


# -- stretched Helmholtz identity --------------------------------------

def check_helmholtz_identity(ctx: StretchContext, n_samples: int = 10,
                             seed: int = 0,
                             steps=(0.02, 0.01, 0.005)) -> CheckReport:
    """Compare Pi L(-tau, d~) L(tau, d~) w against (p - tau^2 Pi) w at
    random interior points.

    The product side is evaluated by nested 4th-order finite
    differences; the divergence-form side analytically (the test field
    is a trigonometric polynomial and the coefficient derivatives have
    closed forms), so the two sides are computed through genuinely
    independent code paths and the discrepancy is pure FD truncation.
    Sample points keep a safety margin from the profile seams (where a
    polynomial bump is only finitely smooth) and from the faces; a
    ValueError says when no point can.
    """
    rng = np.random.default_rng(seed)
    w = TrigField(seed=seed + 1)
    A = algebra.pauli_matrices()
    tau = ctx.tau
    margin = 4.0 * max(steps) + 0.02
    a = np.array([p.a for p in ctx.profiles])
    b = np.array([p.b for p in ctx.profiles])
    # |x_j| ranges over [0, b_j - margin] less (a_j - margin, a_j + margin)
    if not np.all((a > margin) | (a + 2 * margin < b)):
        raise ValueError(f"no interior point keeps margin {margin} from "
                         "every profile seam and face")
    pts = np.empty((0, 3))
    while len(pts) < n_samples:
        x = rng.uniform(-b, b, size=(n_samples, 3))
        ok = (np.abs(np.abs(x) - a) >= margin) & (np.abs(x) <= b - margin)
        pts = np.concatenate([pts, x[np.all(ok, axis=-1)]])
    pts = pts[:n_samples]

    def apply_L(sgn, fun, x, h):
        val = sgn * tau * fun(x)
        r = ctx.ratios(x)
        for j in range(3):
            val = val + r[..., j, None] * (_fd_partial(fun, x, j, h)
                                           @ A[j].T)
        return val

    # (p - tau^2 Pi) w analytically; dc_j/dx_j has the closed form
    # -sigma_j' c_j r_j / tau
    c = ctx.p_coefficients(pts)
    r = ctx.ratios(pts)
    Pi = ctx.Pi(pts)[..., None]
    mass = -tau ** 2 * Pi * w(pts)
    div = sum((-ctx.profiles[j].derivative(pts[:, j]) * c[:, j] * r[:, j]
               / tau)[:, None] * w.partial(j, pts)
              + c[:, j, None] * w.partial2(j, pts) for j in range(3))

    def residual(h, fudge):
        lhs = Pi * apply_L(-1, lambda y: apply_L(+1, w, y, h), pts, h)
        rhs = mass + fudge * div
        scale = np.maximum(np.max(np.abs(rhs), axis=-1), 1.0)
        return np.max(np.abs(lhs - rhs), axis=-1) / scale

    return _identity_report(
        "helmholtz_identity",
        {"tau": tau, "n_samples": n_samples, "seed": seed,
         "steps": list(steps)}, _ladder(residual, steps, 1.01), 3.5)


# -- Neumann identity ---------------------------------------------------

def _boundary_residual(u, x0, nu, H, r, v):
    """residual(h, k) of the boundary identity

        pi^+(nu) sum_j r_j A_j d_j u = pi^+(nu) (sum_j v_j d_j + k H) u

    at the points x0, relative to max(|u|, 1), for _ladder."""
    A = algebra.pauli_matrices()
    pip = algebra.projector(+1, nu)
    u0 = u(x0)
    scale = np.maximum(np.linalg.norm(u0, axis=-1), 1.0)

    def residual(h, k):
        grads = [_fd_partial(u, x0, j, h) for j in range(3)]
        lhs = _act(pip, sum(r[:, j, None] * (grads[j] @ A[j].T)
                            for j in range(3)))
        rhs = _act(pip, sum(v[:, j, None] * grads[j] for j in range(3))
                   + k * H[:, None] * u0)
        return np.linalg.norm(lhs - rhs, axis=-1) / scale
    return residual


def _seam_clear(bp: BoundaryPoint, q: RoundedBox, margin: float):
    """True where bp sits well inside its smooth boundary patch: along
    each normal direction the point is clear of the shrunk box by more
    than margin * radius, along each tangent axis it is inside the
    shrunk box by more than margin."""
    d = bp.x - np.clip(bp.x, -q.core_h, q.core_h)
    return np.all(np.where(bp.nu != 0, np.abs(d) > margin * q.radius,
                           np.abs(bp.x) < q.core_h - margin), axis=-1)


def _sample_patch_points(q: RoundedBox, n: int, seed: int) -> BoundaryPoint:
    samples = sample_boundary(q, density=60.0)
    samples = samples[_seam_clear(samples, q, 0.2)]
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(samples), size=min(n, len(samples)), replace=False)
    return samples[idx]


def check_neumann_identity(surface: str = "sphere", n_points: int = 15,
                           seed: int = 0, delta: float = 0.3,
                           steps=None) -> CheckReport:
    """On the unit sphere or a rounded box, fields u = pi^+(nu(x)) w(x)
    with the normal extended constant along normal lines satisfy

        pi^+(nu) sum_j A_j d_j u = pi^+(nu) (nu . grad + H) u

    on the surface, H the mean curvature (positive for these convex
    surfaces, outward normal).  The curvature coefficient H, half the
    trace of the Weingarten map, is forced by the perturbation formula:
    each principal direction contributes kappa_i/2.  Checked by
    4th-order finite differences; the negative control doubles the
    curvature term and must not converge.  On the rounded box the
    default steps scale with delta.
    """
    rng = np.random.default_rng(seed)
    w = TrigField(seed=seed + 1)
    if surface == "sphere":
        dirs = rng.standard_normal((n_points, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x0, H = dirs, np.ones(n_points)

        def nu_ext(y):
            return y / np.linalg.norm(y, axis=-1, keepdims=True)
    elif surface == "rounded_box":
        q = RoundedBox(BoxDomain((1.0, 1.0, 1.0)), delta)
        bps = _sample_patch_points(q, n_points, seed)
        x0, H, nu_ext = bps.x, bps.H, q.normal
    else:
        raise ValueError(f"unknown surface {surface!r}")

    def u_field(y):
        return _act(algebra.projector(+1, nu_ext(y)), w(y))

    steps = _box_steps(steps, delta if surface == "rounded_box" else 0.3)
    nu0 = nu_ext(x0)
    residual = _boundary_residual(u_field, x0, nu0, H, np.ones_like(x0), nu0)
    return _identity_report(
        "neumann_identity",
        {"surface": surface, "n_points": len(x0), "seed": seed,
         "radius": 1.0, "delta": delta, "steps": list(steps)},
        _ladder(residual, steps, 2.0), 1.8)


# -- transverse identities ----------------------------------------------

def check_transverse_identity(profiles, delta: float, tau_set,
                              box: BoxDomain | None = None,
                              n_points: int = 8,
                              seed: int = 0) -> CheckReport:
    """Stretched version of the Neumann identity on the rounded box:

        pi^+(nu~) sum_j A_j d~_j u = pi^+(nu~) (V + H_img) u,

    with H_img the mean curvature of the stretched image surface.  The
    test field is u(x) = pi^+(m(X(x))) w(X(x)), where m is the linear
    extension of the image-surface normal built from the frame jet (so
    the first-order behavior matches the normal field that is constant
    along normal lines).  Real and complex tau are run with the same
    tolerance; holomorphy in tau makes the complex case a continuation
    of the real one.  The steps are (0.02, 0.01) scaled by delta / 0.3.
    """
    steps = _box_steps(None, delta)
    box = box or BoxDomain((1.0, 1.0, 1.0))
    q = RoundedBox(box, delta)
    bps = _sample_patch_points(q, n_points, seed)
    x0 = bps.x
    w = TrigField(seed=seed + 1, kmax=1)
    rows = []
    for tau in tau_set:
        ctx = StretchContext(complex(tau), tuple(profiles))
        nu_y, H, T, dn = ctx.stretched_jet(bps)

        def stretch(x):
            return np.stack([ctx.stretch_map(j, x[..., j])
                             for j in range(3)], axis=-1)
        y0 = stretch(x0)
        # B T_i = dn_i and B nu_y = 0, so m(y) = nu_y + B (y - y0)
        B = np.concatenate([dn, np.zeros_like(dn[..., :1])], axis=-1) \
            @ np.linalg.inv(np.concatenate([T, nu_y[..., None]], axis=-1))

        def u(x):
            y = stretch(x)
            return _act(algebra.projector(+1, nu_y + _act(B, y - y0)), w(y))

        residual = _boundary_residual(u, x0, nu_y, H, ctx.ratios(x0),
                                      ctx.V_coefficients(x0, bps.nu))
        vals, order, ctrl = _ladder(residual, steps, 0.0)
        rows.append([tau, vals[-1], order, ctrl])
    disc, order, ctrl = (np.array([row[i] for row in rows])
                         for i in (1, 2, 3))
    return CheckReport(
        "transverse_identity",
        params={"delta": delta, "tau_set": [complex(t) for t in tau_set],
                "n_points": len(bps), "seed": seed, "steps": list(steps)},
        measured={"max_discrepancy": float(np.max(disc, initial=0.0)),
                  "control_ratio": float(np.min(
                      ctrl / np.maximum(disc, 1e-300), initial=np.inf))},
        orders={"min_observed": float(np.min(order, initial=np.inf))},
        criteria=_criteria(
            "order_min: orders.min_observed >= 1.8 scalable",
            "control: measured.control_ratio > 10 fixed"),
        tables={"per_tau": (["tau", "discrepancy", "order", "control"],
                            rows)},
    )


# -- coercivity ----------------------------------------------------------

def _unit_assembly(grid: Grid) -> freqdomain.HelmholtzAssembly:
    zero = tuple(AbsorptionProfile.zero(b) for b in grid.box.h)
    return freqdomain.assemble_helmholtz(StretchContext(1.0, zero), grid)


def _random_trial_fields(asm, n_fields, seed, grid):
    """Random smooth fields projected into the constrained trial space,
    plus a boundary-concentrated family."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    out = []
    for i in range(n_fields):
        w = TrigField(seed=int(rng.integers(1 << 30)), kmax=2)
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


def check_coercivity(profiles, grid: Grid, tau_list, n_fields: int = 100,
                     seed: int = 0) -> CheckReport:
    """Minimal ratio |A(u, conj u)| over the norm bundle

        |tau| Re(tau) ||u||^2 + (Re tau/|tau|)(|| |beta|^{1/2} u ||^2_bd
                                               + ||grad u||^2)

    over random constrained trial fields, per tau.  Norms are measured
    with the same finite-element quadrature as the form itself.
    """
    asm0 = _unit_assembly(grid)
    # the trial fields and their bundle terms do not depend on tau
    fields = _random_trial_fields(asm0, n_fields, seed, grid)
    if not fields:
        raise ValueError("no nonzero trial fields; check the seed")
    parts = [[z.real for z in asm0.form_parts(u, np.conj(u))]
             for u in fields]
    del asm0  # one assembly at a time bounds the memory
    rows = []
    global_min = np.inf
    for tau in tau_list:
        tau = complex(tau)
        asm = freqdomain.assemble_helmholtz(
            StretchContext(tau, tuple(profiles)), grid)
        avals = [abs(asm.form(u, np.conj(u))) for u in fields]
        del asm
        rmin = np.inf
        for aval, (k0, m0, b0) in zip(avals, parts):
            bundle = (abs(tau) * tau.real * m0
                      + (tau.real / abs(tau)) * (abs(tau) * b0 + k0))
            if bundle <= 0:
                continue
            rmin = _worse(rmin, aval / bundle, np.minimum)
        rows.append([tau, rmin, len(fields)])
        global_min = _worse(global_min, rmin, np.minimum)
    return CheckReport(
        "coercivity",
        params={"grid": list(grid.shape),
                "tau_list": [complex(t) for t in tau_list],
                "n_fields": n_fields, "seed": seed},
        measured={"min_ratio": global_min},
        criteria=_criteria("ratio_min: measured.min_ratio > 0 scalable"),
        tables={"per_tau": (["tau", "min_ratio", "n_fields"], rows)},
    )


def check_coercivity_refinement(profiles, tau_list) -> CheckReport:
    """check_coercivity with 100 fields of seed 0 on the 17^3 and 21^3
    meshes of the unit box: its ratio criterion holds for the smallest
    ratio over both meshes, and that ratio moves by at most 20% between
    them."""
    grid_sizes, n_fields, seed = (17, 21), 100, 0
    box = BoxDomain((1.0,) * 3, inner_fraction=0.5)
    mins, criteria = [], ()
    for n in grid_sizes:
        rep = check_coercivity(profiles, Grid(box, (int(n),) * 3), tau_list,
                               n_fields=n_fields, seed=seed)
        mins.append(float(rep.measured["min_ratio"]))
        criteria = rep.criteria
    return CheckReport(
        "coercivity_refinement",
        params={"grid_sizes": list(grid_sizes),
                "tau_list": [complex(t) for t in tau_list],
                "n_fields": n_fields, "seed": seed},
        measured={"min_ratio": float(np.min(mins)),
                  "drift": abs(mins[0] - mins[-1]) / max(mins[-1], 1e-300)},
        criteria=criteria + _criteria("drift: measured.drift <= 0.20 scalable"),
        tables={"per_mesh": (["n", "min_ratio"],
                             [list(r) for r in zip(grid_sizes, mins)])},
    )


# -- m-matrix bounds -----------------------------------------------------

def check_m_bounds(box: BoxDomain, profiles, delta_set, tau_set,
                   density: float = 40.0, seed: int = 0) -> CheckReport:
    """Support, sup-norm, and gradient bounds of the boundary defect
    matrix m over a (delta, tau) product set.

    (i) on face samples farther than delta from the box edges, ||m|| is
    zero to roundoff; (ii) the fitted constant sup ||m|| is stable in
    tau; (iii) the surface gradient satisfies ||grad m|| <= C |beta|.

    The geometry of each delta is built once: the samples, the far-face
    mask, the seam-clear curved samples, and the boundary points at +-h
    along each of their chart parameters.  Each tau then evaluates m on
    the samples and on those neighbours, and beta on the curved
    samples, as stacked array passes.
    ``seed`` is read nowhere; it stays because ``perfbench/`` passes it.
    """
    rows = []
    face_far_max = 0.0
    sup_by_tau = {complex(t): 0.0 for t in tau_set}
    grad_const = 0.0
    h = 1e-4
    # axes: chart parameter, sign of the offset
    offsets = h * np.array([[e, -e] for e in np.eye(2)])
    for delta in delta_set:
        q = RoundedBox(box, delta)
        samples = sample_boundary(q, density=density)
        face = samples.kind == 0
        far = face & (singular_distance(box, samples.x) > delta)
        curved = samples[~face & _seam_clear(samples, q, 0.15)]
        neighbours = rounded_box_point(q, curved.chart(offsets))
        for tau in tau_set:
            ctx = StretchContext(complex(tau), tuple(profiles))
            nrm = np.linalg.norm(ctx.m_matrix(samples), 2, axis=(-2, -1))
            sup_m = float(np.max(nrm, initial=0.0))
            far_m = float(np.max(nrm[far], initial=0.0))
            mn = ctx.m_matrix(neighbours)
            grad = np.linalg.norm((mn[:, :, 0] - mn[:, :, 1]) / (2 * h), 2,
                                  axis=(-2, -1))
            _, beta = ctx.Phi_beta(curved)
            c3 = float(np.max(np.sqrt(grad[:, 0] ** 2 + grad[:, 1] ** 2)
                              / np.abs(beta), initial=0.0))
            rows.append([delta, complex(tau), sup_m, far_m, c3])
            face_far_max = _worse(face_far_max, far_m)
            sup_by_tau[complex(tau)] = _worse(sup_by_tau[complex(tau)], sup_m)
            grad_const = _worse(grad_const, c3)
    sups = np.array(list(sup_by_tau.values()))
    variation = float((sups.max() - sups.min()) / max(sups.max(), 1e-300))
    return CheckReport(
        "m_bounds",
        params={"delta_set": list(delta_set),
                "tau_set": [complex(t) for t in tau_set],
                "density": density},
        measured={"face_far_max": face_far_max,
                  "sup_variation": variation},
        constants={"sup_norm": float(sups.max()),
                   "grad_over_beta": grad_const},
        criteria=_criteria(
            "face_far: measured.face_far_max <= 1e-12 scalable",
            "sup_variation: measured.sup_variation <= 0.10 scalable",
            "grad_finite: constants.grad_over_beta < inf fixed"),
        notes=["fractional-Sobolev interpolation bounds are not checked;"
               " only support, sup-norm and gradient bounds are"],
        tables={"per_case": (["delta", "tau", "sup_m", "face_far",
                              "grad_over_beta"], rows)},
    )


# -- reflection experiment -----------------------------------------------

def _inner_mask(grid: Grid, a: float) -> np.ndarray:
    masks = [np.abs(ax) <= a + 1e-9 for ax in grid.axes]
    return (masks[0][:, None, None] & masks[1][None, :, None]
            & masks[2][None, None, :])


class _InnerDifference(Reducer):
    """max_t ||u - u_ref||_{L2(inner)} / max_t ||u_ref||_{L2(inner)} of
    the frames against ``ref``, a FrameSeries of the reference's frames
    on the inner region |x_j| <= a (``value()``).  Frames are paired by
    time: a frame without a reference frame at the same time raises
    ValueError."""

    def __init__(self, ref: FrameSeries, a: float):
        self.ref, self.a = ref, a

    def start(self, grid: Grid, times) -> None:
        super().start(grid, times)
        self.mask = _inner_mask(grid, self.a)
        self.vol = float(np.prod(grid.spacing))
        self.worst = self.peak = 0.0

    def add(self, t: float, s: np.ndarray) -> None:
        i, ref = self.count, self.ref
        if i >= len(ref.values) or not np.isclose(t, ref.times[i],
                                                  rtol=1e-12, atol=1e-12):
            raise ValueError(f"frame {i} at t = {t:.6g} has no reference "
                             "frame at the same time")
        ur = ref.values[i]
        diff = np.sqrt(np.sum(np.abs(s[:, self.mask] - ur) ** 2) * self.vol)
        nref = np.sqrt(np.sum(np.abs(ur) ** 2) * self.vol)
        self.worst = _worse(self.worst, diff)
        self.peak = _worse(self.peak, nref)
        self.count += 1

    def value(self) -> float:
        return self.worst / max(self.peak, 1e-300)


def reflection_experiment(h: float = 1.0 / 16.0, a: float = 0.5,
                          widths=(0.25, 0.5), sigma0: float = 25.0,
                          T: float = 2.0, cfl: float = 0.5,
                          ref_half: float = 1.75) -> CheckReport:
    """Pulse runs with and without absorbing layers against an enlarged
    reference domain that the wave cannot traverse within T.

    The metric compares the trace on the common inner region |x_j| <= a,
    frame by frame; the reference keeps only its inner-region frames
    and each layered run streams against them.  Asserted: every layered
    run reflects less than the bare run, and the metric decreases as the
    layer widens.  No quantitative rate is claimed.

    The grids have spacing h and must share the reference's nodes, so
    2 ref_half / h and (ref_half - a - width) / h must be integers; a
    width or ref_half that breaks this raises ValueError before any run.
    """
    def off_lattice(length):
        k = length / h
        return abs(k - round(k)) > 1e-9 * max(1.0, abs(k))

    if off_lattice(2 * ref_half):
        raise ValueError(f"ref_half = {ref_half!r} is not a multiple of "
                         f"h/2 = {h / 2!r}")
    for width in widths:
        if off_lattice(ref_half - a - width):
            raise ValueError(f"layer width {width!r} puts the grid's nodes "
                             f"off the reference's: ref_half - a - width "
                             f"must be a multiple of h = {h!r}")

    def make_grid(half):
        n = int(round(2 * half / h)) + 1
        box = BoxDomain((half, half, half), inner_fraction=a / half)
        return Grid(box, (n, n, n))

    def make_source(grid):
        return gaussian_source(grid, width=0.08, t_off=0.5,
                               polarization=(1.0, 0.5j))

    stride = 2
    g_ref = make_grid(ref_half)
    m_ref = _inner_mask(g_ref, a)
    ref = FrameSeries(lambda s: s[:, m_ref])
    # the reference against itself, fed each frame right after ``ref``
    self_diff = _InnerDifference(ref, a)
    zero_ref = tuple(AbsorptionProfile.zero(ref_half) for _ in range(3))
    run(SimConfig(g_ref, cfl=cfl, T=T, stride=stride), zero_ref,
        make_source(g_ref), reducers=[ref, self_diff])

    pml_vals, bare_vals = [], []
    for width in widths:
        half = a + width
        g = make_grid(half)
        pml = tuple(AbsorptionProfile(a=a, b=half, sigma0=sigma0)
                    for _ in range(3))
        bare = tuple(AbsorptionProfile.zero(half) for _ in range(3))
        for vals, profs in ((pml_vals, pml), (bare_vals, bare)):
            diff = _InnerDifference(ref, a)
            run(SimConfig(g, cfl=cfl, T=T, stride=stride), profs,
                make_source(g), reducers=[diff])
            vals.append(diff.value())

    self_metric = self_diff.value()
    rows = [list(r) for r in zip(widths, pml_vals, bare_vals)]
    return CheckReport(
        "reflection",
        params={"h": h, "a": a, "widths": list(widths), "sigma0": sigma0,
                "T": T, "cfl": cfl, "ref_half": ref_half},
        measured={"self_metric": self_metric,
                  "pml": pml_vals, "bare": bare_vals,
                  "max_pml_minus_bare":
                      float(np.max(np.subtract(pml_vals, bare_vals))),
                  "max_pml_increase":
                      float(np.max(np.diff(pml_vals), initial=-np.inf))},
        criteria=_criteria(
            "self_zero: measured.self_metric <= 0 fixed",
            "ordered: measured.max_pml_minus_bare < 0 fixed",
            "monotone: measured.max_pml_increase < 0 fixed"),
        tables={"per_width": (["width", "pml_metric", "bare_metric"], rows)},
    )


# -- Laplace consistency ---------------------------------------------------

def _raised_cosine_hat(tau: complex, period: float) -> complex:
    """Laplace transform of sin^2(pi t / P) on [0, P]."""
    om = 2.0 * np.pi / period
    return (1.0 - np.exp(-tau * period)) * om ** 2 \
        / (2.0 * tau * (tau ** 2 + om ** 2))


def laplace_consistency(grid: Grid, profiles, tau_set, T: float = 10.0,
                        cfl: float = 0.5) -> CheckReport:
    """Cross-validate the two solver paths through the Laplace transform.

    A time-domain run with a Gaussian source of width 0.12, switched off
    at t = 1, is transformed at each tau and compared with the
    frequency-domain solve whose source is F = sum_j tau f_j / (tau +
    sigma_j).  The split components V^j = (f_j - A_j d_j v)/(tau +
    sigma_j) are also reconstructed and summed back to v.  The run
    streams its frames into one transform per tau.
    """
    t_off = 1.0
    src = gaussian_source(grid, width=0.12, t_off=t_off)
    transforms = [LaplaceTransform(complex(tau)) for tau in tau_set]
    run(SimConfig(grid, cfl=cfl, T=T, stride=1), tuple(profiles), src,
        reducers=transforms)
    A = algebra.pauli_matrices()
    pts = np.moveaxis(grid.mesh(), 0, -1)
    hsp = grid.spacing
    rows = []
    worst_rel = 0.0
    worst_split = 0.0
    for transform in transforms:
        tau = transform.tau
        ctx = StretchContext(tau, tuple(profiles))
        uhat = transform.value()
        fhat = src.spatial * _raised_cosine_hat(tau, t_off)
        r = ctx.ratios(pts)[None]  # tau/(tau + sigma_j) at the nodes
        F = np.zeros_like(fhat)
        for j in range(3):
            F += src.weights[j] * r[..., j] * fhat
        op = freqdomain.assemble_stretched(ctx, grid, F)
        v = freqdomain.solve(op)
        rel = grid.norm(uhat - v) / max(grid.norm(v), 1e-300)
        # split reconstruction
        vsum = np.zeros_like(v)
        for j in range(3):
            dv = derivative(CENTERED2, v, j + 1, hsp[j])
            vsum += (src.weights[j] * fhat
                     - np.einsum("ab,b...->a...", A[j], dv)) \
                * r[..., j] / tau
        inner = (slice(None), slice(1, -1), slice(1, -1), slice(1, -1))
        split_res = (np.max(np.abs((vsum - v)[inner]))
                     / max(np.max(np.abs(v[inner])), 1e-300))
        rows.append([tau, rel, split_res])
        worst_rel = _worse(worst_rel, rel)
        worst_split = _worse(worst_split, split_res)
    return CheckReport(
        "laplace_consistency",
        params={"grid": list(grid.shape),
                "tau_set": [complex(t) for t in tau_set],
                "T": T, "cfl": cfl},
        measured={"max_rel_difference": worst_rel,
                  "max_split_residual": worst_split},
        criteria=_criteria(
            "rel_difference: measured.max_rel_difference <= 0.05 scalable",
            "split_residual: measured.max_split_residual <= 1e-6 scalable"),
        tables={"per_tau": (["tau", "rel_difference", "split_residual"],
                            rows)},
    )


# -- stretched-system estimate sampling ------------------------------------

def _grad_norm(grid: Grid, u: np.ndarray) -> float:
    h = grid.spacing
    acc = 0.0
    for j in range(3):
        acc += grid.norm(derivative(CENTERED2, u, j + 1, h[j])) ** 2
    return float(np.sqrt(acc))


def stretched_estimate(profiles, grid_sizes=(17, 25),
                       half: float = 1.0) -> CheckReport:
    """Fitted constant of the resolvent-type estimate for the stretched
    system over a tau grid, per mesh.

    For a fixed compactly supported source F (a Gaussian of width
    0.12), the three quantities
    (Re tau)||u||, (Re tau)^{1/2}||u||_bd and (Re tau/|tau|)||grad u||
    are each measured against ||F|| over {Re tau in [M, 4M],
    |Im tau| <= 4M}, M = 2; the fitted constant is the largest ratio
    seen.  The
    check passes when the constant moves by no more than 25% between the
    two meshes (the bound exists at the continuous level, so it must
    stabilize under refinement).
    """
    M = 2.0
    box = BoxDomain((half,) * 3, inner_fraction=0.5)
    tau_grid = [complex(M), complex(4 * M), complex(M, 4 * M),
                complex(4 * M, 4 * M), complex(2 * M, -2 * M)]
    rows = []
    fitted = []
    for n in grid_sizes:
        grid = Grid(box, (int(n),) * 3)
        F = gaussian_source(grid, width=0.12).spatial.astype(complex)
        nF = grid.norm(F)
        c_mesh = 0.0
        for tau in tau_grid:
            ctx = StretchContext(tau, tuple(profiles))
            u = freqdomain.solve(freqdomain.assemble_stretched(ctx, grid, F))
            q1 = tau.real * grid.norm(u) / nF
            q2 = np.sqrt(tau.real) * np.sqrt(grid.boundary_norm_sq(u)) / nF
            q3 = (tau.real / abs(tau)) * _grad_norm(grid, u) / nF
            rows.append([int(n), tau, q1, q2, q3])
            c_mesh = _worse(c_mesh, np.max([q1, q2, q3]))
        fitted.append(c_mesh)
    stability = abs(fitted[0] - fitted[-1]) / max(fitted[-1], 1e-300)
    return CheckReport(
        "stretched_estimate",
        params={"grid_sizes": list(grid_sizes), "M": M,
                "tau_grid": tau_grid},
        measured={"stability": stability},
        constants={**{f"C_n{n}": c for n, c in zip(grid_sizes, fitted)},
                   "C_max": float(np.max(fitted))},
        criteria=_criteria(
            "c_stability: measured.stability <= 0.25 scalable",
            "c_finite: constants.C_max < inf fixed"),
        tables={"per_tau": (["n", "tau", "vol_ratio", "bdry_ratio",
                             "grad_ratio"], rows)},
    )


# -- second boundary condition ---------------------------------------------

def check_second_bc(profiles) -> CheckReport:
    """The second boundary condition pi^+(nu~)(V + tau) u = 0, which the
    solver never imposes, emerges under refinement: the worst face
    residual of unit-box solves at tau = 2+1i on 13^3, 17^3 and 21^3 with
    a quartic-bump source falls with an order fitted by least squares in
    log h."""
    tau, grid_sizes = 2.0 + 1.0j, (13, 17, 21)
    box = BoxDomain((1.0,) * 3, inner_fraction=0.5)
    ctx = StretchContext(complex(tau), tuple(profiles))
    rows = []
    for n in grid_sizes:
        grid = Grid(box, (int(n),) * 3)
        x = grid.mesh()
        F = np.zeros((2,) + tuple(grid.shape), dtype=complex)
        F[0] = np.maximum(0.0, 1.0 - np.sum(x ** 2, axis=0) / 0.16) ** 4
        u = freqdomain.solve(freqdomain.assemble_stretched(ctx, grid, F))
        _, worst = freqdomain.second_bc_residual(u, ctx, grid)
        rows.append([int(n), grid.spacing[0], worst])
    _, hs, worsts = zip(*rows)
    return CheckReport(
        "second_bc",
        params={"tau": complex(tau), "grid_sizes": list(grid_sizes)},
        orders={"observed": float(np.polyfit(np.log(hs), np.log(worsts),
                                             1)[0])},
        criteria=_criteria("order_min: orders.observed >= 1.5 scalable"),
        tables={"per_mesh": (["n", "h", "max_residual"], rows)},
    )


# -- time-domain stability property ----------------------------------------

def check_stability(profiles, grid_sizes=(17, 25),
                    lam_set=(1.0, 2.0, 4.0, 8.0), T: float = 4.0,
                    transit_factor: float = 10.0, cfl: float = 0.5,
                    half: float = 1.0) -> CheckReport:
    """Exponentially weighted norm ratio of the split solver and the
    long-run boundedness of the field.

    For each mesh and each weight lam, measures
    lam ||e^{-lam t} u|| / ||e^{-lam t} f|| over [0, T] (space-time
    norms, u the trace).  The dissipative energy estimate bounds this
    ratio by the constant 1, uniformly in lam; the pointwise ratio
    climbs toward that sharp constant as lam grows, so the check
    asserts (a) the lam-uniform bound, including at twice the largest
    lam of the grid, (b) the ratio does not grow under grid refinement
    at fixed lam, and (c) a long run over ``transit_factor``
    box-crossing times never exceeds its source switch-off maximum by
    more than 0.1%.  The runs keep no frames, only their per-frame
    norms and maxima.
    """
    box = BoxDomain((half,) * 3, inner_fraction=0.5)
    t_off = 1.0
    lams = list(lam_set) + [2.0 * max(lam_set)]
    ratios = {}
    rows = []
    for n in grid_sizes:
        grid = Grid(box, (int(n),) * 3)
        src = gaussian_source(grid, width=0.12, t_off=t_off)
        norms_sq = FrameSeries(lambda s: grid.norm(s) ** 2)
        run(SimConfig(grid, cfl=cfl, T=T, stride=2), tuple(profiles), src,
            reducers=[norms_sq])
        nspat = grid.norm(src.spatial)
        for lam in lams:
            u2 = sum(w * s2 for w, s2 in zip(exp_weights(norms_sq.times, lam),
                                             norms_sq.values))
            tq = np.linspace(0.0, t_off, 401)
            f2 = np.trapezoid(np.exp(-2 * lam * tq)
                              * src.envelope(tq) ** 2, tq) * nspat ** 2
            ratio = lam * np.sqrt(u2) / np.sqrt(f2)
            ratios[(int(n), lam)] = float(ratio)
            rows.append([int(n), lam, float(ratio)])

    fitted_c = float(np.max(list(ratios.values())))
    refine_growth = float(np.max(
        [ratios[(grid_sizes[-1], lam)] / ratios[(grid_sizes[0], lam)]
         for lam in lams]))

    # long-run boundedness on the coarse mesh
    grid = Grid(box, (int(grid_sizes[0]),) * 3)
    src = gaussian_source(grid, width=0.12, t_off=t_off)
    T_long = transit_factor * 2.0 * half
    peaks = FrameSeries(lambda s: np.max(np.abs(s)))
    run(SimConfig(grid, cfl=cfl, T=T_long, stride=4), tuple(profiles), src,
        reducers=[peaks])
    times = peaks.times
    maxima = np.array(peaks.values)
    i_off = int(np.searchsorted(times, t_off))
    m_off = float(np.max(maxima[:i_off + 1]))
    m_after = float(np.max(maxima[i_off:]))
    blowup_ratio = m_after / max(m_off, 1e-300)

    return CheckReport(
        "stability",
        params={"grid_sizes": list(grid_sizes), "lam_set": list(lam_set),
                "T": T, "T_long": T_long, "cfl": cfl},
        measured={"fitted_c": fitted_c,
                  "refine_growth": refine_growth,
                  "blowup_ratio": blowup_ratio},
        constants={"dissipative_bound": 1.0},
        criteria=_criteria(
            "fitted_c: measured.fitted_c <= 1.02 scalable",
            "refine_growth: measured.refine_growth <= 1.10 scalable",
            "blowup_ratio: measured.blowup_ratio <= 1.001 scalable"),
        tables={"ratios": (["n", "lambda", "ratio"], rows)},
    )


# -- acceptance registry -----------------------------------------------------

def _layers(sigma0: float = 4.0):
    return (AbsorptionProfile(a=0.5, b=1.0, sigma0=sigma0),) * 3


# (number, title, run) of the 12 acceptance criteria at their contract
# settings; 03 and 04 run twice.  A run looks its check up in this
# module when it is called, so a replaced or traced attribute is what runs.
ACCEPTANCE = (
    (1, "spectral_algebra", lambda: check_spectral_algebra()),
    (2, "projector_perturbation", lambda: check_projector_perturbation()),
    (3, "helmholtz_identity_absorbing", lambda: check_helmholtz_identity(
        StretchContext(2.0 + 1.0j, _layers()))),
    (3, "helmholtz_identity_zero", lambda: check_helmholtz_identity(
        StretchContext(2.0 + 1.0j, _layers(sigma0=0.0)))),
    (4, "neumann_identity_sphere", lambda: check_neumann_identity("sphere")),
    (4, "neumann_identity_rounded_box",
     lambda: check_neumann_identity("rounded_box")),
    (5, "transverse_identity", lambda: check_transverse_identity(
        _layers(), delta=0.3, tau_set=(50.0, 50.0 + 20.0j))),
    (6, "m_bounds", lambda: check_m_bounds(
        BoxDomain((1.0,) * 3, inner_fraction=0.5), _layers(), [0.3],
        [t * (1.0 + 0.5j) for t in (1e2, 1e3, 1e4)])),
    (7, "coercivity_refinement", lambda: check_coercivity_refinement(
        _layers(), (4.0 + 1.0j, 8.0 + 0.5j, 2.0 + 2.0j, 2.0 - 1.0j))),
    (8, "stretched_estimate",
     lambda: stretched_estimate(_layers(), grid_sizes=(17, 25))),
    (9, "second_bc", lambda: check_second_bc(_layers(sigma0=1.0))),
    (10, "laplace_consistency", lambda: laplace_consistency(
        Grid(BoxDomain((1.0,) * 3, inner_fraction=0.5), (25,) * 3),
        _layers(), (2.0, 2.0 + 0.5j, 2.0 + 1.0j), T=10.0, cfl=0.5)),
    (11, "stability", lambda: check_stability(_layers())),
    (12, "reflection", lambda: reflection_experiment()),
)
