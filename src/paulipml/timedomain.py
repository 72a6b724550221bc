"""Explicit split-field solver on a tensor grid over the box.

The unknown is the triple (U1, U2, U3) of spinor fields satisfying

    (d_t + sigma_j(x_j)) U^j + A_j d_j (U1 + U2 + U3) = f_j,

with the dissipative condition that the trace s = U1 + U2 + U3 belongs
to the outgoing eigenspace of A(nu) on every face of the box.  Space is
discretized by 4th-order finite differences on a collocated grid, time
by the classical 4-stage Runge-Kutta method with the boundary projection
applied after every step.  The split operator L does not depend on time
and the source enters as env(t) f_j, so each step is taken as four
nested Horner levels z <- y + c (L z + e f), z = y at the start, with
(c, e) from the inside out

    (dt/4, f0), (dt/3, (f0 + fm)/2), (dt/2, (f0 + 2 fm)/3),
    (dt, (f0 + 4 fm + f1)/6),

f0, fm, f1 the envelopes at t, t + dt/2, t + dt; this equals the staged
y + dt/6 (k1 + 2 k2 + 2 k3 + k4) exactly.  The module also provides
probe/snapshot recording, exponentially weighted space-time norms, and
the truncated Laplace transform of the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .errors import StabilityError, TruncationWarning
from .geometry import BoxDomain, faces
from . import algebra

__all__ = [
    "Grid",
    "SplitState",
    "SourceSpec",
    "SimConfig",
    "Recording",
    "Workspace",
    "gaussian_source",
    "diff4",
    "rhs",
    "apply_boundary",
    "step",
    "run",
    "weighted_norms",
    "laplace_of_trace",
    "write_snapshot",
    "read_snapshot",
    "write_probes",
]

_OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class Grid:
    """Collocated tensor grid over the closed box, n_j >= 5 per axis."""

    box: BoxDomain
    shape: tuple[int, int, int]

    def __post_init__(self):
        if min(self.shape) < 5:
            raise ValueError("need at least 5 nodes per axis")

    @property
    def spacing(self) -> np.ndarray:
        return 2.0 * self.box.h / (np.asarray(self.shape) - 1)

    @property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        h = self.box.h
        return tuple(np.linspace(-h[j], h[j], self.shape[j]) for j in range(3))

    def mesh(self) -> np.ndarray:
        """Coordinates, shape (3, n1, n2, n3)."""
        return np.stack(np.meshgrid(*self.axes, indexing="ij"))

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def norm(self, field) -> float:
        """Trapezoidal discrete L2 norm of a (2, n1, n2, n3) field."""
        w = self._trap_weights
        return float(np.sqrt(np.sum(w * np.abs(field) ** 2)
                             * self.cell_volume()))

    @cached_property
    def _trap_weights(self) -> np.ndarray:
        """Trapezoid weights of the volume norm, built once per grid."""
        w = [_trap_1d(n) for n in self.shape]
        return w[0][:, None, None] * w[1][None, :, None] * w[2][None, None, :]

    @cached_property
    def _face_weights(self) -> tuple:
        """Trapezoid area weights of the faces normal to each axis."""
        h = self.spacing
        out = []
        for axis in range(3):
            i1, i2 = [i for i in range(3) if i != axis]
            out.append(_trap_1d(self.shape[i1])[:, None]
                       * _trap_1d(self.shape[i2])[None, :] * h[i1] * h[i2])
        return tuple(out)


def _trap_1d(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


@dataclass
class SplitState:
    """Three split spinor fields stacked as U[j] with j = 0, 1, 2."""

    U: np.ndarray  # (3, 2, n1, n2, n3) complex
    t: float = 0.0

    @staticmethod
    def zeros(grid: Grid) -> "SplitState":
        return SplitState(np.zeros((3, 2) + tuple(grid.shape), dtype=complex))

    @property
    def trace(self) -> np.ndarray:
        """The physical field s = U1 + U2 + U3."""
        return np.sum(self.U, axis=0)


@dataclass(frozen=True)
class SourceSpec:
    """Spinor source f(t, x) with its splitting rule.

    ``spatial`` has shape (2, n1, n2, n3) and must vanish outside the
    inner box; ``envelope`` is the scalar time factor, zero outside
    [0, t_off]; ``weights`` sum to 1 and give f_j = w_j f.
    """

    spatial: np.ndarray
    envelope: callable
    t_off: float
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("splitting weights must sum to 1")

    def active(self, t: float) -> bool:
        """False where f(t) vanishes identically."""
        return 0 <= t <= self.t_off

    def __call__(self, t: float) -> np.ndarray:
        return _envelope(self, t) * self.spatial


def gaussian_source(grid: Grid, width: float = 0.1, center=(0.0, 0.0, 0.0),
                    polarization=(1.0, 0.0), t_off: float = 1.0,
                    weights=(1 / 3, 1 / 3, 1 / 3)) -> SourceSpec:
    """Gaussian bump in space, raised-cosine burst in time.

    The spatial profile is clipped to zero outside the inner box so that
    the support constraint holds exactly on the grid.
    """
    x = grid.mesh()
    c = np.asarray(center, dtype=float)
    r2 = sum((x[j] - c[j]) ** 2 for j in range(3))
    bump = np.exp(-r2 / (2 * width ** 2))
    inner = np.all(np.abs(x) <= grid.box.inner_fraction * grid.box.h[:, None, None, None],
                   axis=0)
    bump = np.where(inner, bump, 0.0)
    pol = np.asarray(polarization, dtype=complex)
    spatial = pol[:, None, None, None] * bump

    def envelope(t, t_off=t_off):
        return np.sin(np.pi * t / t_off) ** 2

    return SourceSpec(spatial, envelope, t_off, tuple(weights))


@dataclass(frozen=True)
class SimConfig:
    grid: Grid
    cfl: float = 0.5
    T: float = 1.0
    probes: tuple = ()
    stride: int = 1
    lam: float = 1.0
    record_splits: bool = False

    def __post_init__(self):
        if not 0 < self.cfl <= 1:
            raise ValueError("CFL must lie in (0, 1]")
        if self.T <= 0:
            raise ValueError("final time must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


# -- the fused split-field kernel ---------------------------------------

# 4th-order one-sided closures for the first two rows, times 12: the
# (2, 5) matrices that map the five end nodes to the two end rows; the
# interior stencil, times 12, is (1, -8, 0, 8, -1).  Along the last
# axis of a float view a node is a group of `width` floats (re, im for a
# complex field), so there the closures are the Kronecker products with
# eye(width), applied from the right.
_EDGE_LOW = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
])
_EDGE_HIGH = -_EDGE_LOW[::-1, ::-1].copy()
_EDGE_LAST = {width: (np.kron(_EDGE_LOW.T, np.eye(width)),
                      np.kron(_EDGE_HIGH.T, np.eye(width)))
              for width in (1, 2)}

# A_j acting on a spinor v, one row per output component a:
# (A_j v)_a = factor * v[source], stored as (source, factor).
_PAULI_ACTION = (
    ((0, 1.0), (1, -1.0)),   # A1 = diag(1, -1)
    ((1, 1.0), (0, 1.0)),    # A2 swaps the components
    ((1, 1j), (0, -1j)),     # A3 swaps them times +i, -i
)


def diff4(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None,
          scaled: bool = True) -> np.ndarray:
    """d/dx along ``axis``: 4th-order central stencils in the interior,
    4th-order one-sided within two cells of the ends.

    The result is written to ``out`` when given (C-contiguous, f's
    shape and dtype, not overlapping f), and nothing else is allocated.
    ``scaled=False`` leaves out the factor 1/(12 h), for callers that
    fold it into their own coefficients.
    """
    f = np.ascontiguousarray(f)
    if out is None:
        out = np.empty_like(f)
    elif not out.flags.c_contiguous or out.dtype != f.dtype:
        raise ValueError("out must be C-contiguous with f's dtype")
    axis %= f.ndim
    # Interior on the flat arrays: one node along `axis` is `step`
    # elements.  The two end rows on each side pick up wrong neighbours
    # here and are overwritten by the closures below.
    step = int(np.prod(f.shape[axis + 1:]))
    g, o = f.reshape(-1), out.reshape(-1)
    size = g.size
    inner = o[2 * step:size - 2 * step]
    axpy = get_blas_funcs("axpy", (g,))
    np.subtract(g[:size - 4 * step], g[4 * step:], out=inner)
    axpy(g[3 * step:size - step], inner, a=8.0)
    axpy(g[step:size - 3 * step], inner, a=-8.0)
    # End rows: the closures are real, so they act on the float view,
    # whose last axis interleaves re and im when f is complex.
    width = 2 if np.iscomplexobj(f) else 1
    g, o = f.view(f.real.dtype), out.view(f.real.dtype)
    if axis < f.ndim - 1:
        g, o = (a.reshape(-1, f.shape[axis], width * step) for a in (g, o))
        np.matmul(_EDGE_LOW, g[:, :5], out=o[:, :2])
        np.matmul(_EDGE_HIGH, g[:, -5:], out=o[:, -2:])
    else:
        g, o = (a.reshape(-1, a.shape[-1]) for a in (g, o))
        low, high = _EDGE_LAST[width]
        np.matmul(g[:, :5 * width], low, out=o[:, :2 * width])
        np.matmul(g[:, -5 * width:], high, out=o[:, -2 * width:])
    if scaled:
        out *= 1.0 / (12.0 * h)
    return out


class Workspace:
    """Everything the kernel would otherwise rebuild per call: the
    absorption on each axis, the folded coefficients of -A_j d_j, and
    the state and scratch buffers.  ``run`` builds one and passes it to
    every ``step``; a bare ``rhs`` or ``step`` builds its own.

    ``coef[j]`` holds one (source, factor) pair per output component,
    the factor being -(A_j)_{a,source} / (12 h_j).  ``sigma[j]`` is
    sigma_j at the nodes, shaped to broadcast against one split field,
    or None where sigma_j vanishes on the whole axis.  ``states`` are the
    three buffers that the Horner levels of ``step`` rotate through.
    """

    def __init__(self, grid: Grid, profiles):
        shape = (3, 2) + tuple(grid.shape)
        self.coef = [[(b, -c / (12.0 * h)) for b, c in _PAULI_ACTION[j]]
                     for j, h in enumerate(grid.spacing)]
        self.sigma = []
        for j, (prof, x) in enumerate(zip(profiles, grid.axes)):
            sig = np.asarray(prof(x), dtype=float)
            along = [1, 1, 1]
            along[j] = len(x)
            self.sigma.append(sig.reshape(along) if sig.any() else None)
        self.states = tuple(np.empty(shape, complex) for _ in range(3))
        self.trace = np.empty(shape[1:], complex)
        self.scratch = np.empty(shape[1:], complex)


def _envelope(source: SourceSpec | None, t: float) -> float:
    """The source's time factor at t, 0 where the source is off."""
    if source is None or not source.active(t):
        return 0.0
    return source.envelope(t)


def rhs(state: SplitState, profiles, source: SourceSpec | None,
        t: float, grid: Grid, work: Workspace | None = None,
        out: np.ndarray | None = None, scale: float = 1.0,
        base: np.ndarray | None = None,
        env: float | None = None) -> np.ndarray:
    """One level of the split operator,

        out_j = base_j + scale (-sigma_j U^j - A_j d_j s + env f_j),

    s the trace and f_j = w_j times the source's spatial profile.  With
    the defaults (no base, scale 1, env the source envelope at t, 0
    where the source is off) this is the time derivative d_t U^j.

    The result is written to ``out`` (default: a fresh array), which
    must be C-contiguous and overlap neither U nor ``base``.  Each split field is formed
    from base and the absorption term, then the derivative and source
    terms are added by BLAS axpy on the flat arrays.
    """
    if work is None:
        work = Workspace(grid, profiles)
    U = state.U
    if out is None:
        out = np.empty_like(U)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if env is None:
        env = _envelope(source, t)
    s = np.add(U[0], U[1], out=work.trace)
    s += U[2]
    axpy = get_blas_funcs("axpy", (out,))
    h = grid.spacing
    for j in range(3):
        o = out[j]
        if work.sigma[j] is not None:
            np.multiply(U[j], -scale * work.sigma[j], out=o)
            if base is not None:
                axpy(base[j].reshape(-1), o.reshape(-1))
        elif base is not None:
            np.copyto(o, base[j])
        else:
            o.fill(0.0)
        d = diff4(s, j + 1, h[j], out=work.scratch, scaled=False)
        for a, (b, c) in enumerate(work.coef[j]):
            axpy(d[b].reshape(-1), o[a].reshape(-1), a=scale * c)
        if env:
            axpy(source.spatial.reshape(-1), o.reshape(-1),
                 a=scale * env * source.weights[j])
    return out


# (axis, trace index, pi^-(nu)) for each face; the projectors are constant
_FACE_PROJECTORS = tuple((axis, (slice(None),) + index,
                          algebra.projector(-1, nu))
                         for _, axis, _, nu, index in faces())


def apply_boundary(state: SplitState, grid: Grid) -> SplitState:
    """Project the trace onto the outgoing eigenspace on every face.

    At each face node with outward normal nu, the defect c = pi^-(nu) s
    is subtracted from the face-normal split component, so that
    pi^-(nu) s = 0 exactly afterwards.  Faces are processed in a fixed
    lexicographic order; edge and corner nodes receive the corrections
    of all their faces sequentially.
    """
    for axis, sl, pim in _FACE_PROJECTORS:
        s = np.sum(state.U[(slice(None),) + sl], axis=0)
        state.U[(axis,) + sl] -= np.einsum("ab,b...->a...", pim, s)
    return state


def step(state: SplitState, profiles, source: SourceSpec | None,
         dt: float, grid: Grid, work: Workspace | None = None) -> SplitState:
    """One classical Runge-Kutta step; the boundary projection is
    applied once, after the combined update.  Projecting the internal
    stages as well looks more accurate but couples the face correction
    to the absorption term in a way that pumps energy at box edges
    (late-time exponential growth in long runs); the end-of-step
    projection is observed stable over tens of transit times.  Raises
    StabilityError past the overflow guard.

    The split operator L (absorption and -A_j d_j s) does not depend on
    time and the source enters as env(t) f_j, so the step is a
    polynomial in dt L.  It is evaluated as four Horner levels, each
    one ``rhs`` call

        z <- y + c (L z + e f),   z = y at the start,

    with (c, e) from the inside out

        (dt/4, f0), (dt/3, (f0 + fm)/2), (dt/2, (f0 + 2 fm)/3),
        (dt, (f0 + 4 fm + f1)/6),

    f0, fm, f1 the envelopes at t, t + dt/2, t + dt (0 where the
    source is off).  Expanding the stages shows that the last level is
    y + dt/6 (k1 + 2 k2 + 2 k3 + k4) exactly: with no source it is
    y + dt L (y + dt/2 L (y + dt/3 L (y + dt/4 L y))), and the e are
    the source terms of k1..k4 gathered by their power of dt L.

    ``state`` is left untouched.  The levels alternate between the two
    of the workspace's three state buffers that do not hold
    ``state.U``, so successive steps rotate through them; without a
    workspace the result is a fresh array.
    """
    if work is None:
        work = Workspace(grid, profiles)
    t = state.t
    y = state.U
    bufs = [buf for buf in work.states if buf is not y]
    f0, fm, f1 = (_envelope(source, t + frac * dt) for frac in (0, 0.5, 1))
    levels = ((dt / 4, f0), (dt / 3, (f0 + fm) / 2),
              (dt / 2, (f0 + 2 * fm) / 3), (dt, (f0 + 4 * fm + f1) / 6))
    z = y
    for i, (c, e) in enumerate(levels):
        z = rhs(SplitState(z, t), profiles, source, t, grid, work=work,
                out=bufs[i % 2], scale=c, base=y, env=e)
    out = apply_boundary(SplitState(z, t + dt), grid)
    # max |U| lies in [r, sqrt(2) r], r the largest |Re| or |Im|, so the
    # exact magnitude is needed only when sqrt(2) r reaches the guard
    parts = z.view(float)
    r = max(parts.max(), -parts.min())
    if not r * np.sqrt(2.0) <= _OVERFLOW_GUARD:
        m = float(np.max(np.abs(z)))
        if not np.isfinite(m) or m > _OVERFLOW_GUARD:
            raise StabilityError(f"field magnitude {m:.3g} "
                                 f"at t = {out.t:.4g}")
    return out


@dataclass
class Recording:
    """Append-only record of a run."""

    grid: Grid
    dt: float
    times: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # (2, n1, n2, n3) at stride
    splits: list = field(default_factory=list)  # optional (3, 2, ...)
    probe_points: tuple = ()
    probe_times: list = field(default_factory=list)
    probe_values: list = field(default_factory=list)  # (nprobe, 2) per step

    def probe_series(self) -> np.ndarray:
        return np.asarray(self.probe_values)


def _probe_indices(grid: Grid, probes) -> tuple:
    """The nodes nearest the probe points as one fancy index
    (i1s, i2s, i3s) into the three grid axes; () without probes."""
    if not probes:
        return ()
    return tuple(np.array([int(np.argmin(np.abs(x - p[j]))) for p in probes])
                 for j, x in enumerate(grid.axes))


def run(config: SimConfig, profiles, source: SourceSpec | None) -> Recording:
    """March the split system to T, recording probes every step and the
    trace (optionally the splits) every ``stride`` steps."""
    if hasattr(profiles, "profiles"):
        profiles = profiles.profiles
    grid = config.grid
    dt = config.cfl * float(np.min(grid.spacing))
    nsteps = int(np.ceil(config.T / dt))
    dt = config.T / nsteps
    sig_max = max(float(np.max(p(np.linspace(-b, b, 101))))
                  for p, b in zip(profiles, grid.box.h))
    if sig_max * dt > 1.0:
        warnings.warn("sigma0 * dt exceeds 1; explicit absorption may be "
                      "inaccurate", stacklevel=2)
    state = SplitState.zeros(grid)
    work = Workspace(grid, profiles)
    rec = Recording(grid, dt, probe_points=tuple(config.probes))
    pidx = _probe_indices(grid, config.probes)

    def record(st, istep):
        if istep % config.stride == 0 or istep == nsteps:
            rec.times.append(st.t)
            rec.traces.append(st.trace)
            if config.record_splits:
                rec.splits.append(st.U.copy())
        if pidx:
            rec.probe_times.append(st.t)
            rec.probe_values.append(
                st.U[(slice(None), slice(None)) + pidx].sum(axis=0).T)

    record(state, 0)
    for istep in range(1, nsteps + 1):
        state = step(state, profiles, source, dt, grid, work=work)
        record(state, istep)
    return rec


# -- norms and transforms ---------------------------------------------

def _boundary_norm_sq(grid: Grid, s: np.ndarray) -> float:
    """Trapezoidal L2 norm squared of a field over the six faces."""
    total = 0.0
    for _, axis, _, _, index in faces():
        face = s[(slice(None),) + index]
        total += float(np.sum(grid._face_weights[axis] * np.abs(face) ** 2))
    return total


def _inv_sqrt_helmholtz(grid: Grid, g: np.ndarray) -> np.ndarray:
    """(I - Laplacian_h)^{-1/2} g via the cosine transform that
    diagonalizes the 3-point Neumann Laplacian on each axis."""
    from scipy.fft import dctn, idctn  # only this term needs scipy.fft

    h = grid.spacing
    eig = 1.0
    for j, n in enumerate(grid.shape):
        lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(n) / (n - 1))) / h[j] ** 2
        shape = [1, 1, 1]
        shape[j] = n
        eig = eig + lam.reshape(shape)
    scale = 1.0 / np.sqrt(eig)

    def apply(real):
        coef = dctn(real, type=1, axes=(0, 1, 2), norm="ortho")
        return idctn(scale * coef, type=1, axes=(0, 1, 2), norm="ortho")

    out = np.empty_like(g)
    for c in range(g.shape[0]):
        out[c] = apply(g[c].real) + 1j * apply(g[c].imag)
    return out


def _time_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def weighted_norms(rec: Recording, lam: float) -> dict:
    """Exponentially weighted space-time norms of the recorded run.

    Returns volume and boundary norms of e^{-lam t} s and, when the
    splits were recorded, the dual-norm term for {lam U^j, d_t U^j}
    measured through one discrete (I - Laplacian)^{-1/2} application.
    """
    grid = rec.grid
    times = np.asarray(rec.times)
    wt = _time_weights(times)
    vol = bdry = dual = 0.0
    have_splits = len(rec.splits) == len(rec.times) and len(rec.splits) > 0
    for i, t in enumerate(times):
        damp = np.exp(-2.0 * lam * t)
        s = rec.traces[i]
        vol += wt[i] * damp * grid.norm(s) ** 2
        bdry += wt[i] * damp * _boundary_norm_sq(grid, s)
        if have_splits:
            if 0 < i < len(times) - 1:
                dU = (rec.splits[i + 1] - rec.splits[i - 1]) \
                    / (times[i + 1] - times[i - 1])
            elif i == 0:
                dU = (rec.splits[1] - rec.splits[0]) / (times[1] - times[0])
            else:
                dU = (rec.splits[i] - rec.splits[i - 1]) \
                    / (times[i] - times[i - 1])
            acc = 0.0
            for j in range(3):
                for g in (lam * rec.splits[i][j], dU[j]):
                    acc += grid.norm(_inv_sqrt_helmholtz(grid, g)) ** 2
            dual += wt[i] * damp * acc
    out = {"volume": float(np.sqrt(vol)), "boundary": float(np.sqrt(bdry))}
    out["dual"] = float(np.sqrt(dual)) if have_splits else float("nan")
    return out


def _simpson_weights(times: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on uniformly spaced frames.  An even
    frame count ends with the 3/8 rule on its last three intervals; the
    short final interval that ``run`` leaves when the step count is not
    a multiple of the stride gets the trapezoid rule."""
    n = len(times)
    if n < 3:
        return _time_weights(times)
    dt = times[1] - times[0]
    last = times[-1] - times[-2]
    if not np.isclose(last, dt):
        w = np.zeros(n)
        w[:-1] = _simpson_weights(times[:-1])
        w[-2:] += 0.5 * last
        return w
    m = n if n % 2 == 1 else n - 3  # frames under the Simpson rule
    w = np.zeros(n)
    if m > 1:
        w[0:m] = dt / 3.0
        w[1:m - 1:2] *= 4.0
        w[2:m - 1:2] *= 2.0
    if n % 2 == 0:
        w[-4:] += 0.375 * dt * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def laplace_of_trace(rec: Recording, tau: complex) -> np.ndarray:
    """Truncated Laplace transform int_0^T e^{-tau t} s(t, x) dt by
    composite Simpson quadrature on the recorded stride.

    Warns (TruncationWarning) when the estimated tail exceeds 1% of the
    result norm.
    """
    times = np.asarray(rec.times)
    w = _simpson_weights(times)
    out = np.zeros(rec.traces[0].shape, np.result_type(rec.traces[0], tau))
    axpy = get_blas_funcs("axpy", (out,))
    flat = out.reshape(-1)
    for wi, t, s in zip(w, times, rec.traces):
        axpy(s.reshape(-1), flat, a=wi * np.exp(-tau * t))
    grid = rec.grid
    tail = (abs(np.exp(-tau * times[-1])) * grid.norm(rec.traces[-1])
            / max(tau.real if isinstance(tau, complex) else tau, 1e-30))
    nrm = grid.norm(out)
    if nrm > 0 and tail > 0.01 * nrm:
        warnings.warn(f"Laplace tail estimate {tail:.2e} exceeds 1% of "
                      f"|u^| = {nrm:.2e}", TruncationWarning, stacklevel=2)
    return out


# -- external formats -------------------------------------------------

def write_snapshot(path, field: np.ndarray, spacing, time: float) -> None:
    """Flat binary of little-endian float64 (re, im) pairs,
    component-major, x-fastest, with a sidecar text header."""
    field = np.asarray(field, dtype=complex)
    comp, n1, n2, n3 = field.shape
    with open(path, "wb") as fh:
        for c in range(comp):
            flat = field[c].ravel(order="F")
            buf = np.empty(2 * flat.size)
            buf[0::2] = flat.real
            buf[1::2] = flat.imag
            fh.write(buf.astype("<f8").tobytes())
    with open(str(path) + ".hdr", "w") as fh:
        fh.write(f"dims {n1} {n2} {n3}\n")
        fh.write("spacing " + " ".join(f"{s:.17g}" for s in spacing) + "\n")
        fh.write(f"time {time:.17g}\n")
        fh.write("components " + " ".join(f"u{c + 1}" for c in range(comp))
                 + "\n")
        fh.write("layout component-major x-fastest re,im float64 le\n")


def read_snapshot(path):
    """Inverse of write_snapshot; returns (field, spacing, time)."""
    header = {}
    with open(str(path) + ".hdr") as fh:
        for line in fh:
            key, *rest = line.split()
            header[key] = rest
    n1, n2, n3 = (int(v) for v in header["dims"])
    spacing = tuple(float(v) for v in header["spacing"])
    time = float(header["time"][0])
    ncomp = len(header["components"])
    raw = np.fromfile(path, dtype="<f8")
    field = np.empty((ncomp, n1, n2, n3), dtype=complex)
    per = 2 * n1 * n2 * n3
    for c in range(ncomp):
        chunk = raw[c * per:(c + 1) * per]
        flat = chunk[0::2] + 1j * chunk[1::2]
        field[c] = flat.reshape((n1, n2, n3), order="F")
    return field, spacing, time


def write_probes(path, rec: Recording) -> None:
    """CSV with columns t then re/im of both components per probe."""
    series = rec.probe_series()
    with open(path, "w") as fh:
        cols = ["t"]
        for p in range(len(rec.probe_points)):
            for c in (1, 2):
                cols += [f"re_u{c}_p{p}", f"im_u{c}_p{p}"]
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(rec.probe_times):
            row = [f"{t:.17g}"]
            for p in range(len(rec.probe_points)):
                for c in range(2):
                    z = series[i, p, c]
                    row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            fh.write(",".join(row) + "\n")
