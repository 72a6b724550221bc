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
y + dt/6 (k1 + 2 k2 + 2 k3 + k4) exactly.  The module also holds the
derivative-stencil table that both solvers read, and provides
probe/snapshot recording and the reducers that fold the recorded frames
into results as they are produced: exponentially weighted space-time
norms, the truncated Laplace transform of the trace, and per-frame
series.
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
    "Stencil",
    "FOURTH",
    "CENTERED2",
    "PROBE",
    "derivative",
    "diff4",
    "rhs",
    "apply_boundary",
    "step",
    "run",
    "Reducer",
    "LaplaceTransform",
    "WeightedNorms",
    "FrameSeries",
    "LastFrame",
    "replay",
    "exp_weights",
    "weighted_norms",
    "laplace_of_trace",
    "write_snapshot",
    "read_snapshot",
    "write_probes",
]

_OVERFLOW_GUARD = 1e12


# -- the derivative-stencil table -----------------------------------------

@dataclass(frozen=True, eq=False)  # compared by identity: holds an array
class Stencil:
    """A first-derivative stencil times ``den``.  Row i of the interior
    is sum_k c_k (f[i+k] - f[i-k]) over the antisymmetric ``pairs``
    (k, c_k), k increasing; the (r, w) matrix ``low`` replaces the
    first r rows with combinations of the first w nodes (r at least the
    widest k), and the high end is its mirror -low[::-1, ::-1].  The
    derivative is the stencil sum over den h.
    """

    pairs: tuple
    low: np.ndarray
    den: float

    @cached_property
    def high(self) -> np.ndarray:
        return -self.low[::-1, ::-1].copy()

    @cached_property
    def last(self) -> dict:
        """The closures on the last axis of a float view, where a node
        is a group of ``width`` floats (re, im for a complex field):
        Kronecker products with eye(width), applied from the right."""
        return {width: (np.kron(self.low.T, np.eye(width)),
                        np.kron(self.high.T, np.eye(width)))
                for width in (1, 2)}


# 4th order: (1, -8, 0, 8, -1)/12 inside, 4th-order one-sided closures
# in the two end rows; the time-domain kernel
FOURTH = Stencil(((1, 8.0), (2, -1.0)),
                 np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                           [-3.0, -10.0, 18.0, -6.0, 1.0]]), 12.0)
# 2nd order: (-1, 0, 1)/2 inside, one-sided 2nd order in the end row;
# the stencil of the frequency-domain assembly
CENTERED2 = Stencil(((1, 1.0),), np.array([[-3.0, 4.0, -1.0]]), 2.0)
# 4th-order interior with 3rd-order one-sided closures in two end rows.
# Its rows differ from CENTERED2's, so residuals measured with it are
# independent of the assembled rows (a residual built from the solver's
# own stencil is an exact combination of the imposed constraints and
# says nothing).
PROBE = Stencil(((1, 8.0), (2, -1.0)),
                np.array([[-22.0, 36.0, -18.0, 4.0, 0.0],
                          [0.0, -22.0, 36.0, -18.0, 4.0]]), 12.0)


def derivative(stencil: Stencil, f: np.ndarray, axis: int,
               h: float | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """d/dx along ``axis`` by ``stencil``, for spacing h.

    The result is written to ``out`` when given (C-contiguous, f's
    shape and dtype, not overlapping f), and nothing else is allocated.
    Without h the factor 1/(den h) is left out, for callers that fold
    it into their own coefficients.
    """
    f = np.ascontiguousarray(f)
    if out is None:
        out = np.empty_like(f)
    elif not out.flags.c_contiguous or out.dtype != f.dtype:
        raise ValueError("out must be C-contiguous with f's dtype")
    axis %= f.ndim
    # Interior on the flat arrays: one node along `axis` is `step`
    # elements.  The widest pair is one subtract, each other pair two
    # axpys.  The end rows pick up wrong neighbours here and are
    # overwritten by the closures below.
    step = int(np.prod(f.shape[axis + 1:]))
    g, o = f.reshape(-1), out.reshape(-1)
    size = g.size
    *rest, (m, cm) = stencil.pairs
    inner = o[m * step:size - m * step]
    lo, hi = g[:size - 2 * m * step], g[2 * m * step:]
    if cm < 0:
        lo, hi = hi, lo
    np.subtract(hi, lo, out=inner)
    if abs(cm) != 1:
        inner *= abs(cm)
    axpy = get_blas_funcs("axpy", (g,))
    for k, c in rest:
        axpy(g[(m + k) * step:size - (m - k) * step], inner, a=c)
        axpy(g[(m - k) * step:size - (m + k) * step], inner, a=-c)
    # End rows: the closures are real, so they act on the float view,
    # whose last axis interleaves re and im when f is complex.
    width = 2 if np.iscomplexobj(f) else 1
    r, w = stencil.low.shape
    g, o = f.view(f.real.dtype), out.view(f.real.dtype)
    if axis < f.ndim - 1:
        g, o = (a.reshape(-1, f.shape[axis], width * step) for a in (g, o))
        np.matmul(stencil.low, g[:, :w], out=o[:, :r])
        np.matmul(stencil.high, g[:, -w:], out=o[:, -r:])
    else:
        # The branch above gives the same bits on this axis; this one is
        # kept for speed alone.  FOURTH on the last axis of a complex
        # (2, n, n, n) field, one BLAS thread on a shared Xeon: 62, 421
        # and 2,131 us here against 130, 690 and 2,631 us there at
        # n = 17, 33 and 57.
        g, o = (a.reshape(-1, a.shape[-1]) for a in (g, o))
        low, high = stencil.last[width]
        np.matmul(g[:, :w * width], low, out=o[:, :r * width])
        np.matmul(g[:, -w * width:], high, out=o[:, -r * width:])
    if h is not None:
        out *= 1.0 / (stencil.den * h)
    return out


@dataclass(frozen=True)
class Grid:
    """Collocated tensor grid over the closed box, n_j >= ``MIN_NODES``
    per axis."""

    # not a field: no annotation.  The fewest nodes on which every
    # stencil's r x w closure ``low`` has its w nodes and does not
    # overlap its mirror: max(w, 2 r) over the table.
    MIN_NODES = max(max(s.low.shape[1], 2 * s.low.shape[0])
                    for s in (FOURTH, CENTERED2, PROBE))

    box: BoxDomain
    shape: tuple[int, int, int]

    def __post_init__(self):
        if min(self.shape) < self.MIN_NODES:
            raise ValueError(f"shape: {self.shape} needs n_j >= "
                             f"{self.MIN_NODES} on every axis")

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

    def boundary_norm_sq(self, field) -> float:
        """Trapezoidal L2 norm squared of a (2, n1, n2, n3) field over
        the six faces."""
        total = 0.0
        for _, axis, _, _, index in faces():
            face = field[(slice(None),) + index]
            total += float(np.sum(self._face_weights[axis]
                                  * np.abs(face) ** 2))
        return total

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
    """Spinor source f(t, x), split equally: f_j = f / 3.

    ``spatial`` has shape (2, n1, n2, n3) and must vanish outside the
    inner box; ``envelope`` is the scalar time factor, zero outside
    [0, t_off].  Any other split summing to f gives the same trace
    s = U1 + U2 + U3, since f vanishes wherever sigma does not.
    """

    spatial: np.ndarray
    envelope: callable
    t_off: float

    def active(self, t: float) -> bool:
        """False where f(t) vanishes identically."""
        return 0 <= t <= self.t_off

    def __call__(self, t: float) -> np.ndarray:
        return _envelope(self, t) * self.spatial


def gaussian_source(grid: Grid, width: float = 0.1, center=(0.0, 0.0, 0.0),
                    polarization=(1.0, 0.0), t_off: float = 1.0) -> SourceSpec:
    """Gaussian bump in space, raised-cosine burst in time, split
    equally among the three fields.

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

    def envelope(t):
        return np.sin(np.pi * t / t_off) ** 2

    return SourceSpec(spatial, envelope, t_off)


@dataclass(frozen=True)
class SimConfig:
    """``lam`` is read nowhere (``WeightedNorms`` takes its own); it
    stays because ``perfbench/`` passes it."""

    grid: Grid
    cfl: float = 0.5
    T: float = 1.0
    probes: tuple = ()
    stride: int = 1
    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.cfl <= 1:
            raise ValueError("CFL must lie in (0, 1]")
        if self.T <= 0:
            raise ValueError("final time must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


# -- the fused split-field kernel ---------------------------------------

# A_j acting on a spinor v, one row per output component a:
# (A_j v)_a = factor * v[source], stored as (source, factor) from the one
# nonzero in each row of A_j (real factors for the real A1 and A2).
_PAULI_ACTION = tuple(
    tuple(zip(np.nonzero(a)[1].tolist(), a[a != 0].tolist()))
    for a in map(np.real_if_close, algebra.pauli_matrices()))


def diff4(f: np.ndarray, axis: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """12 h d/dx along ``axis`` by the record ``FOURTH``, interior and
    closure rows alike.  The kernel folds the 1/(12 h) into its
    coefficients.  Arguments as for ``derivative``."""
    return derivative(FOURTH, f, axis, out=out)


class Workspace:
    """Everything the kernel would otherwise rebuild per call: the
    absorption on each axis, the folded coefficients of -A_j d_j, and
    the state and scratch buffers.  ``run`` builds one and passes it to
    every ``step``, which passes it to every ``rhs``.

    ``coef[j]`` holds one (source, factor) pair per output component,
    the factor being -(A_j)_{a,source} / (12 h_j).  ``sigma[j]`` is
    sigma_j at the nodes, shaped to broadcast against one split field,
    or None where sigma_j vanishes on the whole axis.  ``states`` are the
    two buffers that ``step`` alternates between: each step writes its
    levels into the one that does not hold its input.
    """

    def __init__(self, grid: Grid, profiles):
        shape = (3, 2) + tuple(grid.shape)
        self.coef = [[(b, -c / (FOURTH.den * h)) for b, c in _PAULI_ACTION[j]]
                     for j, h in enumerate(grid.spacing)]
        self.sigma = []
        for j, (prof, x) in enumerate(zip(profiles, grid.axes)):
            sig = np.asarray(prof(x), dtype=float)
            along = [1, 1, 1]
            along[j] = len(x)
            self.sigma.append(sig.reshape(along) if sig.any() else None)
        self.states = tuple(np.empty(shape, complex) for _ in range(2))
        self.trace = np.empty(shape[1:], complex)
        self.scratch = np.empty(shape[1:], complex)


def _envelope(source: SourceSpec | None, t: float) -> float:
    """The source's time factor at t, 0 where the source is off."""
    if source is None or not source.active(t):
        return 0.0
    return source.envelope(t)


def rhs(state: SplitState, source: SourceSpec | None, work: Workspace,
        out: np.ndarray, scale: float, base: np.ndarray,
        env: float) -> np.ndarray:
    """One level of the split operator,

        out_j = base_j + scale (-sigma_j U^j - A_j d_j s + env f_j),

    s the trace and f_j = 1/3 of the source's spatial profile.  The
    result is written to ``out``, which must be C-contiguous and must
    not overlap ``base``; it may be U itself, since the trace is formed
    first and split field j is read only before out_j is written.  Each
    split field is formed from base and the absorption term, then the
    derivative and source terms are added by BLAS axpy on the flat
    arrays.
    """
    U = state.U
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    if np.may_share_memory(out, base):
        raise ValueError("out must not overlap base")
    s = np.add(U[0], U[1], out=work.trace)
    s += U[2]
    axpy = get_blas_funcs("axpy", (out,))
    for j in range(3):
        o = out[j]
        if work.sigma[j] is not None:
            np.multiply(U[j], -scale * work.sigma[j], out=o)
            axpy(base[j].reshape(-1), o.reshape(-1))
        else:
            np.copyto(o, base[j])
        d = diff4(s, j + 1, out=work.scratch)
        for a, (b, c) in enumerate(work.coef[j]):
            axpy(d[b].reshape(-1), o[a].reshape(-1), a=scale * c)
        if env:
            axpy(source.spatial.reshape(-1), o.reshape(-1),
                 a=scale * env * (1 / 3))
    return out


# (axis, trace index, pi^-(nu)) for each face; the projectors are constant
_FACE_PROJECTORS = tuple((axis, (slice(None),) + index,
                          algebra.projector(-1, nu))
                         for _, axis, _, nu, index in faces())


def apply_boundary(state: SplitState) -> SplitState:
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


def step(state: SplitState, source: SourceSpec | None, dt: float,
         work: Workspace) -> SplitState:
    """One classical Runge-Kutta step; the boundary projection is
    applied once, after the combined update.  Projecting the internal
    stages as well looks more accurate but couples the face correction
    to the absorption term in a way that pumps energy at box edges
    (late-time exponential growth in long runs).  Raises StabilityError
    past the overflow guard.

    Measured stability at CFL 0.5, by the spectral radius rho of the
    step map without source: with absorbing layers (sigma0 = 1 or 4)
    rho - 1 <= 1e-9 at 7^3 and 9^3, the excess coming from the
    stationary trace-free split states, and runs to t = 60 decay.
    Without absorption (sigma0 = 0) the step is unstable: rho = 1.0799
    at 7^3 and 1.0656 at 9^3, from a growing corner mode of the FOURTH
    closure, and runs on 17^3 and 25^3 raise StabilityError at
    t = 57.6 and 46.6.

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

    ``state`` is left untouched.  Level 1 writes into the workspace
    state buffer that does not hold ``state.U`` and levels 2-4 update
    that buffer in place, so successive steps alternate between the
    two.
    """
    t = state.t
    y = state.U
    z = work.states[1] if work.states[0] is y else work.states[0]
    f0, fm, f1 = (_envelope(source, t + frac * dt) for frac in (0, 0.5, 1))
    levels = ((dt / 4, f0), (dt / 3, (f0 + fm) / 2),
              (dt / 2, (f0 + 2 * fm) / 3), (dt, (f0 + 4 * fm + f1) / 6))
    u = y
    for c, e in levels:
        u = rhs(SplitState(u, t), source, work, z, c, y, e)
    out = apply_boundary(SplitState(z, t + dt))
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
    """Append-only record of a run.  ``traces`` holds the frames only
    when ``run`` was called without reducers."""

    grid: Grid
    dt: float
    times: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # (2, n1, n2, n3) at stride
    # always empty; kept while perfbench/spans.py reads it
    splits: list = field(default_factory=list)
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


def _frames(nsteps: int, stride: int, dt: float) -> dict:
    """The steps whose states ``run`` records as frames, each with its
    time accumulated as the states accumulate t + dt per step, so that
    it equals the state's time bit for bit."""
    t, frames = 0.0, {0: 0.0}
    for istep in range(1, nsteps + 1):
        t = t + dt
        if istep % stride == 0 or istep == nsteps:
            frames[istep] = t
    return frames


def run(config: SimConfig, profiles, source: SourceSpec | None,
        reducers=None) -> Recording:
    """March the split system to T, recording probes every step and the
    trace every ``stride`` steps (and after the last step).

    Without ``reducers`` the frames are kept in ``traces``.  Otherwise
    none is kept: each reducer is started with the grid and the times
    of all frames, then given every frame (t, s) in order, s a fresh
    array it may keep.  The times and probes are recorded either way.
    """
    grid = config.grid
    dt = config.cfl * float(np.min(grid.spacing))
    nsteps = int(np.ceil(config.T / dt))
    dt = config.T / nsteps
    work = Workspace(grid, profiles)
    # sigma_j grows with |x_j|, so it peaks on the faces: grid nodes
    sig_max = max((float(np.max(s)) for s in work.sigma if s is not None),
                  default=0.0)
    if sig_max * dt > 1.0:
        warnings.warn("sigma0 * dt exceeds 1; explicit absorption may be "
                      "inaccurate", stacklevel=2)
    state = SplitState.zeros(grid)
    rec = Recording(grid, dt, probe_points=tuple(config.probes))
    pidx = _probe_indices(grid, config.probes)
    keep = reducers is None
    reducers = () if keep else tuple(reducers)
    frames = _frames(nsteps, config.stride, dt)
    for r in reducers:
        r.start(grid, list(frames.values()))

    def record(st, istep):
        if istep in frames:
            rec.times.append(st.t)
            s = st.trace
            if keep:
                rec.traces.append(s)
            for r in reducers:
                r.add(st.t, s)
        if pidx:
            rec.probe_times.append(st.t)
            rec.probe_values.append(
                st.U[(slice(None), slice(None)) + pidx].sum(axis=0).T)

    record(state, 0)
    for istep in range(1, nsteps + 1):
        state = step(state, source, dt, work)
        record(state, istep)
    return rec


# -- reducers: norms, transforms and series of the frames ------------------

def _time_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def exp_weights(times, lam: float) -> np.ndarray:
    """The weight of each frame's squared norm in the trapezoid sum for
    ||e^{-lam t} s||^2 over the frame times: the trapezoid weight times
    e^{-2 lam t}."""
    times = np.asarray(times, dtype=float)
    return _time_weights(times) * np.exp(-2.0 * lam * times)


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


class Reducer:
    """Folds the frames of a run into a result as they are produced.
    ``start(grid, times)`` is called once with the times of every frame
    to come, then ``add(t, s)`` once per frame in order; ``run`` and
    ``replay`` are the two drivers.  Quadratures read their weights from
    ``times``, so a streamed result equals its replay bit for bit."""

    def start(self, grid: Grid, times) -> None:
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.count = 0

    def add(self, t: float, s: np.ndarray) -> None:
        raise NotImplementedError


class LaplaceTransform(Reducer):
    """Truncated Laplace transform int_0^T e^{-tau t} s(t, x) dt by
    composite Simpson quadrature on the frame times (``value()``)."""

    def __init__(self, tau: complex):
        self.tau = tau

    def start(self, grid: Grid, times) -> None:
        super().start(grid, times)
        self.weights = _simpson_weights(self.times)
        self.out = None

    def add(self, t: float, s: np.ndarray) -> None:
        if self.out is None:
            self.out = np.zeros(s.shape, np.result_type(s, self.tau))
            self.axpy = get_blas_funcs("axpy", (self.out,))
        self.axpy(s.reshape(-1), self.out.reshape(-1),
                  a=self.weights[self.count] * np.exp(-self.tau * t))
        self.count += 1
        if self.count == len(self.times):
            self.last_norm = self.grid.norm(s)

    def value(self) -> np.ndarray:
        """The transform.  Warns (TruncationWarning) when the estimated
        tail exceeds 1% of the result norm."""
        tau = self.tau
        tail = (abs(np.exp(-tau * self.times[-1])) * self.last_norm
                / max(complex(tau).real, 1e-30))
        nrm = self.grid.norm(self.out)
        if nrm > 0 and tail > 0.01 * nrm:
            warnings.warn(f"Laplace tail estimate {tail:.2e} exceeds 1% of "
                          f"|u^| = {nrm:.2e}", TruncationWarning, stacklevel=2)
        return self.out


class WeightedNorms(Reducer):
    """Exponentially weighted space-time norms, trapezoidal in time: the
    volume and boundary norms of e^{-lam t} s (``value()``)."""

    def __init__(self, lam: float):
        self.lam = lam

    def start(self, grid: Grid, times) -> None:
        super().start(grid, times)
        self.weights = exp_weights(self.times, self.lam)
        self.vol = self.bdry = 0.0

    def add(self, t: float, s: np.ndarray) -> None:
        w = self.weights[self.count]
        self.vol += w * self.grid.norm(s) ** 2
        self.bdry += w * self.grid.boundary_norm_sq(s)
        self.count += 1

    def value(self) -> dict:
        return {"volume": float(np.sqrt(self.vol)),
                "boundary": float(np.sqrt(self.bdry))}


class FrameSeries(Reducer):
    """``f(s)`` of each frame so far in ``values``, frame i at
    ``times[i]``."""

    def __init__(self, f):
        self.f = f

    def start(self, grid: Grid, times) -> None:
        super().start(grid, times)
        self.values = []

    def add(self, t: float, s: np.ndarray) -> None:
        self.values.append(self.f(s))


class LastFrame(Reducer):
    """The latest frame, ``frame``."""

    def add(self, t: float, s: np.ndarray) -> None:
        self.frame = s


def replay(rec: Recording, *reducers):
    """Feed the frames kept in ``rec`` through ``reducers`` as ``run``
    would have fed them; returns the reducers."""
    if len(rec.traces) != len(rec.times):
        raise ValueError("the recording keeps no frames to replay; pass "
                         "the reducers to run instead")
    for r in reducers:
        r.start(rec.grid, rec.times)
    for t, s in zip(rec.times, rec.traces):
        for r in reducers:
            r.add(t, s)
    return reducers


def weighted_norms(rec: Recording, lam: float) -> dict:
    """Exponentially weighted space-time norms of the recorded run:
    the volume and boundary norms of e^{-lam t} s."""
    norms, = replay(rec, WeightedNorms(lam))
    return norms.value()


def laplace_of_trace(rec: Recording, tau: complex) -> np.ndarray:
    """Truncated Laplace transform int_0^T e^{-tau t} s(t, x) dt by
    composite Simpson quadrature on the recorded stride.

    Warns (TruncationWarning) when the estimated tail exceeds 1% of the
    result norm.
    """
    transform, = replay(rec, LaplaceTransform(tau))
    return transform.value()


# -- external formats -------------------------------------------------

def write_snapshot(path, field: np.ndarray, spacing, time: float) -> None:
    """Flat binary of little-endian float64 (re, im) pairs,
    component-major, x-fastest, with a sidecar text header."""
    field = np.asarray(field)
    comp, n1, n2, n3 = field.shape
    field.transpose(0, 3, 2, 1).astype("<c16").tofile(path)
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
    field = np.fromfile(path, dtype="<c16").reshape(ncomp, n3, n2, n1)
    return field.transpose(0, 3, 2, 1), spacing, time


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
