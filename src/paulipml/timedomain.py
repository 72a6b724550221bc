"""Explicit split-field solver on a tensor grid over the box.

The unknown is the triple (U1, U2, U3) of spinor fields satisfying

    (d_t + sigma_j(x_j)) U^j + A_j d_j (U1 + U2 + U3) = f_j,

with the dissipative condition that the trace s = U1 + U2 + U3 belongs
to the outgoing eigenspace of A(nu) on every face of the box.  Space is
discretized by 4th-order finite differences on a collocated grid, time
by the classical 4-stage Runge-Kutta method with the boundary projection
applied after every step.  The module also provides probe/snapshot
recording, exponentially weighted space-time norms, and the truncated
Laplace transform of the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dctn, idctn

from .errors import StabilityError, TruncationWarning
from .geometry import BoxDomain, faces
from . import algebra

__all__ = [
    "Grid",
    "SplitState",
    "SourceSpec",
    "SimConfig",
    "Recording",
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
        w = _trap_weights(self.shape)
        return float(np.sqrt(np.sum(w * np.abs(field) ** 2)
                             * self.cell_volume()))


def _trap_weights(shape) -> np.ndarray:
    ws = []
    for n in shape:
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        ws.append(w)
    return ws[0][:, None, None] * ws[1][None, :, None] * ws[2][None, None, :]


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

    def copy(self) -> "SplitState":
        return SplitState(self.U.copy(), self.t)


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

    def __call__(self, t: float) -> np.ndarray:
        if t < 0 or t > self.t_off:
            return np.zeros_like(self.spatial)
        return self.envelope(t) * self.spatial


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


# -- spatial differencing ---------------------------------------------

# 4th-order one-sided closures for the first two rows; interior central.
_EDGE4 = np.array([
    [-25.0, 48.0, -36.0, 16.0, -3.0],
    [-3.0, -10.0, 18.0, -6.0, 1.0],
]) / 12.0


def diff4(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """d/dx along ``axis``: 4th-order central stencils in the interior,
    4th-order one-sided within two cells of the ends."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / 12.0
    for r in range(2):
        out[r] = np.tensordot(_EDGE4[r], f[:5], axes=(0, 0))
        out[-1 - r] = -np.tensordot(_EDGE4[r], f[-1:-6:-1], axes=(0, 0))
    out /= h
    return np.moveaxis(out, 0, axis)


def _apply_matrix(m: np.ndarray, field: np.ndarray) -> np.ndarray:
    return np.einsum("ab,b...->a...", m, field)


def rhs(state: SplitState, profiles, source: SourceSpec | None,
        t: float, grid: Grid) -> np.ndarray:
    """Time derivative of the three split fields.

    d_t U^j = -sigma_j U^j - A_j d_j s + f_j with s the trace.
    """
    h = grid.spacing
    A = algebra.pauli_matrices()
    s = state.trace
    out = np.empty_like(state.U)
    f = source(t) if source is not None else None
    ax = grid.axes
    for j in range(3):
        sig = profiles[j](ax[j])
        shape = [1, 1, 1, 1]
        shape[j + 1] = len(ax[j])
        out[j] = (-sig.reshape(shape) * state.U[j]
                  - _apply_matrix(A[j], diff4(s, j + 1, h[j])))
        if f is not None:
            out[j] += source.weights[j] * f
    return out


def apply_boundary(state: SplitState, grid: Grid) -> SplitState:
    """Project the trace onto the outgoing eigenspace on every face.

    At each face node with outward normal nu, the defect c = pi^-(nu) s
    is subtracted from the face-normal split component, so that
    pi^-(nu) s = 0 exactly afterwards.  Faces are processed in a fixed
    lexicographic order; edge and corner nodes receive the corrections
    of all their faces sequentially.
    """
    for _, axis, _, nu, index in faces():
        pim = algebra.projector(-1, nu)
        sl = (slice(None),) + index
        s = np.sum(state.U[(slice(None),) + sl], axis=0)
        state.U[(axis,) + sl] -= _apply_matrix(pim, s)
    return state


def step(state: SplitState, profiles, source: SourceSpec | None,
         dt: float, grid: Grid) -> SplitState:
    """One classical Runge-Kutta step; the boundary projection is
    applied once, after the combined update.  Projecting the internal
    stages as well looks more accurate but couples the face correction
    to the absorption term in a way that pumps energy at box edges
    (late-time exponential growth in long runs); the end-of-step
    projection is observed stable over tens of transit times.  Raises
    StabilityError past the overflow guard."""
    t = state.t

    def stage(y, tl):
        return rhs(SplitState(y, tl), profiles, source, tl, grid)

    y = state.U
    k1 = stage(y, t)
    k2 = stage(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = stage(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = stage(y + dt * k3, t + dt)
    new = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    out = apply_boundary(SplitState(new, t + dt), grid)
    m = np.max(np.abs(out.U))
    if not np.isfinite(m) or m > _OVERFLOW_GUARD:
        raise StabilityError(f"field magnitude {m:.3g} at t = {out.t:.4g}")
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


def _probe_indices(grid: Grid, probes):
    axes = grid.axes
    out = []
    for p in probes:
        out.append(tuple(int(np.argmin(np.abs(axes[j] - p[j])))
                         for j in range(3)))
    return out


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
    rec = Recording(grid, dt, probe_points=tuple(config.probes))
    pidx = _probe_indices(grid, config.probes)

    def record(st, istep):
        if istep % config.stride == 0 or istep == nsteps:
            rec.times.append(st.t)
            rec.traces.append(st.trace.copy())
            if config.record_splits:
                rec.splits.append(st.U.copy())
        if pidx:
            s = st.trace
            rec.probe_times.append(st.t)
            rec.probe_values.append(
                np.array([[s[(c,) + idx] for c in range(2)] for idx in pidx]))

    record(state, 0)
    for istep in range(1, nsteps + 1):
        state = step(state, profiles, source, dt, grid)
        record(state, istep)
    return rec


# -- norms and transforms ---------------------------------------------

def _boundary_norm_sq(grid: Grid, s: np.ndarray) -> float:
    """Trapezoidal L2 norm squared of a field over the six faces."""
    total = 0.0
    h = grid.spacing
    for _, axis, _, _, index in faces():
        face = s[(slice(None),) + index]
        i1, i2 = [i for i in range(3) if i != axis]
        w1 = np.ones(grid.shape[i1]); w1[0] = w1[-1] = 0.5
        w2 = np.ones(grid.shape[i2]); w2[0] = w2[-1] = 0.5
        w = w1[:, None] * w2[None, :] * h[i1] * h[i2]
        total += float(np.sum(w * np.abs(face) ** 2))
    return total


def _inv_sqrt_helmholtz(grid: Grid, g: np.ndarray) -> np.ndarray:
    """(I - Laplacian_h)^{-1/2} g via the cosine transform that
    diagonalizes the 3-point Neumann Laplacian on each axis."""
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
    out = np.zeros_like(rec.traces[0])
    for wi, t, s in zip(w, times, rec.traces):
        out += wi * np.exp(-tau * t) * s
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
