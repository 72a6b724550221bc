"""Split-field time stepper: differencing, boundary projection,
energy behaviour, recordings, transforms, and external formats."""

import csv
import functools
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from paulipml import cli
from paulipml import freqdomain as fd
from paulipml import timedomain as td
from paulipml.algebra import pauli_matrices, projector
from paulipml.errors import StabilityError, TruncationWarning, ValidationError
from paulipml.geometry import BoxDomain, faces
from paulipml.stretching import AbsorptionProfile


@pytest.fixture
def grid(unit_box):
    return td.Grid(unit_box, (13, 13, 13))


def test_grid_validation(unit_box):
    with pytest.raises(ValueError):
        td.Grid(unit_box, (4, 13, 13))


def test_grid_metrics(grid):
    assert np.allclose(grid.spacing, 2.0 / 12.0)
    x = grid.mesh()
    assert x.shape == (3, 13, 13, 13)
    assert x[0, 0, 0, 0] == -1.0 and x[0, -1, 0, 0] == 1.0
    # norm of the constant field 1 is sqrt(volume) = sqrt(8)
    one = np.ones((2, 13, 13, 13)) / np.sqrt(2.0)
    assert grid.norm(one) == pytest.approx(np.sqrt(8.0))


def test_gaussian_source_support_and_envelope(grid):
    src = td.gaussian_source(grid, width=0.2, t_off=1.0)
    x = grid.mesh()
    outside = np.any(np.abs(x) > 0.5 + 1e-12, axis=0)
    assert np.all(src.spatial[:, outside] == 0.0)
    assert np.max(np.abs(src.spatial)) > 0.0
    assert np.all(src(-0.1) == 0.0)
    assert np.all(src(1.5) == 0.0)
    assert np.allclose(src(0.5), src.spatial)  # sin^2(pi/2) = 1


# -- the reference derivative.  Each record of the stencil table has its
# rows written out here by hand, never read from its ``low``: the
# centered interior weights on offsets -m..m and the closure rows, both
# in units of 1/h, with the polynomial degree each differentiates
# exactly.  Changing a record in ``src/`` means changing its entry here.

class _Rows(NamedTuple):
    interior: np.ndarray
    closure: np.ndarray  # row i on the first len(row) nodes
    interior_degree: int
    closure_degree: int


_CENTERED4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_ROWS = {
    "FOURTH": _Rows(_CENTERED4,
                    np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                              [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0,
                    4, 4),
    "CENTERED2": _Rows(np.array([-0.5, 0.0, 0.5]),
                       np.array([[-1.5, 2.0, -0.5]]), 2, 2),
    "PROBE": _Rows(_CENTERED4,
                   np.array([[-11.0, 18.0, -9.0, 2.0, 0.0],
                             [0.0, -11.0, 18.0, -9.0, 2.0]]) / 6.0, 4, 3),
}


def _ref_derivative(u, axis, h, rows):
    """d/dx along ``axis`` by ``rows``: the interior weights in every
    row, then the closure rows in the first rows and their mirror image,
    negated, in the last."""
    u = np.moveaxis(u, axis, 0)
    n, m = len(u), len(rows.interior) // 2
    out = np.zeros_like(u)
    for k, c in enumerate(rows.interior):
        if c:
            out[m:n - m] += c * u[k:n - 2 * m + k]
    for i, row in enumerate(rows.closure):
        out[i] = np.tensordot(row, u[:len(row)], axes=(0, 0))
        out[-1 - i] = -np.tensordot(row, u[::-1][:len(row)], axes=(0, 0))
    return np.moveaxis(out / h, 0, axis)


@pytest.mark.parametrize("name", list(_ROWS))
def test_stencil_is_exact_to_its_order(name):
    """The interior rows differentiate polynomials of the interior
    degree exactly, and all rows, the closures included, those of the
    closure degree; neither is exact one degree higher."""
    rows = _ROWS[name]
    stencil = getattr(td, name)
    r = len(rows.closure)
    x = np.linspace(-1.0, 1.0, 11)
    for degree, inner in ((rows.interior_degree, slice(r, -r)),
                          (rows.closure_degree, slice(None))):
        for d, exact in ((degree, True), (degree + 1, False)):
            p = np.polynomial.Polynomial(np.arange(1.0, d + 2.0))
            f = np.zeros((2, 11, 8, 9))
            f[:] = p(x)[None, :, None, None]
            err = (td.derivative(stencil, f, 1, x[1] - x[0])
                   - p.deriv()(x)[None, :, None, None])[:, inner]
            assert (np.max(np.abs(err)) <= 1e-12) == exact, (d, inner)


def test_node_floor_is_read_from_the_stencil_table(unit_box, tmp_path, rng):
    """The floor is the fewest nodes that hold every record's closure
    rows without overlap.  Grid and the CLI refuse one node less, naming
    the same floor; at the floor each record matches its rows on every
    axis."""
    floor = td.Grid.MIN_NODES
    assert floor == max(max(rows.closure.shape[1], 2 * len(rows.closure))
                        for rows in _ROWS.values())
    with pytest.raises(ValueError, match=f"n_j >= {floor} "):
        td.Grid(unit_box, (floor, floor - 1, floor))
    path = tmp_path / "floor.cfg"
    path.write_text(f"[experiment]\nkind = timedomain\n"
                    f"[grid]\nn = {floor - 1}\n")
    with pytest.raises(ValidationError,
                       match=f"^n: {floor - 1} must be >= {floor}$"):
        cli.parse_config(path)
    f = (rng.standard_normal((2,) + (floor,) * 3)
         + 1j * rng.standard_normal((2,) + (floor,) * 3))
    for name in _ROWS:
        for axis in (1, 2, 3):
            got = td.derivative(getattr(td, name), f, axis, 0.1)
            want = _ref_derivative(f, axis, 0.1, _ROWS[name])
            assert _rel(got, want) < 1e-13, (name, axis)


# -- the reference kernel: the reference derivative by FOURTH's rows,
# A_j applied by einsum, sigma_j re-evaluated and RK4 stages allocated
# on every call.  The fused kernel must reproduce it.

def _ref_rhs(U, profiles, source, t, grid):
    h = grid.spacing
    A = pauli_matrices()
    s = np.sum(U, axis=0)
    out = np.empty_like(U)
    f = source(t) if source is not None else None
    for j in range(3):
        shape = [1, 1, 1, 1]
        shape[j + 1] = grid.shape[j]
        sig = profiles[j](grid.axes[j]).reshape(shape)
        d = _ref_derivative(s, j + 1, h[j], _ROWS["FOURTH"])
        out[j] = -sig * U[j] - np.einsum("ab,b...->a...", A[j], d)
        if f is not None:
            out[j] += f / 3
    return out


def _ref_step(U, t, profiles, source, dt, grid):
    def stage(y, tl):
        return _ref_rhs(y, profiles, source, tl, grid)

    k1 = stage(U, t)
    k2 = stage(U + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = stage(U + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = stage(U + dt * k3, t + dt)
    new = U + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return td.apply_boundary(td.SplitState(new, t + dt)).U


@pytest.fixture
def skew_setup(rng):
    """A 9x10x11 grid on an unequal box with absorbing layers on every
    axis, a source live on [0, 0.5], and a random split state."""
    box = BoxDomain((1.0, 1.1, 1.2), inner_fraction=0.5)
    grid = td.Grid(box, (9, 10, 11))
    profiles = tuple(AbsorptionProfile(a=0.5 * b, b=b, sigma0=4.0)
                     for b in box.h)
    source = td.gaussian_source(grid, width=0.3, polarization=(1.0, 0.5j),
                                t_off=0.5)
    U = (rng.standard_normal((3, 2, 9, 10, 11))
         + 1j * rng.standard_normal((3, 2, 9, 10, 11)))
    return grid, profiles, source, U


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_diff4_matches_reference_on_every_axis(rng):
    f = rng.standard_normal((2, 9, 10, 11)) \
        + 1j * rng.standard_normal((2, 9, 10, 11))
    for axis in (1, 2, 3, -1):
        want = _ref_derivative(f, axis, 0.1, _ROWS["FOURTH"])
        assert _rel(td.derivative(td.FOURTH, f, axis, 0.1), want) < 1e-13
        out = np.empty_like(f)
        got = td.diff4(f, axis, out=out)
        assert got is out
        assert _rel(got, 12 * 0.1 * want) < 1e-13


# -- the derivative-stencil table.  CENTERED2 and PROBE are checked
# against their reference rows on moved axes, and two rescaled records
# of CENTERED2 against CENTERED2 itself.

@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("axis", [1, 2, 3, -1])
@pytest.mark.parametrize("stencil, ref", [
    (td.CENTERED2, functools.partial(_ref_derivative,
                                     rows=_ROWS["CENTERED2"])),
    (td.PROBE, functools.partial(_ref_derivative, rows=_ROWS["PROBE"])),
    # CENTERED2 with widest interior coefficient +-1/2 and denominator
    # +-1, so the widest difference is scaled by |c_m|
    (td.Stencil(((1, 0.5),), np.array([[-1.5, 2.0, -0.5]]), 1.0),
     functools.partial(td.derivative, td.CENTERED2)),
    (td.Stencil(((1, -0.5),), np.array([[1.5, -2.0, 0.5]]), -1.0),
     functools.partial(td.derivative, td.CENTERED2))],
    ids=["CENTERED2", "PROBE", "CENTERED2_half", "CENTERED2_mirrored_half"])
def test_stencil_matches_reference(rng, stencil, ref, axis, complex_field):
    f = rng.standard_normal((2, 9, 10, 11))
    if complex_field:
        f = f + 1j * rng.standard_normal(f.shape)
    got = td.derivative(stencil, f, axis, 0.1)
    assert got.dtype == f.dtype
    assert _rel(got, ref(f, axis, 0.1)) <= 1e-15


def test_diff4_is_the_fourth_stencil(rng):
    f = rng.standard_normal((2, 9, 10, 11)) \
        + 1j * rng.standard_normal((2, 9, 10, 11))
    for axis in (1, 2, 3, -1):
        assert np.array_equal(td.diff4(f, axis),
                              td.derivative(td.FOURTH, f, axis))


@pytest.mark.parametrize("n, half", [(8, 1.0), (13, 0.8), (17, 1.0)])
def test_deriv1d_is_the_centered_stencil(monkeypatch, n, half):
    """The solve's n x n matrix is the record that it reads (today
    CENTERED2) on the identity, and matches that record's rows."""
    read = []

    def spy(stencil, *args):
        read.append(stencil)
        return td.derivative(stencil, *args)
    monkeypatch.setattr(fd, "derivative", spy)
    h = 2.0 * half / (n - 1)
    got = fd._deriv1d(n, h).toarray()
    stencil, = read
    rows, = (v for k, v in _ROWS.items() if getattr(td, k) is stencil)
    assert np.array_equal(got, td.derivative(stencil, np.eye(n), 0, h))
    assert _rel(got, _ref_derivative(np.eye(n), 0, h, rows)) <= 1e-15


def test_pauli_action_table_matches_the_matrices(rng):
    """The kernel applies A_j as one factor times one source component
    per output component; that table must be the Pauli triple."""
    A = pauli_matrices()
    v = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
    for j in range(3):
        got = np.array([c * v[b] for b, c in td._PAULI_ACTION[j]])
        assert np.array_equal(got, A[j] @ v)


@pytest.mark.parametrize("t", [0.3, 1.5])  # source live, then off
def test_fused_rhs_matches_reference(skew_setup, t):
    """On a zero base with scale 1 and the source envelope at t, one
    level is the time derivative; twice through one workspace."""
    grid, profiles, source, U = skew_setup
    want = _ref_rhs(U, profiles, source, t, grid)
    work = td.Workspace(grid, profiles)
    base = np.zeros_like(U)
    for _ in range(2):
        got = td.rhs(td.SplitState(U, t), source, work,
                     np.empty_like(U), 1.0, base, td._envelope(source, t))
        assert _rel(got, want) < 1e-13


def test_rhs_rejects_a_strided_out(skew_setup):
    """rhs adds into flat views of ``out``; a strided buffer would take
    the sums in a copy, so it is refused."""
    grid, profiles, source, U = skew_setup
    out = np.empty(U.shape[:-1] + (2 * U.shape[-1],), complex)[..., ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        td.rhs(td.SplitState(U, 0.3), source, td.Workspace(grid, profiles),
               out, 1.0, np.zeros_like(U), 1.0)


@pytest.mark.parametrize("zero_axis", [None, 1])
def test_rhs_in_place_matches_out_of_place(skew_setup, rng, zero_axis):
    """Levels 2-4 of step write over their own input: rhs with out = U
    gives the out-of-place result bit for bit, also where sigma vanishes
    on one axis and the level copies the base."""
    grid, profiles, source, U = skew_setup
    if zero_axis is not None:
        profiles = list(profiles)
        profiles[zero_axis] = AbsorptionProfile.zero(grid.box.h[zero_axis])
    work = td.Workspace(grid, profiles)
    base = (rng.standard_normal(U.shape)
            + 1j * rng.standard_normal(U.shape))
    env = td._envelope(source, 0.3)
    want = td.rhs(td.SplitState(U, 0.3), source, work, np.empty_like(U),
                  0.07, base, env)
    inout = U.copy()
    got = td.rhs(td.SplitState(inout, 0.3), source, work, inout, 0.07,
                 base, env)
    assert got is inout
    assert np.array_equal(got, want)


def test_rhs_rejects_out_overlapping_base(skew_setup):
    """out = base would scale the base before adding it, so it is
    refused."""
    grid, profiles, source, U = skew_setup
    base = np.zeros_like(U)
    with pytest.raises(ValueError, match="overlap base"):
        td.rhs(td.SplitState(U, 0.3), source, td.Workspace(grid, profiles),
               base, 1.0, base, 1.0)


def test_steps_alternate_between_two_buffers(skew_setup):
    """The workspace holds two state buffers and each step writes into
    the one that does not hold its input."""
    grid, profiles, source, U = skew_setup
    work = td.Workspace(grid, profiles)
    assert len(work.states) == 2
    state = td.SplitState(U.copy(), 0.0)
    for i in range(5):
        prev = state.U
        state = td.step(state, source, 0.1, work)
        assert state.U is work.states[i % 2]
        assert state.U is not prev


def test_fused_steps_match_reference(skew_setup):
    """Eight steps through one workspace, as run takes them, across the
    source switch-off at t = 0.5."""
    _check_fused_steps(*skew_setup)


@pytest.mark.parametrize("zero_axis", [0, 1, 2])
def test_fused_steps_match_reference_with_a_zero_axis(skew_setup,
                                                       zero_axis):
    """The same eight steps where sigma vanishes on one axis, so the
    level copies y for that split field instead of scaling it."""
    grid, profiles, source, U = skew_setup
    profiles = list(profiles)
    profiles[zero_axis] = AbsorptionProfile.zero(grid.box.h[zero_axis])
    work = td.Workspace(grid, profiles)
    assert work.sigma[zero_axis] is None
    _check_fused_steps(grid, tuple(profiles), source, U)


def _check_fused_steps(grid, profiles, source, U):
    dt = 0.1
    work = td.Workspace(grid, profiles)
    state = td.SplitState(U.copy(), 0.0)
    ref, t = U.copy(), 0.0
    for _ in range(8):
        state = td.step(state, source, dt, work)
        ref = _ref_step(ref, t, profiles, source, dt, grid)
        t += dt
        assert state.t == pytest.approx(t)
        assert _rel(state.U, ref) < 1e-13


def test_run_keeps_the_traced_call_chain(monkeypatch, unit_box,
                                         bump_profiles):
    """run calls step once per step and step calls rhs four times,
    rhs calls diff4 once per axis, all through the module attributes."""
    calls = {"step": 0, "rhs": 0, "diff4": 0}
    for name in calls:
        orig = getattr(td, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(td, name, counted)
    grid = td.Grid(unit_box, (9, 9, 9))
    rec = td.run(td.SimConfig(grid, cfl=0.5, T=0.5), bump_profiles,
                 td.gaussian_source(grid, t_off=0.25))
    nsteps = len(rec.times) - 1
    assert nsteps == 4
    assert calls == {"step": nsteps, "rhs": 4 * nsteps,
                     "diff4": 12 * nsteps}


def test_step_leaves_its_input_untouched(grid, bump_profiles, rng):
    """A step writes none of its input, neither a caller's array nor the
    workspace buffer that the previous step returned."""
    U = rng.standard_normal((3, 2, 13, 13, 13)) + 0j
    state = td.SplitState(U.copy(), 0.2)
    src = td.gaussian_source(grid, t_off=1.0)
    work = td.Workspace(grid, bump_profiles)
    out = td.step(state, src, 0.05, work)
    assert np.array_equal(state.U, U) and state.t == 0.2
    assert not np.shares_memory(out.U, state.U)
    first = out.U.copy()
    again = td.step(out, src, 0.05, work)
    assert np.array_equal(out.U, first)
    assert not np.shares_memory(again.U, out.U)


def test_trapezoid_weights_are_the_tensor_product(rng):
    """Grid.norm and the face norm keep their weights per grid; they
    equal the weights built afresh."""
    grid = td.Grid(BoxDomain((1.0, 1.1, 1.2)), (8, 9, 10))
    w = [np.r_[0.5, np.ones(n - 2), 0.5] for n in grid.shape]
    vol = np.einsum("i,j,k->ijk", *w)
    g = rng.standard_normal((2, 8, 9, 10))
    want = np.sqrt(np.sum(vol * g ** 2) * grid.cell_volume())
    assert grid.norm(g) == pytest.approx(want, rel=1e-14)
    h = grid.spacing
    bd = 0.0
    for axis, idx in ((0, 0), (0, -1), (1, 0), (1, -1), (2, 0), (2, -1)):
        i1, i2 = [i for i in range(3) if i != axis]
        face = np.take(g, idx, axis=axis + 1)
        bd += np.sum(np.outer(w[i1], w[i2]) * h[i1] * h[i2] * face ** 2)
    assert grid.boundary_norm_sq(g) == pytest.approx(bd, rel=1e-14)


def test_apply_boundary_kills_incoming_trace(grid, rng):
    state = td.SplitState(rng.standard_normal((3, 2, 13, 13, 13))
                          + 1j * rng.standard_normal((3, 2, 13, 13, 13)))
    td.apply_boundary(state)
    s = state.trace
    # interior face nodes satisfy pi^-(nu) s = 0 exactly; edge and corner
    # nodes are rewritten by whichever face the sweep visits last
    for _, axis, _, nu, index in faces():
        idx = [slice(1, -1)] * 3
        idx[axis] = index[axis]
        face = s[(slice(None),) + tuple(idx)]
        res = np.einsum("ab,b...->a...", projector(-1, nu), face)
        assert np.max(np.abs(res)) < 1e-12


def _energy(grid, state):
    return sum(grid.norm(state.U[j]) ** 2 for j in range(3))


def _run_energy(grid, profiles, T=3.0):
    cfg = td.SimConfig(grid, cfl=0.5, T=T, stride=4)
    src = td.gaussian_source(grid, width=0.15, t_off=1.0)
    rec = td.run(cfg, profiles, src)
    return rec


def test_energy_decays_after_source_off(grid, bump_profiles, zero_profiles):
    """The trace norm decays once the source stops, and absorption
    removes it faster than the bare outflow condition alone."""
    norms = {}
    for name, profs in (("abs", bump_profiles), ("bare", zero_profiles)):
        rec = _run_energy(grid, profs)
        times = np.asarray(rec.times)
        vals = np.array([grid.norm(s) for s in rec.traces])
        peak = vals[times <= 1.2].max()
        final = vals[-1]
        assert final < 0.5 * peak
        norms[name] = final
    assert norms["abs"] < norms["bare"]


def test_boundary_condition_holds_after_run(grid, bump_profiles):
    cfg = td.SimConfig(grid, cfl=0.5, T=1.5, stride=100)
    src = td.gaussian_source(grid, width=0.15, t_off=1.0)
    rec = td.run(cfg, bump_profiles, src)
    s = rec.traces[-1]
    worst = 0.0
    for _, _, _, nu, index in faces():
        face = s[(slice(None),) + index]
        worst = max(worst, np.max(np.abs(
            np.einsum("ab,b...->a...", projector(-1, nu), face))))
    assert worst < 1e-3  # edge nodes carry the sequential-face residual


def test_causality_probe(grid, zero_profiles):
    """A probe outside the light cone of the source support stays zero."""
    probe = (1.0, 1.0, 1.0)
    cfg = td.SimConfig(grid, cfl=0.5, T=0.2, probes=(probe,))
    src = td.gaussian_source(grid, width=0.1, t_off=1.0)
    rec = td.run(cfg, zero_profiles, src)
    series = rec.probe_series()
    # support radius 0.5 (inner box), distance to corner ~ sqrt(3)-? > 0.3
    assert np.max(np.abs(series)) < 1e-10


def test_stability_error_on_blowup(grid, zero_profiles):
    state = td.SplitState.zeros(grid)
    state.U[:] = 1.0
    huge_dt = 50.0 * np.min(grid.spacing)
    work = td.Workspace(grid, zero_profiles)
    with pytest.raises(StabilityError):
        for _ in range(200):
            state = td.step(state, None, huge_dt, work)


def test_sigma_dt_warning(unit_box):
    grid = td.Grid(unit_box, (8, 8, 8))  # dt = 0.25, so sigma0 dt = 25
    profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=100.0)
                  for _ in range(3))
    cfg = td.SimConfig(grid, cfl=1.0, T=0.5)
    with pytest.warns(UserWarning, match="sigma0"):
        td.run(cfg, profs, None)


def test_simpson_weights_integrate_cubics():
    t = np.linspace(0.0, 2.0, 21)
    w = td._simpson_weights(t)
    assert np.dot(w, t ** 3) == pytest.approx(4.0)
    assert np.sum(w) == pytest.approx(2.0)


def test_simpson_weights_even_frame_count():
    """An even uniform frame count keeps 4th order: 8 frames of e^{-t}
    on [0, 0.875] integrate to relative error below 1e-5 (a trapezoid
    on the last interval gives 1.3e-4)."""
    t = np.linspace(0.0, 0.875, 8)
    exact = 1.0 - np.exp(-0.875)
    got = np.dot(td._simpson_weights(t), np.exp(-t))
    assert abs(got - exact) / exact < 1e-5


def test_simpson_weights_off_stride_final_frame(unit_box, zero_profiles):
    """7 steps at stride 2 end on a short, off-stride frame; the weights
    still sum to T and a constant transforms to (1 - e^{-tau T}) / tau."""
    grid = td.Grid(unit_box, (9, 9, 9))
    rec = td.run(td.SimConfig(grid, cfl=0.5, T=0.875, stride=2),
                 zero_profiles, None)
    assert np.allclose(rec.times, [0.0, 0.25, 0.5, 0.75, 0.875])
    assert np.sum(td._simpson_weights(np.asarray(rec.times))) \
        == pytest.approx(0.875, rel=1e-12)
    g = np.ones((2, 9, 9, 9), dtype=complex)
    rec.traces = [g] * len(rec.times)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = td.laplace_of_trace(rec, 1.0)
    assert np.allclose(got, (1.0 - np.exp(-0.875)) * g, rtol=5e-3)


def test_laplace_of_trace_closed_form(grid):
    """For s(t, x) = e^{-t} g(x) the truncated transform is
    (1 - e^{-(tau+1) T}) / (tau + 1) * g."""
    rec = td.Recording(grid, dt=0.01)
    g = np.ones((2, 13, 13, 13), dtype=complex)
    T = 8.0
    for t in np.linspace(0.0, T, 801):
        rec.times.append(t)
        rec.traces.append(np.exp(-t) * g)
    tau = 1.5 + 0.5j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = td.laplace_of_trace(rec, tau)
    want = (1 - np.exp(-(tau + 1) * T)) / (tau + 1)
    assert np.allclose(got, want * g, atol=1e-9)


def test_laplace_truncation_warning(grid):
    rec = td.Recording(grid, dt=0.01)
    g = np.ones((2, 13, 13, 13), dtype=complex)
    for t in np.linspace(0.0, 0.5, 51):  # trace has not decayed by T
        rec.times.append(t)
        rec.traces.append(g.copy())
    with pytest.warns(TruncationWarning):
        td.laplace_of_trace(rec, 0.5)


def test_weighted_norms_with_splits(grid, bump_profiles):
    cfg = td.SimConfig(grid, cfl=0.5, T=1.0, stride=2)
    src = td.gaussian_source(grid, width=0.15, t_off=0.5)
    rec = td.run(cfg, bump_profiles, src)
    out = td.weighted_norms(rec, lam=1.0)
    assert out["volume"] > 0
    assert out["boundary"] >= 0
    # a larger weight shrinks every norm
    out2 = td.weighted_norms(rec, lam=2.0)
    assert out2["volume"] < out["volume"]


def test_weighted_norms_without_splits(grid, bump_profiles):
    cfg = td.SimConfig(grid, cfl=0.5, T=0.5, stride=2)
    rec = td.run(cfg, bump_profiles, td.gaussian_source(grid, t_off=0.5))
    out = td.weighted_norms(rec, lam=1.0)
    assert set(out) == {"volume", "boundary"}
    assert rec.splits == []


# -- reducers: streamed frames against kept-frame replays -----------------

# (T, stride, cfl, frame count) on a 9^3 unit-box grid.  At cfl 0.5,
# dt = 0.125: odd frame count; even frame count; short off-stride final
# frame after an odd count; the same after an even count.  At cfl 0.4,
# dt = 0.1 is not a binary fraction, so t + dt summed per step differs
# from istep * dt (from step 6 on).
_SCHEDULES = [(1.0, 1, 0.5, 9), (0.875, 1, 0.5, 8), (0.875, 2, 0.5, 5),
              (1.125, 2, 0.5, 6), (1.1, 3, 0.4, 5)]


@pytest.mark.parametrize("T, stride, cfl, count", _SCHEDULES)
def test_frame_times_are_the_run_times(unit_box, zero_profiles, T, stride,
                                       cfl, count):
    grid = td.Grid(unit_box, (9, 9, 9))
    rec = td.run(td.SimConfig(grid, cfl=cfl, T=T, stride=stride),
                 zero_profiles, None)
    nsteps = int(round(T / rec.dt))
    assert rec.times == list(td._frames(nsteps, stride, rec.dt).values())
    assert len(rec.times) == len(rec.traces) == count


@pytest.mark.parametrize("T, stride, cfl, count", _SCHEDULES)
def test_streamed_reducers_equal_replays(unit_box, bump_profiles, T, stride,
                                         cfl, count):
    """Every reducer gives bit for bit the result of replaying the kept
    frames, for odd and even frame counts and an off-stride last frame."""
    grid = td.Grid(unit_box, (9, 9, 9))
    cfg = td.SimConfig(grid, cfl=cfl, T=T, stride=stride,
                       probes=((0.0, 0.0, 0.0),))
    src = td.gaussian_source(grid, width=0.15, t_off=0.5)
    taus = (2.0, 2.0 + 1.0j)

    def reducers():
        return ([td.LaplaceTransform(tau) for tau in taus]
                + [td.WeightedNorms(1.0),
                   td.FrameSeries(lambda s: grid.norm(s) ** 2),
                   td.LastFrame()])

    streamed = reducers()
    rec_s = td.run(cfg, bump_profiles, src, reducers=streamed)
    rec = td.run(cfg, bump_profiles, src)
    replayed = td.replay(rec, *reducers())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for i, tau in enumerate(taus):
            got = streamed[i].value()
            assert np.array_equal(got, replayed[i].value())
            assert np.array_equal(got, td.laplace_of_trace(rec, tau))
    assert streamed[2].value() == replayed[2].value() \
        == td.weighted_norms(rec, 1.0)
    assert streamed[3].values == replayed[3].values
    assert streamed[3].times.tolist() == rec.times
    assert np.array_equal(streamed[4].frame, rec.traces[-1])
    # the streamed run keeps its times and probes but no frames
    assert rec_s.traces == []
    assert rec_s.times == rec.times
    assert np.array_equal(rec_s.probe_series(), rec.probe_series())


def test_replay_of_a_streamed_recording_raises(unit_box, zero_profiles):
    grid = td.Grid(unit_box, (9, 9, 9))
    rec = td.run(td.SimConfig(grid, cfl=0.5, T=0.5), zero_profiles, None,
                 reducers=[td.LastFrame()])
    with pytest.raises(ValueError, match="no frames"):
        td.weighted_norms(rec, 1.0)


def test_laplace_tail_reads_the_last_frame(grid):
    """A trace that is off by the last frame has no truncation tail."""
    g = np.ones((2, 13, 13, 13), dtype=complex)
    times = np.linspace(0.0, 0.5, 51)
    transform = td.LaplaceTransform(0.5)
    transform.start(grid, times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in times:
            transform.add(t, g if t < 0.25 else 0.0 * g)
        assert grid.norm(transform.value()) > 0


def test_snapshot_round_trip(tmp_path, rng):
    field = (rng.standard_normal((2, 4, 5, 6))
             + 1j * rng.standard_normal((2, 4, 5, 6)))
    path = tmp_path / "snap.bin"
    td.write_snapshot(path, field, (0.1, 0.2, 0.3), 1.25)
    back, spacing, t = td.read_snapshot(path)
    assert np.array_equal(back, field)
    assert spacing == (0.1, 0.2, 0.3)
    assert t == 1.25


def test_snapshot_layout_is_component_major_x_fastest(tmp_path):
    field = np.zeros((2, 2, 2, 2), dtype=complex)
    field[0, 1, 0, 0] = 3.0 + 4.0j  # second x-node of the first component
    path = tmp_path / "snap.bin"
    td.write_snapshot(path, field, (1, 1, 1), 0.0)
    raw = np.fromfile(path, dtype="<f8")
    assert raw[2] == 3.0 and raw[3] == 4.0
    hdr = (tmp_path / "snap.bin.hdr").read_text()
    assert "component-major x-fastest re,im float64 le" in hdr


def test_probe_csv(tmp_path, grid, zero_profiles):
    cfg = td.SimConfig(grid, cfl=0.5, T=0.2,
                       probes=((0.0, 0.0, 0.0), (0.5, 0.0, 0.0)))
    rec = td.run(cfg, zero_profiles, td.gaussian_source(grid, t_off=1.0))
    path = tmp_path / "probes.csv"
    td.write_probes(path, rec)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t",
                       "re_u1_p0", "im_u1_p0", "re_u2_p0", "im_u2_p0",
                       "re_u1_p1", "im_u1_p1", "re_u2_p1", "im_u2_p1"]
    assert len(rows) - 1 == len(rec.probe_times)
    assert float(rows[1][0]) == 0.0
