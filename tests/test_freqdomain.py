"""Frequency-domain solvers: assembly validation, a manufactured
solution, the cross-residuals, and the Petrov-Galerkin form."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from paulipml import freqdomain as fd
from paulipml.algebra import pauli_matrices, projector
from paulipml.errors import AssemblyError, NonConvergenceError
from paulipml.geometry import BoxDomain, face_axis_sign, face_normal
from paulipml.stretching import AbsorptionProfile, StretchContext
from paulipml.timedomain import Grid


def _order(hs, errs):
    """Least-squares slope of log err against log h."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _setup(n=13, tau=2.0 + 1.0j, sigma0=1.0):
    box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
    grid = Grid(box, (n, n, n))
    profs = tuple(AbsorptionProfile(a=0.5, b=1.0, sigma0=sigma0)
                  for _ in range(3))
    return grid, StretchContext(tau, profs)


def _bump_source(grid, R=0.4):
    x = grid.mesh()
    r2 = np.sum(x ** 2, axis=0) / R ** 2
    F = np.zeros((2,) + tuple(grid.shape), dtype=complex)
    F[0] = np.maximum(0.0, 1.0 - r2) ** 4
    return F


def test_assembly_rejects_bad_source_shape():
    grid, ctx = _setup(5)
    with pytest.raises(AssemblyError):
        fd.assemble_stretched(ctx, grid, np.zeros((2, 5, 5, 4)))


def test_assembly_rejects_short_profiles():
    grid, _ = _setup(5)
    profs = tuple(AbsorptionProfile(a=0.3, b=0.7, sigma0=1.0)
                  for _ in range(3))
    ctx = StretchContext(2.0 + 1.0j, profs)
    with pytest.raises(AssemblyError):
        fd.assemble_stretched(ctx, grid, np.zeros((2, 5, 5, 5)))


def test_zero_source_gives_zero_solution():
    grid, ctx = _setup(7)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 7, 7, 7)))
    u = fd.solve(op)
    assert np.max(np.abs(u)) == 0.0


def test_solution_satisfies_boundary_rows():
    grid, ctx = _setup(9)
    u = fd.solve(fd.assemble_stretched(ctx, grid, _bump_source(grid)))
    for k in range(1, 7):
        axis, sign = face_axis_sign(k)
        pim = projector(-1, face_normal(k))
        idx = [slice(None)] * 3
        idx[axis] = -1 if sign > 0 else 0
        face = u[(slice(None),) + tuple(idx)]
        assert np.max(np.abs(np.einsum("ab,b...->a...", pim, face))) < 1e-10


def test_manufactured_solution_second_order():
    """Impose u = polynomial bump times a constant spinor; the source
    F = tau u + sum_j A_j r_j d_j u is computed analytically, and the
    discrete solution must converge to u at 2nd order."""
    A = pauli_matrices()
    spinor = np.array([1.0, 0.5 - 0.25j])
    R = 0.85
    errs, hs = [], []
    for n in (13, 17, 21):
        grid, ctx = _setup(n)
        x = grid.mesh()
        pts = np.moveaxis(x, 0, -1)
        q = np.maximum(0.0, 1.0 - np.sum(x ** 2, axis=0) / R ** 2)
        phi = q ** 4
        dphi = [4 * q ** 3 * (-2.0 * x[j] / R ** 2) for j in range(3)]
        u_exact = spinor[:, None, None, None] * phi[None]
        ratios = ctx.ratios(pts)
        F = ctx.tau * u_exact
        for j in range(3):
            du = spinor[:, None, None, None] * dphi[j][None]
            F += np.einsum("ab,b...->a...", A[j], ratios[None, ..., j] * du)
        u = fd.solve(fd.assemble_stretched(ctx, grid, F))
        errs.append(grid.norm(u - u_exact) / grid.norm(u_exact))
        hs.append(grid.spacing[0])
    order = _order(hs, errs)
    assert order >= 1.7


def test_helmholtz_residual_converges():
    """The interior divergence-form residual of the discrete solution
    shrinks at roughly 2nd order under refinement."""
    errs, hs = [], []
    for n in (13, 17, 21):
        grid, ctx = _setup(n)
        F = _bump_source(grid)
        u = fd.solve(fd.assemble_stretched(ctx, grid, F))
        res = fd.helmholtz_vs_stretched(u, ctx, grid, F)
        errs.append(grid.norm(res) / max(grid.norm(u), 1e-30))
        hs.append(grid.spacing[0])
    assert _order(hs, errs) >= 1.5


def test_second_bc_residual_decreases():
    worsts, hs = [], []
    for n in (13, 17, 21):
        grid, ctx = _setup(n)
        u = fd.solve(fd.assemble_stretched(ctx, grid, _bump_source(grid)))
        _, worst = fd.second_bc_residual(u, ctx, grid)
        worsts.append(worst)
        hs.append(grid.spacing[0])
    assert worsts[2] < worsts[1] < worsts[0]
    assert _order(hs, worsts) >= 1.5


def test_second_bc_returns_all_faces():
    grid, ctx = _setup(9)
    u = fd.solve(fd.assemble_stretched(ctx, grid, _bump_source(grid)))
    faces, worst = fd.second_bc_residual(u, ctx, grid)
    assert sorted(faces) == [1, 2, 3, 4, 5, 6]
    assert worst >= 0.0
    assert faces[1].shape == (9, 9)


def test_second_bc_residual_keeps_a_nan():
    """A NaN on one interior node of face 3 makes the worst residual NaN;
    a running Python max would drop it and report the other faces."""
    grid, ctx = _setup(13)
    u = fd.solve(fd.assemble_stretched(ctx, grid, _bump_source(grid)))
    u[0, 6, 6, 0] = np.nan
    faces, worst = fd.second_bc_residual(u, ctx, grid)
    assert np.isnan(faces[3]).any() and not np.isnan(faces[6]).any()
    assert np.isnan(worst)


def _bulk_operator(ctx, grid):
    """tau + sum_j A_j K_j assembled without the boundary row
    replacement."""
    A = pauli_matrices()
    nscalar = int(np.prod(grid.shape))
    L = ctx.tau * sp.identity(2 * nscalar, dtype=complex)
    for j in range(3):
        ratio = ctx.tau / (ctx.tau + ctx.profiles[j](grid.axes[j]))
        L = L + sp.kron(fd._axis_operator(grid, j, ratio), A[j])
    return L.tocsr()


@pytest.mark.parametrize("sigma0", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("tau", [2.0 + 1.0j, 4.0 - 4.0j, 2.0 + 8.0j])
def test_bulk_inverse_is_exact(sigma0, tau, rng):
    """The Schur-factored preconditioner inverts the bulk operator to
    roundoff, including the near-defective sigma = 0 case."""
    grid, ctx = _setup(9, tau=tau, sigma0=sigma0)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 9, 9, 9)))
    v = (rng.standard_normal(op.matrix.shape[0])
         + 1j * rng.standard_normal(op.matrix.shape[0]))
    back = fd._bulk_inverse(op)(_bulk_operator(ctx, grid) @ v)
    assert np.linalg.norm(back - v) <= 1e-8 * np.linalg.norm(v)


@pytest.mark.parametrize("n, sigma0, tau", [
    (7, 1.0, 2.0 + 1.0j), (9, 1.0, 2.0 + 1.0j),
    (7, 0.0, 3.0 + 1.0j), (9, 0.0, 3.0 + 1.0j)])
def test_solve_matches_sparse_lu(n, sigma0, tau):
    """The preconditioned GMRES solve agrees with a sparse LU solve of
    the same assembled system."""
    grid, ctx = _setup(n, tau=tau, sigma0=sigma0)
    op = fd.assemble_stretched(ctx, grid, _bump_source(grid))
    u = fd.solve(op).transpose(1, 2, 3, 0).ravel()
    ref = spla.splu(op.matrix).solve(op.rhs)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


def test_gmres_failure_is_typed(monkeypatch):
    grid, ctx = _setup(7)
    op = fd.assemble_stretched(ctx, grid, _bump_source(grid))
    monkeypatch.setattr(fd.spla, "gmres",
                        lambda A, b, **kw: (np.zeros_like(b), 10))
    with pytest.raises(NonConvergenceError):
        fd.solve(op)


def test_unknown_ordering_node_major():
    """Row 2*node+component of the interior equation acts on the
    component-fastest flattened unknown vector."""
    grid, ctx = _setup(5)
    F = np.zeros((2, 5, 5, 5), dtype=complex)
    F[1, 2, 2, 2] = 1.0
    op = fd.assemble_stretched(ctx, grid, F)
    node = np.ravel_multi_index((2, 2, 2), (5, 5, 5))
    b = op.rhs
    assert b[2 * node + 1] == 1.0 and b[2 * node] == 0.0
    assert np.count_nonzero(b) == 1


def test_export_matrix_round_trip(tmp_path):
    grid, ctx = _setup(5)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 5, 5, 5)))
    path = tmp_path / "mat.txt"
    fd.export_matrix(path, op)
    rows, cols, re, im = np.loadtxt(path, unpack=True)
    back = np.zeros(op.matrix.shape, dtype=complex)
    back[rows.astype(int), cols.astype(int)] = re + 1j * im
    assert np.allclose(back, op.matrix.toarray())


class TestHelmholtzForm:
    def _asm(self, n=9, tau=3.0 + 1.0j, sigma0=0.0):
        grid, ctx = _setup(n, tau=tau, sigma0=sigma0)
        return grid, ctx, fd.assemble_helmholtz(ctx, grid)

    def test_matrices_symmetric(self):
        _, _, asm = self._asm(sigma0=2.0)
        for K in (asm.stiffness, asm.mass, asm.boundary):
            d = K - K.T
            assert abs(d).max() < 1e-10 * abs(K).max()

    def test_unstretched_structure(self, rng):
        """With sigma = 0 the form is k0 + tau^2 m0 + tau b0 with
        non-negative real k0, m0, b0, hence
        Im A / Im tau = 2 Re tau m0 + b0."""
        tau = 3.0 + 1.0j
        grid, ctx, asm = self._asm(tau=tau)
        u = (rng.standard_normal((2, 9, 9, 9))
             + 1j * rng.standard_normal((2, 9, 9, 9)))
        v = np.conj(u)
        k, m, b = asm.form_parts(u, v)
        k0, m0, b0 = k.real, (m / tau ** 2).real, (b / tau).real
        assert min(k0, m0, b0) > 0
        assert abs(k.imag) < 1e-10 * abs(k)
        total = asm.form(u, v)
        want = 2 * tau.real * m0 + b0
        assert total.imag / tau.imag == pytest.approx(want, rel=1e-10)

    def test_mass_matrix_integrates_constants(self):
        """1^T M 1 = tau^2 Pi |box| exactly for sigma = 0."""
        tau = 2.0 + 0.5j
        grid, ctx, asm = self._asm(tau=tau)
        one = np.ones((2, 9, 9, 9), dtype=complex)
        m = asm.form_parts(one, one)[1]
        assert m / 2.0 == pytest.approx(tau ** 2 * 8.0)  # two components

    def test_boundary_matrix_integrates_constants(self):
        tau = 2.0 + 0.5j
        grid, ctx, asm = self._asm(tau=tau)
        one = np.ones((2, 9, 9, 9), dtype=complex)
        b = asm.form_parts(one, one)[2]
        assert b / 2.0 == pytest.approx(tau * 24.0)  # Phi=1, beta=tau, area 24

    def test_projections(self, rng):
        grid, ctx, asm = self._asm()
        u = (rng.standard_normal((2, 9, 9, 9))
             + 1j * rng.standard_normal((2, 9, 9, 9)))
        ut = asm.project_trial(u)
        assert np.allclose(asm.project_trial(ut), ut)
        # face values lie in the range of pi^+(nu)
        pim = projector(-1, face_normal(4))
        face = ut[:, -1, 1:-1, 1:-1]
        assert np.max(np.abs(np.einsum("ab,b...->a...", pim, face))) < 1e-12
        # multi-face nodes are zeroed
        assert np.all(ut[:, 0, 0, :] == 0.0)
