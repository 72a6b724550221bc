"""Frequency-domain solvers: assembly validation, a manufactured
solution, the cross-residuals, and the Petrov-Galerkin form."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from paulipml import freqdomain as fd
from paulipml.algebra import pauli_matrices, projector
from paulipml.errors import AssemblyError, NonConvergenceError
from paulipml.geometry import BoxDomain, faces
from paulipml.stretching import AbsorptionProfile, StretchContext
from paulipml.timedomain import Grid


def _order(hs, errs):
    """Least-squares slope of log err against log h."""
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def _setup(n=13, tau=2.0 + 1.0j, sigma0=1.0):
    """n is the node count per axis, or a tuple of three."""
    box = BoxDomain((1.0, 1.0, 1.0), inner_fraction=0.5)
    grid = Grid(box, n if isinstance(n, tuple) else (n, n, n))
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
    grid, ctx = _setup(8)
    with pytest.raises(AssemblyError):
        fd.assemble_stretched(ctx, grid, np.zeros((2, 8, 8, 7)))


def test_assembly_rejects_short_profiles():
    grid, _ = _setup(8)
    profs = tuple(AbsorptionProfile(a=0.3, b=0.7, sigma0=1.0)
                  for _ in range(3))
    ctx = StretchContext(2.0 + 1.0j, profs)
    with pytest.raises(AssemblyError):
        fd.assemble_stretched(ctx, grid, np.zeros((2, 8, 8, 8)))


def test_zero_source_gives_zero_solution():
    grid, ctx = _setup(8)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 8, 8, 8)))
    u = fd.solve(op)
    assert np.max(np.abs(u)) == 0.0


def test_solution_satisfies_boundary_rows():
    grid, ctx = _setup(9)
    u = fd.solve(fd.assemble_stretched(ctx, grid, _bump_source(grid)))
    for _, _, _, nu, index in faces():
        face = u[(slice(None),) + index]
        res = np.einsum("ab,b...->a...", projector(-1, nu), face)
        assert np.max(np.abs(res)) < 1e-10


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
    eyes = [sp.identity(n) for n in grid.shape]
    for j, k in enumerate(fd._axis_factors(ctx, grid)):
        facs = list(eyes)
        facs[j] = k
        L = L + sp.kron(sp.kron(sp.kron(facs[0], facs[1]), facs[2]), A[j])
    return L.tocsr()


def _check_bulk_inverse(n, sigma0, tau, rng):
    grid, ctx = _setup(n, tau=tau, sigma0=sigma0)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2,) + grid.shape))
    v = (rng.standard_normal(op.matrix.shape[0])
         + 1j * rng.standard_normal(op.matrix.shape[0]))
    back = fd._bulk_inverse(op)(_bulk_operator(ctx, grid) @ v)
    assert np.linalg.norm(back - v) <= 1e-8 * np.linalg.norm(v)


@pytest.mark.parametrize("sigma0", [0.0, 1.0, 4.0])
@pytest.mark.parametrize("tau", [2.0 + 1.0j, 4.0 - 4.0j, 2.0 + 8.0j])
def test_bulk_inverse_is_exact(sigma0, tau, rng):
    """The Schur-factored preconditioner inverts the bulk operator to
    roundoff, including the near-defective sigma = 0 case."""
    _check_bulk_inverse(9, sigma0, tau, rng)


def test_bulk_inverse_is_exact_non_cubic(rng):
    """Three different axis lengths, so that a product applied along
    the wrong axis cannot pass."""
    _check_bulk_inverse((8, 9, 10), 1.0, 2.0 + 1.0j, rng)


@pytest.mark.parametrize("n, sigma0, tau", [
    (8, 1.0, 2.0 + 1.0j), (9, 1.0, 2.0 + 1.0j),
    (8, 0.0, 3.0 + 1.0j), (9, 0.0, 3.0 + 1.0j),
    (8, 4.0, 2.0 + 8.0j), (9, 4.0, 2.0 + 8.0j), (9, 0.0, 2.0 + 8.0j),
    pytest.param((8, 9, 10), 4.0, 2.0 + 8.0j, id="8x9x10-4.0-(2+8j)")])
def test_solve_matches_sparse_lu(n, sigma0, tau):
    """The boundary-reduced GMRES solve agrees with a sparse LU solve of
    the same assembled system."""
    grid, ctx = _setup(n, tau=tau, sigma0=sigma0)
    op = fd.assemble_stretched(ctx, grid, _bump_source(grid))
    u = fd.solve(op)
    assert u.shape == (2,) + grid.shape
    u = u.transpose(1, 2, 3, 0).ravel()
    ref = spla.splu(op.matrix).solve(op.rhs)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


def test_interior_right_side_needs_no_krylov(monkeypatch, rng):
    """A M^-1 is the identity in the interior rows: for b = A M^-1 y
    with y zero on the face nodes, the boundary right side GMRES would
    get is zero, and the solve is M^-1 y without any iteration."""
    grid, ctx = _setup(8, tau=2.0 + 8.0j, sigma0=4.0)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 8, 8, 8)))
    bdry = np.repeat(fd._face_count(grid.shape).ravel() > 0, 2)
    y = rng.standard_normal(bdry.size) + 1j * rng.standard_normal(bdry.size)
    y[bdry] = 0.0
    minv = fd._bulk_inverse(op)
    op.rhs = op.matrix @ minv(y)
    assert np.linalg.norm(op.rhs[~bdry] - y[~bdry]) \
        <= 1e-12 * np.linalg.norm(y)

    def no_gmres(*args, **kw):
        raise AssertionError("GMRES called")
    monkeypatch.setattr(fd.spla, "gmres", no_gmres)
    u = fd.solve(op).transpose(1, 2, 3, 0).ravel()
    assert np.linalg.norm(u - minv(y)) <= 1e-12 * np.linalg.norm(u)


def test_gmres_failure_is_typed(monkeypatch):
    grid, ctx = _setup(8)
    op = fd.assemble_stretched(ctx, grid, _bump_source(grid))
    monkeypatch.setattr(fd.spla, "gmres",
                        lambda A, b, **kw: (np.zeros_like(b), 10))
    with pytest.raises(NonConvergenceError):
        fd.solve(op)


def test_unknown_ordering_node_major():
    """Row 2*node+component of the interior equation acts on the
    component-fastest flattened unknown vector."""
    grid, ctx = _setup(9)
    F = np.zeros((2, 9, 9, 9), dtype=complex)
    F[1, 4, 4, 4] = 1.0
    op = fd.assemble_stretched(ctx, grid, F)
    node = np.ravel_multi_index((4, 4, 4), (9, 9, 9))
    b = op.rhs
    assert b[2 * node + 1] == 1.0 and b[2 * node] == 0.0
    assert np.count_nonzero(b) == 1


def test_export_matrix_round_trip(tmp_path):
    grid, ctx = _setup(8)
    op = fd.assemble_stretched(ctx, grid, np.zeros((2, 8, 8, 8)))
    path = tmp_path / "mat.txt"
    fd.export_matrix(path, op)
    rows, cols, re, im = np.loadtxt(path, unpack=True)
    back = np.zeros(op.matrix.shape, dtype=complex)
    back[rows.astype(int), cols.astype(int)] = re + 1j * im
    assert np.allclose(back, op.matrix.toarray())


def _helmholtz_reference(ctx, grid):
    """The stiffness, mass and boundary matrices assembled element by
    element: 8x8 element matrices tabulated on every cell at its 2x2x2
    Gauss points (4x4 on each face cell at its 2x2 points) and scattered
    through the connectivity table."""
    n1, n2, n3 = grid.shape
    h = grid.spacing
    nscalar = n1 * n2 * n3
    t = 0.5 * (np.array([-1.0, 1.0]) / np.sqrt(3.0) + 1.0)
    N1 = np.stack([1 - t, t])
    dN1 = np.stack([-np.ones_like(t), np.ones_like(t)])
    gw = 0.5  # Gauss weight on [0, 1]

    def gauss_points(coords):
        c1, c2, c3 = coords
        pts = np.stack(np.broadcast_arrays(
            c1[:, None, None, :, None, None], c2[None, :, None, None, :, None],
            c3[None, None, :, None, None, :]), axis=-1)
        return pts.reshape(-1, int(np.prod(pts.shape[3:6])), 3)

    nodes = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    phi = np.zeros((8, 8))
    dphi = np.zeros((8, 8, 3))
    for ia, (a, b, c) in enumerate(nodes):
        for ig, (p, q, r) in enumerate(nodes):
            phi[ia, ig] = N1[a, p] * N1[b, q] * N1[c, r]
            dphi[ia, ig, 0] = dN1[a, p] * N1[b, q] * N1[c, r] / h[0]
            dphi[ia, ig, 1] = N1[a, p] * dN1[b, q] * N1[c, r] / h[1]
            dphi[ia, ig, 2] = N1[a, p] * N1[b, q] * dN1[c, r] / h[2]
    wvol = gw ** 3 * float(np.prod(h))

    gx = [ax[:-1, None] + h[j] * t[None, :] for j, ax in enumerate(grid.axes)]
    e1, e2, e3 = n1 - 1, n2 - 1, n3 - 1
    ncell = e1 * e2 * e3
    gp = gauss_points(gx)
    c_g = ctx.p_coefficients(gp)
    K_loc = np.zeros((ncell, 8, 8), dtype=complex)
    for j in range(3):
        K_loc += np.einsum("cg,ag,bg->cab", c_g[..., j],
                           dphi[:, :, j], dphi[:, :, j]) * wvol
    M_loc = np.einsum("cg,ag,bg->cab", ctx.tau ** 2 * ctx.Pi(gp),
                      phi, phi) * wvol

    strides = np.array([n2 * n3, n3, 1])
    ci, cj, ck = np.meshgrid(np.arange(e1), np.arange(e2), np.arange(e3),
                             indexing="ij")
    base = (ci * strides[0] + cj * strides[1] + ck).ravel()
    offsets = np.array([a * strides[0] + b * strides[1] + c
                        for (a, b, c) in nodes])
    conn = base[:, None] + offsets[None, :]
    rows = np.repeat(conn, 8, axis=1).ravel()
    cols = np.tile(conn, (1, 8)).ravel()

    def scatter(loc):
        return sp.coo_matrix((loc.ravel(), (rows, cols)),
                             shape=(nscalar, nscalar)).tocsr()

    # faces: coefficient Phi tau (beta = tau on the flat faces)
    fnodes = [(a, b) for a in range(2) for b in range(2)]
    fphi = np.einsum("ap,bq->abpq", N1, N1).reshape(4, 4)
    node_ids = np.arange(nscalar).reshape(grid.shape)
    Brows, Bcols, Bvals = [], [], []
    for _, axis, sign, nu, index in faces():
        i1, i2 = [i for i in range(3) if i != axis]
        coords = list(gx)
        coords[axis] = np.full((1, 1), sign * grid.box.h[axis])
        coef = ctx.Phi(gauss_points(coords), nu) * ctx.tau
        floc = np.einsum("cg,ag,bg->cab", coef, fphi, fphi) \
            * gw ** 2 * h[i1] * h[i2]
        foff = np.array([a * strides[i1] + b * strides[i2]
                         for (a, b) in fnodes])
        fconn = node_ids[index][:-1, :-1].reshape(-1, 1) + foff[None, :]
        Brows.append(np.repeat(fconn, 4, axis=1).ravel())
        Bcols.append(np.tile(fconn, (1, 4)).ravel())
        Bvals.append(floc.reshape(-1))
    B = sp.coo_matrix((np.concatenate(Bvals),
                       (np.concatenate(Brows), np.concatenate(Bcols))),
                      shape=(nscalar, nscalar)).tocsr()
    return scatter(K_loc), scatter(M_loc), B


@pytest.mark.parametrize("tau", [2.0 + 1.0j, 2.0 - 1.0j, 8.0 + 0.5j])
@pytest.mark.parametrize("kind", ["polynomial_bump", "smooth_bump"])
def test_helmholtz_assembly_matches_element_reference(kind, tau):
    """The Kronecker-product matrices equal the element-by-element ones
    on a non-cubic grid of a non-cubic box, entry by entry and in their
    sparsity pattern."""
    box = BoxDomain((1.0, 0.8, 1.2), inner_fraction=0.5)
    grid = Grid(box, (8, 9, 10))
    profs = tuple(AbsorptionProfile(a=0.5 * b, b=b, sigma0=3.0, kind=kind)
                  for b in box.half_lengths)
    ctx = StretchContext(tau, profs)
    asm = fd.assemble_helmholtz(ctx, grid)
    for got, want in zip((asm.stiffness, asm.mass, asm.boundary),
                         _helmholtz_reference(ctx, grid)):
        got, want = got.tocsr(), want.tocsr()
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert abs(got - want).max() <= 1e-13 * abs(want).max()


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
        """Every call, the first and later ones alike (the projectors
        and the mask are built once per assembly), leaves each face in
        the range of pi^+(nu) and zeroes the multi-face nodes."""
        grid, ctx, asm = self._asm()
        for _ in range(2):
            u = (rng.standard_normal((2, 9, 9, 9))
                 + 1j * rng.standard_normal((2, 9, 9, 9)))
            ut = asm.project_trial(u)
            assert np.allclose(asm.project_trial(ut), ut)
            for _, _, _, nu, index in faces():
                face = ut[(slice(None),) + index][:, 1:-1, 1:-1]
                assert np.max(np.abs(np.einsum(
                    "ab,b...->a...", projector(-1, nu), face))) < 1e-12
            # multi-face nodes are zeroed
            assert np.all(ut[:, 0, 0, :] == 0.0)
