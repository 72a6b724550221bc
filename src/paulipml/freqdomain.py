"""Sparse frequency-domain solvers for the stretched system.

Primary path: the first-order stretched system

    tau u + sum_j A_j (tau/(tau+sigma_j)) d_j u = F   on the box,
    pi^-(nu) u = 0                                    on each face,

discretized with 2nd-order centered stencils (one-sided closures at the
faces).  Boundary rows use the replace-the-row strategy: at a face node
the two scalar equations are pi^-(nu) u = 0 together with the
pi^+(nu)-projection of the interior equation; at nodes shared by
several faces the projections pi^-(nu_k) are summed, which pins the
value to the intersection of the outgoing eigenspaces (the zero vector
for distinct faces).

The system is solved by right-preconditioned GMRES.  The preconditioner
is the exact inverse of the bulk operator tau + sum_j A_j K_j, with
K_j = diag(tau/(tau+sigma_j)) D_j acting on axis j alone: the K_j
commute and the A_j anticommute, so the discrete factorization

    (-tau + sum_j A_j K_j)(tau + sum_j A_j K_j) = sum_j K_j^2 - tau^2

holds exactly, and its Kronecker-sum right side is inverted in O(N n)
through per-axis complex Schur forms and triangular Sylvester solves
(LAPACK ``ztrsyl``).  Only the boundary rows are left to the Krylov
iteration.

Secondary path: Petrov-Galerkin assembly of the divergence-form
Helmholtz bilinear form

    A(u, v) = sum_j int c_j d_j u . d_j v + int tau^2 Pi u . v
              + int_boundary Phi beta u . v,

with trilinear tensor-product elements and the bilinear (unconjugated)
dot product; used for coercivity evaluation and cross-validation, not
as the production solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import ztrsyl

from .errors import (AssemblyError, NonConvergenceError,
                     SingularOperatorError)
from .geometry import faces
from .stretching import StretchContext
from .timedomain import Grid
from . import algebra

__all__ = [
    "SparseComplexOperator",
    "HelmholtzAssembly",
    "assemble_stretched",
    "solve",
    "assemble_helmholtz",
    "second_bc_residual",
    "helmholtz_vs_stretched",
    "export_matrix",
]


def _centered(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered d/dx on the full array (one-sided 2nd order at ends)."""
    u = np.moveaxis(u, axis, 0)
    out = np.empty_like(u)
    out[1:-1] = (u[2:] - u[:-2]) / 2.0
    out[0] = (-1.5 * u[0] + 2.0 * u[1] - 0.5 * u[2])
    out[-1] = (1.5 * u[-1] - 2.0 * u[-2] + 0.5 * u[-3])
    return np.moveaxis(out / h, 0, axis)


def _deriv1d(n: int, h: float) -> sp.csr_matrix:
    """The stencil of ``_centered`` as an n x n sparse matrix."""
    return sp.csr_matrix(_centered(np.eye(n), 0, h))


def _along(m: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix m along ``axis`` of u."""
    return np.moveaxis(np.tensordot(m, u, axes=(1, axis)), 0, axis)


def _axis_operator(grid: Grid, j: int, ratio_1d: np.ndarray) -> sp.csr_matrix:
    """Tensor placement of diag(ratio) @ D_j on the scalar grid."""
    n1, n2, n3 = grid.shape
    d = sp.diags(ratio_1d) @ _deriv1d(grid.shape[j], grid.spacing[j])
    eyes = [sp.identity(n) for n in (n1, n2, n3)]
    facs = [eyes[0], eyes[1], eyes[2]]
    facs[j] = d
    return sp.kron(sp.kron(facs[0], facs[1]), facs[2], format="csr")


def _node_flags(shape) -> np.ndarray:
    """Per node, bitmask of the faces it lies on (bit k-1 for face k)."""
    flags = np.zeros(shape, dtype=np.int8)
    for k, _, _, _, index in faces():
        flags[index] |= 1 << (k - 1)
    return flags.ravel()


@dataclass
class SparseComplexOperator:
    """Assembled square complex system with its right-hand side."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    grid: Grid
    ctx: StretchContext

    def triplets(self):
        coo = self.matrix.tocoo()
        return coo.row, coo.col, coo.data


def assemble_stretched(ctx: StretchContext, grid: Grid,
                       F: np.ndarray) -> SparseComplexOperator:
    """Discretize the stretched first-order system with boundary rows.

    F has shape (2, n1, n2, n3).  Unknown ordering is node-major with
    the spinor component fastest.
    """
    F = np.asarray(F, dtype=complex)
    if F.shape != (2,) + tuple(grid.shape):
        raise AssemblyError(
            f"source shape {F.shape} does not match grid {grid.shape}")
    for j, p in enumerate(ctx.profiles):
        if p.b < grid.box.h[j] - 1e-12:
            raise AssemblyError(
                f"profile {j} ends at {p.b} inside the half length "
                f"{grid.box.h[j]}")

    A = algebra.pauli_matrices()
    nscalar = int(np.prod(grid.shape))
    axes = grid.axes

    op = sp.csr_matrix((2 * nscalar, 2 * nscalar), dtype=complex)
    for j in range(3):
        ratio = ctx.tau / (ctx.tau + ctx.profiles[j](axes[j]))
        op = op + sp.kron(_axis_operator(grid, j, ratio), A[j], format="csr")
    op = op + ctx.tau * sp.identity(2 * nscalar, dtype=complex)

    # row replacement at boundary nodes: S @ op + P, rhs = S @ F
    flags = _node_flags(grid.shape)
    s_blocks = np.zeros((nscalar, 2, 2), dtype=complex)
    p_blocks = np.zeros((nscalar, 2, 2), dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    interior = flags == 0
    s_blocks[interior] = eye2
    single = {k: (algebra.projector(+1, nu), algebra.projector(-1, nu))
              for k, _, _, nu, _ in faces()}
    for node in np.nonzero(flags)[0]:
        on = [k for k in range(1, 7) if flags[node] & (1 << (k - 1))]
        if len(on) == 1:
            pip, pim = single[on[0]]
            s_blocks[node] = pip
            p_blocks[node] = pim
        else:
            for k in on:
                p_blocks[node] += single[k][1]

    def block_diag(blocks):
        return sp.bsr_matrix(
            (blocks, np.arange(nscalar), np.arange(nscalar + 1)),
            shape=(2 * nscalar, 2 * nscalar)).tocsr()

    S = block_diag(s_blocks)
    P = block_diag(p_blocks)
    matrix = (S @ op + P).tocsc()
    rhs = S @ F.transpose(1, 2, 3, 0).ravel()
    return SparseComplexOperator(matrix, rhs, grid, ctx)


def _bulk_inverse(op: SparseComplexOperator):
    """The exact inverse of the bulk operator tau + sum_j A_j K_j (the
    assembled matrix before row replacement), as a function on flat
    vectors in the unknown ordering of ``op``.

    By the factorization in the module docstring it applies
    -tau + sum_j A_j K_j and then solves with sum_j K_j^2 - tau^2: each
    axis is rotated into a complex Schur basis K_j^2 = Q_j T_j Q_j^H,
    the slabs of axis 0 are back-substituted with T_1, and each slab
    and spinor component is one triangular Sylvester solve with T_2 and
    T_3.
    """
    ctx, grid = op.ctx, op.grid
    tau = ctx.tau
    A = algebra.pauli_matrices()
    K, Q, T = [], [], []
    for j in range(3):
        r = tau / (tau + ctx.profiles[j](grid.axes[j]))
        k = r[:, None] * _deriv1d(grid.shape[j], grid.spacing[j]).toarray()
        t, q = sla.schur(k @ k, output="complex")
        K.append(k)
        Q.append(q)
        T.append(t)
    Qh = [q.conj().T for q in Q]
    t3c = np.conj(T[2])  # ztrsyl takes only "N"/"C": conj(T_3)^H = T_3^T
    slabs = [T[1] + (t - tau ** 2) * np.eye(grid.shape[1])
             for t in np.diag(T[0])]

    def apply(v: np.ndarray) -> np.ndarray:
        w = v.reshape(tuple(grid.shape) + (2,)).transpose(3, 0, 1, 2)
        g = -tau * w
        for j in range(3):
            g += np.tensordot(A[j], _along(K[j], w, j + 1), axes=(1, 0))
        for j in range(3):
            g = _along(Qh[j], g, j + 1)
        for i in reversed(range(grid.shape[0])):
            for c in range(2):
                x, scale, _ = ztrsyl(slabs[i], t3c, g[c, i], tranb="C")
                g[c, i] = x / scale
            g[:, :i] -= T[0][:i, i, None, None] * g[:, i, None]
        for j in range(3):
            g = _along(Q[j], g, j + 1)
        return g.transpose(1, 2, 3, 0).ravel()

    return apply


def solve(op: SparseComplexOperator, rtol: float = 1e-10) -> np.ndarray:
    """Solve the assembled system by GMRES on A M^-1, with M^-1 the exact
    bulk inverse of ``_bulk_inverse``; only the boundary rows S op + P
    are left to the Krylov iteration.

    The preconditioner is applied on the right, so GMRES stops on the
    true relative residual ||Au - b|| / ||b|| <= rtol.  The unitary Schur
    form is used rather than an eigendecomposition K_j^2 = V L V^-1:
    with sigma = 0, V for D^2 is near-defective (cond(V) = 1.3e9 at
    13^3), the eig-based inverse misses the bulk operator by a
    relative 9e8 at tau = 3+1i and GMRES does not converge in 3000
    iterations, where the Schur-based one is exact to 4e-11 and needs
    95.  The residual is always checked afterwards.
    """
    A, b = op.matrix, op.rhs
    x = np.zeros_like(b)
    bn = np.linalg.norm(b)
    if bn > 0:
        minv = _bulk_inverse(op)
        am = spla.LinearOperator(A.shape, matvec=lambda y: A @ minv(y),
                                 dtype=complex)
        # maxiter counts restart cycles: at most 2,000 iterations
        y, info = spla.gmres(am, b, rtol=rtol, restart=200, maxiter=10)
        if info != 0:
            raise NonConvergenceError(f"GMRES stopped with info={info}")
        x = minv(y)
        res = np.linalg.norm(A @ x - b) / bn
        if res > max(rtol, 1e-8) * 100:
            raise SingularOperatorError(
                f"post-solve residual {res:.2e} too large")
    n1, n2, n3 = op.grid.shape
    return x.reshape(n1, n2, n3, 2).transpose(3, 0, 1, 2)


# -- residual diagnostics ---------------------------------------------

def helmholtz_vs_stretched(u: np.ndarray, ctx: StretchContext, grid: Grid,
                           F: np.ndarray) -> np.ndarray:
    """Interior residual of the divergence-form Helmholtz equation

        (p - tau^2 Pi) u = Pi (sum_j A_j d~_j - tau) F,

    where p = sum_j d_j(c_j d_j .) and d~_j is the stretched
    derivative.  p is applied with conservative flux differencing
    (coefficients at midpoints); the returned field lives on the nodes
    two layers away from the faces and is zero elsewhere.
    """
    x = grid.mesh()
    h = grid.spacing
    A = algebra.pauli_matrices()
    pts = np.moveaxis(x, 0, -1)
    tau = ctx.tau

    ratios = ctx.ratios(pts)  # (n1, n2, n3, 3)
    Pi = ctx.Pi(pts)

    pu = np.zeros_like(u)
    for j in range(3):
        # coefficient on the half grid along axis j
        ax = grid.axes[j]
        mid = 0.5 * (ax[1:] + ax[:-1])
        c_axis = []
        for m in range(3):
            coord = mid if m == j else grid.axes[m]
            c_axis.append(ctx.tau + ctx.profiles[m](coord))
        # c_j = (tau+s_{j+1})(tau+s_{j+2}) / (tau (tau+s_j)) separable
        jp, jq = (j + 1) % 3, (j + 2) % 3
        fac = [None, None, None]
        fac[j] = 1.0 / c_axis[j]
        fac[jp] = c_axis[jp]
        fac[jq] = c_axis[jq]
        c_mid = (fac[0][:, None, None] * fac[1][None, :, None]
                 * fac[2][None, None, :]) / tau

        um = np.moveaxis(u, j + 1, 1)  # (2, nj, ., .)
        cm = np.moveaxis(c_mid, j, 0)  # (nj-1, ., .)
        flux = cm[None] * (um[:, 1:] - um[:, :-1]) / h[j]
        div = np.zeros_like(um)
        div[:, 1:-1] = (flux[:, 1:] - flux[:, :-1]) / h[j]
        pu += np.moveaxis(div, 1, j + 1)

    rhs = np.zeros_like(u)
    for j in range(3):
        dF = _centered(F, j + 1, h[j])
        rhs += np.einsum("ab,b...->a...", A[j], ratios[None, ..., j] * dF)
    rhs = Pi[None] * (rhs - tau * F)

    res = pu - tau ** 2 * Pi[None] * u - rhs
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:-2, 2:-2, 2:-2] = True
    return np.where(mask[None], res, 0.0)


def _probe_deriv(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """d/dx with 4th-order centered interior and 3rd-order one-sided
    closures.  Deliberately different stencils from _deriv1d, so that
    residuals measured with it are independent of the assembled rows
    (a residual built from the solver's own stencils is an exact
    combination of the imposed constraints and says nothing)."""
    u = np.moveaxis(u, axis, 0)
    out = np.empty_like(u)
    out[2:-2] = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / 12.0
    c = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0
    for r in range(2):
        out[r] = sum(ci * u[r + i] for i, ci in enumerate(c))
        out[-1 - r] = -sum(ci * u[-1 - r - i] for i, ci in enumerate(c))
    return np.moveaxis(out / h, 0, axis)


def second_bc_residual(u: np.ndarray, ctx: StretchContext, grid: Grid,
                       margin: float = 0.25) -> tuple[dict, float]:
    """Residual of the second boundary condition on the six faces.

    At face nodes, evaluates || pi^+(nu~) (V u + tau u) || with the
    transverse operator V discretized by one-sided 3rd-order stencils
    along the normal and 4th-order centered stencils tangentially,
    independent of the stencils the solver imposed.  Nodes within
    ``margin`` (fraction of the half length) of a face edge are skipped
    because the corner rows of the solver pin the solution there.
    Returns ({face: residual array}, max).
    """
    h = grid.spacing
    x = grid.mesh()
    grads = [_probe_deriv(u, j + 1, h[j]) for j in range(3)]
    out = {}
    worst = 0.0
    for k, axis, _, nu, index in faces():
        sl = (slice(None),) + index
        r = ctx.ratios(np.moveaxis(x[sl], 0, -1))
        nt = nu * r
        pip = algebra.projector(+1, nt)
        norm = algebra.principal_sqrt(algebra.quadratic(nt))
        vcoef = nu * r ** 2 / norm[..., None]
        Vu = sum(vcoef[None, ..., m] * grads[m][sl] for m in range(3))
        expr = Vu + ctx.tau * u[sl]
        proj = np.einsum("...ab,b...->a...", pip, expr)
        resid = np.sqrt(np.sum(np.abs(proj) ** 2, axis=0))
        i1, i2 = [i for i in range(3) if i != axis]
        m1 = max(2, int(np.ceil(margin * grid.shape[i1])))
        m2 = max(2, int(np.ceil(margin * grid.shape[i2])))
        interior = resid[m1:-m1, m2:-m2]
        out[k] = resid
        if interior.size:
            # np.maximum keeps a NaN that Python's max would drop
            worst = float(np.maximum(worst, np.max(np.abs(interior))))
    return out, worst


# -- Helmholtz Petrov-Galerkin ----------------------------------------

_GP = np.array([-1.0, 1.0]) / np.sqrt(3.0)  # 2-point Gauss on [-1, 1]


def _shape1d(t):
    """Linear shape functions and derivatives on [0, 1]."""
    t = np.asarray(t)
    return np.stack([1 - t, t]), np.stack([-np.ones_like(t),
                                           np.ones_like(t)])


@dataclass
class HelmholtzAssembly:
    """Trilinear finite-element matrices of the Helmholtz form.

    ``stiffness`` carries the c_j-weighted gradient term, ``mass`` the
    tau^2 Pi term, ``boundary`` the Phi beta face term, all on the
    scalar grid (the form acts componentwise on spinors).  The bilinear
    form uses the unconjugated dot product: form(u, v) = v^T K u summed
    over components.
    """

    grid: Grid
    ctx: StretchContext
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    boundary: sp.csr_matrix

    @cached_property
    def operator(self) -> sp.csr_matrix:
        return self.stiffness + self.mass + self.boundary

    def form(self, u: np.ndarray, v: np.ndarray) -> complex:
        """A(u, v) with the bilinear dot; pass v = conj(u) for the
        Hermitian quadratic form."""
        K = self.operator
        total = 0.0 + 0.0j
        for c in range(2):
            total += v[c].ravel() @ (K @ u[c].ravel())
        return complex(total)

    def form_parts(self, u: np.ndarray, v: np.ndarray):
        parts = []
        for K in (self.stiffness, self.mass, self.boundary):
            total = sum(v[c].ravel() @ (K @ u[c].ravel()) for c in range(2))
            parts.append(complex(total))
        return tuple(parts)

    def project_trial(self, u: np.ndarray) -> np.ndarray:
        """Constrain face nodes to the outgoing eigenspace E+(nu) and
        zero multi-face nodes."""
        out = u.copy()
        for _, _, _, nu, index in faces():
            pip = algebra.projector(+1, nu)
            sl = (slice(None),) + index
            out[sl] = np.einsum("ab,b...->a...", pip, out[sl])
        flags = _node_flags(self.grid.shape)
        nbits = sum((flags >> b) & 1 for b in range(6))
        out[:, (nbits > 1).reshape(self.grid.shape)] = 0.0
        return out


def assemble_helmholtz(ctx: StretchContext, grid: Grid) -> HelmholtzAssembly:
    """Assemble the trilinear-element matrices of the Helmholtz form
    with 2x2x2 Gauss quadrature per cell (2x2 on boundary faces)."""
    n1, n2, n3 = grid.shape
    h = grid.spacing
    nscalar = n1 * n2 * n3

    # reference data: 8 nodes x 8 Gauss points
    t = 0.5 * (_GP + 1.0)
    N1, dN1 = _shape1d(t)  # (2, 2)
    gw = 0.5  # Gauss weight on [0, 1]

    # tabulate phi_a(g) and grad phi_a(g) on the reference cell
    nodes = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    gps = [(p, q, r) for p in range(2) for q in range(2) for r in range(2)]
    phi = np.zeros((8, 8))
    dphi = np.zeros((8, 8, 3))
    for ia, (a, b, c) in enumerate(nodes):
        for ig, (p, q, r) in enumerate(gps):
            phi[ia, ig] = N1[a, p] * N1[b, q] * N1[c, r]
            dphi[ia, ig, 0] = dN1[a, p] * N1[b, q] * N1[c, r] / h[0]
            dphi[ia, ig, 1] = N1[a, p] * dN1[b, q] * N1[c, r] / h[1]
            dphi[ia, ig, 2] = N1[a, p] * N1[b, q] * dN1[c, r] / h[2]
    wvol = gw ** 3 * float(np.prod(h))

    # Gauss point coordinates for every cell, axis by axis
    def gauss_axis(j):
        ax = grid.axes[j]
        return ax[:-1, None] + h[j] * t[None, :]  # (ncell_j, 2)

    gx = [gauss_axis(j) for j in range(3)]
    e1, e2, e3 = n1 - 1, n2 - 1, n3 - 1
    ncell = e1 * e2 * e3

    # coefficients at all Gauss points: build from separable 1D factors
    sig = [ctx.profiles[j](gx[j]) for j in range(3)]  # (ecount, 2)
    tau = ctx.tau

    def cell_coeff(fac1, fac2, fac3):
        """Outer product over (cells x gauss) per axis -> (ncell, 8)."""
        a = fac1[:, None, None, :, None, None]
        b = fac2[None, :, None, None, :, None]
        c = fac3[None, None, :, None, None, :]
        return (a * b * c).reshape(ncell, 8)

    tp = [tau + s for s in sig]  # (e_j, 2) each
    Pi_g = cell_coeff(tp[0], tp[1], tp[2]) / tau ** 3
    c_g = []
    for j in range(3):
        facs = [tp[0].copy(), tp[1].copy(), tp[2].copy()]
        facs[j] = 1.0 / facs[j]
        c_g.append(cell_coeff(*facs) / tau)

    # element matrices, vectorized over cells
    K_loc = np.zeros((ncell, 8, 8), dtype=complex)
    for j in range(3):
        K_loc += np.einsum("cg,ag,bg->cab", c_g[j],
                           dphi[:, :, j], dphi[:, :, j]) * wvol
    M_loc = np.einsum("cg,ag,bg->cab", tau ** 2 * Pi_g, phi, phi) * wvol

    # global scatter
    strides = np.array([n2 * n3, n3, 1])
    ci, cj, ck = np.meshgrid(np.arange(e1), np.arange(e2), np.arange(e3),
                             indexing="ij")
    base = (ci * strides[0] + cj * strides[1] + ck).ravel()
    offsets = np.array([a * strides[0] + b * strides[1] + c
                        for (a, b, c) in nodes])
    conn = base[:, None] + offsets[None, :]  # (ncell, 8)

    rows = np.repeat(conn, 8, axis=1).ravel()
    cols = np.tile(conn, (1, 8)).ravel()

    def scatter(loc):
        vals = loc.reshape(ncell, 64).ravel()
        return sp.coo_matrix((vals, (rows, cols)),
                             shape=(nscalar, nscalar)).tocsr()

    K = scatter(K_loc)
    M = scatter(M_loc)

    # boundary term: bilinear elements on each face, coefficient Phi*tau
    # (mean curvature vanishes on the flat faces, so beta = tau)
    fnodes = [(a, b) for a in range(2) for b in range(2)]
    fphi = np.einsum("ap,bq->abpq", N1, N1).reshape(4, 4)
    node_ids = np.arange(nscalar).reshape(grid.shape)
    Brows, Bcols, Bvals = [], [], []
    for _, axis, sign, _, index in faces():
        i1, i2 = [i for i in range(3) if i != axis]
        fe1, fe2 = grid.shape[i1] - 1, grid.shape[i2] - 1
        area_w = gw ** 2 * h[i1] * h[i2]
        # Phi * tau at the face Gauss points; sigma_axis at the face
        sfix = tau + ctx.profiles[axis](sign * grid.box.h[axis])
        g1 = tau + ctx.profiles[i1](gauss_axis(i1))
        g2 = tau + ctx.profiles[i2](gauss_axis(i2))
        prod = (g1[:, None, :, None] * g2[None, :, None, :]
                ).reshape(fe1 * fe2, 4)
        Pi_f = prod * sfix / tau ** 3
        rr = tau / sfix  # stretching ratio along the normal
        norm_f = algebra.principal_sqrt(rr * rr)
        coef = Pi_f * norm_f * tau  # Phi * beta with beta = tau
        floc = np.einsum("cg,ag,bg->cab", coef, fphi, fphi) * area_w

        foff = np.array([a * strides[i1] + b * strides[i2]
                         for (a, b) in fnodes])
        fconn = node_ids[index][:-1, :-1].reshape(-1, 1) + foff[None, :]
        Brows.append(np.repeat(fconn, 4, axis=1).ravel())
        Bcols.append(np.tile(fconn, (1, 4)).ravel())
        Bvals.append(floc.reshape(-1))
    B = sp.coo_matrix((np.concatenate(Bvals),
                       (np.concatenate(Brows), np.concatenate(Bcols))),
                      shape=(nscalar, nscalar)).tocsr()

    return HelmholtzAssembly(grid, ctx, K, M, B)


def export_matrix(path, op: SparseComplexOperator) -> None:
    """Coordinate-format text dump: one 'row col re im' line per
    nonzero."""
    r, c, v = op.triplets()
    with open(path, "w") as fh:
        # formatted a block at a time, so the text never holds the
        # whole matrix at once
        for k in range(0, len(v), 4096):
            b = slice(k, k + 4096)
            fh.write("".join(
                f"{ri} {ci} {re:.17g} {im:.17g}\n" for ri, ci, re, im
                in zip(r[b].tolist(), c[b].tolist(), v[b].real.tolist(),
                       v[b].imag.tolist())))
