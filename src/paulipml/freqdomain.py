"""Sparse frequency-domain solvers for the stretched system.

Primary path: the first-order stretched system

    tau u + sum_j A_j (tau/(tau+sigma_j)) d_j u = F   on the box,
    pi^-(nu) u = 0                                    on each face,

discretized with the 2nd-order centered stencil ``CENTERED2`` of the
stencil table in ``timedomain`` (one-sided closures at the faces).
Boundary rows use the replace-the-row strategy: at a face node the two
scalar equations are pi^-(nu) u = 0 together with the
pi^+(nu)-projection of the interior equation; at nodes shared by
several faces the projections pi^-(nu_k) are summed, which pins the
value to the intersection of the outgoing eigenspaces (the zero vector
for distinct faces).

The system is solved by right-preconditioned GMRES.  The preconditioner
M^-1 is the exact inverse of the bulk operator tau + sum_j A_j K_j, with
K_j = diag(tau/(tau+sigma_j)) D_j acting on axis j alone: the K_j
commute and the A_j anticommute, so the discrete factorization

    (-tau + sum_j A_j K_j)(tau + sum_j A_j K_j) = sum_j K_j^2 - tau^2

holds exactly, and its Kronecker-sum right side is inverted in O(N n)
through per-axis complex Schur forms and triangular Sylvester solves
(LAPACK ``ztrsyl``).  The assembled matrix differs from the bulk
operator only in the rows of the face nodes, so A M^-1 is the identity
in every interior row: the interior unknowns of A M^-1 y = b are
y_I = b_I, and the Krylov iteration runs on the face-node unknowns
alone (about 12 n^2 of the 2 n^3).

Secondary path: Petrov-Galerkin assembly of the divergence-form
Helmholtz bilinear form

    A(u, v) = sum_j int c_j d_j u . d_j v + int tau^2 Pi u . v
              + int_boundary Phi beta u . v,

with trilinear tensor-product elements and the bilinear (unconjugated)
dot product; used for coercivity evaluation and cross-validation, not
as the production solver.  Each sigma_j depends on x_j alone and
vanishes at 0 and the faces are flat (beta = tau), so the matrices are
sums of Kronecker products of 1-D element matrices.
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
from .timedomain import CENTERED2, PROBE, Grid, derivative
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


def _deriv1d(n: int, h: float) -> sp.csr_matrix:
    """The stencil ``CENTERED2`` as an n x n sparse matrix."""
    return sp.csr_matrix(derivative(CENTERED2, np.eye(n), 0, h))


def _along(m: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Apply the matrix m along spatial ``axis`` of a C-contiguous
    (2, n1, n2, n3) array, as one ``matmul`` on a reshaped view."""
    _, n1, n2, n3 = g.shape
    if axis == 0:
        return (m @ g.reshape(2, n1, n2 * n3)).reshape(g.shape)
    if axis == 1:
        return (m @ g.reshape(2 * n1, n2, n3)).reshape(g.shape)
    return g @ m.T


def _axis_line(s, j: int) -> np.ndarray:
    """The points s e_j (..., 3) on coordinate axis j, s (...)."""
    return np.multiply.outer(s, np.eye(3)[j])


def _kron3(mats) -> sp.csr_matrix:
    """The Kronecker product of three per-axis matrices, acting on
    (n1, n2, n3) node arrays flattened in C order."""
    return sp.kron(sp.kron(mats[0], mats[1]), mats[2], format="csr")


def _axis_factors(ctx: StretchContext, grid: Grid) -> list:
    """The 1-D factors K_j = diag(tau/(tau+sigma_j)) D_j, j = 0, 1, 2,
    each n_j x n_j and sparse."""
    return [sp.diags(ctx.ratios(_axis_line(ax, j))[:, j])
            @ _deriv1d(len(ax), grid.spacing[j])
            for j, ax in enumerate(grid.axes)]


def _face_count(shape) -> np.ndarray:
    """Per node, the number of faces it lies on."""
    count = np.zeros(shape, dtype=np.int8)
    for *_, index in faces():
        count[index] += 1
    return count


@dataclass
class SparseComplexOperator:
    """Assembled square complex system with its right-hand side."""

    matrix: sp.csc_matrix
    rhs: np.ndarray
    grid: Grid
    ctx: StretchContext


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

    op = sp.csr_matrix((2 * nscalar, 2 * nscalar), dtype=complex)
    for j, k in enumerate(_axis_factors(ctx, grid)):
        facs = [k if i == j else sp.identity(n)
                for i, n in enumerate(grid.shape)]
        op = op + sp.kron(_kron3(facs), A[j], format="csr")
    op = op + ctx.tau * sp.identity(2 * nscalar, dtype=complex)

    # row replacement at boundary nodes: S @ op + P, rhs = S @ F; a node
    # on one face keeps pi^+ of its equation, one on several faces only
    # the summed pi^-
    count = _face_count(grid.shape)
    s_blocks = np.zeros(tuple(grid.shape) + (2, 2), dtype=complex)
    p_blocks = np.zeros_like(s_blocks)
    s_blocks[count == 0] = np.eye(2)
    for _, _, _, nu, index in faces():
        p_blocks[index] += algebra.projector(-1, nu)
        s_blocks[index][count[index] == 1] = algebra.projector(+1, nu)

    def block_diag(blocks):
        return sp.bsr_matrix(
            (blocks.reshape(nscalar, 2, 2), np.arange(nscalar),
             np.arange(nscalar + 1)),
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
    T_3.  The field is held as one C-contiguous (2, n1, n2, n3) array
    throughout, so every axis product is one ``_along``.
    """
    ctx, grid = op.ctx, op.grid
    tau = ctx.tau
    n1, n2, n3 = grid.shape
    A = algebra.pauli_matrices()
    K = [k.toarray() for k in _axis_factors(ctx, grid)]
    Q, T = [], []
    for k in K:
        t, q = sla.schur(k @ k, output="complex")
        Q.append(q)
        T.append(t)
    Qh = [q.conj().T for q in Q]
    t3c = np.conj(T[2])  # ztrsyl takes only "N"/"C": conj(T_3)^H = T_3^T
    slabs = [T[1] + (t - tau ** 2) * np.eye(n2) for t in np.diag(T[0])]

    def apply(v: np.ndarray) -> np.ndarray:
        w = np.ascontiguousarray(
            v.reshape(n1, n2, n3, 2).transpose(3, 0, 1, 2))
        g = -tau * w
        for j in range(3):
            g += (A[j] @ _along(K[j], w, j).reshape(2, -1)).reshape(g.shape)
        for j in range(3):
            g = _along(Qh[j], g, j)
        # back substitution in T_1: slab i takes its coupling to the
        # solved slabs i' > i in one product before its own solve
        for i in reversed(range(n1)):
            rhs = g[:, i] - (T[0][i, i + 1:]
                             @ g[:, i + 1:].reshape(2, n1 - i - 1, n2 * n3)
                             ).reshape(2, n2, n3)
            for c in range(2):
                x, scale, _ = ztrsyl(slabs[i], t3c, rhs[c], tranb="C")
                g[c, i] = x / scale
        for j in range(3):
            g = _along(Q[j], g, j)
        return g.transpose(1, 2, 3, 0).ravel()

    return apply


_RTOL = 1e-10  # the relative residual ||Au - b|| / ||b|| solve stops at


def solve(op: SparseComplexOperator) -> np.ndarray:
    """Solve the assembled system by GMRES on A M^-1, with M^-1 the exact
    bulk inverse of ``_bulk_inverse``, on the face-node unknowns only.

    The interior rows of A are rows of the bulk operator, so the
    interior rows of A M^-1 are rows of the identity: with the unknowns
    split into interior I and boundary B (the nodes on a face, both
    components), A M^-1 y = b gives y_I = b_I at once, and GMRES solves
    only z -> (A M^-1 [0; z])_B against b_B - (A M^-1 [b_I; 0])_B.  The
    interior residual vanishes up to roundoff, so with its tolerance
    scaled to _RTOL ||b|| / ||b_B - ...|| the reduced iteration stops
    where the full one would; a reduced right side already inside that
    bound (zero, say) needs no iteration.

    The preconditioner is applied on the right, so GMRES stops on the
    true relative residual ||Au - b|| / ||b|| <= _RTOL.  The unitary Schur
    form is used rather than an eigendecomposition K_j^2 = V L V^-1:
    with sigma = 0, V for D^2 is near-defective (cond(V) = 1.3e9 at
    13^3), the eig-based inverse misses the bulk operator by a
    relative 9e8 at tau = 3+1i and GMRES does not converge in 3000
    iterations, where the Schur-based one is exact to 4e-11 and needs
    95.  The residual is always checked afterwards, against 1e-6.
    """
    A, b = op.matrix, op.rhs
    x = np.zeros_like(b)
    bn = np.linalg.norm(b)
    if bn > 0:
        minv = _bulk_inverse(op)
        bdry = np.repeat(_face_count(op.grid.shape).ravel() > 0, 2)
        a_bdry = A.tocsr()[bdry]

        def lift(z):
            y = np.zeros_like(b)
            y[bdry] = z
            return minv(y)

        x = minv(np.where(bdry, 0.0, b))
        r = b[bdry] - a_bdry @ x
        rn = np.linalg.norm(r)
        if rn > _RTOL * bn:
            am = spla.LinearOperator((r.size, r.size), dtype=complex,
                                     matvec=lambda z: a_bdry @ lift(z))
            # maxiter counts restart cycles: at most 2,000 iterations
            z, info = spla.gmres(am, r, rtol=_RTOL * bn / rn, restart=200,
                                 maxiter=10)
            if info != 0:
                raise NonConvergenceError(f"GMRES stopped with info={info}")
            x = x + lift(z)
        res = np.linalg.norm(A @ x - b) / bn
        if res > 1e-6:
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
        # c_j on the half grid along axis j
        coords = list(grid.axes)
        coords[j] = 0.5 * (coords[j][1:] + coords[j][:-1])
        mid = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        c_mid = ctx.p_coefficients(mid)[..., j]

        um = np.moveaxis(u, j + 1, 1)  # (2, nj, ., .)
        cm = np.moveaxis(c_mid, j, 0)  # (nj-1, ., .)
        flux = cm[None] * (um[:, 1:] - um[:, :-1]) / h[j]
        div = np.zeros_like(um)
        div[:, 1:-1] = (flux[:, 1:] - flux[:, :-1]) / h[j]
        pu += np.moveaxis(div, 1, j + 1)

    rhs = np.zeros_like(u)
    for j in range(3):
        dF = derivative(CENTERED2, F, j + 1, h[j])
        rhs += np.einsum("ab,b...->a...", A[j], ratios[None, ..., j] * dF)
    rhs = Pi[None] * (rhs - tau * F)

    res = pu - tau ** 2 * Pi[None] * u - rhs
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:-2, 2:-2, 2:-2] = True
    return np.where(mask[None], res, 0.0)


def second_bc_residual(u: np.ndarray, ctx: StretchContext,
                       grid: Grid) -> tuple[dict, float]:
    """Residual of the second boundary condition on the six faces.

    At face nodes, evaluates || pi^+(nu~) (V u + tau u) || with the
    transverse operator V discretized by the stencil ``PROBE``
    (one-sided 3rd order along the normal, 4th-order centered
    tangentially), independent of the stencil the solver imposed.
    The max leaves out the face nodes within ceil(n/4) nodes (at least
    2) of a face edge, n the node count along that edge's normal in the
    face, because the corner rows of the solver pin the solution there.
    Returns ({face: residual array}, max).
    """
    h = grid.spacing
    x = grid.mesh()
    grads = [derivative(PROBE, u, j + 1, h[j]) for j in range(3)]
    out = {}
    worst = 0.0
    for k, axis, _, nu, index in faces():
        sl = (slice(None),) + index
        pts = np.moveaxis(x[sl], 0, -1)
        pip = algebra.projector(+1, ctx.nu_tilde(pts, nu))
        vcoef = ctx.V_coefficients(pts, nu)
        Vu = sum(vcoef[None, ..., m] * grads[m][sl] for m in range(3))
        expr = Vu + ctx.tau * u[sl]
        proj = np.einsum("...ab,b...->a...", pip, expr)
        resid = np.sqrt(np.sum(np.abs(proj) ** 2, axis=0))
        i1, i2 = [i for i in range(3) if i != axis]
        m1 = max(2, int(np.ceil(0.25 * grid.shape[i1])))
        m2 = max(2, int(np.ceil(0.25 * grid.shape[i2])))
        interior = resid[m1:-m1, m2:-m2]
        out[k] = resid
        if interior.size:
            # np.maximum keeps a NaN that Python's max would drop
            worst = float(np.maximum(worst, np.max(np.abs(interior))))
    return out, worst


# -- Helmholtz Petrov-Galerkin ----------------------------------------

# 2-point Gauss rule on [0, 1]; linear shape functions and derivatives
# there, indexed (function, point)
_GT = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
_N = np.stack([1.0 - _GT, _GT])
_DN = np.array([[-1.0, -1.0], [1.0, 1.0]])


def _line_matrix(w: np.ndarray, h: float, shape: np.ndarray) -> sp.csr_matrix:
    """The tridiagonal matrix of int w phi_a phi_b over a grid axis of
    spacing h by 2-point Gauss quadrature: w (ncell, 2) is the weight
    at the Gauss points, ``shape`` the phi there (``_N``, or ``_DN / h``
    for the derivatives)."""
    loc = np.einsum("cp,ap,bp->cab", w, shape, shape) * (0.5 * h)
    diag = np.pad(loc[:, 0, 0], (0, 1)) + np.pad(loc[:, 1, 1], (1, 0))
    return sp.diags([loc[:, 1, 0], diag, loc[:, 0, 1]], [-1, 0, 1],
                    format="csr")


def _bilinear(K, u: np.ndarray, v: np.ndarray) -> complex:
    """sum_c v_c^T K u_c over the two spinor components."""
    return complex(sum(v[c].ravel() @ (K @ u[c].ravel()) for c in range(2)))


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
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    boundary: sp.csr_matrix

    @cached_property
    def operator(self) -> sp.csr_matrix:
        return self.stiffness + self.mass + self.boundary

    def form(self, u: np.ndarray, v: np.ndarray) -> complex:
        """A(u, v) with the bilinear dot; pass v = conj(u) for the
        Hermitian quadratic form."""
        return _bilinear(self.operator, u, v)

    def form_parts(self, u: np.ndarray, v: np.ndarray):
        return tuple(_bilinear(K, u, v)
                     for K in (self.stiffness, self.mass, self.boundary))

    @cached_property
    def _trial_constraint(self):
        """Per face its node slice and pi^+(nu), and the multi-face
        mask: built once, read by every ``project_trial``."""
        projectors = tuple(((slice(None),) + index, algebra.projector(+1, nu))
                           for _, _, _, nu, index in faces())
        return projectors, _face_count(self.grid.shape) > 1

    def project_trial(self, u: np.ndarray) -> np.ndarray:
        """Constrain face nodes to the outgoing eigenspace E+(nu) and
        zero multi-face nodes."""
        out = u.copy()
        projectors, multi_face = self._trial_constraint
        for sl, pip in projectors:
            out[sl] = np.einsum("ab,b...->a...", pip, out[sl])
        out[:, multi_face] = 0.0
        return out


def assemble_helmholtz(ctx: StretchContext, grid: Grid) -> HelmholtzAssembly:
    """Assemble the trilinear-element matrices of the Helmholtz form
    with 2x2x2 Gauss quadrature per cell (2x2 on boundary faces).

    Each sigma_j depends on x_j alone and vanishes at 0, and on the flat
    faces beta = tau, so c_j(x) = prod_k c_j(x_k e_k), likewise Pi, and
    Phi(x) = prod_k Phi(x_k e_k) over a face's two tangential axes.  The
    matrices are thus sums of Kronecker products of 1-D element
    matrices: for c_j the 1-D stiffness on axis j and masses elsewhere,
    for tau^2 Pi the masses, and per face the tangential masses times
    the face node's entry on the normal axis.
    """
    h = grid.spacing
    gx = [ax[:-1, None] + h[j] * _GT for j, ax in enumerate(grid.axes)]
    c = [ctx.p_coefficients(_axis_line(g, k)) for k, g in enumerate(gx)]
    K = sum(_kron3([_line_matrix(c[k][..., j], h[k],
                                 _DN / h[k] if k == j else _N)
                    for k in range(3)]) for j in range(3))
    M = ctx.tau ** 2 * _kron3([
        _line_matrix(ctx.Pi(_axis_line(g, k)), h[k], _N)
        for k, g in enumerate(gx)])

    B = ctx.tau * sum(_kron3([
        _line_matrix(ctx.Phi(_axis_line(g, k), nu), h[k], _N) if k != axis
        else sp.diags(np.eye(len(g) + 1)[index[k]], format="csr")
        for k, g in enumerate(gx)]) for _, axis, _, nu, index in faces())
    return HelmholtzAssembly(grid, K, M, B)


def export_matrix(path, op: SparseComplexOperator) -> None:
    """Coordinate-format text dump: one 'row col re im' line per
    nonzero."""
    coo = op.matrix.tocoo()
    r, c, v = coo.row, coo.col, coo.data
    with open(path, "w") as fh:
        # formatted a block at a time, so the text never holds the
        # whole matrix at once
        for k in range(0, len(v), 4096):
            b = slice(k, k + 4096)
            fh.write("".join(
                f"{ri} {ci} {re:.17g} {im:.17g}\n" for ri, ci, re, im
                in zip(r[b].tolist(), c[b].tolist(), v[b].real.tolist(),
                       v[b].imag.tolist())))
