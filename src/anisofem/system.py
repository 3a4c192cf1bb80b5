"""Global sparse systems for the P1, Crouzeix-Raviart and Raviart-Thomas
discretisations of the homogeneous-Dirichlet Poisson problem, with iterative
solvers.

Assembly is vectorised over elements.  Dirichlet constraints use symmetric
elimination: constrained rows and columns are dropped from the stencil and a
unit diagonal is left in place, which keeps the P1/CR matrices symmetric
positive definite.  The mixed system is the symmetric indefinite block matrix
[[A, B^T], [B, 0]] over flux and cell unknowns; flux DOFs follow the fixed
face normals of the mesh face table, so normal continuity holds by
construction.

The P1/CR assemblers take the data f as a callable, integrated against each
basis function by the degree-5 rule, or as an array of its cell means, which
is the load of the projected problem.  ``converge`` gets its RT0 rows from the
enriched CR solution of ``equivalence``; the mixed system and its MINRES solve
are the independent oracle that ``verify`` checks that reconstruction against.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (barycentric_gradients, element_volumes,
                       local_face_geometry, rt0_affine, rt0_scales)
from .quadrature import mean, sample, tet_rule_degree2, tet_rule_degree5


class SolverError(RuntimeError):
    """Raised when an iterative solver fails to reach the target residual."""

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (relative residual {residual:.3e} "
                         f"after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


@dataclass
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    kind: str                     # 'p1' | 'cr' | 'rt0'
    mesh: object
    constrained: np.ndarray       # bool mask over all DOFs (unit rows)
    n_flux: int | None = None     # rt0 only: flux DOFs precede cell DOFs


@dataclass
class Field:
    """A solved coefficient vector tagged with its finite-element space.

    coeffs holds vertex values (p1), face values (cr) or face-normal fluxes
    (rt0); cell_coeffs holds the piecewise-constant part of the mixed
    solution.
    """

    space: str
    mesh: object
    coeffs: np.ndarray
    cell_coeffs: np.ndarray | None = None
    solve_info: dict = field(default_factory=dict)

    def element_coeffs(self):
        """Per-element DOF values, (nt, 4)."""
        if self.space == "p1":
            return self.coeffs[self.mesh.tets]
        if self.space == "cr":
            return self.coeffs[self.mesh.faces.tet_faces]
        raise ValueError(f"no scalar element coefficients for space {self.space!r}")

    def element_gradients(self):
        """Constant per-element gradients, (nt, 3)."""
        grads = barycentric_gradients(self.mesh)
        if self.space == "cr":
            grads = -3.0 * grads
        elif self.space != "p1":
            raise ValueError(f"no constant gradients for space {self.space!r}")
        return np.einsum("ti,tid->td", self.element_coeffs(), grads)

    def element_values(self, bary):
        """Values at barycentric points ``bary`` (nq, 4) on every element."""
        shape = np.asarray(bary)
        basis = shape if self.space == "p1" else 1.0 - 3.0 * shape
        return np.einsum("qi,ti->tq", basis, self.element_coeffs())

    def flux_values(self, bary):
        """RT0 vector values at barycentric points, (nt, nq, 3)."""
        v = self.mesh.tet_vertices()
        a, b = self._flux_affine(v)
        x = np.einsum("qi,tid->tqd", np.asarray(bary), v)
        return a[:, None, None] * x - b[:, None, :]

    def flux_divergence(self):
        """Constant per-element divergence of an rt0 field, (nt,)."""
        return 3.0 * self._flux_affine(self.mesh.tet_vertices())[0]

    def _flux_affine(self, v):
        if self.space != "rt0":
            raise ValueError("fluxes only exist for rt0 fields")
        faces = self.mesh.faces
        return rt0_affine(v, self.coeffs[faces.tet_faces] * faces.tet_face_signs)


def _scatter_square(local, dofs, ndof):
    rows = np.repeat(dofs, 4, axis=1).ravel()
    cols = np.tile(dofs, (1, 4)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(ndof, ndof)).tocsr()


def _apply_constraints(matrix, rhs, constrained):
    if not constrained.any():
        return matrix, rhs
    keep = ~constrained
    diag = sp.diags(keep.astype(float))
    matrix = diag @ matrix @ diag + sp.diags(constrained.astype(float))
    rhs = np.where(constrained, 0.0, rhs)
    return matrix.tocsr(), rhs


def _assemble_primal(kind, mesh, f, constrain):
    """P1 (vertex DOFs) or CR (face DOFs) system.

    The CR basis theta_i = 1 - 3 lambda_i has -3 times the barycentric
    gradients.  Every basis function has element integral |T|/4, so cell
    means f_T give the load |T| f_T / 4 per DOF.
    """
    if not callable(f) and np.shape(f) != (mesh.n_tets,):
        raise ValueError(f"cell means of f need shape ({mesh.n_tets},), "
                         f"got {np.shape(f)}")
    faces = mesh.faces
    grads = barycentric_gradients(mesh)
    if kind == "p1":
        dofs, ndof = mesh.tets, mesh.n_vertices
        constrained = np.zeros(ndof, dtype=bool)
        constrained[np.unique(faces.vertices[faces.boundary])] = True
    else:
        dofs, ndof = faces.tet_faces, faces.n_faces
        constrained = faces.boundary.copy()
        grads = -3.0 * grads
    vols = element_volumes(mesh)
    local = vols[:, None, None] * np.einsum("tik,tjk->tij", grads, grads)
    matrix = _scatter_square(local, dofs, ndof)

    if callable(f):
        rule = tet_rule_degree5()
        basis = rule.points if kind == "p1" else 1.0 - 3.0 * rule.points
        loads = vols[:, None] * np.einsum("q,qi,tq->ti", rule.weights, basis,
                                          sample(rule, mesh.tet_vertices(), f))
    else:
        loads = np.repeat((vols * np.asarray(f, dtype=float) / 4.0)[:, None], 4, axis=1)
    rhs = np.bincount(dofs.ravel(), weights=loads.ravel(), minlength=ndof)
    if constrain:
        matrix, rhs = _apply_constraints(matrix, rhs, constrained)
    return SparseSystem(matrix, rhs, kind, mesh, constrained)


def assemble_p1(mesh, f, constrain=True):
    """P1-Lagrange stiffness system for -Laplace u = f, u = 0 on the boundary.

    The stiffness integrands are constant, hence exact.  A callable f gives
    the load as the degree-5 quadrature of f phi_i; an (nt,) array of cell
    means f_T gives f_T times int phi_i = |T|/4.
    """
    return _assemble_primal("p1", mesh, f, constrain)


def assemble_cr(mesh, f, constrain=True):
    """Crouzeix-Raviart system: one DOF per face, boundary faces constrained.

    theta_i has the same element integral |T|/4 as the barycentric
    coordinates, and int_F theta_i = |F| delta_iF, so constraining boundary
    faces to zero enforces vanishing boundary face means.  f is a callable
    or an (nt,) array of cell means, as in ``assemble_p1``.
    """
    return _assemble_primal("cr", mesh, f, constrain)


def rt0_mass_matrix(mesh):
    """Mass matrix of the global RT0 basis (signed by the fixed face normals).

    Entries come from the degree-2 rule; the integrands are quadratic, so the
    values are exact.
    """
    faces = mesh.faces
    v = mesh.tet_vertices()
    vols = element_volumes(mesh)
    rule = tet_rule_degree2()
    x = np.einsum("qi,tid->tqd", rule.points, v)
    d = x[:, :, None, :] - v[:, None, :, :]                 # (nt, nq, 4, 3)
    gram = np.einsum("q,tqid,tqjd->tij", rule.weights, d, d)
    coef = faces.tet_face_signs * rt0_scales(local_face_geometry(mesh)[0], vols)
    local = vols[:, None, None] * coef[:, :, None] * coef[:, None, :] * gram
    return _scatter_square(local, faces.tet_faces, faces.n_faces)


def assemble_rt0_mixed(mesh, f):
    """Dual mixed RT0 x P0 system for sigma = grad u, div sigma = -f.

    Unknowns are face-normal fluxes followed by cell values.  The data enters
    only through element integrals of f, so projecting f onto piecewise
    constants changes nothing.  No essential boundary conditions apply.
    """
    faces = mesh.faces
    nf, nt = faces.n_faces, mesh.n_tets
    areas, _, _ = local_face_geometry(mesh)

    a_block = rt0_mass_matrix(mesh)
    signed_areas = faces.tet_face_signs * areas
    b_block = sp.coo_matrix(
        (signed_areas.ravel(),
         (np.repeat(np.arange(nt), 4), faces.tet_faces.ravel())),
        shape=(nt, nf),
    ).tocsr()

    f_int = element_volumes(mesh) * mean(tet_rule_degree5(), mesh.tet_vertices(), f)
    matrix = sp.bmat([[a_block, b_block.T], [b_block, None]], format="csr")
    rhs = np.concatenate([np.zeros(nf), -f_int])
    constrained = np.zeros(nf + nt, dtype=bool)
    return SparseSystem(matrix, rhs, "rt0", mesh, constrained, n_flux=nf)


def _run_krylov(method, system, preconditioner, tol, max_iter):
    """Returns x and its solve info (iterations, true relative residual, tol)
    or raises SolverError."""
    matrix, rhs = system.matrix, system.rhs
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(rhs), {"iterations": 0, "residual": 0.0, "tol": tol}
    x = None
    iterations = 0
    rtol = tol / 4.0
    residual = np.inf
    # scipy's stopping tests track recurrence or backward-error estimates that
    # can sit above the true residual; verify, tighten and restart until the
    # contract (true relative residual <= tol) holds
    for _ in range(6):
        counter = _IterationCounter()
        x, info = method(matrix, rhs, x0=x, rtol=rtol, maxiter=max_iter,
                         M=preconditioner, callback=counter)
        iterations += counter.count
        residual = float(np.linalg.norm(rhs - matrix @ x) / scale)
        if residual <= tol:
            return x, {"iterations": iterations, "residual": residual, "tol": tol}
        if not np.isfinite(residual) or (info > 0 and counter.count == 0):
            break
        rtol *= 0.25 * min(tol / residual, 1.0)
        if rtol < 1e-18:
            break
    raise SolverError("iterative solver did not converge", residual, iterations)


class _IterationCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, _):
        self.count += 1


def solve_spd(system, tol=1e-10, max_iter=200_000):
    """Jacobi-preconditioned conjugate gradients for the P1/CR systems.

    Guarantees a true relative residual <= tol or raises SolverError carrying
    the final residual.
    """
    if system.kind not in ("p1", "cr"):
        raise ValueError(f"solve_spd expects a p1 or cr system, got {system.kind!r}")
    precond = sp.diags(1.0 / system.matrix.diagonal())
    x, info = _run_krylov(spla.cg, system, precond, tol, max_iter)
    return Field(system.kind, system.mesh, x, solve_info=info)


def solve_saddle(system, tol=1e-10, max_iter=200_000):
    """MINRES with a block-diagonal preconditioner for the mixed system.

    The preconditioner inverts diag(A) on the flux block and the lumped
    pressure mass (element volumes) on the cell block.
    """
    if system.kind != "rt0":
        raise ValueError(f"solve_saddle expects an rt0 system, got {system.kind!r}")
    nf = system.n_flux
    diag = system.matrix.diagonal()[:nf]
    vols = element_volumes(system.mesh)
    precond = sp.diags(np.concatenate([1.0 / diag, 1.0 / vols]))
    x, info = _run_krylov(spla.minres, system, precond, tol, max_iter)
    return Field("rt0", system.mesh, x[:nf], cell_coeffs=x[nf:], solve_info=info)
