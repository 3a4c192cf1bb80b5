"""Global sparse systems for the P1, Crouzeix-Raviart and Raviart-Thomas
discretisations of the homogeneous-Dirichlet Poisson problem, with their
solvers.

Assembly is vectorised over blocks of elements.  One builder forms the P1,
CR and RT0 mass matrices: each block writes its local rows straight into a
table that is a CSR matrix as it stands, a DOF's row made of the local rows
of its tets, and the table sums its duplicates.  Dirichlet constraints use
symmetric elimination, once, in the P1/CR block kernel: it zeroes the
constrained rows and columns of every local matrix, and the builder puts a
unit diagonal on the constrained rows, which keeps the P1/CR matrices
symmetric positive definite.  The CR unknowns run column by column
(``_face_columns``).  The mixed system is the symmetric indefinite block
matrix [[A, B^T], [B, 0]] over flux and cell
unknowns; flux DOFs take their orientation from the face table's
``tet_face_signs``, so normal continuity holds by construction.

The P1/CR assemblers take the data f as a callable, integrated against each
basis function by the degree-5 rule, or as an array of its cell means, which
is the load of the projected problem.  ``solve_spd`` runs the package's
own CG loop once, from x = 0, preconditioned for CR by one banded Cholesky
solve over the vertical face columns and for P1 by Jacobi.  ``converge``
gets its RT0 rows from the enriched CR solution of ``equivalence``; the
mixed system and its direct sparse LU solve are the independent oracle that
``verify`` checks that reconstruction against.  Both solves end in one
check of the true relative residual against tol (``_checked``).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .elements import cr_gradients, cr_shape
from .geometry import (affine_field, element_volumes, from_barycentric,
                       local_face_geometry, per_block, rt0_affine, rt0_scales,
                       simplex_measure, tet_gradients)
from .quadrature import integrate, sample, tet_rule_degree2, tet_rule_degree5


class SolverError(RuntimeError):
    """Raised when a solver fails to reach the target residual."""

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
    faces: np.ndarray | None = None    # cr: the face of each unknown
    columns: np.ndarray | None = None  # cr: the column label of each unknown


@dataclass
class Field:
    """A solved coefficient vector tagged with its finite-element space.

    coeffs holds vertex values (p1), face values (cr) or face-normal fluxes
    (rt0); cell_coeffs holds the piecewise-constant part of the mixed
    solution.  The per-element methods take the tets ``tets`` (an index into
    ``mesh.tets``, all by default), so a pass can run block by block.
    """

    space: str
    mesh: object
    coeffs: np.ndarray
    cell_coeffs: np.ndarray | None = None
    solve_info: dict = field(default_factory=dict)

    def element_coeffs(self, tets=slice(None)):
        """Per-element DOF values, (nt, 4), with the tet index innermost."""
        if self.space not in ("p1", "cr"):
            raise ValueError(f"no scalar element coefficients for space {self.space!r}")
        dofs = self.mesh.tets if self.space == "p1" else self.mesh.faces.tet_faces
        return self.coeffs[dofs[tets].T].T

    def element_gradients(self, tets=slice(None), verts=None):
        """Constant per-element gradients, (nt, 3).  ``verts``, the vertices
        of ``tets``, spares a caller that has them a second gather."""
        grads = tet_gradients(self.mesh.tet_vertices(tets) if verts is None
                              else verts)
        if self.space == "cr":
            grads = cr_gradients(grads)
        elif self.space != "p1":
            raise ValueError(f"no constant gradients for space {self.space!r}")
        return np.einsum("ti,tid->td", self.element_coeffs(tets), grads)

    def element_values(self, bary, tets=slice(None)):
        """Values at barycentric points ``bary`` (nq, 4) on every element, (nt,
        nq), summed as (t0 + t2) + (t1 + t3), as einsum did on C-ordered rows."""
        basis = np.asarray(bary) if self.space == "p1" else cr_shape(bary)
        t = [basis[:, i, None] * c for i, c in enumerate(self.element_coeffs(tets).T)]
        t[0] += t[2]
        t[1] += t[3]
        t[0] += t[1]
        return t[0].T

    def flux_values(self, bary, tets=slice(None)):
        """RT0 vector values at barycentric points, (nt, nq, 3)."""
        v = self.mesh.tet_vertices(tets)
        return affine_field(*self.flux_affine(tets, v), from_barycentric(bary, v))

    def flux_divergence(self):
        """Constant per-element divergence of an rt0 field, (nt,)."""
        return 3.0 * self.flux_affine()[0]

    def flux_affine(self, tets=slice(None), verts=None):
        """The rt0 field on each element as sigma = a x - b, returned as
        (a, b) (``geometry.rt0_affine``); ``verts`` as in
        ``element_gradients``."""
        if self.space != "rt0":
            raise ValueError("fluxes only exist for rt0 fields")
        faces = self.mesh.faces
        return rt0_affine(self.mesh.tet_vertices(tets) if verts is None else verts,
                          (self.coeffs[faces.tet_faces[tets].T]
                           * faces.tet_face_signs[tets].T).T)


def _local_kernel(kind, mesh, f, constrained):
    """Block kernel s -> (local stiffness (nb, 4, 4), loads (nb, 4)) of the
    tets s, with the symmetric elimination of the DOFs ``constrained``: a
    local row or column of a constrained DOF is zero.

    The CR basis is ``elements.cr_shape``.  Every basis function has element
    integral |T|/4, so cell means f_T give the load |T| f_T / 4 per DOF.
    """
    if not callable(f) and np.shape(f) != (mesh.n_tets,):
        raise ValueError(f"cell means of f need shape ({mesh.n_tets},), "
                         f"got {np.shape(f)}")
    rule = tet_rule_degree5()
    basis = rule.points if kind == "p1" else cr_shape(rule.points)
    weighted = rule.weights[:, None] * basis
    dofs = mesh.tets if kind == "p1" else mesh.faces.tet_faces

    def block(s):
        v = mesh.tet_vertices(s)
        grads = tet_gradients(v)
        if kind == "cr":
            grads = cr_gradients(grads)
        if callable(f):
            values, vols = sample(rule, v, f)  # vols = simplex_measure(v)
            loads = vols[:, None] * np.einsum("tq,qi->ti", values, weighted, order="F")
        else:
            vols = simplex_measure(v)
            loads = np.repeat((vols * np.asarray(f[s], dtype=float) / 4.0)[:, None],
                              4, axis=1)
        local = vols[:, None, None] * np.einsum("tik,tjk->tij", grads, grads)
        # only the local rows and columns of constrained DOFs, by index
        t, i = np.nonzero(constrained[dofs[s]])
        local[t, i, :] = 0.0
        local[t, :, i] = 0.0
        return local, loads

    return block


def _assemble(dofs, order, kernel, constrained):
    """The global matrix as CSR and the load vector from the block kernel
    s -> (local rows (nb, 4, 4), loads (nb, 4) or None), whose local rows and
    columns of the DOFs ``constrained`` are zero; those get a unit diagonal
    and a zero load.

    Slot 4 t + i, local row i of tet t, belongs to DOF dofs[t, i], and
    ``order`` lists the slots DOF by DOF, the lower slot first, skipping -1 (a
    face's missing side in ``FaceTable.sides``).  Each block writes its local
    rows and their column ids into a (4 nt, 4) table at the slots' places in
    ``order``, which makes the table a CSR matrix, and adds its loads to the
    load vector in slot order.  So a row reaches ``sum_duplicates`` in the
    order ``coo_tocsr`` gives a scatter of the local matrices, and a load sums
    as in one ``bincount``: the scatter's bits.  The sums leave the arrays as
    prefixes of the table; compacting them one at a time, the smaller first,
    keeps one table array off the peak.
    """
    n, nt = len(constrained), len(dofs)
    order = order[order >= 0]
    itype = np.int32 if 16 * nt < 2**31 else np.int64
    place = np.empty(4 * nt, dtype=itype)
    place[order] = np.arange(4 * nt, dtype=itype)
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(4 * np.bincount(dofs.ravel(), minlength=n), out=indptr[1:])
    first = indptr[:-1][constrained] // 4  # the place of a constrained DOF's first slot
    diagonal = first, order[first] & 3
    del order  # a slot list as long as the table, freed before it fills
    table = np.empty((4 * nt, 4))
    cols = np.empty((4 * nt, 4), dtype=itype)
    rhs = np.zeros(n)

    def block(s):
        local, loads = kernel(s)
        rows = place[4 * s.start:4 * s.stop].reshape(-1, 4)
        table[rows] = local
        cols[rows] = dofs[s][:, None, :]
        if loads is not None:
            np.add.at(rhs, dofs[s].ravel(), loads.ravel())
        return ()  # nothing to join

    per_block(nt, block)
    rhs[constrained] = 0.0
    table[diagonal] = 1.0
    matrix = sp.csr_matrix((table.ravel(), cols.ravel(), indptr), shape=(n, n))
    del table, cols, place, dofs
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.indices = matrix.indices.copy()
    matrix.data = matrix.data.copy()
    return matrix, rhs


def _face_columns(mesh):
    """(order, columns): the faces column by column, by centroid z within a
    column, and the column label of each, in the narrowest unsigned type.

    A face's column is the bin of its centroid's (x, y) among the sorted
    distinct vertex x and y coordinates: the box column on the generated
    meshes, a narrower bin on any other.
    """
    corners = mesh.faces.vertices

    def centroid(d):  # exact for a face in a plane x_d = const
        p = mesh.vertices[:, d][corners]
        return p[:, 0] + ((p[:, 1] - p[:, 0]) + (p[:, 2] - p[:, 0])) / 3.0

    x, y, z = (centroid(d) for d in range(3))
    xs, ys = np.unique(mesh.vertices[:, 0]), np.unique(mesh.vertices[:, 1])
    label = (np.searchsorted(xs, x, side="right") * (len(ys) + 1)
             + np.searchsorted(ys, y, side="right"))
    # stable sorts by z, then by label: np.lexsort((z, label)), with the
    # label sort a radix sort on the narrowest unsigned type that holds it
    order = np.argsort(z, kind="stable")
    keys = label.astype(np.min_scalar_type(label.max()))[order]
    return order[np.argsort(keys, kind="stable")], np.sort(keys, kind="stable")


def assemble_p1(mesh, f):
    """P1-Lagrange stiffness system for -Laplace u = f, u = 0 on the boundary.

    The stiffness integrands are constant, hence exact.  A callable f gives
    the load as the degree-5 quadrature of f phi_i; an (nt,) array of cell
    means f_T gives f_T times int phi_i = |T|/4.  A vertex row gathers the
    local rows of all its tets (``_assemble``), its slots found by a stable
    argsort of the tets' vertex ids.
    """
    constrained = np.zeros(mesh.n_vertices, dtype=bool)
    constrained[np.unique(mesh.faces.vertices[mesh.faces.boundary])] = True
    keys = mesh.tets.ravel().astype(np.min_scalar_type(mesh.n_vertices - 1))
    matrix, rhs = _assemble(mesh.tets, np.argsort(keys, kind="stable"),
                            _local_kernel("p1", mesh, f, constrained), constrained)
    return SparseSystem(matrix, rhs, "p1", mesh, constrained)


def assemble_cr(mesh, f):
    """Crouzeix-Raviart system: one DOF per face, boundary faces constrained.

    theta_i has the same element integral |T|/4 as the barycentric
    coordinates, and int_F theta_i = |F| delta_iF, so constraining boundary
    faces to zero enforces vanishing boundary face means.  f is a callable
    or an (nt,) array of cell means, as in ``assemble_p1``.  The unknowns,
    and so ``rhs`` and ``constrained``, run column by column: ``faces`` and
    ``columns`` give each one's face and column (``_face_columns``).  A row
    gathers the local rows of the face's one or two sides (``_assemble``),
    at most 7 distinct entries.
    """
    faces = mesh.faces
    order, columns = _face_columns(mesh)
    rank = np.empty_like(order, dtype=np.int32 if len(order) < 2**31 else np.int64)
    rank[order] = np.arange(len(order))
    constrained = faces.boundary[order]
    matrix, rhs = _assemble(rank[faces.tet_faces], faces.sides[order],
                            _local_kernel("cr", mesh, f, faces.boundary), constrained)
    return SparseSystem(matrix, rhs, "cr", mesh, constrained, order, columns)


def rt0_mass_matrix(mesh):
    """Mass matrix of the global RT0 basis (signed by ``tet_face_signs``).

    Entries come from the degree-2 rule; the integrands are quadratic, so the
    values are exact.  Part of the mixed-system oracle, so it keeps its own
    mapping of the rule's points.
    """
    faces = mesh.faces
    v = np.ascontiguousarray(mesh.tet_vertices())  # the oracle's sums run in C order
    vols = element_volumes(mesh)
    rule = tet_rule_degree2()
    x = np.einsum("qi,tid->tqd", rule.points, v)
    d = x[:, :, None, :] - v[:, None, :, :]                 # (nt, nq, 4, 3)
    gram = np.einsum("q,tqid,tqjd->tij", rule.weights, d, d)
    coef = faces.tet_face_signs * rt0_scales(local_face_geometry(mesh)[0], vols)
    local = vols[:, None, None] * coef[:, :, None] * coef[:, None, :] * gram
    return _assemble(faces.tet_faces, faces.sides,
                     lambda s: (local[s], None),
                     np.zeros(faces.n_faces, dtype=bool))[0]


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

    f_int = integrate(tet_rule_degree5(), mesh.tet_vertices(), f)
    matrix = sp.bmat([[a_block, b_block.T], [b_block, None]], format="csr")
    rhs = np.concatenate([np.zeros(nf), -f_int])
    constrained = np.zeros(nf + nt, dtype=bool)
    return SparseSystem(matrix, rhs, "rt0", mesh, constrained)


def _checked(system, x, tol, iterations):
    """The solve info of x (iterations, true relative residual, tol), or
    SolverError unless that residual is <= tol.  A zero load has the
    absolute residual, 0 for x = 0; a NaN or inf one fails."""
    with np.errstate(invalid="ignore", over="ignore"):  # x may not be finite
        residual = float(np.linalg.norm(system.rhs - system.matrix @ x)
                         / (np.linalg.norm(system.rhs) or 1.0))
    if not residual <= tol:
        raise SolverError("solver did not converge", residual, iterations)
    return {"iterations": iterations, "residual": residual, "tol": tol}


def _pcg(matrix, rhs, precondition, rtol):
    """Preconditioned CG (Saad, Iterative Methods for Sparse Linear Systems,
    2003, alg. 9.1) from x = 0 until the recurrence residual is under rtol |b|
    or for scipy's default 10 n iterations: scipy 1.17's ``cg`` operation for
    operation, so the iterates keep its bits.  Returns x and the count; x = 0
    at once for a zero, NaN or inf load."""
    x, scale = np.zeros_like(rhs), np.linalg.norm(rhs)
    if not 0.0 < scale < np.inf:
        return x, 0
    atol, r = rtol * scale, rhs.copy()
    for iteration in range(10 * len(rhs)):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = precondition(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = matrix @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, 10 * len(rhs)


def _column_band(matrix, columns):
    """Cholesky factor of the couplings of ``matrix`` inside each column, the
    dropped couplings given back to the diagonal, as an apply r -> z for CG
    and the band's half-width.

    ``columns`` labels the column of each row, a contiguous range of rows,
    so the kept part B is a block-diagonal band, SPD, stored in the upper
    form band[width + i - j, j] = a_ij (i <= j).
    Each diagonal entry then gains the weighted Gershgorin sum of the
    couplings the band drops, d_i = sum over j outside i's column of
    |a_ij| sqrt(a_jj / a_ii): the diagonally compensated reduction of
    Axelsson & Kolotilina (Numer. Linear Algebra Appl. 1, 1994).  With
    C = A - B and the weights w = sqrt(diag A), diag(d) - C =
    diag(|C| w / w) - C is positive semidefinite (Gershgorin on its
    similarity by diag(w); Varga, Gersgorin and His Circles, 2004), so
    B <= B + diag(d) and A <= B + diag(d): the factor exists wherever B's
    does, and the preconditioned eigenvalues lie in (0, 1].  The band and
    the sums are filled a block of rows at a time, from slices of the CSR
    arrays; the apply is one LAPACK ``pbtrs`` call, faster on the upper form.
    """
    n = matrix.shape[0]
    per_row = np.diff(matrix.indptr)
    w = np.sqrt(matrix.diagonal())

    def couplings(s):  # rows i, columns j, entries, and whether j is in i's column
        i = np.repeat(np.arange(*s.indices(n)[:2]), per_row[s])
        k = slice(matrix.indptr[s.start], matrix.indptr[s.start] + len(i))
        j = matrix.indices[k]
        return i, j, matrix.data[k], columns[i] == columns[j]

    def reach(s):  # the farthest coupling inside a column, j - i
        i, j, _, inside = couplings(s)
        return np.array([np.max(j[inside] - i[inside], initial=0)])

    width = int(per_block(n, reach).max())
    band = np.zeros((width + 1, n), order="F")  # factored in place

    def fill(s):  # the band's entries; sum_j |a_ij| w_j outside i's column
        i, j, a, inside = couplings(s)
        upper = inside & (j >= i)
        band[width + i[upper] - j[upper], j[upper]] = a[upper]
        out = ~inside
        return np.bincount(i[out] - s.start, minlength=len(per_row[s]),
                           weights=np.abs(a[out]) * w[j[out]])

    band[width] += per_block(n, fill) / w  # the diagonal
    factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
    return lambda r: dpbtrs(factor, r)[0], width


def solve_spd(system, tol=1e-10):
    """Preconditioned conjugate gradients (``_pcg``) for the P1/CR systems:
    one run from x = 0 to the recurrence tolerance tol / 4, then one check
    (``_checked``) that the true relative residual is <= tol.

    The preconditioner follows the system's kind.  For CR it is the exact
    solve with the couplings inside each vertical face column, plus a
    diagonal that bounds the couplings between columns (``_column_band``):
    on the flat boxes of the anisotropic family the strong coupling runs
    along z, which Jacobi misses, so its iteration count grows with N.  An
    apply is one banded solve; the solution returns to face order at the
    end.  P1 keeps Jacobi.  ``solve_info`` names the preconditioner that ran
    and the band's half-width (0 for Jacobi).
    """
    if system.kind not in ("p1", "cr"):
        raise ValueError(f"solve_spd expects a p1 or cr system, got {system.kind!r}")
    if system.kind == "cr":
        n, nf = system.matrix.shape[0], system.mesh.faces.n_faces
        if system.columns is None or n != nf:
            raise ValueError(f"cr system of size {n} on a mesh with {nf} faces, "
                             "or without face columns")
        name = "column-band"
        precondition, width = _column_band(system.matrix, system.columns)
    else:
        name, width = "jacobi", 0
        inv = 1.0 / system.matrix.diagonal()
        precondition = lambda r: inv * r
    x, iterations = _pcg(system.matrix, system.rhs, precondition, tol / 4.0)
    info = _checked(system, x, tol, iterations)
    info.update(preconditioner=name, bandwidth=width)
    if system.faces is not None:  # back to face order
        x[system.faces] = x.copy()
    return Field(system.kind, system.mesh, x, solve_info=info)


def solve_saddle(system, tol=1e-10):
    """Direct sparse LU solve (SuperLU, on CSC) of the mixed system.

    The direct oracle suits the small meshes that ``verify`` solves: at 4:8
    it took 12.5 ms against 20.5 ms for preconditioned MINRES, but the fill
    grows fast in 3D, and at 8:22 it took 906 against 376 ms.  A singular
    factor, or a true relative residual above tol, raises SolverError.
    """
    import scipy.sparse.linalg as spla  # only the oracle loads it
    if system.kind != "rt0":
        raise ValueError(f"solve_saddle expects an rt0 system, got {system.kind!r}")
    try:
        lu = spla.splu(system.matrix.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"sparse LU failed: {exc}", np.inf, 0) from None
    x, nf = lu.solve(system.rhs), system.mesh.faces.n_faces
    return Field("rt0", system.mesh, x[:nf], cell_coeffs=x[nf:],
                 solve_info=_checked(system, x, tol, 0))
