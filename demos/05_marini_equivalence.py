"""From a Crouzeix-Raviart solve to the RT0 mixed solution without solving
the saddle-point problem.

Per tet the quadratic bubble L - 12|x - x_T|^2 has vanishing face means, so
enriching the CR space by bubbles decouples: the bubble coefficient is just
gamma = (mean of f)/72.  The gradient of the enriched solution is then an
admissible RT0 flux, and elementwise

    sigma|_T = grad(u_CR) - 24 gamma (x - x_T)
    u|_T     = mean(u_CR) + (2/5) gamma sum_i |x_i - x_T|^2

equals the mixed solution with elementwise-averaged data exactly.
"""

import math

import numpy as np

import anisofem as af

rng = np.random.default_rng(5)
v = rng.uniform(0, 1, (4, 3))
while abs(np.linalg.det(v[1:] - v[0])) < 0.05:
    v = rng.uniform(0, 1, (4, 3))
spread = af.bubble_spread(v)
mean, grad_sq = af.bubble_identities(v)
print(f"random tet: spread L = {spread:.6f}")
print(f"  bubble mean        {mean:.6f}  vs 2L/5   = {0.4 * spread:.6f}")
print(f"  mean |grad|^2      {grad_sq:.6f}  vs 144L/5 = {28.8 * spread:.6f}")

case = af.cube_polynomial_case()
for m, n in [(2, 2), (4, 8)]:
    mesh = af.generate_aniso_cube(m, n)
    cr, gamma = af.enriched_cr_solve(mesh, case.f, tol=1e-12)
    rt, jump = af.marini_reconstruct(mesh, cr, gamma)
    direct = af.solve_saddle(af.assemble_rt0_mixed(mesh, case.f), tol=1e-12)

    mass = af.rt0_mass_matrix(mesh)
    dsig = rt.coeffs - direct.coeffs
    rel_sigma = math.sqrt((dsig @ mass @ dsig)
                          / (direct.coeffs @ mass @ direct.coeffs))
    vols = af.element_volumes(mesh)
    du = rt.cell_coeffs - direct.cell_coeffs
    rel_u = math.sqrt(float(vols @ du ** 2)
                      / float(vols @ direct.cell_coeffs ** 2))
    print(f"\nmesh ({m},{n}): {mesh.faces.n_faces} flux DOFs, "
          f"{mesh.n_tets} cells")
    print(f"  reconstructed vs direct:  sigma {rel_sigma:.2e}   u {rel_u:.2e}")
    print(f"  normal-flux mismatch across faces: {jump:.2e}")
    print(f"  max bubble coefficient: {np.abs(gamma).max():.4e}")

print("\nsame checks, CSV form:  anisofem verify")
