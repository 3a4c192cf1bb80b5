"""Crouzeix-Raviart versus P1-Lagrange on progressively flatter meshes.

Both solve -Laplace(u) = f with u = x(1-x)y(1-y)z(1-z) on the unit cube.
With N ~ M^2 the maximum-angle condition fails badly, the P1 rates stagnate,
and the nonconforming CR element keeps clean first-order H1 and second-order
L2 convergence.  Errors are normalised the way the reference tables are, by
the L2 norm of (u_xx, u_yy, u_zz).

Roughly a minute of compute; shrink PAIRS for a quicker pass.
"""

import anisofem as af

PAIRS = [(4, 16), (8, 64), (16, 256)]  # gamma = 2.0
case = af.cube_polynomial_case()

for element in ("p1", "cr"):
    print(f"{element} on gamma = 2.0 meshes")
    print(f"{'M':>4} {'N':>5} {'dofs':>9} {'err_h1':>12} {'r':>6} "
          f"{'err_l2':>12} {'r':>6}")
    prev = None
    for m, n in PAIRS:
        mesh = af.generate_aniso_cube(m, n)
        _, dofs, err_h1, err_l2 = af.converge_row(element, mesh, case)
        r1, r2 = ("", "") if prev is None else (
            f"{af.convergence_indicator(pair)[0]:.2f}"
            for pair in zip(prev, (err_h1, err_l2)))
        print(f"{m:>4} {n:>5} {dofs:>9} {err_h1:>12.4e} {r1:>6} "
              f"{err_l2:>12.4e} {r2:>6}")
        prev = (err_h1, err_l2)
    print()

print("the same study is scriptable as:")
print("  anisofem converge --element cr --gamma 2.0")
