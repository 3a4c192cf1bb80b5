"""The local interpolation operators, and why the face-barycentre variant of
the Crouzeix-Raviart interpolant loses first order on flat tets.

On the sliver family the face-mean interpolant stays first-order accurate in
the broken H1 seminorm, but the face-barycentre (sampling) variant degrades
to the rate of the anisotropy measure, about h^0.5 here: the demo reproduces
the reference error table, including its vertex-sampled error convention.
"""

import numpy as np

import anisofem as af

REF = np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

# the commuting property: div(I_RT v) equals the elementwise mean of div v
field = lambda x, y, z: np.stack([x * x, x * y, np.zeros_like(z)], axis=-1)
div = lambda x, y, z: 2 * x + x
lhs, rhs = af.local_commuting_check(REF, field, div)
print(f"commuting check on v = (x^2, xy, 0): div(I_RT v) = {lhs:.12f}, "
      f"P0(div v) = {rhs:.12f}")

# P1 functions are reproduced by both CR interpolants
p1 = lambda x, y, z: 1 + 2 * x - y + 0.5 * z
print("face-mean coeffs      :", af.cr_interpolate(REF, p1))
print("face-barycentre coeffs:", af.cr_interpolate_pointwise(REF, p1))

print("\nsliver family, gamma = 1.5 (err = |phi - I phi|_H1 / |phi|_H2,"
      " vertex-sampled):")
print(f"{'N':>6} {'h':>12} {'H_T':>12} {'err':>12} {'r':>6}")
prev = None
for n in [128, 256, 512, 1024, 2048, 4096]:
    h, aniso, err = af.sliver_interp_row(n)
    r = f"{af.convergence_indicator([prev, err])[0]:.2f}" if prev else ""
    print(f"{n:>6} {h:>12.4e} {aniso:>12.4e} {err:>12.4e} {r:>6}")
    prev = err
print("\nthe rate locks to ~0.5, the decay rate of H_T, not of h")
