"""Tour of the anisotropic mesh family.

The unit cube is tiled with M x M x N boxes, each split into five tets with
mirrored patterns so the mesh conforms.  Driving N like M^gamma with
gamma > 1 makes the central tets progressively flatter: their diameter stays
proportional to 1/M while the edge-pair anisotropy measure grows like
(1/M)^(2-gamma) relative to the diameter.
"""

import anisofem as af

for gamma, pairs in [(1.5, [(4, 8), (8, 22), (16, 64)]),
                     (2.0, [(4, 16), (8, 64), (16, 256)])]:
    print(f"gamma = {gamma}")
    print(f"{'M':>4} {'N':>4} {'verts':>8} {'tets':>8} {'faces':>9} "
          f"{'h':>10} {'aniso_nominal':>14} {'aniso_max':>10}")
    for m, n in pairs:
        mesh = af.generate_aniso_cube(m, n)
        metrics = af.global_metrics(mesh)
        nominal = (1.0 / m) ** (2.0 - gamma)
        print(f"{m:>4} {n:>4} {mesh.n_vertices:>8} {mesh.n_tets:>8} "
              f"{mesh.faces.n_faces:>9} {metrics.h:>10.3e} {nominal:>14.3e} "
              f"{metrics.aniso_max:>10.3e}")
    print()

# the two element shapes of a box: a corner tet and the central one
mesh = af.generate_aniso_cube(4, 8)
corner, central = (af.tet_geometry(mesh.tet_vertices(t)) for t in (1, 0))
print(f"corner tet : volume {corner.volume:.3e}  diameter {corner.diameter:.3e}"
      f"  aniso {corner.aniso:.3e}")
print(f"central tet: volume {central.volume:.3e}  diameter {central.diameter:.3e}"
      f"  aniso {central.aniso:.3e}")
