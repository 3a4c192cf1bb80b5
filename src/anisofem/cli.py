"""Experiment runner: convergence studies, the flat-tet interpolation demo
and the identity verification suite.

Exit codes: 0 success, 1 numerical failure (solver breakdown, a ValueError
raised from numerics or a failed identity), 2 configuration error, rejected
before any output.
"""

import argparse
import math
import sys

import numpy as np

from . import analysis, elements, equivalence, geometry, quadrature, system
from .mesh import face_values, generate_aniso_cube, write_vtk

# (M, N) pairs of the published convergence studies, keyed by gamma;
# the M=32 rows are behind --large (the gamma=2 one alone has 10.6M face DOFs)
DEFAULT_PAIRS = {
    1.5: [(4, 8), (8, 22), (16, 64), (32, 182)],
    1.9: [(4, 14), (8, 52), (16, 194), (32, 724)],
    2.0: [(4, 16), (8, 64), (16, 256), (32, 1024)],
}
DEFAULT_DEMO_N = [128, 256, 512, 1024, 2048, 4096]

CONVERGE_HEADER = "M,N,h,H_nominal,H_computed,dofs,err_h1,r_h1,err_l2,r_l2"


class ConfigError(Exception):
    pass


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        try:
            m, n = (int(s) for s in chunk.strip().split(":"))
        except ValueError:
            raise ConfigError(f"bad mesh pair {chunk!r}, expected M:N") from None
        if m <= 0 or n <= 0 or m % 2:
            raise ConfigError(f"bad mesh pair {chunk!r}: M must be positive and "
                              f"even, N positive")
        pairs.append((m, n))
    return pairs


def _fmt(x):
    return "" if x is None else f"{x:.6e}"


def select_pairs(gamma, pairs_text=None, large=False):
    """Mesh pairs for a study: an explicit M:N list or the published defaults."""
    if pairs_text:
        return _parse_pairs(pairs_text)
    match = [g for g in DEFAULT_PAIRS if abs(g - gamma) < 1e-9]
    if not match:
        raise ConfigError(f"no default mesh pairs for gamma={gamma}; pass --pairs")
    pairs = DEFAULT_PAIRS[match[0]]
    return pairs if large else [(m, n) for m, n in pairs if m < 32]


def cmd_converge(args, out):
    pairs = select_pairs(args.gamma, args.pairs, args.large)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol!r}")
    case = analysis.cube_polynomial_case()
    assemble, solve = {
        "p1": (system.assemble_p1, system.solve_spd),
        "cr": (system.assemble_cr, system.solve_spd),
        "rt": (system.assemble_rt0_mixed, system.solve_saddle),
    }[args.element]
    out.write(CONVERGE_HEADER + "\n")
    out.flush()
    prev_h1 = prev_l2 = None
    for m, n in pairs:
        mesh = generate_aniso_cube(m, n)
        if args.vtk:
            write_vtk(mesh, f"{args.vtk}.M{m}N{n}.vtk")
        metrics = geometry.global_metrics(mesh)
        sys_ = assemble(mesh, case.f, rhs_mode=args.rhs)
        fld = solve(sys_, tol=args.tol)
        dofs = len(sys_.rhs)  # vertices (p1), faces (cr), faces + cells (rt)

        err_h1 = analysis.broken_h1_error(mesh, fld, case.grad_u) / case.hess_diag_l2
        err_l2 = analysis.l2_error(mesh, fld, case.u) / case.hess_diag_l2
        r_h1 = None if prev_h1 is None else math.log2(prev_h1 / err_h1)
        r_l2 = None if prev_l2 is None else math.log2(prev_l2 / err_l2)
        prev_h1, prev_l2 = err_h1, err_l2

        h_nom = (1.0 / m) ** (2.0 - args.gamma)
        row = [str(m), str(n), _fmt(1.0 / m), _fmt(h_nom),
               _fmt(metrics.aniso_max), str(dofs),
               _fmt(err_h1), _fmt(r_h1), _fmt(err_l2), _fmt(r_l2)]
        out.write(",".join(row) + "\n")
        out.flush()
    return 0


def cmd_interp_demo(args, out):
    try:
        ns = [int(s) for s in args.n_values.split(",")] if args.n_values \
            else DEFAULT_DEMO_N
    except ValueError:
        raise ConfigError(f"bad demo N values {args.n_values!r}") from None
    if any(n <= 0 for n in ns):
        raise ConfigError("demo N values must be positive")
    out.write("N,h,H_T,err,r\n")
    prev = None
    for n in ns:
        h, aniso, err = analysis.sliver_interp_row(n, gamma=args.gamma)
        r = "" if prev is None else _fmt(math.log2(prev / err))
        out.write(f"{n},{_fmt(h)},{_fmt(aniso)},{_fmt(err)},{r}\n")
        prev = err
    out.flush()
    return 0


def _verify_checks(rng, flip_rt_signs=False, bubble_stiffness=72.0):
    """Run every identity check; yields (name, max deviation, tolerance)."""
    def random_tet():
        while True:
            v = rng.uniform(-1.0, 1.0, (4, 3))
            if quadrature.simplex_measure(v) > 1e-3:
                return v

    # quadrature exactness against the closed-form simplex monomial integrals
    def bary_moment(exponents, dim):
        num = 1
        for e in exponents:
            num *= math.factorial(e)
        return num * math.factorial(dim) / math.factorial(sum(exponents) + dim)

    for rule, name in [(quadrature.tet_rule_degree2(), "quad_tet_degree2"),
                       (quadrature.tet_rule_degree5(), "quad_tet_degree5")]:
        dev = 0.0
        for _ in range(100):
            v = random_tet()
            vol = quadrature.simplex_measure(v)
            bmap = elements.BarycentricMap(v)
            for e in _monomial_exponents(4, rule.degree):
                got = quadrature.integrate(
                    rule, v,
                    lambda x, y, z: np.prod(
                        bmap.coords(np.stack([x, y, z], axis=-1))
                        ** np.asarray(e), axis=-1))
                exact = bary_moment(e, 3) * vol
                dev = max(dev, abs(got - exact) / max(abs(exact), 1e-300))
        yield name, dev, 1e-12

    rule = quadrature.tri_rule_midpoint3()
    dev = 0.0
    for _ in range(100):
        v = rng.uniform(-1.0, 1.0, (3, 3))
        area = quadrature.simplex_measure(v)
        if area < 1e-3:
            continue
        for e in _monomial_exponents(3, 2):
            vals = rule.points ** np.asarray(e)
            got = area * rule.weights @ np.prod(vals, axis=1)
            exact = bary_moment(e, 2) * area
            dev = max(dev, abs(got - exact) / max(abs(exact), 1e-300))
    yield "quad_tri_degree2", dev, 1e-12

    # bubble identities over a generated mesh plus random tets
    mesh = generate_aniso_cube(4, 8)
    dev_face = dev_mean = dev_grad = 0.0
    tet_list = list(mesh.tet_vertices()) + [random_tet() for _ in range(20)]
    for v in tet_list:
        spread = equivalence.bubble_spread(v)
        face_means = elements.cr_interpolate(
            v, lambda x, y, z: equivalence.bubble_eval(
                v, np.stack([x, y, z], axis=-1)))
        dev_face = max(dev_face, float(np.abs(face_means).max()) / spread)
        mean, grad_sq = equivalence.bubble_identities(v)
        dev_mean = max(dev_mean, abs(mean - 0.4 * spread) / spread)
        dev_grad = max(dev_grad, abs(grad_sq - 28.8 * spread) / (28.8 * spread))
    yield "bubble_face_means", dev_face, 1e-12
    yield "bubble_volume_mean", dev_mean, 1e-12
    yield "bubble_gradient_mean", dev_grad, 1e-12

    # commuting identity on random quadratic vector fields
    dev = 0.0
    for _ in range(100):
        v = random_tet()
        c = rng.uniform(-1.0, 1.0, (3, 10))
        field, div_field = _random_quadratic_field(c)
        lhs, rhs = elements.local_commuting_check(v, field, div_field)
        dev = max(dev, abs(lhs - rhs) / max(abs(rhs), 1.0))
    yield "commuting_rt_projection", dev, 1e-12

    # duality identity on the small mesh
    mesh22 = generate_aniso_cube(2, 2)
    dev = _duality_deviation(mesh22, rng, flip_rt_signs=flip_rt_signs)
    yield "flux_gradient_duality", dev, 1e-11

    # equivalence of the reconstructed and directly solved mixed problems
    case = analysis.cube_polynomial_case()
    dev_sig = dev_u = dev_div = dev_jump = dev_trace = 0.0
    for m, n in [(2, 2), (4, 8)]:
        msh = generate_aniso_cube(m, n)
        cr, _ = equivalence.enriched_cr_solve(msh, case.f, tol=1e-12)
        rt, jump = equivalence.marini_reconstruct(
            msh, cr, case.f, bubble_stiffness=bubble_stiffness)
        direct = system.solve_saddle(
            system.assemble_rt0_mixed(msh, case.f), tol=1e-12)
        mass = system.rt0_mass_matrix(msh)
        vols = geometry.element_volumes(msh)
        dsig = rt.coeffs - direct.coeffs
        dev_sig = max(dev_sig, math.sqrt((dsig @ mass @ dsig)
                                         / (direct.coeffs @ mass @ direct.coeffs)))
        du = rt.cell_coeffs - direct.cell_coeffs
        dev_u = max(dev_u, math.sqrt(float(vols @ du ** 2)
                                     / float(vols @ direct.cell_coeffs ** 2)))
        fbar = system._element_loads(msh, case.f, quadrature.tet_rule_degree5())[1] / vols
        dev_div = max(dev_div, float(np.abs(rt.flux_divergence() + fbar).max()))
        dev_jump = max(dev_jump, jump)
        dev_trace = max(dev_trace, _flux_jump_deviation(
            msh, direct, flip_rt_signs=flip_rt_signs))
    yield "marini_sigma_equivalence", dev_sig, 1e-7
    yield "marini_u_equivalence", dev_u, 1e-7
    yield "reconstruction_divergence", dev_div, 1e-11
    yield "reconstruction_normal_jumps", dev_jump, 1e-9
    yield "flux_normal_jumps", dev_trace, 1e-9


def _monomial_exponents(k, degree):
    if k == 1:
        for d in range(degree + 1):
            yield (d,)
        return
    for d in range(degree + 1):
        for rest in _monomial_exponents(k - 1, degree - d):
            yield (d,) + rest


def _random_quadratic_field(c):
    def basis(x, y, z):
        return np.stack([np.ones_like(x), x, y, z, x * x, y * y, z * z,
                         x * y, x * z, y * z], axis=-1)

    def field(x, y, z):
        return basis(x, y, z) @ c.T

    def div_field(x, y, z):
        # d/dx of component 0 plus d/dy of 1 plus d/dz of 2
        return (c[0, 1] + 2 * c[0, 4] * x + c[0, 7] * y + c[0, 8] * z
                + c[1, 2] + 2 * c[1, 5] * y + c[1, 7] * x + c[1, 9] * z
                + c[2, 3] + 2 * c[2, 6] * z + c[2, 8] * x + c[2, 9] * y)

    return field, div_field


def _flux_jump_deviation(mesh, field, flip_rt_signs=False):
    """max over interior faces of the two-sided normal-trace disagreement.

    The normal trace of a local RT0 representation on its own face equals the
    signed flux coefficient exactly, so the jump vanishes to rounding when the
    orientation table is intact and blows up to 2|coeff| when it is not.
    """
    faces = mesh.faces
    _, _, centroids = geometry.local_face_geometry(mesh)
    signs = faces.tet_face_signs.copy()
    if flip_rt_signs:
        signs[signs < 0] *= -1.0

    a, b = geometry.rt0_affine(mesh.tet_vertices(),
                               field.coeffs[faces.tet_faces] * signs)
    sigma = a[:, None, None] * centroids - b[:, None, :]
    trace = np.einsum("tid,tid->ti", sigma, faces.normals[faces.tet_faces])
    _, worst = face_values(faces, trace)
    return worst / max(float(np.abs(field.coeffs).max()), 1e-300)


def _duality_deviation(mesh, rng, samples=50, flip_rt_signs=False):
    """max |(v, grad_h psi) + (div v, psi)| over random discrete field pairs.

    Each inner product is evaluated elementwise in closed form (the RT0 field
    is affine, the CR gradient constant), so the identity holds to rounding
    for any coefficients respecting the sign convention.  ``flip_rt_signs``
    breaks that convention on purpose.
    """
    faces = mesh.faces
    vols = geometry.element_volumes(mesh)
    grads = -3.0 * geometry.barycentric_gradients(mesh)
    v4 = mesh.tet_vertices()
    centres = v4.mean(axis=1)
    signs = faces.tet_face_signs.copy()
    if flip_rt_signs:
        interior = ~faces.boundary
        flip = interior[faces.tet_faces] & (signs < 0)
        signs[flip] *= -1.0

    worst = 0.0
    for _ in range(samples):
        flux = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi = rng.uniform(-1.0, 1.0, faces.n_faces)
        psi[faces.boundary] = 0.0
        a, b = geometry.rt0_affine(v4, flux[faces.tet_faces] * signs)
        # v at the barycentre, one affine evaluation per element
        v_mid = a[:, None] * centres - b
        div = 3.0 * a
        grad_psi = np.einsum("ti,tid->td", psi[faces.tet_faces], grads)
        psi_mid = psi[faces.tet_faces].sum(axis=1) / 4.0
        total = float(vols @ (np.einsum("td,td->t", v_mid, grad_psi)
                              + div * psi_mid))
        worst = max(worst, abs(total))
    return worst


def cmd_verify(args, out):
    rng = np.random.default_rng(0)
    out.write("identity,max_deviation,tolerance,status\n")
    failed = False
    for name, dev, tol in _verify_checks(
            rng, flip_rt_signs=args.flip_rt_signs,
            bubble_stiffness=args.bubble_stiffness):
        ok = dev <= tol
        failed = failed or not ok
        out.write(f"{name},{_fmt(dev)},{_fmt(tol)},{'pass' if ok else 'FAIL'}\n")
        out.flush()
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anisofem",
        description="Poisson convergence studies on anisotropic tet meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="run a convergence study")
    conv.add_argument("--element", choices=["p1", "cr", "rt"], required=True)
    conv.add_argument("--gamma", type=float, default=1.5,
                      help="vertical grading exponent; picks default mesh pairs")
    conv.add_argument("--pairs", help="comma-separated M:N list overriding defaults")
    conv.add_argument("--rhs", choices=["exact-f", "projected-f"],
                      default="exact-f")
    conv.add_argument("--tol", type=float, default=1e-10)
    conv.add_argument("--large", action="store_true",
                      help="include the M=32 rows of the default pair lists")
    conv.add_argument("--out", help="CSV output path (default stdout)")
    conv.add_argument("--vtk", help="dump each mesh to PATH.M{M}N{N}.vtk")
    conv.set_defaults(func=cmd_converge)

    demo = sub.add_parser("interp-demo",
                          help="interpolation error on the flat-tet family")
    demo.add_argument("--n-values", help="comma-separated divisions, default "
                      + ",".join(str(n) for n in DEFAULT_DEMO_N))
    demo.add_argument("--gamma", type=float, default=1.5)
    demo.add_argument("--out")
    demo.set_defaults(func=cmd_interp_demo)

    verify = sub.add_parser("verify", help="run the identity suite")
    verify.add_argument("--out")
    verify.add_argument("--flip-rt-signs", action="store_true",
                        help="testing hook: break the flux sign convention")
    verify.add_argument("--bubble-stiffness", type=float, default=72.0,
                        help="testing hook: wrong values break the equivalence")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = open(args.out, "w") if args.out else sys.stdout
        try:
            return args.func(args, out)
        finally:
            if out is not sys.stdout:
                out.close()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (system.SolverError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
