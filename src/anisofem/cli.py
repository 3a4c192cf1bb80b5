"""Experiment runner: argument parsing and CSV output for the convergence
studies, the flat-tet interpolation demo and the identity suite.

Exit codes: 0 success, 1 numerical failure (solver breakdown, an overflow,
invalid value or ValueError raised from numerics, a non-finite value in a
row or a failed identity), 2 configuration error or a study too large for
the available memory, rejected before any output, or a --vtk file that
cannot be written, which may follow rows already written.
"""

import argparse
import contextlib
import gc
import math
import os
import sys

import numpy as np

from . import analysis, geometry, system
from .mesh import generate_aniso_cube, write_vtk
from .verify import identity_checks

# (M, N) pairs of the published convergence studies, keyed by gamma;
# the M=32 rows are behind --large (the gamma=2 one alone has 10.6M face DOFs)
DEFAULT_PAIRS = {
    1.5: [(4, 8), (8, 22), (16, 64), (32, 182)],
    1.9: [(4, 14), (8, 52), (16, 194), (32, 724)],
    2.0: [(4, 16), (8, 64), (16, 256), (32, 1024)],
}
DEFAULT_DEMO_N = [128, 256, 512, 1024, 2048, 4096]

CONVERGE_HEADER = "M,N,h,H_nominal,H_computed,dofs,err_h1,r_h1,err_l2,r_l2"

# Peak resident memory of a converge row per tet, the slope of the peak RSS
# between N = 128 and N = 256 at M = 16 (N = 64 and 128 for rt), rounded up
ROW_BYTES_PER_TET = {"p1": 600, "cr": 700, "rt": 700}
MEMINFO = "/proc/meminfo"


class ConfigError(Exception):
    pass


def _parse_pairs(text):
    pairs = []
    for chunk in text.split(","):
        try:
            m, n = (int(s) for s in chunk.strip().split(":"))
        except ValueError:
            raise ConfigError(f"bad mesh pair {chunk!r}, expected M:N") from None
        if m <= 0 or n <= 0 or m % 2 or max(m, n) > sys.float_info.max:
            raise ConfigError(f"bad mesh pair {chunk!r}: M must be positive and "
                              f"even, N positive, both within float range")
        pairs.append((m, n))
    return pairs


def _fmt(x):
    if x is not None and not math.isfinite(x):  # raised before its row is written
        raise ValueError(f"non-finite value {x!r} in the output")
    return "" if x is None else f"{x:.6e}"


def select_pairs(gamma, pairs_text=None, large=False):
    """Mesh pairs for a study: an explicit M:N list or the published defaults."""
    if pairs_text is not None:
        return _parse_pairs(pairs_text)
    match = [g for g in DEFAULT_PAIRS if abs(g - gamma) < 1e-9]
    if not match:
        raise ConfigError(f"no default mesh pairs for gamma={gamma}; pass --pairs")
    pairs = DEFAULT_PAIRS[match[0]]
    return pairs if large else [(m, n) for m, n in pairs if m < 32]


def _open_out(args):
    """--out or stdout; opened after the checks, so a rejected run writes nothing."""
    if not args.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w")
    except OSError as exc:
        raise ConfigError(f"cannot open --out: {exc}") from None


def _available_memory():
    """MemAvailable in bytes, or None where ``MEMINFO`` cannot be read."""
    try:
        with open(MEMINFO) as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(element, pairs):
    """Refuse a study whose largest row would need more than the available
    memory, by the measured bytes per tet; no check where none is known."""
    available = _available_memory()
    m, n = max(pairs, key=lambda p: p[0] * p[0] * p[1])
    need = ROW_BYTES_PER_TET[element] * 5.0 * m * m * n  # 5 M^2 N tets, inf if huge
    if available is not None and need > available:
        raise ConfigError(f"row {m}:{n} needs about {need / 2**20:.0f} MiB, "
                          f"{available / 2**20:.0f} MiB available")


def cmd_converge(args):
    pairs = select_pairs(args.gamma, args.pairs, args.large)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol!r}")
    if args.vtk and not os.path.isdir(os.path.dirname(args.vtk) or "."):
        raise ConfigError(f"--vtk directory of {args.vtk!r} does not exist")
    try:  # H_nominal of every row, before the header
        h_nominal = [(1.0 / m) ** (2.0 - args.gamma) for m, _ in pairs]
    except OverflowError:
        raise ConfigError(f"--gamma {args.gamma!r} overflows (1/M)^(2-gamma)") from None
    _check_memory(args.element, pairs)
    case = analysis.cube_polynomial_case()
    with _open_out(args) as out:
        out.write(CONVERGE_HEADER + "\n")
        out.flush()
        prev = None
        for (m, n), h_nom in zip(pairs, h_nominal):
            mesh = generate_aniso_cube(m, n)
            if args.vtk:
                try:
                    write_vtk(mesh, f"{args.vtk}.M{m}N{n}.vtk")
                except OSError as exc:
                    raise ConfigError(f"cannot write --vtk file: {exc}") from None
            metrics = geometry.global_metrics(mesh)
            _, dofs, err_h1, err_l2 = analysis.converge_row(
                args.element, mesh, case, rhs=args.rhs, tol=args.tol)
            r_h1, r_l2 = (None, None) if prev is None else (
                analysis.convergence_indicator(pair)[0]
                for pair in zip(prev, (err_h1, err_l2)))
            prev = err_h1, err_l2

            row = [str(m), str(n), _fmt(1.0 / m), _fmt(h_nom),
                   _fmt(metrics.aniso_max), str(dofs),
                   _fmt(err_h1), _fmt(r_h1), _fmt(err_l2), _fmt(r_l2)]
            out.write(",".join(row) + "\n")
            out.flush()
    return 0


def cmd_interp_demo(args):
    try:
        ns = DEFAULT_DEMO_N if args.n_values is None \
            else [int(s) for s in args.n_values.split(",")]
    except ValueError:
        raise ConfigError(f"bad demo N values {args.n_values!r}") from None
    if any(n <= 0 for n in ns) or max(ns) > sys.float_info.max:
        raise ConfigError("demo N values must be positive and within float range")
    try:  # the sliver height h^gamma of every row, before the header
        for n in ns:
            (1.0 / n) ** args.gamma
    except OverflowError:
        raise ConfigError(f"--gamma {args.gamma!r} overflows (1/N)^gamma") from None
    with _open_out(args) as out:
        out.write("N,h,H_T,err,r\n")
        prev = None
        for n in ns:
            h, aniso, err = analysis.sliver_interp_row(n, gamma=args.gamma)
            r = "" if prev is None else _fmt(
                analysis.convergence_indicator([prev, err])[0])
            out.write(f"{n},{_fmt(h)},{_fmt(aniso)},{_fmt(err)},{r}\n")
            prev = err
        out.flush()
    return 0


def cmd_verify(args):
    if not (math.isfinite(args.bubble_stiffness) and args.bubble_stiffness != 0):
        raise ConfigError(f"--bubble-stiffness must be finite and nonzero, "
                          f"got {args.bubble_stiffness!r}")
    failed = False
    with _open_out(args) as out:
        out.write("identity,max_deviation,tolerance,status\n")
        for name, dev, tol in identity_checks(
                flip_rt_signs=args.flip_rt_signs,
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
                      default="exact-f",
                      help="load of the p1/cr systems: f against each basis "
                      "function, or the cell means of f; rt always builds the "
                      "enriched CR solution from the cell means, so it has no "
                      "effect there")
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
    if argv is None:
        # the process entry: the imported modules live until exit, so moving
        # them to the permanent generation spares the run and the interpreter
        # finalisation any further collections over them
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if not math.isfinite(getattr(args, "gamma", 0.0)):
            raise ConfigError(f"--gamma must be finite, got {args.gamma!r}")
        # an overflow or invalid value fails where it happens, not further on
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (system.SolverError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
