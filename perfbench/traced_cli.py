"""Run the anisofem CLI with a span recorded around every call into a layer.

Usage: python traced_cli.py SPANS_JSON RUN_ID CLI_ARG...

The module-level public functions listed in LAYERS are replaced, at every
name that binds them inside the package, by wrappers that record a span
(name, start, end, parent, run id) in memory.  The face table is forced right
after each generated mesh, so it gets its own span instead of hiding inside
whichever stage touches ``mesh.faces`` first.  Counts that solver and
assembly results carry (iterations, residuals, nnz, matrix bytes, DOFs) are
recorded at the same boundaries.  Everything is written to SPANS_JSON when
``main`` returns; the process then exits with the CLI's own code.
"""

import functools
import importlib
import json
import sys
import time

# module -> function -> per-layer metric that its self time counts towards
LAYERS = {
    "mesh": {
        "generate_aniso_cube": "mesh.generate_s",
        "build_face_table": "mesh.faces_s",
    },
    "geometry": {
        name: "geometry.metrics_s"
        for name in ("global_metrics", "element_volumes", "barycentric_gradients",
                     "local_face_geometry", "tet_geometry")
    },
    "quadrature": {
        name: "quadrature.checks_s"
        for name in ("tet_rule_degree2", "tet_rule_degree5", "tri_rule_midpoint3",
                     "simplex_measure", "integrate")
    },
    "elements": {
        name: "elements.commuting_s"
        for name in ("local_commuting_check", "p0_project", "cr_interpolate",
                     "cr_interpolate_pointwise", "rt_interpolate", "cr_eval",
                     "rt_eval")
    },
    "system": {
        "assemble_p1": "system.assemble_s",
        "assemble_cr": "system.assemble_s",
        "assemble_rt0_mixed": "system.assemble_s",
        "rt0_mass_matrix": "system.assemble_s",
        "solve_spd": "system.solve_s",
        "solve_saddle": "system.solve_s",
    },
    "equivalence": {
        "bubble_spread": "equivalence.bubble_s",
        "bubble_eval": "equivalence.bubble_s",
        "bubble_grad": "equivalence.bubble_s",
        "bubble_identities": "equivalence.bubble_s",
        "enriched_cr_solve": "equivalence.enriched_solve_s",
        "marini_reconstruct": "equivalence.reconstruct_s",
    },
    "analysis": {
        name: "analysis.errors_s"
        for name in ("cube_polynomial_case", "l2_error", "broken_h1_error",
                     "field_l2_norm", "broken_h1_norm", "discrete_poincare_ratio",
                     "global_cr_interpolant")
    },
}
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent id or None, name, start, end]
        self.stack = []
        self.counts = {"n_tets": 0, "n_faces": 0, "nnz": 0, "matrix_bytes": 0,
                       "iterations": 0, "dofs": 0}
        self.residual_misses = 0
        self.max_residual = 0.0

    def span(self, name, fn, *args, **kwargs):
        record = [len(self.spans), self.stack[-1] if self.stack else None, name,
                  time.monotonic(), None]
        self.spans.append(record)
        self.stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.monotonic()
            self.stack.pop()

    def wrap(self, module, name, fn):
        span_name = f"{module}.{name}"
        observe = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(span_name, fn, *args, **kwargs)
            if observe is not None:
                observe(result)
            return result
        return traced

    def _after_generate_aniso_cube(self, mesh):
        self.counts["n_tets"] += mesh.n_tets
        mesh.faces                         # forced: its own mesh.faces span

    def _after_build_face_table(self, faces):
        self.counts["n_faces"] += faces.n_faces

    def _after_rt0_mass_matrix(self, matrix):
        self.counts["nnz"] += matrix.nnz
        self.counts["matrix_bytes"] += (matrix.data.nbytes + matrix.indices.nbytes
                                        + matrix.indptr.nbytes)

    def _after_assembly(self, system):
        self._after_rt0_mass_matrix(system.matrix)

    _after_assemble_p1 = _after_assemble_cr = _after_assemble_rt0_mixed = _after_assembly

    def _after_solve(self, field):
        info = field.solve_info
        self.counts["iterations"] += info["iterations"]
        self.counts["dofs"] += len(field.coeffs) + (
            0 if field.cell_coeffs is None else len(field.cell_coeffs))
        self.max_residual = max(self.max_residual, info["residual"])
        if not info["residual"] <= info["tol"]:
            self.residual_misses += 1

    _after_solve_spd = _after_solve_saddle = _after_solve


def install(tracer):
    """Replace every binding of the LAYERS functions inside the package."""
    modules = [importlib.import_module("anisofem")] + [
        importlib.import_module(f"anisofem.{name}")
        for name in list(LAYERS) + ["cli"]]
    wrapped = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"anisofem.{module}")
        for name in names:
            fn = getattr(mod, name)
            wrapped[id(fn)] = tracer.wrap(module, name, fn)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and callable(value):
                setattr(mod, attr, wrapped[id(value)])


def main(argv):
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    from anisofem import cli

    try:
        code = tracer.span(ROOT, cli.main, cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"run_id": run_id, "counts": tracer.counts,
                       "residual_misses": tracer.residual_misses,
                       "max_residual": tracer.max_residual,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
