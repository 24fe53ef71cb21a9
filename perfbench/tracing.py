"""Span tracing of tifem's layers, installed from outside the program.

Each wrapped callable records a span (name, start, end, parent, row) in
memory.  Wrappers replace the callable wherever a tifem module looks its name
up: `tifem.benchmarks` imports `assemble`, `solve` and `h1_error` by name,
`tifem.assembly` imports `element_stiffness` by name and calls `spla.splu`,
and the drivers reach the material layer through `mat.`.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The reference-element helpers (`shape_functions`,
`gauss_rule`, `edge_shape_functions`) are deliberately not wrapped: they run
hundreds of thousands of times inside the kernel and the load and error
integration, and count toward the self time of whichever of those called
them.  Exact counters are taken in hooks that run after a span closes; their
time is recorded as `trace.hook` child spans so that it stays out of the
caller's self time.
"""

import csv
import functools
import importlib
import sys
import time
from collections import Counter


def _count_mesh(counts, operators, result):
    counts["mesh.nodes"] += result.n_nodes


def _count_assemble(counts, operators, result):
    counts["assembly.nnz"] += result.stiffness.nnz
    mesh = result.mesh
    operators.add(
        (result.variant.value, mesh.order, mesh.n_nodes, mesh.h, result.frame.a)
    )


def _count_solve(counts, operators, result):
    counts["assembly.dofs"] += result.displacements.shape[0]


def _count_factor(counts, operators, result):
    counts["assembly.lu_fill_nnz"] += result.L.nnz + result.U.nnz


# (module, attribute, self-time metric, counter hook).  A row of a workload's
# CSV begins at each check_stability call: every sweep row and every
# stability grid point makes exactly one.
BOUNDARIES = (
    ("tifem.material", "check_stability", "material.stability_s", None),
    ("tifem.material", "derive_parameters", "material.derive_s", None),
    ("tifem.material", "plane_strain_compliance", "material.derive_s", None),
    ("tifem.material", "plane_strain_stiffness", "material.derive_s", None),
    ("tifem.material", "stiffness_apply", "material.derive_s", None),
    ("tifem.material", "stiffness_matrix_e3", "material.derive_s", None),
    ("tifem.material", "compliance_matrix_e3", "material.derive_s", None),
    ("tifem.material", "error_bound_constant", "material.derive_s", None),
    ("tifem.mesh", "cook_mesh", "mesh.build_s", _count_mesh),
    ("tifem.mesh", "rectangle_mesh", "mesh.build_s", _count_mesh),
    ("tifem.elements", "element_stiffness", "elements.kernel_s", None),
    ("tifem.elements", "one_point_term", "elements.kernel_s", None),
    ("tifem.elements", "p0_projected_term", "elements.kernel_s", None),
    ("tifem.assembly", "assemble", "assembly.assemble_self_s", _count_assemble),
    ("tifem.assembly", "apply_dirichlet", "assembly.dirichlet_s", None),
    ("tifem.assembly", "solve", "assembly.solve_s", _count_solve),
    ("tifem.assembly", "h1_error", "assembly.h1_error_s", None),
    ("scipy.sparse.linalg", "splu", "assembly.factor_s", _count_factor),
    ("tifem.benchmarks", "run_cook", "benchmarks.driver_self_s", None),
    ("tifem.benchmarks", "run_beam", "benchmarks.driver_self_s", None),
    ("tifem.benchmarks", "beam_exact", "benchmarks.driver_self_s", None),
    ("tifem.benchmarks", "beam_edge_profile", "benchmarks.driver_self_s", None),
    ("tifem.benchmarks", "locking_diagnostic", "benchmarks.driver_self_s", None),
    ("tifem.benchmarks", "ErrorReport.to_csv", "benchmarks.to_csv_s", None),
    ("tifem.cli", "main", "cli.self_s", None),
)
ROW_START = "material.check_stability"
HOOK = "trace.hook"

SELF_TIME = {f"{m.removeprefix('tifem.')}.{a}": metric for m, a, metric, _ in BOUNDARIES}
SELF_TIME[HOOK] = "trace.hook_s"

# Call counters: metric -> span names counted.
CALLS = {
    "material.calls": [n for n in SELF_TIME if n.startswith("material.")],
    "mesh.builds": ["mesh.cook_mesh", "mesh.rectangle_mesh"],
    "elements.kernel_calls": ["elements.element_stiffness"],
    "assembly.assemble_calls": ["assembly.assemble"],
}
HOOK_COUNTS = ("mesh.nodes", "assembly.nnz", "assembly.dofs", "assembly.lu_fill_nnz")


class Tracer:
    """In-memory span recorder; install() patches tifem for the rest of the process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, row)
        self.counts = Counter()
        self.operators = set()   # distinct (variant, mesh, fibre) assembled
        self._stack = [-1]
        self._row = -1

    def install(self):
        for module_name, attr, _, hook in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, name)
            span = f"{module_name.removeprefix('tifem.')}.{attr}"
            wrapper = self._wrap(original, span, hook)
            # Replace the name in every tifem module that imported it directly.
            owners = [owner] + [
                m for n, m in list(sys.modules.items())
                if n.startswith("tifem") and m is not owner
            ]
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def _wrap(self, fn, name, hook):
        spans, stack, counts, operators = (
            self.spans, self._stack, self.counts, self.operators
        )
        clock = time.perf_counter
        starts_row = name == ROW_START

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_row:
                self._row += 1
            row = self._row
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, row)
            if hook is not None:
                hook_start = clock()
                hook(counts, operators, result)
                spans.append((HOOK, hook_start, clock(), parent, row))
            return result

        return wrapper

    def summary(self):
        """Self time per metric, call and hook counters of the recorded pass."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        times = dict.fromkeys(SELF_TIME.values(), 0.0)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            times[SELF_TIME[name]] += (end - start) - covered[i]
            calls[name] += 1
        counts = {metric: sum(calls[n] for n in names) for metric, names in CALLS.items()}
        counts.update({k: self.counts[k] for k in HOOK_COUNTS})
        counts["assembly.distinct_operators"] = len(self.operators)
        counts["trace.rows"] = self._row + 1
        counts["trace.spans"] = len(self.spans)
        return times, counts

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "row"])
            out.writerows(self.spans)
