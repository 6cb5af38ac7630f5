"""Spans around the public functions of each vortexlab layer, and the
per-layer metrics derived from them.

The wrappers are installed from outside: every module attribute of the
package that *is* a wrapped function is replaced by the wrapper, which also
catches names a module imported with ``from .x import y``.  The package's
source is not changed.  Spans are kept in memory as
``[name, start, end, parent_index, run_id, attrs]`` and written out once,
after the workload, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: Span name -> (module, attribute) of the function it wraps.  The span's
#: layer is the part of its name before the first dot.  Besides each
#: layer's entry points, the list holds every public function that one
#: layer calls in another, so that its time counts to the layer whose code
#: runs: ``verify`` calls into ``radial``, ``planar`` and ``model``, and the
#: CLI into all of them.
FUNCTIONS = {
    "cli.main": ("vortexlab.cli", "main"),
    "cli.emit_report": ("vortexlab.cli", "emit_report"),
    "model.coupling_matrix": ("vortexlab.model", "coupling_matrix"),
    "model.spectral_constants": ("vortexlab.model", "spectral_constants"),
    "model.functional_coefficients": ("vortexlab.model", "functional_coefficients"),
    "model.background": ("vortexlab.model", "background"),
    "model.flux_targets": ("vortexlab.model", "flux_targets"),
    "model.flux_integrand_rows": ("vortexlab.model", "flux_integrand_rows"),
    "model.component_flux_targets": ("vortexlab.model", "component_flux_targets"),
    "planar.solve": ("vortexlab.planar", "solve_planar"),
    "planar.extract_radial_slice": ("vortexlab.planar", "extract_radial_slice"),
    "radial.solve_P": ("vortexlab.radial", "solve_radial_P"),
    "radial.profile": ("vortexlab.radial", "solve_profile_bps"),
    "radial.mesh": ("vortexlab.radial", "radial_mesh"),
    "radial.reconstruct_profiles": ("vortexlab.radial", "reconstruct_profiles"),
    "radial.ode_residual": ("vortexlab.radial", "ode_residual"),
    "radial.system_residual": ("vortexlab.radial", "radial_system_residual"),
    "radial.central_derivative": ("vortexlab.radial", "central_derivative"),
    "radial.banded": ("vortexlab.radial", "solve_banded"),
    "verify.build_report": ("vortexlab.verify", "build_report"),
}

#: Public evaluators of the background field (model layer).
BACKGROUND_METHODS = (
    "exp_two_u0_1", "exp_two_u0_2", "u0_1", "u0_2", "u0_prime_1", "u0_prime_2",
    "phi_1", "phi_2", "psi_1", "psi_2", "phi_disc_integral",
)

#: Arrays one Hessian apply must touch at least: it reads the direction
#: pair and the three curvature arrays and writes the result pair.
HESSIAN_APPLY_ARRAYS = 7


def _solution_counts(args, result) -> dict:
    counts = {"iterations": result.iterations}
    if hasattr(result, "cg_iterations"):
        counts["cg_iterations"] = result.cg_iterations
    return counts


#: Span name -> function of the wrapped call's arguments and result that
#: gives the span's attrs (counts summed per name by :func:`layer_metrics`).
RESULT_ATTRS = {
    "planar.solve": _solution_counts,
    "radial.solve_P": _solution_counts,
    "radial.profile": _solution_counts,
}


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []

    def wrap(self, name: str, fn, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in :data:`FUNCTIONS` and the functional's methods."""
        import vortexlab.cli  # noqa: F401  (loads every layer module)
        from vortexlab.functional import DiscreteFunctional
        from vortexlab.model import BackgroundField

        package = [m for k, m in sys.modules.items() if k == "vortexlab" or k.startswith("vortexlab.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(name, original, RESULT_ATTRS.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        for method in BACKGROUND_METHODS:
            setattr(BackgroundField, method,
                    self.wrap(f"model.{method}", getattr(BackgroundField, method)))

        DiscreteFunctional.energy = self.wrap("functional.energy", DiscreteFunctional.energy)
        DiscreteFunctional.gradient = self.wrap("functional.gradient", DiscreteFunctional.gradient)
        build = self.wrap("functional.hessian_build", DiscreteFunctional.hessian_operator)

        def apply_bytes(args, result):
            return {"bytes": HESSIAN_APPLY_ARRAYS * args[0].nbytes}

        @functools.wraps(DiscreteFunctional.hessian_operator)
        def hessian_operator(functional, fp):
            return self.wrap("functional.hessian_apply", build(functional, fp), apply_bytes)

        DiscreteFunctional.hessian_operator = hessian_operator

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, "attrs": attrs}) + "\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts from a list of spans.

    A span's self time is its duration minus the durations of its direct
    children (spans are strictly nested in one thread).  A layer's
    ``self_s`` sums the self time of all its spans.  ``trace.overhead_s``
    and ``cli.bytes_written`` are not derived from spans; they are left out.
    """
    duration = [end - start for _, start, end, _, _, _ in spans]
    child_time = defaultdict(float)
    for k, span in enumerate(spans):
        if span[3] is not None:
            child_time[span[3]] += duration[k]

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    outer = defaultdict(float)  # time in a layer, not counting nested calls within it
    counts = defaultdict(int)
    for k, (name, _, _, parent, _, attrs) in enumerate(spans):
        layer = name.split(".", 1)[0]
        total[name] += duration[k]
        calls[name] += 1
        self_time[layer] += duration[k] - child_time[k]
        if parent is None or spans[parent][0].split(".", 1)[0] != layer:
            outer[layer] += duration[k]
        for key, value in (attrs or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "functional.energy" and parent is not None and spans[parent][0] == "planar.solve":
            counts["planar.energy_in_solve"] += 1

    # The first energy call of a planar solve evaluates the start; every
    # later one is a line-search trial, and each Newton step accepts one.
    ls_trials = counts["planar.energy_in_solve"] - calls["planar.solve"]
    newton = counts["planar.solve.iterations"]
    out = {
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_time["cli"],
        "cli.emit_report_s": total["cli.emit_report"],
        "functional.hessian_apply_bytes_computed": counts["functional.hessian_apply.bytes"],
        "planar.solve_s": total["planar.solve"],
        "planar.self_s": self_time["planar"],
        "planar.newton_iters": newton,
        "planar.cg_iters": counts["planar.solve.cg_iterations"],
        "planar.ls_trials": ls_trials,
        "planar.ls_accept_ratio": newton / ls_trials if ls_trials else 0.0,
        "radial.solve_P_s": total["radial.solve_P"],
        "radial.solve_P_iters": counts["radial.solve_P.iterations"],
        "radial.profile_s": total["radial.profile"],
        "radial.profile_iters": counts["radial.profile.iterations"],
        "radial.banded_calls": calls["radial.banded"],
        "radial.banded_s": total["radial.banded"],
        "radial.self_s": self_time["radial"],
        "verify.build_report_s": total["verify.build_report"],
        "verify.self_s": self_time["verify"],
        "model.s": outer["model"],
    }
    for op in ("energy", "gradient", "hessian_build", "hessian_apply"):
        out[f"functional.{op}_calls"] = calls[f"functional.{op}"]
        out[f"functional.{op}_s"] = total[f"functional.{op}"]
    return out
