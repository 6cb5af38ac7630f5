"""The benchmark tracer still finds the functions it wraps by name.

``perfbench/tracing.py`` replaces solver entry points and
``DiscreteFunctional`` methods from outside the package; a renamed
function or a changed call shape would leave its counts at zero without
any error, and so would a command that called a local alias of a wrapped
function such as ``emit_report`` or ``build_report``.  A command that
bypassed a wrapped ``BackgroundField`` evaluator would leave that
evaluator without spans, though not ``model.s`` at 0: it also sums the
``coupling_matrix`` and ``background`` spans.  This runs the tracer on
four small CLI commands and checks that the counts and times it derives
are positive, and that each evaluator they reach has a span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.Tracer()
tracer.install()
import vortexlab.cli
for argv in (["solve-planar", "--N", "2", "--grid", "32", "--out", "planar.csv"],
             ["solve-radial", "--N", "2", "--out", "radial.csv"],
             ["solve-profile", "--N", "2", "--nodes", "2000", "--out", "profile.csv"],
             ["report", "--N", "2", "--nodes", "1000", "--out", "report.json"]):
    assert vortexlab.cli.main(argv) == 0, argv
spans = collections.Counter(span[0] for span in tracer.spans)
print(json.dumps({"metrics": tracing.layer_metrics(tracer.spans), "spans": spans}))
"""

#: The ``BackgroundField`` evaluators the four commands reach: all that the
#: tracer wraps but ``phi_disc_integral``, which only tests call.
EVALUATORS = (
    "exp_two_u0_1", "exp_two_u0_2", "u0_1", "u0_2", "u0_prime_1", "u0_prime_2",
    "phi_1", "phi_2", "psi_1", "psi_2",
)


def test_tracer_counts_are_positive(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout.splitlines()[-1])
    metrics = traced["metrics"]
    for name in (
        "planar.newton_iters",
        "planar.cg_iters",
        "functional.hessian_apply_calls",
        "functional.hessian_apply_bytes_computed",
        "radial.solve_P_iters",
        "radial.banded_calls",
        "radial.profile_iters",
        "cli.emit_report_s",
        "verify.build_report_s",
        "model.s",
    ):
        assert metrics[name] > 0, name
    for method in EVALUATORS:
        assert traced["spans"].get(f"model.{method}", 0) > 0, method
