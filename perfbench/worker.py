"""One workload pass in a fresh single-threaded process.

Started by ``run.py``; not meant to be run by hand.  It pins the BLAS and
OpenMP thread pools to one thread before numpy is imported, stamps the
moment ``vortexlab.cli`` is importable (``run.py`` turns that into
``setup_s``), runs the workload's CLI commands back to back, records the
peak resident memory, and only then checks every output, so checking
costs neither wall time nor memory in the figures.  The result is written
as JSON to the path given by ``--result``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import vortexlab.cli  # noqa: E402

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Report checks.  Flux: the acceptance suite's 0.5% of the target, with
#: 0.5% of 16*pi as the floor for a zero target.  Uniqueness and
#: radial-vs-planar limits are those of acceptance criteria 6 and 5.
FLUX_TOL = 0.005
FLUX_SCALE_FLOOR = 16.0 * math.pi
UNIQUENESS_LIMIT = 1e-6
CROSS_VALIDATION_LIMIT = 5e-3
PLANAR_MAX_ITER = 60

EXPECTED_SHA256 = json.loads((HERE / "expected_sha256.json").read_text(encoding="utf-8"))


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cache": _cache_sizes(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def check_sha256(op: dict, path: Path):
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    want = EXPECTED_SHA256.get(op["label"])
    if digest != want:
        return f"sha256 {digest} != recorded {want}"
    return None


def check_report(op: dict, path: Path):
    report = json.loads(path.read_text(encoding="utf-8"))
    for rec in report["flux"]:
        limit = FLUX_TOL * max(abs(rec["target"]), FLUX_SCALE_FLOOR)
        if not abs(rec["value"] - rec["target"]) <= limit:
            return f"{rec['name']} = {rec['value']!r}, target {rec['target']!r} (limit {limit:.3g})"
    pde_sup = report["residuals"]["pde_sup"]
    if not (isinstance(pde_sup, float) and math.isfinite(pde_sup)):
        return f"pde_sup is not finite: {pde_sup!r}"
    if op["expect"]["planar"]:
        for section, limit in (("uniqueness", UNIQUENESS_LIMIT),
                               ("cross_validation", CROSS_VALIDATION_LIMIT)):
            value = (report.get(section) or {}).get("sup_difference")
            if not (isinstance(value, float) and value < limit):
                return f"{section}.sup_difference = {value!r}, limit {limit:g}"
    return None


def check_planar_csv(op: dict, path: Path):
    grid = op["expect"]["grid"]
    with open(path, encoding="utf-8") as fh:
        meta = dict(item.partition("=")[::2] for item in fh.readline()[1:].split())
        header = fh.readline().strip()
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "x,y,w1,w2,u1,u2":
        return f"header {header!r}"
    if data.shape != (grid * grid, 6) or not np.all(np.isfinite(data)):
        return f"data shape {data.shape} or non-finite values"
    if int(meta["grid"]) != grid:
        return f"grid={meta['grid']}"
    iterations = int(meta["iterations"])
    gnorm = float(meta["gradient_norm"])
    if not (0 <= iterations <= PLANAR_MAX_ITER and gnorm < op["expect"]["tol"]):
        return f"iterations={iterations} gradient_norm={gnorm!r} does not meet tol"
    return None


CHECKS = {"sha256": check_sha256, "report": check_report, "planar_csv": check_planar_csv}


def run_pass(ops: list, tracer) -> dict:
    """Run every operation, then check the outputs; return the pass record."""
    results = []
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = k
        try:
            code = vortexlab.cli.main(op["argv"])
        except Exception:  # one failed operation must not end the pass
            traceback.print_exc()
            code = None
        results.append(code)
    wall = time.perf_counter() - start
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed = []
    bytes_written = 0
    for op, code in zip(ops, results):
        path = Path(op["out"])
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        elif not path.is_file():
            reason = "no output file"
        else:
            bytes_written += path.stat().st_size
            try:
                reason = CHECKS[op["check"]](op, path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failed.append({"op": op["label"], "reason": reason})
            print(f"perfbench: {op['label']} failed: {reason}", file=sys.stderr)
        if path.is_file():
            path.unlink()
    return {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
        "attempted": len(ops),
        "failed": failed,
        "bytes_written": bytes_written,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="spans file written by a traced pass")
    args = parser.parse_args()

    record = {"imported_at": IMPORTED_AT}
    if args.mode == "setup":
        record["env"] = environment()
    else:
        tracer = None
        if args.mode == "traced":
            tracer = tracing.Tracer()
            tracer.install()
        record.update(run_pass(workloads.operations(args.workload, args.seed), tracer))
        if tracer is not None:
            tracer.dump(args.spans)
            record["layers"] = tracing.layer_metrics(tracer.spans)
            record["layers"]["cli.bytes_written"] = record["bytes_written"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
