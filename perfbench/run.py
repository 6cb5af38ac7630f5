"""vortexlab benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload planar_zero --seed 1 --seconds 40 --trace 0

Each pass of the workload is one fresh Python process (``worker.py``)
that imports ``vortexlab`` from ``src/`` and calls ``vortexlab.cli.main``
once per command, back to back (a closed loop with one client).  A run
first launches a few processes that only import the package, to measure
set-up time, then repeats passes while another pass still fits in
``--seconds`` (at least two passes).  Every output is checked; a command
that exits non-zero or whose output fails its check counts as a failed
operation.

``--trace 0`` prints the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced passes; ``trace.overhead_s`` is the traced
minus the untraced median wall time.  Every metric, with its unit, is
listed in ``perfbench/README.md``.  The last line of standard output is
the JSON result; the line before it records the seed and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "vortexlab" / "cli.py"
WORK = ROOT / ".perfbench"

#: Processes that only import the package, per run, for ``setup_s``.
SETUP_PROBES = 4
#: Passes per run at least; a traced run alternates untraced and traced.
MIN_PASSES = 2
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150.0

#: Metric names and units, as the benchmark's specification lists them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class PassError(RuntimeError):
    """A worker process died or left no result."""


def launch(workload: str, seed: int, mode: str, run_dir: Path, index: int) -> dict:
    """Run one worker process; return its record with ``setup_s`` added."""
    result = run_dir / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", str(result),
           "--spans", str(WORK / f"spans-{workload}.jsonl")]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=run_dir, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass exceeded {PASS_TIMEOUT_S:g} s")
    if proc.returncode != 0 or not result.is_file():
        raise PassError(f"{mode} pass exited with code {proc.returncode}")
    record = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    # perf_counter is CLOCK_MONOTONIC, shared by both processes on Linux.
    record["setup_s"] = record["imported_at"] - started
    record["mode"] = mode
    record["elapsed_s"] = time.perf_counter() - started
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    """Set-up probes, then passes until the next one would overrun ``seconds``.

    A run makes at least :data:`MIN_PASSES` passes, so that a median is never
    a single slow pass; with slow passes it may overrun ``seconds``.
    """
    start = time.perf_counter()
    probes = [launch(workload, seed, "setup", run_dir, k) for k in range(SETUP_PROBES)]
    modes = ("plain", "traced") if trace else ("plain",)
    passes: list = []
    while True:
        mode = modes[len(passes) % len(modes)]
        passes.append(launch(workload, seed, mode, run_dir, SETUP_PROBES + len(passes)))
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            return probes, passes


def summarize(probes: list, passes: list, trace: bool, error_rate: float) -> dict:
    """End-to-end metrics, or with ``trace`` the per-layer ones, of a run."""
    plain = [p for p in passes if p["mode"] == "plain"]
    if not trace:
        return {
            "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "success_rate": 1.0 - error_rate,
        }
    traced = [p for p in passes if p["mode"] == "traced"]
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in PER_LAYER_UNITS if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not PACKAGE.is_file():
        print(f"perfbench: {PACKAGE} not found; run from the root of a vortexlab checkout",
              file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        probes, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    values = summarize(probes, passes, bool(args.trace), len(failures) / attempted)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    counts = {mode: sum(p["mode"] == mode for p in passes) for mode in ("plain", "traced")}

    print(f"workload {args.workload}  seed {args.seed}  passes {counts}  "
          f"set-up probes {len(probes)}")
    print(f"  error_rate  {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6g} {units[name]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": counts,
                      "pass_wall_s": [p["wall_s"] for p in passes],
                      "failures": failures[:10], "env": probes[0]["env"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
