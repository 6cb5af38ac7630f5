"""Radial and profile CSVs and verify reports keep their bytes.

``perfbench/expected_sha256.json`` holds the sha256 of every CSV the
``radial_sweep`` workload writes.  This runs three of those commands, with
the workload's own arguments, through ``cli.main`` and compares digests,
so a refactor that changes a CSV byte fails here and not only in the
benchmark.  That file holds no report digests, so those of two of the
workload's ``verify`` reports are written below.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from vortexlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED_SHA256 = json.loads((PERFBENCH / "expected_sha256.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
OPERATIONS = {op["label"]: op for op in workloads.operations("radial_sweep", seed=0)}

#: Equal and unequal multiplicities of the radial sweep, and one profile.
LABELS = ["solve-radial N=2 n1=1 n2=1", "solve-radial N=3 n1=1 n2=2", "solve-profile N=2"]

#: sha256 of the ``verify`` report of each case, as the workload writes it
#: (the same with ``OPENBLAS_NUM_THREADS`` set to 1 and to 2).
REPORT_SHA256 = {
    "N=2 n1=1 n2=1": "0bfb77e5c0f58591616d55e233230ca96010c5a730d5cfd75f79432c2fbc2d56",
    "N=3 n1=1 n2=2": "b3e4e1272448fc5eea9a462ad828b55468e2b7200bb12c40f63153bbc70f67fb",
}


@pytest.mark.parametrize("label", LABELS)
def test_csv_sha256_matches_benchmark(tmp_path, monkeypatch, label):
    op = OPERATIONS[label]
    monkeypatch.chdir(tmp_path)
    assert main(op["argv"]) == 0
    digest = hashlib.sha256((tmp_path / op["out"]).read_bytes()).hexdigest()
    assert digest == EXPECTED_SHA256[label]


@pytest.mark.parametrize("case", sorted(REPORT_SHA256))
def test_verify_report_sha256(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for label in (f"solve-radial {case}", f"verify {case}"):
        assert main(OPERATIONS[label]["argv"]) == 0
    report = tmp_path / OPERATIONS[f"verify {case}"]["out"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256[case]
