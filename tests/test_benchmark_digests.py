"""Radial and profile CSVs keep the bytes the benchmark records.

``perfbench/expected_sha256.json`` holds the sha256 of every CSV the
``radial_sweep`` workload writes.  This runs three of those commands, with
the workload's own arguments, through ``cli.main`` and compares digests,
so a refactor that changes a CSV byte fails here and not only in the
benchmark.
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


@pytest.mark.parametrize("label", LABELS)
def test_csv_sha256_matches_benchmark(tmp_path, monkeypatch, label):
    op = OPERATIONS[label]
    monkeypatch.chdir(tmp_path)
    assert main(op["argv"]) == 0
    digest = hashlib.sha256((tmp_path / op["out"]).read_bytes()).hexdigest()
    assert digest == EXPECTED_SHA256[label]
