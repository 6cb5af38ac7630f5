"""Radial, profile and planar CSVs and the benchmark's reports keep their bytes.

``perfbench/expected_sha256.json`` holds the sha256 of every CSV the
``radial_sweep`` workload writes.  This runs each of those commands, with
the workload's own arguments, through ``cli.main`` and compares digests,
so a refactor that changes a CSV byte fails here and not only in the
benchmark.  That file holds no report digests, so those of every
``verify`` report of the workload are written below, with the digests of
the planar CSV and report that the planar workloads write.
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

#: Every radial and profile CSV of the sweep.
LABELS = [label for label, op in OPERATIONS.items() if op["check"] == "sha256"]

#: sha256 of the ``verify`` report of each case, as the workload writes it
#: (the same with ``OPENBLAS_NUM_THREADS`` set to 1 and to 2).
REPORT_SHA256 = {
    "N=2 n1=1 n2=1": "0bfb77e5c0f58591616d55e233230ca96010c5a730d5cfd75f79432c2fbc2d56",
    "N=2 n1=1 n2=2": "84bbb4317afc923b8c5a00a7bc9f2c9793678a943807944f042003b690579a16",
    "N=2 n1=2 n2=1": "ce69df86b6b11fe5c5dcaf7fa9abbae0eea3ba3da857c0d9c62b44b6900e31e0",
    "N=2 n1=2 n2=3": "9769c4bdf04c0728c7a1d9e9a454b3a27de802c2f1d4ddc33f649f2c9fcc2893",
    "N=3 n1=1 n2=1": "25c9ff1a1c97d565829f926046e7fd9c2a1aa1992e47093afdd4d98c740204a7",
    "N=3 n1=1 n2=2": "b3e4e1272448fc5eea9a462ad828b55468e2b7200bb12c40f63153bbc70f67fb",
    "N=3 n1=2 n2=1": "c999db5267ee9de8b52c05af56a7305e40a3237fbf5ee4a726d194dac7914658",
    "N=3 n1=2 n2=3": "d5dee3a37ebebab540f12be6cef678fcf95d943785aa31cf8ab99b14b0fe40ae",
    "N=4 n1=1 n2=1": "8fa6baf163f74c696f8d758ebbbe895d01dd0f96a07bb5b13771e7bac13a9880",
    "N=4 n1=1 n2=2": "02bb07c1562a38fa879d9c8aba9872c8f8bb2947a2004095699506e561a7ea3f",
    "N=4 n1=2 n2=1": "6bfa34f0beea06fd2ddf53114ad1387504dd1b45366212898d8c6f8b000f835c",
    "N=4 n1=2 n2=3": "4f1266df8d76a54cc677cc1aac0f5e8ae16ed7b88899bb5a595569adb2ccbcc9",
    "N=5 n1=1 n2=1": "f048b499983b9f0409fe17410f52b10589c709d3d0dea02a0b2fa1941b40ea90",
    "N=5 n1=1 n2=2": "3ad1be851ab81fc04efb8f81424f734380cfe3a3cec14e4227c3056262f8cda6",
    "N=5 n1=2 n2=1": "d76398ed231f3c7774848498b9f0c5d70e419d1b02b48f23f35726f21f9875f9",
    "N=5 n1=2 n2=3": "a1f18c2914be1ff6447eda3abb9e3f8ffaaa452a1ab90f07a0ee21bdbf577c24",
}


def test_every_verify_report_is_pinned():
    cases = {label.removeprefix("verify ") for label in OPERATIONS if label.startswith("verify ")}
    assert cases == set(REPORT_SHA256)


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


#: sha256 of the planar outputs at the size the benchmark runs them: the
#: ``planar_zero`` CSV (512², quadrant solve, octant writer) and the
#: ``planar_uniqueness`` report of seed 1 (384², a quadrant and a full-grid
#: solve), the same with ``OPENBLAS_NUM_THREADS`` set to 1 and to 2.
PLANAR_SHA256 = {
    ("planar_zero", 0): "12cc0cca8f12861c0236d3421feeba3994f0223253692dc08979ad103dac40ae",
    ("planar_uniqueness", 1): "e2cf4d38997104a613aab6752ef300c84cc97f04454025502f8415bec861291d",
}


@pytest.mark.parametrize(
    "workload, seed", sorted(PLANAR_SHA256), ids=[f"{w} seed={s}" for w, s in sorted(PLANAR_SHA256)]
)
def test_planar_output_sha256(tmp_path, monkeypatch, workload, seed):
    (op,) = workloads.operations(workload, seed)
    monkeypatch.chdir(tmp_path)
    assert main(op["argv"]) == 0
    digest = hashlib.sha256((tmp_path / op["out"]).read_bytes()).hexdigest()
    assert digest == PLANAR_SHA256[(workload, seed)]
