"""The CLI commands each benchmark workload runs, and what checks their output.

A workload is a fixed list of operations.  One operation is one call of
``vortexlab.cli.main(argv)``; ``argv`` names output files relative to the
worker's working directory.  This module uses only the standard library, so
``run.py`` can import it without numpy.
"""

from __future__ import annotations

#: (N, n1, n2) of the radial sweep: ranks 2..5 crossed with equal, unequal
#: and swapped multiplicities.
RADIAL_CASES = [
    (N, n1, n2) for N in (2, 3, 4, 5) for (n1, n2) in ((1, 1), (1, 2), (2, 1), (2, 3))
]
PROFILE_RANKS = (2, 3, 4, 5)

PLANAR_TOL = 1e-8


def _op(label: str, argv: str, out: str, check: str, **expect) -> dict:
    return {"label": label, "argv": argv.split(), "out": out, "check": check, "expect": expect}


def _planar_zero(seed: int) -> list:
    return [
        _op(
            "solve-planar N=2 n1=1 n2=1 grid=512",
            "solve-planar --N 2 --n1 1 --n2 1 --box 15 --grid 512 "
            f"--tol {PLANAR_TOL:g} --out planar.csv",
            "planar.csv",
            "planar_csv",
            grid=512,
            tol=PLANAR_TOL,
        )
    ]


def _planar_uniqueness(seed: int) -> list:
    return [
        _op(
            "report N=3 n1=1 n2=2 planar uniqueness grid=384",
            "report --N 3 --n1 1 --n2 2 --planar --uniqueness --grid 384 "
            f"--seed {seed} --out report.json",
            "report.json",
            "report",
            planar=True,
        )
    ]


def _radial_sweep(seed: int) -> list:
    ops = []
    for N, n1, n2 in RADIAL_CASES:
        case = f"N={N} n1={n1} n2={n2}"
        csv = f"radial_{N}_{n1}_{n2}.csv"
        ops.append(
            _op(
                f"solve-radial {case}",
                f"solve-radial --N {N} --n1 {n1} --n2 {n2} --out {csv}",
                csv,
                "sha256",
            )
        )
        ops.append(
            _op(
                f"verify {case}",
                f"verify --N {N} --n1 {n1} --n2 {n2} --input {csv} "
                f"--out report_{N}_{n1}_{n2}.json",
                f"report_{N}_{n1}_{n2}.json",
                "report",
                planar=False,
            )
        )
    for N in PROFILE_RANKS:
        ops.append(
            _op(f"solve-profile N={N}", f"solve-profile --N {N} --out profile_{N}.csv",
                f"profile_{N}.csv", "sha256")
        )
    return ops


WORKLOADS = {
    "planar_zero": _planar_zero,
    "planar_uniqueness": _planar_uniqueness,
    "radial_sweep": _radial_sweep,
}


def operations(workload: str, seed: int) -> list:
    """The operations of ``workload``; the seed feeds ``report --seed``."""
    return WORKLOADS[workload](seed)
