"""Command-line entry point.

Subcommands::

    constants      JSON of the coupling/spectral constants for a rank
    solve-radial   radial solve; CSV columns r,u1,u2,Q1,Q2,f,fNA,E1,E2
    solve-profile  first-order profile solve; CSV columns r,f,fNA,Q1,Q2
    solve-planar   planar solve; CSV columns x,y,w1,w2,u1,u2
    verify         verification report from a saved radial CSV
    report         solve and emit a full verification report

Each subcommand returns its output as a function that writes it to a file
handle, with the note for its ``wrote PATH`` line; :func:`main` alone
sends that output to ``--out`` or stdout and turns failures into exit
codes: 0 success, 1 solver non-convergence, 2 invalid parameters or
input, 3 I/O failure.

Output files carry a single ``#``-prefixed metadata line (key=value
pairs) and are byte-identical across runs for a fixed configuration.
Planar CSVs, like radial and profile CSVs and reports, are the same at one
and two BLAS threads (``tests/test_planar.py::TestBlasThreadCount``;
``tests/test_cli.py::TestSolvePlanar::test_csv_sha256`` pins small ones).
CSV reals are printed to 17 significant digits.  A planar CSV formats
each node once per orbit of its fields' symmetries.  The layout gives the
mirrors of both axes: an even grid's solution arrives as its quadrant.
The swap of ``x`` and ``y`` is tested by value.  So an even grid's
solution is formatted on one octant and an odd grid's on one triangle.
Grid rows read the nodes by orbit key from one list.  Equal values give
equal bytes, so the output is the same as with every node formatted.
JSON output (reports
and ``constants``) is written by the standard ``json`` module: reals in
their shortest round-trip form and non-finite ones as ``NaN``,
``Infinity`` and ``-Infinity``, so parsing an emitted report reproduces it
by value (a ``NaN`` comes back as a NaN, which compares unequal to itself).

To cap the threads of the linear-algebra libraries, set
``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` before launch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings
from typing import Optional

import numpy as np

from .errors import NonConvergenceError, VortexlabError, check_solver_options
from .functional import PlanarGrid
from .model import (
    ModelParams,
    background,
    coupling_matrix,
    flux_targets,
    spectral_constants,
)
from .planar import solve_planar
from .radial import (
    RadialMesh,
    RadialSolution,
    radial_mesh,
    reconstruct_profiles,
    solve_profile_bps,
    solve_radial_P,
)
from .verify import VerificationReport, build_report, check_decay_window, scalar_constants
from .verify import cross_validation_window

__all__ = ["main", "emit_report", "parse_report"]


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    """Render a CSV metadata value: reals at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x) + 0.0, ".17g")  # folds -0.0 into 0


def _json_text(obj) -> str:
    """JSON text of plain data, indented by two spaces, ending in a newline."""
    return json.dumps(obj, indent=2) + "\n"


def emit_report(report: VerificationReport) -> str:
    """Serialize a report to JSON text, its fields in declaration order."""
    return _json_text(dataclasses.asdict(report))


def parse_report(text: str) -> VerificationReport:
    """Inverse of :func:`emit_report`; round-trips by value."""
    return VerificationReport(**json.loads(text))


#: Rows per ``fh.write`` of a CSV without grid coordinates: enough to
#: amortize the per-call cost, few enough that one block's text stays a few
#: hundred kB.
_CSV_BLOCK_ROWS = 1024


def _csv_writer(meta: dict, columns: dict, coords: Optional[np.ndarray] = None):
    """Writer of a CSV: metadata line, column names, then 17-digit reals.

    One row per node; the names are the keys of ``columns``.  Every value
    is written as the bytes ``"%.17g" % value`` gives, comma-separated.
    Adding ``0.0`` folds ``-0.0`` into ``0``.  Without ``coords``, each block
    of :data:`_CSV_BLOCK_ROWS` rows takes one format call and one write.

    With ``coords`` (``n`` reals) the nodes are those of an ``n × n`` grid,
    ``x`` slow and ``y`` fast: two leading columns ``x, y`` take their
    values from ``coords``, each formatted once, and every column of
    ``columns`` is a 2-D field of one layout, told apart by shape: the full
    ``(n, n)`` grid, or the ``(n/2 + 1, n/2 + 1)`` quadrant of a field
    mirrored across both axes (:class:`~vortexlab.planar.PlanarSolution`).
    They are written by :func:`_write_grid_rows`.
    """
    header = "# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    names = (["x", "y"] if coords is not None else []) + list(columns)
    header += "\n" + ",".join(names) + "\n"
    fields = list(columns.values())
    line = ",".join(["%.17g"] * len(fields)) + "\n"

    def write(fh) -> None:
        fh.write(header)
        if coords is not None:
            _write_grid_rows(fh, line, coords, fields)
            return
        for start in range(0, len(fields[0]), _CSV_BLOCK_ROWS):
            values = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in fields]) + 0.0
            fh.write((line * len(values)) % tuple(values.ravel().tolist()))

    return write


def _swap_symmetric(blocks: list) -> bool:
    """Whether every block equals its transpose, compared by value.

    A ``NaN`` never matches, and a ``-0.0`` that matches a ``0.0`` prints as
    ``0`` either way.
    """
    return all(np.array_equal(b, b.T) for b in blocks)


def _write_grid_rows(fh, line: str, coords: np.ndarray, grids: list) -> None:
    """Write the rows of a grid CSV, each node formatted once per symmetry orbit.

    Each field's distinct nodes form an ``m × m`` block, and the layout
    alone gives the mirrors: a quadrant field's block is the view
    ``g[m:0:-1, m:0:-1]`` with ``m = n/2`` (index 0 is no node), the full
    field's ``[:m, :m]``; a full grid is its own block, ``m = n``.  The swap
    is tested by value on the blocks (:func:`_swap_symmetric`).  Index ``i``
    folds to the distinct row or column ``fold[i] < m``; with the swap,
    only the nodes ``(a, b)`` with ``b >= a`` are distinct.  So an even
    grid's D4-symmetric solution is formatted on one octant, an odd grid's
    swap-symmetric one on one triangle, and any other full field at every
    node; equal values give equal bytes.  Each distinct row ``a`` is
    formatted by one ``(line * k) % values`` call into ``nodes``, where its
    column 0 would sit at ``first[a]``.  Grid row ``i`` is written through
    one ``%s`` template, its ``x`` joined with ``",<y_j>,%s\\n"``, and takes
    node ``(i, j)`` from key ``first[a] + b``, where ``a, b = fold[i],
    fold[j]``, sorted with the swap.  A full field without the swap has no
    node to share, so each of its grid rows is formatted by one call as it is
    written, and no node string outlives its row.
    """
    n = len(coords)
    mirrors = len(grids[0]) != n  # the quadrant layout: n/2 + 1 == n only at n = 2
    m = n // 2 if mirrors else n
    blocks = [g[m:0:-1, m:0:-1] for g in grids] if mirrors else grids
    swap = _swap_symmetric(blocks)
    xs = [_fmt(c) for c in coords.tolist()]
    if not (mirrors or swap):
        slots = ["," + y + "," + line for y in xs]
        for i, x in enumerate(xs):
            values = np.column_stack([g[i] for g in grids]) + 0.0
            fh.write((x + x.join(slots)) % tuple(values.ravel().tolist()))
        return
    fold = np.array([*range(m), *range(n - m - 1, -1, -1)])
    nodes, first = [], []
    for a in range(m):
        lo = a if swap else 0
        first.append(len(nodes) - lo)
        values = np.column_stack([b[a, lo:] for b in blocks]) + 0.0
        nodes += ((line * (m - lo)) % tuple(values.ravel().tolist())).splitlines()
    first = np.array(first)
    tails = ["," + y + ",%s\n" for y in xs]
    for x, a in zip(xs, fold.tolist()):
        keys = first[np.minimum(fold, a)] + np.maximum(fold, a) if swap else first[a] + fold
        fh.write((x + x.join(tails)) % tuple(map(nodes.__getitem__, keys.tolist())))


def _emit(path: Optional[str], write, note: str) -> None:
    """Call ``write(fh)`` on the file ``path`` (utf-8, ``\\n`` newlines), or on stdout.

    Only a written file is announced, by a ``wrote PATH`` line ending in
    ``note``; stdout carries the output alone.
    """
    if path is None:
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write(fh)
    print(f"wrote {path}{note}")


# ---------------------------------------------------------------------------
# shared construction
# ---------------------------------------------------------------------------


def _params_from_args(args) -> ModelParams:
    return ModelParams(
        N=args.N,
        n1=args.n1,
        n2=args.n2,
        tau=args.tau,
        theorem_mode=not args.no_theorem_mode,
    )


def _add_param_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, required=True, help="gauge-group rank (integer >= 2)")
    p.add_argument("--n1", type=float, default=1.0, help="first vortex multiplicity")
    p.add_argument("--n2", type=float, default=1.0, help="second vortex multiplicity")
    p.add_argument("--tau", type=float, default=1.0, help="background scale")
    p.add_argument(
        "--no-theorem-mode",
        action="store_true",
        help="allow nonnegative real multiplicities (default requires positive integers)",
    )


def _load_radial_csv(path: str) -> RadialSolution:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("missing metadata header line")
        meta = {}
        for item in first[1:].split():
            key, _, value = item.partition("=")
            if key in meta:
                raise ValueError(f"repeated metadata key {key}")
            meta[key] = value
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty table is reported below
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    repeated = [name for k, name in enumerate(header) if name in header[:k]]
    if repeated:
        raise ValueError(f"repeated column name {repeated[0]}")
    missing = [k for k in ("N", "n1", "n2", "tau") if k not in meta]
    missing += [c for c in ("r", "u1", "u2") if c not in header]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    if data.shape[0] == 0:
        raise ValueError("no data rows")
    if data.shape[1] != len(header):
        raise ValueError(f"{len(header)} header names for {data.shape[1]} data columns")

    def number(key: str, kind, default=None):
        text = meta.get(key, default)
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"metadata {key}={text} is not {what}") from None

    theorem_mode = meta.get("theorem_mode", "true")
    if theorem_mode not in ("true", "false"):
        raise ValueError(f"metadata theorem_mode={theorem_mode} is not true or false")
    values = {"N": number("N", int), **{k: number(k, float) for k in ("n1", "n2", "tau")}}
    params = ModelParams(**values, theorem_mode=theorem_mode == "true")
    iterations = number("iterations", float, "0")
    residual = number("residual", float, "nan")
    if not (iterations >= 0.0 and iterations.is_integer()):
        raise ValueError(f"iterations must be a nonnegative integer, got {iterations:g}")
    col = {name: data[:, k] for k, name in enumerate(header)}
    for name in ("r", "u1", "u2"):
        if not np.all(np.isfinite(col[name])):
            raise ValueError(f"non-finite value in column {name}")
    mesh = RadialMesh(r=col["r"])
    u = np.stack([col["u1"], col["u2"]])
    bg = background(params)
    r2 = mesh.r**2
    return RadialSolution(
        params=params,
        mesh=mesh,
        P=u - np.stack([bg.u0_1(r2), bg.u0_2(r2)]),
        u=u,
        iterations=int(iterations),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args):
    params = _params_from_args(args)
    cd = coupling_matrix(params)
    sc = spectral_constants(cd)
    payload = {
        "params": dataclasses.asdict(params),
        **scalar_constants(params),
        **{name: getattr(cd, name).tolist() for name in ("A", "L", "R", "B", "M")},
        "T": sc.T.tolist(),
        "flux_targets": list(flux_targets(params, sc)),
    }
    text = _json_text(payload)
    return (lambda fh: fh.write(text)), ""


def _cmd_solve_radial(args):
    mesh = radial_mesh(r_min=args.rmin, r_max=args.rmax, n=args.nodes)
    sol = solve_radial_P(_params_from_args(args), mesh, tol=args.tol, max_iter=args.max_iter)
    profiles = reconstruct_profiles(sol)
    E = sol.E
    meta = {
        **dataclasses.asdict(sol.params),
        "rmin": mesh.r_min,
        "rmax": mesh.r_max,
        "nodes": mesh.n,
        "tol": args.tol,
        "iterations": sol.iterations,
        "residual": sol.residual,
    }
    columns = {
        "r": mesh.r,
        "u1": sol.u[0],
        "u2": sol.u[1],
        "Q1": profiles.Q1,
        "Q2": profiles.Q2,
        "f": profiles.f,
        "fNA": profiles.f_NA,
        "E1": E[0],
        "E2": E[1],
    }
    note = f" ({sol.iterations} iterations, residual {sol.residual:.3e})"
    return _csv_writer(meta, columns), note


def _cmd_solve_profile(args):
    ps = solve_profile_bps(
        args.N, r_max=args.rmax, tol=args.tol, n=args.nodes, r_min=args.rmin
    )
    meta = {
        "N": args.N,
        "rmin": ps.mesh.r_min,
        "rmax": ps.mesh.r_max,
        "nodes": ps.mesh.n,
        "tol": args.tol,
        "iterations": ps.iterations,
        "residual": ps.residual,
        "c1": ps.c1,
        "c2": ps.c2,
    }
    columns = {"r": ps.mesh.r, "f": ps.f, "fNA": ps.f_NA, "Q1": ps.Q1, "Q2": ps.Q2}
    note = f" ({ps.iterations} iterations, residual {ps.residual:.3e})"
    return _csv_writer(meta, columns), note


def _cmd_solve_planar(args):
    # Bad options fail before the radial solve.
    check_solver_options(args.tol, args.max_iter)
    grid = PlanarGrid(half_width=args.box, points_per_side=args.grid)
    params = _params_from_args(args)
    # Start from the radial solution on the default mesh, as report --planar does by default.
    radial = solve_radial_P(params, radial_mesh())
    sol = solve_planar(params, grid, tol=args.tol, max_iter=args.max_iter, initial=radial)
    meta = {
        **dataclasses.asdict(sol.params),
        "box": grid.half_width,
        "grid": grid.points_per_side,
        "tol": args.tol,
        "iterations": sol.iterations,
        "gradient_norm": sol.final_gradient_norm,
        "energy": sol.final_energy,
    }
    w, u = sol.w_solved, sol.u_solved  # on the solved layout: no full-grid copy
    columns = {"w1": w[0], "w2": w[1], "u1": u[0], "u2": u[1]}
    note = f" ({sol.iterations} iterations, residual {sol.final_gradient_norm:.3e})"
    return _csv_writer(meta, columns, coords=grid.coords), note


def _cmd_verify(args):
    if not os.path.exists(args.input):
        raise ValueError(f"solution file not found: {args.input}")
    try:
        sol = _load_radial_csv(args.input)
    except ValueError as exc:  # every input error names the file
        raise ValueError(f"{args.input}: {exc}") from None
    actual = dataclasses.asdict(sol.params)
    for key in ("N", "n1", "n2"):
        want = getattr(args, key)
        if want is not None and want != actual[key]:
            raise ValueError(
                f"requested {key}={want} does not match the solution file "
                f"({key}={actual[key]})"
            )
    text = emit_report(build_report(sol, window=tuple(args.window)))
    return (lambda fh: fh.write(text)), ""


def _random_start(seed: int, grid: PlanarGrid) -> np.ndarray:
    """A seeded uniform random interior in [-0.5, 0.5), zero edge.

    Passed inline, so that ``solve_planar`` frees it once the iterate is
    built rather than holding it through the full-grid solve.
    """
    n = grid.points_per_side
    init = np.zeros((2, n, n))
    init[:, 1:-1, 1:-1] = np.random.default_rng(seed).uniform(-0.5, 0.5, (2, n - 2, n - 2))
    return init


def _cmd_report(args):
    # Bad options, or --uniqueness alone, fail before the solves.
    check_decay_window(args.window)
    if args.uniqueness and not args.planar:
        raise ValueError("--uniqueness needs --planar")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.planar:
        check_solver_options(args.planar_tol)
        grid = PlanarGrid(half_width=args.box, points_per_side=args.grid)
        cross_validation_window(grid)
    params = _params_from_args(args)
    mesh = radial_mesh(r_min=args.rmin, r_max=args.rmax, n=args.nodes)
    radial_sol = solve_radial_P(params, mesh, tol=args.tol)

    planar_sol = None
    planar_alt = None
    if args.planar:
        planar_sol = solve_planar(params, grid, tol=args.planar_tol, initial=radial_sol)
        if args.uniqueness:  # from a seeded random start, independent of the first
            planar_alt = solve_planar(
                params, grid, tol=args.planar_tol, initial=_random_start(args.seed, grid)
            )

    report = build_report(
        radial_sol,
        planar_sol=planar_sol,
        planar_sol_alt=planar_alt,
        window=tuple(args.window),
    )
    text = emit_report(report)
    return (lambda fh: fh.write(text)), ""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # built once per process: parsing leaves no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Solvers and verification for coupled planar vortex equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print coupling and spectral constants as JSON")
    _add_param_options(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("solve-radial", help="solve the radial system")
    _add_param_options(p)
    p.add_argument("--rmin", type=float, default=1e-4)
    p.add_argument("--rmax", type=float, default=30.0)
    p.add_argument("--nodes", type=int, default=4000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_solve_radial)

    p = sub.add_parser("solve-profile", help="solve the first-order profile system")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--rmin", type=float, default=0.02)
    p.add_argument("--rmax", type=float, default=30.0)
    p.add_argument("--nodes", type=int, default=24000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_solve_profile)

    p = sub.add_parser("solve-planar", help="minimize the planar functional")
    _add_param_options(p)
    p.add_argument("--box", type=float, default=15.0, help="box half-width")
    p.add_argument("--grid", type=int, default=512, help="points per side")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=60)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_solve_planar)

    p = sub.add_parser("verify", help="verification report from a saved radial CSV")
    p.add_argument("--input", default="radial.csv", help="radial solution CSV")
    p.add_argument("--N", type=int, default=None, help="expected rank (checked against the file)")
    p.add_argument("--n1", type=float, default=None)
    p.add_argument("--n2", type=float, default=None)
    p.add_argument("--window", type=float, nargs=2, default=(10.0, 14.0))
    p.add_argument("--out", help="output report path (stdout when omitted)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="solve and emit a full verification report")
    _add_param_options(p)
    p.add_argument("--rmin", type=float, default=1e-4)
    p.add_argument("--rmax", type=float, default=30.0)
    p.add_argument("--nodes", type=int, default=4000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--planar", action="store_true", help="also run the planar solver")
    p.add_argument("--box", type=float, default=15.0)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--planar-tol", type=float, default=1e-8)
    p.add_argument(
        "--uniqueness",
        action="store_true",
        help="second planar solve from a random start (needs --planar)",
    )
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--window", type=float, nargs=2, default=(10.0, 14.0))
    p.add_argument("--out", help="output report path (stdout when omitted)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        write, note = args.func(args)
        _emit(getattr(args, "out", None), write, note)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, VortexlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        print(f"error: I/O failure on {target or 'output'}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
