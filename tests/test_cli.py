"""Command-line interface: outputs, exit codes, determinism, round trips."""

import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vortexlab import cli
from vortexlab.cli import (
    _CSV_BLOCK_ROWS,
    _csv_writer,
    _fmt,
    _load_radial_csv,
    emit_report,
    main,
    parse_report,
)
from vortexlab.functional import PlanarGrid
from vortexlab.model import ModelParams
from vortexlab.planar import solve_planar
from vortexlab.radial import radial_mesh, solve_radial_P
from vortexlab.verify import VerificationReport, build_report


#: Report values: finite reals (-0.0 and subnormals included), +-inf, ints,
#: bools, None and strings, nested in lists and string-keyed dicts.  NaN
#: compares unequal to itself, so it is checked on its own below.
VALUES = st.recursive(
    st.floats(allow_nan=False) | st.integers() | st.booleans() | st.none() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)
SECTIONS = st.dictionaries(st.text(), VALUES, max_size=5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "constants", "--N", "2")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == 1.25
        assert data["A"] == [[1.25, 0.75], [0.75, 1.25]]
        assert data["lambda0"] == 1.0 and data["lambda3"] == 2.0
        assert data["m"] == 2.0 and data["p"] == 2.0 and data["q"] == -2.0
        assert data["flux_targets"][0] == pytest.approx(-16.0 * np.pi)

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_scalars_match_report(self, capsys, N):
        code, out, _ = run(capsys, "constants", "--N", str(N))
        assert code == 0
        scalars = {k: v for k, v in json.loads(out).items() if isinstance(v, float)}
        code, out, _ = run(capsys, "report", "--N", str(N), "--nodes", "1000")
        assert code == 0
        assert json.loads(out)["constants"] == scalars

    def test_invalid_rank(self, capsys):
        code, _, err = run(capsys, "constants", "--N", "1")
        assert code == 2
        assert "N" in err


class TestSolveRadial:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "radial.csv"
        code, text, _ = run(
            capsys,
            "solve-radial",
            "--N", "2", "--n1", "1", "--n2", "1", "--tau", "1",
            "--rmax", "30", "--nodes", "1000", "--tol", "1e-9",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# N=2 n1=1 n2=1 tau=1")
        assert lines[1] == "r,u1,u2,Q1,Q2,f,fNA,E1,E2"
        assert len(lines) == 2 + 1000

    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, *_ = run(
                capsys,
                "solve-radial", "--N", "2", "--nodes", "1000", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "solve-radial", "--N", "2", "--nodes", "1000", "--max-iter", "1",
        )
        assert code == 1
        assert "did not reach" in err or "stalled" in err


class TestMaxIter:
    @pytest.mark.parametrize(
        "argv",
        ["solve-radial --N 2 --nodes 1000", "solve-planar --N 2 --grid 32"],
        ids=["radial", "planar"],
    )
    def test_negative_exits_2_and_zero_checks_the_start(self, capsys, argv):
        code, _, err = run(capsys, *argv.split(), "--max-iter", "-1")
        assert code == 2
        assert "max_iter must be nonnegative" in err
        code, _, err = run(capsys, *argv.split(), "--max-iter", "0")
        assert code == 1
        assert "did not reach" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("solve-radial --N 2 --nodes 1000 --tol inf", "tol must be positive and finite, got inf"),
            ("solve-profile --N 2 --nodes 2000 --tol nan", "tol must be positive and finite, got nan"),
            ("solve-planar --N 2 --grid 32 --tol inf", "tol must be positive and finite, got inf"),
            (
                "solve-planar --N 2 --grid 32 --max-iter 3 --tol nan",
                "tol must be positive and finite, got nan",
            ),
            ("solve-planar --N 2 --grid 32 --box inf", "half_width must be positive and finite, got inf"),
            (
                "solve-planar --N 2 --grid 32 --box 1e-200",
                "half_width 1e-200 gives a grid spacing 6.451612903225806e-202 whose square "
                "is not positive and finite",
            ),
            (
                "solve-radial --N 2 --nodes 1000 --tau inf",
                "background scale tau must be positive and finite, got inf",
            ),
            (
                "solve-planar --N 2 --grid 32 --tau inf",
                "background scale tau must be positive and finite, got inf",
            ),
            (
                "solve-radial --N 2 --nodes 1000 --rmax inf",
                "need 0 < r_min < 2 < r_max < inf, got r_min=0.0001, r_max=inf",
            ),
        ],
        ids=[
            "radial-tol-inf",
            "profile-tol-nan",
            "planar-tol-inf",
            "planar-tol-nan",
            "planar-box-inf",
            "planar-box-underflow",
            "radial-tau-inf",
            "planar-tau-inf",
            "radial-rmax-inf",
        ],
    )
    def test_exits_2_naming_the_parameter(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestPlanarOptionsBeforeTheRadialSolve:
    @pytest.mark.parametrize(
        "argv, message",
        [
            ("solve-planar --N 2 --grid 32 --tol nan", "tol must be positive and finite, got nan"),
            ("solve-planar --N 2 --grid 32 --max-iter -1", "max_iter must be nonnegative"),
            (
                "report --N 2 --planar --grid 32 --planar-tol nan",
                "tol must be positive and finite, got nan",
            ),
        ],
        ids=["solve-planar-tol-nan", "solve-planar-max-iter-negative", "report-planar-tol-nan"],
    )
    def test_exits_2_with_no_radial_solve(self, capsys, monkeypatch, argv, message):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_radial_P(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_radial_P", counted)
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        assert len(calls) == 0


class TestSolveProfile:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code, *_ = run(
            capsys, "solve-profile", "--N", "2", "--nodes", "3000", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "r,f,fNA,Q1,Q2"
        assert "c1=" in lines[0] and "c2=" in lines[0]


class TestSolvePlanar:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "planar.csv"
        code, *_ = run(
            capsys,
            "solve-planar", "--N", "2", "--box", "15", "--grid", "64",
            "--tol", "1e-7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x,y,w1,w2,u1,u2"
        assert len(lines) == 2 + 64 * 64

    def test_radial_start_reaches_the_zero_start_minimizer(self, tmp_path, capsys):
        out = tmp_path / "planar.csv"
        code, *_ = run(capsys, "solve-planar", "--N", "3", "--n2", "2", "--grid", "64",
                       "--out", str(out))
        assert code == 0
        meta = dict(item.split("=") for item in out.read_text().splitlines()[0][2:].split())
        data = np.loadtxt(out, delimiter=",", skiprows=2)
        zero = solve_planar(ModelParams(N=3, n1=1, n2=2), PlanarGrid(15.0, 64), tol=1e-8)
        assert int(meta["iterations"]) < zero.iterations
        w = np.stack([data[:, 2], data[:, 3]]).reshape(zero.w.shape)
        assert np.max(np.abs(w - zero.w)) < 1e-9


class TestVerify:
    def test_missing_solution_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify", "--N", "2", "--n1", "1", "--n2", "1")
        assert code == 2
        assert out == ""
        assert err == "error: solution file not found: radial.csv\n"

    def test_verify_saved_solution(self, tmp_path, capsys):
        csv = tmp_path / "radial.csv"
        code, *_ = run(
            capsys, "solve-radial", "--N", "2", "--nodes", "2000", "--out", str(csv)
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--N", "2", "--n1", "1", "--n2", "1", "--input", str(csv)
        )
        assert code == 0
        report = parse_report(out)
        assert report.flux[0]["rel_error"] < 0.005
        assert report.residuals["pde_sup"] < 1e-7

    def test_parameter_mismatch(self, tmp_path, capsys):
        csv = tmp_path / "radial.csv"
        run(capsys, "solve-radial", "--N", "2", "--nodes", "1000", "--out", str(csv))
        code, out, err = run(capsys, "verify", "--N", "3", "--input", str(csv))
        assert code == 2
        assert out == ""
        assert err == "error: requested N=3 does not match the solution file (N=2)\n"

    @pytest.mark.parametrize(
        "window", [("14", "10"), ("nan", "14"), ("10", "inf")], ids=["reversed", "nan", "inf"]
    )
    def test_bad_window_exits_2(self, tmp_path, capsys, window):
        csv = tmp_path / "radial.csv"
        run(capsys, "solve-radial", "--N", "2", "--nodes", "1000", "--out", str(csv))
        code, out, err = run(capsys, "verify", "--input", str(csv), "--window", *window)
        assert code == 2
        assert out == ""
        assert err.startswith("error: decay window must have finite ends lo < hi, got [")

    @staticmethod
    def _rewrite(csv, out, drop=(), meta_drop=None, extra_name=False, cell=None, rows=None):
        """Copy a radial CSV without the named columns or metadata key.

        ``cell = (row, column, text)`` replaces one data cell; ``rows`` keeps
        only that many data rows.
        """
        meta, header, *data = csv.read_text().splitlines()
        rows = data[:rows]
        if meta_drop is not None:
            meta = " ".join(item for item in meta.split() if not item.startswith(meta_drop + "="))
        names = header.split(",")
        keep = [k for k, name in enumerate(names) if name not in drop]
        lines = [meta, ",".join(names[k] for k in keep) + (",extra" if extra_name else "")]
        for i, row in enumerate(rows):
            values = row.split(",")
            if cell is not None and i == cell[0]:
                values[names.index(cell[1])] = cell[2]
            lines.append(",".join(values[k] for k in keep))
        out.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"drop": ("u2",)}, "missing u2"),
            ({"meta_drop": "tau"}, "missing tau"),
            ({"extra_name": True}, "10 header names for 9 data columns"),
            # A non-finite value in data row 500 must not reach the report.
            ({"cell": (500, "r", "nan")}, "non-finite value in column r"),
            ({"cell": (500, "u1", "nan")}, "non-finite value in column u1"),
            ({"cell": (500, "u2", "nan")}, "non-finite value in column u2"),
            ({"cell": (500, "u1", "inf")}, "non-finite value in column u1"),
            ({"rows": 0}, "no data rows"),
            (
                {"cell": (0, "u1", "abc")},
                "could not convert string 'abc' to float64 at row 0, column 2.",
            ),
            ({"rows": 999}, "radial mesh needs at least 1000 nodes"),
            ({"cell": (500, "r", "1e-4")}, "radial nodes must be strictly increasing"),
        ],
        ids=[
            "no-u2-column",
            "no-tau-key",
            "header-longer-than-rows",
            "r-nan",
            "u1-nan",
            "u2-nan",
            "u1-inf",
            "header-only",
            "non-numeric-cell",
            "too-few-rows",
            "r-not-increasing",
        ],
    )
    def test_malformed_csv_exits_2(self, tmp_path, capsys, broken, message):
        csv = tmp_path / "radial.csv"
        run(capsys, "solve-radial", "--N", "2", "--nodes", "1000", "--out", str(csv))
        bad = tmp_path / "bad.csv"
        self._rewrite(csv, bad, **broken)
        code, out, err = run(capsys, "verify", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: {message}\n"

    @staticmethod
    def _verify_with_meta(tmp_path, capsys, key, value):
        """Run ``verify`` on a radial CSV whose metadata ``key`` reads ``value``."""
        csv = tmp_path / "radial.csv"
        run(capsys, "solve-radial", "--N", "2", "--nodes", "1000", "--out", str(csv))
        meta, rest = csv.read_text().split("\n", 1)
        meta = " ".join(
            f"{key}={value}" if item.startswith(f"{key}=") else item for item in meta.split(" ")
        )
        bad = tmp_path / "bad.csv"
        bad.write_text(meta + "\n" + rest)
        return bad, *run(capsys, "verify", "--input", str(bad))

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "2.5"])
    def test_bad_iterations_metadata_exits_2(self, tmp_path, capsys, value):
        bad, code, out, err = self._verify_with_meta(tmp_path, capsys, "iterations", value)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: iterations must be a nonnegative integer, got {value}\n"

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("N", "abc", "an integer"),
            ("N", "2.5", "an integer"),
            ("tau", "abc", "a number"),
            ("iterations", "abc", "a number"),
            ("residual", "abc", "a number"),
        ],
    )
    def test_non_numeric_metadata_exits_2(self, tmp_path, capsys, key, value, kind):
        bad, code, out, err = self._verify_with_meta(tmp_path, capsys, key, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: metadata {key}={value} is not {kind}\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("N", "1", "rank N must be >= 2, got 1"),
            ("tau", "inf", "background scale tau must be positive and finite, got inf"),
            ("n1", "-1", "multiplicity n1 must be nonnegative, got -1.0"),
        ],
    )
    def test_out_of_range_metadata_exits_2_naming_the_file(
        self, tmp_path, capsys, key, value, message
    ):
        bad, code, out, err = self._verify_with_meta(tmp_path, capsys, key, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("value, code", [("yes", 2), ("True", 2), ("", 2), ("false", 0)])
    def test_theorem_mode_metadata_is_true_or_false(self, tmp_path, capsys, value, code):
        bad, got, out, err = self._verify_with_meta(tmp_path, capsys, "theorem_mode", value)
        assert got == code
        if code == 0:
            assert parse_report(out).params["theorem_mode"] is False
        else:
            assert out == ""
            assert err == f"error: {bad}: metadata theorem_mode={value} is not true or false\n"

    def test_energy_columns_recomputed_from_u(self, tmp_path, capsys):
        csv = tmp_path / "radial.csv"
        run(
            capsys, "solve-radial", "--N", "3", "--n1", "1", "--n2", "2",
            "--nodes", "2000", "--out", str(csv),
        )
        lean = tmp_path / "lean.csv"
        self._rewrite(csv, lean, drop=("E1", "E2"))
        code, full_report, _ = run(capsys, "verify", "--input", str(csv))
        assert code == 0
        code, lean_report, _ = run(capsys, "verify", "--input", str(lean))
        assert code == 0
        assert lean_report == full_report


class TestReportCommand:
    def test_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, *_ = run(
            capsys, "report", "--N", "2", "--nodes", "2000", "--out", str(out)
        )
        assert code == 0
        text = out.read_text()
        report = parse_report(text)
        assert emit_report(report) == text
        assert parse_report(emit_report(report)) == report

    @pytest.mark.parametrize(
        "window", [("14", "10"), ("nan", "14"), ("10", "inf")], ids=["reversed", "nan", "inf"]
    )
    def test_bad_window_exits_2_before_any_solve(self, capsys, monkeypatch, window):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the window was checked")

        monkeypatch.setattr(cli, "solve_radial_P", no_solve)
        monkeypatch.setattr(cli, "solve_planar", no_solve)
        code, out, err = run(
            capsys, "report", "--N", "2", "--planar", "--grid", "256", "--window", *window
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: decay window must have finite ends lo < hi, got [")

    def test_uniqueness_without_planar_exits_2_before_any_solve(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --uniqueness was checked")

        monkeypatch.setattr(cli, "solve_radial_P", no_solve)
        monkeypatch.setattr(cli, "solve_planar", no_solve)
        code, out, err = run(capsys, "report", "--N", "2", "--uniqueness", "--nodes", "1000")
        assert code == 2
        assert out == ""
        assert err == "error: --uniqueness needs --planar\n"

    @pytest.mark.parametrize(
        "box, grid, message",
        [
            ("5.2", "400", "empty cross-validation window; enlarge the box"),
            ("15", "8", "points_per_side must be an integer >= 16, got 8"),
        ],
        ids=["empty-cross-window", "small-grid"],
    )
    def test_bad_planar_box_exits_2_before_any_solve(self, capsys, monkeypatch, box, grid, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the planar grid was checked")

        monkeypatch.setattr(cli, "solve_radial_P", no_solve)
        monkeypatch.setattr(cli, "solve_planar", no_solve)
        code, out, err = run(capsys, "report", "--N", "2", "--planar", "--box", box, "--grid", grid)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestReportSerialization:
    def test_round_trip_by_value(self):
        sol = solve_radial_P(ModelParams(N=2, n1=1, n2=1), radial_mesh(n=1000), tol=1e-9)
        report = build_report(radial_sol=sol)
        assert parse_report(emit_report(report)) == report

    def test_non_terminating_fraction_round_trips(self):
        sol = solve_radial_P(ModelParams(N=3, n1=1, n2=2), radial_mesh(n=1000), tol=1e-9)
        report = build_report(radial_sol=sol)
        alpha = report.constants["alpha"]  # 4/3 at rank 3: no finite binary form
        back = parse_report(emit_report(report)).constants["alpha"]
        assert back.hex() == alpha.hex()

    @settings(max_examples=200)
    @given(
        params=SECTIONS,
        constants=SECTIONS,
        flux=st.lists(SECTIONS, max_size=3),
        component_flux=SECTIONS,
        decay=st.lists(SECTIONS, max_size=3),
        residuals=SECTIONS,
        uniqueness=st.none() | SECTIONS,
        cross_validation=st.none() | SECTIONS,
    )
    def test_round_trip_property(self, **sections):
        report = VerificationReport(**sections)
        back = parse_report(emit_report(report))
        assert back == report
        # repr also tells -0.0 from 0.0 and 1.0 from 1, which == does not.
        assert repr(back) == repr(report)

    def test_non_finite_reals_round_trip(self):
        report = VerificationReport(
            params={}, constants={}, flux=[], component_flux={}, decay=[],
            residuals={"inf": math.inf, "minus_inf": -math.inf, "nan": math.nan},
        )
        text = emit_report(report)
        assert '"inf": Infinity' in text and '"minus_inf": -Infinity' in text
        back = parse_report(text).residuals
        assert back["inf"] == math.inf and back["minus_inf"] == -math.inf
        assert math.isnan(back["nan"])


class TestIOFailure:
    def test_unwritable_output_exits_3(self, capsys):
        code, _, err = run(
            capsys,
            "solve-radial", "--N", "2", "--nodes", "1000",
            "--out", "/nonexistent-dir/radial.csv",
        )
        assert code == 3
        assert "I/O failure" in err


class CsvWriterChecks:
    """Byte checks of ``_csv_writer``, run on the serial and on the forked path."""

    def test_csv_golden_bytes(self):
        values = [-0.0, 0.1, 2.0, 5e-324, np.nan, np.inf, -np.inf]
        fh = io.StringIO()
        _csv_writer(
            {"N": 2, "tau": 0.1, "theorem_mode": True},
            {f"c{k}": np.array([v]) for k, v in enumerate(values)},
        )(fh)
        assert fh.getvalue() == (
            "# N=2 tau=0.10000000000000001 theorem_mode=true\n"
            "c0,c1,c2,c3,c4,c5,c6\n"
            "0,0.10000000000000001,2,4.9406564584124654e-324,nan,inf,-inf\n"
        )

    def test_csv_rows_match_per_value_format(self):
        # Reference: each value through the report formatter, one at a time.
        rng = np.random.default_rng(5)
        columns = [
            rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200) for _ in range(3)
        ]
        columns.append(np.array([-0.0, 0.0, 1e-310, -1e-310, np.nan] * 40))
        fh = io.StringIO()
        _csv_writer({"N": 2}, dict(zip("abcd", columns)))(fh)
        rows = fh.getvalue().splitlines()[2:]
        assert rows == [",".join(_fmt(float(v)) for v in row) for row in np.column_stack(columns)]

    @pytest.mark.parametrize(
        "rows",
        [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS + 3],
    )
    def test_csv_blocks_match_savetxt(self, rows):
        # Reference: numpy's row-by-row writer with the same format.
        rng = np.random.default_rng(rows)
        special = [-0.0, 0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf]
        data = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-320, 300, (rows, 4))
        flat = data.ravel()  # a view: writes land in data
        picks = rng.random(flat.size) < 0.2
        flat[picks] = rng.choice(special, np.count_nonzero(picks))
        flat[: len(special)] = special[: flat.size]
        fh = io.StringIO()
        _csv_writer({"N": 3, "tau": 0.1}, dict(zip("abcd", data.T)))(fh)
        expected = io.StringIO()
        np.savetxt(
            expected,
            data + 0.0,
            fmt="%.17g",
            delimiter=",",
            header="# N=3 tau=0.10000000000000001\na,b,c,d",
            comments="",
        )
        assert fh.getvalue() == expected.getvalue()

    @pytest.mark.parametrize(
        "n, block_rows",
        [(1, 1024), (7, 1024), (33, 1024), (5, 16), (33, 16)],
        ids=["1", "7", "33", "5-in-blocks-of-16", "33-in-blocks-of-16"],
    )
    def test_planar_rows_match_per_value_format(self, monkeypatch, n, block_rows):
        # Blocks are whole grid rows: 7 and 33 do not divide 1024, 5 does not
        # divide 16, and a 33-node grid row is longer than a 16-row block.
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(n)
        coords = np.linspace(-3.0, 3.0, n) if n > 1 else np.array([-0.0])
        special = [-0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf]
        fields = rng.standard_normal((4, n * n)) * 10.0 ** rng.integers(-320, 300, (4, n * n))
        fields[:, : len(special)] = special[: n * n]
        fh = io.StringIO()
        _csv_writer({"grid": n}, dict(zip(("w1", "w2", "u1", "u2"), fields)), coords=coords)(fh)
        meta, header, *rows = fh.getvalue().split("\n")
        assert (meta, header, rows[-1]) == (f"# grid={n}", "x,y,w1,w2,u1,u2", "")
        nodes = [(x, y) for x in coords for y in coords]
        assert rows[:-1] == [
            ",".join(_fmt(float(v)) for v in (*node, *values))
            for node, values in zip(nodes, fields.T)
        ]


class TestOutput(CsvWriterChecks):
    @pytest.mark.parametrize(
        "argv",
        [
            "solve-radial --N 3 --n1 1 --n2 2 --nodes 1000",
            "solve-profile --N 2 --nodes 2000",
            "solve-planar --N 2 --grid 32",
            "report --N 2 --nodes 1000",
        ],
        ids=["radial", "profile", "planar", "report"],
    )
    def test_stdout_is_the_out_file(self, tmp_path, capsys, argv):
        path = tmp_path / "output"
        code, announced, _ = run(capsys, *argv.split(), "--out", str(path))
        assert code == 0
        assert announced.startswith(f"wrote {path}")
        assert announced.count("\n") == 1
        code, printed, _ = run(capsys, *argv.split())
        assert code == 0
        assert printed.encode("utf-8") == path.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(
        u=hnp.arrays(np.float64, (2, 1000), elements=st.floats(allow_nan=False, allow_infinity=False)),
        residual=st.floats(),
    )
    def test_radial_csv_round_trip(self, tmp_path_factory, u, residual):
        # -0.0 and subnormals in every example, besides those Hypothesis draws.
        u[:, :3] = [[-0.0, 5e-324, -2.5e-310], [2.5e-310, -0.0, -5e-324]]
        params = ModelParams(N=3, n1=1, n2=2)
        r = radial_mesh(n=1000).r

        def write(path, params, r, u1, u2, residual):
            meta = {**dataclasses.asdict(params), "iterations": 7, "residual": residual}
            with path.open("w", encoding="utf-8", newline="\n") as fh:
                _csv_writer(meta, {"r": r, "u1": u1, "u2": u2})(fh)

        first = tmp_path_factory.mktemp("csv") / "radial.csv"
        write(first, params, r, u[0], u[1], residual)
        back = _load_radial_csv(str(first))
        assert back.params == params and back.iterations == 7
        np.testing.assert_array_equal(back.mesh.r, r)
        np.testing.assert_array_equal(back.u, u)
        assert not np.signbit(back.u[0, 0]) and not np.signbit(back.u[1, 1])  # -0.0 reads as 0.0
        assert back.residual == residual or (math.isnan(back.residual) and math.isnan(residual))
        second = first.with_name("again.csv")
        write(second, back.params, back.mesh.r, back.u[0], back.u[1], back.residual)
        assert second.read_bytes() == first.read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedCsv(CsvWriterChecks):
    """Every CSV formatted by two processes: the row threshold set to 0."""

    #: A 32² planar CSV in blocks of 64 rows: 16 blocks, 8 from the child.
    PLANAR = ("solve-planar", "--N", "2", "--grid", "32")

    @pytest.fixture(autouse=True)
    def forked(self, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_FORK_ROWS", 0)
        monkeypatch.setattr(cli, "_two_cpus", lambda: True)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        yield
        assert forks, "no CSV was formatted by a child"
        assert_no_child_left()

    def test_same_bytes_as_serial_and_no_child_left(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 64)
        forked = tmp_path / "forked.csv"
        code, out, _ = run(capsys, *self.PLANAR, "--out", str(forked))
        assert code == 0 and out.startswith(f"wrote {forked}")
        assert_no_child_left()
        monkeypatch.setattr(cli, "_CSV_FORK_ROWS", 1 << 62)
        serial = tmp_path / "serial.csv"
        assert run(capsys, *self.PLANAR, "--out", str(serial))[0] == 0
        assert forked.read_bytes() == serial.read_bytes()

    def test_failed_write_exits_3_and_reaps_the_child(self, capsys, monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell() > 20_000:  # a few blocks in
                    raise OSError(28, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 64)
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        code, out, err = run(capsys, *self.PLANAR, "--out", "planar.csv")
        assert code == 3
        assert out == ""
        assert "No space left on device" in err

    @pytest.mark.parametrize("death", ["exit-0", "exit-1", "killed"])
    def test_failed_child_exits_nonzero(self, tmp_path, capsys, monkeypatch, death):
        fork = os.fork

        def failing_fork():
            pid = fork()
            if pid == 0:
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1 if death == "exit-1" else 0)
            return pid

        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 64)
        monkeypatch.setattr(os, "fork", failing_fork)
        code, out, err = run(capsys, *self.PLANAR, "--out", str(tmp_path / "planar.csv"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: I/O failure on output: CSV formatting process")


def test_forked_csv_through_a_piped_stdout_is_the_out_file(tmp_path):
    # When the child is forked, the header waits in the buffer of stdout (a
    # pipe) or of the --out file; a child that flushed either would write it
    # twice.
    script = (
        "import sys\n"
        "from vortexlab import cli\n"
        "cli._CSV_FORK_ROWS, cli._CSV_BLOCK_ROWS = 0, 64\n"
        "cli._two_cpus = lambda: True\n"
        "raise SystemExit(cli.main(sys.argv[1:]))\n"
    )
    argv = [sys.executable, "-c", script, "solve-planar", "--N", "2", "--grid", "32"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    path = tmp_path / "planar.csv"
    written = subprocess.run([*argv, "--out", str(path)], env=env, capture_output=True, timeout=300)
    printed = subprocess.run(argv, env=env, capture_output=True, timeout=300)
    assert written.returncode == 0 and printed.returncode == 0
    assert written.stdout.startswith(f"wrote {path}".encode())
    assert printed.stdout == path.read_bytes()


def test_csv_written_serially_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    columns = {"a": np.arange(3000.0), "b": np.linspace(-1.0, 1.0, 3000)}
    serial = io.StringIO()
    _csv_writer({"N": 2}, columns)(serial)
    monkeypatch.setattr(cli, "_CSV_FORK_ROWS", 0)
    monkeypatch.setattr(cli, "_two_cpus", lambda: True)
    monkeypatch.setattr(os, "fork", no_fork)
    fh = io.StringIO()
    _csv_writer({"N": 2}, columns)(fh)
    assert fh.getvalue() == serial.getvalue()
