"""Radial solvers: mesh grading, the regularized system, and profiles."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from vortexlab import radial
from vortexlab.cli import _load_radial_csv, main
from vortexlab.errors import NonConvergenceError
from vortexlab.functional import PlanarGrid
from vortexlab.model import (
    ModelParams,
    component_flux_targets,
    coupling_matrix,
    spectral_constants,
)
from vortexlab.planar import solve_planar
from vortexlab.radial import (
    RadialMesh,
    RadialSolution,
    _apply_stencil,
    _laplacian_coefficients,
    central_derivative,
    ode_residual,
    radial_mesh,
    radial_system_residual,
    reconstruct_profiles,
    solve_profile_bps,
    solve_radial_P,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def solve(params, n=2000, tol=1e-9, r_max=30.0):
    return solve_radial_P(params, radial_mesh(r_max=r_max, n=n), tol=tol)


def disc_flux(mesh, E):
    r = mesh.r
    val = float(np.trapezoid(E * 2.0 * np.pi * r, r))
    return val + math.pi * r[0] ** 2 * float(E[0])


class TestRadialMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialMesh(r=np.linspace(0.0, 30.0, 2000))  # nonpositive start
        with pytest.raises(ValueError):
            RadialMesh(r=np.linspace(1e-4, 15.0, 2000))  # too short
        with pytest.raises(ValueError):
            radial_mesh(n=500)  # below the node floor

    @pytest.mark.parametrize(
        "index, value",
        [(0, math.nan), (500, math.nan), (-1, math.inf)],
        ids=["nan-first", "nan-middle", "inf-last"],
    )
    def test_rejects_non_finite_nodes(self, index, value):
        # Each passes the order checks: NaN compares False, inf is a valid last node.
        r = radial_mesh(n=1000).r.copy()
        r[index] = value
        with pytest.raises(ValueError, match="radial nodes must be finite"):
            RadialMesh(r=r)

    def test_grading(self):
        mesh = radial_mesh(n=1000)
        h = np.diff(mesh.r)
        assert np.all(h > 0.0)
        # Spacings grow geometrically (ratio about 1.02 at the node floor)
        # before the uniform section takes over.
        ratios = h[1:40] / h[:39]
        assert np.all(np.abs(ratios - ratios[0]) < 1e-10)
        assert 1.01 < ratios[0] < 1.03
        assert abs(h[-1] - h[-2]) < 1e-12 * h[-1]
        assert mesh.r_min == 1e-4 and mesh.r_max == 30.0

    def test_large_r_max_warns_nothing(self):
        # The graded formula overflows beyond its own nodes from r_max ~ 1486.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = radial_mesh(r_max=2000.0)
        assert mesh.r_max == 2000.0 and np.all(np.isfinite(mesh.r))

    def test_refinement_halves_spacings(self):
        coarse = np.diff(radial_mesh(n=2000).r)
        fine = np.diff(radial_mesh(n=3999).r)
        assert abs(np.max(fine) / np.max(coarse) - 0.5) < 0.01
        assert abs(np.min(fine) / np.min(coarse) - 0.5) < 0.01


class TestDerivatives:
    def test_central_derivative_exact_on_quadratics(self):
        r = radial_mesh(n=1500).r
        y = 3.0 * r * r - 2.0 * r + 1.0
        dy = central_derivative(r, y)
        np.testing.assert_allclose(dy, 6.0 * r - 2.0, rtol=1e-9, atol=1e-9)

    def test_central_derivative_second_order(self):
        errs = []
        for n in (1500, 3000):
            r = radial_mesh(n=n).r
            dy = central_derivative(r, np.sin(r))
            errs.append(np.max(np.abs(dy - np.cos(r))))
        assert errs[0] / errs[1] > 3.0

    def test_central_derivative_of_a_stack_is_bitwise_per_row(self):
        # ode_residual differentiates its four profiles in one call.
        r = radial_mesh(n=1500).r
        y = np.random.default_rng(7).standard_normal((4, r.size))
        rows = np.stack([central_derivative(r, row) for row in y])
        np.testing.assert_array_equal(central_derivative(r, y), rows)

    def test_laplacian_exact_on_r_squared(self):
        r = radial_mesh(n=1500).r
        lap = _apply_stencil(_laplacian_coefficients(r), r * r)
        np.testing.assert_allclose(lap[:-1], 4.0, rtol=1e-7)


class TestSolveRadial:
    def test_vacuum_is_exact(self):
        params = ModelParams(N=3, n1=0, n2=0, theorem_mode=False)
        sol = solve(params, n=1000)
        assert sol.iterations == 0
        assert np.max(np.abs(sol.P)) == 0.0
        assert sol.residual < 1e-12

    def test_symmetric_pair(self):
        params = ModelParams(N=2, n1=1, n2=1)
        sol = solve(params)
        assert sol.residual < 1e-8
        # Outer boundary pins the physical fields to zero.
        assert sol.u[0, -1] == 0.0 and sol.u[1, -1] == 0.0
        # The rank-2 equal-multiplicity system is swap-symmetric.
        assert np.max(np.abs(sol.u[0] - sol.u[1])) < 1e-12
        f1 = disc_flux(sol.mesh, sol.E[0])
        f2 = disc_flux(sol.mesh, sol.E[1])
        comp = component_flux_targets(params, coupling_matrix(params))
        assert abs(f1 - comp[0]) < 0.005 * abs(comp[0])
        assert abs(f2 - comp[1]) < 0.005 * abs(comp[1])
        # Diagnostic expectation (not a theorem): fields nonpositive up to
        # discretization noise.
        assert sol.u[0].max() < 1e-6

    def test_reported_residual_matches_recheck(self):
        # The solver and the public residual evaluate the same code.
        for N, n1, n2 in ((2, 1, 1), (3, 1, 2), (5, 2, 3)):
            sol = solve(ModelParams(N=N, n1=n1, n2=n2))
            res = radial_system_residual(sol.params, sol.mesh, sol.P)
            assert np.max(np.abs(res)) == sol.residual

    def test_flux_identity_general_rank(self):
        params = ModelParams(N=3, n1=1, n2=2)
        sol = solve(params)
        f1 = disc_flux(sol.mesh, sol.E[0])
        f2 = disc_flux(sol.mesh, sol.E[1])
        comp = component_flux_targets(params, coupling_matrix(params))
        scale = max(abs(comp[0]), abs(comp[1]))
        assert abs(f1 - comp[0]) < 0.01 * scale
        assert abs(f2 - comp[1]) < 0.01 * scale

    def test_flux_error_second_order(self):
        params = ModelParams(N=2, n1=1, n2=1)
        comp = component_flux_targets(params, coupling_matrix(params))
        errs = []
        for n in (2000, 3999):
            sol = solve(params, n=n)
            errs.append(abs(disc_flux(sol.mesh, sol.E[0]) - comp[0]))
        assert errs[0] / errs[1] >= 3.0

    def test_decay_rate_bounds(self):
        # One-sided: fitted rates sit at or above the proven bounds.  The
        # rows of A sum to N, so n1 == n2 gives u1 == u2: a pure fast mode
        # with no slow component, whose rate is near 2, not 1.
        for params, expected in (
            (ModelParams(N=2, n1=1, n2=1), (1.95, 2.15)),
            (ModelParams(N=3, n1=1, n2=2), (0.95, 1.15)),
        ):
            sol = solve(params, n=4000)
            sc = spectral_constants(coupling_matrix(params))
            r = sol.mesh.r
            v = np.hypot(sc.p * sol.u[0], 2.0 * sol.u[1])
            mask = (r >= 10.0) & (r <= 14.0)
            rate = -np.polyfit(r[mask], np.log(v[mask]), 1)[0]
            assert rate >= 0.85 * math.sqrt(sc.lambda0)
            assert expected[0] < rate < expected[1]

    def test_stalled_solve_is_accepted_within_the_evaluation_floor(self):
        # The default mesh and the CLI's tol: the line search stalls above
        # tol, and the iterate is accepted because it is within the floor.
        params = ModelParams(N=3, n1=1, n2=2)
        sol = solve_radial_P(params, radial_mesh(), tol=1e-9)
        floor = radial._RegularizedSystem(params, sol.mesh).floor(sol.P.T.ravel())
        assert 1e-9 < sol.residual <= floor

    def test_overflowing_line_search_trial_raises_no_warning(self):
        # A trial E near the float maximum overflows the residual's A @ E;
        # the trial is rejected, and warnings are errors under pytest.
        params = ModelParams(N=30, n1=3, n2=8, tau=20.0)
        sol = solve_radial_P(params, radial_mesh(), tol=1e-9)
        floor = radial._RegularizedSystem(params, sol.mesh).floor(sol.P.T.ravel())
        assert np.all(np.isfinite(sol.P)) and sol.residual <= max(1e-9, floor)

    def test_nonconvergence_diagnostics(self):
        params = ModelParams(N=2, n1=1, n2=1)
        with pytest.raises(NonConvergenceError) as err:
            solve_radial_P(params, radial_mesh(n=1000), tol=1e-9, max_iter=1)
        assert err.value.residual is not None
        assert err.value.last_iterate is not None

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_nonconvergence_iterate_has_the_reported_residual(self, max_iter):
        # The reported iterate is the accepted one, in no buffer a later
        # trial or step solve wrote to.
        params, mesh = ModelParams(N=2, n1=1, n2=1), radial_mesh(n=1000)
        with pytest.raises(NonConvergenceError) as err:
            solve_radial_P(params, mesh, tol=1e-9, max_iter=max_iter)
        P = err.value.last_iterate.reshape(-1, 2).T
        assert float(np.max(np.abs(radial_system_residual(params, mesh, P)))) == err.value.residual

    def test_rejects_bad_tolerance(self):
        params = ModelParams(N=2, n1=1, n2=1)
        with pytest.raises(ValueError):
            solve_radial_P(params, radial_mesh(n=1000), tol=0.0)


class TestSolveBanded:
    @staticmethod
    def system(kl=2, ku=3, n=40):
        rng = np.random.default_rng(7)
        bands = rng.standard_normal((kl + ku + 1, n))
        bands[ku] += 4.0
        return (kl, ku), bands, rng.standard_normal(n)

    @staticmethod
    def workspace(kl, bands):
        ab = np.zeros((kl + bands.shape[0], bands.shape[1]), order="F")
        ab[kl:] = bands
        return ab

    def test_matches_scipy_bitwise(self):
        (kl, ku), bands, b = self.system()
        want = scipy.linalg.solve_banded((kl, ku), bands, b)
        got = radial.solve_banded((kl, ku), self.workspace(kl, bands), b.copy())
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("where", ["ab", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, where, value):
        (kl, ku), bands, b = self.system()
        ab = self.workspace(kl, bands)
        (ab if where == "ab" else b)[..., 5] = value
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            radial.solve_banded((kl, ku), ab, b)

    def test_zero_column_raises_lin_alg_error(self):
        (kl, ku), bands, b = self.system()
        ab = self.workspace(kl, bands)
        ab[:, 5] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError, match="singular matrix"):
            radial.solve_banded((kl, ku), ab, b)


class TestLapackWithoutScipyLinalg:
    """``dgbsv`` comes from scipy's ``_flapack`` extension, not ``scipy.linalg``.

    Each check runs in a fresh interpreter, since this one has imported
    ``scipy.linalg`` already.
    """

    @staticmethod
    def run(script, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
            timeout=300,
        )

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        result = self.run("import sys, vortexlab.cli; print('scipy.linalg' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    @pytest.mark.parametrize(
        "imports",
        ["import vortexlab.radial; import scipy.linalg.lapack",
         "import scipy.linalg.lapack; import vortexlab.radial"],
        ids=["vortexlab-first", "scipy-first"],
    )
    def test_dgbsv_is_scipys_wrapper(self, imports):
        script = (f"{imports}\nimport scipy, vortexlab\n"
                  "print(vortexlab.radial.dgbsv is scipy.linalg.lapack.dgbsv)")
        result = self.run(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"

    def test_private_flapack_imports_after_vortexlab(self):
        # vortexlab loads the module without binding it on scipy.linalg;
        # both import paths still reach the same module and wrapper.
        script = ("import vortexlab.radial\n"
                  "from scipy.linalg import _flapack\n"
                  "import scipy.linalg.lapack\n"
                  "print(_flapack.dgbsv is scipy.linalg.lapack.dgbsv is vortexlab.radial.dgbsv)")
        result = self.run(script)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"

    def test_solve_radial_runs_with_scipy_linalg_refused(self):
        script = (
            "import runpy, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy.linalg' or name.startswith('scipy.linalg.'):\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "sys.argv = ['vortexlab'] + sys.argv[1:]\n"
            "runpy.run_module('vortexlab.cli', run_name='__main__', alter_sys=True)\n"
        )
        result = self.run(script, "solve-radial", "--N", "2")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("# ")


class TestStoredFields:
    def test_energy_field_is_not_stored(self):
        names = {f.name for f in dataclasses.fields(RadialSolution)}
        assert names == {"params", "mesh", "P", "u", "iterations", "residual"}

    def test_solved_and_loaded_E_are_bitwise_expm1_of_u(self, tmp_path, capsys):
        csv = tmp_path / "radial.csv"
        assert main(["solve-radial", "--N", "3", "--n2", "2", "--nodes", "1000",
                     "--out", str(csv)]) == 0
        capsys.readouterr()
        solved = solve(ModelParams(N=3, n1=1, n2=2), n=1000)
        for sol in (solved, _load_radial_csv(str(csv))):
            np.testing.assert_array_equal(sol.E, np.expm1(2.0 * sol.u))
        assert solved.E is not solved.E  # a new array on each read


class TestReconstruct:
    def test_origin_limits(self):
        params = ModelParams(N=2, n1=1, n2=1)
        ps = reconstruct_profiles(solve(params, n=4000))
        # f -> 2*n1 + 2*(N-1)*n2 and f_NA -> 2*(n1 - n2) at the axis.
        assert abs(ps.f[0] - 4.0) < 0.02 * 4.0
        assert abs(ps.f_NA[0]) < 0.02
        assert abs(ps.f[-1]) < 1e-3 and abs(ps.f_NA[-1]) < 1e-3
        assert np.all(ps.Q1 > 0.0) and np.all(ps.Q2 > 0.0)
        assert abs(ps.Q1[-1] - 1.0) < 1e-3 and abs(ps.Q2[-1] - 1.0) < 1e-3

    def test_asymmetric_origin_limits(self):
        params = ModelParams(N=3, n1=1, n2=2)
        ps = reconstruct_profiles(solve(params, n=4000))
        assert abs(ps.f[0] - (2.0 + 4.0 * 2.0)) < 0.02 * 10.0
        assert abs(ps.f_NA[0] - (-2.0)) < 0.02 * 2.0


class TestOdeResidual:
    def test_vacuum_state_is_exact(self):
        mesh = radial_mesh(n=1000)
        from vortexlab.radial import ProfileSet

        ones = np.ones(mesh.n)
        zeros = np.zeros(mesh.n)
        ps = ProfileSet(mesh=mesh, f=zeros, f_NA=zeros, Q1=ones, Q2=ones)
        # Zero up to rounding in the nonuniform difference weights.
        assert ode_residual(ps, ModelParams(N=2, n1=1, n2=1)) < 1e-12

    def test_cross_formulation_consistency(self):
        # The half-integer instance reproduces the minimal-vortex profile
        # boundary data, so the reconstructed profiles must satisfy the
        # first-order system.
        params = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
        ps = reconstruct_profiles(solve(params, n=4000))
        assert abs(ps.f[0] - 1.0) < 0.02
        assert abs(ps.f_NA[0] - 1.0) < 0.02
        assert ode_residual(ps, params) < 1e-4


@pytest.fixture(scope="module")
def solved():
    return solve_profile_bps(2, r_max=30.0, tol=1e-10, n=24000)


class TestProfileSolver:
    def test_far_field(self, solved):
        assert abs(solved.Q1[-1] - 1.0) < 1e-3
        assert abs(solved.Q2[-1] - 1.0) < 1e-3
        assert abs(solved.f[-1]) < 1e-3
        assert abs(solved.f_NA[-1]) < 1e-3

    def test_system_residual(self, solved):
        params = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
        assert ode_residual(solved, params) < 1e-6

    def test_monotone_profiles(self, solved):
        r = solved.mesh.r
        inner = r < 5.0
        assert np.all(np.diff(solved.f[inner]) < 1e-12)
        assert np.all(np.diff(solved.f_NA[inner]) < 1e-12)
        assert np.all(np.diff(solved.Q1[inner]) > -1e-12)

    def test_near_origin_exponent(self, solved):
        r = solved.mesh.r
        first_decade = (r >= r[0]) & (r <= 10.0 * r[0])
        slope = np.polyfit(np.log(r[first_decade]), np.log(solved.Q1[first_decade]), 1)[0]
        assert abs(slope - 1.0) < 0.05

    def test_matches_half_integer_radial_solve(self, solved):
        params = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
        ps = reconstruct_profiles(solve(params, n=4000))
        # Q2(0+) from two independent formulations.
        assert solved.c2 == pytest.approx(ps.Q2[0], abs=1e-3)

    def test_residual_second_order(self):
        params = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
        coarse = ode_residual(solve_profile_bps(2, n=3000), params)
        fine = ode_residual(solve_profile_bps(2, n=5999), params)
        assert coarse / fine >= 3.0

    def test_higher_rank(self):
        ps = solve_profile_bps(3, n=12000)
        params = ModelParams(N=3, n1=0.5, n2=0.0, theorem_mode=False)
        assert ode_residual(ps, params) < 1e-5
        assert abs(ps.Q1[-1] - 1.0) < 1e-3

    def test_nonconvergence_diagnostics(self):
        with pytest.raises(NonConvergenceError) as err:
            solve_profile_bps(2, n=2000, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10
        assert err.value.last_iterate is not None

    @pytest.mark.parametrize("N", [2, 3])
    def test_banded_jacobian_matches_finite_differences(self, monkeypatch, N):
        captured = {}
        newton = radial._damped_newton

        def capture(system, jacobian, bands, z, *args, **kwargs):
            captured.update(system=system, jacobian=jacobian, bands=bands, z=z.copy())
            return newton(system, jacobian, bands, z, *args, **kwargs)

        monkeypatch.setattr(radial, "_damped_newton", capture)
        solve_profile_bps(N, n=1000)
        system, z, (lower, upper) = captured["system"], captured["z"], captured["bands"]
        # The LAPACK workspace, filled with NaN: the Jacobian must write all of it.
        ab = np.full((2 * lower + upper + 1, z.size), np.nan, order="F")
        captured["jacobian"](z, ab)
        assert not np.any(ab[:lower])  # the rows left for the fill-in
        # Columns lower + upper + 1 apart touch disjoint rows, so one central
        # difference per colour gives every band entry of those columns.
        width, step = lower + upper + 1, 1e-6
        fd = np.zeros((width, z.size))
        for colour in range(width):
            dz = np.zeros(z.size)
            dz[colour::width] = step
            diff = (system(z + dz) - system(z - dz)) / (2.0 * step)
            cols = np.arange(colour, z.size, width)
            for band_row in range(width):
                rows = cols + band_row - upper
                inside = (rows >= 0) & (rows < z.size)
                fd[band_row, cols[inside]] = diff[rows[inside]]
        assert np.max(np.abs(ab[lower:] - fd)) < 1e-7

    def test_traced_peak_is_below_two_band_workspaces(self, traced_peak):
        # The (16, 96002) LAPACK workspace is 12.3 MB; a solve that copied the
        # Jacobian into a fresh workspace at each step peaked at 38.8 MB.
        n = 24000
        workspace = 16 * (4 * n + 2) * 8
        solve_profile_bps(2, n=2000)  # first-call allocations outside the trace
        peak = traced_peak(lambda: solve_profile_bps(2, n=n))
        assert peak < 2 * workspace

    def test_traced_peak_is_below_one_band_workspace_and_seven_vectors(self, traced_peak):
        # The workspace and its factors are released before each line search,
        # so the trials' residuals never coexist with them: 15.6 MB, where
        # keeping the workspace through the line search peaked at 19.8 MB.
        n = 24000
        vector = (4 * n + 2) * 8
        solve_profile_bps(2, n=2000)  # first-call allocations outside the trace
        peak = traced_peak(lambda: solve_profile_bps(2, n=n))
        assert peak < 16 * vector + 7 * vector

    def test_rejects_bad_rank(self):
        for N in (1, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="rank N"):
                solve_profile_bps(N)

    def test_rejects_negative_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_profile_bps(2, n=2000, max_iter=-1)


@pytest.mark.parametrize("max_iter", [2.5, math.nan, math.inf, 2.0])
@pytest.mark.parametrize("solver", ["radial", "profile", "planar"])
def test_non_integral_max_iter_is_rejected(solver, max_iter):
    # Each solver iterates over range(max_iter), which takes no float.
    params = ModelParams(N=2)
    solve = {
        "radial": lambda: solve_radial_P(params, radial_mesh(n=1000), max_iter=max_iter),
        "profile": lambda: solve_profile_bps(2, n=2000, max_iter=max_iter),
        "planar": lambda: solve_planar(params, PlanarGrid(15.0, 16), max_iter=max_iter),
    }[solver]
    with pytest.raises(ValueError, match=f"max_iter must be an integer, got {max_iter!r}"):
        solve()
