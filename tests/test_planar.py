"""Planar Newton-CG solver: convergence, symmetry, uniqueness, slices."""

import dataclasses

import numpy as np
import pytest

from vortexlab import functional, planar
from vortexlab.cli import main, parse_report
from vortexlab.errors import FieldOverflowError, NonConvergenceError
from vortexlab.functional import DiscreteFunctional, PlanarGrid
from vortexlab.model import BackgroundField, ModelParams, background, coupling_matrix
from vortexlab.planar import (
    PlanarSolution,
    _newton_direction,
    _smooth_parts,
    boundary_values,
    extract_radial_slice,
    radial_start,
    solve_planar,
)
from vortexlab.radial import radial_mesh, solve_radial_P
from vortexlab.verify import cross_validate


def make(N=2, n1=1, n2=1, tau=1.0, theorem_mode=None):
    if theorem_mode is None:
        theorem_mode = not (n1 == 0 and n2 == 0)
    return ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem_mode)


@pytest.fixture(scope="module")
def default_solution():
    params = make()
    grid = PlanarGrid(half_width=15.0, points_per_side=128)
    return params, grid, solve_planar(params, grid, tol=1e-8)


class TestVacuum:
    def test_zero_field_is_exact(self):
        params = make(n1=0, n2=0)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        sol = solve_planar(params, grid, tol=1e-8)
        assert sol.final_gradient_norm < 1e-8 and sol.iterations <= 2
        assert sol.final_energy == 0.0
        assert np.max(np.abs(sol.w[0])) == 0.0
        assert np.max(np.abs(sol.u[0])) == 0.0

    def test_vacuum_slice_is_zero(self):
        params = make(n1=0, n2=0)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        sol = solve_planar(params, grid, tol=1e-8)
        _, u = extract_radial_slice(sol)
        assert np.max(np.abs(u)) == 0.0


class TestSolve:
    def test_converged_metadata(self, default_solution):
        *_, sol = default_solution
        assert sol.final_gradient_norm < 1e-8
        assert sol.iterations > 0 and sol.cg_iterations > 0
        assert sol.final_energy < 0.0

    def test_energy_monotone_nonincreasing(self, default_solution):
        *_, sol = default_solution
        hist = np.array(sol.energy_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_boundary_pins_fields_to_zero(self, default_solution):
        *_, sol = default_solution
        for u in sol.u:
            edge = np.concatenate([u[0, :], u[-1, :], u[:, 0], u[:, -1]])
            assert np.max(np.abs(edge)) < 1e-14

    def test_four_fold_symmetry(self, default_solution):
        *_, sol = default_solution
        for u in sol.u:
            assert np.max(np.abs(u - u[::-1, :])) < 1e-9
            assert np.max(np.abs(u - u[:, ::-1])) < 1e-9

    def test_fields_within_sanity_bounds(self, default_solution):
        *_, sol = default_solution
        assert np.all(sol.E > -1.0)
        assert sol.u.max() <= 0.05

    def test_uniqueness_from_random_start(self, default_solution):
        params, grid, sol = default_solution
        rng = np.random.default_rng(5)
        n = grid.points_per_side
        init = np.zeros((2, n, n))
        init[0, 1:-1, 1:-1] = rng.uniform(-0.5, 0.5, (n - 2, n - 2))
        init[1, 1:-1, 1:-1] = rng.uniform(-0.5, 0.5, (n - 2, n - 2))
        other = solve_planar(params, grid, tol=1e-8, initial=init)
        assert other.final_gradient_norm < 1e-8
        assert np.max(np.abs(sol.w - other.w)) < 1e-6

    @pytest.mark.parametrize(
        "shape",
        [(2, 65, 65), (2, 63, 64), (64, 64), (3, 64, 64)],
        ids=["larger", "non-square", "one-species", "three-species"],
    )
    def test_initial_of_wrong_shape_is_rejected(self, shape):
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        with pytest.raises(ValueError, match=r"\(2, 64, 64\)"):
            solve_planar(make(), grid, initial=np.zeros(shape))

    def test_non_finite_initial_is_rejected(self):
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        init = np.zeros((2, 64, 64))
        init[1, 30, 30] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_planar(make(), grid, initial=init)

    def test_edge_of_initial_is_ignored(self):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        rng = np.random.default_rng(9)
        a = rng.uniform(-0.5, 0.5, (2, 64, 64))
        b = a.copy()
        for edge in (b[:, 0, :], b[:, -1, :], b[:, :, 0], b[:, :, -1]):
            edge += 3.0
        sa = solve_planar(params, grid, tol=1e-8, initial=a)
        sb = solve_planar(params, grid, tol=1e-8, initial=b)
        np.testing.assert_array_equal(sa.w, sb.w)
        np.testing.assert_array_equal(sa.u, sb.u)
        assert sa.energy_history == sb.energy_history

    def test_overflow_initial_field_raises(self):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        init = np.zeros((2, 64, 64))
        init[0, 10, 10] = 400.0
        with pytest.raises(FieldOverflowError):
            solve_planar(params, grid, initial=init)

    def test_overflowing_trial_step_is_backtracked(self, monkeypatch):
        # The first full Newton step from this start drives an exponent past
        # a cap of 5; the line search must reject it and backtrack.
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        reference = solve_planar(params, grid, tol=1e-8).w
        monkeypatch.setattr(functional, "EXP_CAP", 5.0)
        init = np.zeros((2, 64, 64))
        init[0, 1:-1, 1:-1] = -1.2
        init[1, 1:-1, 1:-1] = 1.0
        sol = solve_planar(params, grid, tol=1e-8, initial=init)
        assert sol.final_gradient_norm < 1e-8
        assert np.max(np.abs(sol.w - reference)) < 1e-6

    @pytest.mark.parametrize("n", [64, 256])
    def test_cg_iterations_independent_of_grid(self, n):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=n)
        sol = solve_planar(params, grid, tol=1e-8)
        assert sol.cg_iterations <= 5 * sol.iterations

    @pytest.mark.parametrize(
        "N, n_pair, n, newton, cg",
        [
            (2, (1, 1), 64, 6, 12),
            (2, (1, 1), 256, 7, 16),
            (3, (1, 2), 64, 8, 21),
            (3, (1, 2), 256, 8, 22),
        ],
    )
    def test_counts_match_the_float64_preconditioner(self, N, n_pair, n, newton, cg):
        # Newton and CG counts from the zero start with float64 transforms in
        # the preconditioner; float32 transforms must leave them within one.
        params = make(N=N, n1=n_pair[0], n2=n_pair[1])
        sol = solve_planar(params, PlanarGrid(half_width=15.0, points_per_side=n), tol=1e-8)
        assert abs(sol.iterations - newton) <= 1
        assert abs(sol.cg_iterations - cg) <= 1

    def test_cg_vectors_and_iterate_stay_float64(self, default_solution):
        # The preconditioner's float32 transforms stay inside it: every vector
        # the CG hands to the preconditioner or the Hessian, each result, the
        # direction and the converged iterate are float64, on the full grid
        # and on the quadrant.
        params, grid, sol = default_solution
        full = DiscreteFunctional(params, grid)
        w = boundary_values(params, grid)
        k0 = grid.points_per_side // 2 - 1
        quad = DiscreteFunctional(params, grid, quadrant=True)
        for func, w in ((full, w), (quad, w[:, k0:, k0:].copy())):
            dtypes = set()

            def spy(op):
                def apply(x):
                    y = op(x)
                    dtypes.update((x.dtype, y.dtype))
                    return y

                return apply

            hessian_operator = func.hessian_operator
            func.hessian_operator = lambda w: spy(hessian_operator(w))
            g = func.gradient(w)
            d, cg_iters = _newton_direction(func, spy(func.far_field_preconditioner()), w, g, 1e-6)
            assert cg_iters > 1
            assert dtypes == {np.dtype(np.float64)}
            assert d.dtype == np.float64 and d.shape == w.shape
        assert sol.w.dtype == np.float64

    def test_energy_change_resolves_last_newton_decrease(self, default_solution):
        params, grid, sol = default_solution
        func = DiscreteFunctional(params, grid)
        g = func.gradient(sol.w)
        d, _ = _newton_direction(func, func.far_field_preconditioner(), sol.w, g, 1e-6)
        # Along a Newton direction the quadratic model predicts slope / 2.
        predicted = 0.5 * float(np.vdot(g, d))
        energy = func.energy(sol.w)
        assert abs(predicted) < np.spacing(abs(energy))  # below rounding of the total
        change = func.energy_change(sol.w, d)
        assert change < 0.0
        assert change == pytest.approx(predicted, rel=1e-3)

    def test_cg_cap_raises(self, monkeypatch):
        monkeypatch.setattr(planar, "CG_MAX_ITER", 1)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        with pytest.raises(NonConvergenceError, match="conjugate gradient exceeded its iteration cap"):
            solve_planar(make(), grid, tol=1e-8)

    def test_cg_failure_carries_the_iterate(self, monkeypatch):
        # A CG failure in the first Newton step reports the start: its
        # iterate, zero completed steps and its Euler-Lagrange residual.
        monkeypatch.setattr(planar, "CG_MAX_ITER", 0)
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=32)
        with pytest.raises(NonConvergenceError) as err:
            solve_planar(params, grid, tol=1e-8)
        w0 = boundary_values(params, grid)
        residual = float(np.max(np.abs(DiscreteFunctional(params, grid).gradient(w0))))
        assert err.value.last_iterate.shape == (2, 32, 32)
        np.testing.assert_array_equal(err.value.last_iterate, w0)
        assert err.value.iterations == 0
        assert err.value.residual == residual / grid.cell_area

    def test_max_iter_exhaustion(self):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        with pytest.raises(NonConvergenceError) as err:
            solve_planar(params, grid, tol=1e-12, max_iter=1)
        assert err.value.last_iterate is not None


def layouts(monkeypatch):
    """Record the shape of the iterate each solve's Newton loop runs on."""
    seen = []
    minimize = planar._minimize

    def spy(func, w, *args):
        seen.append(w.shape)
        return minimize(func, w, *args)

    monkeypatch.setattr(planar, "_minimize", spy)
    return seen


class TestQuadrant:
    """Symmetric problems and starts on even grids are solved on one quadrant.

    The quadrant CG is the full-grid CG restricted to symmetric vectors, so
    both paths must take the same Newton and CG steps and agree to
    rounding.  The full-grid path is reached through the private
    ``_d2_symmetric`` seam.
    """

    CASES = [
        # (N, n1, n2, tau, half_width, grid, start)
        (2, 1, 1, 1.0, 15.0, 64, "zero"),
        (2, 1, 1, 0.2, 6.0, 48, "zero"),
        (5, 3, 1, 5.0, 25.0, 128, "zero"),
        (2, 0, 0.5, 1.0, 15.0, 64, "zero"),
        (2, 1, 1, 1.0, 15.0, 128, "radial"),
        (3, 1, 2, 1.0, 15.0, 64, "radial"),
    ]

    @staticmethod
    def start(params, grid, kind):
        if kind == "zero":
            return None
        return radial_start(solve_radial_P(params, radial_mesh()), grid)

    @pytest.mark.parametrize("N, n1, n2, tau, L, n, kind", CASES)
    def test_matches_the_full_grid(self, monkeypatch, N, n1, n2, tau, L, n, kind):
        params = make(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=float(n2).is_integer())
        grid = PlanarGrid(half_width=L, points_per_side=n)
        initial = self.start(params, grid, kind)
        seen = layouts(monkeypatch)
        quad = solve_planar(params, grid, tol=1e-8, initial=initial)
        monkeypatch.setattr(planar, "_d2_symmetric", lambda grid, initial: False)
        full = solve_planar(params, grid, tol=1e-8, initial=initial)
        q = n // 2 + 1
        assert seen == [(2, q, q), (2, n, n)]
        assert (quad.iterations, quad.cg_iterations) == (full.iterations, full.cg_iterations)
        assert len(quad.energy_history) == len(full.energy_history)
        assert quad.w.shape == (2, n, n)
        assert np.max(np.abs(quad.w - full.w)) <= 1e-12
        assert quad.final_energy == pytest.approx(full.final_energy, rel=1e-12)
        assert quad.final_gradient_norm < 1e-8

    def test_solution_is_mirror_symmetric(self):
        sol = solve_planar(make(N=3, n2=2), PlanarGrid(half_width=15.0, points_per_side=64))
        np.testing.assert_array_equal(sol.w, sol.w[:, ::-1])
        np.testing.assert_array_equal(sol.w, sol.w[:, :, ::-1])

    @pytest.mark.parametrize("n, kind", [(64, "zero"), (64, "radial"), (65, "zero")])
    def test_symmetric_starts_on_even_grids_take_the_quadrant(self, monkeypatch, n, kind):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=n)
        initial = self.start(params, grid, kind)
        seen = layouts(monkeypatch)
        solve_planar(params, grid, tol=1e-8, initial=initial)
        q = n // 2 + 1 if n % 2 == 0 else n
        assert seen == [(2, q, q)]

    @pytest.mark.parametrize("axis", [1, 2])
    def test_asymmetric_start_takes_the_full_grid(self, monkeypatch, axis):
        # Symmetric under one reflection only: one node pair differs.
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        initial = radial_start(solve_radial_P(params, radial_mesh()), grid)
        index = [0, 20, 20]
        index[axis] = 10
        initial[tuple(index)] += 1e-3
        other = list(index)
        other[3 - axis] = 63 - 20
        initial[tuple(other)] += 1e-3
        seen = layouts(monkeypatch)
        solve_planar(params, grid, tol=1e-8, initial=initial)
        assert seen == [(2, 64, 64)]

    @staticmethod
    def background_sizes(monkeypatch):
        """Record the node count of every background evaluation."""
        sizes = []
        for name in ("_exp_two_u0", "_u0", "_phi"):

            def spy(self, r2, n, evaluate=getattr(BackgroundField, name)):
                sizes.append(np.size(r2))
                return evaluate(self, r2, n)

            monkeypatch.setattr(BackgroundField, name, spy)
        return sizes

    @pytest.mark.parametrize("kind", ["zero", "radial", "random"])
    def test_background_is_evaluated_on_the_layout_only(self, monkeypatch, kind):
        # A quadrant solve builds its problem and start on the (n/2 + 1)^2
        # quadrant nodes alone; a random start takes the full grid.
        params = make(N=3, n2=2)
        n = 64
        grid = PlanarGrid(half_width=15.0, points_per_side=n)
        if kind == "random":
            initial = np.random.default_rng(5).uniform(-0.5, 0.5, (2, n, n))
        else:
            initial = self.start(params, grid, kind)
        sizes = self.background_sizes(monkeypatch)
        sol = solve_planar(params, grid, tol=1e-8, initial=initial)
        assert sol.final_gradient_norm < 1e-8
        assert max(sizes) == (n * n if kind == "random" else (n // 2 + 1) ** 2)

    def test_non_convergence_carries_the_full_iterate(self, monkeypatch):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        seen = layouts(monkeypatch)
        with pytest.raises(NonConvergenceError) as err:
            solve_planar(params, grid, tol=1e-12, max_iter=1)
        assert seen == [(2, 33, 33)]
        w = err.value.last_iterate
        assert w.shape == (2, 64, 64) and err.value.iterations == 1
        np.testing.assert_array_equal(w, w[:, ::-1])
        np.testing.assert_array_equal(w, w[:, :, ::-1])
        edge = np.ones((64, 64), dtype=bool)
        edge[1:-1, 1:-1] = False
        np.testing.assert_array_equal(w[:, edge], boundary_values(params, grid)[:, edge])
        assert np.max(np.abs(w[:, 1:-1, 1:-1])) > 0.0  # one Newton step was taken


class TestStoredFields:
    def test_only_w_and_metadata_are_stored(self):
        names = {f.name for f in dataclasses.fields(PlanarSolution)}
        assert names == {
            "params", "grid", "w", "iterations", "cg_iterations",
            "final_gradient_norm", "energy_history",
        }

    def test_derived_fields_are_bitwise_those_of_w(self):
        params = make(N=3, n2=2)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        sol = solve_planar(params, grid, tol=1e-8)
        bg = background(params)
        r2 = grid.radius_squared()
        u = sol.u
        np.testing.assert_array_equal(u, sol.P + np.stack([bg.u0_1(r2), bg.u0_2(r2)]))
        np.testing.assert_array_equal(sol.E, np.expm1(2.0 * u))
        assert sol.final_energy == sol.energy_history[-1]
        assert sol.u is not sol.u  # a new array on each read


class TestBoundaryValues:
    def test_lifted_data_cancels_background(self):
        params = make()
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        g = boundary_values(params, grid)
        # P = L @ w reproduces -u0 on the edge.
        bg = background(params)
        r2 = grid.radius_squared()
        P1 = g[0]
        P2 = coupling_matrix(params).gamma * g[0] + g[1]
        for P, u0 in ((P1, bg.u0_1(r2)), (P2, bg.u0_2(r2))):
            assert np.max(np.abs(P[0, :] + u0[0, :])) < 1e-15
            assert np.max(np.abs(P[:, -1] + u0[:, -1])) < 1e-15
        assert np.max(np.abs(g[0, 1:-1, 1:-1])) == 0.0


class TestRadialStart:
    CASES = [(2, 1, 1), (3, 1, 2), (5, 2, 1)]

    @staticmethod
    def radial(params):
        return solve_radial_P(params, radial_mesh())

    def test_smooth_parts_interpolate_the_radial_solution(self):
        params = make(N=3, n1=1, n2=2)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        rs = self.radial(params)
        r = np.sqrt(grid.radius_squared())
        P = _smooth_parts(params, radial_start(rs, grid))
        for k in range(2):
            assert np.max(np.abs(P[k] - np.interp(r, rs.mesh.r, rs.P[k]))) < 1e-15

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("N, n1, n2", CASES)
    def test_reaches_the_zero_start_minimizer_in_no_more_steps(self, N, n1, n2, n):
        params = make(N=N, n1=n1, n2=n2)
        grid = PlanarGrid(half_width=15.0, points_per_side=n)
        zero = solve_planar(params, grid, tol=1e-8)
        warm = solve_planar(params, grid, tol=1e-8, initial=radial_start(self.radial(params), grid))
        assert warm.final_gradient_norm < 1e-8
        assert np.max(np.abs(warm.w - zero.w)) < 1e-9
        assert warm.iterations <= zero.iterations

    def test_report_cross_validation_matches_the_zero_start(self, tmp_path):
        # report --planar starts from its radial solution; the cross-validation
        # must not see the start.
        out = tmp_path / "report.json"
        argv = ["report", "--N", "2", "--planar", "--uniqueness", "--grid", "64"]
        assert main(argv + ["--out", str(out)]) == 0
        report = parse_report(out.read_text())
        params = make()
        rs = solve_radial_P(params, radial_mesh(), tol=1e-9)  # the report's default radial solve
        zero = solve_planar(params, PlanarGrid(half_width=15.0, points_per_side=64), tol=1e-8)
        expected = cross_validate(rs, zero)["sup_difference"]
        assert abs(report.cross_validation["sup_difference"] - expected) < 1e-10
        assert report.uniqueness["sup_difference"] < 1e-6


class TestRadialSlice:
    def test_slice_matches_radial_solution(self, default_solution):
        params, grid, sol = default_solution
        bg = background(params)
        mesh = radial_mesh(n=2000)
        rsol = solve_radial_P(params, mesh, tol=1e-9)
        r, u = extract_radial_slice(sol)
        mask = (r >= 0.5) & (r <= 10.0)
        r = r[mask]
        u1 = np.interp(r, mesh.r, rsol.P[0]) + bg.u0_1(r * r)
        u2 = np.interp(r, mesh.r, rsol.P[1]) + bg.u0_2(r * r)
        sup = max(np.max(np.abs(u[0, mask] - u1)), np.max(np.abs(u[1, mask] - u2)))
        assert sup < 5e-3

    def test_slice_boundary_value(self, default_solution):
        *_, sol = default_solution
        _, u = extract_radial_slice(sol)
        # Outermost axis sample sits next to the zero-field edge.
        assert abs(u[0, -1]) < 1e-3
