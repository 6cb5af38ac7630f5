"""Verification operations: fluxes, decay fits, residuals, cross-checks."""

import dataclasses
import math

import numpy as np
import pytest

from vortexlab.functional import PlanarGrid
from vortexlab.model import (
    ModelParams,
    background,
    coupling_matrix,
    flux_targets,
    spectral_constants,
)
from vortexlab.planar import solve_planar
from vortexlab.radial import radial_mesh, solve_radial_P
from vortexlab.verify import (
    build_report,
    cross_validate,
    cross_validation_window,
    decay_fit,
    flux_integrals,
    pde_residual,
    uniqueness_check,
)


def flux1_target(params):
    return flux_targets(params, spectral_constants(coupling_matrix(params)))[0]


@pytest.fixture(scope="module")
def radial_case():
    return solve_radial_P(ModelParams(N=2, n1=1, n2=1), radial_mesh(n=4000), tol=1e-9)


@pytest.fixture(scope="module")
def planar_case():
    grid = PlanarGrid(half_width=15.0, points_per_side=128)
    return solve_planar(ModelParams(N=2, n1=1, n2=1), grid, tol=1e-8)


class TestFluxIntegrals:
    def test_radial_fluxes_hit_targets(self, radial_case):
        out = flux_integrals(radial_case)
        t1 = flux1_target(radial_case.params)
        rec1, rec2 = out["flux"]
        assert rec1["rel_error"] < 0.005
        assert rec2["target"] == 0.0 and rec2["rel_error"] is None
        assert rec2["abs_error"] < 0.005 * abs(t1)
        comp = out["component_flux"]
        assert comp["abs_error_E1"] < 0.005 * abs(comp["target_E1"])
        assert comp["abs_error_E2"] < 0.005 * abs(comp["target_E2"])

    def test_planar_fluxes_hit_targets(self, planar_case):
        out = flux_integrals(planar_case)
        t1 = flux1_target(planar_case.params)
        rec1, rec2 = out["flux"]
        assert rec1["rel_error"] < 0.02
        assert rec2["abs_error"] < 0.02 * abs(t1)

    def test_vacuum_fluxes_are_zero(self):
        params = ModelParams(N=2, n1=0, n2=0, theorem_mode=False)
        out = flux_integrals(solve_radial_P(params, radial_mesh(n=1000), tol=1e-9))
        for rec in out["flux"]:
            assert rec["value"] == 0.0 and rec["target"] == 0.0

    def test_asymmetric_targets(self):
        params = ModelParams(N=2, n1=2, n2=1)
        out = flux_integrals(solve_radial_P(params, radial_mesh(n=2000), tol=1e-9))
        rec1, rec2 = out["flux"]
        assert rec1["target"] == pytest.approx(-24.0 * math.pi)
        assert rec2["target"] == pytest.approx(-8.0 * math.pi)
        assert rec1["rel_error"] < 0.01 and rec2["rel_error"] < 0.01


class TestQuadratureSanity:
    def test_source_quadrature_matches_closed_form(self, radial_case, planar_case):
        rsol = radial_case
        bg = background(rsol.params)
        r = rsol.mesh.r
        quad = float(np.trapezoid(bg.phi_1(r * r) * 2.0 * math.pi * r, r))
        target = bg.phi_disc_integral(1, rsol.mesh.r_max)
        assert abs(quad - target) < 0.005 * 4.0 * math.pi
        # Same check with the planar cell sum over the box.
        psol = planar_case
        h2 = psol.grid.cell_area
        cell = h2 * float(np.sum(bg.phi_1(psol.grid.radius_squared())))
        assert abs(cell - 4.0 * math.pi) < 0.005 * 4.0 * math.pi


class TestDecayFit:
    def test_bounds_for_rank_two(self, radial_case):
        records = decay_fit(radial_case)
        by_name = {r["quantity"]: r for r in records}
        assert by_name["field"]["paper_bound"] == pytest.approx(1.0)
        assert by_name["grad_m2"]["paper_bound"] == pytest.approx(math.sqrt(0.5))
        assert list(by_name) == ["field", "grad_m2", "grad_pq"]

    def test_symmetric_case_rates(self, radial_case):
        sc = spectral_constants(coupling_matrix(radial_case.params))
        records = decay_fit(radial_case)
        by_name = {r["quantity"]: r for r in records}
        field = by_name["field"]
        # One-sided bound holds; the equal-multiplicity solution is a pure
        # fast mode so the fit sits near 2, not near the slow rate 1.
        assert field["fitted_rate"] >= 0.85 * math.sqrt(sc.lambda0)
        assert 1.9 < field["fitted_rate"] < 2.2
        # The rows of A sum to N, so n1 == n2 gives u1 == u2, and p + q = 0
        # at N = 2: p*u1 + q*u2 vanishes identically and the window is
        # entirely below the floating-point floor.
        assert by_name["grad_pq"]["fitted_rate"] is None
        assert "floor" in by_name["grad_pq"]["warning"]

    def test_generic_case_near_linearized_rate(self):
        params = ModelParams(N=3, n1=1, n2=2)
        sc = spectral_constants(coupling_matrix(params))
        records = decay_fit(solve_radial_P(params, radial_mesh(n=4000), tol=1e-9))
        by_name = {r["quantity"]: r for r in records}
        assert by_name["field"]["paper_bound"] == pytest.approx(
            math.sqrt((17.0 - math.sqrt(181.0)) / 6.0)
        )
        assert 0.9 < by_name["field"]["fitted_rate"] < 1.15
        assert by_name["field"]["fitted_rate"] >= 0.85 * by_name["field"]["paper_bound"]
        assert by_name["grad_m2"]["fitted_rate"] >= 0.85 * math.sqrt(sc.lambda_)

    @pytest.mark.parametrize(
        "window",
        [(14.0, 10.0), (10.0, 10.0), (math.nan, 14.0), (10.0, math.inf), (-math.inf, 14.0)],
        ids=["reversed", "empty", "nan", "inf", "minus-inf"],
    )
    def test_bad_window_is_rejected(self, radial_case, window):
        with pytest.raises(ValueError, match="decay window must have finite ends lo < hi"):
            decay_fit(radial_case, window=window)

    @pytest.mark.parametrize("window, count", [((40.0, 50.0), 0), ((29.995, 40.0), 1)],
                             ids=["beyond", "one-node"])
    def test_window_with_fewer_than_two_nodes_says_so(self, radial_case, window, count):
        assert radial_case.mesh.r[-1] == 30.0
        assert np.count_nonzero(radial_case.mesh.r >= window[0]) == count
        for record in decay_fit(radial_case, window=window):
            assert record["fitted_rate"] is None and record["n_points"] <= count
            assert record["warning"] == (
                f"{count} node{'s' * (count != 1)} in the window, fewer than 2; "
                "the nodes span r = 0.0001 to 30"
            )

    def test_planar_solution_supported(self, planar_case):
        records = decay_fit(planar_case, window=(8.0, 12.0))
        by_name = {r["quantity"]: r for r in records}
        assert by_name["field"]["fitted_rate"] is not None


class TestPdeResidual:
    def test_radial_matches_solver(self, radial_case):
        assert pde_residual(radial_case) <= radial_case.residual * (1.0 + 1e-12)

    def test_planar_scaled_gradient(self, planar_case):
        assert pde_residual(planar_case) < 1e-7

    def test_perturbation_jump(self, planar_case):
        # w is derived on each read, so the bumped field is stored on the full grid.
        w = planar_case.w
        n = planar_case.grid.points_per_side
        w[0, n // 2, n // 2] += 1e-3  # P[0] is w[0]
        bumped = dataclasses.replace(planar_case, w_solved=w)
        h2 = bumped.grid.cell_area
        res = pde_residual(bumped)
        assert res == pytest.approx(1e-3 * 4.0 / h2, rel=0.05)


class TestCrossValidate:
    def test_agreement(self, radial_case, planar_case):
        rec = cross_validate(radial_case, planar_case)
        assert rec["sup_difference"] < 5e-3
        assert rec["window"] == [0.5, 10.0]
        assert rec["n_points"] > 10

    def test_mismatched_params_rejected(self, radial_case):
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        psol = solve_planar(ModelParams(N=3, n1=1, n2=2), grid, tol=1e-7)
        with pytest.raises(ValueError):
            cross_validate(radial_case, psol)

    def test_window_is_the_one_cross_validate_uses(self, radial_case, planar_case):
        hi, mask = cross_validation_window(planar_case.grid)
        rec = cross_validate(radial_case, planar_case)
        assert rec["window"] == [0.5, hi]
        assert rec["n_points"] == int(np.count_nonzero(mask))

    def test_small_box_rejected_by_both(self, radial_case):
        grid = PlanarGrid(half_width=5.2, points_per_side=16)
        with pytest.raises(ValueError, match="empty cross-validation window"):
            cross_validation_window(grid)
        psol = solve_planar(ModelParams(N=2, n1=1, n2=1), grid, tol=1e-7)
        with pytest.raises(ValueError, match="empty cross-validation window"):
            cross_validate(radial_case, psol)


class TestReport:
    def test_full_report_structure(self, radial_case, planar_case):
        report = build_report(radial_sol=radial_case, planar_sol=planar_case)
        assert report.params["N"] == 2
        assert set(report.constants) >= {"alpha", "beta", "lambda0", "m", "p", "q"}
        assert len(report.flux) == 2 and len(report.decay) == 3
        assert report.residuals["pde_sup"] < 1e-8
        assert report.residuals["ode_sup"] < 1e-3
        assert report.cross_validation["sup_difference"] < 5e-3
        assert report.uniqueness is None

    def test_uniqueness_section(self, planar_case):
        rec = uniqueness_check(planar_case, planar_case)
        assert rec["sup_difference"] == 0.0

    @pytest.mark.parametrize(
        "half_width, points", [(15.0, 64), (10.0, 32)], ids=["other-grid", "other-box"]
    )
    def test_uniqueness_needs_matching_grids(self, half_width, points):
        # Without the check, a different node count failed to broadcast and a
        # different box at 32^2 compared unrelated nodes (0.135 for L = 15, 10).
        params = ModelParams(N=2, n1=1, n2=1)
        sol = solve_planar(params, PlanarGrid(half_width=15.0, points_per_side=32), tol=1e-7)
        other = solve_planar(params, PlanarGrid(half_width, points), tol=1e-7)
        with pytest.raises(ValueError, match="uniqueness check requires matching grids"):
            uniqueness_check(sol, other)

    def test_report_needs_a_solution(self):
        with pytest.raises(TypeError):
            build_report()
