"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE k [PASS|FAIL]`` line (visible with
``pytest -s``) followed by the individual checks, then asserts them all.

Criterion 3 (n1 == n2) compares the fitted field decay rate with the same
fit applied to ``K0(sqrt(2*lambda3) r)``, the only mode such a solution
carries; the README section "Decay modes" gives the reason.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import k0

from vortexlab.functional import DiscreteFunctional, PlanarGrid
from vortexlab.model import (
    ModelParams,
    component_flux_targets,
    coupling_matrix,
    flux_targets,
    spectral_constants,
)
from vortexlab.planar import solve_planar
from vortexlab.radial import radial_mesh, solve_profile_bps, solve_radial_P
from vortexlab.verify import cross_validate, decay_fit, flux_integrals

PI = math.pi


def criterion(num, desc, checks):
    """Print one pass/fail line per criterion, then assert every check."""
    ok = all(passed for _, passed, _ in checks)
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}")
    for label, passed, detail in checks:
        print(f"    {'ok  ' if passed else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num}: " + "; ".join(label for label, p, _ in checks if not p)


def field_fit(sol, window=(10.0, 14.0)):
    rec = {r["quantity"]: r for r in decay_fit(sol, window=window)}
    return rec["field"]


def k0_fitted_rate(r, k, window):
    """Rate the log-linear fit of ``decay_fit`` gives ``K0(k r)`` on the nodes in ``window``."""
    rw = r[(r >= window[0]) & (r <= window[1])]
    return -float(np.polyfit(rw, np.log(k0(k * rw)), 1)[0])


# ---------------------------------------------------------------------------
# shared solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def params_rank2():
    return ModelParams(N=2, n1=1, n2=1, tau=1.0)


@pytest.fixture(scope="module")
def radial_rank2(params_rank2):
    return solve_radial_P(params_rank2, radial_mesh(r_max=30.0, n=4000), tol=1e-9)


@pytest.fixture(scope="module")
def radial_rank2_fine(params_rank2):
    return solve_radial_P(params_rank2, radial_mesh(r_max=30.0, n=7999), tol=1e-9)


@pytest.fixture(scope="module")
def planar_rank2(params_rank2):
    grid = PlanarGrid(half_width=15.0, points_per_side=512)
    return solve_planar(params_rank2, grid, tol=1e-8)


@pytest.fixture(scope="module")
def planar_rank2_fine(params_rank2, radial_rank2):
    # Criterion 8 compares fluxes only, so this solve may start from the
    # radial solution: the same minimizer in about half the Newton steps.
    grid = PlanarGrid(half_width=15.0, points_per_side=1024)
    return solve_planar(params_rank2, grid, tol=1e-8, initial=radial_rank2)


@pytest.fixture(scope="module")
def planar_rank2_random(params_rank2):
    grid = PlanarGrid(half_width=15.0, points_per_side=512)
    rng = np.random.default_rng(20240)
    n = grid.points_per_side
    init = np.zeros((2, n, n))
    init[0, 1:-1, 1:-1] = rng.uniform(-0.5, 0.5, (n - 2, n - 2))
    init[1, 1:-1, 1:-1] = rng.uniform(-0.5, 0.5, (n - 2, n - 2))
    return solve_planar(params_rank2, grid, tol=1e-8, initial=init)


def flux_errors(sol):
    out = flux_integrals(sol)
    rec1, rec2 = out["flux"]
    return rec1, rec2, out["component_flux"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_algebra_suite():
    t0 = time.time()
    checks = []
    worst = {"rowsum": 0.0, "lr": 0.0, "gamma_ok": True, "sym": 0.0, "lam0": 1e9,
             "lam3": 0.0, "lam4": 0.0, "m": 0.0, "p": 0.0, "q": 0.0}
    for N in range(2, 65):
        params = ModelParams(N=N, n1=1, n2=1)
        cd = coupling_matrix(params)
        sc = spectral_constants(cd)
        worst["rowsum"] = max(worst["rowsum"], float(np.max(np.abs(cd.A @ np.ones(2) - N))) / N)
        worst["lr"] = max(worst["lr"], float(np.max(np.abs(cd.L @ cd.R - cd.A))) / N)
        worst["gamma_ok"] &= 0.5 < cd.gamma < 2.0 / 3.0
        worst["sym"] = max(worst["sym"], abs(cd.M[0, 1] - cd.M[1, 0]))
        worst["lam0"] = min(worst["lam0"], sc.lambda0)
        worst["lam3"] = max(worst["lam3"], abs(sc.lambda3 - N) / N)
        worst["lam4"] = max(worst["lam4"], abs(sc.lambda4 - 0.5))
        worst["m"] = max(worst["m"], abs(sc.m - 2.0 / (N - 1.0) ** 2))
        worst["p"] = max(worst["p"], abs(sc.p - 2.0 / (N - 1.0)))
        worst["q"] = max(worst["q"], abs(sc.q + 2.0))
    cd2 = coupling_matrix(ModelParams(N=2, n1=1, n2=1))
    checks.append(("A row sums equal N", worst["rowsum"] < 1e-12, f"max rel dev {worst['rowsum']:.2e}"))
    checks.append(("L @ R == A", worst["lr"] < 1e-12, f"max rel dev {worst['lr']:.2e}"))
    checks.append(("gamma in (1/2, 2/3)", worst["gamma_ok"], "all ranks"))
    checks.append(("M symmetric, lambda0 > 0", worst["sym"] == 0.0 and worst["lam0"] > 0.0,
                   f"asym {worst['sym']:.1e}, min lambda0 {worst['lam0']:.3f}"))
    checks.append(("lambda3 == N", worst["lam3"] < 1e-12, f"max rel dev {worst['lam3']:.2e}"))
    checks.append(("lambda4 == 1/2", worst["lam4"] < 1e-12, f"max dev {worst['lam4']:.2e}"))
    checks.append(("m == 2/(N-1)^2", worst["m"] < 1e-12, f"max dev {worst['m']:.2e}"))
    checks.append(("p == 2/(N-1)", worst["p"] < 1e-12, f"max dev {worst['p']:.2e}"))
    checks.append(("q == -2", worst["q"] < 1e-12, f"max dev {worst['q']:.2e}"))
    checks.append(("rank-2 coefficients are (5/4, 3/4)",
                   cd2.A[0, 0] == 1.25 and cd2.A[0, 1] == 0.75
                   and cd2.A[1, 0] == 0.75 and cd2.A[1, 1] == 1.25, "exact"))
    criterion(1, f"algebra suite, ranks 2..64 ({time.time() - t0:.2f}s)", checks)


def test_criterion_2_gradient_hessian_suite():
    t0 = time.time()
    params = ModelParams(N=2, n1=1, n2=1)
    grid = PlanarGrid(half_width=15.0, points_per_side=33)
    func = DiscreteFunctional(params, grid)
    rng = np.random.default_rng(11)
    n = grid.points_per_side

    def random_pair(scale=0.3):
        fp = np.zeros((2, n, n))
        fp[0, 1:-1, 1:-1] = scale * rng.standard_normal((n - 2, n - 2))
        fp[1, 1:-1, 1:-1] = scale * rng.standard_normal((n - 2, n - 2))
        return fp

    # Oracle: central finite differences of the discrete energy.
    worst_rel = 0.0
    eps = 1e-6
    for _ in range(20):
        fp = random_pair()
        g = func.gradient(fp)
        scale = np.max(np.abs(g))
        err = 0.0
        for w, ga in zip(fp, g):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    orig = w[i, j]
                    w[i, j] = orig + eps
                    ep = func.energy(fp)
                    w[i, j] = orig - eps
                    em = func.energy(fp)
                    w[i, j] = orig
                    err = max(err, abs((ep - em) / (2.0 * eps) - ga[i, j]))
        worst_rel = max(worst_rel, err / scale)

    min_curv = math.inf
    eps2 = 1e-4
    for _ in range(100):
        fp = random_pair()
        d = random_pair(scale=1.0)
        plus = fp + eps2 * d
        minus = fp - eps2 * d
        curv = (func.energy(plus) - 2.0 * func.energy(fp) + func.energy(minus)) / eps2**2
        min_curv = min(min_curv, curv)

    convex_ok = True
    for _ in range(100):
        u = random_pair(scale=0.5)
        v = random_pair(scale=0.5)
        mid = 0.5 * (u + v)
        eu, ev, em = func.energy(u), func.energy(v), func.energy(mid)
        convex_ok &= em <= 0.5 * (eu + ev) + 1e-10 * (1.0 + abs(eu) + abs(ev))

    checks = [
        ("gradient vs central differences, 20 fields", worst_rel < 1e-6,
         f"max rel sup error {worst_rel:.2e} < 1e-6"),
        ("positive directional second differences, 100 directions", min_curv > 0.0,
         f"min curvature {min_curv:.3e}"),
        ("midpoint convexity, 100 pairs", convex_ok, "holds"),
    ]
    criterion(2, f"gradient/Hessian suite, 33x33 grid ({time.time() - t0:.2f}s)", checks)


def test_criterion_3_radial_rank2(params_rank2, radial_rank2):
    t0 = time.time()
    params = params_rank2
    cd = coupling_matrix(params)
    sc = spectral_constants(cd)
    sol = radial_rank2
    rec1, rec2, comp = flux_errors(sol)
    fit = field_fit(sol)
    rate = fit["fitted_rate"]
    c_t = component_flux_targets(params, cd)
    k = math.sqrt(2.0 * sc.lambda3)
    rate_k0 = k0_fitted_rate(sol.mesh.r, k, fit["window"])
    checks = [
        ("radial system residual < 1e-8", sol.residual < 1e-8, f"{sol.residual:.2e}"),
        ("component fluxes within 0.5% of (-2pi, -2pi)",
         comp["abs_error_E1"] < 0.005 * abs(c_t[0]) and comp["abs_error_E2"] < 0.005 * abs(c_t[1]),
         f"errors {comp['abs_error_E1']:.2e}, {comp['abs_error_E2']:.2e}"),
        ("theorem flux 1 within 0.5% of -16pi", rec1["rel_error"] < 0.005,
         f"rel {rec1['rel_error']:.2e}"),
        ("theorem flux 2 within 0.005*16pi of 0", rec2["abs_error"] < 0.005 * 16.0 * PI,
         f"abs {rec2['abs_error']:.2e}"),
        ("fitted field decay rate within 1e-3 of the K0(sqrt(2*lambda3) r) fit",
         abs(rate - rate_k0) < 1e-3,
         f"fitted {rate:.5f}, K0 fit {rate_k0:.5f}, sqrt(2*lambda3) = {k:.4f}"),
        ("fitted field decay rate >= 0.85*sqrt(lambda0) = 0.85", rate >= 0.85,
         f"fitted {rate:.4f}"),
    ]
    criterion(3, f"radial solve, rank 2, n=(1,1), 4000 nodes ({time.time() - t0:.2f}s)", checks)


def test_criterion_4_radial_rank3():
    t0 = time.time()
    params = ModelParams(N=3, n1=1, n2=2)
    cd = coupling_matrix(params)
    sc = spectral_constants(cd)
    sol = solve_radial_P(params, radial_mesh(r_max=30.0, n=4000), tol=1e-9)
    rec1, rec2, _ = flux_errors(sol)
    rate = field_fit(sol)["fitted_rate"]
    bound = 0.85 * math.sqrt(sc.lambda0)
    t1, t2 = flux_targets(params, sc)
    checks = [
        ("targets are (-18pi, +12pi)",
         abs(t1 + 18.0 * PI) < 1e-12 and abs(t2 - 12.0 * PI) < 1e-12,
         f"({t1:.6f}, {t2:.6f})"),
        ("theorem fluxes within 1%",
         rec1["rel_error"] < 0.01 and rec2["rel_error"] < 0.01,
         f"rel errors {rec1['rel_error']:.2e}, {rec2['rel_error']:.2e}"),
        ("fitted decay rate >= 0.85*sqrt(lambda0)", rate >= bound,
         f"fitted {rate:.4f} >= {bound:.4f}"),
    ]
    criterion(4, f"radial solve, rank 3, n=(1,2) ({time.time() - t0:.2f}s)", checks)


def test_criterion_5_planar_rank2(radial_rank2, planar_rank2):
    t0 = time.time()
    sol = planar_rank2
    rec1, rec2, _ = flux_errors(sol)
    cross = cross_validate(radial_rank2, sol)
    u = sol.u
    sym = max(float(np.max(np.abs(u - u[:, ::-1, :]))), float(np.max(np.abs(u - u[:, :, ::-1]))))
    checks = [
        ("converged at tol 1e-8", sol.final_gradient_norm < 1e-8,
         f"EL residual {sol.final_gradient_norm:.2e} in {sol.iterations} Newton steps"),
        ("theorem flux 1 within 2%", rec1["rel_error"] < 0.02, f"rel {rec1['rel_error']:.2e}"),
        ("theorem flux 2 within 0.02*16pi", rec2["abs_error"] < 0.02 * 16.0 * PI,
         f"abs {rec2['abs_error']:.2e}"),
        ("radial-vs-planar sup difference < 5e-3 on [0.5, 10]",
         cross["sup_difference"] < 5e-3, f"{cross['sup_difference']:.2e}"),
        ("four-fold symmetry within 1e-9", sym < 1e-9, f"{sym:.2e}"),
    ]
    criterion(5, f"planar solve, rank 2, 512^2, L=15 ({time.time() - t0:.2f}s)", checks)


def test_criterion_6_uniqueness(planar_rank2, planar_rank2_random):
    t0 = time.time()
    diff = float(np.max(np.abs(planar_rank2.w - planar_rank2_random.w)))
    checks = [
        ("zero and random initializations agree < 1e-6", diff < 1e-6, f"sup diff {diff:.2e}"),
        ("both runs converged at tol 1e-8",
         planar_rank2.final_gradient_norm < 1e-8 and planar_rank2_random.final_gradient_norm < 1e-8,
         f"{planar_rank2.iterations} and {planar_rank2_random.iterations} Newton steps"),
    ]
    criterion(6, f"uniqueness probe, two initializations ({time.time() - t0:.2f}s)", checks)


def test_criterion_7_profile_rank2():
    t0 = time.time()
    ps = solve_profile_bps(2, r_max=30.0, tol=1e-10)
    params = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
    from vortexlab.radial import ode_residual

    res = ode_residual(ps, params)
    r = ps.mesh.r
    first_decade = (r >= r[0]) & (r <= 10.0 * r[0])
    slope = float(np.polyfit(np.log(r[first_decade]), np.log(ps.Q1[first_decade]), 1)[0])
    checks = [
        ("first-order system residual < 1e-6", res < 1e-6, f"{res:.2e}"),
        ("Q1, Q2 -> 1 at r_max within 1e-3",
         abs(ps.Q1[-1] - 1.0) < 1e-3 and abs(ps.Q2[-1] - 1.0) < 1e-3,
         f"{abs(ps.Q1[-1] - 1.0):.1e}, {abs(ps.Q2[-1] - 1.0):.1e}"),
        ("f, f_NA -> 0 at r_max within 1e-3",
         abs(ps.f[-1]) < 1e-3 and abs(ps.f_NA[-1]) < 1e-3,
         f"{abs(ps.f[-1]):.1e}, {abs(ps.f_NA[-1]):.1e}"),
        ("near-origin exponent of Q1 within 5% of 1", abs(slope - 1.0) < 0.05,
         f"fitted {slope:.4f}"),
    ]
    criterion(7, f"profile solve, rank 2 ({time.time() - t0:.2f}s)", checks)


def test_criterion_8_refinement(radial_rank2, radial_rank2_fine, planar_rank2, planar_rank2_fine):
    t0 = time.time()

    def flux1_error(sol):
        rec1, _, comp = flux_errors(sol)
        return rec1["abs_error"], comp["abs_error_E1"]

    r_coarse, rc_comp = flux1_error(radial_rank2)
    r_fine, rf_comp = flux1_error(radial_rank2_fine)
    p_coarse, _ = flux1_error(planar_rank2)
    p_fine, _ = flux1_error(planar_rank2_fine)
    checks = [
        ("radial theorem-flux error drops >= 3x", r_coarse / r_fine >= 3.0,
         f"{r_coarse:.2e} -> {r_fine:.2e} (factor {r_coarse / r_fine:.2f})"),
        ("radial component-flux error drops >= 3x", rc_comp / rf_comp >= 3.0,
         f"{rc_comp:.2e} -> {rf_comp:.2e} (factor {rc_comp / rf_comp:.2f})"),
        ("planar theorem-flux error drops >= 3x", p_coarse / p_fine >= 3.0,
         f"{p_coarse:.2e} -> {p_fine:.2e} (factor {p_coarse / p_fine:.2f})"),
    ]
    criterion(8, f"refinement: halved spacings in criteria 3 and 5 ({time.time() - t0:.2f}s)", checks)
