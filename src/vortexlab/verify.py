"""Executable checks of the solution theory: fluxes, decay rates, residuals.

Every check here turns an analytic statement about the continuum solution
into a measurement on a discrete one:

* the two quantized flux integrals against their closed-form targets, and
  the component integrals of ``(E1, E2)`` against the exact linear-algebra
  values ``inv(A) @ (-4*pi*n)``;
* least-squares exponential decay rates of the field and derivative
  combinations over a far-field window, reported next to the proven
  one-sided bounds (``sqrt(lambda0)``, ``sqrt(lambda)``) -- the bounds are
  one-sided, so a fitted rate may legitimately exceed them;
* scheme-consistent residuals of the governing system;
* uniqueness and radial-vs-planar cross-validation, both direct
  consequences of strict convexity.

Every check takes solutions only: the coupling data, background and
spectral constants it needs are derived from ``sol.params``.  The checks
work on the solutions' species-stacked fields (``sol.u``, ``sol.E``, ...,
leading axis of length 2; ``E`` and a planar ``u`` or ``P`` are derived on
each read, so a check binds each once) and compute both species together.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    ModelParams,
    background,
    component_flux_targets,
    coupling_matrix,
    flux_integrand_rows,
    flux_targets,
    spectral_constants,
)
from .functional import PlanarGrid, _neighbor_sum
from .planar import PlanarSolution, extract_radial_slice
from .radial import (
    RadialSolution,
    central_derivative,
    ode_residual,
    radial_system_residual,
    reconstruct_profiles,
)

__all__ = [
    "VerificationReport",
    "DECAY_FLOOR",
    "scalar_constants",
    "flux_integrals",
    "check_decay_window",
    "decay_fit",
    "pde_residual",
    "cross_validation_window",
    "cross_validate",
    "uniqueness_check",
    "build_report",
]

Solution = Union[RadialSolution, PlanarSolution]

#: Values below this are treated as floating-point noise by the decay fit.
DECAY_FLOOR = 1e-13


@dataclass
class VerificationReport:
    """Structured record of every verification measurement.

    All sections are plain dict/list/scalar data so the report serializes
    losslessly and compares by value.
    """

    params: dict
    constants: dict
    flux: list
    component_flux: dict
    decay: list
    residuals: dict
    uniqueness: Optional[dict] = None
    cross_validation: Optional[dict] = None


def scalar_constants(params: ModelParams) -> dict:
    """The scalar coupling and spectral constants fixed by ``params.N``.

    This is the ``constants`` section of every report and the scalar part
    of the ``constants`` command's output.
    """
    cd = coupling_matrix(params)
    sc = spectral_constants(cd)
    return {
        "alpha": cd.alpha,
        "beta": cd.beta,
        "gamma": cd.gamma,
        "lambda1": sc.lambda1,
        "lambda2": sc.lambda2,
        "lambda0": sc.lambda0,
        "lambda3": sc.lambda3,
        "lambda4": sc.lambda4,
        "lambda": sc.lambda_,
        "m": sc.m,
        "p": sc.p,
        "q": sc.q,
    }


def _flux_sums(sol: Solution) -> np.ndarray:
    """Plane integrals of (E1, E2): trapezoid in r or cell sum on the grid."""
    E = sol.E
    if isinstance(sol, RadialSolution):
        r = sol.mesh.r
        # Plus the inner disc r < r_min, where E is essentially constant.
        return np.trapezoid(E * (2.0 * math.pi * r), r) + math.pi * r[0] ** 2 * E[:, 0]
    return sol.grid.cell_area * np.sum(E, axis=(1, 2))


def flux_integrals(sol: Solution) -> dict:
    """Quadrature of the two flux integrands compared with their targets.

    Also reports the component integrals of ``(E1, E2)`` against the exact
    values fixed by the coupling matrix alone.
    """
    params = sol.params
    cd = coupling_matrix(params)
    sc = spectral_constants(cd)
    s1, s2 = (float(s) for s in _flux_sums(sol))
    rows = flux_integrand_rows(cd, sc)
    targets = flux_targets(params, sc)
    records = []
    for k in range(2):
        value = float(rows[k, 0] * s1 + rows[k, 1] * s2)
        target = targets[k]
        abs_err = abs(value - target)
        records.append(
            {
                "name": f"flux{k + 1}",
                "value": value,
                "target": target,
                "abs_error": abs_err,
                "rel_error": abs_err / abs(target) if target != 0.0 else None,
            }
        )
    comp_targets = component_flux_targets(params, cd)
    component = {
        "value_E1": s1,
        "value_E2": s2,
        "target_E1": float(comp_targets[0]),
        "target_E2": float(comp_targets[1]),
        "abs_error_E1": abs(s1 - comp_targets[0]),
        "abs_error_E2": abs(s2 - comp_targets[1]),
    }
    return {"flux": records, "component_flux": component}


def _fit_rate(r: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> dict:
    """Least-squares slope of ln(values) on the window, floor-aware."""
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    requested = int(np.count_nonzero(mask))
    mask &= np.isfinite(values) & (values > DECAY_FLOOR)
    n_used = int(np.count_nonzero(mask))
    warning = None
    if n_used < 2:
        if requested < 2:
            warning = (f"{requested} node{'s' * (requested != 1)} in the window, fewer than 2; "
                       f"the nodes span r = {r[0]:g} to {r[-1]:g}")
        else:
            warning = "window entirely below the floating-point floor"
        return {"window": [lo, hi], "fitted_rate": None, "n_points": n_used, "warning": warning}
    if n_used < requested:
        warning = "window shrunk: values at or below the floating-point floor dropped"
    rw = r[mask]
    slope = float(np.polyfit(rw, np.log(values[mask]), 1)[0])
    return {
        "window": [float(rw[0]), float(rw[-1])],
        "fitted_rate": -slope,
        "n_points": n_used,
        "warning": warning,
    }


def _axis_fields(sol: Solution) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(sol, RadialSolution):
        return sol.mesh.r, sol.u
    return extract_radial_slice(sol)


def check_decay_window(window: tuple[float, float]) -> None:
    """Raise ``ValueError`` unless ``window`` has finite ends ``lo < hi``."""
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"decay window must have finite ends lo < hi, got {list(window)}")


def decay_fit(sol: Solution, window: tuple[float, float] = (10.0, 14.0)) -> list:
    """Fitted exponential decay rates of the tracked far-field quantities.

    Tracked: the weighted field vector ``|(p*u1, 2*u2)|`` and the radial
    derivatives of ``m*u1 + 2*u2`` and ``p*u1 + q*u2``.  The field record
    carries the bound ``sqrt(lambda0)``, derivative records
    ``sqrt(lambda)``.  The bounds are one-sided: the slow decay mode is
    absent whenever ``n1 == n2``, at every rank, because the rows of ``A``
    sum to ``N`` and so ``u1 == u2`` solves the system; the fitted rate then
    sits near the fast-mode rate ``sqrt(2*lambda3)`` instead of 1.

    The window ``(lo, hi)`` must pass :func:`check_decay_window`.
    """
    check_decay_window(window)
    sc = spectral_constants(coupling_matrix(sol.params))
    r, u = _axis_fields(sol)
    m, p, q = sc.m, sc.p, sc.q
    grad_bound = math.sqrt(sc.lambda_)

    tracked = [
        ("field", np.hypot(p * u[0], 2.0 * u[1]), math.sqrt(sc.lambda0)),
        ("grad_m2", np.abs(central_derivative(r, m * u[0] + 2.0 * u[1])), grad_bound),
        ("grad_pq", np.abs(central_derivative(r, p * u[0] + q * u[1])), grad_bound),
    ]
    return [
        {"quantity": name, "paper_bound": bound, **_fit_rate(r, values, window)}
        for name, values, bound in tracked
    ]


def pde_residual(sol: Solution) -> float:
    """Sup norm of the governing-system residual, scheme-consistent.

    For radial solutions this is the solver's own discrete system.  For
    planar solutions the 5-point Laplacian of ``P`` is compared with ``A @
    E + Phi`` at interior nodes.
    """
    if isinstance(sol, RadialSolution):
        res = radial_system_residual(sol.params, sol.mesh, sol.P)
        return float(np.max(np.abs(res[:, :-1])))
    bg = background(sol.params)
    r2 = sol.grid.radius_squared()
    phi = np.stack([bg.phi_1(r2), bg.phi_2(r2)])[:, 1:-1, 1:-1]
    A = coupling_matrix(sol.params).A[:, :, None, None]
    E = sol.E[:, 1:-1, 1:-1]
    lap = -_neighbor_sum(sol.P) / sol.grid.cell_area
    return float(np.max(np.abs(lap - (A[:, 0] * E[0] + A[:, 1] * E[1] + phi))))


def _params_match(a: ModelParams, b: ModelParams) -> bool:
    return (a.N, a.n1, a.n2, a.tau) == (b.N, b.n1, b.n2, b.tau)


def cross_validation_window(grid: PlanarGrid) -> tuple[float, np.ndarray]:
    """``hi`` of the window ``[0.5, min(10, L - 5)]`` and its mask on the positive axis nodes.

    Needs only the grid; raises ``ValueError`` if no node is in the window.
    """
    r = grid.coords[grid.coords > 0.0]
    hi = min(10.0, grid.half_width - 5.0)
    mask = (r >= 0.5) & (r <= hi)
    if not np.any(mask):
        raise ValueError("empty cross-validation window; enlarge the box")
    return hi, mask


def cross_validate(radial: RadialSolution, planar: PlanarSolution) -> dict:
    """Sup difference of the physical fields along the axis window.

    Both discretizations approximate the same unique solution; the window
    is that of :func:`cross_validation_window`.
    """
    if not _params_match(radial.params, planar.params):
        raise ValueError("cross-validation requires matching model parameters")
    hi, mask = cross_validation_window(planar.grid)
    r, u = extract_radial_slice(planar)
    r = r[mask]
    bg = background(radial.params)
    r2 = r * r
    u_rad = np.stack([np.interp(r, radial.mesh.r, P) for P in radial.P])
    u_rad += np.stack([bg.u0_1(r2), bg.u0_2(r2)])
    sup = float(np.max(np.abs(u[:, mask] - u_rad)))
    return {"sup_difference": sup, "window": [0.5, hi], "n_points": int(np.count_nonzero(mask))}


def uniqueness_check(sol_a: PlanarSolution, sol_b: PlanarSolution) -> dict:
    """Sup-norm agreement of two solves that differ only in initialization.

    Both solves must share the model parameters and the grid (box and node
    count); anything else raises ``ValueError``.  A quadrant solution is
    unfolded once, and a full-grid one is read as stored.
    """
    if not _params_match(sol_a.params, sol_b.params):
        raise ValueError("uniqueness check requires matching model parameters")
    if sol_a.grid != sol_b.grid:
        raise ValueError("uniqueness check requires matching grids")
    wa, wb = (sol.w if sol.quadrant else sol.w_solved for sol in (sol_a, sol_b))
    diff = wa - wb
    return {"sup_difference": float(np.max(np.abs(diff, out=diff)))}


def build_report(
    radial_sol: RadialSolution,
    planar_sol: Optional[PlanarSolution] = None,
    planar_sol_alt: Optional[PlanarSolution] = None,
    window: tuple[float, float] = (10.0, 14.0),
) -> VerificationReport:
    """Assemble a full report from a radial solution and optional planar ones.

    Fluxes, decay fits and both residuals come from the radial solution;
    the profile-equation residual is measured on profiles reconstructed
    from it.  Its fluxes are not the most accurate ones available: for
    ``N = 2``, ``n = (1, 1)`` the flux-1 error is ``5.96e-5`` at the default
    4000 radial nodes, against ``2.02e-6`` for a 512^2 planar solve.  The
    model parameters are those of the radial solution.  A planar solution
    adds the radial-vs-planar cross-validation, and a second planar one the
    uniqueness check.
    """
    params = radial_sol.params
    fluxes = flux_integrals(radial_sol)
    decay = decay_fit(radial_sol, window=window)
    residuals = {
        "pde_sup": pde_residual(radial_sol),
        "ode_sup": ode_residual(reconstruct_profiles(radial_sol), params),
    }

    uniqueness = None
    if planar_sol is not None and planar_sol_alt is not None:
        uniqueness = uniqueness_check(planar_sol, planar_sol_alt)
    cross = None
    if planar_sol is not None:
        cross = cross_validate(radial_sol, planar_sol)

    return VerificationReport(
        params=asdict(params),
        constants=scalar_constants(params),
        flux=fluxes["flux"],
        component_flux=fluxes["component_flux"],
        decay=decay,
        residuals=residuals,
        uniqueness=uniqueness,
        cross_validation=cross,
    )
