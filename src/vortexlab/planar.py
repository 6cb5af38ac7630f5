"""Two-dimensional Newton-conjugate-gradient minimizer.

Minimizes the discrete convex functional on the box grid.  Each outer step
solves the Newton system ``H d = -g`` approximately by conjugate gradients
(the Hessian is symmetric positive definite by strict convexity) with an
Eisenstat-Walker style forcing term, then backtracks on the energy.

The CG is preconditioned with the inverse of the Hessian's far-field
operator (curvature frozen at ``exp(2*u0) = 1``, ``w = 0``), applied by
sine transforms: the fast-Poisson preconditioning of Concus & Golub
(1973).  It removes the grid dependence of the CG count (a few
iterations per Newton step from 64^2 to 1024^2).  Its transforms run in
single precision, which only shapes the search direction: the CG vectors,
the Hessian apply, the gradient, the line search and the stopping test
``||r||_2 <= eta * ||g||_2`` all stay float64, and the stopping test is
on the unpreconditioned residual.  The Armijo test compares the energy
*change* along the step, evaluated without cancellation, so the line
search still resolves the last Newton decreases, which lie below the
rounding of the total energy.  A trial step that overflows the exponent
cap is rejected and halved like any other.  Strict convexity makes the
minimizer unique.  With the default cap of 60 Newton steps the iteration
was measured to converge from the zero start and from uniform random
interior starts of amplitude up to 10 (rank 2, 64^2 and 128^2 grids, at
most 40 steps); random starts of amplitude 20 reach the cap.  It also
converges from :func:`radial_start`, the radial solution interpolated onto
the grid, which for coincident vortices is the minimizer up to
discretization error: at tol 1e-8 the Newton/CG counts fall from 7/16 to
3/9 (rank 2, ``n = (1, 1)``, 512^2) and from 8/22 to 4/15 (rank 3,
``n = (1, 2)``, 384^2).  Over 324 cases (ranks 2, 3 and 5; ``n`` in
(1, 1), (1, 2), (3, 1), (0, 0.5); tau in 0.2, 1, 5; L in 6, 15, 25;
32^2, 48^2 and 65^2 grids) it took 1571 Newton steps against the zero
start's 2378; in 15 cases, all with tau = 0.2 and spacing >= 0.78, it
took one or two more.

Coincident vortices make the problem D2-symmetric: ``u0``, the weights
and the sources depend only on ``|x|^2``, so the functional is invariant
under ``x -> -x`` and ``y -> -y``.  The unique minimizer then shares the
symmetry, and by the principle of symmetric criticality (Palais 1979) it
minimizes the functional restricted to symmetric fields, which lives on
one quadrant.  On an even grid (no node on an axis) this holds bitwise by
construction, so the layout is decided from the start alone: a zero start,
or one bitwise unchanged by both reflections such as the radial start, is
built and solved on ``(n/2 + 1)^2`` nodes and mirrored back, with the same
Newton and CG counts (fields measured to agree to ``1e-13``; 4-5x faster
at 384^2 and 512^2).  Odd grids and any other start, such as the random
start of a uniqueness check, run on the full grid.

The physical fields must vanish at infinity; on the truncated box this is
imposed at the edge, so the boundary values of ``w`` are the lifted data
``L^-1 @ (-u0)`` rather than zero (with zero boundary data the fields
would be pinned to the background there, which measurably biases the flux
integrals).  Interior nodes are the only degrees of freedom.

Every field of a planar solution is a ``(2, n, n)`` array whose leading
axis is the species: ``w`` is stored, and the smooth parts ``P = L @ w``,
``u = u0 + P`` and ``E = exp(2u) - 1`` are new arrays derived on each read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FieldOverflowError, NonConvergenceError, check_solver_options
from .functional import DiscreteFunctional, PlanarGrid, _layout_radius_squared
from .model import ModelParams, background, coupling_matrix
from .radial import RadialSolution

__all__ = [
    "PlanarSolution",
    "boundary_values",
    "radial_start",
    "solve_planar",
    "extract_radial_slice",
]

#: CG iterations allowed in one Newton step: 25 times the largest count
#: measured in one step (8, over the zero start and uniform random starts of
#: amplitude 0.5 and 10, ranks 2 and 3, on 64^2 and 128^2 grids).  The
#: preconditioned count does not grow with the grid (at most 11 per step in
#: any solve measured, up to 1024^2), so reaching the cap means CG has broken
#: down, and it is reported after 200 applies rather than 20000.
CG_MAX_ITER = 200


@dataclass
class PlanarSolution:
    """Converged planar unknowns ``w`` and solve metadata.

    ``w`` has shape ``(2, n, n)``, index 0 holding species 1: ``w[0]`` is
    ``w1`` and ``w[1]`` is ``w2``.  ``P``, ``u`` and ``E`` are not stored:
    each read derives a new ``(2, n, n)`` array from ``w``.
    """

    params: ModelParams
    grid: PlanarGrid
    w: np.ndarray
    iterations: int
    cg_iterations: int
    final_gradient_norm: float
    energy_history: list

    @property
    def P(self) -> np.ndarray:
        """Smooth parts ``P = L @ w``, a new ``(2, n, n)`` array."""
        return _smooth_parts(self.params, self.w)

    @property
    def u(self) -> np.ndarray:
        """Physical fields ``u = u0 + P``, a new ``(2, n, n)`` array."""
        bg = background(self.params)
        r2 = self.grid.radius_squared()
        u = self.P
        u[0] += bg.u0_1(r2)
        u[1] += bg.u0_2(r2)
        return u

    @property
    def E(self) -> np.ndarray:
        """``E = exp(2u) - 1``, a new ``(2, n, n)`` array."""
        with np.errstate(over="ignore"):
            return np.expm1(2.0 * self.u)

    @property
    def final_energy(self) -> float:
        """Energy of ``w``: the last entry of ``energy_history``."""
        return self.energy_history[-1]


def _smooth_parts(params: ModelParams, w: np.ndarray) -> np.ndarray:
    # P1 = w1 and P2 = w2 + gamma * w1, on any stack of w values.
    P = w.copy()
    P[1] += coupling_matrix(params).gamma * w[0]
    return P


def boundary_values(params: ModelParams, grid: PlanarGrid) -> np.ndarray:
    """Dirichlet data on the box edge: ``w = L^-1 @ (-u0)``, zero interior.

    With ``P = L @ w`` this pins ``u = u0 + P`` to zero on the boundary,
    the truncated form of the topological condition at infinity.  The
    result has shape ``(2, n, n)``.
    """
    return _start(params, grid, quadrant=False)


def _start(params, grid, quadrant, initial=None):
    """The first iterate on a layout: lifted edge data and ``initial``'s interior (default zero)."""
    bg = background(params)
    r2 = _layout_radius_squared(grid, quadrant)
    u01 = bg.u0_1(r2)
    w = np.stack([-u01, coupling_matrix(params).gamma * u01 - bg.u0_2(r2)])
    lo, k = (0, grid.points_per_side // 2 - 1) if quadrant else (1, 1)  # first interior index of w, initial
    w[:, lo:-1, lo:-1] = 0.0 if initial is None else initial[:, k:-1, k:-1]
    return w


def radial_start(radial: RadialSolution, grid: PlanarGrid) -> np.ndarray:
    """A planar start ``w`` of shape ``(2, n, n)`` from a radial solution.

    Each smooth part ``P_k`` is ``np.interp`` of ``radial.P[k]`` at the node
    radius ``|x|`` (constant beyond the mesh ends), and ``w1 = P1``,
    ``w2 = P2 - gamma * P1`` invert :func:`_smooth_parts`.  For coincident
    vortices the planar minimizer is radial, so this start differs from it
    by discretization error only; pass it as ``solve_planar(initial=...)``.
    """
    r = np.sqrt(grid.radius_squared())
    w = np.stack([np.interp(r, radial.mesh.r, P) for P in radial.P])
    w[1] -= coupling_matrix(radial.params).gamma * w[0]
    return w


def solve_planar(
    params: ModelParams,
    grid: PlanarGrid,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial: Optional[np.ndarray] = None,
) -> PlanarSolution:
    """Newton-CG minimization of the discrete functional.

    ``tol`` bounds the sup norm of the per-node Euler-Lagrange residual
    (gradient divided by cell area).  The iteration starts from the lifted
    Dirichlet data of :func:`boundary_values` with the interior of
    ``initial`` (zero by default), a finite array of shape ``(2, n, n)``
    holding ``w1`` and ``w2``; the edge of ``initial`` is ignored.
    Every start that converges reaches the same minimizer (strict
    convexity); the module docstring lists the starts measured to converge
    within the default ``max_iter``.

    Each Newton system is solved by CG preconditioned with the far-field
    fast-Poisson operator, to ``||r||_2 <= eta * ||g||_2`` with
    ``eta = min(0.5, sqrt(residual))``; ``CG_MAX_ITER`` caps the CG
    iterations of one Newton step.  Steps are backtracked on the energy
    change (Armijo); trial steps beyond ``functional.EXP_CAP`` count as
    rejected.  ``energy_history`` accumulates the start energy and the
    accepted changes.

    For even ``n``, a zero start or one whose interior is bitwise unchanged
    by ``x -> -x`` and ``y -> -y`` (:func:`radial_start`) is solved on one
    quadrant, decided before anything is built, and mirrored back (module
    docstring); any other on the full grid.  Either way ``w`` and a
    :class:`NonConvergenceError`'s iterate are full ``(2, n, n)`` arrays.
    """
    check_solver_options(tol, max_iter)
    if initial is not None:
        initial = np.asarray(initial)
        shape = (2, grid.points_per_side, grid.points_per_side)
        if initial.shape != shape:
            raise ValueError(f"initial must have shape {shape}, got {initial.shape}")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial contains non-finite entries")
    # Symmetric starts on even grids are solved on one quadrant (module docstring).
    quadrant = _d2_symmetric(grid, initial)
    func = DiscreteFunctional(params, grid, quadrant)
    w = _start(params, grid, quadrant, initial)
    del initial  # a caller that passed the start inline frees it here
    try:
        iteration, cg_total, gnorm, history = _minimize(func, w, tol, max_iter)
    except NonConvergenceError as exc:
        if quadrant:
            exc.last_iterate = _unfold(exc.last_iterate)
        raise
    if quadrant:  # the quadrant energy is a quarter of the full grid's
        w, history = _unfold(w), [4.0 * e for e in history]
    return PlanarSolution(params, grid, w, iteration, cg_total, gnorm, history)


def _d2_symmetric(grid: PlanarGrid, initial: Optional[np.ndarray]) -> bool:
    """Whether ``n`` is even and ``initial`` is zero or has a D2-symmetric interior."""
    a = None if initial is None else initial[:, 1:-1, 1:-1]
    return grid.points_per_side % 2 == 0 and (
        a is None or (np.array_equal(a, a[:, ::-1]) and np.array_equal(a, a[:, :, ::-1]))
    )


def _unfold(wq: np.ndarray) -> np.ndarray:
    """The full ``(2, n, n)`` field of a quadrant one, mirrored across both axes."""
    a = wq[:, 1:, 1:]
    a = np.concatenate([a[:, ::-1], a], axis=1)
    return np.concatenate([a[:, :, ::-1], a], axis=2)


def _minimize(func, w, tol, max_iter):
    """The Newton loop on ``func``'s layout: update ``w`` in place.

    Returns ``(iterations, cg_iterations, final_gradient_norm,
    energy_history)``; raises :class:`NonConvergenceError` with ``w`` as
    its iterate.
    """
    h2 = func.grid.cell_area
    precond = func.far_field_preconditioner()
    history = [func.energy(w)]
    cg_total = 0
    for iteration in range(max_iter + 1):
        g = func.gradient(w)
        gnorm = float(np.max(np.abs(g))) / h2
        if gnorm < tol:
            return iteration, cg_total, gnorm, history
        if iteration == max_iter:
            break

        # Inexact Newton: the CG forcing tolerance tightens as the outer
        # residual shrinks.
        eta = min(0.5, math.sqrt(gnorm))
        try:
            change, cg_iters = _newton_step(func, precond, w, g, eta)
        except NonConvergenceError as exc:
            exc.iterations, exc.residual, exc.last_iterate = iteration, gnorm, w
            raise
        cg_total += cg_iters
        history.append(history[-1] + change)

    raise NonConvergenceError(
        f"planar solve did not reach tol={tol:g} within {max_iter} Newton iterations "
        f"(last Euler-Lagrange residual {gnorm:.3e})",
        iterations=max_iter,
        residual=gnorm,
        last_iterate=w,
    )


def _newton_step(func, precond, w, g, eta):
    """One damped Newton step: update ``w`` in place.

    Returns the energy change and the CG iteration count; the caller adds
    the iterate to a :class:`NonConvergenceError`.  The direction, its trial
    scalings and the CG work arrays all live in this frame and in
    :func:`_newton_direction`, so none outlives the step.
    """
    d, cg_iters = _newton_direction(func, precond, w, g, eta)

    # Backtracking line search on the energy change (Armijo).  A trial that
    # overflows the exponent cap is rejected like any other.  Halving is
    # exact, so after k halvings ``d`` holds ``t * d`` for ``t = 2**-k``.
    slope = float(np.vdot(g, d))
    t = 1.0
    while True:
        try:
            change = func.energy_change(w, d)
        except FieldOverflowError:
            change = math.inf
        if change <= 1e-4 * t * slope:
            break
        t *= 0.5
        d *= 0.5
        if t < 2.0**-40:
            raise NonConvergenceError("planar line search stalled")
    w += d
    return change, cg_iters


def _newton_direction(func, precond, w, g, eta):
    """Preconditioned CG for ``H d = -g`` until ``||r||_2 <= eta * ||g||_2``.

    The stopping test is on the unpreconditioned residual.  Running in its
    own frame releases the Hessian's curvature arrays and the CG vectors
    before the line search.  Returns ``(d, cg_iterations)``.
    """
    hess = func.hessian_operator(w)
    d = np.zeros_like(w)
    p = np.zeros_like(w)
    r = -g
    rr = float(np.vdot(r, r))
    target = eta * math.sqrt(rr)
    rz_old = math.inf  # first pass: beta = 0, so p = z
    cg_iters = 0
    while math.sqrt(rr) > target:
        if cg_iters >= CG_MAX_ITER:
            raise NonConvergenceError("conjugate gradient exceeded its iteration cap")
        z = precond(r)
        rz = float(np.vdot(r, z))
        p *= rz / rz_old
        p += z
        del z  # release before the Hessian apply allocates its result
        rz_old = rz
        hp = hess(p)
        php = float(np.vdot(p, hp))
        if php <= 0.0:  # cannot happen for a strictly convex energy
            raise NonConvergenceError("nonpositive curvature encountered in CG")
        alpha = rz / php
        hp *= alpha
        r -= hp
        del hp  # release before alpha * p, and before the next preconditioner apply
        d += alpha * p
        rr = float(np.vdot(r, r))
        cg_iters += 1
    return d, cg_iters


def extract_radial_slice(sol: PlanarSolution) -> tuple[np.ndarray, np.ndarray]:
    """Sample the physical fields along the positive x-axis.

    Returns ``(r, u)``: the radii are the positive x node coordinates and
    ``u`` has shape ``(2, len(r))``.  No node row sits on the axis (see
    :class:`PlanarGrid`), so the smooth parts are linearly interpolated to
    ``y = 0`` between the two straddling node rows and the singular
    background is added analytically; the slice is second-order accurate
    even close to the origin.
    """
    coords = sol.grid.coords
    pos = coords > 0.0
    r = coords[pos]

    j = int(np.searchsorted(coords, 0.0)) - 1
    y0, y1 = coords[j], coords[j + 1]
    wlo = y1 / (y1 - y0)
    whi = 1.0 - wlo
    P = _smooth_parts(sol.params, sol.w[:, pos, j : j + 2])
    P = wlo * P[..., 0] + whi * P[..., 1]

    bg = background(sol.params)
    r2 = r * r
    return r, np.stack([bg.u0_1(r2), bg.u0_2(r2)]) + P
