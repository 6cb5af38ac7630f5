"""Two-dimensional Newton-conjugate-gradient minimizer.

Minimizes the discrete convex functional on the box grid.  Each outer step
solves the Newton system ``H d = -g`` approximately by conjugate gradients
(the Hessian is symmetric positive definite by strict convexity) with a
forcing term proportional to the residual, which makes Newton converge
quadratically (Dembo, Eisenstat & Steihaug 1982), then backtracks on the
energy.  A safeguard (Kelley 1995, section 6.3) stops the last step's CG
once its linearized next residual is about half the tolerance.

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
was measured to converge from the zero start and from random starts of
amplitude up to 10 (ranks 2 and 3, 64^2 and 128^2 grids, seeds 0 and 1:
6-7 steps at amplitude 0.5, 19-21 at 5, 34-37 at 10); random starts of
amplitude 20 reach the cap.  A random start of amplitude ``A``
draws every interior node value of ``w1`` and ``w2`` independently and
uniformly from ``[-A, A)``.  The iteration also converges from a
radial solution interpolated onto the grid (``initial=radial_sol``),
which for coincident vortices is the minimizer up to discretization
error: at tol 1e-8 the Newton/CG counts fall from 5/11 to 2/7 (rank 2,
``n = (1, 1)``, 512^2) and from 6/17 to 3/10 (rank 3, ``n = (1, 2)``,
384^2).  Over 324 cases (ranks 2, 3 and 5; ``n`` in (1, 1), (1, 2),
(3, 1), (0, 0.5); tau in 0.2, 1, 5; L in 6, 15, 25; 32^2, 48^2 and 65^2
grids) it took 1149 Newton steps and 3683 CG iterations against the zero
start's 1798 and 4948; in 15 cases, all with tau = 0.2 and spacing
>= 0.78, it took one or two more Newton steps.

Coincident vortices make the problem D4-symmetric: ``u0``, the weights
and the sources depend only on ``|x|^2``, so the functional is invariant
under ``x -> -x``, ``y -> -y`` and the swap ``(x, y) -> (y, x)``.  The
unique minimizer then shares these symmetries, and by the principle of
symmetric criticality (Palais 1979) it minimizes the functional restricted
to symmetric fields.  On an even grid (no node on an axis) the mirrors hold
bitwise by construction, so the layout is decided from the start alone: a
zero start, a radial solution (interpolated at the quadrant nodes only) or
an array bitwise unchanged by both reflections is built and solved on
``(n/2 + 1)^2`` nodes, with the same Newton and CG counts (fields measured
to agree to ``1e-13``; 4-5x faster at 384^2 and 512^2), and the solution
keeps that quadrant.
Odd grids are shifted by ``h/2`` and have no mirrors; they, and any other
start, such as the random start of a uniqueness check, run on the full
grid.  The swap holds on every grid, because both axes share their nodes.
A zero or radial start, or an array equal to its transpose, is bitwise
swap-symmetric, and each Newton step keeps it so on either layout: it sets
the iterate to the mean of the stepped field and its transpose.  So every
gradient is taken at a symmetric field, and the returned ``w`` and ``u``
equal their transposes bitwise.  Against solves without the mean, the
Newton and CG counts were unchanged (ranks 2 and 3, 32^2 to 1024^2), and
the fields moved by at most ``1.8e-14`` from 384^2 up and ``2e-11`` on
32^2 to 65^2, inside the solver tolerance.

The physical fields must vanish at infinity; on the truncated box this is
imposed at the edge, so the boundary values of ``w`` are the lifted data
``L^-1 @ (-u0)`` rather than zero (with zero boundary data the fields
would be pinned to the background there, which measurably biases the flux
integrals).  Interior nodes are the only degrees of freedom.

A planar solution stores ``w`` on the layout it was solved on: the
``(2, n/2 + 1, n/2 + 1)`` quadrant of a mirror-symmetric solve, the full
``(2, n, n)`` grid otherwise.  Its fields are ``(2, n, n)`` arrays whose
leading axis is the species: ``w``, the smooth parts ``P = L @ w``,
``u = u0 + P`` and ``E = exp(2u) - 1`` are new arrays on each read, derived
on the stored layout and then mirrored, so a quadrant solution allocates
its full grid only when a caller reads one.  ``u_solved`` derives ``u`` on
the stored layout alone, which is what the planar CSV writer reads: a
fresh ``solve-planar --grid 1024`` peaks at 103 MB resident, against
118 MB when the solution held, and the writer read, full-grid ``w`` and
``u`` (one thread, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FieldOverflowError, NonConvergenceError, check_solver_options
from .functional import DiscreteFunctional, PlanarGrid, _dot, _layout_radius_squared, symmetries
from .model import ModelParams, background, coupling_matrix
from .radial import RadialSolution

__all__ = [
    "PlanarSolution",
    "solve_planar",
    "extract_radial_slice",
]

#: CG iterations allowed in one Newton step: about 13 times the largest count
#: measured in one step (15, over the zero and radial starts from 64^2 to
#: 1024^2 and uniform random starts of amplitude 0.5 to 20 on 64^2 and 128^2
#: grids, ranks 2 and 3).  The preconditioned count does not grow with the
#: grid (at most 7 per step from the zero and radial starts, up to 1024^2),
#: so reaching the cap means CG has broken down, and it is reported after
#: 200 applies rather than 20000.
CG_MAX_ITER = 200


@dataclass
class PlanarSolution:
    """Converged planar unknowns ``w`` on the layout they were solved on, and solve metadata.

    ``w_solved`` is the quadrant ``(2, n/2 + 1, n/2 + 1)`` of the nodes
    ``[n/2 - 1:, n/2 - 1:]`` for a mirror-symmetric solve (:attr:`quadrant`),
    and the full ``(2, n, n)`` array otherwise; index 0 holds species 1.  On
    the quadrant, index 0 of either axis is no node of its own: it mirrors
    index 1, and readers use indices ``1..n/2``.  ``w``, ``P``, ``u`` and
    ``E`` are not stored: each read derives a new ``(2, n, n)`` array, on
    the solved layout and then mirrored to the full grid.
    """

    params: ModelParams
    grid: PlanarGrid
    w_solved: np.ndarray
    iterations: int
    cg_iterations: int
    final_gradient_norm: float
    energy_history: list

    @property
    def quadrant(self) -> bool:
        """Whether ``w_solved`` is the quadrant layout (grids have ``n >= 16`` nodes per side)."""
        return self.w_solved.shape[-1] != self.grid.points_per_side

    def _full(self, a: np.ndarray) -> np.ndarray:
        # A new array on the solved layout, as a full (2, n, n) array.
        return _unfold(a) if self.quadrant else a

    @property
    def w(self) -> np.ndarray:
        """``w = (w1, w2)`` at every node, a new ``(2, n, n)`` array."""
        return _unfold(self.w_solved) if self.quadrant else self.w_solved.copy()

    @property
    def P(self) -> np.ndarray:
        """Smooth parts ``P = L @ w``, a new ``(2, n, n)`` array."""
        return self._full(_smooth_parts(self.params, self.w_solved))

    @property
    def u_solved(self) -> np.ndarray:
        """Physical fields ``u = u0 + P`` on the layout of ``w_solved``, a new array."""
        bg = background(self.params)
        r2 = _layout_radius_squared(self.grid, self.quadrant)
        u = _smooth_parts(self.params, self.w_solved)
        u[0] += bg.u0_1(r2)
        u[1] += bg.u0_2(r2)
        return u

    @property
    def u(self) -> np.ndarray:
        """Physical fields ``u = u0 + P``, a new ``(2, n, n)`` array."""
        return self._full(self.u_solved)

    @property
    def E(self) -> np.ndarray:
        """``E = exp(2u) - 1``, a new ``(2, n, n)`` array."""
        u = self.u_solved
        with np.errstate(over="ignore"):
            np.expm1(2.0 * u, out=u)
        return self._full(u)

    @property
    def final_energy(self) -> float:
        """Energy of ``w``: the last entry of ``energy_history``."""
        return self.energy_history[-1]


def _smooth_parts(params: ModelParams, w: np.ndarray) -> np.ndarray:
    # P1 = w1 and P2 = w2 + gamma * w1, on any stack of w values.
    P = w.copy()
    P[1] += coupling_matrix(params).gamma * w[0]
    return P


def _start(params, grid, quadrant, initial=None):
    """The first iterate on a layout: lifted edge data and ``initial``'s interior (default zero).

    The edge holds ``w = L^-1 @ (-u0)``, so ``u = u0 + L @ w`` is zero there.  A
    :class:`RadialSolution` ``initial`` is interpolated at the layout's interior nodes only.
    """
    bg = background(params)
    r2 = _layout_radius_squared(grid, quadrant)
    u01 = bg.u0_1(r2)
    w = np.stack([-u01, coupling_matrix(params).gamma * u01 - bg.u0_2(r2)])
    lo, k = (0, grid.points_per_side // 2 - 1) if quadrant else (1, 1)  # first interior index of w, initial
    if initial is None:
        w[:, lo:-1, lo:-1] = 0.0
    elif isinstance(initial, RadialSolution):
        w[:, lo:-1, lo:-1] = _interpolate(initial, r2[lo:-1, lo:-1])
    else:
        w[:, lo:-1, lo:-1] = initial[:, k:-1, k:-1]
    return w


def _interpolate(radial: RadialSolution, r2: np.ndarray) -> np.ndarray:
    """``w`` of the radial solution at the nodes of squared radius ``r2``.

    Each ``P_k`` is ``radial.P[k]`` interpolated at ``|x|``; ``w`` inverts :func:`_smooth_parts`.
    Beyond the last radial node, ``np.interp`` holds its ``P`` (the values at ``r_max``).
    """
    r = np.sqrt(r2)
    w = np.stack([np.interp(r, radial.mesh.r, P) for P in radial.P])
    w[1] -= coupling_matrix(radial.params).gamma * w[0]
    return w


def solve_planar(
    params: ModelParams,
    grid: PlanarGrid,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial: Optional[np.ndarray | RadialSolution] = None,
) -> PlanarSolution:
    """Newton-CG minimization of the discrete functional.

    ``tol`` bounds the sup norm of the per-node Euler-Lagrange residual
    (gradient divided by cell area).  The iteration starts from the lifted
    Dirichlet data ``L^-1 @ (-u0)`` on the box edge with the interior of
    ``initial`` (zero by default), a finite array of shape ``(2, n, n)``
    holding ``w1`` and ``w2``; the edge of ``initial`` is ignored.  A
    :class:`RadialSolution` ``initial`` is interpolated at the solved nodes only.
    Every start that converges reaches the same minimizer (strict
    convexity); the module docstring lists the starts measured to converge
    within the default ``max_iter``.

    Each Newton system is solved by CG preconditioned with the far-field
    fast-Poisson operator, to ``||r||_2 <= eta * ||g||_2`` with
    ``eta = min(0.3, max(residual, 0.5 * tol / residual))`` on the sup-norm
    residual: proportional to it, and no tighter than what brings the
    linearized next residual to ``tol / 2``.  ``CG_MAX_ITER`` caps the CG
    iterations of one Newton step.  Steps are backtracked on the energy
    change (Armijo); trial steps beyond ``functional.EXP_CAP`` count as
    rejected.  ``energy_history`` accumulates the start energy and the
    accepted changes.

    For even ``n``, a zero or radial start, or one whose interior is
    bitwise unchanged by ``x -> -x`` and ``y -> -y``, is solved on one
    quadrant, decided before anything is built (module docstring); any
    other on the full grid.  The solution stores ``w`` on the layout it was
    solved on (:class:`PlanarSolution`), and a read of its ``w`` mirrors it
    to the full grid.  On any grid, a zero or radial start, or one whose
    interior equals its transpose, is kept bitwise swap-symmetric.  A
    :class:`NonConvergenceError`'s iterate is a full ``(2, n, n)`` array.
    """
    check_solver_options(tol, max_iter)
    if initial is not None and not isinstance(initial, RadialSolution):
        initial = np.asarray(initial)
        shape = (2, grid.points_per_side, grid.points_per_side)
        if initial.shape != shape:
            raise ValueError(f"initial must have shape {shape}, got {initial.shape}")
        if not np.all(np.isfinite(initial)):
            raise ValueError("initial contains non-finite entries")
    # Symmetric starts are solved on one quadrant, or kept swap-symmetric (module docstring).
    quadrant, diagonal = _symmetries(grid, initial)
    func = DiscreteFunctional(params, grid, quadrant)
    w = _start(params, grid, quadrant, initial)
    del initial  # a caller that passed the start inline frees it here
    try:
        iteration, cg_total, gnorm, history = _minimize(func, w, tol, max_iter, diagonal)
    except NonConvergenceError as exc:
        if quadrant:
            exc.last_iterate = _unfold(exc.last_iterate)
        raise
    if quadrant:  # the quadrant energy is a quarter of the full grid's
        history = [4.0 * e for e in history]
    return PlanarSolution(params, grid, w, iteration, cg_total, gnorm, history)


def _symmetries(grid: PlanarGrid, initial) -> tuple[bool, bool]:
    """Whether the solve keeps the mirrors ``x -> -x``, ``y -> -y`` and the swap ``x <-> y``.

    A zero or radial start keeps both, the mirrors on even grids only; an
    array start keeps those its interior has bitwise.
    """
    even = grid.points_per_side % 2 == 0
    if initial is None or isinstance(initial, RadialSolution):  # symmetric by construction
        return even, True
    mirrors, swap = symmetries(initial[:, 1:-1, 1:-1])
    return even and mirrors, swap


def _unfold(wq: np.ndarray) -> np.ndarray:
    """The full ``(2, n, n)`` field of a quadrant one, mirrored across both axes."""
    a = wq[:, 1:, 1:]
    a = np.concatenate([a[:, ::-1], a], axis=1)
    return np.concatenate([a[:, :, ::-1], a], axis=2)


def _minimize(func, w, tol, max_iter, diagonal):
    """The Newton loop on ``func``'s layout: update ``w`` in place.

    With ``diagonal``, the start ``w`` equals its transpose and each step
    keeps it so (:func:`_newton_step`), so every gradient is taken, and the
    convergence tested, at a bitwise swap-symmetric ``w``.  Returns
    ``(iterations, cg_iterations, final_gradient_norm, energy_history)``;
    raises :class:`NonConvergenceError` with ``w`` as its iterate.
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

        # Inexact Newton: the forcing term is proportional to the residual
        # (quadratic convergence), but no tighter than what brings the
        # linearized next residual to tol / 2, so the last step is not
        # oversolved.
        eta = min(0.3, max(gnorm, 0.5 * tol / gnorm))
        try:
            change, cg_iters = _newton_step(func, precond, w, g, eta, diagonal)
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


def _newton_step(func, precond, w, g, eta, diagonal):
    """One damped Newton step: update ``w`` in place.

    With ``diagonal``, ``w`` becomes the mean of ``w + d`` and its
    transpose, which is bitwise symmetric, computed through ``d`` so that
    no array is allocated.  Returns the energy change and the CG iteration
    count; the caller adds the iterate to a :class:`NonConvergenceError`.
    The direction, its trial scalings and the CG work arrays all live in
    this frame and in :func:`_newton_direction`, so none outlives the step.
    """
    d, cg_iters = _newton_direction(func, precond, w, g, eta)

    # Backtracking line search on the energy change (Armijo).  A trial that
    # overflows the exponent cap is rejected like any other.  Halving is
    # exact, so after k halvings ``d`` holds ``t * d`` for ``t = 2**-k``.
    slope = _dot(g, d)
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
    if diagonal:
        d += w
        np.add(d, d.transpose(0, 2, 1), out=w)
        w *= 0.5
    else:
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
    rr = _dot(r, r)
    target = eta * math.sqrt(rr)
    rz_old = math.inf  # first pass: beta = 0, so p = z
    cg_iters = 0
    while math.sqrt(rr) > target:
        if cg_iters >= CG_MAX_ITER:
            raise NonConvergenceError("conjugate gradient exceeded its iteration cap")
        z = precond(r)
        rz = _dot(r, z)
        p *= rz / rz_old
        p += z
        del z  # release before the Hessian apply allocates its result
        rz_old = rz
        hp = hess(p)
        php = _dot(p, hp)
        if php <= 0.0:  # cannot happen for a strictly convex energy
            raise NonConvergenceError("nonpositive curvature encountered in CG")
        alpha = rz / php
        hp *= alpha
        r -= hp
        del hp  # release before alpha * p, and before the next preconditioner apply
        d += alpha * p
        rr = _dot(r, r)
        cg_iters += 1
    return d, cg_iters


def extract_radial_slice(sol: PlanarSolution) -> tuple[np.ndarray, np.ndarray]:
    """Sample the physical fields along the positive x-axis.

    Returns ``(r, u)``: the radii are the positive x node coordinates and
    ``u`` has shape ``(2, len(r))``.  No node row sits on the axis: the
    coordinates are odd multiples of ``h/2`` (see :class:`PlanarGrid`), so
    the smooth parts at ``y = 0`` are the mean of the node rows at
    ``y = -h/2`` and ``+h/2``, and the singular background is added
    analytically; the slice is second-order accurate even close to the
    origin.  A quadrant solution's row is read from its stored quadrant,
    where the two rows are one (their mean is that row, bitwise).
    """
    coords = sol.grid.coords
    pos = coords > 0.0
    r = coords[pos]

    if sol.quadrant:  # x > 0 at indices 1..n/2; the row at y = -h/2 mirrors that at +h/2
        rows = sol.w_solved[:, 1:, 1:2]
    else:
        j = sol.grid.points_per_side // 2  # the row at y = +h/2
        rows = sol.w_solved[:, pos, j - 1 : j + 1]
    P = _smooth_parts(sol.params, rows).mean(axis=-1)

    bg = background(sol.params)
    r2 = r * r
    return r, np.stack([bg.u0_1(r2), bg.u0_2(r2)]) + P
