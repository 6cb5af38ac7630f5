"""One-dimensional solvers exploiting radial symmetry.

Two formulations are solved here:

* the regularized second-order system for the smooth parts ``P``,
  ``lap(P) = A @ E + Phi`` with the radial Laplacian ``P'' + P'/r``, a
  zero-slope (Neumann) condition at the innermost node and ``u = 0``
  imposed at the outer radius -- valid for arbitrary multiplicities;
* the original first-order profile system for ``(f, f_NA, Q1, Q2)`` with
  near-origin series conditions whose two free constants are solved as
  collocation unknowns alongside the mesh values.

Both use damped Newton iterations with exact banded Jacobians.  Meshes are
geometrically graded near the origin (adjacent spacings in constant ratio)
and switch to uniform spacing further out, with the two sections joined at
matching slope so refinement stays second order.

The species are the leading axis of every field of a radial solution:
``P`` and ``u = u0 + P`` are stored and ``E = exp(2u) - 1`` is derived on
each read, all of shape ``(2, n)``, index 0 holding species 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv

from .errors import NonConvergenceError, check_solver_options
from .model import ModelParams, background, coupling_matrix

__all__ = [
    "RadialMesh",
    "RadialSolution",
    "ProfileSet",
    "radial_mesh",
    "solve_radial_P",
    "solve_profile_bps",
    "reconstruct_profiles",
    "ode_residual",
    "central_derivative",
    "radial_system_residual",
]

#: Geometric grading switches to uniform spacing beyond this radius.
GRADING_SWITCH_RADIUS = 2.0

#: Offset added to the radius inside the graded section.  Spacings follow a
#: geometric progression in (r + offset), which keeps the innermost spacing
#: a few 1e-4 at production resolutions: the smooth parts carry no structure
#: below that scale, and much finer cells would push the floating-point
#: evaluation floor of the pointwise residual above the solve tolerances.
GRADING_OFFSET = 0.1


@dataclass(frozen=True)
class RadialMesh:
    """Strictly increasing finite radial nodes, graded near zero then uniform.

    At least 1000 nodes, the first positive and the last at least 20;
    anything else raises ``ValueError``.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size < 1000:
            raise ValueError("radial mesh needs at least 1000 nodes")
        if not np.all(np.isfinite(r)):
            raise ValueError("radial nodes must be finite")
        if r[0] <= 0.0:
            raise ValueError("innermost radius must be positive")
        if r[-1] < 20.0:
            raise ValueError("outer radius must be at least 20")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("radial nodes must be strictly increasing")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @property
    def r_min(self) -> float:
        return float(self.r[0])

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    @property
    def n(self) -> int:
        return self.r.size


def radial_mesh(r_min: float = 1e-4, r_max: float = 30.0, n: int = 4000) -> RadialMesh:
    """Geometric-then-uniform mesh with a slope-matched junction.

    On the graded section ``[r_min, GRADING_SWITCH_RADIUS]`` adjacent
    spacings form a geometric progression (ratio ~1.02 at the 1000-node
    floor, gentler at higher resolution); beyond the switch the spacing is
    uniform.  The junction matches the local spacings and the map is fixed
    by ``(r_min, r_max)`` alone, so doubling the interval count halves
    every spacing -- clean second-order refinement.
    """
    if not (0.0 < r_min < GRADING_SWITCH_RADIUS < r_max < math.inf):
        raise ValueError(
            f"need 0 < r_min < {GRADING_SWITCH_RADIUS:g} < r_max < inf, "
            f"got r_min={r_min}, r_max={r_max}"
        )
    c = GRADING_OFFSET
    K = (GRADING_SWITCH_RADIUS + c) / (r_min + c)
    lnk = math.log(K)
    t0 = lnk / (lnk + (r_max - GRADING_SWITCH_RADIUS) / (GRADING_SWITCH_RADIUS + c))
    t = np.linspace(0.0, 1.0, n)
    slope = (r_max - GRADING_SWITCH_RADIUS) / (1.0 - t0)
    graded, r = t <= t0, np.empty_like(t)  # each formula on its own nodes: K ** (t / t0) overflows
    r[graded] = (r_min + c) * K ** (t[graded] / t0) - c
    r[~graded] = GRADING_SWITCH_RADIUS + slope * (t[~graded] - t0)
    r[0], r[-1] = r_min, r_max
    return RadialMesh(r=r)


@dataclass
class RadialSolution:
    """Converged fields of the regularized radial system and solve metadata.

    ``P`` and ``u`` have shape ``(2, n)``, one row per species.  A solve
    stores the ``P`` it solved for, a loaded file the ``u`` it read, and
    each also the other; each read of ``E`` derives a new array from ``u``.
    """

    params: ModelParams
    mesh: RadialMesh
    P: np.ndarray
    u: np.ndarray
    iterations: int
    residual: float

    @property
    def E(self) -> np.ndarray:
        """``E = exp(2u) - 1``, a new ``(2, n)`` array."""
        with np.errstate(over="ignore"):
            return np.expm1(2.0 * self.u)


@dataclass
class ProfileSet:
    """Profile functions on a radial mesh.

    Produced either by the first-order profile solver (which also reports
    the fitted near-origin constants ``c1 = Q1'(0)`` and ``c2 = Q2(0)``)
    or by reconstruction from a radial solution.
    """

    mesh: RadialMesh
    f: np.ndarray
    f_NA: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    c1: Optional[float] = None
    c2: Optional[float] = None
    iterations: Optional[int] = None
    residual: Optional[float] = None


# ---------------------------------------------------------------------------
# finite differences on a nonuniform mesh
# ---------------------------------------------------------------------------


def central_derivative(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform mesh.

    Weighted central differences at interior nodes, one-sided 3-point
    formulas at the two endpoints.  Differentiates along the last axis of
    ``y``, so a ``(2, n)`` stack is differentiated per species.
    """
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    out[..., 1:-1] = (
        -hp / (hm * (hm + hp)) * y[..., :-2]
        + (hp - hm) / (hm * hp) * y[..., 1:-1]
        + hm / (hp * (hm + hp)) * y[..., 2:]
    )
    h0, h1 = r[1] - r[0], r[2] - r[1]
    out[..., 0] = (
        -(2.0 * h0 + h1) / (h0 * (h0 + h1)) * y[..., 0]
        + (h0 + h1) / (h0 * h1) * y[..., 1]
        - h0 / (h1 * (h0 + h1)) * y[..., 2]
    )
    g0, g1 = r[-1] - r[-2], r[-2] - r[-3]
    out[..., -1] = (
        (2.0 * g0 + g1) / (g0 * (g0 + g1)) * y[..., -1]
        - (g0 + g1) / (g0 * g1) * y[..., -2]
        + g0 / (g1 * (g0 + g1)) * y[..., -3]
    )
    return out


def _laplacian_coefficients(r: np.ndarray):
    """Finite-volume radial Laplacian stencil (sub, diag, sup) per node.

    Node 0 owns the whole axis cell ``[0, (r0 + r1)/2]``: the inner face
    flux ``r * y'`` vanishes identically at the axis for smooth fields,
    which realizes the zero-slope condition without a ghost node.  The
    last node is left for a Dirichlet row and gets zero coefficients.
    """
    n = r.size
    sub = np.zeros(n)
    dia = np.zeros(n)
    sup = np.zeros(n)

    rp = 0.5 * (r[1:] + r[:-1])  # face radii, len n-1
    h = r[1:] - r[:-1]

    vol0 = 0.5 * rp[0] ** 2
    sup[0] = rp[0] / (h[0] * vol0)
    dia[0] = -sup[0]

    vol = 0.5 * (rp[1:] ** 2 - rp[:-1] ** 2)  # len n-2, for nodes 1..n-2
    sub[1:-1] = rp[:-1] / (h[:-1] * vol)
    sup[1:-1] = rp[1:] / (h[1:] * vol)
    dia[1:-1] = -(sub[1:-1] + sup[1:-1])
    return sub, dia, sup


def _apply_stencil(stencil, y: np.ndarray) -> np.ndarray:
    # Along the last axis: one species or a (2, n) stack.
    sub, dia, sup = stencil
    out = np.zeros_like(y)
    out[..., 0] = dia[0] * y[..., 0] + sup[0] * y[..., 1]
    out[..., 1:-1] = sub[1:-1] * y[..., :-2] + dia[1:-1] * y[..., 1:-1] + sup[1:-1] * y[..., 2:]
    return out


#: Beyond this radius the discrete source switches from pointwise ``phi``
#: to the stencil Laplacian of the analytic background.
SOURCE_BLEND_RADIUS = 5.0


# ---------------------------------------------------------------------------
# regularized radial system
# ---------------------------------------------------------------------------


class _RegularizedSystem:
    """Discrete regularized radial system on interleaved unknowns.

    The unknowns are ``z = (P1_0, P2_0, P1_1, P2_1, ...)``, so the Jacobian
    is banded with widths (2, 2); ``z.reshape(-1, 2).T`` is the ``(2, n)``
    view of ``P``.  The residual is ``lap_h(P) - A @ E - Phi_h`` with the
    finite-volume stencil and the scheme-consistent source; the outer node
    carries the Dirichlet mismatch ``P_i + u0_i(r_max)``.  Coupling matrix,
    background ``u0``, source ``phi`` (both ``(2, n)``) and stencil are
    derived from ``params`` once, on construction.
    """

    def __init__(self, params: ModelParams, mesh: RadialMesh):
        bg = background(params)
        r = mesh.r
        n = r.size
        r2 = r * r
        self.A = coupling_matrix(params).A
        self.u0 = np.stack([bg.u0_1(r2), bg.u0_2(r2)])
        self.stencil = _laplacian_coefficients(r)
        # Near the origin the source is the analytic phi_i (the smooth parts
        # carry the truncation there and it is tiny).  In the far field it is
        # -lap_h(u0_i) with the solver's own stencil, so the algebraic
        # tau/r**2 background tail cancels out of the truncation error and the
        # discrete solution tracks the exponentially small fields instead of
        # an O(h^2/r^6) error floor.
        far = r > SOURCE_BLEND_RADIUS
        self.phi = np.where(
            far, -_apply_stencil(self.stencil, self.u0), np.stack([bg.phi_1(r2), bg.phi_2(r2)])
        )
        sub, self.dia, sup = self.stencil
        # Stencil bands of the Jacobian in the LAPACK workspace layout of
        # :func:`solve_banded`, two leading rows left zero for the fill-in;
        # the last node's coefficients are zero.
        self.bands = np.zeros((7, 2 * n), order="F")
        self.bands[2, 2:] = np.repeat(sup[: n - 1], 2)
        self.bands[6, : 2 * n - 2] = np.repeat(sub[1:], 2)

    def fields(self, z):
        """``E = expm1(2 u)`` of the interleaved unknowns, shape ``(2, n)``."""
        with np.errstate(over="ignore"):
            return np.expm1(2.0 * (self.u0 + z.reshape(-1, 2).T))

    def residual(self, z):
        A = self.A
        E = self.fields(z)
        P = z.reshape(-1, 2).T
        F = np.empty(z.size)
        # ``A @ E`` written out, so each row keeps its order of operations.
        F.reshape(-1, 2).T[...] = _apply_stencil(self.stencil, P) - (
            A[:, :1] * E[0] + A[:, 1:] * E[1] + self.phi
        )
        F[-2:] = P[:, -1] + self.u0[:, -1]
        return F

    def jacobian(self, z, ab):
        """Write the Jacobian at ``z`` into the ``(7, 2n)`` workspace ``ab``."""
        A, dia = self.A, self.dia
        dE = 2.0 * (self.fields(z) + 1.0)
        dE[:, -1] = 0.0  # Dirichlet rows carry no coupling
        ab[...] = self.bands
        ab[3, 1::2] = -A[0, 1] * dE[1]  # dF1/dP2 at the same node
        ab[4, 0::2] = dia - A[0, 0] * dE[0]
        ab[4, 1::2] = dia - A[1, 1] * dE[1]
        ab[4, -2:] = 1.0
        ab[5, 0::2] = -A[1, 0] * dE[0]  # dF2/dP1 at the same node

    def floor(self, z):
        # Evaluation floor of the residual: the stencil rows cancel to
        # rounding of the stored fields.
        scale = max(1.0, float(np.max(np.abs(z))))
        return 4.0 * np.finfo(float).eps * float(np.max(np.abs(self.dia))) * scale


def solve_banded(bands, ab, b):
    """Solve a banded system held in LAPACK's band storage, in place.

    ``bands = (kl, ku)`` are the numbers of sub- and superdiagonals, and
    ``ab`` is a Fortran-ordered float array of shape ``(2*kl + ku + 1, n)``
    holding entry ``(i, j)`` of the matrix at ``ab[kl + ku + i - j, j]``;
    its ``kl`` leading rows are zero, room for the fill-in of the pivoted
    factorization (Anderson et al., *LAPACK Users' Guide*, 1999).  ``dgbsv``
    overwrites ``ab`` with the factors and ``b`` with the solution, which is
    returned.  As :func:`scipy.linalg.solve_banded` does, a non-finite
    ``ab`` or ``b`` raises ``ValueError`` and a singular matrix
    ``LinAlgError``.
    """
    for a in (ab, b):  # min and max propagate a NaN, and allocate nothing
        if not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError("array must not contain infs or NaNs")
    kl, ku = bands
    _, _, x, info = dgbsv(kl, ku, ab, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x


def _damped_newton(system, jacobian, bands, z, tol, max_iter, label, floor=None):
    """Residual-norm damped Newton with a banded Jacobian.

    ``bands = (kl, ku)`` gives the Jacobian's band widths.  One
    Fortran-ordered workspace of shape ``(2*kl + ku + 1, z.size)`` is
    allocated per solve; at each step ``jacobian(z, ab)`` writes every entry
    of it, the Jacobian in :func:`solve_banded`'s layout with the ``kl``
    leading rows zero, and :func:`solve_banded` factors it in place.
    Each step solves ``J(z) d = -F(z)`` and halves ``t`` from 1 until the
    sup norm of the residual drops below ``(1 - 1e-4 t)`` times its current
    value (Dennis & Schnabel 1983).  When halving reaches ``2**-30`` the
    iterate is accepted if its norm is within ``max(tol, floor(z))``, the
    evaluation floor of the residual; otherwise the line search has
    stalled.  Returns ``(z, iterations, norm)``; a failure raises
    :class:`NonConvergenceError` carrying the last accepted ``z``.
    """
    kl, ku = bands
    ab = np.empty((2 * kl + ku + 1, z.size), order="F")
    F = system(z)
    norm = float(np.max(np.abs(F)))
    for iteration in range(1, max_iter + 1):
        if norm < tol:
            return z, iteration - 1, norm
        jacobian(z, ab)
        step = solve_banded(bands, ab, -F)
        t = 1.0
        while True:
            trial = z + t * step
            tF = system(trial)
            tnorm = float(np.max(np.abs(tF)))
            if math.isfinite(tnorm) and tnorm < (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
            if t < 2.0**-30:
                if floor is not None and norm <= max(tol, floor(z)):
                    return z, iteration, norm
                raise NonConvergenceError(
                    f"{label} Newton line search stalled",
                    iterations=iteration,
                    residual=norm,
                    last_iterate=z,
                )
        z, F, norm = trial, tF, tnorm

    if norm < tol:
        return z, max_iter, norm
    raise NonConvergenceError(
        f"{label} solve did not reach tol={tol:g} in {max_iter} iterations "
        f"(last residual {norm:.3e})",
        iterations=max_iter,
        residual=norm,
        last_iterate=z,
    )


def solve_radial_P(
    params: ModelParams,
    mesh: RadialMesh,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> RadialSolution:
    """Damped-Newton solution of the regularized radial two-point BVP.

    Boundary conditions: ``P'(r_min) = 0`` (the smooth parts have zero
    slope at the axis) and ``P_i(r_max) = -u0_i(r_max)`` so the physical
    fields vanish at the outer radius.  ``tol`` must be positive and
    finite.  The solve stops when the sup norm of the discrete residual
    drops below ``tol``, or when the line search stalls (30 halvings) at an
    iterate whose residual is within ``max(tol, floor)``, the
    floating-point evaluation floor of the residual (1.4e-8 to 4.5e-8 on
    the default mesh).  So the returned ``residual`` can exceed a ``tol``
    below the floor: at ``tol = 1e-9``, ``(N, n1, n2) = (3, 1, 2)`` stops
    at 1.9e-9.  The solution's ``P`` and ``u`` have shape ``(2, n)``.
    A :class:`NonConvergenceError` carries the last iterate interleaved as
    ``(P1_0, P2_0, P1_1, ...)``.
    """
    check_solver_options(tol, max_iter)
    system = _RegularizedSystem(params, mesh)
    z, iterations, norm = _damped_newton(
        system.residual, system.jacobian, (2, 2), np.zeros(2 * mesh.n), tol, max_iter, "radial",
        floor=system.floor,
    )
    P = z.reshape(-1, 2).T.copy()
    return RadialSolution(
        params=params,
        mesh=mesh,
        P=P,
        u=system.u0 + P,
        iterations=iterations,
        residual=norm,
    )


# ---------------------------------------------------------------------------
# first-order profile system
# ---------------------------------------------------------------------------


def _profile_rhs(N: int, r, f, fna, q1, q2):
    """Right-hand side of the first-order profile system."""
    df = r * N * (q1 * q1 + (N - 1.0) * q2 * q2 - N)
    dfna = r * 0.5 * (q1 * q1 - q2 * q2)
    dq1 = q1 * ((N - 1.0) * fna + f) / (N * r)
    dq2 = q2 * (-fna + f) / (N * r)
    return df, dfna, dq1, dq2


def solve_profile_bps(
    N: int,
    r_max: float = 30.0,
    tol: float = 1e-10,
    n: int = 96000,
    r_min: float = 0.01,
    max_iter: int = 80,
) -> ProfileSet:
    """Damped-Newton collocation solve of the first-order profile system.

    Midpoint (box) collocation on every interval; the near-origin series
    ``f = 1 + a r^2``, ``f_NA = 1 + b r^2``, ``Q1 = c1 r``, ``Q2 = c2``
    supplies the left boundary rows with ``(c1, c2)`` as extra unknowns
    (``a`` and ``b`` follow from the equations and ``c2``), and the far
    field is anchored by ``Q1 = Q2 = 1`` at ``r_max``, letting ``f`` and
    ``f_NA`` decay naturally.  Convergence is measured on the sup norm of
    the collocation system; the reported ``residual`` field is that norm.
    A :class:`NonConvergenceError` carries the last iterate packed as
    ``(c1, c2, f_0, f_NA_0, Q1_0, Q2_0, f_1, ...)``.
    """
    if N < 2 or N % 1 != 0:  # a non-finite N leaves a NaN remainder
        raise ValueError(f"rank N must be an integer >= 2, got {N!r}")
    check_solver_options(tol, max_iter)
    N = int(N)
    mesh = radial_mesh(r_min=r_min, r_max=r_max, n=n)
    r = mesh.r
    h = np.diff(r)
    rm = 0.5 * (r[1:] + r[:-1])
    size = 4 * n + 2

    def unpack(z):
        y = z[2:].reshape(n, 4)
        return z[0], z[1], y[:, 0], y[:, 1], y[:, 2], y[:, 3]

    def system(z):
        c1, c2, f, fna, q1, q2 = unpack(z)
        F = np.empty(size)
        a = N * ((N - 1.0) * c2 * c2 - N) / 2.0
        b = -c2 * c2 / 4.0
        F[0] = f[0] - 1.0 - a * r[0] ** 2
        F[1] = fna[0] - 1.0 - b * r[0] ** 2
        F[2] = q1[0] - c1 * r[0]
        F[3] = q2[0] - c2
        fm, fnam, q1m, q2m = (0.5 * (v[1:] + v[:-1]) for v in (f, fna, q1, q2))
        df, dfna, dq1, dq2 = _profile_rhs(N, rm, fm, fnam, q1m, q2m)
        block = F[4 : 4 + 4 * (n - 1)].reshape(n - 1, 4)
        block[:, 0] = f[1:] - f[:-1] - h * df
        block[:, 1] = fna[1:] - fna[:-1] - h * dfna
        block[:, 2] = q1[1:] - q1[:-1] - h * dq1
        block[:, 3] = q2[1:] - q2[:-1] - h * dq2
        F[-2] = q1[-1] - 1.0
        F[-1] = q2[-1] - 1.0
        return F

    def jacobian(z, ab):
        c1, c2, f, fna, q1, q2 = unpack(z)
        # Band storage: entry (row, col) of J sits at ab[10 + row - col, col],
        # below the five zero rows that solve_banded leaves for the fill-in.
        ab.fill(0.0)
        r0sq = r[0] ** 2
        for row, col, value in (
            (0, 2, 1.0),
            (0, 1, -N * (N - 1.0) * c2 * r0sq),
            (1, 3, 1.0),
            (1, 1, 0.5 * c2 * r0sq),
            (2, 4, 1.0),
            (2, 0, -r[0]),
            (3, 5, 1.0),
            (3, 1, -1.0),
            (size - 2, size - 2, 1.0),
            (size - 1, size - 1, 1.0),
        ):
            ab[10 + row - col, col] = value

        fm, fnam, q1m, q2m = (0.5 * (v[1:] + v[:-1]) for v in (f, fna, q1, q2))

        half_h = 0.5 * h

        def put(k, m, v):
            # Entry (k, m) of the right-hand side's 4x4 Jacobian at the
            # midpoints, v, enters as 0.0 - 0.5 * h * v, with -1 and +1 on the
            # diagonal.  Interval i has rows 4 + 4i + k; its unknowns at node i
            # sit in columns 2 + 4i + m, those at node i + 1 four columns on.
            coeff = 0.0 - half_h * v
            diag = 1.0 if k == m else 0.0
            ab[12 + k - m, 2 + m : -4 : 4] = coeff - diag
            ab[8 + k - m, 6 + m :: 4] = coeff + diag

        put(0, 2, 2.0 * rm * N * q1m)
        put(0, 3, 2.0 * rm * N * (N - 1.0) * q2m)
        put(1, 2, rm * q1m)
        put(1, 3, -rm * q2m)
        inv = 1.0 / (N * rm)
        put(2, 0, q1m * inv)
        put(2, 1, (N - 1.0) * q1m * inv)
        put(2, 2, ((N - 1.0) * fnam + fm) * inv)
        put(3, 0, q2m * inv)
        put(3, 1, -q2m * inv)
        put(3, 3, (-fnam + fm) * inv)
        # The structural zeros (0, 0), (0, 1), (1, 0), (1, 1), (2, 3) and
        # (3, 2) give 0.0 - 0.5 * h * 0.0 = 0.0: -1 and +1 on the diagonal,
        # and the fill's 0.0 elsewhere.
        for k in (0, 1):
            ab[12, 2 + k : -4 : 4] = -1.0
            ab[8, 6 + k :: 4] = 1.0

    # Initial guess: unit-amplitude cores decaying on an O(1) scale.
    sech2 = 1.0 / np.cosh(r) ** 2
    z = np.empty(size)
    z[0] = 0.8
    z[1] = 0.8
    y = z[2:].reshape(n, 4)
    y[:, 0] = sech2
    y[:, 1] = sech2
    y[:, 2] = np.tanh(0.8 * r)
    y[:, 3] = 1.0 - 0.2 * sech2

    z, iterations, norm = _damped_newton(system, jacobian, (5, 5), z, tol, max_iter, "profile")
    c1, c2, f, fna, q1, q2 = unpack(z)
    return ProfileSet(
        mesh=mesh,
        f=f.copy(),
        f_NA=fna.copy(),
        Q1=q1.copy(),
        Q2=q2.copy(),
        c1=float(c1),
        c2=float(c2),
        iterations=iterations,
        residual=norm,
    )


# ---------------------------------------------------------------------------
# reconstruction and residuals
# ---------------------------------------------------------------------------


def radial_system_residual(params: ModelParams, mesh: RadialMesh, P: np.ndarray) -> np.ndarray:
    """Componentwise residual of the discrete regularized system at ``P``.

    ``P`` and the result have shape ``(2, n)``.  Evaluates ``lap_h(P) - A @
    E - Phi_h`` with the solver's own stencil and source; the outer node
    carries the Dirichlet mismatch.  This is the quantity the radial
    Newton iteration drives to zero.
    """
    F = _RegularizedSystem(params, mesh).residual(np.asarray(P).T.ravel())
    return F.reshape(-1, 2).T


def reconstruct_profiles(sol: RadialSolution) -> ProfileSet:
    """Profile functions from a radial solution of the regularized system.

    ``f_NA = r (u1' - u2')``, ``f = r (u1' + (N-1) u2')``; the slopes split
    as ``u' = u0' + P'`` with the singular background part analytic and
    central differences only on the smooth parts, and ``Q_i`` is evaluated
    in the stable rational-power form times ``exp(P_i)``.
    """
    params = sol.params
    r = sol.mesh.r
    bg = background(params)
    du = np.stack([bg.u0_prime_1(r), bg.u0_prime_2(r)]) + central_derivative(r, sol.P)
    f_na = r * (du[0] - du[1])
    f = r * (du[0] + (params.N - 1.0) * du[1])
    r2 = r * r
    Q = (r2 / (r2 + params.tau)) ** params.multiplicities[:, None] * np.exp(sol.P)
    return ProfileSet(mesh=sol.mesh, f=f, f_NA=f_na, Q1=Q[0], Q2=Q[1])


def ode_residual(ps: ProfileSet, params: ModelParams) -> float:
    """Sup norm over interior nodes of the four profile-equation residuals.

    Derivatives are central differences on the mesh; the four residuals
    are evaluated in the first-order forms ``f'/r - ...`` and
    ``r Q' - ...``.
    """
    N = params.N
    r = ps.mesh.r
    df, dfna, dq1, dq2 = central_derivative(r, np.stack([ps.f, ps.f_NA, ps.Q1, ps.Q2]))
    s = slice(1, -1)
    r_i = r[s]
    q1, q2, f, fna = ps.Q1[s], ps.Q2[s], ps.f[s], ps.f_NA[s]
    res1 = df[s] / r_i - N * (q1 * q1 + (N - 1.0) * q2 * q2 - N)
    res2 = dfna[s] / r_i - 0.5 * (q1 * q1 - q2 * q2)
    res3 = r_i * dq1[s] - q1 * ((N - 1.0) * fna + f) / N
    res4 = r_i * dq2[s] - q2 * (-fna + f) / N
    return float(np.max(np.abs([res1, res2, res3, res4])))
