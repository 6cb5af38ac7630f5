"""Discrete convex action functional on a planar grid.

The continuum functional is truncated to the box ``[-L, L]^2`` with the
fields held fixed on the boundary.  Gradient terms are forward-difference
edge energies (their first variation is the standard 5-point Laplacian),
potential and source terms are node sums weighted by the cell area.  The
gradient and Hessian-vector product returned here are the *exact*
derivatives of the discrete energy, so finite-difference checks pass at
machine-level tolerance and strict convexity survives discretization.

Exponential-minus-one terms are evaluated with ``expm1`` so small fields
do not lose precision, and an exponent cap (default 300) rejects fields
that could only arise from a diverging outer iteration.  The energy
*change* along a step is evaluated directly, without subtracting two
totals, so a line search can resolve decreases far below the rounding of
the energy itself.

The Hessian's far-field part (curvature frozen at ``exp(2*u0) = 1``,
``w = 0``) has constant coefficients, so an orthonormal DST-I
diagonalizes it; its inverse is the fast-Poisson preconditioner of Concus
& Golub (1973), applied with the direct sine-transform solve of Buzbee,
Golub & Nielson (1970).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FieldOverflowError
from .model import ModelParams, background, coupling_matrix, functional_coefficients

__all__ = ["PlanarGrid", "FieldPair", "DiscreteFunctional"]

DEFAULT_EXP_CAP = 300.0


@dataclass(frozen=True)
class PlanarGrid:
    """Uniform tensor grid on the closed box ``[-L, L]^2``.

    No node sits at the exact origin: for an even ``points_per_side`` the
    symmetric grid already avoids it, for an odd count every node is
    shifted by ``h/2`` (which sacrifices the exact negation symmetry of the
    node set).  Coordinates are built as integer multiples of ``h/2`` so
    symmetric grids are symmetric to the last bit.
    """

    half_width: float
    points_per_side: int
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.half_width > 0.0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.points_per_side
        if int(n) != n or n < 16:
            raise ValueError(f"points_per_side must be an integer >= 16, got {n!r}")
        object.__setattr__(self, "points_per_side", int(n))
        ticks = 2 * np.arange(self.points_per_side) - (self.points_per_side - 1)
        if self.points_per_side % 2 == 1:
            ticks = ticks + 1  # shift by h/2; no node at the origin
        coords = ticks * (0.5 * self.spacing)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points_per_side - 1)

    @property
    def cell_area(self) -> float:
        return self.spacing**2

    def radius_squared(self) -> np.ndarray:
        """``|x|**2`` at every node, shape (n, n) with x along axis 0."""
        x2 = self.coords**2
        return x2[:, None] + x2[None, :]


@dataclass
class FieldPair:
    """The two scalar fields of the transformed system on grid nodes.

    Boundary entries are Dirichlet data (zero unless a solver installs
    lifted values); only interior entries are degrees of freedom.
    """

    w1: np.ndarray
    w2: np.ndarray

    @classmethod
    def zeros(cls, grid: PlanarGrid) -> "FieldPair":
        n = grid.points_per_side
        return cls(np.zeros((n, n)), np.zeros((n, n)))

    def copy(self) -> "FieldPair":
        return FieldPair(self.w1.copy(), self.w2.copy())

    def validate(self) -> None:
        for name, w in (("w1", self.w1), ("w2", self.w2)):
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} must be a square 2-D array, got shape {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"{name} contains non-finite entries")

    def sup_diff(self, other: "FieldPair") -> float:
        return max(
            float(np.max(np.abs(self.w1 - other.w1))),
            float(np.max(np.abs(self.w2 - other.w2))),
        )


def _edge_energy(w: np.ndarray) -> float:
    # Forward-difference edges; h cancels: (d/h)^2 * h^2 = d^2.
    dx = w[1:, :] - w[:-1, :]
    dy = w[:, 1:] - w[:, :-1]
    return float(np.sum(dx * dx) + np.sum(dy * dy))


def _edge_energy_change(w: np.ndarray, step: np.ndarray) -> float:
    # (dw + dd)^2 - dw^2 = dd * (2*dw + dd) per edge, with no cancellation.
    total = 0.0
    for axis in (0, 1):
        dw = np.diff(w, axis=axis)
        dd = np.diff(step, axis=axis)
        dw *= 2.0
        dw += dd
        total += float(np.vdot(dd, dw))
    return total


def _sine_matrix(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix of order ``m``: symmetric and its own inverse."""
    k = np.arange(1, m + 1)
    # Reduce j*k modulo 2(m+1) in integers so every sine argument is in [0, 2*pi).
    phase = np.outer(k, k) % (2 * (m + 1))
    return np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))


def _neighbor_sum(w: np.ndarray) -> np.ndarray:
    # 4*w - sum of neighbors on interior nodes.
    return 4.0 * w[1:-1, 1:-1] - w[:-2, 1:-1] - w[2:, 1:-1] - w[1:-1, :-2] - w[1:-1, 2:]


class DiscreteFunctional:
    """Energy, gradient and Hessian-vector product of one problem on a grid.

    The coefficients ``fc`` and the node arrays of the background are
    derived from ``params`` once, at construction; evaluation is then pure
    array arithmetic, deterministic in single-threaded mode.
    """

    def __init__(self, params: ModelParams, grid: PlanarGrid, exp_cap: float = DEFAULT_EXP_CAP):
        self.grid = grid
        self.fc = functional_coefficients(coupling_matrix(params))
        self.exp_cap = float(exp_cap)
        bg = background(params)
        r2 = grid.radius_squared()
        self.e2u01 = bg.exp_two_u0_1(r2)
        self.e2u02 = bg.exp_two_u0_2(r2)
        self.psi1 = bg.psi_1(r2)
        self.psi2 = bg.psi_2(r2)

    # -- helpers -----------------------------------------------------------

    def _exponents(self, fp: FieldPair) -> tuple[np.ndarray, np.ndarray]:
        s1 = 2.0 * fp.w1
        s2 = 2.0 * (self.fc.a_mix * fp.w1 + fp.w2)
        self._check_cap(s1, s2)
        return s1, s2

    def _check_cap(self, s1: np.ndarray, s2: np.ndarray) -> None:
        cap = self.exp_cap
        m1 = float(np.max(np.abs(s1)))
        m2 = float(np.max(np.abs(s2)))
        if m1 > cap or m2 > cap:
            raise FieldOverflowError(
                f"exponent argument {max(m1, m2):.3g} exceeds cap {cap:.3g}; "
                "the outer iteration is diverging"
            )

    def _curvature(self, S, T):
        """Entries ``c11, c12, c22`` of the exponential terms' 2x2 curvature.

        ``S = 4*exp(2*u0_2)*exp(s2)`` and ``T = 4*c_exp1*exp(2*u0_1)*exp(s1)``
        are node arrays at a field, or scalars for the frozen far field.
        """
        fc = self.fc
        h2 = self.grid.cell_area
        return h2 * (fc.a_mix**2 * S + T), h2 * (fc.a_mix * S), h2 * S

    # -- operations --------------------------------------------------------

    def energy(self, fp: FieldPair) -> float:
        """Value of the discrete action functional."""
        fc = self.fc
        s1, s2 = self._exponents(fp)
        pot = (
            self.e2u02 * np.expm1(s2)
            + fc.c_exp1 * self.e2u01 * np.expm1(s1)
            + (fc.c_psi1 * self.psi1 - fc.c_lin1) * fp.w1
            + (fc.c_psi2 * self.psi2 - 2.0) * fp.w2
        )
        grad = fc.c_grad1 * _edge_energy(fp.w1) + fc.c_grad2 * _edge_energy(fp.w2)
        return grad + self.grid.cell_area * float(np.sum(pot))

    def energy_change(self, fp: FieldPair, step: FieldPair) -> float:
        """``energy(fp + step) - energy(fp)``, evaluated without cancellation.

        Edge terms are expanded as ``dd * (2*dw + dd)`` and exponentials as
        ``exp(s) * expm1(ds)``, so the result is accurate relative to the
        change itself, not to the total energy.  Raises
        :class:`FieldOverflowError` if ``fp`` or ``fp + step`` exceeds the
        exponent cap.  Boundary entries of ``step`` must be zero.
        """
        fc = self.fc
        s1, s2 = self._exponents(fp)
        ds1 = 2.0 * step.w1
        ds2 = 2.0 * (fc.a_mix * step.w1 + step.w2)
        self._check_cap(s1 + ds1, s2 + ds2)
        pot = self.e2u02 * np.exp(s2) * np.expm1(ds2)
        pot += fc.c_exp1 * self.e2u01 * np.exp(s1) * np.expm1(ds1)
        pot += (fc.c_psi1 * self.psi1 - fc.c_lin1) * step.w1
        pot += (fc.c_psi2 * self.psi2 - 2.0) * step.w2
        grad = fc.c_grad1 * _edge_energy_change(fp.w1, step.w1) + fc.c_grad2 * _edge_energy_change(
            fp.w2, step.w2
        )
        return grad + self.grid.cell_area * float(np.sum(pot))

    def gradient(self, fp: FieldPair) -> FieldPair:
        """Exact partial derivatives w.r.t. interior node values; boundary zero."""
        fc = self.fc
        h2 = self.grid.cell_area
        s1, s2 = self._exponents(fp)
        exp1 = np.exp(s1)
        exp2 = np.exp(s2)

        g1 = np.zeros_like(fp.w1)
        g2 = np.zeros_like(fp.w2)
        pot1 = (
            2.0 * fc.a_mix * self.e2u02 * exp2
            + 2.0 * fc.c_exp1 * self.e2u01 * exp1
            + fc.c_psi1 * self.psi1
            - fc.c_lin1
        )
        pot2 = 2.0 * self.e2u02 * exp2 + fc.c_psi2 * self.psi2 - 2.0
        g1[1:-1, 1:-1] = 2.0 * fc.c_grad1 * _neighbor_sum(fp.w1) + h2 * pot1[1:-1, 1:-1]
        g2[1:-1, 1:-1] = 2.0 * fc.c_grad2 * _neighbor_sum(fp.w2) + h2 * pot2[1:-1, 1:-1]
        return FieldPair(g1, g2)

    def hessian_operator(self, fp: FieldPair):
        """Hessian at ``fp`` as a reusable callable on array pairs.

        The curvature arrays are evaluated once, so repeated applications
        (conjugate-gradient inner iterations) cost only stencil arithmetic.
        Input direction arrays must carry zero boundary entries; outputs do.
        """
        fc = self.fc
        s1, s2 = self._exponents(fp)
        c11, c12, c22 = self._curvature(
            4.0 * self.e2u02 * np.exp(s2), 4.0 * fc.c_exp1 * self.e2u01 * np.exp(s1)
        )

        def apply(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            out1 = np.zeros_like(d1)
            out2 = np.zeros_like(d2)
            out1[1:-1, 1:-1] = 2.0 * fc.c_grad1 * _neighbor_sum(d1) + (
                c11[1:-1, 1:-1] * d1[1:-1, 1:-1] + c12[1:-1, 1:-1] * d2[1:-1, 1:-1]
            )
            out2[1:-1, 1:-1] = 2.0 * fc.c_grad2 * _neighbor_sum(d2) + (
                c12[1:-1, 1:-1] * d1[1:-1, 1:-1] + c22[1:-1, 1:-1] * d2[1:-1, 1:-1]
            )
            return out1, out2

        return apply

    def far_field_preconditioner(self):
        """Inverse of the Hessian's far-field operator as a callable on array pairs.

        The operator is ``diag(2*c_grad1, 2*c_grad2) (x) K_h`` plus the
        curvature frozen at ``exp(2*u0) = 1``, ``w = 0``; with a flat
        background it is the Hessian at ``w = 0``.  The orthonormal DST-I
        ``S`` diagonalizes the 5-point stencil ``K_h`` (eigenvalues
        ``mu_j + mu_k``), leaving one 2x2 solve per mode, so the inverse is
        ``S (M_jk^-1 (S r S)) S`` on interior nodes: symmetric positive
        definite.  Inputs are full node arrays; outputs carry zero boundary
        entries.
        """
        fc = self.fc
        m = self.grid.points_per_side - 2
        S = _sine_matrix(m)
        mu = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
        lam = mu[:, None] + mu[None, :]
        c11, c12, c22 = self._curvature(4.0, 4.0 * fc.c_exp1)
        # Per-mode symbol [[a11, c12], [c12, a22]]; the off-diagonal is constant.
        a11 = 2.0 * fc.c_grad1 * lam + c11
        a22 = 2.0 * fc.c_grad2 * lam + c22
        inv_det = a11 * a22
        inv_det -= c12 * c12
        np.reciprocal(inv_det, out=inv_det)

        def apply(r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # In-place updates keep at most four interior-sized temporaries.
            x1 = S @ r1[1:-1, 1:-1] @ S
            x2 = S @ r2[1:-1, 1:-1] @ S
            y1 = a22 * x1
            y1 -= c12 * x2
            y1 *= inv_det
            x1 *= c12
            x2 *= a11
            x2 -= x1
            x2 *= inv_det
            del x1
            z1 = np.zeros_like(r1)
            np.matmul(S @ y1, S, out=z1[1:-1, 1:-1])
            del y1
            z2 = np.zeros_like(r2)
            np.matmul(S @ x2, S, out=z2[1:-1, 1:-1])
            return z1, z2

        return apply
