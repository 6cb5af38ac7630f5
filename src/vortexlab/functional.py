"""Discrete convex action functional on a planar grid.

The continuum functional is truncated to the box ``[-L, L]^2`` with the
fields held fixed on the boundary.  Gradient terms are forward-difference
edge energies (their first variation is the standard 5-point Laplacian),
potential and source terms are node sums weighted by the cell area.  The
gradient and Hessian-vector product returned here are the *exact*
derivatives of the discrete energy, so finite-difference checks pass at
machine-level tolerance and strict convexity survives discretization.

The field pair ``(w1, w2)`` is one float array of shape ``(2, n, n)``,
index 0 holding ``w1`` and index 1 ``w2``; the gradient, Hessian
directions and preconditioner inputs and outputs share that layout.
Boundary entries are Dirichlet data; only interior entries are degrees of
freedom.  The background enters through two node arrays of that layout,
built once per problem: ``weight``, the coefficient of each exponential
``exp(s_k)`` with ``s = 2 J w`` and ``J = L = [[1, 0], [gamma, 1]]``, the
coupling matrix's Crout factor, and ``source``, the coefficient of each
``w_k``.  Each potential term is one expression over both species; only
the edge terms, weighted by one ``c_grad`` per species, run on
per-species slices.

Exponential-minus-one terms are evaluated with ``expm1`` so small fields
do not lose precision, and an exponent cap (``EXP_CAP``) rejects fields
that could only arise from a diverging outer iteration.  The energy
*change* along a step is evaluated directly, without subtracting two
totals, so a line search can resolve decreases far below the rounding of
the energy itself.

The Hessian's far-field part (curvature frozen at ``exp(2*u0) = 1``,
``w = 0``) has constant coefficients: one constant change of species
variables splits it into two scalar operators, each diagonalized by an
orthonormal DST-I.  Its inverse, the fast-Poisson preconditioner of Concus
& Golub (1973), is two decoupled direct sine-transform solves (Buzbee,
Golub & Nielson 1970), run in float32 with a float64 result: exact to
single-precision rounding.  Energy, gradient and Hessian stay float64.

A problem that is invariant under ``x -> -x`` and ``y -> -y`` on an even
grid can be restricted to symmetric fields, built and evaluated on the
nodes of one quadrant alone (see :class:`DiscreteFunctional`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldOverflowError
from .model import ModelParams, background, coupling_matrix, functional_coefficients
from .model import _symmetric_eig_2x2

__all__ = ["PlanarGrid", "DiscreteFunctional", "symmetries"]

#: Largest ``|s_k|`` of the exponents ``s = 2 J w`` accepted by an evaluation.
EXP_CAP = 300.0


@dataclass(frozen=True)
class PlanarGrid:
    """Uniform tensor grid on the closed box ``[-L, L]^2``.

    ``half_width`` is a positive finite real and ``points_per_side`` an
    integer (or an integral real) ``>= 16``, such that the spacing
    ``h = 2 * half_width / (points_per_side - 1)`` and the cell area
    ``h**2`` are both positive and finite; anything else raises
    ``ValueError``.  No node sits at the exact origin: for an even
    ``points_per_side`` the symmetric grid already avoids it, for an odd
    count every node is shifted by ``h/2`` (which sacrifices the exact
    negation symmetry of the node set).  Coordinates are built as integer
    multiples of ``h/2`` so symmetric grids are symmetric to the last bit.
    """

    half_width: float
    points_per_side: int
    coords: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        n = self.points_per_side
        if n % 1 != 0 or n < 16:  # a non-finite n leaves a NaN remainder
            raise ValueError(f"points_per_side must be an integer >= 16, got {n!r}")
        object.__setattr__(self, "points_per_side", int(n))
        h = self.spacing
        if not (0.0 < h < math.inf and 0.0 < h * h < math.inf):
            raise ValueError(
                f"half_width {self.half_width} gives a grid spacing {h!r} whose square "
                "is not positive and finite"
            )
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
        return _layout_radius_squared(self, quadrant=False)


def _layout_radius_squared(grid: PlanarGrid, quadrant: bool) -> np.ndarray:
    """``|x|**2`` at every node, or at the quadrant nodes ``[n/2 - 1:, n/2 - 1:]`` (even ``n``)."""
    n = grid.points_per_side
    if quadrant and n % 2:
        raise ValueError(f"the quadrant layout needs an even grid, got {n} points")
    x2 = grid.coords[n // 2 - 1 :] ** 2 if quadrant else grid.coords**2
    return x2[:, None] + x2[None, :]


def symmetries(a: np.ndarray) -> tuple[bool, bool]:
    """Whether ``a`` is unchanged by both mirrors of its last two axes, and by their swap.

    The mirrors reverse either axis; the swap is the transpose.  Values are
    compared with ``==``, so a ``NaN`` never matches, and ``-0.0`` matches
    ``0.0``.
    """
    mirrors = np.array_equal(a, a[..., ::-1, :]) and np.array_equal(a, a[..., ::-1])
    return mirrors, np.array_equal(a, np.swapaxes(a, -1, -2))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b``, not by BLAS, whose threads would change the summation order."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _edge_energy_change(w: np.ndarray, step: np.ndarray) -> float:
    # Forward-difference edges; h cancels: (d/h)^2 * h^2 = d^2.
    # (dw + dd)^2 - dw^2 = dd * (2*dw + dd) per edge, with no cancellation.
    total = 0.0
    for axis in (0, 1):
        dw = np.diff(w, axis=axis)
        dd = np.diff(step, axis=axis)
        dw *= 2.0
        dw += dd
        total += _dot(dd, dw)
    return total


def _sine_matrix(m: int, rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Orthonormal DST-I matrix of order ``m``: symmetric and its own inverse.

    ``rows`` and ``cols`` select a block, computed alone and equal to that
    slice of the whole matrix.
    """
    k = np.arange(1, m + 1)
    # Reduce j*k modulo 2(m+1) in integers so every sine argument is in [0, 2*pi).
    phase = np.outer(k[rows], k[cols]) % (2 * (m + 1))
    return np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))


def _neighbor_sum(w: np.ndarray) -> np.ndarray:
    # 4*w - sum of neighbors on interior nodes, over the last two axes.
    return (4.0 * w[..., 1:-1, 1:-1] - w[..., :-2, 1:-1] - w[..., 2:, 1:-1]
            - w[..., 1:-1, :-2] - w[..., 1:-1, 2:])


class DiscreteFunctional:
    """Energy, gradient and Hessian-vector product of one problem on a grid.

    Derived from ``params`` once, at construction: the coefficients ``fc``,
    the Crout coefficient ``gamma``, the per-species ``c_grad`` of the edge
    terms, and the node arrays ``weight = [c_exp1 * exp(2*u0_1), exp(2*u0_2)]``
    and ``source = [2*c_grad1 * psi_1 - c_lin1, 2*c_grad2 * psi_2 - 2]``, so
    that the node potential is ``sum_k weight_k * expm1(s_k) + source_k * w_k``.
    Evaluation is then pure array arithmetic, and every sum is taken by
    :func:`_dot`, so results do not depend on the BLAS thread count.

    Fields use the full ``(2, n, n)`` layout unless ``quadrant`` is true
    (even ``n``, a problem unchanged by ``x -> -x`` and ``y -> -y``): the
    functional is then restricted to D2-symmetric fields, and fields,
    ``weight`` and ``source`` live on the ``(n/2 + 1)^2`` nodes
    ``[n/2 - 1:, n/2 - 1:]``, the only ones the background is evaluated at.
    Index 0 on each axis mirrors index 1 (``-h/2`` mirrors ``+h/2``) and
    the last is the box edge.  ``weight`` and ``source`` are zero on the
    mirror and edge sums skip it, so ``energy`` and ``energy_change`` are a
    quarter of the full grid's for the unfolded field.  ``gradient`` and
    the Hessian apply first copy index 1 into the mirror of their input, in
    place, so they give the full grid's per-node derivatives: the exact
    derivatives of the quarter energy.
    """

    def __init__(self, params: ModelParams, grid: PlanarGrid, quadrant: bool = False):
        self.grid = grid
        self.quadrant = quadrant
        cd = coupling_matrix(params)
        fc = self.fc = functional_coefficients(cd)
        self.gamma = cd.gamma
        self.c_grad = (fc.c_grad1, fc.c_grad2)
        bg = background(params)
        r2 = _layout_radius_squared(grid, quadrant)
        self.weight = np.stack([fc.c_exp1 * bg.exp_two_u0_1(r2), bg.exp_two_u0_2(r2)])
        self.source = np.stack([
            2.0 * fc.c_grad1 * bg.psi_1(r2) - fc.c_lin1,
            2.0 * fc.c_grad2 * bg.psi_2(r2) - 2.0,
        ])
        if quadrant:
            for a in (self.weight, self.source):
                a[:, 0, :] = a[:, :, 0] = 0.0

    # -- helpers -----------------------------------------------------------

    def _exponents(self, w: np.ndarray) -> np.ndarray:
        """``s = 2 J w`` as a new ``(2, n, n)`` array, checked against the cap."""
        s = 2.0 * w
        s[1] += self.gamma * s[0]
        self._check_cap(s)
        return s

    def _check_cap(self, s: np.ndarray) -> None:
        # max |s| from two reductions, without an abs() copy of s.
        m = max(float(s.max()), -float(s.min()))
        if m > EXP_CAP:
            raise FieldOverflowError(
                f"exponent argument {m:.3g} exceeds cap {EXP_CAP:.3g}; "
                "the outer iteration is diverging"
            )

    def _weighted_exp(self, s: np.ndarray) -> np.ndarray:
        """``weight * exp(s)``, overwriting and returning ``s``."""
        np.exp(s, out=s)
        s *= self.weight
        return s

    def _stiffness(self, w: np.ndarray) -> np.ndarray:
        """Gradient terms' part ``2*c_grad_k * K_h w_k`` per species; zero edge.

        On the quadrant, index 1 is first copied into the mirror of ``w``.
        """
        if self.quadrant:
            w[:, 0, :] = w[:, 1, :]
            w[:, :, 0] = w[:, :, 1]
        out = np.zeros_like(w)
        for k, c_grad in enumerate(self.c_grad):
            out[k, 1:-1, 1:-1] = 2.0 * c_grad * _neighbor_sum(w[k])
        return out

    # -- operations --------------------------------------------------------

    def energy(self, w: np.ndarray) -> float:
        """Value of the discrete action functional: the change from ``w = 0``."""
        return self.energy_change(np.zeros_like(w), w)

    def energy_change(self, w: np.ndarray, step: np.ndarray) -> float:
        """``energy(w + step) - energy(w)``, evaluated without cancellation.

        Edge terms are expanded as ``dd * (2*dw + dd)`` and exponentials as
        ``exp(s) * expm1(ds)``, so the result is accurate relative to the
        change itself, not to the total energy.  Raises
        :class:`FieldOverflowError` if ``w`` or ``w + step`` exceeds the
        exponent cap.  ``step`` is any array of the layout of ``w``: its
        boundary entries enter the edge and node terms as the interior ones
        do; on the quadrant, the mirror entries of both are ignored.
        """
        s = self._exponents(w)
        ds = 2.0 * step
        ds[1] += self.gamma * ds[0]
        self._check_cap(s + ds)
        e = self._weighted_exp(s)
        pot = _dot(e, np.expm1(ds, out=ds)) + _dot(self.source, step)
        o = int(self.quadrant)  # the quadrant's edge sums skip its mirror
        grad = sum(
            c * _edge_energy_change(wk[o:, o:], dk[o:, o:])
            for c, wk, dk in zip(self.c_grad, w, step)
        )
        return grad + self.grid.cell_area * pot

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """Exact partial derivatives w.r.t. interior node values; boundary zero.

        The potential part is ``h^2 * (2 J^T (weight * exp(s)) + source)``.
        """
        pot = self._weighted_exp(self._exponents(w))
        pot[0] += self.gamma * pot[1]
        pot *= 2.0
        pot += self.source
        pot *= self.grid.cell_area
        g = self._stiffness(w)
        g[:, 1:-1, 1:-1] += pot[:, 1:-1, 1:-1]
        return g

    def hessian_operator(self, w: np.ndarray):
        """Hessian at ``w`` as a reusable callable on directions of shape ``(2, n, n)``.

        The exponentials depend on ``w`` only through ``s = 2 J w``, so their
        curvature is ``J^T diag(T, S) J``, where the interior arrays
        ``T, S = 4 h^2 * weight * exp(s)`` carry the chain rule's factor 4 and
        the cell area.  They are evaluated once, so repeated applications
        (conjugate-gradient inner iterations) cost only stencil arithmetic.
        Directions must carry zero boundary entries; outputs do.
        """
        a = self.gamma
        s = self._exponents(w)
        c = 4.0 * self.grid.cell_area
        # One array per species: a stacked (2, m, m) product, or views into
        # the full weight * exp(s), raised the solve's peak RSS or page faults.
        T, S = (c * (wk * np.exp(sk))[1:-1, 1:-1] for wk, sk in zip(self.weight, s))

        def apply(d: np.ndarray) -> np.ndarray:
            out = self._stiffness(d)
            d1 = d[0, 1:-1, 1:-1]
            q = a * d1
            q += d[1, 1:-1, 1:-1]
            q *= S
            out[1, 1:-1, 1:-1] += q
            q *= a
            q += T * d1
            out[0, 1:-1, 1:-1] += q
            return out

        return apply

    def far_field_preconditioner(self):
        """Inverse of the Hessian's far-field operator as a callable on ``(2, n, n)`` arrays.

        The operator is ``diag(2*c_grad1, 2*c_grad2) (x) K_h`` plus the
        curvature ``J^T diag(T0, S0) J`` frozen at ``exp(2*u0) = 1``,
        ``w = 0``, where ``S0 = 4*h^2`` and ``T0 = 4*h^2*c_exp1``; with a flat
        background it is the Hessian at ``w = 0``.  The orthonormal DST-I
        ``S`` diagonalizes the 5-point stencil ``K_h`` (eigenvalues
        ``lam = mu_j + mu_k``), and with ``D = diag(sqrt(2*c_grad))`` every
        mode's 2x2 symbol is ``D (lam I + C) D`` for one constant SPD ``C``.
        Its eigenvectors ``Q`` decouple the species once: with ``V = D^-1 Q``
        the inverse is ``sum_k v_k v_k^T (x) S diag(1/(lam + kappa_k)) S``,
        two scalar fast-Poisson solves, symmetric positive definite.

        Everything runs in float32, so the apply is the exact inverse, and
        symmetric, only to single-precision rounding (about ``1e-6``
        relative).  It only shapes the CG search direction: the CG vectors,
        the Hessian and the stopping test stay float64, so a solve still
        meets its float64 tolerance.  Inputs are node arrays of the
        functional's layout; outputs are float64 with zero boundary (and
        mirror) entries.

        On the quadrant the apply is the full one restricted to symmetric
        fields.  Those hold only odd wavenumbers, where ``S x = 2 A x_+``
        with ``A = S[0::2, m/2:]`` (built alone, without ``S``) and ``x_+``
        the positive half, so each transform pair is ``A x A^T`` forward and
        ``A^T x A`` back, with the symbol ``4/(lam + kappa_k)`` at ``lam`` of
        the odd ``mu``.
        """
        fc = self.fc
        m = self.grid.points_per_side - 2
        mu = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
        if self.quadrant:
            A = _sine_matrix(m, slice(0, None, 2), slice(m // 2, None)).astype(np.float32)
            At, mu, scale = A.T, mu[0::2], 4.0
        else:
            A = At = _sine_matrix(m).astype(np.float32)
            scale = 1.0
        lam = mu[:, None] + mu[None, :]
        d = np.sqrt([2.0 * fc.c_grad1, 2.0 * fc.c_grad2])
        J = np.array([[1.0, 0.0], [self.gamma, 1.0]])
        curvature = 4.0 * self.grid.cell_area * (J.T @ np.diag([fc.c_exp1, 1.0]) @ J)
        *kappa, Q = _symmetric_eig_2x2(curvature / np.outer(d, d))
        inv = [(scale / (lam + k)).astype(np.float32) for k in kappa]
        # Python floats, so that they keep the float32 arithmetic float32.
        V = (Q / d[:, None]).tolist()

        def apply(r: np.ndarray) -> np.ndarray:
            r32 = r[:, 1:-1, 1:-1].astype(np.float32)
            x = []
            for (v1, v2), inv_k in zip(zip(*V), inv):  # the columns v_k of V
                xk = v1 * r32[0]
                xk += v2 * r32[1]
                xk = A @ xk @ At
                xk *= inv_k
                x.append(At @ xk @ A)
            del r32, xk  # freed before z, which gets one float32 sum per species: fewer faults
            z = np.zeros(r.shape)
            for zi, (v1, v2) in zip(z, V):
                zi[1:-1, 1:-1] = v1 * x[0] + v2 * x[1]
            return z

        return apply
