"""Problem parameters, coupling algebra, spectral constants, background fields.

A problem instance is indexed by an integer rank ``N >= 2`` and two vortex
multiplicities ``(n1, n2)`` concentrated at the origin.  Everything in this
module is closed-form 2x2 algebra derived from ``N``:

* the coupling matrix ``A`` of the nonlinear elliptic system and its
  triangular (Crout) factorization ``A = L @ R``;
* the positive diagonal matrix ``B`` that symmetrizes ``A`` into
  ``M = B @ A`` and the eigen-data of ``M`` and of ``D = M @ inv(B)``;
* the constants ``m``, ``p``, ``q`` entering the decay estimates and the
  quantized flux integrals.

The background fields split the point sources off the unknowns so that the
solvers only ever see smooth right-hand sides: ``u_i = u0_i + P_i`` with
``lap(u0_i) = -phi_i`` away from the origin, and ``exp(2*u0_i)`` evaluated
in the algebraically regular rational-power form that vanishes at the
origin instead of exponentiating a logarithm.

All 2x2 eigenvalue/inverse computations use characteristic-polynomial
closed forms rather than iterative routines, so the algebraic identities
tested downstream hold to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "CouplingData",
    "SpectralConstants",
    "FunctionalCoefficients",
    "BackgroundField",
    "coupling_matrix",
    "spectral_constants",
    "functional_coefficients",
    "flux_targets",
    "flux_integrand_rows",
    "component_flux_targets",
    "background",
]

#: Tolerance used when validating that a theorem-mode multiplicity is integer.
_INTEGER_TOL = 1e-12


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelParams:
    """Problem instance: rank, vortex multiplicities, background scale.

    ``N`` is an integer (or an integral real) ``>= 2`` and ``tau`` a
    positive finite real.  ``theorem_mode`` (default) enforces positive
    integer multiplicities (at least 1 and within ``1e-12`` of an integer),
    the hypothesis under which the quantized fluxes and decay bounds are
    exact statements.  With ``theorem_mode=False`` any nonnegative finite
    real multiplicities are accepted -- the solvers are well defined for
    them; ``n1 = n2 = 0`` is the vacuum, and ``(1/2, 0)`` reproduces the
    minimal profile-function vortex.  Anything else raises ``ValueError``.
    """

    N: int
    n1: float = 1.0
    n2: float = 1.0
    tau: float = 1.0
    theorem_mode: bool = True

    def __post_init__(self):
        if self.N % 1 != 0:  # a non-finite N leaves a NaN remainder
            raise ValueError(f"rank N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.N < 2:
            raise ValueError(f"rank N must be >= 2, got {self.N}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"background scale tau must be positive and finite, got {self.tau}")
        for name in ("n1", "n2"):
            n = float(getattr(self, name))
            object.__setattr__(self, name, n)
            if not math.isfinite(n) or n < 0.0:
                raise ValueError(f"multiplicity {name} must be nonnegative, got {n}")
            if self.theorem_mode:
                if n < 1.0 or abs(n - round(n)) > _INTEGER_TOL:
                    raise ValueError(
                        f"theorem mode requires positive integer multiplicities; "
                        f"got {name}={n} (pass theorem_mode=False for general values)"
                    )

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([self.n1, self.n2])


@dataclass(frozen=True)
class CouplingData:
    """Coupling matrix of the elliptic system and its derived factorizations.

    ``A`` is the 2x2 coupling matrix, ``L``/``R`` its unit-lower/upper
    triangular Crout factors, ``gamma = L[1, 0]``, ``B`` the positive
    diagonal symmetrizer and ``M = B @ A`` the symmetric positive definite
    product.  ``alpha + beta == N`` and each row of ``A`` sums to ``N``.
    """

    N: int
    alpha: float
    beta: float
    A: np.ndarray
    L: np.ndarray
    R: np.ndarray
    gamma: float
    B: np.ndarray
    M: np.ndarray


@dataclass(frozen=True)
class SpectralConstants:
    """Eigen-data of ``M`` and ``D = M @ inv(B)`` plus decay/flux constants.

    ``lambda1 >= lambda2`` are the eigenvalues of the symmetric matrix
    ``M`` with ``lambda0 = lambda2`` the smaller one; ``O`` is orthogonal
    with ``O.T @ M @ O`` diagonal.  ``lambda3``/``lambda4`` are the
    eigenvalues of ``D`` (algebraically ``N`` and ``1/2``), ``T`` the
    invertible matrix with ``T @ D @ inv(T)`` diagonal, and ``lambda_``
    the smaller of the pair.  ``m``, ``p``, ``q`` are the field
    combination weights (algebraically ``2/(N-1)**2``, ``2/(N-1)``, ``-2``).
    """

    lambda1: float
    lambda2: float
    lambda0: float
    O: np.ndarray
    lambda3: float
    lambda4: float
    lambda_: float
    T: np.ndarray
    m: float
    p: float
    q: float


@dataclass(frozen=True)
class FunctionalCoefficients:
    """Scalar coefficients of the convex action functional.

    The ``c_*`` constants weight the gradient, exponential and linear
    terms, and ``2*c_grad_k`` weights the source ``psi_k``.  With the Crout
    coefficient ``gamma`` of the exponents ``s = 2 L w`` they satisfy the
    zero-slope identity ``2*gamma + 2*c_exp1 - c_lin1 == 0``: with zero
    background the functional is stationary at the zero field.
    """

    c_grad1: float
    c_grad2: float
    c_exp1: float
    c_lin1: float


def coupling_matrix(params: ModelParams) -> CouplingData:
    """Build the coupling matrix and its factorizations for ``params.N``.

    The triangular factors come from their closed forms, not from a
    generic factorization routine, so ``L @ R == A`` holds to rounding.
    """
    N = params.N
    alpha = 1.5 - 1.0 / (2.0 * N)
    beta = N - 1.5 + 1.0 / (2.0 * N)
    gamma = (2.0 * N - 1.0) / (3.0 * N - 1.0)  # equals 1 - 1/(2*alpha)

    A = _readonly([[alpha, beta], [alpha - 0.5, beta + 0.5]])
    L = _readonly([[1.0, 0.0], [gamma, 1.0]])
    R = _readonly([[alpha, beta], [0.0, N * N / (3.0 * N - 1.0)]])
    B = _readonly([[(2.0 * alpha - 1.0) / beta, 0.0], [0.0, 2.0]])
    # Closed form of B @ A; writing it out keeps M exactly symmetric.
    off = 2.0 * alpha - 1.0
    M = _readonly([[(2.0 * alpha * alpha - alpha) / beta, off], [off, 2.0 * beta + 1.0]])

    return CouplingData(N=N, alpha=alpha, beta=beta, A=A, L=L, R=R, gamma=gamma, B=B, M=M)


def _symmetric_eig_2x2(S: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    Returns ``(lam_hi, lam_lo, O)`` with ``O`` orthogonal and
    ``O.T @ S @ O == diag(lam_hi, lam_lo)``.
    """
    a, b, d = S[0, 0], S[0, 1], S[1, 1]
    mid = 0.5 * (a + d)
    disc = math.hypot(0.5 * (a - d), b)
    lam_hi = mid + disc
    lam_lo = mid - disc
    if b == 0.0:
        O = np.eye(2) if a >= d else np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        v = np.array([b, lam_hi - a])
        v /= math.hypot(v[0], v[1])
        O = np.array([[v[0], -v[1]], [v[1], v[0]]])
    return lam_hi, lam_lo, O


def spectral_constants(cd: CouplingData) -> SpectralConstants:
    """Eigen-data and decay/flux constants derived from the coupling data."""
    N = cd.N
    alpha = cd.alpha
    lam1, lam2, O = _symmetric_eig_2x2(cd.M)

    root = math.sqrt(N * N - N + 0.25)  # equals N - 1/2 for N >= 1
    lam3 = (2.0 * N + 1.0 + 2.0 * root) / 4.0
    lam4 = (2.0 * N + 1.0 - 2.0 * root) / 4.0

    off = 2.0 * alpha - 1.0
    # Rows are left eigenvectors of D = M @ inv(B) for (lam3, lam4), so
    # T @ D @ inv(T) is diagonal for every N (D is symmetric only at N=2).
    T = _readonly([[1.0, 1.0], [1.0, -off / (2.0 * cd.beta)]])

    m = off * off / (2.0 * cd.beta * (lam3 - alpha))
    p = off / cd.beta
    q = 4.0 * (lam4 - alpha) / off

    return SpectralConstants(
        lambda1=lam1,
        lambda2=lam2,
        lambda0=min(lam1, lam2),
        O=_readonly(O),
        lambda3=lam3,
        lambda4=lam4,
        lambda_=min(lam3, lam4),
        T=T,
        m=m,
        p=p,
        q=q,
    )


def functional_coefficients(cd: CouplingData) -> FunctionalCoefficients:
    """Scalar coefficients of the discrete action functional."""
    alpha, beta = cd.alpha, cd.beta
    off = 2.0 * alpha - 1.0
    return FunctionalCoefficients(
        c_grad1=off / (2.0 * alpha * beta),
        c_grad2=2.0 * alpha / (alpha + beta),
        c_exp1=off / (2.0 * beta),
        c_lin1=off * (alpha + beta) / (alpha * beta),
    )


def flux_targets(params: ModelParams, sc: SpectralConstants) -> tuple[float, float]:
    """Quantized values of the two flux integrals, fixed by (n1, n2) alone."""
    t1 = -4.0 * math.pi * (sc.m * params.n1 + 2.0 * params.n2)
    t2 = -4.0 * math.pi * (sc.p * params.n1 + sc.q * params.n2)
    return t1, t2


def flux_integrand_rows(cd: CouplingData, sc: SpectralConstants) -> np.ndarray:
    """Coefficient rows of the two flux integrands over ``(E1, E2)``.

    Row ``k`` dotted with ``(E1, E2)`` gives the integrand whose plane
    integral equals ``flux_targets(...)[k]``.  The rows are the
    combinations ``(m, 2) @ A`` and ``(p, q) @ A`` written out.
    """
    alpha, beta = cd.alpha, cd.beta
    m, p, q = sc.m, sc.p, sc.q
    return _readonly(
        [
            [(m + 2.0) * alpha - 1.0, (m + 2.0) * beta + 1.0],
            [(p + q) * alpha - q / 2.0, (p + q) * beta + q / 2.0],
        ]
    )


def component_flux_targets(params: ModelParams, cd: CouplingData) -> np.ndarray:
    """Exact plane integrals of ``(E1, E2)``: the solution of ``A @ x = -4*pi*n``.

    Solved by the explicit inverse; ``det(A) = N/2`` is never zero.
    """
    A = cd.A
    rhs = -4.0 * math.pi * params.multiplicities
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return np.array(
        [
            (A[1, 1] * rhs[0] - A[0, 1] * rhs[1]) / det,
            (A[0, 0] * rhs[1] - A[1, 0] * rhs[0]) / det,
        ]
    )


class BackgroundField:
    """Smooth background/source fields for a given problem instance.

    Evaluators take the *squared* radius ``r2 = |x|**2`` (scalar or array)
    so planar callers never form square roots.  ``exp_two_u0_i`` is the
    rational power ``(r2 / (r2 + tau)) ** (2 * n_i)``, exactly zero at the
    origin for positive multiplicity; ``u0_i`` is its half-logarithm,
    evaluated stably as ``-n_i * log1p(tau / r2)``.  ``psi_2`` reads ``gamma = L[1, 0]``.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.gamma = coupling_matrix(params).gamma

    # -- raw fields ------------------------------------------------------

    def _exp_two_u0(self, r2, n: float):
        r2 = np.asarray(r2, dtype=float)
        return (r2 / (r2 + self.params.tau)) ** (2.0 * n)

    def _u0(self, r2, n: float):
        r2 = np.asarray(r2, dtype=float)
        if n == 0.0:
            return np.zeros_like(r2)
        with np.errstate(divide="ignore"):
            return -n * np.log1p(self.params.tau / r2)

    def _phi(self, r2, n: float):
        r2 = np.asarray(r2, dtype=float)
        tau = self.params.tau
        return 4.0 * n * tau / (tau + r2) ** 2

    # -- component accessors ----------------------------------------------

    def exp_two_u0_1(self, r2):
        return self._exp_two_u0(r2, self.params.n1)

    def exp_two_u0_2(self, r2):
        return self._exp_two_u0(r2, self.params.n2)

    def u0_1(self, r2):
        return self._u0(r2, self.params.n1)

    def u0_2(self, r2):
        return self._u0(r2, self.params.n2)

    def _u0_prime(self, r, n: float):
        # d u0 / dr at radius r > 0.
        r = np.asarray(r, dtype=float)
        return 2.0 * n * self.params.tau / (r * (r * r + self.params.tau))

    def u0_prime_1(self, r):
        return self._u0_prime(r, self.params.n1)

    def u0_prime_2(self, r):
        return self._u0_prime(r, self.params.n2)

    def phi_1(self, r2):
        return self._phi(r2, self.params.n1)

    def phi_2(self, r2):
        return self._phi(r2, self.params.n2)

    def psi_1(self, r2):
        return self._phi(r2, self.params.n1)

    def psi_2(self, r2):
        return -self.gamma * self._phi(r2, self.params.n1) + self._phi(r2, self.params.n2)

    def phi_disc_integral(self, index: int, radius: float) -> float:
        """Closed-form integral of ``phi_index`` over a disc of the given radius."""
        n = self.params.n1 if index == 1 else self.params.n2
        r2 = float(radius) ** 2
        return 4.0 * math.pi * n * r2 / (r2 + self.params.tau)


def background(params: ModelParams) -> BackgroundField:
    """Background field evaluators for a problem instance."""
    return BackgroundField(params)
