"""Algebraic identities of the coupling matrices and spectral constants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexlab.functional import DiscreteFunctional, PlanarGrid
from vortexlab.model import (
    ModelParams,
    background,
    component_flux_targets,
    coupling_matrix,
    flux_integrand_rows,
    flux_targets,
    functional_coefficients,
    spectral_constants,
)

RANKS = list(range(2, 65))

#: Integers and every kind of float: -0.0, subnormals, huge, +-inf and NaN.
NUMBERS = st.integers(-10, 10**6) | st.floats()


def make(N, n1=1, n2=1, tau=1.0, theorem_mode=True):
    return ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem_mode)


class TestModelParams:
    def test_rejects_small_rank(self):
        with pytest.raises(ValueError):
            ModelParams(N=1)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            ModelParams(N=2, tau=0.0)

    def test_theorem_mode_requires_positive_integers(self):
        with pytest.raises(ValueError):
            ModelParams(N=2, n1=0.5)
        with pytest.raises(ValueError):
            ModelParams(N=2, n1=0, n2=0)

    def test_theorem_mode_off_allows_general_multiplicities(self):
        p = ModelParams(N=2, n1=0.5, n2=0.0, theorem_mode=False)
        assert p.n1 == 0.5 and p.n2 == 0.0
        with pytest.raises(ValueError):
            ModelParams(N=2, n1=-1.0, theorem_mode=False)

    @settings(max_examples=400, deadline=None)
    @given(N=NUMBERS, n1=NUMBERS, n2=NUMBERS, tau=NUMBERS, theorem_mode=st.booleans())
    @example(N=2, n1=1, n2=1, tau=math.inf, theorem_mode=True)
    @example(N=math.inf, n1=1, n2=1, tau=1.0, theorem_mode=True)
    @example(N=math.nan, n1=1, n2=1, tau=1.0, theorem_mode=True)
    @example(N=2, n1=math.inf, n2=1, tau=1.0, theorem_mode=False)
    @example(N=2, n1=1 - 1e-13, n2=2 + 1e-13, tau=1.0, theorem_mode=True)
    def test_accepts_exactly_the_documented_values(self, N, n1, n2, tau, theorem_mode):
        # The docstring: N an integral number >= 2, tau positive and finite,
        # multiplicities nonnegative and finite, and in theorem mode at least
        # 1 and within 1e-12 of an integer.
        def integral(x):
            return isinstance(x, int) or (math.isfinite(x) and x.is_integer())

        def multiplicity(n):
            if not (math.isfinite(n) and n >= 0):
                return False
            return not theorem_mode or (n >= 1 and abs(n - round(n)) <= 1e-12)

        allowed = (
            integral(N) and N >= 2 and 0 < tau < math.inf and multiplicity(n1) and multiplicity(n2)
        )
        if not allowed:
            with pytest.raises(ValueError):
                ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem_mode)
            return
        p = ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem_mode)
        assert (p.N, p.n1, p.n2, p.tau) == (N, n1, n2, tau)
        assert type(p.N) is int and type(p.n1) is float and type(p.n2) is float


class TestCouplingMatrix:
    def test_known_matrix_rank_two(self):
        cd = coupling_matrix(make(2))
        # Coefficients of the rank-2 system are exactly (5/4, 3/4).
        assert cd.A[0, 0] == 1.25 and cd.A[0, 1] == 0.75
        assert cd.A[1, 0] == 0.75 and cd.A[1, 1] == 1.25

    def test_known_factors_rank_two(self):
        cd = coupling_matrix(make(2))
        np.testing.assert_allclose(cd.L, [[1.0, 0.0], [0.6, 1.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(cd.R, [[1.25, 0.75], [0.0, 0.8]], rtol=0, atol=1e-15)
        # Hand multiplication: rows of L @ R reproduce A.
        np.testing.assert_allclose(cd.L @ cd.R, cd.A, rtol=0, atol=1e-15)

    def test_known_matrix_rank_three(self):
        cd = coupling_matrix(make(3))
        np.testing.assert_allclose(
            cd.A, [[4.0 / 3.0, 5.0 / 3.0], [5.0 / 6.0, 13.0 / 6.0]], rtol=1e-15
        )
        np.testing.assert_allclose(cd.A.sum(axis=1), [3.0, 3.0], rtol=1e-15)

    @pytest.mark.parametrize("N", RANKS)
    def test_family_identities(self, N):
        cd = coupling_matrix(make(N))
        np.testing.assert_allclose(cd.A @ np.ones(2), [N, N], rtol=1e-12)
        np.testing.assert_allclose(cd.L @ cd.R, cd.A, rtol=0, atol=1e-12)
        assert cd.L[0, 0] == 1.0 and cd.L[1, 1] == 1.0 and cd.R[1, 0] == 0.0
        assert 0.5 < cd.gamma < 2.0 / 3.0
        # Eigenvalues of A are exactly {N, 1/2}: check trace and determinant.
        assert abs(np.trace(cd.A) - (N + 0.5)) < 1e-12 * N
        det = cd.A[0, 0] * cd.A[1, 1] - cd.A[0, 1] * cd.A[1, 0]
        assert abs(det - N / 2.0) < 1e-12 * N

    @pytest.mark.parametrize("N", RANKS)
    def test_symmetrizer(self, N):
        cd = coupling_matrix(make(N))
        assert cd.M[0, 1] == cd.M[1, 0]  # exactly symmetric by construction
        np.testing.assert_allclose(cd.B @ cd.A, cd.M, rtol=0, atol=1e-12 * N)
        assert cd.B[0, 0] > 0 and cd.B[1, 1] > 0

    def test_matrices_are_readonly(self):
        cd = coupling_matrix(make(2))
        with pytest.raises(ValueError):
            cd.A[0, 0] = 99.0


class TestSpectralConstants:
    def test_known_values_rank_two(self):
        cd = coupling_matrix(make(2))
        sc = spectral_constants(cd)
        np.testing.assert_allclose(cd.M, [[2.5, 1.5], [1.5, 2.5]], rtol=1e-15)
        # Symmetric equal-diagonal matrix: eigenvalues are diag +- offdiag.
        assert abs(sc.lambda1 - 4.0) < 1e-12
        assert abs(sc.lambda2 - 1.0) < 1e-12
        assert abs(sc.lambda0 - 1.0) < 1e-12
        assert abs(sc.lambda3 - 2.0) < 1e-12
        assert abs(sc.lambda4 - 0.5) < 1e-12
        assert abs(sc.m - 2.0) < 1e-12
        assert abs(sc.p - 2.0) < 1e-12
        assert abs(sc.q + 2.0) < 1e-12

    def test_known_smallest_eigenvalue_rank_three(self):
        sc = spectral_constants(coupling_matrix(make(3)))
        # Characteristic polynomial of M: trace 17/3, determinant 3.
        assert abs(sc.lambda0 - (17.0 - math.sqrt(181.0)) / 6.0) < 1e-12

    @pytest.mark.parametrize("N", RANKS)
    def test_family_identities(self, N):
        cd = coupling_matrix(make(N))
        sc = spectral_constants(cd)
        diag = sc.O.T @ cd.M @ sc.O
        assert abs(diag[0, 1]) < 1e-12 * sc.lambda1
        assert abs(diag[1, 0]) < 1e-12 * sc.lambda1
        np.testing.assert_allclose(sc.O @ sc.O.T, np.eye(2), rtol=0, atol=1e-14)
        assert sc.lambda0 == min(sc.lambda1, sc.lambda2) and sc.lambda0 > 0

        D = cd.M @ np.diag(1.0 / np.diag(cd.B))
        TDTi = sc.T @ D @ np.linalg.inv(sc.T)
        np.testing.assert_allclose(TDTi, np.diag([sc.lambda3, sc.lambda4]), atol=1e-12 * N)

        assert abs(sc.lambda3 - N) < 1e-12 * N
        assert abs(sc.lambda4 - 0.5) < 1e-12
        assert abs(sc.lambda_ - 0.5) < 1e-12
        assert abs(sc.m - 2.0 / (N - 1.0) ** 2) < 1e-12
        assert abs(sc.p - 2.0 / (N - 1.0)) < 1e-12
        assert abs(sc.q + 2.0) < 1e-12


class TestFunctionalCoefficients:
    @pytest.mark.parametrize("N", RANKS)
    def test_zero_slope_identity(self, N):
        cd = coupling_matrix(make(N))
        fc = functional_coefficients(cd)
        # First-variation terms cancel at the zero field with zero background.
        assert abs(2.0 * cd.gamma + 2.0 * fc.c_exp1 - fc.c_lin1) < 1e-12
        # Species 2's terms cancel exactly: its vacuum gradient at zero is zero.
        params = ModelParams(N, n1=0, n2=0, theorem_mode=False)
        grid = PlanarGrid(half_width=15.0, points_per_side=17)
        g = DiscreteFunctional(params, grid).gradient(np.zeros((2, 17, 17)))
        assert not np.any(g[1])

    def test_positive_weights(self):
        cd = coupling_matrix(make(5))
        fc = functional_coefficients(cd)
        assert fc.c_grad1 > 0 and fc.c_grad2 > 0 and fc.c_exp1 > 0
        assert 0 < cd.gamma < 1


class TestFluxTargets:
    def test_symmetric_pair(self):
        sc = spectral_constants(coupling_matrix(make(2)))
        t1, t2 = flux_targets(make(2), sc)
        assert abs(t1 + 16.0 * math.pi) < 1e-12
        assert abs(t2) < 1e-12

    def test_asymmetric_pair(self):
        sc = spectral_constants(coupling_matrix(make(2)))
        t1, t2 = flux_targets(make(2, n1=2, n2=1), sc)
        assert abs(t1 + 24.0 * math.pi) < 1e-12
        assert abs(t2 + 8.0 * math.pi) < 1e-12

    def test_vacuum(self):
        params = make(4, n1=0, n2=0, theorem_mode=False)
        sc = spectral_constants(coupling_matrix(params))
        assert flux_targets(params, sc) == (0.0, 0.0)

    @pytest.mark.parametrize("N", range(2, 17))
    @pytest.mark.parametrize("pair", [(1, 1), (1, 4), (3, 2), (4, 4)])
    def test_consistency_with_component_fluxes(self, N, pair):
        # Pure linear algebra, no solve: combining the exact component
        # fluxes with the integrand rows reproduces both targets.
        params = make(N, n1=pair[0], n2=pair[1])
        cd = coupling_matrix(params)
        sc = spectral_constants(cd)
        comp = component_flux_targets(params, cd)
        rows = flux_integrand_rows(cd, sc)
        targets = flux_targets(params, sc)
        recombined = rows @ comp
        scale = max(1.0, abs(targets[0]), abs(targets[1]))
        assert abs(recombined[0] - targets[0]) < 1e-10 * scale
        assert abs(recombined[1] - targets[1]) < 1e-10 * scale


class TestBackground:
    def test_point_values(self):
        bg = background(make(2, tau=1.0))
        # tau=1, n=1 at |x|=1: u0 = -ln 2 and phi = 1.
        assert abs(bg.u0_1(1.0) + math.log(2.0)) < 1e-15
        assert abs(bg.phi_1(1.0) - 1.0) < 1e-15

    def test_origin_limits(self):
        bg = background(make(3, n1=2, n2=1, tau=0.7))
        assert bg.exp_two_u0_1(0.0) == 0.0
        assert bg.exp_two_u0_2(0.0) == 0.0
        assert abs(bg.phi_1(0.0) - 8.0 / 0.7) < 1e-12
        assert abs(bg.phi_2(0.0) - 4.0 / 0.7) < 1e-12

    def test_exp_two_u0_is_monotone_and_bounded(self):
        bg = background(make(2, tau=2.0))
        r2 = np.linspace(0.0, 400.0, 2001)
        vals = bg.exp_two_u0_1(r2)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] > 0.97

    def test_disc_integral_closed_form(self):
        bg = background(make(2, tau=1.0))
        total = 4.0 * math.pi
        assert abs(bg.phi_disc_integral(1, 100.0) - total * 10000.0 / 10001.0) < 1e-12
        # Quadrature cross-check of the closed form on a fine radial grid.
        r = np.linspace(0.0, 100.0, 400001)
        quad = np.trapezoid(bg.phi_1(r * r) * 2.0 * math.pi * r, r)
        assert abs(quad - bg.phi_disc_integral(1, 100.0)) < 1e-6
        assert bg.phi_disc_integral(1, 100.0) >= 0.9999 * total

    def test_vacuum_background_is_trivial(self):
        bg = background(make(2, n1=0, n2=0, theorem_mode=False))
        r2 = np.array([0.0, 0.5, 4.0])
        np.testing.assert_array_equal(bg.u0_1(r2), 0.0)
        np.testing.assert_array_equal(bg.exp_two_u0_1(r2), 1.0)
        np.testing.assert_array_equal(bg.phi_1(r2), 0.0)
        np.testing.assert_array_equal(bg.psi_2(r2), 0.0)

    def test_psi_definitions(self):
        params = make(3, n1=1, n2=2)
        bg = background(params)
        cd = coupling_matrix(params)
        r2 = np.array([0.3, 1.7, 9.0])
        np.testing.assert_allclose(bg.psi_1(r2), bg.phi_1(r2), rtol=0, atol=0)
        expected = (1.0 / (2.0 * cd.alpha) - 1.0) * bg.phi_1(r2) + bg.phi_2(r2)
        np.testing.assert_allclose(bg.psi_2(r2), expected, rtol=1e-15)
