"""Discrete energy: finite-difference consistency and convexity checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vortexlab.errors import FieldOverflowError
from vortexlab.functional import (
    DiscreteFunctional,
    PlanarGrid,
    _neighbor_sum,
    _sine_matrix,
    symmetries,
)
from vortexlab.model import ModelParams, background, coupling_matrix, functional_coefficients
from vortexlab.planar import _interpolate, _start
from vortexlab.radial import radial_mesh, solve_radial_P

#: Machine epsilon of float32, the precision of the preconditioner's transforms.
F32_EPS = float(np.finfo(np.float32).eps)


def make_problem(
    N=2, n1=1, n2=1, tau=1.0, half_width=15.0, n=33, theorem_mode=None, quadrant=False
):
    if theorem_mode is None:
        theorem_mode = not (n1 == 0 and n2 == 0)
    params = ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem_mode)
    grid = PlanarGrid(half_width=half_width, points_per_side=n)
    func = DiscreteFunctional(params, grid, quadrant)
    return func, grid, func.fc


def random_field(grid, rng, scale=0.3, smooth=2):
    n = grid.points_per_side
    w = scale * rng.standard_normal((n, n))
    for _ in range(smooth):
        w[1:-1, 1:-1] = 0.2 * (
            w[1:-1, 1:-1] + w[:-2, 1:-1] + w[2:, 1:-1] + w[1:-1, :-2] + w[1:-1, 2:]
        )
    w[0, :] = w[-1, :] = w[:, 0] = w[:, -1] = 0.0
    return w


def random_pair(grid, rng, scale=0.3):
    return np.stack([random_field(grid, rng, scale), random_field(grid, rng, scale)])


def zeros(grid):
    n = grid.points_per_side
    return np.zeros((2, n, n))


def fd_gradient(func, fp, eps=1e-6):
    """Central finite differences of the energy, node by node."""
    out = np.zeros_like(fp)
    n = fp.shape[1]
    for w, g in zip(fp, out):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                orig = w[i, j]
                w[i, j] = orig + eps
                ep = func.energy(fp)
                w[i, j] = orig - eps
                em = func.energy(fp)
                w[i, j] = orig
                g[i, j] = (ep - em) / (2.0 * eps)
    return out


def test_symmetries_over_the_last_two_axes():
    i, k = np.arange(6.0), np.minimum(np.arange(6.0), 5.0 - np.arange(6.0))
    d4 = np.stack([k[:, None] + k, k[:, None] * k])  # (2, 6, 6), both species D4-symmetric
    assert symmetries(d4) == (True, True)
    assert symmetries(np.stack([d4[0], i[:, None] + i])) == (False, True)
    assert symmetries(np.stack([d4[0], k[:, None] + 2.0 * k])) == (True, False)
    d4[1, 0, 0] = -0.0  # equals the 0.0 at its images
    assert symmetries(d4) == (True, True)
    d4[1, 0, 0] = d4[1, 0, 5] = d4[1, 5, 0] = d4[1, 5, 5] = np.nan  # NaN never matches
    assert symmetries(d4) == (False, False)


class TestPlanarGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanarGrid(half_width=0.0, points_per_side=32)
        with pytest.raises(ValueError):
            PlanarGrid(half_width=5.0, points_per_side=8)

    @settings(max_examples=400, deadline=None)
    @given(
        half_width=st.integers(-5, 100) | st.floats(),
        # Sizes stay small: a grid allocates its node coordinates.
        points=st.integers(-10, 4096)
        | st.floats(max_value=4096, allow_infinity=True)
        | st.sampled_from([math.inf, math.nan]),
    )
    @example(half_width=math.inf, points=32)
    @example(half_width=15.0, points=math.inf)
    @example(half_width=math.nan, points=32)
    @example(half_width=1e308, points=16)
    @example(half_width=8.9e307, points=17)  # finite spacing, overflowing cell area
    @example(half_width=5e-324, points=17)  # spacing rounds to zero
    @example(half_width=1e-200, points=17)  # cell area rounds to zero
    def test_accepts_exactly_the_documented_values(self, half_width, points):
        # The docstring: half_width positive and finite, points_per_side an
        # integral number >= 16, and a spacing h = 2*half_width/(points-1)
        # with h and h**2 both positive and finite.
        integral = isinstance(points, int) or (math.isfinite(points) and points.is_integer())
        h = 2.0 * half_width / (points - 1) if integral and points >= 16 else math.nan
        if not (
            0 < half_width < math.inf
            and integral
            and points >= 16
            and 0 < h < math.inf
            and 0 < h * h < math.inf
        ):
            with pytest.raises(ValueError):
                PlanarGrid(half_width=half_width, points_per_side=points)
            return
        grid = PlanarGrid(half_width=half_width, points_per_side=points)
        assert grid.points_per_side == points and type(grid.points_per_side) is int
        assert grid.coords.shape == (points,)
        assert math.isfinite(grid.spacing) and np.all(np.isfinite(grid.coords))
        assert 0.0 < grid.cell_area < math.inf

    def test_even_grid_is_symmetric_and_misses_origin(self):
        g = PlanarGrid(half_width=15.0, points_per_side=32)
        assert g.coords[0] == -15.0 and g.coords[-1] == 15.0
        np.testing.assert_array_equal(g.coords, -g.coords[::-1])
        assert np.min(np.abs(g.coords)) == pytest.approx(g.spacing / 2.0)

    def test_odd_grid_offset(self):
        g = PlanarGrid(half_width=2.0, points_per_side=17)
        assert np.min(np.abs(g.coords)) == pytest.approx(g.spacing / 2.0)

    def test_spacing(self):
        g = PlanarGrid(half_width=15.0, points_per_side=512)
        assert g.spacing == pytest.approx(30.0 / 511.0)
        assert g.cell_area == pytest.approx(g.spacing**2)


class TestEnergy:
    def test_zero_field_zero_energy(self):
        func, grid, _ = make_problem()
        assert func.energy(zeros(grid)) == 0.0

    def test_vacuum_zero_slope(self):
        func, grid, _ = make_problem(n1=0, n2=0)
        g = func.gradient(zeros(grid))
        assert np.max(np.abs(g[0])) < 1e-14
        assert np.max(np.abs(g[1])) < 1e-14

    def test_single_node_perturbation_matches_fd(self):
        func, grid, _ = make_problem()
        fp = zeros(grid)
        g = func.gradient(fp)
        eps = 1e-6
        i = j = grid.points_per_side // 2
        fp[0, i, j] = eps
        ep = func.energy(fp)
        fp[0, i, j] = -eps
        em = func.energy(fp)
        fd = (ep - em) / (2.0 * eps)
        assert fd == pytest.approx(g[0, i, j], rel=1e-6)

    def test_constant_density_is_positive_with_flat_background(self):
        # With unit exp(2*u0) and zero sources the node density reduces to a
        # strictly convex scalar with its minimum exactly at zero.
        _, _, fc = make_problem(N=3, n1=0, n2=0)
        gamma = coupling_matrix(ModelParams(N=3)).gamma

        def density(c):
            return (
                math.expm1(2.0 * (gamma + 1.0) * c)
                + fc.c_exp1 * math.expm1(2.0 * c)
                - fc.c_lin1 * c
                - 2.0 * c
            )

        cs = np.linspace(-2.0, 2.0, 4001)
        vals = np.array([density(c) for c in cs])
        assert density(0.0) == 0.0
        nonzero = np.abs(cs) > 1e-12
        assert np.all(vals[nonzero] > 0.0)
        # Sampling oracle: the minimum sits at c = 0.
        assert abs(cs[np.argmin(vals)]) < 1.5e-3

    def test_overflow_guard(self):
        func, grid, _ = make_problem()
        fp = zeros(grid)
        fp[0, 5, 5] = 200.0  # exponent 400 exceeds the default cap of 300
        with pytest.raises(FieldOverflowError):
            func.energy(fp)


class TestGradient:
    def test_matches_fd_on_random_fields(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(7)
        for _ in range(4):
            fp = random_pair(grid, rng)
            g = func.gradient(fp)
            fd = fd_gradient(func, fp)
            scale = np.max(np.abs(g))
            err = np.max(np.abs(fd - g))
            assert err / scale < 1e-6

    def test_zero_field_real_background_closed_form(self):
        func, grid, fc = make_problem(N=2, n1=1, n2=1)
        g = func.gradient(zeros(grid))
        h2 = grid.cell_area
        bg = background(ModelParams(N=2, n1=1, n2=1))
        r2 = grid.radius_squared()
        e2u01, e2u02 = bg.exp_two_u0_1(r2), bg.exp_two_u0_2(r2)
        gamma = coupling_matrix(ModelParams(N=2, n1=1, n2=1)).gamma
        expected1 = h2 * (
            2.0 * gamma * e2u02
            + 2.0 * fc.c_exp1 * e2u01
            + 2.0 * fc.c_grad1 * bg.psi_1(r2)
            - fc.c_lin1
        )
        expected2 = h2 * (2.0 * e2u02 + 2.0 * fc.c_grad2 * bg.psi_2(r2) - 2.0)
        np.testing.assert_allclose(g[0, 1:-1, 1:-1], expected1[1:-1, 1:-1], rtol=1e-13)
        np.testing.assert_allclose(g[1, 1:-1, 1:-1], expected2[1:-1, 1:-1], rtol=1e-13)

    def test_boundary_entries_are_zero(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(3)
        g = func.gradient(random_pair(grid, rng))
        assert np.all(g[0, 0, :] == 0.0) and np.all(g[0, -1, :] == 0.0)
        assert np.all(g[1, :, 0] == 0.0) and np.all(g[1, :, -1] == 0.0)


class TestHessian:
    def test_zero_direction(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(11)
        fp = random_pair(grid, rng)
        assert np.all(func.hessian_operator(fp)(zeros(grid)) == 0.0)

    def test_positive_curvature(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(13)
        for _ in range(5):
            fp = random_pair(grid, rng)
            for _ in range(20):
                d = random_pair(grid, rng, scale=1.0)
                quad = float(np.sum(d * func.hessian_operator(fp)(d)))
                assert quad > 0.0

    def test_matches_second_difference(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(17)
        eps = 1e-4
        for _ in range(5):
            fp = random_pair(grid, rng)
            d = random_pair(grid, rng, scale=1.0)
            quad = float(np.sum(d * func.hessian_operator(fp)(d)))
            plus = fp + eps * d
            minus = fp - eps * d
            fd = (func.energy(plus) - 2.0 * func.energy(fp) + func.energy(minus)) / eps**2
            assert fd == pytest.approx(quad, rel=1e-4)

    def test_symmetric_quadratic_form(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(19)
        fp = random_pair(grid, rng)
        a = random_pair(grid, rng, scale=1.0)
        b = random_pair(grid, rng, scale=1.0)
        hess = func.hessian_operator(fp)
        left = float(np.sum(b * hess(a)))
        right = float(np.sum(a * hess(b)))
        assert left == pytest.approx(right, rel=1e-12)


class TestEnergyChange:
    def test_matches_difference_of_energies(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(37)
        for _ in range(5):
            fp = random_pair(grid, rng)
            step = random_pair(grid, rng, scale=1.0)
            expected = func.energy(fp + step) - func.energy(fp)
            assert func.energy_change(fp, step) == pytest.approx(expected, rel=1e-10)

    def test_overflowing_step_raises(self):
        func, grid, _ = make_problem()
        step = zeros(grid)
        step[0, 5, 5] = 200.0
        with pytest.raises(FieldOverflowError):
            func.energy_change(zeros(grid), step)

    @pytest.mark.parametrize("quadrant", [False, True], ids=["full", "quadrant"])
    def test_energy_is_the_change_from_zero_bitwise(self, quadrant):
        # On the lifted start plus interior noise, so the edge entries are nonzero.
        params = ModelParams(N=3, n1=1, n2=2)
        grid = PlanarGrid(half_width=15.0, points_per_side=64)
        func = DiscreteFunctional(params, grid, quadrant)
        w = _start(params, grid, quadrant)
        assert np.all(w[:, -1, :] != 0.0)
        w[:, 1:-1, 1:-1] += np.random.default_rng(41).uniform(-0.5, 0.5, w[:, 1:-1, 1:-1].shape)
        assert func.energy(w) == func.energy_change(np.zeros_like(w), w)


def per_mode_inverse_reference(func):
    """The far-field inverse as one explicit 2x2 solve per mode, all in float64.

    The form the preconditioner had before the species were decoupled, kept
    as the reference: the symbol ``[[a11, a12], [a12, a22]]`` of every
    DST-I mode ``lam = mu_j + mu_k``, inverted between float64 transforms.
    """
    fc = func.fc
    a = func.gamma
    m = func.grid.points_per_side - 2
    S = _sine_matrix(m)
    mu = 4.0 * np.sin(np.arange(1, m + 1) * (np.pi / (2 * (m + 1)))) ** 2
    lam = mu[:, None] + mu[None, :]
    S0 = 4.0 * func.grid.cell_area
    a11 = 2.0 * fc.c_grad1 * lam + S0 * (fc.c_exp1 + a * a)
    a22 = 2.0 * fc.c_grad2 * lam + S0
    a12 = a * S0
    det = a11 * a22 - a12 * a12

    def apply(r):
        x1 = S @ r[0, 1:-1, 1:-1] @ S
        x2 = S @ r[1, 1:-1, 1:-1] @ S
        z = np.zeros(r.shape)
        z[0, 1:-1, 1:-1] = S @ ((a22 * x1 - a12 * x2) / det) @ S
        z[1, 1:-1, 1:-1] = S @ ((a11 * x2 - a12 * x1) / det) @ S
        return z

    return apply


class TestFarFieldPreconditioner:
    """With a flat background the Hessian at w = 0 is the far-field operator.

    The sine transforms run in float32, so the apply is an exact, symmetric
    inverse only to single-precision rounding: bounds are set from float32's
    machine epsilon (``F32_EPS``, about 1.2e-7), not from float64's.
    """

    @staticmethod
    def interior_pair(n, rng):
        x = np.zeros((2, n, n))
        x[0, 1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
        x[1, 1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
        return x

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("n", [64, 67])
    def test_inverts_vacuum_hessian(self, N, n):
        func, grid, _ = make_problem(N=N, n1=0, n2=0, n=n)
        precond = func.far_field_preconditioner()
        hess = func.hessian_operator(zeros(grid))
        x = self.interior_pair(n, np.random.default_rng(41))
        # Four float32 transforms of order about 65 on entries up to about 4:
        # a few tens of float32 roundings (1.4e-6 to 1.6e-6 measured).
        assert np.max(np.abs(precond(hess(x)) - x)) < 100 * F32_EPS

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("n", [64, 67])
    def test_matches_per_mode_inverse(self, N, n):
        # The decoupled float32 apply against the float64 per-mode 2x2 solve,
        # which itself inverts the vacuum Hessian to float64 rounding.
        func, grid, _ = make_problem(N=N, n1=0, n2=0, n=n)
        reference = per_mode_inverse_reference(func)
        x = self.interior_pair(n, np.random.default_rng(53))
        hess = func.hessian_operator(zeros(grid))
        assert np.max(np.abs(reference(hess(x)) - x)) < 1e-12
        expected = reference(x)
        # 2.8 to 3.8 float32 epsilons of max |expected| measured.
        error = np.max(np.abs(func.far_field_preconditioner()(x) - expected))
        assert error < 10 * F32_EPS * np.max(np.abs(expected))

    def test_symmetric_positive_with_zero_boundary(self):
        func, grid, _ = make_problem(N=3, n1=0, n2=0, n=67)
        precond = func.far_field_preconditioner()
        rng = np.random.default_rng(43)
        a = self.interior_pair(67, rng)
        b = self.interior_pair(67, rng)
        pa = precond(a)
        pb = precond(b)
        left = float(np.vdot(b, pa))
        right = float(np.vdot(a, pb))
        # Symmetric to float32 rounding (1.2e-7 relative measured).
        assert left == pytest.approx(right, rel=10 * F32_EPS)
        assert float(np.vdot(a, pa)) > 0.0
        for z in pa:
            edge = np.concatenate([z[0, :], z[-1, :], z[:, 0], z[:, -1]])
            assert np.all(edge == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_returns_float64(self, dtype):
        # The float32 transforms must not leak into the CG vectors.
        func, grid, _ = make_problem(N=2, n1=1, n2=1, n=33)
        r = self.interior_pair(33, np.random.default_rng(47)).astype(dtype)
        z = func.far_field_preconditioner()(r)
        assert z.dtype == np.float64 and z.shape == (2, 33, 33)


class TestConvexity:
    def test_midpoint_convexity(self):
        func, grid, _ = make_problem()
        rng = np.random.default_rng(23)
        for _ in range(100):
            u = random_pair(grid, rng, scale=0.5)
            v = random_pair(grid, rng, scale=0.5)
            mid = 0.5 * (u + v)
            eu, ev, em = func.energy(u), func.energy(v), func.energy(mid)
            scale = 1.0 + abs(eu) + abs(ev)
            assert em <= 0.5 * (eu + ev) + 1e-10 * scale

    def test_vacuum_minimum_is_zero_field(self):
        func, grid, _ = make_problem(n1=0, n2=0)
        rng = np.random.default_rng(29)
        assert func.energy(zeros(grid)) == 0.0
        for _ in range(10):
            fp = random_pair(grid, rng, scale=0.4)
            if np.max(np.abs(fp)) > 0:
                assert func.energy(fp) > 0.0


class PerSpeciesReference:
    """The functional written one species at a time, from the background's evaluators.

    These are the formulas the stacked ``weight``/``source`` arrays replaced:
    each exponential and each source term is spelled out per species, with
    ``s1 = 2*w1`` and ``s2 = 2*(gamma*w1 + w2)``.  They are kept as the
    reference the stacked expressions must reproduce to rounding.
    """

    def __init__(self, params, grid):
        cd = coupling_matrix(params)
        self.fc = functional_coefficients(cd)
        self.gamma = cd.gamma
        self.c_grad = (self.fc.c_grad1, self.fc.c_grad2)
        self.h2 = grid.cell_area
        bg = background(params)
        r2 = grid.radius_squared()
        self.e2u01 = bg.exp_two_u0_1(r2)
        self.e2u02 = bg.exp_two_u0_2(r2)
        self.psi1 = bg.psi_1(r2)
        self.psi2 = bg.psi_2(r2)

    def exponents(self, w):
        return 2.0 * w[0], 2.0 * (self.gamma * w[0] + w[1])

    def edge_energy(self, w):
        return sum(
            c * float(np.sum(np.diff(wk, axis=0) ** 2) + np.sum(np.diff(wk, axis=1) ** 2))
            for c, wk in zip(self.c_grad, w)
        )

    def edge_energy_change(self, w, step):
        total = 0.0
        for c, wk, sk in zip(self.c_grad, w, step):
            for axis in (0, 1):
                dw, dd = np.diff(wk, axis=axis), np.diff(sk, axis=axis)
                total += c * float(np.sum(dd * (2.0 * dw + dd)))
        return total

    def stiffness(self, w):
        out = np.zeros_like(w)
        for k, c in enumerate(self.c_grad):
            wk = w[k]
            out[k, 1:-1, 1:-1] = 2.0 * c * (
                4.0 * wk[1:-1, 1:-1] - wk[:-2, 1:-1] - wk[2:, 1:-1] - wk[1:-1, :-2] - wk[1:-1, 2:]
            )
        return out

    def energy(self, w):
        fc = self.fc
        s1, s2 = self.exponents(w)
        pot = (
            self.e2u02 * np.expm1(s2)
            + fc.c_exp1 * self.e2u01 * np.expm1(s1)
            + (2.0 * fc.c_grad1 * self.psi1 - fc.c_lin1) * w[0]
            + (2.0 * fc.c_grad2 * self.psi2 - 2.0) * w[1]
        )
        return self.edge_energy(w) + self.h2 * float(np.sum(pot))

    def energy_change(self, w, step):
        fc = self.fc
        s1, s2 = self.exponents(w)
        ds1, ds2 = self.exponents(step)
        pot = (
            self.e2u02 * np.exp(s2) * np.expm1(ds2)
            + fc.c_exp1 * self.e2u01 * np.exp(s1) * np.expm1(ds1)
            + (2.0 * fc.c_grad1 * self.psi1 - fc.c_lin1) * step[0]
            + (2.0 * fc.c_grad2 * self.psi2 - 2.0) * step[1]
        )
        return self.edge_energy_change(w, step) + self.h2 * float(np.sum(pot))

    def gradient(self, w):
        fc = self.fc
        s1, s2 = self.exponents(w)
        exp1, exp2 = np.exp(s1), np.exp(s2)
        pot1 = (
            2.0 * self.gamma * self.e2u02 * exp2
            + 2.0 * fc.c_exp1 * self.e2u01 * exp1
            + 2.0 * fc.c_grad1 * self.psi1
            - fc.c_lin1
        )
        pot2 = 2.0 * self.e2u02 * exp2 + 2.0 * fc.c_grad2 * self.psi2 - 2.0
        g = self.stiffness(w)
        g[0, 1:-1, 1:-1] += self.h2 * pot1[1:-1, 1:-1]
        g[1, 1:-1, 1:-1] += self.h2 * pot2[1:-1, 1:-1]
        return g

    def hessian_apply(self, w, d):
        fc = self.fc
        a = self.gamma
        s1, s2 = self.exponents(w)
        T = (4.0 * self.h2 * fc.c_exp1) * (self.e2u01 * np.exp(s1))[1:-1, 1:-1]
        S = (4.0 * self.h2) * (self.e2u02 * np.exp(s2))[1:-1, 1:-1]
        d1, d2 = d[0, 1:-1, 1:-1], d[1, 1:-1, 1:-1]
        out = self.stiffness(d)
        out[0, 1:-1, 1:-1] += T * d1 + a * S * (a * d1 + d2)
        out[1, 1:-1, 1:-1] += S * (a * d1 + d2)
        return out


class TestStackedMatchesPerSpecies:
    """The stacked functional against :class:`PerSpeciesReference` on random fields."""

    #: About 450 float64 epsilons: the stacked and per-species forms differ
    #: only in the order of their roundings (4e-16 relative measured).
    RTOL = 1e-13

    @pytest.fixture(params=[(2, 1, 2), (3, 2, 1)], ids=lambda p: "N=%d n1=%d n2=%d" % p)
    def problem(self, request):
        N, n1, n2 = request.param
        params = ModelParams(N=N, n1=n1, n2=n2)
        grid = PlanarGrid(half_width=15.0, points_per_side=33)
        return DiscreteFunctional(params, grid), PerSpeciesReference(params, grid), grid

    def assert_close(self, got, want):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= self.RTOL * scale

    def test_energy_and_energy_change(self, problem):
        func, ref, grid = problem
        rng = np.random.default_rng(53)
        for _ in range(5):
            w = random_pair(grid, rng)
            step = random_pair(grid, rng, scale=1.0)
            assert func.energy(w) == pytest.approx(ref.energy(w), rel=self.RTOL)
            change = func.energy_change(w, step)
            assert change == pytest.approx(ref.energy_change(w, step), rel=self.RTOL)

    def test_gradient(self, problem):
        func, ref, grid = problem
        rng = np.random.default_rng(59)
        for _ in range(5):
            w = random_pair(grid, rng)
            self.assert_close(func.gradient(w), ref.gradient(w))

    def test_hessian_apply(self, problem):
        func, ref, grid = problem
        rng = np.random.default_rng(61)
        for _ in range(5):
            w = random_pair(grid, rng)
            hess = func.hessian_operator(w)
            for _ in range(3):
                d = random_pair(grid, rng, scale=1.0)
                self.assert_close(hess(d), ref.hessian_apply(w, d))

    def test_neighbor_sum_of_a_stack_is_bitwise_per_species(self):
        # verify.pde_residual takes the stencil of both smooth parts in one call.
        w = np.random.default_rng(67).standard_normal((2, 33, 33))
        np.testing.assert_array_equal(_neighbor_sum(w), np.stack([_neighbor_sum(x) for x in w]))


def symmetric_pair(grid, rng, scale=0.3):
    """A random field pair unchanged, to the last bit, by ``x -> -x`` and ``y -> -y``."""
    w = random_pair(grid, rng, scale)
    w = w + w[:, ::-1]
    return w + w[:, :, ::-1]


def fold(w):
    """The quadrant ``[:, n/2 - 1:, n/2 - 1:]`` of a full field, as a new array."""
    k0 = w.shape[1] // 2 - 1
    return w[:, k0:, k0:].copy()


def positive(w):
    """The positive quarter ``[:, n/2:, n/2:]`` of a full field: a quadrant without its mirror."""
    k = w.shape[1] // 2
    return w[:, k:, k:]


class TestQuadrant:
    """The functional restricted to D2-symmetric fields, on one quadrant.

    On symmetric fields it must reproduce the full grid: a quarter of the
    energy and energy change, and the same per-node gradient and Hessian
    apply.  On its own layout its gradient and Hessian must be the exact
    derivatives of its energy.
    """

    @staticmethod
    def problem(N=2, n1=1, n2=1, n=34):
        func, grid, _ = make_problem(N=N, n1=n1, n2=n2, n=n)
        quad, *_ = make_problem(N=N, n1=n1, n2=n2, n=n, quadrant=True)
        return func, quad, grid

    def test_needs_an_even_grid(self):
        with pytest.raises(ValueError, match="even grid"):
            make_problem(n=33, quadrant=True)

    def test_layout(self):
        func, quad, grid = self.problem()
        assert quad.quadrant and not func.quadrant
        assert quad.weight.shape == quad.source.shape == (2, 18, 18)
        for a in (quad.weight, quad.source):
            assert np.all(a[:, 0, :] == 0.0) and np.all(a[:, :, 0] == 0.0)
        np.testing.assert_array_equal(quad.weight[:, 1:, 1:], func.weight[:, 17:, 17:])

    @pytest.mark.parametrize("N, n1, n2", [(2, 1, 1), (3, 1, 2)])
    def test_reproduces_the_full_grid_on_symmetric_fields(self, N, n1, n2):
        func, quad, grid = self.problem(N, n1, n2)
        rng = np.random.default_rng(71)
        for _ in range(3):
            w = symmetric_pair(grid, rng)
            step = symmetric_pair(grid, rng, scale=1.0)
            d = symmetric_pair(grid, rng, scale=1.0)
            assert 4.0 * quad.energy(fold(w)) == pytest.approx(func.energy(w), rel=1e-13)
            change = 4.0 * quad.energy_change(fold(w), fold(step))
            assert change == pytest.approx(func.energy_change(w, step), rel=1e-13)
            g = quad.gradient(fold(w))
            np.testing.assert_array_equal(g[:, 1:, 1:], positive(func.gradient(w)))
            hd = quad.hessian_operator(fold(w))(fold(d))
            np.testing.assert_array_equal(hd[:, 1:, 1:], positive(func.hessian_operator(w)(d)))

    def test_gradient_matches_fd(self):
        _, quad, grid = self.problem(N=3, n1=1, n2=2)
        rng = np.random.default_rng(73)
        for _ in range(2):
            fp = fold(random_pair(grid, rng))  # not symmetric: the mirror is overwritten
            g = quad.gradient(fp)
            fd = fd_gradient(quad, fp)
            assert np.max(np.abs(fd - g)) / np.max(np.abs(g)) < 1e-6
            assert np.all(g[:, 0, :] == 0.0) and np.all(g[:, :, 0] == 0.0)

    def test_hessian_matches_second_difference(self):
        _, quad, grid = self.problem(N=3, n1=1, n2=2)
        rng = np.random.default_rng(79)
        eps = 1e-4
        for _ in range(3):
            fp = fold(random_pair(grid, rng))
            d = fold(random_pair(grid, rng, scale=1.0))
            quad_form = float(np.vdot(d, quad.hessian_operator(fp)(d)))
            plus, minus = quad.energy(fp + eps * d), quad.energy(fp - eps * d)
            fd = (plus - 2.0 * quad.energy(fp) + minus) / eps**2
            assert fd == pytest.approx(quad_form, rel=1e-4)

    def test_energy_change_matches_difference_of_energies(self):
        _, quad, grid = self.problem()
        rng = np.random.default_rng(83)
        for _ in range(3):
            fp = fold(random_pair(grid, rng))
            step = fold(random_pair(grid, rng, scale=1.0))
            expected = quad.energy(fp + step) - quad.energy(fp)
            assert quad.energy_change(fp, step) == pytest.approx(expected, rel=1e-10)

    @staticmethod
    def interior(quad, rng):
        q = quad.weight.shape[1]
        x = np.zeros((2, q, q))
        x[:, 1:-1, 1:-1] = rng.standard_normal((2, q - 2, q - 2))
        return x

    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_preconditioner_inverts_vacuum_hessian(self, N):
        _, quad, grid = self.problem(N=N, n1=0, n2=0, n=64)
        x = self.interior(quad, np.random.default_rng(89))
        y = quad.far_field_preconditioner()(quad.hessian_operator(fold(zeros(grid)))(x))
        # The Hessian apply wrote the mirror of x; compare the degrees of freedom.
        assert np.max(np.abs(y - x)[:, 1:-1, 1:-1]) < 100 * F32_EPS

    def test_preconditioner_is_the_full_one_on_symmetric_fields(self):
        func, quad, grid = self.problem(N=3, n1=0, n2=0, n=64)
        r = symmetric_pair(grid, np.random.default_rng(97), scale=1.0)
        expected = positive(func.far_field_preconditioner()(r))
        error = np.max(np.abs(quad.far_field_preconditioner()(fold(r))[:, 1:, 1:] - expected))
        assert error < 10 * F32_EPS * np.max(np.abs(expected))

    @pytest.mark.parametrize("m", [14, 30, 62, 64, 126, 382, 510, 1022])
    def test_sine_block_is_the_slice_of_the_full_matrix(self, m):
        # The quadrant preconditioner builds this block alone, bit for bit.
        block = _sine_matrix(m, slice(0, None, 2), slice(m // 2, None))
        np.testing.assert_array_equal(block, _sine_matrix(m)[0::2, m // 2 :])

    def test_preconditioner_symmetric_positive_float64(self):
        _, quad, grid = self.problem(N=3, n1=0, n2=0, n=66)
        precond = quad.far_field_preconditioner()
        rng = np.random.default_rng(101)
        a, b = self.interior(quad, rng), self.interior(quad, rng)
        pa, pb = precond(a), precond(b.astype(np.float32))
        assert pa.dtype == pb.dtype == np.float64 and pa.shape == a.shape
        assert float(np.vdot(b, pa)) == pytest.approx(float(np.vdot(a, pb)), rel=10 * F32_EPS)
        assert float(np.vdot(a, pa)) > 0.0
        for z in pa:  # zero mirror and edge
            assert np.all(z[[0, -1], :] == 0.0) and np.all(z[:, [0, -1]] == 0.0)


def is_d2_symmetric(a):
    """Whether a ``(2, n, n)`` array is bitwise unchanged by ``x -> -x`` and ``y -> -y``."""
    return np.array_equal(a, a[:, ::-1]) and np.array_equal(a, a[:, :, ::-1])


class TestQuadrantConstruction:
    """On even grids the background is D2-symmetric to the last bit by construction.

    So a quadrant built on its own nodes equals the slice of the full
    problem bitwise, and no solve needs to compare ``weight`` or ``source``
    under the reflections at run time.
    """

    @staticmethod
    def assert_quadrant_of(quad, full):
        # Off the mirror: a quadrant's weight and source are zero there.
        np.testing.assert_array_equal(quad[:, 1:, 1:], fold(full)[:, 1:, 1:])

    @settings(max_examples=60, deadline=None)
    @given(
        half_n=st.integers(8, 130),
        half_width=st.floats(1.0, 60.0),
        N=st.integers(2, 5),
        theorem=st.booleans(),
        n1=st.integers(1, 4) | st.floats(0.0, 4.0),
        n2=st.integers(1, 4) | st.floats(0.0, 4.0),
        tau=st.floats(0.05, 20.0),
    )
    @example(half_n=8, half_width=15.0, N=2, theorem=True, n1=1, n2=1, tau=1.0)
    @example(half_n=130, half_width=6.0, N=5, theorem=False, n1=0.0, n2=0.5, tau=0.2)
    def test_quadrant_is_the_slice_of_the_full_problem(
        self, half_n, half_width, N, theorem, n1, n2, tau
    ):
        if theorem:
            n1, n2 = max(1, round(n1)), max(1, round(n2))
        params = ModelParams(N=N, n1=n1, n2=n2, tau=tau, theorem_mode=theorem)
        grid = PlanarGrid(half_width=half_width, points_per_side=2 * half_n)
        np.testing.assert_array_equal(grid.coords, -grid.coords[::-1])
        full = DiscreteFunctional(params, grid)
        quad = DiscreteFunctional(params, grid, quadrant=True)
        edge = _start(params, grid, quadrant=False)
        for a in (full.weight, full.source, edge):
            assert is_d2_symmetric(a)
        self.assert_quadrant_of(quad.weight, full.weight)
        self.assert_quadrant_of(quad.source, full.source)
        np.testing.assert_array_equal(_start(params, grid, quadrant=True), fold(edge))

    def test_radial_start_is_the_slice_of_the_full_start(self):
        params = ModelParams(N=3, n1=1, n2=2)
        grid = PlanarGrid(half_width=15.0, points_per_side=100)
        radial = solve_radial_P(params, radial_mesh())
        initial = _interpolate(radial, grid.radius_squared())
        assert is_d2_symmetric(initial)
        full = _start(params, grid, quadrant=False, initial=initial)
        quad = _start(params, grid, quadrant=True, initial=initial)
        np.testing.assert_array_equal(quad, fold(full))
        # A radial solution as the start gives the same arrays, bit for bit.
        np.testing.assert_array_equal(_start(params, grid, quadrant=False, initial=radial), full)
        np.testing.assert_array_equal(_start(params, grid, quadrant=True, initial=radial), quad)
