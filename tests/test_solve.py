"""Tests for the stationary Newton-Krylov solvers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, idctn
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import minres as scipy_minres

from gtlab.field import Grid, integrate, laplacian, neumann_symbol, sample
from gtlab.potential import bulk_roots
from gtlab.solve import (
    _cosine_jacobian,
    _jacobian_symbol,
    _newton,
    disk_signed_distance,
    long_range_potential,
    minres,
    mixing_energy,
    solve_conserved,
)

SIGMA = float(np.sqrt(2.0) / 3.0)


def _disk_solve(well, table, eps, n, radius=0.25):
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))
    seed = table.phi0_at(disk_signed_distance(grid, (0.5, 0.5), radius) / eps)
    mass = integrate(seed, grid)
    return mass, solve_conserved(well, grid, eps, mass, seed)[1]


class TestDistances:
    def test_disk_2d(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (8, 8))
        d = disk_signed_distance(grid, (0.5, 0.5), 0.25)
        x, y = grid.mesh()
        want = 0.25 - np.hypot(x - 0.5, y - 0.5)
        assert np.allclose(d, want, atol=1e-14)

    def test_validation(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        with pytest.raises(ValueError):
            disk_signed_distance(grid, (0.5,), -0.1)
        with pytest.raises(ValueError):
            disk_signed_distance(grid, (0.5, 0.5), 0.1)

    def test_seed_composition(self, profile_table):
        grid = Grid.box((0.0,), (1.0,), (64,))
        d = grid.axis(0) - 0.5
        u = profile_table.phi0_at(d / 0.05)
        assert u.shape == grid.shape
        assert u[0] == pytest.approx(-1.0, abs=1e-5)
        assert u[-1] == pytest.approx(1.0, abs=1e-5)


class TestConserved:
    def test_planar_interface(self, well, profile_table):
        eps = 0.05
        grid = Grid.box((0.0,), (1.0,), (160,))  # h = eps/8
        # interface seated on a cell center; the frozen energy oracle used
        # that seating (a face-seated kink differs at the 3e-6 level)
        seed = profile_table.phi0_at((grid.axis(0) - float(grid.axis(0)[56])) / eps)
        mass = integrate(seed, grid)
        u, report = solve_conserved(well, grid, eps, mass, seed)
        assert report.converged
        assert report.residual <= 1e-9
        assert abs(report.mass - mass) <= 1e-10
        # flat interface: zero curvature, so the multiplier vanishes
        assert abs(report.multiplier) <= 1e-4
        # discrete transition energy follows the second-order defect law
        # E_h = 2*sigma - (4 sqrt2 / 90) (h/eps)^2 + O((h/eps)^4)
        law = 2.0 * SIGMA - (4.0 * np.sqrt(2.0) / 90.0) * (1.0 / 64.0)
        assert report.energy == pytest.approx(law, abs=5e-7)
        assert abs(report.energy - 2.0 * SIGMA) <= 1e-3

    def test_disk_multiplier_tracks_curvature(self, well, profile_table):
        radius = 0.3
        mass, report = _disk_solve(well, profile_table, 0.08, 100, radius)  # h = eps/8
        assert report.converged and report.stop_reason == "converged"
        assert report.krylov_iterations > 0 and report.krylov_failures == 0
        assert report.residual <= 1e-9
        assert abs(report.mass - mass) <= 1e-10
        lam = report.multiplier
        assert 0.8 * SIGMA / radius <= lam <= 1.25 * SIGMA / radius

    def test_uniform_state_sits_on_bulk_root(self, well):
        # a uniform seed is already stationary: its multiplier is W'(u)/eps,
        # and bulk_roots under that forcing must give the seed value back
        eps = 0.02
        grid = Grid.box((0.0,), (1.0,), (64,))
        for value in (-0.99, 1.01):
            seed = np.full(grid.shape, value)
            u, report = solve_conserved(well, grid, eps, integrate(seed, grid), seed)
            assert report.converged and report.iterations == 0
            assert report.multiplier == pytest.approx(
                well.derivative(value) / eps, rel=1e-12
            )
            minus, plus = bulk_roots(well, eps, report.multiplier)
            assert (plus if value > 0.0 else minus) == pytest.approx(value, abs=1e-12)
            assert np.max(np.abs(u - value)) <= 1e-12

    def test_deterministic_rerun(self, well, profile_table):
        eps = 0.05
        grid = Grid.box((0.0,), (1.0,), (160,))
        seed = profile_table.phi0_at((grid.axis(0) - 0.35) / eps)
        mass = integrate(seed, grid)
        u1, r1 = solve_conserved(well, grid, eps, mass, seed)
        u2, r2 = solve_conserved(well, grid, eps, mass, seed)
        assert np.array_equal(u1, u2)
        assert r1 == r2


class TestLongRange:
    def test_flat_lamella_balances_potential(self, well, profile_table):
        eps = 0.02
        grid = Grid.box((0.0,), (1.0,), (200,))
        x = grid.axis(0)
        seed = (
            profile_table.phi0_at((x - 0.25) / eps)
            - profile_table.phi0_at((x - 0.75) / eps)
            - 1.0
        )
        u, report = solve_conserved(well, grid, eps, 0.0, seed, long_range=1.0)
        assert report.converged
        assert abs(report.mass) <= 1e-10
        # flat interfaces: sigma*kappa = 0, so lam - v must vanish on them
        v = long_range_potential(u, grid)
        v_at = sample(v, grid, np.array([0.25, 0.75]))
        assert np.max(np.abs(report.multiplier - v_at)) <= 0.1

    def test_energy_includes_screened_term(self, well):
        grid = Grid.box((0.0,), (1.0,), (128,))
        x = grid.axis(0)
        u = np.tanh((x - 0.5) / 0.05)
        base = mixing_energy(u, grid, well, 0.05)
        coupled = mixing_energy(u, grid, well, 0.05, long_range=1.0)
        assert coupled > base


class TestMeanZeroSteps:
    """Regressions for the stall that a constant drift in the MINRES
    iterate caused: the drift moved the mass, so full Newton steps raised
    the residual and the line search crawled on for all 60 steps."""

    @pytest.fixture(scope="class")
    def eps016(self, well, profile_table):
        return _disk_solve(well, profile_table, 0.016, 250)

    def test_eps016_disk_converges_without_mass_drift(self, eps016):
        mass, report = eps016
        assert report.converged and report.stop_reason == "converged"
        assert report.iterations <= 6
        assert abs(report.mass - mass) <= 1e-13

    def test_eps016_disk_krylov_work(self, eps016):
        # 42 MINRES iterations in 5 Newton steps; an unfloored forcing
        # spent 70 of 101 on the last step, and a constant drift in the
        # iterate cost 3783 over 60 Newton steps
        _, report = eps016
        assert report.krylov_iterations <= 50
        assert report.krylov_failures == 0

    def test_eps01_disk_converges(self, well, profile_table):
        # 6 Newton steps and 53 MINRES iterations; 135 unfloored
        _, report = _disk_solve(well, profile_table, 0.01, 400)
        assert report.converged
        assert report.iterations <= 6
        assert report.krylov_iterations <= 65
        assert report.residual <= 1e-9

    @pytest.mark.parametrize(
        "eps, n, steps", [(0.08, 50, 5), (0.04, 100, 4), (0.02, 200, 4)]
    )
    def test_forcing_floor_costs_no_newton_step(
        self, well, profile_table, eps, n, steps
    ):
        # the solve-ch default ladder (grid_k 4); the step counts are those
        # of the unfloored forcing 0.01*min(sup, 1)
        _, report = _disk_solve(well, profile_table, eps, n)
        assert report.stop_reason == "converged"
        assert report.iterations <= steps
        assert report.residual <= 1e-9

    def test_default_eps08_disk_keeps_mass(self, well, profile_table):
        # the solve-ch default: eps 0.08, grid_k 4, radius 0.25
        mass, report = _disk_solve(well, profile_table, 0.08, 50)
        assert report.converged
        assert report.iterations <= 8
        assert abs(report.mass - mass) <= 1e-14

    def test_strongly_coupled_lamella_converges(self, well, profile_table):
        eps = 0.01
        grid = Grid.box((0.0,), (1.0,), (800,))
        x = grid.axis(0)
        seed = (
            profile_table.phi0_at((x - 0.3) / eps)
            - profile_table.phi0_at((x - 0.7) / eps)
            - 1.0
        )
        mass = integrate(seed, grid)
        _, report = solve_conserved(well, grid, eps, mass, seed, long_range=2.5)
        assert report.converged
        assert report.residual <= 1e-9
        assert abs(report.mass - mass) <= 1e-13


class TestResidualEvaluations:
    def test_one_evaluation_per_trial_point(self, well, profile_table):
        # every line search of this solve takes the full step at once, so
        # the residual is evaluated at the seed and at each accepted point,
        # never twice at the same point
        eps = 0.05
        grid = Grid.box((0.0,), (1.0,), (160,))
        seed = profile_table.phi0_at((grid.axis(0) - 0.35) / eps)
        calls = 0

        def residual(u):
            nonlocal calls
            calls += 1
            return -eps * laplacian(u, grid.spacing) + well.derivative(u) / eps

        symbol = _jacobian_symbol(grid, eps, 0.0)
        _, _, iterations, _, converged, *_ = _newton(
            residual, symbol, seed, grid, well, eps
        )
        assert converged and iterations > 0
        assert calls == iterations + 1


class TestStopReason:
    def test_ascent_direction_fails_line_search(self, well, profile_table):
        # a sign-flipped residual (with the Jacobian left as it is) turns
        # every Newton step uphill: the solve must stop at once and leave u
        # where it was
        eps = 0.05
        grid = Grid.box((0.0,), (1.0,), (160,))
        seed = profile_table.phi0_at((grid.axis(0) - 0.4) / eps)

        def flipped(u):
            return eps * laplacian(u, grid.spacing) - well.derivative(u) / eps

        u, lam, iterations, sup, converged, reason, inner, failures = _newton(
            flipped, _jacobian_symbol(grid, eps, 0.0), seed, grid, well, eps
        )
        assert reason == "line_search_failed" and not converged
        assert iterations == 0 and np.array_equal(u, seed)
        assert sup > 1e-9
        assert inner > 0

    @pytest.mark.parametrize("mass", [1e120, 1e200])
    def test_non_finite_residual_stops_at_once(self, well, profile_table, mass):
        # a mass this large overflows W'(u) to infinity, so the residual is
        # not finite: no Krylov solve can reduce it, and the solve must stop
        # before running one
        eps = 0.08
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (50, 50))
        seed = profile_table.phi0_at(disk_signed_distance(grid, (0.5, 0.5), 0.25) / eps)
        with np.errstate(all="ignore"):
            _, report = solve_conserved(well, grid, eps, mass, seed)
        assert report.stop_reason == "non_finite" and not report.converged
        assert report.iterations == 0
        assert report.krylov_iterations == 0 and report.krylov_failures == 0
        assert not np.isfinite(report.residual)


class TestCosineJacobian:
    # the Newton systems are solved on cosine coefficients; the operator
    # there must be the projected stencil Jacobian P J on the grid
    @given(
        st.lists(st.integers(2, 9), min_size=1, max_size=3),
        st.sampled_from([0.0, 0.7]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_stencil_form(self, shape, gamma, seed):
        # 1D, 2D and 3D boxes of any (non-square) shape
        grid = Grid.box((0.0,) * len(shape), tuple(0.1 * n for n in shape), shape)
        eps = 0.03
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(grid.shape)
        w2 = rng.uniform(-40.0, 70.0, grid.shape)
        want = -eps * laplacian(x, grid.spacing) + w2 * x
        if gamma != 0.0:
            want = want + long_range_potential(x, grid, gamma)
        want -= want.mean()
        matvec = _cosine_jacobian(_jacobian_symbol(grid, eps, gamma), w2)
        c = dctn(x, type=2, norm="ortho").ravel()
        coeffs = matvec(c)
        got = idctn(coeffs.reshape(grid.shape), type=2, norm="ortho")
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # MINRES passes a buffer for the product and a scratch; neither may
        # change a bit of it, and the coefficients must be left as they were
        before = c.copy()
        out, scratch = np.full_like(c, np.nan), np.full_like(c, np.nan)
        assert matvec(c, out, scratch).tobytes() == coeffs.tobytes()
        assert c.tobytes() == before.tobytes()


class TestMinres:
    """The in-house MINRES must reproduce scipy.sparse.linalg.minres bit for
    bit: the Newton steps, and so every report, depend on its last digits."""

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_scipy(self, seed, definite):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = rng.uniform(0.1, 10.0, n)
        if not definite:
            eigenvalues *= np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        a = (q * eigenvalues) @ q.T
        a = 0.5 * (a + a.T)
        d = rng.uniform(0.5, 5.0, n)
        b = rng.standard_normal(n)
        rtol = 10.0 ** rng.uniform(-12.0, -1.0)
        maxiter = int(rng.integers(1, 3 * n + 1))

        def matvec(v, out=None, scratch=None):
            # writes into the buffer it is given and spoils its scratch, as
            # the cosine Jacobian may
            if scratch is not None:
                scratch.fill(np.nan)
            return np.matmul(a, v, out=out)

        def precond(r, out=None):
            return np.divide(r, d, out=out)

        calls = [0, 0]

        def count(i):
            def callback(_):
                calls[i] += 1

            return callback

        op = LinearOperator((n, n), matvec=lambda v: a @ v, dtype=float)
        m_op = LinearOperator((n, n), matvec=lambda r: r / d, dtype=float)
        want, want_info = scipy_minres(
            op, b, rtol=rtol, maxiter=maxiter, M=m_op, callback=count(0)
        )
        got, info, itn = minres(matvec, b.copy(), precond, rtol, maxiter, callback=count(1))
        assert got.tobytes() == want.tobytes()
        assert info == want_info
        assert calls[0] == calls[1] == itn > 0

    def test_zero_right_hand_side(self):
        calls = []
        x, info, itn = minres(
            lambda v, out=None, scratch=None: 2.0 * v,
            np.zeros(7),
            lambda r, out=None: np.divide(r, 3.0, out=out),
            1e-8,
            21,
            callback=calls.append,
        )
        assert info == 0 and itn == 0 and not calls
        assert x.tobytes() == np.zeros(7).tobytes()


class TestWorkingSet:
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_solve_peaks_below_fifteen_grid_arrays(self, well, profile_table, gamma):
        # the fixed MINRES vectors (8), the iterate, W''(u)/eps, the Jacobian
        # symbol, the preconditioner's denominator and the cached Neumann
        # symbol make 13; with scipy's minres and the stale references the
        # Newton loop held, the peak was 20 arrays
        eps, n = 0.02, 200
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))
        seed = profile_table.phi0_at(disk_signed_distance(grid, (0.5, 0.5), 0.25) / eps)
        mass = integrate(seed, grid)
        neumann_symbol.cache_clear()
        tracemalloc.start()
        try:
            _, report = solve_conserved(well, grid, eps, mass, seed, long_range=gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak <= 15 * 8 * n * n


class TestBall3d:
    def test_ball_converges_without_mass_drift(self, well, profile_table):
        eps = 0.1
        grid = Grid.box((0.0,) * 3, (1.0,) * 3, (40,) * 3)
        seed = profile_table.phi0_at(
            disk_signed_distance(grid, (0.5, 0.5, 0.5), 0.3) / eps
        )
        mass = integrate(seed, grid)
        _, report = solve_conserved(well, grid, eps, mass, seed)
        assert report.converged and report.stop_reason == "converged"
        assert abs(report.mass - mass) <= 1e-13
        assert report.krylov_failures == 0


class TestPlanarLayerEnergy:
    def test_fourth_order_remainder_of_the_k_law(self, well, profile_table):
        # a solved planar layer carries 2 sigma_h, sigma_h / sigma - 1 =
        # -(h/eps)^2 / 15 + O((h/eps)^4): the remainder after the k-law must
        # fall at least 12x per halving of h (16x at fourth order)
        eps = 0.02
        remainders = []
        for k in (2, 4, 8, 16):
            grid = Grid.box((0.0,), (1.0,), (int(round(k / eps)),))
            seed = profile_table.phi0_at((grid.axis(0) - 0.5) / eps)
            _, report = solve_conserved(well, grid, eps, integrate(seed, grid), seed)
            assert report.converged
            ratio = report.energy / (2.0 * SIGMA)
            remainders.append(abs(ratio - 1.0 + (grid.spacing / eps) ** 2 / 15.0))
        for coarse, fine in zip(remainders, remainders[1:]):
            assert fine <= coarse / 12.0
