"""Tests for the stationary Newton-Krylov solvers."""

import numpy as np
import pytest

from gtlab.field import Grid, integrate, sample
from gtlab.potential import bulk_roots
from gtlab.solve import (
    disk_signed_distance,
    long_range_potential,
    mixing_energy,
    seed_from_signed_distance,
    solve_conserved,
)

SIGMA = float(np.sqrt(2.0) / 3.0)


class TestDistances:
    def test_disk_2d(self):
        grid = Grid.rectangle((0.0, 0.0), (1.0, 1.0), (8, 8))
        d = disk_signed_distance(grid, (0.5, 0.5), 0.25)
        x, y = grid.mesh()
        want = 0.25 - np.hypot(x - 0.5, y - 0.5)
        assert np.allclose(d, want, atol=1e-14)

    def test_validation(self):
        grid = Grid.interval(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            disk_signed_distance(grid, (0.5,), -0.1)
        with pytest.raises(ValueError):
            disk_signed_distance(grid, (0.5, 0.5), 0.1)

    def test_seed_composition(self, profile_table):
        grid = Grid.interval(0.0, 1.0, 64)
        d = grid.axis(0) - 0.5
        u = seed_from_signed_distance(profile_table, d, 0.05)
        assert u.shape == grid.shape
        assert u[0] == pytest.approx(-1.0, abs=1e-5)
        assert u[-1] == pytest.approx(1.0, abs=1e-5)
        with pytest.raises(ValueError):
            seed_from_signed_distance(profile_table, d, -0.05)


class TestConserved:
    def test_planar_interface(self, well, profile_table):
        eps = 0.05
        grid = Grid.interval(0.0, 1.0, 160)  # h = eps/8
        # interface seated on a cell center; the frozen energy oracle used
        # that seating (a face-seated kink differs at the 3e-6 level)
        seed = seed_from_signed_distance(
            profile_table, grid.axis(0) - float(grid.axis(0)[56]), eps
        )
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
        eps = 0.08
        grid = Grid.rectangle((0.0, 0.0), (1.0, 1.0), (100, 100))  # h = eps/8
        radius = 0.3
        seed = seed_from_signed_distance(
            profile_table, disk_signed_distance(grid, (0.5, 0.5), radius), eps
        )
        mass = integrate(seed, grid)
        u, report = solve_conserved(well, grid, eps, mass, seed)
        assert report.converged
        assert report.residual <= 1e-9
        assert abs(report.mass - mass) <= 1e-10
        lam = report.multiplier
        assert 0.8 * SIGMA / radius <= lam <= 1.25 * SIGMA / radius

    def test_uniform_state_sits_on_bulk_root(self, well):
        # a uniform seed is already stationary: its multiplier is W'(u)/eps,
        # and bulk_roots under that forcing must give the seed value back
        eps = 0.02
        grid = Grid.interval(0.0, 1.0, 64)
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
        grid = Grid.interval(0.0, 1.0, 160)
        seed = seed_from_signed_distance(profile_table, grid.axis(0) - 0.35, eps)
        mass = integrate(seed, grid)
        u1, r1 = solve_conserved(well, grid, eps, mass, seed)
        u2, r2 = solve_conserved(well, grid, eps, mass, seed)
        assert np.array_equal(u1, u2)
        assert r1 == r2


class TestLongRange:
    def test_flat_lamella_balances_potential(self, well, profile_table):
        eps = 0.02
        grid = Grid.interval(0.0, 1.0, 200)
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
        grid = Grid.interval(0.0, 1.0, 128)
        x = grid.axis(0)
        u = np.tanh((x - 0.5) / 0.05)
        base = mixing_energy(u, grid, well, 0.05)
        coupled = mixing_energy(u, grid, well, 0.05, long_range=1.0)
        assert coupled > base
