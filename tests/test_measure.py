"""Tests for the energy measure, multiplicity counting, and bulk deviation.

Numeric reference values were measured once from sampled closed-form
profiles and frozen; they are deterministic for this grid family.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab.field import Grid
from gtlab.measure import (
    bulk_deviation,
    distance_to_points,
    energy_density,
    mixing_energy,
    multiplicity_estimate,
)
from gtlab.potential import DoubleWell

SQRT2 = float(np.sqrt(2.0))
SIGMA = SQRT2 / 3.0

# sampled tanh kink, eps = 0.02, h = eps/16, unit interval
TANH_TOTAL_MASS = 0.9425637009324878
TANH_MAX_DENSITY = 24.9593814099715


def kink(x, eps):
    return np.tanh(x / (SQRT2 * eps))


class TestDensityAndDiscrepancy:
    def test_frozen_kink_statistics(self):
        eps = 0.02
        grid = Grid.box((0.0,), (1.0,), (800,))
        u = kink(grid.axis(0) - 0.5, eps)
        assert mixing_energy(u, grid, eps) == pytest.approx(TANH_TOTAL_MASS, rel=1e-9)
        density = energy_density(u, grid, eps)
        assert np.max(density) == pytest.approx(TANH_MAX_DENSITY, rel=1e-6)

    def test_total_mass_approaches_twice_sigma(self):
        eps = 0.02
        masses = {}
        for n in (200, 400, 800):
            grid = Grid.box((0.0,), (1.0,), (n,))
            u = kink(grid.axis(0) - 0.5, eps)
            masses[n] = mixing_energy(u, grid, eps)
        assert abs(masses[800] - 2.0 * SIGMA) < abs(masses[200] - 2.0 * SIGMA)
        assert masses[800] == pytest.approx(2.0 * SIGMA, abs=3e-4)

    def test_validation(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        u = np.zeros(8)
        with pytest.raises(ValueError, match="eps"):
            multiplicity_estimate(u, grid, -0.1, SIGMA, (0.5,), 0.1)
        with pytest.raises(ValueError, match="shape"):
            multiplicity_estimate(np.zeros(9), grid, 0.1, SIGMA, (0.5,), 0.1)
        with pytest.raises(ValueError, match="radius"):
            multiplicity_estimate(u, grid, 0.1, SIGMA, (0.5,), -1.0)
        with pytest.raises(ValueError, match="center"):
            multiplicity_estimate(u, grid, 0.1, SIGMA, (0.5, 0.5), 0.1)
        grid4 = Grid.box((0.0,) * 4, (1.0,) * 4, (4,) * 4)
        with pytest.raises(ValueError, match="dimension 1 to 3"):
            multiplicity_estimate(np.zeros(grid4.shape), grid4, 0.1, SIGMA, (0.5,) * 4, 0.2)


class TestMultiplicity:
    def test_kink_train_counts(self):
        eps = 0.02
        grid = Grid.box((0.0,), (1.0,), (400,))  # h = eps/8
        x = grid.axis(0)

        def train(centers):
            u = np.full(grid.shape, -1.0)
            for i, c in enumerate(centers):
                u = u + (-1.0) ** i * (kink(x - c, eps) + 1.0)
            return multiplicity_estimate(u, grid, eps, SIGMA, (0.5,), 8 * eps)

        m1 = train([0.5])
        m2 = train([0.5 - 2 * eps, 0.5 + 2 * eps])
        m3 = train([0.5 - 4 * eps, 0.5, 0.5 + 4 * eps])
        assert m1 == pytest.approx(0.9989614229804336, abs=1e-6)
        # neighbouring kinks at 4*eps spacing depress the plateau between
        # them (the overlap is exponential in the spacing), which costs a
        # few percent of a sheet; the counts still resolve unambiguously
        assert m2 == pytest.approx(1.9573707882920188, abs=1e-6)
        assert m3 == pytest.approx(2.9162712784978195, abs=1e-6)
        for k, est in ((1, m1), (2, m2), (3, m3)):
            assert round(est) == k
            assert abs(est - k) <= 0.1

    def test_straight_sheet_2d(self):
        eps = 0.04
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (200, 200))
        x, _ = grid.mesh()
        u = kink(x - 0.5, eps)
        est = multiplicity_estimate(u, grid, eps, SIGMA, (0.5, 0.5), 0.2)
        assert est == pytest.approx(0.9867591512315739, abs=1e-6)
        assert abs(est - 1.0) <= 0.02

    def test_double_circle_2d(self):
        eps = 0.02
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (400, 400))
        x, y = grid.mesh()
        r = np.hypot(x - 0.5, y - 0.5)
        u = -1.0 + (kink(0.34 - r, eps) + 1.0) - (kink(0.26 - r, eps) + 1.0)
        est = multiplicity_estimate(u, grid, eps, SIGMA, (0.8, 0.5), 0.24)
        assert est == pytest.approx(1.975394528456977, abs=1e-6)
        assert round(est) == 2 and abs(est - 2.0) <= 0.1

    def test_straight_sheet_3d(self):
        # the cross-section of a ball through a flat sheet is a disk of
        # area pi r^2, not a diameter's 2 r
        eps = 0.04
        grid = Grid.box((0.0,) * 3, (1.0,) * 3, (100,) * 3)
        x, _, _ = grid.mesh()
        u = kink(x - 0.5, eps)
        est = multiplicity_estimate(u, grid, eps, SIGMA, (0.5,) * 3, 8 * eps)
        assert round(est) == 1
        assert abs(est - 1.0) <= 0.1


class TestDistanceToPoints:
    def test_1d(self):
        grid = Grid.box((0.0,), (1.0,), (10,))
        d = distance_to_points(grid, np.array([[0.25], [0.75]]))
        x = grid.axis(0)
        want = np.minimum(np.abs(x - 0.25), np.abs(x - 0.75))
        assert np.allclose(d, want, atol=1e-14)

    @given(st.integers(1, 12))
    @settings(max_examples=25)
    def test_2d_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        pts = rng.uniform(0.0, 1.0, size=(m, 2))
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (8, 8))
        d = distance_to_points(grid, pts)
        xs, ys = grid.mesh()
        centers = np.column_stack([xs.ravel(), ys.ravel()])
        brute = np.min(
            np.linalg.norm(centers[:, None, :] - pts[None, :, :], axis=2), axis=1
        ).reshape(grid.shape)
        assert np.max(np.abs(d - brute)) <= 1e-12

    def test_empty_rejected(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        with pytest.raises(ValueError, match="empty"):
            distance_to_points(grid, np.empty((0, 1)))
        with pytest.raises(ValueError, match="shape"):
            distance_to_points(grid, np.array([0.25, 0.75]))


class TestBulkDeviation:
    def test_piecewise_plateaus(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (64, 64))
        x, y = grid.mesh()
        r = np.hypot(x - 0.5, y - 0.5)
        u = np.where(r < 0.3, 1.003, -0.997)
        theta = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
        ring = np.column_stack(
            [0.5 + 0.3 * np.cos(theta), 0.5 + 0.3 * np.sin(theta)]
        )
        dev = bulk_deviation(u, grid, ring, 0.05, 1.003, -0.997)
        assert dev == 0.0

        bumped = u.copy()
        bumped[2, 2] += 1e-3  # far corner cell
        dev = bulk_deviation(bumped, grid, ring, 0.05, 1.003, -0.997)
        assert dev == pytest.approx(1e-3, abs=1e-15)

    def test_margin_excludes_interface_band(self):
        grid = Grid.box((0.0,), (1.0,), (100,))
        x = grid.axis(0)
        u = np.where(x > 0.5, 1.0, -1.0)
        idx = int(np.argmin(np.abs(x - 0.52)))
        u[idx] = 0.5  # large deviation, but within the margin band
        dev = bulk_deviation(u, grid, np.array([[0.5]]), 0.1, 1.0, -1.0)
        assert dev == 0.0

    def test_validation(self):
        grid = Grid.box((0.0,), (1.0,), (10,))
        u = np.ones(10)
        pts = np.array([[0.5]])
        with pytest.raises(ValueError, match="margin must be positive"):
            bulk_deviation(u, grid, pts, -0.1, 1.0, -1.0)
        with pytest.raises(ValueError, match="no bulk cells"):
            bulk_deviation(u, grid, pts, 10.0, 1.0, -1.0)
        with pytest.raises(ValueError, match="shape"):
            bulk_deviation(np.ones(9), grid, pts, 0.1, 1.0, -1.0)
