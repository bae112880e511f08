"""Tests for contour extraction, curvature, and the balance residual."""

import csv
import hashlib

import numpy as np
import pytest

from gtlab.field import Grid, gradient
from gtlab.interface import (
    Contour,
    curvature,
    curvature_balance,
    extract_contours,
    write_contour_csv,
    zero_crossings_1d,
)


def circle_field(grid, center, radius):
    x, y = grid.mesh()
    return radius - np.hypot(x - center[0], y - center[1])


class TestExtractContours:
    def test_vertical_line_exact(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (16, 16))
        x, _ = grid.mesh()
        contours = extract_contours(x - 0.5, grid)
        assert len(contours) == 1
        c = contours[0]
        assert not c.closed
        assert len(c.points) == 16  # one crossing per lattice row
        assert np.max(np.abs(c.points[:, 0] - 0.5)) <= 1e-12
        assert np.all(np.diff(c.points[:, 1]) != 0.0)

    def test_circle_closed_and_accurate(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (64, 64))
        contours = extract_contours(circle_field(grid, (0.5, 0.5), 0.25), grid)
        assert len(contours) == 1
        c = contours[0]
        assert c.closed
        radii = np.hypot(c.points[:, 0] - 0.5, c.points[:, 1] - 0.5)
        assert np.max(np.abs(radii - 0.25)) <= 5e-4
        assert 80 <= len(c.points) <= 130

    def test_two_components(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (96, 96))
        u = np.maximum(
            circle_field(grid, (0.3, 0.5), 0.12), circle_field(grid, (0.7, 0.5), 0.12)
        )
        contours = extract_contours(u, grid)
        assert len(contours) == 2
        assert all(c.closed for c in contours)

    def test_saddle_resolution_follows_cell_average(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (2, 2))
        # diagonal corners positive; average decides the pairing
        hot = np.array([[2.0, -1.0], [-1.0, 2.0]])
        cold = np.array([[1.0, -2.0], [-2.0, 1.0]])
        for values in (hot, cold):
            contours = extract_contours(values, grid)
            assert len(contours) == 2
            assert all(len(c.points) == 2 and not c.closed for c in contours)
        # hot: average 0.5 > 0, the positive phase connects through the
        # center, so one segment joins the W and N edges (both near the
        # (0,1) corner). cold: average -0.5, segments hug the + corners.
        hot_contours = extract_contours(hot, grid)
        merged = {tuple(np.round(p, 12)) for c in hot_contours for p in c.points}
        cold_contours = extract_contours(cold, grid)
        merged_cold = {tuple(np.round(p, 12)) for c in cold_contours for p in c.points}
        assert merged != merged_cold

    def test_deterministic(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (48, 48))
        u = circle_field(grid, (0.52, 0.47), 0.21)
        a = extract_contours(u, grid)
        b = extract_contours(u, grid)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.closed == cb.closed
            assert np.array_equal(ca.points, cb.points)

    def test_noise_field_pinned_bitwise(self):
        # white noise: 364 saddle squares, 57 open contours ending on the
        # walls and 133 loops.  The vertices come from IEEE basic
        # operations only, so the digest holds on any numpy/scipy/BLAS build.
        grid = Grid.box((0.0, 0.0), (1.0, 0.75), (64, 48))
        values = np.random.default_rng(7).standard_normal((64, 48))
        contours = extract_contours(values, grid)
        assert len(contours) == 190
        assert sum(c.closed for c in contours) == 133
        digest = hashlib.sha256()
        for c in contours:
            digest.update(bytes([c.closed]))
            digest.update(c.points.tobytes())
        assert digest.hexdigest() == (
            "f86d62a107ef9f88044cc9649c3c01954bb01c3ac9d9bec5544d95a75283681b"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            extract_contours(np.zeros(8), Grid.box((0.0,), (1.0,), (8,)))
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (8, 8))
        with pytest.raises(ValueError):
            extract_contours(np.zeros((8, 9)), grid)


class TestZeroCrossings1d:
    def test_linear_exact(self):
        grid = Grid.box((0.0,), (1.0,), (50,))
        got = zero_crossings_1d(grid.axis(0) - 0.37, grid)
        assert got.shape == (1,)
        assert abs(got[0] - 0.37) <= 1e-14

    def test_kink_position(self):
        grid = Grid.box((0.0,), (1.0,), (160,))
        u = np.tanh((grid.axis(0) - 0.35) / 0.05)
        got = zero_crossings_1d(u, grid)
        assert got.shape == (1,)
        assert abs(got[0] - 0.35) <= 1e-6

    def test_multiple_ascending(self):
        grid = Grid.box((0.0,), (1.0,), (400,))
        x = grid.axis(0)
        u = np.sin(3.0 * np.pi * x)  # crossings at 1/3 and 2/3
        got = zero_crossings_1d(u, grid)
        assert got.shape == (2,)
        assert np.all(np.diff(got) > 0.0)
        assert np.allclose(got, [1.0 / 3.0, 2.0 / 3.0], atol=1e-4)

    def test_level_shift(self):
        grid = Grid.box((0.0,), (1.0,), (100,))
        got = zero_crossings_1d(grid.axis(0) - 0.25, grid)
        assert abs(got[0] - 0.25) <= 1e-14

    def test_validation(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(ValueError):
            zero_crossings_1d(np.zeros((4, 4)), grid)


class TestCurvature:
    def test_exact_ring_positive_phase(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (64, 64))
        u = circle_field(grid, (0.5, 0.5), 0.25)
        grads = gradient(u, grid.spacing)
        theta = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        pts = np.column_stack(
            [0.5 + 0.25 * np.cos(theta), 0.5 + 0.25 * np.sin(theta)]
        )
        ring = Contour(points=pts, closed=True)
        kappa = curvature(ring, grid, grads, window=0.1)
        assert np.max(np.abs(kappa - 4.0)) <= 1e-9

    def test_sign_flips_with_phase(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (64, 64))
        u = -circle_field(grid, (0.5, 0.5), 0.25)  # negative phase inside
        grads = gradient(u, grid.spacing)
        theta = np.linspace(0.0, 2.0 * np.pi, 80, endpoint=False)
        pts = np.column_stack(
            [0.5 + 0.25 * np.cos(theta), 0.5 + 0.25 * np.sin(theta)]
        )
        kappa = curvature(Contour(points=pts, closed=True), grid, grads, window=0.1)
        assert np.max(np.abs(kappa + 4.0)) <= 1e-9

    def test_straight_line_zero_with_trimmed_ends(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        _, y = grid.mesh()
        u = y - 0.3
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        kappa = curvature(c, grid, grads, window=0.2)
        assert np.isnan(kappa[0]) and np.isnan(kappa[-1])
        good = kappa[~np.isnan(kappa)]
        assert good.size > 0
        assert np.max(np.abs(good)) == 0.0

    def test_extracted_circle_curvature(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (128, 128))
        u = circle_field(grid, (0.5, 0.5), 0.25)
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        kappa = curvature(c, grid, grads, window=8.0 * grid.spacing)
        assert not np.any(np.isnan(kappa))
        assert np.max(np.abs(kappa - 4.0)) <= 0.04  # within 1 percent

    def test_short_polyline_all_nan(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (8, 8))
        grads = gradient(np.zeros(grid.shape), grid.spacing)
        c = Contour(points=np.array([[0.1, 0.1], [0.2, 0.2]]), closed=False)
        kappa = curvature(c, grid, grads, window=0.5)
        assert np.all(np.isnan(kappa))


class TestCurvatureBalance:
    def test_open_polyline_hand_values(self):
        # the clipped ends of an open polyline carry NaN and are left out
        kappa = np.array([np.nan, 2.0, np.nan])
        force = np.array([0.0, 2.0 - 0.5, 0.0])
        sup = curvature_balance(kappa, force, sigma=1.0)
        assert isinstance(sup, float)
        assert sup == 0.5

    def test_closed_square(self):
        # one value per corner of a closed loop; the sup takes |residual|
        kappa = np.array([1.0, 1.0, 1.0, -1.0])
        assert curvature_balance(kappa, np.zeros(4), sigma=1.0) == 1.0
        force = np.array([0.0, 0.0, 0.0, 1.0])
        assert curvature_balance(kappa, force, sigma=2.0) == 3.0

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError, match="all curvatures are NaN"):
            curvature_balance(np.array([np.nan, np.nan]), np.zeros(2), 1.0)


class TestCsv:
    def test_roundtrip_and_determinism(self, tmp_path):
        c = Contour(
            points=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), closed=False
        )
        kappa = np.array([np.nan, 1.2345678901234567, 2.0])
        force = np.array([0.0, 0.5, 0.25])
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_contour_csv(p1, c, kappa, force, sigma=0.5)
        write_contour_csv(p2, c, kappa, force, sigma=0.5)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x", "y", "kappa", "f", "residual"]
        assert len(rows) == 4
        assert float(rows[2][3]) == 1.2345678901234567
        assert float(rows[2][5]) == 0.5 * 1.2345678901234567 - 0.5
        assert np.isnan(float(rows[1][3]))
