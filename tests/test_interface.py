"""Tests for contour extraction, curvature, and the balance residual."""

import hashlib

import numpy as np
import pytest

from gtlab.field import Grid, gradient, integrate, sample
from gtlab.interface import (
    Contour,
    curvature,
    curvature_balance,
    extract_contours,
    zero_crossings_1d,
)
from gtlab.potential import DoubleWell
from gtlab.solve import disk_signed_distance, solve_conserved


def circle_field(grid, center, radius):
    x, y = grid.mesh()
    return radius - np.hypot(x - center[0], y - center[1])


def _loop_curvature(contour, grid, grad_fields, window):
    """The reference: one numpy.linalg.lstsq circle fit per vertex."""
    pts = contour.points
    m = len(pts)
    seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    gx = sample(grad_fields[0], grid, pts)
    gy = sample(grad_fields[1], grid, pts)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    cum = cum[:-1]
    kappa = np.zeros(m)
    for k in range(m):
        d = np.abs(cum - cum[k])
        window_pts = pts[np.nonzero(np.minimum(d, total - d) <= window / 2.0)[0]]
        ax = np.column_stack([2.0 * window_pts, np.ones(len(window_pts))])
        rhs = np.sum(window_pts**2, axis=1)
        sol, _, rank, svals = np.linalg.lstsq(ax, rhs, rcond=None)
        r2 = sol[2] + sol[:2] @ sol[:2]
        if rank < 3 or svals[-1] <= 1e-12 * svals[0] or r2 <= 0.0:
            continue
        orient = (sol[0] - pts[k, 0]) * gx[k] + (sol[1] - pts[k, 1]) * gy[k]
        kappa[k] = np.copysign(1.0 / float(np.sqrt(r2)), orient)
    return kappa


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

    def test_rectangle_loop_straight_sides_zero(self):
        # a closed rectangle: windows that see one straight side only are
        # collinear, so the fit degenerates and kappa is exactly 0 there;
        # windows across a corner bend towards the positive inside
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        x, y = grid.mesh()
        u = np.minimum(np.minimum(x - 0.2, 0.8 - x), np.minimum(y - 0.3, 0.7 - y))
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        assert c.closed and len(c.points) == 64
        kappa = curvature(c, grid, grads, window=0.1)
        assert not np.any(np.isnan(kappa))
        assert np.count_nonzero(kappa == 0.0) == 48
        assert np.all(kappa >= 0.0)

    def test_extracted_circle_curvature(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (128, 128))
        u = circle_field(grid, (0.5, 0.5), 0.25)
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        kappa = curvature(c, grid, grads, window=8.0 * grid.spacing)
        assert not np.any(np.isnan(kappa))
        assert np.max(np.abs(kappa - 4.0)) <= 0.04  # within 1 percent

    def test_batched_fit_matches_the_per_vertex_loop_on_a_solved_disk(self):
        well = DoubleWell()
        eps = 0.04
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (100, 100))
        seed = well.transition(disk_signed_distance(grid, (0.5, 0.5), 0.25) / eps)
        u, report = solve_conserved(grid, eps, integrate(seed, grid), seed)
        assert report.converged
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        for window in (8.0 * eps, 2.0):
            # the wider window covers the whole loop: every window wraps
            kappa = curvature(c, grid, grads, window=window)
            want = _loop_curvature(c, grid, grads, window)
            assert np.all(want > 0.0)
            assert np.max(np.abs(kappa / want - 1.0)) <= 1e-10

    @pytest.mark.parametrize("m", [3, 4, 7, 8])
    @pytest.mark.parametrize("window", [0.3, 0.9, 10.0])
    def test_batched_fit_matches_the_loop_on_short_loops(self, m, window):
        # windows of 2w+1 offsets reach past half the loop here; each
        # vertex still enters its window once, as in the loop
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        u = circle_field(grid, (0.5, 0.5), 0.25)
        grads = gradient(u, grid.spacing)
        theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False) + 0.1 * np.arange(m)
        radius = 0.25 * (1.0 + 0.1 * np.cos(3.0 * theta))
        pts = 0.5 + radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
        ring = Contour(points=pts, closed=True)
        kappa = curvature(ring, grid, grads, window=window)
        want = _loop_curvature(ring, grid, grads, window)
        assert np.array_equal(kappa == 0.0, want == 0.0)
        hit = want != 0.0
        assert np.max(np.abs(kappa[hit] / want[hit] - 1.0), initial=0.0) <= 1e-10

    def test_collinear_windows_match_the_loop(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        x, y = grid.mesh()
        u = np.minimum(np.minimum(x - 0.2, 0.8 - x), np.minimum(y - 0.3, 0.7 - y))
        grads = gradient(u, grid.spacing)
        (c,) = extract_contours(u, grid)
        kappa = curvature(c, grid, grads, window=0.1)
        want = _loop_curvature(c, grid, grads, 0.1)
        assert np.array_equal(kappa == 0.0, want == 0.0)
        hit = want != 0.0
        assert np.max(np.abs(kappa[hit] / want[hit] - 1.0)) <= 1e-10

    def test_open_contour_rejected(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        _, y = grid.mesh()
        u = y - 0.3
        (c,) = extract_contours(u, grid)
        assert not c.closed
        with pytest.raises(ValueError, match="closed loops"):
            curvature(c, grid, gradient(u, grid.spacing), window=0.2)


class TestCurvatureBalance:
    def test_nan_entry_gives_nan(self):
        # a NaN residual reaches the sup, so a gate comparing it fails
        kappa = np.array([1.0, np.nan, 2.0])
        force = np.array([0.5, 0.0, 2.0 - 0.5])
        sup = curvature_balance(kappa, force, sigma=1.0)
        assert isinstance(sup, float)
        assert np.isnan(sup)
        assert not sup <= 1.0

    def test_closed_square(self):
        # one value per corner of a closed loop; the sup takes |residual|
        kappa = np.array([1.0, 1.0, 1.0, -1.0])
        assert curvature_balance(kappa, np.zeros(4), sigma=1.0) == 1.0
        force = np.array([0.0, 0.0, 0.0, 1.0])
        assert curvature_balance(kappa, force, sigma=2.0) == 3.0
