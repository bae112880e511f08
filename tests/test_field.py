"""Tests for grids, stencils, quadrature, sampling, and the Poisson solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.fft import dctn, idctn

from gtlab.field import (
    Grid,
    ScalarField,
    gradient,
    integrate,
    laplacian,
    poisson_neumann,
    sample,
    squared_distance,
)
from gtlab.solve import _SpectralInverse

finite = st.floats(-100.0, 100.0, allow_nan=False)


def values_1d(min_size=4, max_size=40):
    return st.integers(min_size, max_size).flatmap(
        lambda n: arrays(np.float64, (n,), elements=finite)
    )


class TestGrid:
    def test_interval_centers(self):
        grid = Grid.box((-1.0,), (1.0,), (4,))
        assert grid.spacing == pytest.approx(0.5)
        assert np.allclose(grid.axis(0), [-0.75, -0.25, 0.25, 0.75])
        assert grid.upper() == (1.0,)
        assert grid.cell_volume == pytest.approx(0.5)

    def test_rectangle_centers(self):
        grid = Grid.box((0.0, -1.0), (2.0, 1.0), (4, 4))
        assert grid.ndim == 2
        assert grid.spacing == pytest.approx(0.5)
        assert grid.cell_volume == pytest.approx(0.25)
        x, y = grid.mesh()
        assert x.shape == (4, 4)
        assert x[1, 0] == pytest.approx(0.75)
        assert y[0, 1] == pytest.approx(-0.25)
        # the spacing is axis 0's width over its cell count, bit for bit
        h = 0.02 / 24
        grid = Grid.box((-30 * h, -7 * h), (30 * h, 41 * h), (60, 48))
        assert grid.spacing == (30 * h - (-30 * h)) / 60

    def test_box_centers_3d(self):
        grid = Grid.box((0.0, -0.5, 1.0), (1.0, 0.5, 1.5), (8, 8, 4))
        assert grid.shape == (8, 8, 4)
        assert grid.spacing == 0.125
        assert grid.cell_volume == 0.125**3
        assert grid.upper() == (1.0, 0.5, 1.5)
        assert np.array_equal(grid.axis(2), 1.0 + (np.arange(4) + 0.5) * 0.125)

    def test_validation(self):
        with pytest.raises(ValueError, match="out of order"):
            Grid.box((1.0,), (0.0,), (8,))
        with pytest.raises(ValueError, match="out of order"):
            Grid.box((0.0, 0.0, 1.0), (1.0, 1.0, 0.5), (8, 8, 4))
        with pytest.raises(ValueError, match="square"):
            Grid.box((0.0, 0.0), (1.0, 2.0), (8, 8))
        with pytest.raises(ValueError, match="square"):
            Grid.box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 9))
        with pytest.raises(ValueError, match="dimensions disagree"):
            Grid.box((0.0, 0.0), (1.0, 1.0), (8,))
        with pytest.raises(ValueError):
            Grid((0.0,), 0.1, (1,))
        with pytest.raises(ValueError):
            Grid((0.0,), -0.1, (8,))


def padded_flux_laplacian(values, spacing):
    """Reference flux form: per axis, the face differences padded with zero
    wall fluxes, differenced again."""
    out = np.zeros_like(values)
    for axis in range(values.ndim):
        flux = np.diff(values, axis=axis)
        pad = [(0, 0)] * values.ndim
        pad[axis] = (1, 1)
        flux = np.pad(flux, pad)
        out += np.diff(flux, axis=axis)
    return out / spacing**2


class TestLaplacian:
    def test_eigenvector_1d(self):
        n, h, k = 17, 0.3, 5
        mode = np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
        lam = (4.0 / h**2) * np.sin(np.pi * k / (2 * n)) ** 2
        err = laplacian(mode, h) + lam * mode
        assert np.max(np.abs(err)) <= 1e-12 * lam

    def test_eigenvector_2d(self):
        n, h = 12, 0.25
        kx, ky = 3, 7
        cx = np.cos(np.pi * kx * (np.arange(n) + 0.5) / n)
        cy = np.cos(np.pi * ky * (np.arange(n) + 0.5) / n)
        mode = np.outer(cx, cy)
        lam = (4.0 / h**2) * (
            np.sin(np.pi * kx / (2 * n)) ** 2 + np.sin(np.pi * ky / (2 * n)) ** 2
        )
        err = laplacian(mode, h) + lam * mode
        assert np.max(np.abs(err)) <= 1e-12 * lam

    @given(values_1d())
    @settings(max_examples=60)
    def test_conservation(self, u):
        # zero-flux walls: the operator has zero column sums
        lap = laplacian(u, 0.37)
        assert abs(np.sum(lap)) <= 1e-9 * max(np.max(np.abs(u)), 1.0)

    @given(values_1d(4, 24))
    @settings(max_examples=40)
    def test_symmetry(self, u):
        n = u.size
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        h = 0.21
        lhs = np.dot(laplacian(u, h), v)
        rhs = np.dot(u, laplacian(v, h))
        scale = max(np.max(np.abs(u)) * np.max(np.abs(v)), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale / h**2

    @given(values_1d())
    @settings(max_examples=40)
    def test_mirror_bitwise(self, u):
        h = 0.5
        assert np.array_equal(laplacian(u[::-1], h), laplacian(u, h)[::-1])

    def test_mirror_bitwise_2d(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((13, 9))
        h = 0.125
        assert np.array_equal(laplacian(u[::-1, :], h), laplacian(u, h)[::-1, :])
        assert np.array_equal(laplacian(u[:, ::-1], h), laplacian(u, h)[:, ::-1])

    def test_signed_zeros_bitwise_padded_flux_form(self):
        # neighbouring 0.0 / -0.0 entries give -0.0 face fluxes
        u = np.array(
            [[0.0, -0.0, 0.0, 1.5], [-0.0, -0.0, 0.0, -0.0], [0.0, 2.0, -0.0, 0.0]]
        )
        for values in (u, u[0], -u):
            want = padded_flux_laplacian(values, 0.5)
            assert laplacian(values, 0.5).tobytes() == want.tobytes()

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=9),
            elements=finite,
        )
    )
    @settings(max_examples=60)
    def test_bitwise_padded_flux_form(self, u):
        # 1D, 2D and 3D boxes of any (non-square) shape
        h = 0.29
        assert laplacian(u, h).tobytes() == padded_flux_laplacian(u, h).tobytes()


class TestGradient:
    def test_linear_exact_everywhere(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (16, 16))
        x, y = grid.mesh()
        u = 2.0 + 3.0 * x - 5.0 * y
        gx, gy = gradient(u, grid.spacing)
        assert np.max(np.abs(gx - 3.0)) <= 1e-12
        assert np.max(np.abs(gy + 5.0)) <= 1e-12

    def test_quadratic_interior_exact_ends_first_order(self):
        grid = Grid.box((0.0,), (2.0,), (20,))
        x = grid.axis(0)
        h = grid.spacing
        (g,) = gradient(x**2, h)
        assert np.max(np.abs(g[1:-1] - 2.0 * x[1:-1])) <= 1e-12
        assert g[0] - 2.0 * x[0] == pytest.approx(h, abs=1e-12)
        assert g[-1] - 2.0 * x[-1] == pytest.approx(-h, abs=1e-12)

    @given(values_1d())
    @settings(max_examples=40)
    def test_mirror_bitwise(self, u):
        h = 0.25
        (g,) = gradient(u, h)
        (gm,) = gradient(u[::-1], h)
        assert np.array_equal(gm, -g[::-1])


class TestIntegrate:
    def test_midpoint_exact_for_linear(self):
        grid = Grid.box((0.0, 0.0), (2.0, 3.0), (10, 15))
        x, y = grid.mesh()
        got = integrate(1.0 + 2.0 * x + 3.0 * y, grid)
        # exact: 6 + 2*(2)*3 [x-moment 2] + 3*(4.5)*2 [y-moment 4.5]
        assert got == pytest.approx(6.0 + 2.0 * 2.0 * 3.0 + 3.0 * 4.5 * 2.0, abs=1e-12)

    def test_constant(self):
        grid = Grid.box((-1.0,), (3.0,), (13,))
        assert integrate(np.full(13, 2.5), grid) == pytest.approx(10.0, abs=1e-12)


class TestSquaredDistance:
    def test_axis_sum_bitwise(self):
        grid = Grid.box((0.0, 0.0), (1.0, 2.0), (8, 16))
        x, y = grid.mesh()
        got = squared_distance(grid, (0.3, 1.1), 0.25)
        assert np.array_equal(got, (x - 0.3) ** 2 + (y - 1.1) ** 2)
        line = Grid.box((0.0,), (1.0,), (8,))
        assert np.array_equal(
            squared_distance(line, 0.4, 0.1), (line.axis(0) - 0.4) ** 2
        )

    def test_validation(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        with pytest.raises(ValueError, match="radius must be positive"):
            squared_distance(grid, (0.5,), 0.0)
        with pytest.raises(ValueError, match="center dimension"):
            squared_distance(grid, (0.5, 0.5), 0.1)


class TestSample:
    def test_bilinear_reproduced(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (9, 9))
        x, y = grid.mesh()
        u = 2.0 + 3.0 * x + 5.0 * y + 7.0 * x * y
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.1, 0.9, size=(50, 2))
        got = sample(u, grid, pts)
        want = 2.0 + 3.0 * pts[:, 0] + 5.0 * pts[:, 1] + 7.0 * pts[:, 0] * pts[:, 1]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_cell_centers_exact(self):
        grid = Grid.box((-2.0,), (2.0,), (11,))
        u = np.sin(grid.axis(0))
        got = sample(u, grid, grid.axis(0))
        assert np.max(np.abs(got - u)) <= 1e-12

    def test_clamped_outside(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        u = np.arange(8.0)
        got = sample(u, grid, np.array([-5.0, 5.0]))
        assert got[0] == 0.0 and got[1] == 7.0

    def test_shape_validation(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(ValueError):
            sample(np.zeros((4, 4)), grid, np.zeros((5, 3)))


class TestPoissonNeumann:
    def test_inverts_discrete_operator(self):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (48, 48))
        x, y = grid.mesh()
        g = np.sin(3.0 * x) * np.cos(2.0 * y) + 0.2 * x
        g = g - g.mean()
        v = poisson_neumann(g, grid)
        res = -laplacian(v, grid.spacing) - g
        assert np.max(np.abs(res)) <= 1e-9
        assert abs(v.mean()) <= 1e-14

    def test_matches_continuum_solution_second_order(self):
        errs = {}
        for n in (32, 64):
            grid = Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))
            x, y = grid.mesh()
            exact = np.cos(np.pi * x) * np.cos(np.pi * y)
            g = 2.0 * np.pi**2 * exact
            g = g - g.mean()
            v = poisson_neumann(g, grid)
            errs[n] = float(np.max(np.abs(v - exact)))
        assert errs[64] <= 2e-3
        assert 3.3 <= errs[32] / errs[64] <= 4.7  # second-order convergence

    def test_eigenmode_exact(self):
        n, k = 24, 5
        grid = Grid.box((0.0,), (1.0,), (n,))
        h = grid.spacing
        mode = np.cos(np.pi * k * (np.arange(n) + 0.5) / n)
        lam = (4.0 / h**2) * np.sin(np.pi * k / (2 * n)) ** 2
        v = poisson_neumann(lam * mode, grid)
        assert np.max(np.abs(v - mode)) <= 1e-10

    def test_shape_mismatch_rejected(self):
        grid = Grid.box((0.0,), (1.0,), (16,))
        with pytest.raises(ValueError):
            poisson_neumann(np.zeros(17), grid)


class TestSpectralInverse:
    # the Newton preconditioner shares the cosine-basis symbol with
    # poisson_neumann; applied to cosine coefficients it must invert
    # -eps*lap + shift to rounding
    @pytest.mark.parametrize(
        "grid",
        [Grid.box((0.0,), (1.0,), (37,)), Grid.box((0.0, 0.0), (1.5, 1.0), (24, 16))],
        ids=["1d", "2d-non-square"],
    )
    def test_inverts_shifted_operator(self, grid):
        eps, shift = 0.03, 2.0 / 0.03
        rng = np.random.default_rng(5)
        f = rng.standard_normal(grid.shape)
        precond = _SpectralInverse(grid, eps, shift)
        coeffs = precond(dctn(f, type=2, norm="ortho").ravel())
        u = idctn(coeffs.reshape(grid.shape), type=2, norm="ortho")
        back = -eps * laplacian(u, grid.spacing) + shift * u
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestScalarField:
    def test_roundtrip_bitwise(self, tmp_path):
        grid = Grid.box((-1.0, 2.0), (1.0, 4.0), (8, 8))
        rng = np.random.default_rng(11)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "snap.npz"
        f.save(path)
        with np.load(path) as blob:
            assert blob["origin"].tobytes() == np.asarray(grid.origin).tobytes()
            assert float(blob["spacing"]) == grid.spacing
            assert blob["values"].tobytes() == f.values.tobytes()

    def test_shape_validation(self):
        grid = Grid.box((0.0,), (1.0,), (8,))
        with pytest.raises(ValueError):
            ScalarField(grid, np.zeros(9))
