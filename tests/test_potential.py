"""Tests for wells, transition profiles, corrections, and bulk roots.

Reference values were frozen from independent high-precision computations
(50-digit arithmetic; the correction via variation of parameters with
closed-form homogeneous solutions and adaptive quadrature) before the
module was written.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from gtlab import potential
from gtlab.potential import (
    DoubleWell,
    bulk_roots,
    far_field_values,
    first_order_correction,
    optimal_profile,
    surface_tension,
)

SQRT2 = float(np.sqrt(2.0))

SIGMA = SQRT2 / 3.0
PHI1_TAIL = SQRT2 / 6.0
PHI1_AT_ZERO = -0.11785113019775792  # = -1/(6 sqrt 2)
PHI1_AT_FIVE = 0.2345031701663065
PHI1_AT_LOG100 = 0.2356991439550544  # at r = 2 ln(100)

LAM_PLUS_001 = 1.00441516094144365
LAM_MINUS_001 = -0.995525569554061849
BETA_PLUS_001 = 1.00332888193813046
BETA_MINUS_001 = -0.996662303417711131
MERGE_EPS = 0.43301270189221932  # sqrt(3)/4 for unit scale and unit force
# The bulk roots are frozen at the forcing of the comparison argument,
# (8/9) * force with unit force.
FORCING = 8.0 / 9.0


class TestDoubleWell:
    def test_wells_and_barrier(self):
        well = DoubleWell()
        assert well.value(1.0) == 0.0
        assert well.value(-1.0) == 0.0
        assert well.derivative(1.0) == 0.0
        assert well.derivative(-1.0) == 0.0
        assert well.value(0.0) == pytest.approx(0.25)
        assert well.second_derivative(1.0) == pytest.approx(2.0)

    @given(st.floats(0.25, 4.0), st.floats(-3.0, 3.0))
    def test_scaling(self, scale, r):
        base = DoubleWell()
        scaled = DoubleWell(scale=scale)
        assert scaled.value(r) == pytest.approx(scale**2 * base.value(r), rel=1e-12)
        assert scaled.second_derivative(1.0) == pytest.approx(2 * scale**2, rel=1e-12)

    @given(st.floats(-5.0, 5.0))
    def test_transition_odd(self, r):
        well = DoubleWell(scale=1.5)
        assert well.transition(-r) == pytest.approx(-well.transition(r), abs=1e-15)

    def test_derivative_consistency(self):
        well = DoubleWell(scale=0.7)
        r = np.linspace(-2, 2, 41)
        h = 1e-6
        numeric = (well.value(r + h) - well.value(r - h)) / (2 * h)
        assert np.allclose(numeric, well.derivative(r), atol=1e-7)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            DoubleWell(scale=0.0)
        with pytest.raises(ValueError):
            DoubleWell(scale=-1.0)


class TestSurfaceTension:
    def test_quadrature_matches_closed_form(self, well):
        assert abs(surface_tension(well) - SIGMA) <= 1e-12

    @given(st.floats(0.5, 2.5))
    @settings(max_examples=20)
    def test_scales_linearly(self, scale):
        value = surface_tension(DoubleWell(scale=scale))
        assert value == pytest.approx(scale * SIGMA, rel=1e-9)

    def test_closed_form_bits(self):
        # sqrt(W/2) is a polynomial on [-1, 1], so sigma is its exact
        # integral and every profile table carries those bits
        for s in (0.5, 1.0, 1.7):
            sigma = s * SQRT2 / 3.0
            assert surface_tension(DoubleWell(s)) == sigma
            assert optimal_profile(DoubleWell(s), half_width=8.0, spacing=2e-3).sigma == sigma


class TestOptimalProfile:
    def test_interior_residual(self, profile_table, well):
        assert profile_table.interior_residual(well) <= 1e-8

    def test_matches_closed_form(self, profile_table):
        exact = np.tanh(profile_table.positions / SQRT2)
        assert np.max(np.abs(profile_table.phi0 - exact)) <= 1e-7

    def test_odd_symmetry_exact(self, profile_table):
        assert np.max(np.abs(profile_table.phi0 + profile_table.phi0[::-1])) == 0.0

    def test_equipartition(self, profile_table, well):
        gap = profile_table.phi0_prime**2 - 2.0 * well.value(profile_table.phi0)
        assert np.max(np.abs(gap)) <= 1e-7

    def test_monotone(self, profile_table):
        assert np.all(np.diff(profile_table.phi0) > 0.0)

    def test_scaled_well_profile(self):
        well = DoubleWell(scale=1.5)
        table = optimal_profile(well, half_width=8.0, spacing=2e-3)
        exact = np.tanh(1.5 * table.positions / SQRT2)
        assert np.max(np.abs(table.phi0 - exact)) <= 1e-5
        assert table.sigma == pytest.approx(1.5 * SIGMA, rel=1e-10)

    def test_spline_and_tails(self, profile_table):
        assert abs(profile_table.phi0_at(0.0)) <= 1e-15
        assert profile_table.phi0_at(25.0) == 1.0
        assert profile_table.phi0_at(-25.0) == -1.0
        mid = profile_table.phi0_at(1.2345)
        assert mid == pytest.approx(np.tanh(1.2345 / SQRT2), abs=1e-7)

    def test_input_validation(self, well):
        with pytest.raises(ValueError):
            optimal_profile(well, half_width=-1.0)
        with pytest.raises(ValueError):
            optimal_profile(well, half_width=20.0, spacing=3e-4)  # not a divisor
        with pytest.raises(ValueError):
            optimal_profile(well, half_width=0.001, spacing=1e-3)


class TestFirstOrderCorrection:
    def test_fredholm_ratio(self, profile_table):
        # raw pairing is 4*sigma against a kernel pairing of 2*sigma
        assert profile_table.fredholm_ratio == pytest.approx(2.0, abs=1e-6)

    def test_tail_values(self, profile_table):
        assert profile_table.phi1_tail_plus == pytest.approx(PHI1_TAIL, abs=1e-12)
        assert profile_table.phi1_tail_minus == pytest.approx(PHI1_TAIL, abs=1e-12)
        assert profile_table.phi1[0] == pytest.approx(PHI1_TAIL, abs=1e-6)
        assert profile_table.phi1[-1] == pytest.approx(PHI1_TAIL, abs=1e-6)

    def test_frozen_point_values(self, profile_table):
        assert profile_table.phi1_at(0.0) == pytest.approx(PHI1_AT_ZERO, abs=1e-8)
        assert profile_table.phi1_at(5.0) == pytest.approx(PHI1_AT_FIVE, abs=1e-8)
        arg = 2.0 * np.log(100.0)
        assert profile_table.phi1_at(arg) == pytest.approx(PHI1_AT_LOG100, abs=1e-8)

    def test_even_symmetry_exact(self, profile_table):
        assert np.max(np.abs(profile_table.phi1 - profile_table.phi1[::-1])) == 0.0

    def test_kernel_orthogonality(self, profile_table):
        n = profile_table.positions.size
        wt = np.full(n, profile_table.spacing)
        wt[0] = wt[-1] = profile_table.spacing / 2.0
        inner = np.sum(wt * profile_table.phi1 * profile_table.phi0_prime)
        assert abs(inner) <= 1e-12

    def test_bounded(self, profile_table):
        assert np.max(np.abs(profile_table.phi1)) <= 0.3

    def test_equation_residual_over_whole_window(self, profile_table, well):
        h = profile_table.spacing
        d = np.diff(profile_table.phi1)
        lap = (d[1:] - d[:-1]) / h**2
        res = (
            -lap
            + well.second_derivative(profile_table.phi0[1:-1])
            * profile_table.phi1[1:-1]
            - (profile_table.sigma - profile_table.phi0_prime[1:-1])
        )
        assert np.max(np.abs(res)) <= 1e-5

    @pytest.mark.parametrize("scale", [1.0, 1.7])
    def test_matches_continuum_closed_form(self, scale):
        # phi1 = (sigma - phi0') / W''(1) with phi0' = (s / sqrt2) sech^2(s r / sqrt2)
        well = DoubleWell(scale)
        table = first_order_correction(optimal_profile(well), well)
        x = scale * table.positions / SQRT2
        exact = (table.sigma - (scale / SQRT2) / np.cosh(x) ** 2) / (2.0 * scale**2)
        assert np.max(np.abs(table.phi1 - exact)) <= 2e-8

    def test_phi1_query_requires_correction(self, well):
        table = optimal_profile(well, half_width=8.0, spacing=2e-3)
        with pytest.raises(ValueError):
            table.phi1_at(0.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _column_stack_coefficients(x, y):
    """The spline build as it was before its columns were written in place:
    the same slope solve, then np.column_stack of the four columns."""
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0] = dx[1]
    ab[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.column_stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class TestProfileTableSpline:
    """The table's in-house spline is scipy's CubicSpline, bit for bit."""

    @pytest.mark.parametrize("key", ["phi0", "phi1"])
    def test_coefficients_equal_cubic_spline(self, profile_table, key):
        values = getattr(profile_table, key)
        spline = CubicSpline(profile_table.positions, values, extrapolate=False)
        coefficients = profile_table._spline(key, values)
        assert coefficients.shape == (values.size - 1, 4)
        assert np.array_equal(_bits(coefficients), _bits(spline.c.T))

    @pytest.mark.parametrize("key", ["phi0", "phi1"])
    def test_evaluation_equals_cubic_spline(self, profile_table, key):
        table = profile_table
        values = getattr(table, key)
        lo, hi = (-1.0, 1.0) if key == "phi0" else (table.phi1_tail_minus, table.phi1_tail_plus)
        knots = table.positions
        points = np.concatenate(
            [
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                [table.half_width, -table.half_width, 0.0, -0.0],
                np.random.default_rng(0).uniform(-table.half_width, table.half_width, 10**6),
            ]
        )
        got = getattr(table, f"{key}_at")(points)
        # the table's rule: the spline inside the window, the limits outside
        inside = np.abs(points) <= table.half_width
        want = np.where(points < 0.0, lo, hi)
        want[inside] = CubicSpline(knots, values, extrapolate=False)(points[inside])
        assert np.array_equal(_bits(got), _bits(want))

    def test_window_ends_on_last_knot(self, well):
        # 12 * 0.3 and 24 * 0.03 round below 3.6 and 7.2; the window ends on
        # the last knot, so no point near its edges falls between the knots
        # and the limits
        for half_width, spacing in ((3.6, 0.3), (7.2, 0.03)):
            table = optimal_profile(well, half_width=half_width, spacing=spacing)
            edge = half_width + 0.1
            points = np.concatenate(
                [np.linspace(-edge, edge, 2001), [-half_width, half_width]]
            )
            got = table.phi0_at(points)
            assert np.isfinite(got).all()
            assert table.half_width == table.positions[-1] == -table.positions[0]
            beyond = np.abs(points) > table.half_width
            assert np.array_equal(got[beyond], np.sign(points[beyond]))
            want = CubicSpline(table.positions, table.phi0, extrapolate=False)
            assert np.array_equal(_bits(got[~beyond]), _bits(want(points[~beyond])))
        # the wider table has room for the correction
        first_order_correction(table, well)
        got = table.phi1_at(points)
        assert np.isfinite(got).all()
        tails = np.where(points < 0.0, table.phi1_tail_minus, table.phi1_tail_plus)
        assert np.array_equal(got[beyond], tails[beyond])

    def test_nan_gives_nan(self, profile_table):
        values = profile_table.phi0_at(np.array([np.nan, 1.0, np.nan]))
        assert np.isnan(values[[0, 2]]).all()
        assert values[1] == profile_table.phi0_at(1.0)
        assert np.isnan(profile_table.phi0_at(np.nan))
        assert np.isnan(profile_table.phi1_at(np.array([np.nan]))).all()
        assert np.isnan(profile_table.phi1_at(np.nan))

    def test_keeps_input_shape(self, profile_table):
        r = np.array([[-30.0, -0.5], [0.5, 30.0]])
        values = profile_table.phi0_at(r)
        assert values.shape == (2, 2)
        assert values[0, 0] == -1.0 and values[1, 1] == 1.0
        assert values[0, 1] == profile_table.phi0_at(-0.5)
        assert isinstance(profile_table.phi0_at(0.5), float)

    def test_coefficients_written_in_place(self, profile_table):
        # the columns of the old np.column_stack build, bit for bit, on the
        # table's knots and on non-uniform ones
        knots = np.sort(np.random.default_rng(5).uniform(-3.0, 4.0, 777))
        data = [
            (profile_table.positions, profile_table.phi0),
            (profile_table.positions, profile_table.phi1),
            (knots, np.random.default_rng(6).standard_normal(knots.size)),
        ]
        for x, y in data:
            got = potential._spline_coefficients(x, y)
            assert np.array_equal(_bits(got), _bits(_column_stack_coefficients(x, y)))
        assert np.array_equal(_bits(got), _bits(CubicSpline(x, y).c.T))

    def test_coefficients_memory(self, profile_table):
        # one (n - 1, 4) output and no band matrix beside it: at most 9
        # knot-sized arrays at a time (the column_stack build held 13)
        x, y = profile_table.positions, profile_table.phi0
        tracemalloc.start()
        try:
            potential._spline_coefficients(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * x.nbytes

    def test_blocked_evaluation_memory(self, well):
        # the evaluation works in fixed blocks, so its scratch stays a small
        # fraction of the output (an unblocked evaluator peaks above 3x)
        table = optimal_profile(well, half_width=8.0, spacing=2e-3)
        points = np.random.default_rng(1).uniform(-8.0, 8.0, 10**6)
        table.phi0_at(0.5)  # build the coefficients before measuring
        tracemalloc.start()
        try:
            values = table.phi0_at(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * values.nbytes


class TestBulkRoots:
    def test_frozen_values(self, well):
        minus, plus = bulk_roots(well, 0.01, FORCING)
        assert plus == pytest.approx(LAM_PLUS_001, abs=1e-13)
        assert minus == pytest.approx(LAM_MINUS_001, abs=1e-13)

    def test_roots_solve_equation(self, well):
        for eps, force in [(0.01, 1.0), (0.05, 2.0), (0.2, -1.3)]:
            minus, plus = bulk_roots(well, eps, FORCING * force)
            target = eps * FORCING * force
            assert well.derivative(plus) == pytest.approx(target, abs=1e-14)
            assert well.derivative(minus) == pytest.approx(target, abs=1e-14)

    @given(st.floats(1e-3, 0.3), st.floats(0.1, 1.2))
    @settings(max_examples=50)
    def test_odd_symmetry_exact(self, eps, force):
        well = DoubleWell()
        minus, plus = bulk_roots(well, eps, FORCING * force)
        minus_r, plus_r = bulk_roots(well, eps, FORCING * -force)
        assert plus_r == -minus and minus_r == -plus

    def test_ordering(self, well):
        minus, plus = bulk_roots(well, 0.05, FORCING)
        assert plus > 1.0 and -1.0 < minus < -0.95

    def test_merge_threshold(self, well):
        with pytest.raises(ValueError):
            bulk_roots(well, MERGE_EPS + 1e-6, FORCING)
        bulk_roots(well, MERGE_EPS - 1e-3, FORCING)  # still resolvable

    def test_scale_invariance(self):
        # W' scales by scale^2, so eps/scale^2 is the effective forcing
        a = bulk_roots(DoubleWell(scale=2.0), 0.08, FORCING)
        b = bulk_roots(DoubleWell(scale=1.0), 0.02, FORCING)
        assert a[0] == pytest.approx(b[0], abs=1e-14)
        assert a[1] == pytest.approx(b[1], abs=1e-14)

    def test_eps_validation(self, well):
        with pytest.raises(ValueError):
            bulk_roots(well, -0.01, FORCING)


class TestFarFieldValues:
    def test_frozen_values(self, profile_table):
        eps = 0.01
        delta = 2.0 * eps * np.log(1.0 / eps)
        minus, plus = far_field_values(profile_table, eps, delta, 1.0)
        assert plus == pytest.approx(BETA_PLUS_001, abs=5e-8)
        assert minus == pytest.approx(BETA_MINUS_001, abs=5e-8)

    def test_composition_identity(self, profile_table):
        eps, delta, force = 0.02, 0.1, 0.7
        minus, plus = far_field_values(profile_table, eps, delta, force)
        coeff = eps * (2.0 / (3.0 * profile_table.sigma)) * force
        arg = delta / eps
        assert plus == pytest.approx(
            profile_table.phi0_at(arg) + coeff * profile_table.phi1_at(arg), abs=1e-15
        )

    def test_validation(self, profile_table):
        with pytest.raises(ValueError):
            far_field_values(profile_table, -0.01, 0.1, 1.0)
        with pytest.raises(ValueError):
            far_field_values(profile_table, 0.01, -0.1, 1.0)


class TestSerialization:
    def test_roundtrip_bitwise(self, profile_table, tmp_path):
        path = tmp_path / "profile.npz"
        profile_table.save(path)
        with np.load(path) as blob:
            assert sorted(blob) == [
                "fredholm_ratio",
                "half_width",
                "phi0",
                "phi1",
                "phi1_tail_minus",
                "phi1_tail_plus",
                "sigma",
                "spacing",
            ]
            assert blob["phi0"].tobytes() == profile_table.phi0.tobytes()
            assert blob["phi1"].tobytes() == profile_table.phi1.tobytes()
            for name in ("half_width", "spacing", "sigma", "fredholm_ratio"):
                assert float(blob[name]) == getattr(profile_table, name)
            assert float(blob["phi1_tail_minus"]) == profile_table.phi1_tail_minus
            assert float(blob["phi1_tail_plus"]) == profile_table.phi1_tail_plus

    def test_roundtrip_without_phi1(self, well, tmp_path):
        table = optimal_profile(well, half_width=8.0, spacing=2e-3)
        path = tmp_path / "bare.npz"
        table.save(path)
        with np.load(path) as blob:
            assert "phi1" not in blob
            assert blob["phi0"].tobytes() == table.phi0.tobytes()
