"""Tests for wells, transition profiles, corrections, and bulk roots.

Reference values were frozen from independent high-precision computations
(50-digit arithmetic; the correction via variation of parameters with
closed-form homogeneous solutions and adaptive quadrature) before the
module was written.
"""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtlab
from gtlab import potential
from gtlab.potential import (
    DoubleWell,
    ProfileTable,
    bulk_roots,
    closed_form_profile,
    far_field_values,
    first_order_correction,
    optimal_profile,
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
MERGE_EPS = 0.43301270189221932  # sqrt(3)/4 for unit force
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

    @given(st.floats(-5.0, 5.0))
    def test_transition_odd(self, r):
        well = DoubleWell()
        assert well.transition(-r) == pytest.approx(-well.transition(r), abs=1e-15)

    def test_derivative_consistency(self):
        well = DoubleWell()
        r = np.linspace(-2, 2, 41)
        h = 1e-6
        numeric = (well.value(r + h) - well.value(r - h)) / (2 * h)
        assert np.allclose(numeric, well.derivative(r), atol=1e-7)


    def test_the_well_is_a_constant(self):
        # the methods are static, and no function of the package takes a
        # well except the two whose signatures the benchmark's setup calls
        assert DoubleWell.derivative(2.0) == DoubleWell().derivative(2.0) == 6.0
        takers = set()
        for path in sorted(Path(gtlab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    names = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                    if any(arg is not None and arg.arg == "well" for arg in names):
                        takers.add(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
        assert takers == {"potential.optimal_profile", "potential.first_order_correction"}
        assert "well" not in {f.name for f in dataclasses.fields(ProfileTable)}


class TestSurfaceTension:
    def test_quadrature_matches_closed_form(self):
        assert abs(potential.SIGMA - SIGMA) <= 1e-12

    def test_closed_form_bits(self, well):
        # sqrt(W/2) is a polynomial on [-1, 1], so sigma is its exact
        # integral and every profile table carries those bits
        assert potential.SIGMA == SIGMA
        assert optimal_profile(well, half_width=8.0, spacing=2e-3).sigma == SIGMA


class TestOptimalProfile:
    def test_interior_residual(self, profile_table):
        assert profile_table.interior_residual() <= 1e-8

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

    def test_stall_is_reported(self):
        # a Jacobian of the wrong sign and size leaves the residual above
        # the tolerance, and the Newton loop says where it stopped
        class WrongCurvature(DoubleWell):
            def second_derivative(self, r):
                return -10.0 * super().second_derivative(r)

        with pytest.raises(RuntimeError, match="^profile Newton stalled at residual"):
            optimal_profile(WrongCurvature(), half_width=8.0, spacing=2e-3)


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

    def test_matches_continuum_closed_form(self, profile_table):
        # phi1 = (sigma - phi0') / W''(1) with phi0' = sech^2(r / sqrt2) / sqrt2
        table = profile_table
        x = table.positions / SQRT2
        exact = (table.sigma - (1.0 / SQRT2) / np.cosh(x) ** 2) / 2.0
        assert np.max(np.abs(table.phi1 - exact)) <= 2e-8

    def test_phi1_ignores_the_sigma_field(self, profile_table):
        # phi1_at takes sigma from SIGMA: a table whose sigma is replaced
        # (the sigma mutation of test_mutations) keeps its phi1 bit for bit,
        # so the wrong sigma reaches the coefficient 2 / (3 sigma) alone
        points = np.random.default_rng(2).uniform(-25.0, 25.0, 10**4)
        wrong = dataclasses.replace(profile_table, sigma=2 * profile_table.sigma)
        assert wrong.phi1_at(points).tobytes() == profile_table.phi1_at(points).tobytes()

    def test_phi1_query_needs_no_correction(self, well):
        # phi1 is a closed form, so a table without phi1 nodes reads it
        table = optimal_profile(well, half_width=8.0, spacing=2e-3)
        assert table.phi1 is None
        assert table.phi1_at(0.0) == pytest.approx(PHI1_AT_ZERO, abs=1e-15)



class TestClosedFormProfile:
    def test_same_bits_as_the_newton_table(self, profile_table):
        # the node-less table clamps at the Newton table's window, so every
        # seed, field and plateau reads the same bits from either
        nodes = profile_table
        bare = closed_form_profile()
        assert bare.half_width == nodes.half_width == 20.0
        assert bare.sigma == nodes.sigma
        assert bare.positions is None and bare.phi0 is None and bare.phi1 is None
        points = np.random.default_rng(4).uniform(-25.0, 25.0, 10**4)
        points = np.concatenate([points, [-20.0, 20.0, np.nan]])
        for weights in [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0123)]:
            want = nodes._eval(*weights, points)
            assert bare._eval(*weights, points).tobytes() == want.tobytes()
        assert far_field_values(bare, 0.01, 0.09, 1.0) == far_field_values(
            nodes, 0.01, 0.09, 1.0
        )

    @pytest.mark.parametrize("use", ["first_order_correction", "interior_residual", "save"])
    def test_node_reads_raise_a_plain_error(self, well, tmp_path, use):
        bare = closed_form_profile()
        path = tmp_path / "bare.npz"
        calls = {
            "first_order_correction": lambda: first_order_correction(bare, well),
            "interior_residual": lambda: bare.interior_residual(),
            "save": lambda: bare.save(path),
        }
        with pytest.raises(ValueError, match=f"^{use} needs the Newton nodes"):
            calls[use]()
        assert not path.exists()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestProfileTableSpline:
    """Evaluation at arbitrary points: the closed form, one tanh per point,
    with the limits outside the window."""

    def test_evaluation_equals_closed_form(self, well):
        table = first_order_correction(optimal_profile(well, half_width=8.0, spacing=2e-3), well)
        w = table.half_width
        points = np.concatenate(
            [
                [w, -w, 0.0, -0.0],
                np.nextafter([w, -w], 0.0),
                np.random.default_rng(0).uniform(-2.0 * w, 2.0 * w, 10**5),
            ]
        )
        inside = np.abs(points) <= table.half_width
        phi0 = np.where(inside, well.transition(points), np.sign(points))
        assert np.array_equal(_bits(table.phi0_at(points)), _bits(phi0))
        prime = (1.0 - phi0 * phi0) / SQRT2
        phi1 = (potential.SIGMA - prime) / well.second_derivative(1.0)
        assert np.array_equal(_bits(table.phi1_at(points)), _bits(phi1))
        # one evaluation gives phi0 + c * phi1 with the bits of the two
        both = table._eval(1.0, 0.3, points)
        assert np.array_equal(_bits(both), _bits(phi0 + 0.3 * phi1))
        # elementwise: mirrored points give mirrored values bit for bit
        assert np.array_equal(_bits(table.phi0_at(-points)), _bits(-phi0))
        assert np.array_equal(_bits(table.phi1_at(-points)), _bits(phi1))

    def test_window_ends_on_last_knot(self, well):
        # 12 * 0.3 and 24 * 0.03 round below 3.6 and 7.2; the window ends on
        # the last knot, and the limits take over right after it
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
            want = well.transition(points[~beyond])
            assert np.array_equal(_bits(got[~beyond]), _bits(want))
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

    def test_blocked_evaluation_memory(self, profile_table):
        # the evaluation works in place in its output: phi0 needs no float
        # scratch array (its window masks are bytes), and phi0 + c * phi1
        # needs one
        points = np.random.default_rng(1).uniform(-25.0, 25.0, 10**6)
        for phi1_weight, bound in ((0.0, 1.5), (0.3, 2.5)):
            tracemalloc.start()
            try:
                values = profile_table._eval(1.0, phi1_weight, points)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * values.nbytes


class TestBulkRoots:
    def test_frozen_values(self):
        minus, plus = bulk_roots(0.01, FORCING)
        assert plus == pytest.approx(LAM_PLUS_001, abs=1e-13)
        assert minus == pytest.approx(LAM_MINUS_001, abs=1e-13)

    def test_roots_solve_equation(self, well):
        for eps, force in [(0.01, 1.0), (0.05, 2.0), (0.2, -1.3)]:
            minus, plus = bulk_roots(eps, FORCING * force)
            target = eps * FORCING * force
            assert well.derivative(plus) == pytest.approx(target, abs=1e-14)
            assert well.derivative(minus) == pytest.approx(target, abs=1e-14)

    @given(st.floats(1e-3, 0.3), st.floats(0.1, 1.2))
    @settings(max_examples=50)
    def test_odd_symmetry_exact(self, eps, force):
        well = DoubleWell()
        minus, plus = bulk_roots(eps, FORCING * force)
        minus_r, plus_r = bulk_roots(eps, FORCING * -force)
        assert plus_r == -minus and minus_r == -plus

    def test_ordering(self):
        minus, plus = bulk_roots(0.05, FORCING)
        assert plus > 1.0 and -1.0 < minus < -0.95

    def test_merge_threshold(self, well):
        with pytest.raises(ValueError):
            bulk_roots(MERGE_EPS + 1e-6, FORCING)
        # still resolvable, at |c| = 0.384, where both roots are past 0.382
        eps = MERGE_EPS - 1e-3
        minus, plus = bulk_roots(eps, FORCING)
        assert well.derivative(minus) == pytest.approx(eps * FORCING, abs=1e-12)
        assert well.derivative(plus) == pytest.approx(eps * FORCING, abs=1e-12)
        assert minus < -1.0 / np.sqrt(3.0) and plus > 1.0

    def test_roots_solve_equation_across_the_branch(self, well):
        # W'(r) = c on both well branches for every c short of the merge at
        # |c| = 2 / (3 sqrt 3), including |c| > (3 - sqrt 5) / 2 = 0.382
        limit = 2.0 / (3.0 * np.sqrt(3.0))
        for c in np.linspace(-limit, limit, 402)[1:-1]:
            minus, plus = bulk_roots(1.0, float(c))
            assert type(minus) is float and type(plus) is float
            assert abs(float(well.derivative(plus)) - c) <= 1e-12
            assert abs(float(well.derivative(minus)) - c) <= 1e-12
            # a positive forcing lifts both plateaus, a negative one lowers them
            if c > 0.0:
                assert plus > 1.0 > -minus
            else:
                assert plus < 1.0 < -minus

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            bulk_roots(-0.01, FORCING)


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
