"""Tests for cutoff schedules, curvature graphs, and comparison fields.

Numeric reference values were measured once from this code on the stated
grids and frozen; they are deterministic for a fixed profile table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlab.comparison import (
    _BLOCK,
    CutoffSchedule,
    DefectCertificate,
    GraphPatch,
    SubsolutionField,
    asymptotic_gap,
    build_subsolution,
    make_schedule,
    mean_curvature_operator,
    _polyline_distance,
    signed_distance,
    solve_cmc_graph,
    verify_subsolution,
)
from gtlab.field import Grid, ScalarField, laplacian

SQRT2 = float(np.sqrt(2.0))

# Closed-form defect of the flat force-free comparison field, sampled on
# r = linspace(0, 3 delta, 200001).  The signed maximum sits inside the
# taper; the absolute maximum is the (negative) plateau tail value.
FLAT_SIGNED_MAX = {
    0.02: 0.0009201064694426943,
    0.01: 0.0003098884859720421,
    0.005: 0.00011065321057649289,
}
FLAT_ABS_MAX = {
    0.02: 0.0031303292830621604,
    0.01: 0.0009110392445033601,
    0.005: 0.00033285042883759904,
}

# Grid defect of the same flat field, eps = 0.01, h = eps/128, top and
# bottom wall layers excluded.
FLAT_GRID_DEFECT_SUP = 0.0009110229277375526

# Constant-curvature bowl (force 1, curvature sqrt(2), base radius 0.6,
# box [-0.36, 0.36] x [-0.54, 0.72]) at eps = 0.04, h = eps/16.
BOWL_MAX_DEFECT = 0.71872078424895847

# Normalized gaps between bulk roots and plateau values at force 1,
# rows keyed by eps as (upper gap, lower gap).
GAP_ROWS = {
    0.01: (0.10862781711231673, 0.11367330298019951),
    0.005: (0.10976298043017252, 0.11247787570627388),
    0.0025: (0.11040750491551066, 0.11181911755357987),
}
# The same two gaps at eps = 0.01 from 50-digit root finding.
GAP_UPPER_EXACT = 0.108627900331319
GAP_LOWER_EXACT = 0.1136733863649282


def circle_height(radius, t):
    return radius - np.sqrt(radius * radius - t * t)


def bowl_arc(sigma, force=1.0, n_cells=4000):
    curvature = 2.0 * force / (3.0 * sigma)
    rho = 0.6
    cap = circle_height(1.0 / curvature, rho)
    return solve_cmc_graph(0.0, rho, (cap, cap), curvature, n_cells=n_cells)


class TestCutoffSchedule:
    def test_identity_core(self):
        s = make_schedule(0.02)
        r = np.linspace(-s.saturation / 3.0, s.saturation / 3.0, 2001)
        assert np.array_equal(s.value(r), r)
        assert np.all(s.slope(r) == 1.0)
        assert np.all(s.curve(r) == 0.0)

    def test_constant_tails_bitwise(self):
        s = make_schedule(0.02)
        delta = s.saturation
        r = np.linspace(1.33 * delta, 4.0 * delta, 501)
        for sign in (1.0, -1.0):
            vals = s.value(sign * r)
            assert np.unique(vals).size == 1
            assert vals[0] == sign * delta
            assert np.all(s.slope(sign * r) == 0.0)
            assert np.all(s.curve(sign * r) == 0.0)
        assert s.value(2.0 * delta) == delta
        assert s.value(-3.0 * delta) == -delta

    def test_slope_range_and_smooth_joints(self):
        s = make_schedule(0.02)
        r = np.linspace(-3.0 * s.saturation, 3.0 * s.saturation, 20001)
        h = r[1] - r[0]
        slope = s.slope(r)
        assert np.all((slope >= 0.0) & (slope <= 1.0))
        fd_value = (s.value(r[2:]) - s.value(r[:-2])) / (2.0 * h)
        assert np.max(np.abs(fd_value - slope[1:-1])) <= 1e-5
        fd_slope = (slope[2:] - slope[:-2]) / (2.0 * h)
        assert np.max(np.abs(fd_slope - s.curve(r[1:-1]))) <= 2e-4

    def test_curvature_budget_and_signs(self):
        s = make_schedule(0.02)
        delta = s.saturation
        r = np.linspace(-3.0 * delta, 3.0 * delta, 200001)
        curve = s.curve(r)
        peak = np.max(np.abs(curve)) * delta
        # the quintic blend tops out at 1.875 / span = 2.9296875 / saturation
        assert peak <= 2.9296875 + 1e-9
        assert peak >= 2.92
        assert np.all(curve[r >= 0.0] <= 0.0)
        assert np.all(curve[r <= 0.0] >= 0.0)

    def test_odd_symmetry(self):
        s = make_schedule(0.05)
        r = np.linspace(0.0, 3.0 * s.saturation, 5001)
        assert np.array_equal(s.value(-r), -s.value(r))
        assert np.array_equal(s.slope(-r), s.slope(r))
        assert np.array_equal(s.curve(-r), -s.curve(r))
        assert s.value(0.0) == 0.0

    def test_scalar_in_float_out(self):
        s = make_schedule(0.02)
        assert isinstance(s.value(0.01), float)
        assert isinstance(s.slope(0.01), float)
        assert isinstance(s.curve(0.01), float)

    def test_saturation_formula(self):
        eps = 0.02
        s = make_schedule(eps)
        assert s.eps == eps
        assert s.saturation == pytest.approx(2.0 * eps * np.log(1.0 / eps), rel=1e-15)

    def test_make_schedule_rejects_large_eps(self):
        for eps in (0.5, 1.0 / np.e, 0.0, -0.1):
            with pytest.raises(ValueError, match="1/e"):
                make_schedule(eps)

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="eps"):
            CutoffSchedule(eps=-1.0, saturation=0.1)
        with pytest.raises(ValueError, match="saturation"):
            CutoffSchedule(eps=0.01, saturation=0.0)
        with pytest.raises(ValueError, match="saturation"):
            CutoffSchedule(eps=0.01, saturation=np.inf)

    @given(st.floats(min_value=0.002, max_value=0.35))
    @settings(max_examples=30, deadline=None)
    def test_audit_passes_across_eps(self, eps):
        # make_schedule densely audits its own bounds and raises on any
        # violation, so a clean return is the property under test
        s = make_schedule(eps)
        assert s.saturation == pytest.approx(2.0 * eps * np.log(1.0 / eps))
        assert s.slope(0.0) == 1.0


class TestMeanCurvatureOperator:
    def test_zero_slope_gives_trace(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((3, 3))
        sym = 0.5 * (raw + raw.T)
        out = mean_curvature_operator(np.zeros(3), sym)
        assert out == pytest.approx(np.trace(sym), rel=1e-14)

    def test_unit_slope_spot_value(self):
        out = mean_curvature_operator(np.array([1.0, 0.0]), np.eye(2))
        assert out == pytest.approx(3.0 / (2.0 * SQRT2), rel=1e-14)
        assert out == pytest.approx(1.0606601717798212, rel=1e-14)

    def test_scalar_base_case(self):
        assert mean_curvature_operator(0.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        expected = 1.2 / (1.0 + 0.25) ** 1.5
        assert mean_curvature_operator(0.5, 1.2) == pytest.approx(expected, rel=1e-14)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(11)
        p = rng.standard_normal((5, 7, 2))
        raw = rng.standard_normal((5, 7, 2, 2))
        X = 0.5 * (raw + np.swapaxes(raw, -1, -2))
        out = mean_curvature_operator(p, X)
        assert out.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                single = mean_curvature_operator(p[i, j], X[i, j])
                assert out[i, j] == pytest.approx(single, rel=1e-13)

    def test_spherical_cap_is_constant(self):
        # graph of a spherical cap: the exact slope/Hessian give curvature
        # 2/R at every point, and the flux form div(p / sqrt(1 + |p|^2))
        # reduces to div((x, y)/R), which centered differences reproduce
        # exactly on a grid
        R = 2.0
        grid = Grid.rectangle((-0.5, -0.5), (0.5, 0.5), (64, 64))
        xs, ys = grid.mesh()
        s = np.sqrt(R * R - xs**2 - ys**2)
        p = np.stack([xs / s, ys / s], axis=-1)
        X = np.empty(p.shape + (2,))
        X[..., 0, 0] = 1.0 / s + xs**2 / s**3
        X[..., 1, 1] = 1.0 / s + ys**2 / s**3
        X[..., 0, 1] = X[..., 1, 0] = xs * ys / s**3
        out = mean_curvature_operator(p, X)
        assert np.max(np.abs(out - 2.0 / R)) <= 1e-12
        h = grid.spacing
        flux_x, flux_y = xs / R, ys / R
        div = np.zeros_like(xs)
        div[1:-1, :] += (flux_x[2:, :] - flux_x[:-2, :]) / (2.0 * h)
        div[:, 1:-1] += (flux_y[:, 2:] - flux_y[:, :-2]) / (2.0 * h)
        assert np.max(np.abs(div[1:-1, 1:-1] - 2.0 / R)) <= 1e-12

    def test_symmetry_required(self):
        with pytest.raises(ValueError, match="symmetric"):
            mean_curvature_operator(np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mean_curvature_operator(np.zeros(2), np.eye(3))

    @given(st.floats(min_value=-4.0, max_value=4.0))
    @settings(max_examples=40)
    def test_homogeneous_in_hessian(self, a):
        p = np.array([0.3, -0.7])
        X = np.array([[1.1, 0.4], [0.4, -0.6]])
        left = mean_curvature_operator(p, a * X)
        right = a * mean_curvature_operator(p, X)
        assert left == pytest.approx(right, abs=1e-12 * (1.0 + abs(a)))


class TestGraphPatch:
    def test_from_heights_quadratic(self):
        t = np.linspace(-0.5, 0.5, 101) + 0.2
        patch = GraphPatch.from_heights(0.2, 0.5, 0.3 + 0.1 * t + 3.0 * t * t)
        assert patch.spacing == pytest.approx(0.01, rel=1e-12)
        assert np.max(np.abs(patch.slope - (0.1 + 6.0 * t))) <= 1e-8
        assert np.max(np.abs(patch.second - 6.0)) <= 1e-7
        pts = patch.points()
        assert pts.shape == (101, 2)
        assert np.array_equal(pts[:, 0], patch.positions)
        assert np.array_equal(pts[:, 1], patch.heights)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 5"):
            GraphPatch.from_heights(0.0, 1.0, np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            GraphPatch.from_heights(0.0, 1.0, np.array([0.0, 1.0, np.nan, 1.0, 0.0]))
        with pytest.raises(ValueError, match="radius"):
            GraphPatch.from_heights(0.0, -1.0, np.zeros(9))
        good = np.linspace(-1.0, 1.0, 9)
        zeros = np.zeros(9)
        with pytest.raises(ValueError, match="increasing"):
            GraphPatch(0.0, 1.0, good[::-1], zeros, zeros, zeros)
        warped = np.sign(good) * np.abs(good) ** 1.5
        with pytest.raises(ValueError, match="uniform"):
            GraphPatch(0.0, 1.0, warped, zeros, zeros, zeros)
        with pytest.raises(ValueError, match="span the base"):
            GraphPatch(0.0, 1.0, good + 0.1, zeros, zeros, zeros)
        with pytest.raises(ValueError, match="flat array"):
            GraphPatch(0.0, 1.0, good, zeros[:5], zeros, zeros)


class TestSolveCmcGraph:
    def test_zero_curvature_is_affine(self):
        patch = solve_cmc_graph(0.0, 0.7, (0.1, 0.5), 0.0, n_cells=64)
        t = patch.positions
        affine = 0.3 + (0.4 / 1.4) * t
        assert np.max(np.abs(patch.heights - affine)) <= 1e-13
        assert patch.heights[0] == 0.1
        assert patch.heights[-1] == 0.5

    def test_circle_arcs(self):
        cases = [
            (0.5, 1.0, 2000, 3e-8),
            (SQRT2, 0.6, 2000, 1.2e-7),
            (SQRT2, 0.6, 4000, 3e-8),
        ]
        devs = []
        for c, rho, n, bound in cases:
            R = 1.0 / c
            patch = solve_cmc_graph(0.0, rho, (circle_height(R, rho),) * 2, c, n_cells=n)
            dev = np.max(np.abs(patch.heights - circle_height(R, patch.positions)))
            assert dev <= bound
            devs.append(dev)
        # halving the cell width quarters the deviation
        assert 3.8 <= devs[1] / devs[2] <= 4.2

    def test_prescribed_curvature_recovered(self):
        c = SQRT2
        patch = solve_cmc_graph(0.0, 0.6, (0.05, 0.05), c, n_cells=2000)
        p = patch.slope[1:-1, None]
        X = patch.second[1:-1, None, None]
        out = mean_curvature_operator(p, X)
        assert np.max(np.abs(out - c)) <= 2e-9

    def test_rejects_spanning_limit(self):
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.8, (0.0, 0.0), -1.5)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="radius"):
            solve_cmc_graph(0.0, 0.0, (0.0, 0.0), 0.5)
        with pytest.raises(ValueError, match="at least 8"):
            solve_cmc_graph(0.0, 1.0, (0.0, 0.0), 0.5, n_cells=7)


class TestSignedDistance:
    def test_flat_graph_is_vertical_offset(self):
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(101))
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(-0.45, 0.45, 300), rng.uniform(-0.3, 0.3, 300)]
        )
        assert np.array_equal(signed_distance(patch, pts), pts[:, 1])
        assert np.array_equal(_polyline_distance(patch, pts), pts[:, 1])

    def test_vertices_at_zero(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=500)
        d = signed_distance(patch, patch.points()[50:-50])
        assert np.max(np.abs(d)) <= 1e-12

    def test_circle_cross_check(self, profile_table):
        c = 2.0 / (3.0 * profile_table.sigma)
        R = 1.0 / c
        patch = bowl_arc(profile_table.sigma, n_cells=20000)
        rng = np.random.default_rng(7)
        ang = rng.uniform(np.pi / 3.0, 2.0 * np.pi / 3.0, 4000)
        rad = rng.uniform(0.55 * R, 1.6 * R, 4000)
        pts = np.column_stack([rad * np.cos(ang), R - rad * np.sin(ang)])
        pts = pts[np.abs(pts[:, 0]) <= 0.55]
        exact = R - np.hypot(pts[:, 0], pts[:, 1] - R)
        smooth = signed_distance(patch, pts)
        poly = _polyline_distance(patch, pts)
        assert np.max(np.abs(smooth - exact)) <= 2e-9
        assert np.max(np.abs(poly - exact)) <= 3e-9

    def test_smooth_within_chord_sag_of_polyline(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=2000)
        rng = np.random.default_rng(9)
        pts = np.column_stack(
            [rng.uniform(-0.5, 0.5, 2000), rng.uniform(-0.2, 0.6, 2000)]
        )
        gap = signed_distance(patch, pts) - _polyline_distance(patch, pts)
        # Hausdorff gap between the polyline and its cubic interpolant:
        # chord sag c (h sqrt(1 + slope^2))^2 / 8, slope up to 1.6 at the ends
        assert np.max(np.abs(gap)) <= 3e-7

    def test_fallback_takes_polyline_value(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=500)
        end = patch.heights[-1]
        R = 1.5 * profile_table.sigma
        # vertical feet past the ends of the base, above and below the end
        # height, whose nearest graph point is the end itself
        beyond = [
            [0.65, end + 0.1],
            [-0.7, end + 0.3],
            [0.7, end - 0.05],
            [-0.62, end - 0.01],
        ]
        # above the bowl past its focal distance R, where the squared
        # distance is concave at the vertical foot (gp <= 0)
        focal = [[0.0, 1.3 * R], [0.1, 1.5 * R], [-0.15, 2.0 * R]]
        pts = np.array(beyond + focal)
        d = signed_distance(patch, pts)
        assert np.array_equal(d, _polyline_distance(patch, pts))
        assert np.array_equal(np.sign(d), [1, 1, -1, -1, 1, 1, 1])

    def test_points_independent_of_block(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=500)
        rng = np.random.default_rng(11)
        n = _BLOCK + 1000
        pts = np.column_stack([rng.uniform(-0.55, 0.55, n), rng.uniform(-0.3, 1.2, n)])
        d = signed_distance(patch, pts)
        order = rng.permutation(n)
        assert np.array_equal(signed_distance(patch, pts[order]), d[order])
        for i in rng.choice(n, 200, replace=False):
            assert signed_distance(patch, pts[i]) == d[i]

    def test_default_study_grid_settles_everywhere(self, profile_table):
        # the grid of the default subsolution-check width (eps 0.02,
        # grid_k 24, base radius 0.6, 4001 graph samples) built as the
        # harness builds it, over exact samples of the study's circle: a
        # cell that fell back to the polyline would sit up to 4.5e-8 off the
        # circle distance, a spline foot sits 1.5e-14 off it
        eps, k, rho = 0.02, 24, 0.6
        R = 1.5 * profile_table.sigma
        patch = GraphPatch.from_heights(
            0.0, rho, circle_height(R, np.linspace(-rho, rho, 4001))
        )
        delta = make_schedule(eps).saturation
        h = eps / k
        half_cells = int(np.ceil(0.6 * rho / h))
        inside = np.abs(patch.positions) <= half_cells * h
        psi_max = float(np.max(patch.heights[inside]))
        m_lo = int(np.ceil(2.2 * delta / h))
        m_hi = int(np.ceil((psi_max + 2.2 * delta) / h))
        grid = Grid.rectangle(
            (-half_cells * h, -m_lo * h),
            (half_cells * h, m_hi * h),
            (2 * half_cells, m_lo + m_hi),
        )
        xs, ys = grid.mesh()
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        exact = R - np.hypot(pts[:, 0], pts[:, 1] - R)
        assert np.max(np.abs(signed_distance(patch, pts) - exact)) <= 2e-9

    def test_sign_rule(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=500)
        assert signed_distance(patch, np.array([0.0, 0.2])) > 0.0
        assert signed_distance(patch, np.array([0.0, -0.2])) < 0.0

    def test_scalar_and_validation(self, profile_table):
        patch = bowl_arc(profile_table.sigma, n_cells=500)
        out = signed_distance(patch, np.array([0.1, 0.2]))
        assert isinstance(out, float)
        with pytest.raises(ValueError, match="shape"):
            signed_distance(patch, np.zeros((4, 3)))


class TestBuildSubsolution:
    def test_flat_force_free_matches_profile(self, profile_table, well):
        eps = 0.02
        s = make_schedule(eps)
        h = eps / 16.0
        grid = Grid.rectangle((-4 * h, -0.36), (4 * h, 0.36), (8, 576))
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(2001))
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        expected = profile_table.phi0_at(s.value(grid.axis(1)) / eps)
        for col in sub.field.values:
            assert np.array_equal(col, expected)
        assert sub.plateau_plus == profile_table.phi0_at(s.saturation / eps)
        assert sub.plateau_minus == profile_table.phi0_at(-s.saturation / eps)

    def test_dimension_reduction_bitwise(self, profile_table, well):
        # every column of the 2D defect equals the 1D discrete defect of the
        # same profile: fluxes of an x-constant field cancel exactly, so the
        # planar construction loses nothing to the extra dimension
        eps = 0.01
        s = make_schedule(eps)
        h = eps / 32.0
        grid = Grid.rectangle((-4 * h, -0.2), (4 * h, 0.2), (8, 1280))
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(4001))
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        v1 = profile_table.phi0_at(s.value(grid.axis(1)) / eps)
        d1 = -eps * laplacian(v1, h) + well.derivative(v1) / eps
        assert np.max(np.abs(sub.defect.values - d1[None, :])) <= 1e-12

    def test_plateau_cells_bitwise_constant(self, profile_table, well):
        eps = 0.02
        s = make_schedule(eps)
        h = eps / 16.0
        grid = Grid.rectangle((-4 * h, -0.36), (4 * h, 0.36), (8, 576))
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(2001))
        sub = build_subsolution(patch, s, profile_table, 1.0, grid, well)
        y = grid.axis(1)
        above = sub.field.values[:, y >= 2.0 * s.saturation]
        below = sub.field.values[:, y <= -2.0 * s.saturation]
        assert above.size > 0 and below.size > 0
        assert np.all(above == sub.plateau_plus)
        assert np.all(below == sub.plateau_minus)
        # positive forcing lifts both plateaus above the wells by O(eps)
        assert -1.0 < sub.plateau_minus < -0.95
        assert 1.0 < sub.plateau_plus < 1.05

    def test_flat_grid_defect_sup_frozen(self, profile_table, well):
        eps = 0.01
        s = make_schedule(eps)
        h = eps / 128.0
        grid = Grid.rectangle((-4 * h, -0.2), (4 * h, 0.2), (8, 5120))
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(4001))
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        sup = float(np.max(np.abs(sub.defect.values[:, 2:-2])))
        assert sup == pytest.approx(FLAT_GRID_DEFECT_SUP, rel=1e-9)

    def test_validation_errors(self, profile_table, well):
        s = make_schedule(0.02)
        patch = GraphPatch.from_heights(0.0, 0.5, np.zeros(101))
        with pytest.raises(ValueError, match="2D"):
            build_subsolution(
                patch, s, profile_table, 0.0, Grid.interval(0.0, 1.0, 64), well
            )
        wide = Grid.rectangle((-0.8, -0.4), (0.8, 0.4), (64, 32))
        with pytest.raises(ValueError, match="span the grid"):
            build_subsolution(patch, s, profile_table, 0.0, wide, well)
        tight = Grid.rectangle((-0.1, -0.1), (0.1, 0.1), (16, 16))
        with pytest.raises(ValueError, match="saturation tube"):
            build_subsolution(patch, s, profile_table, 0.0, tight, well)


class TestFlatDefectClosedForm:
    def test_frozen_maxima_and_decay(self, profile_table, well):
        # the force-free planar defect in closed form:
        #   (1 - b'^2) W'(phi0(b/eps)) / eps - b'' phi0'(b/eps)
        # is zero on the identity core, exponentially small in the taper,
        # and exactly the plateau tail value beyond it
        signed, absolute = {}, {}
        for eps in (0.02, 0.01, 0.005):
            s = make_schedule(eps)
            r = np.linspace(0.0, 3.0 * s.saturation, 200001)
            z = s.value(r) / eps
            d = (1.0 - s.slope(r) ** 2) * well.derivative(
                profile_table.phi0_at(z)
            ) / eps
            d -= s.curve(r) * profile_table.phi0_prime_at(z)
            signed[eps] = float(np.max(d))
            absolute[eps] = float(np.max(np.abs(d)))
        for eps, value in FLAT_SIGNED_MAX.items():
            assert signed[eps] == pytest.approx(value, rel=1e-9)
        for eps, value in FLAT_ABS_MAX.items():
            assert absolute[eps] == pytest.approx(value, rel=1e-9)
        assert signed[0.02] > signed[0.01] > signed[0.005]
        assert absolute[0.02] > absolute[0.01] > absolute[0.005]


class TestVerifySubsolution:
    def test_bowl_certificate_frozen(self, profile_table, well):
        eps = 0.04
        s = make_schedule(eps)
        h = eps / 16.0
        grid = Grid.rectangle((-0.36, -0.54), (0.36, 0.72), (288, 504))
        assert grid.spacing == pytest.approx(h, rel=1e-12)
        arc = bowl_arc(profile_table.sigma)
        sub = build_subsolution(arc, s, profile_table, 1.0, grid, well)
        cert = verify_subsolution(sub)
        assert isinstance(cert, DefectCertificate)
        assert cert.max_defect == pytest.approx(BOWL_MAX_DEFECT, rel=1e-9)
        assert cert.bound == pytest.approx(7.0 / 9.0, rel=1e-15)
        assert cert.passed

    def _fake(self, defect, force=1.0):
        grid = Grid.rectangle((0.0, 0.0), (1.0, 1.0), defect.shape)
        return SubsolutionField(
            field=ScalarField(grid, np.zeros(defect.shape)),
            defect=ScalarField(grid, defect),
            force=force,
            plateau_minus=-1.0,
            plateau_plus=1.0,
        )

    def test_signed_maximum(self):
        cert = verify_subsolution(self._fake(np.full((12, 12), -0.5)), slack=0.0)
        assert cert.max_defect == -0.5
        assert cert.passed

    def test_interior_spike_fails(self):
        defect = np.zeros((12, 12))
        defect[6, 6] = 1.0
        cert = verify_subsolution(self._fake(defect))
        assert cert.max_defect == 1.0
        assert not cert.passed

    def test_wall_spike_excluded(self):
        defect = np.zeros((12, 12))
        defect[0, 0] = 5.0
        defect[-1, 3] = 5.0
        cert = verify_subsolution(self._fake(defect))
        assert cert.max_defect == 0.0
        assert cert.passed

    def test_custom_slack(self):
        sub = self._fake(np.full((12, 12), 0.8))
        assert verify_subsolution(sub).passed
        assert not verify_subsolution(sub, slack=0.01).passed

    def test_validation(self):
        with pytest.raises(ValueError, match="positive forcing"):
            verify_subsolution(self._fake(np.zeros((12, 12)), force=0.0))
        with pytest.raises(ValueError, match="positive forcing"):
            verify_subsolution(self._fake(np.zeros((12, 12)), force=-1.0))
        with pytest.raises(ValueError, match="too small"):
            verify_subsolution(self._fake(np.zeros((4, 4))))


class TestAsymptoticGap:
    def test_frozen_rows(self, profile_table, well):
        rows = asymptotic_gap(well, profile_table, 1.0, [0.01, 0.005, 0.0025])
        assert [row[0] for row in rows] == [0.01, 0.005, 0.0025]
        for eps, upper, lower in rows:
            ref_upper, ref_lower = GAP_ROWS[eps]
            assert upper == pytest.approx(ref_upper, rel=1e-9)
            assert lower == pytest.approx(ref_lower, rel=1e-9)

    def test_windows_and_trends(self, profile_table, well):
        rows = asymptotic_gap(well, profile_table, 1.0, [0.01, 0.005, 0.0025])
        uppers = [row[1] for row in rows]
        lowers = [row[2] for row in rows]
        limit = 1.0 / 9.0
        for u, lo in zip(uppers, lowers):
            assert 0.08 <= u <= 0.14 and 0.08 <= lo <= 0.14
            assert u > 0.0 and lo > 0.0
        # the upper gap rises toward force/9, the lower gap falls toward it
        assert uppers[0] < uppers[1] < uppers[2] < limit
        assert lowers[0] > lowers[1] > lowers[2] > limit

    def test_matches_high_precision_roots(self, profile_table, well):
        rows = asymptotic_gap(well, profile_table, 1.0, [0.01])
        assert abs(rows[0][1] - GAP_UPPER_EXACT) <= 1e-5
        assert abs(rows[0][2] - GAP_LOWER_EXACT) <= 1e-5

    def test_force_validation(self, profile_table, well):
        with pytest.raises(ValueError, match="positive"):
            asymptotic_gap(well, profile_table, 0.0, [0.01])
        with pytest.raises(ValueError, match="positive"):
            asymptotic_gap(well, profile_table, -1.0, [0.01])
