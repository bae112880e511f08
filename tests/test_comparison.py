"""Tests for cutoff schedules, curvature graphs, and comparison fields.

Numeric reference values were measured once from this code on the stated
grids and frozen; they are deterministic for a fixed profile table.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from gtlab.comparison import (
    CutoffSchedule,
    DefectCertificate,
    GraphPatch,
    SubsolutionField,
    asymptotic_gap,
    build_subsolution,
    make_schedule,
    signed_distance,
    solve_cmc_graph,
    verify_subsolution,
)
from gtlab.field import Grid, laplacian
from gtlab.potential import _EVAL_BLOCK

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
BOWL_MAX_DEFECT = 0.7187208210964702

# Normalized gaps between bulk roots and plateau values at force 1,
# rows keyed by eps as (upper gap, lower gap).
GAP_ROWS = {
    0.01: (0.10862790041494819, 0.11367338628284207),
    0.005: (0.10976306363192911, 0.11247795890805268),
    0.0025: (0.11040758696800879, 0.111819199606078),
}
# The same two gaps at eps = 0.01 from 50-digit root finding.
GAP_UPPER_EXACT = 0.108627900331319
GAP_LOWER_EXACT = 0.1136733863649282


def circle_height(radius, t):
    return radius - np.sqrt(radius * radius - t * t)


def bowl_arc(sigma, force=1.0):
    curvature = 2.0 * force / (3.0 * sigma)
    rho = 0.6
    cap = circle_height(1.0 / curvature, rho)
    return solve_cmc_graph(0.0, rho, (cap, cap), curvature)


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
        assert np.array_equal(s.value(np.array([2.0, -3.0]) * delta), [delta, -delta])

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
        assert np.array_equal(s.value(np.zeros(1)), [0.0])

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
        assert np.array_equal(s.slope(np.zeros(1)), [1.0])


class TestGraphPatch:
    def test_ends_tangents_and_height(self):
        R = 1.0 / SQRT2
        patch = GraphPatch(0.1, 0.6, 0.2, 0.2, SQRT2)
        assert np.array_equal(patch.ends(), [[0.1 - 0.6, 0.2], [0.1 + 0.6, 0.2]])
        tangents = patch.tangents()
        assert np.allclose(np.hypot(*tangents.T), 1.0, rtol=0.0, atol=1e-15)
        # a convex arc leaves its start below the chord at slope
        # -rho / sqrt(R^2 - rho^2)
        slope = 0.6 / np.sqrt(R * R - 0.36)
        assert tangents[0, 1] / tangents[0, 0] == pytest.approx(-slope, rel=1e-14)
        assert tangents[1, 1] / tangents[1, 0] == pytest.approx(slope, rel=1e-14)
        t = np.linspace(-0.6, 0.6, 1201)
        exact = 0.2 - circle_height(R, 0.6) + circle_height(R, t)
        dev = patch.height(0.1 + t) - exact
        assert np.max(np.abs(dev)) <= 1e-15
        assert isinstance(patch.height(0.1), float)

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            GraphPatch(0.0, -1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="radius"):
            GraphPatch(0.0, np.inf, 0.0, 0.0, 0.0)
        for bad in (
            (np.nan, 1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, np.inf, 0.0, 0.0),
            (0.0, 1.0, 0.0, np.nan, 0.0),
            (0.0, 1.0, 0.0, 0.0, -np.inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                GraphPatch(*bad)
        with pytest.raises(ValueError, match="spans the base"):
            GraphPatch(0.0, 1.0, 0.0, 0.0, 1.0)


class TestSolveCmcGraph:
    def test_zero_curvature_is_affine(self):
        patch = solve_cmc_graph(0.0, 0.7, (0.1, 0.5), 0.0)
        assert patch == GraphPatch(0.0, 0.7, 0.1, 0.5, 0.0)
        t = np.linspace(-0.7, 0.7, 65)
        affine = 0.3 + (0.4 / 1.4) * t
        assert np.max(np.abs(patch.height(t) - affine)) <= 2e-16
        assert patch.height(-0.7) == 0.1
        assert patch.height(0.7) == 0.5

    def test_circle_arcs(self):
        for c, rho in ((0.5, 1.0), (SQRT2, 0.6), (-SQRT2, 0.6)):
            R = 1.0 / abs(c)
            cap = np.copysign(circle_height(R, rho), c)
            patch = solve_cmc_graph(0.0, rho, (cap, cap), c)
            t = np.linspace(-rho, rho, 4001)
            exact = np.copysign(circle_height(R, t), c)
            assert np.max(np.abs(patch.height(t) - exact)) <= 1e-15
            assert abs(patch.height(0.0)) <= 1e-16

    def test_prescribed_curvature_recovered(self):
        # the circle through any three graph points has the prescribed
        # curvature: 4 * area / (product of the side lengths)
        c = SQRT2
        patch = solve_cmc_graph(0.0, 0.6, (0.05, 0.05), c)
        x = np.linspace(-0.6, 0.6, 201)
        p = np.column_stack([x, patch.height(x)])
        a, b, d = p[:-2], p[1:-1], p[2:]
        u, v = b - a, d - a
        area2 = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
        sides = np.hypot(*u.T) * np.hypot(*v.T) * np.hypot(*(d - b).T)
        assert np.max(np.abs(2.0 * area2 / sides - c)) <= 1e-10
        assert np.all(area2 > 0.0)

    def test_rejects_spanning_limit(self):
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.8, (0.0, 0.0), -1.5)
        # |curvature| * radius < 1, but the chord is longer than the diameter
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.5, (0.0, 1.2), 1.5)
        # the arc exists but turns back over its base at one end
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.5, (0.0, 0.8), 1.5)
        with pytest.raises(ValueError, match="spans the base"):
            solve_cmc_graph(0.0, 0.5, (0.8, 0.0), -1.5)
        # the same ends with a gentler bend are a graph
        solve_cmc_graph(0.0, 0.5, (0.0, 0.8), 0.5)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="radius"):
            solve_cmc_graph(0.0, 0.0, (0.0, 0.0), 0.5)
        with pytest.raises(ValueError, match="finite"):
            solve_cmc_graph(0.0, 1.0, (0.0, np.nan), 0.5)
        with pytest.raises(ValueError, match="finite"):
            solve_cmc_graph(0.0, 1.0, (0.0, 0.0), np.inf)


def arc_samples(patch, n=100_001):
    """Dense samples of the patch's arc (or segment), placed by angle about
    its circle's centre, independently of the closed forms under test."""
    (x0, y0), (x1, y1) = patch.ends()
    c = patch.curvature
    if c == 0.0:
        s = np.linspace(0.0, 1.0, n)[:, None]
        return (1.0 - s) * [x0, y0] + s * [x1, y1]
    R = 1.0 / abs(c)
    chord = np.array([x1 - x0, y1 - y0])
    half = 0.5 * np.hypot(*chord)
    up = np.array([-chord[1], chord[0]]) / (2.0 * half)
    rise = np.sign(c) * np.sqrt(R * R - half * half)
    centre = np.array([x0 + x1, y0 + y1]) / 2.0 + rise * up
    # the arc is the lower half of its circle for c > 0, the upper for c < 0
    ang = np.linspace(
        np.arctan2(y0 - centre[1], x0 - centre[0]),
        np.arctan2(y1 - centre[1], x1 - centre[0]),
        n,
    )
    return centre + R * np.column_stack([np.cos(ang), np.sin(ang)])


def reference_distance(samples, pts):
    """Brute-force distance: nearest dense sample, refined over the two
    chords next to it (their sag is below 1e-10)."""
    _, idx = cKDTree(samples).query(pts)
    best = np.full(len(pts), np.inf)
    for start in (idx - 1, idx):
        seg = np.clip(start, 0, len(samples) - 2)
        a = samples[seg]
        ab = samples[seg + 1] - a
        t = np.einsum("ij,ij->i", pts - a, ab) / np.einsum("ij,ij->i", ab, ab)
        foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
        best = np.minimum(best, np.hypot(*(pts - foot).T))
    return best


# Tube of the eps 0.02 certificate (twice the saturation length), and the
# brute-force agreement asked of the closed form inside it.
TUBE = 2.0 * make_schedule(0.02).saturation
TUBE_TOL = 1e-6 * TUBE

PATCHES = [
    (0.0, 0.6, (0.3, 0.3), 1.0 / SQRT2),
    (0.2, 0.5, (0.1, 0.6), 0.8),
    (0.0, 0.5, (0.2, -0.1), -1.2),
    (0.1, 0.7, (0.1, 0.5), 0.0),
]


class TestSignedDistance:
    def test_flat_graph_is_vertical_offset(self):
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        rng = np.random.default_rng(5)
        pts = np.column_stack(
            [rng.uniform(-0.5, 0.5, 300), rng.uniform(-0.3, 0.3, 300)]
        )
        assert np.array_equal(signed_distance(patch, pts), pts[:, 1])

    def test_vertices_at_zero(self, profile_table):
        patch = bowl_arc(profile_table.sigma)
        d = signed_distance(patch, arc_samples(patch, 1001))
        assert np.max(np.abs(d)) <= 1e-15

    @pytest.mark.parametrize("args", PATCHES)
    def test_matches_brute_force_in_tube(self, args):
        patch = solve_cmc_graph(*args)
        (x0, y0), (x1, y1) = patch.ends()
        rng = np.random.default_rng(13)
        pts = np.column_stack(
            [
                rng.uniform(x0 - TUBE, x1 + TUBE, 3000),
                rng.uniform(min(y0, y1) - TUBE, max(y0, y1) + TUBE, 3000),
            ]
        )
        ref = reference_distance(arc_samples(patch), pts)
        pts, ref = pts[ref <= TUBE], ref[ref <= TUBE]
        d = signed_distance(patch, pts)
        assert np.max(np.abs(np.abs(d) - ref)) <= TUBE_TOL
        # both sides of the front and feet beyond both ends are covered
        assert np.sum(d > 0.0) > 500 and np.sum(d < 0.0) > 500
        assert np.sum(pts[:, 0] < x0) > 50 and np.sum(pts[:, 0] > x1) > 50

    @pytest.mark.parametrize("args", PATCHES)
    def test_endpoint_feet(self, args):
        # points in the wedges past each end, and above the centre of an
        # arc, where the nearest point of the full circle is off the arc
        patch = solve_cmc_graph(*args)
        ends = patch.ends()
        tangents = patch.tangents()
        normals = tangents[:, ::-1] * [-1.0, 1.0]
        rng = np.random.default_rng(17)
        for end, tangent, normal, way in zip(ends, tangents, normals, (-1.0, 1.0)):
            s = rng.uniform(0.01, 0.5, (200, 1))
            n = rng.uniform(-0.5, 0.5, (200, 1))
            pts = end + way * s * tangent + n * normal
            d = signed_distance(patch, pts)
            exact = np.hypot(*(pts - end).T)
            assert np.max(np.abs(np.abs(d) - exact)) <= 1e-15
            ref = reference_distance(arc_samples(patch), pts)
            assert np.max(np.abs(np.abs(d) - ref)) <= TUBE_TOL
        if patch.curvature != 0.0:
            R = 1.0 / abs(patch.curvature)
            mid = patch.height(patch.center)
            rise = np.sign(patch.curvature) * R
            pts = np.array([[patch.center, mid + f * rise] for f in (2.5, 3.0)])
            exact = np.min([np.hypot(*(pts - end).T) for end in ends], axis=0)
            assert np.max(np.abs(np.abs(signed_distance(patch, pts)) - exact)) <= 1e-15

    def test_circle_cross_check(self, profile_table):
        c = 2.0 / (3.0 * profile_table.sigma)
        R = 1.0 / c
        patch = bowl_arc(profile_table.sigma)
        rng = np.random.default_rng(7)
        ang = rng.uniform(np.pi / 3.0, 2.0 * np.pi / 3.0, 4000)
        rad = rng.uniform(0.55 * R, 1.6 * R, 4000)
        pts = np.column_stack([rad * np.cos(ang), R - rad * np.sin(ang)])
        pts = pts[np.abs(pts[:, 0]) <= 0.55]
        exact = R - np.hypot(pts[:, 0], pts[:, 1] - R)
        assert np.max(np.abs(signed_distance(patch, pts) - exact)) <= 1e-15

    def test_small_curvature_keeps_digits(self):
        # the closed form never forms the circle's centre, 1/|c| away, so a
        # tiny bend stays within its own sag c * half_chord^2 / 2 of the
        # segment instead of losing digits to that distance
        rng = np.random.default_rng(19)
        pts = np.column_stack(
            [rng.uniform(-0.8, 0.8, 5000), rng.uniform(-0.5, 0.7, 5000)]
        )
        flat = signed_distance(solve_cmc_graph(0.0, 0.6, (0.1, 0.2), 0.0), pts)
        for c in (1e-9, -1e-12):
            bent = signed_distance(solve_cmc_graph(0.0, 0.6, (0.1, 0.2), c), pts)
            assert np.max(np.abs(bent - flat)) <= abs(c) + 1e-15

    def test_points_independent_of_block(self, profile_table):
        patch = bowl_arc(profile_table.sigma)
        rng = np.random.default_rng(11)
        n = 20000
        pts = np.column_stack([rng.uniform(-0.8, 0.8, n), rng.uniform(-0.3, 2.0, n)])
        d = signed_distance(patch, pts)
        order = rng.permutation(n)
        assert np.array_equal(signed_distance(patch, pts[order]), d[order])
        for i in rng.choice(n, 200, replace=False):
            assert signed_distance(patch, pts[i : i + 1])[0] == d[i]

    def test_default_study_grid_settles_everywhere(self, profile_table):
        # the grid of the default subsolution-check width (eps 0.02,
        # grid_k 24, base radius 0.6) built as the harness builds it: every
        # cell's foot lies on the arc, so the distance is the circle's
        eps, k, rho = 0.02, 24, 0.6
        R = 1.5 * profile_table.sigma
        patch = solve_cmc_graph(0.0, rho, (circle_height(R, rho),) * 2, 1.0 / R)
        delta = make_schedule(eps).saturation
        h = eps / k
        half_cells = int(np.ceil(0.6 * rho / h))
        psi_max = patch.height(half_cells * h)
        m_lo = int(np.ceil(2.2 * delta / h))
        m_hi = int(np.ceil((psi_max + 2.2 * delta) / h))
        grid = Grid.box(
            (-half_cells * h, -m_lo * h),
            (half_cells * h, m_hi * h),
            (2 * half_cells, m_lo + m_hi),
        )
        xs, ys = grid.mesh()
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        exact = R - np.hypot(pts[:, 0], pts[:, 1] - R)
        assert np.max(np.abs(signed_distance(patch, pts) - exact)) <= 1e-15

    def test_sign_rule(self, profile_table):
        patch = bowl_arc(profile_table.sigma)
        d = signed_distance(patch, np.array([[0.0, 0.2], [0.0, -0.2], [0.0, 0.0]]))
        assert d[0] > 0.0 and d[1] < 0.0
        assert abs(d[2]) <= 1e-16
        # past the base the side is read at the nearer end's height
        end = patch.height(0.6)
        beyond = np.array(
            [
                [0.65, end + 0.1],
                [-0.7, end + 0.3],
                [0.7, end - 0.05],
                [-0.62, end - 0.01],
            ]
        )
        assert np.array_equal(np.sign(signed_distance(patch, beyond)), [1, 1, -1, -1])
        for args in PATCHES:
            patch = solve_cmc_graph(*args)
            (x0, _), (x1, _) = patch.ends()
            rng = np.random.default_rng(23)
            pts = np.column_stack(
                [rng.uniform(x0 - 0.3, x1 + 0.3, 5000), rng.uniform(-1.0, 1.0, 5000)]
            )
            above = pts[:, 1] >= patch.height(np.clip(pts[:, 0], x0, x1))
            assert np.array_equal(signed_distance(patch, pts) >= 0.0, above)

    def test_scalar_and_validation(self, profile_table):
        # one point is a (1, 2) array; a bare (2,) point is rejected
        patch = bowl_arc(profile_table.sigma)
        out = signed_distance(patch, np.array([[0.1, 0.2]]))
        assert out.shape == (1,)
        assert out[0] == signed_distance(patch, np.array([[0.1, 0.2], [0.3, 0.4]]))[0]
        for bad in (np.zeros((4, 3)), np.zeros(3), np.array([0.1, 0.2])):
            with pytest.raises(ValueError, match="shape"):
                signed_distance(patch, bad)


class TestBuildSubsolution:
    def test_flat_force_free_matches_profile(self, profile_table, well):
        eps = 0.02
        s = make_schedule(eps)
        h = eps / 16.0
        grid = Grid.box((-4 * h, -0.36), (4 * h, 0.36), (8, 576))
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        expected = profile_table.phi0_at(s.value(grid.axis(1)) / eps)
        for col in sub.values:
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
        grid = Grid.box((-4 * h, -0.2), (4 * h, 0.2), (8, 1280))
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        v1 = profile_table.phi0_at(s.value(grid.axis(1)) / eps)
        d1 = -eps * laplacian(v1, h) + well.derivative(v1) / eps
        assert np.max(np.abs(sub.defect - d1[None, :])) <= 1e-12

    def test_plateau_cells_bitwise_constant(self, profile_table, well):
        eps = 0.02
        s = make_schedule(eps)
        h = eps / 16.0
        grid = Grid.box((-4 * h, -0.36), (4 * h, 0.36), (8, 576))
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        sub = build_subsolution(patch, s, profile_table, 1.0, grid, well)
        y = grid.axis(1)
        above = sub.values[:, y >= 2.0 * s.saturation]
        below = sub.values[:, y <= -2.0 * s.saturation]
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
        grid = Grid.box((-4 * h, -0.2), (4 * h, 0.2), (8, 5120))
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        sub = build_subsolution(patch, s, profile_table, 0.0, grid, well)
        sup = float(np.max(np.abs(sub.defect[:, 2:-2])))
        assert sup == pytest.approx(FLAT_GRID_DEFECT_SUP, rel=1e-9)

    def test_row_blocks_bitwise_whole_grid(self, profile_table, well):
        # the bowl grid spans five row blocks, the last one ragged; the
        # whole-grid assembly below is the one the blocks replace, and the
        # clipped halos at the first and last rows keep the wall formula
        eps, force = 0.04, 1.0
        s = make_schedule(eps)
        grid = Grid.box((-0.36, -0.54), (0.36, 0.72), (288, 504))
        rows = _EVAL_BLOCK // grid.shape[1]
        assert grid.shape[0] > 2 * rows and grid.shape[0] % rows
        arc = bowl_arc(profile_table.sigma)
        sub = build_subsolution(arc, s, profile_table, force, grid, well)
        dist = signed_distance(arc, np.column_stack([m.ravel() for m in grid.mesh()]))
        z = s.value(dist.reshape(grid.shape)) / eps
        coeff = eps * (2.0 / (3.0 * profile_table.sigma)) * force
        values = profile_table.phi0_at(z) + coeff * profile_table.phi1_at(z)
        defect = -eps * laplacian(values, grid.spacing) + well.derivative(values) / eps
        assert sub.values.tobytes() == values.tobytes()
        assert sub.defect.tobytes() == defect.tobytes()

    def test_peak_memory_two_outputs(self, profile_table, well):
        # about 1M cells: the field and its defect are the only full-grid
        # arrays, so the peak stays below three of them
        eps = 0.04
        s = make_schedule(eps)
        grid = Grid.box((-0.36, -0.54), (0.36, 0.72), (768, 1344))
        arc = bowl_arc(profile_table.sigma)
        profile_table.phi0_at(0.5)  # build the spline coefficients first
        profile_table.phi1_at(0.5)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            sub = build_subsolution(arc, s, profile_table, 1.0, grid, well)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 3 * sub.values.nbytes

    def test_validation_errors(self, profile_table, well):
        s = make_schedule(0.02)
        patch = solve_cmc_graph(0.0, 0.5, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="2D"):
            build_subsolution(
                patch, s, profile_table, 0.0, Grid.box((0.0,), (1.0,), (64,)), well
            )
        wide = Grid.box((-0.8, -0.4), (0.8, 0.4), (64, 32))
        with pytest.raises(ValueError, match="span the grid"):
            build_subsolution(patch, s, profile_table, 0.0, wide, well)
        tight = Grid.box((-0.1, -0.1), (0.1, 0.1), (16, 16))
        with pytest.raises(ValueError, match="saturation tube"):
            build_subsolution(patch, s, profile_table, 0.0, tight, well)


def phi0_prime_at(table, z):
    """phi0' by the rule of the table's phi0_at and phi1_at: the not-a-knot
    cubic spline through the knots inside the tabulated window (scipy's
    CubicSpline, which the table's own spline equals bit for bit), the
    limit 0 outside."""
    out = np.zeros_like(z)
    inside = np.abs(z) <= table.half_width
    spline = CubicSpline(table.positions, table.phi0_prime, extrapolate=False)
    out[inside] = spline(z[inside])
    return out


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
            d -= s.curve(r) * phi0_prime_at(profile_table, z)
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
        grid = Grid.box((-0.36, -0.54), (0.36, 0.72), (288, 504))
        assert grid.spacing == pytest.approx(h, rel=1e-12)
        arc = bowl_arc(profile_table.sigma)
        sub = build_subsolution(arc, s, profile_table, 1.0, grid, well)
        cert = verify_subsolution(sub, slack=0.05)
        assert isinstance(cert, DefectCertificate)
        assert cert.max_defect == pytest.approx(BOWL_MAX_DEFECT, rel=1e-9)
        assert cert.bound == pytest.approx(7.0 / 9.0, rel=1e-15)
        assert cert.passed

    def _fake(self, defect, force=1.0):
        return SubsolutionField(
            values=np.zeros(defect.shape),
            defect=defect,
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
        cert = verify_subsolution(self._fake(defect), slack=0.05)
        assert cert.max_defect == 1.0
        assert not cert.passed

    def test_wall_spike_excluded(self):
        defect = np.zeros((12, 12))
        defect[0, 0] = 5.0
        defect[-1, 3] = 5.0
        cert = verify_subsolution(self._fake(defect), slack=0.05)
        assert cert.max_defect == 0.0
        assert cert.passed

    def test_custom_slack(self):
        sub = self._fake(np.full((12, 12), 0.8))
        assert verify_subsolution(sub, slack=0.05).passed
        assert not verify_subsolution(sub, slack=0.01).passed

    def test_validation(self):
        with pytest.raises(ValueError, match="positive forcing"):
            verify_subsolution(self._fake(np.zeros((12, 12)), force=0.0), slack=0.0)
        with pytest.raises(ValueError, match="positive forcing"):
            verify_subsolution(self._fake(np.zeros((12, 12)), force=-1.0), slack=-0.05)
        with pytest.raises(ValueError, match="too small"):
            verify_subsolution(self._fake(np.zeros((4, 4))), slack=0.05)


class TestAsymptoticGap:
    def test_frozen_rows(self, profile_table, well):
        for eps, (ref_upper, ref_lower) in GAP_ROWS.items():
            upper, lower = asymptotic_gap(well, profile_table, 1.0, eps)
            assert upper == pytest.approx(ref_upper, rel=1e-9)
            assert lower == pytest.approx(ref_lower, rel=1e-9)

    def test_windows_and_trends(self, profile_table, well):
        gaps = [
            asymptotic_gap(well, profile_table, 1.0, eps) for eps in (0.01, 0.005, 0.0025)
        ]
        uppers, lowers = zip(*gaps)
        limit = 1.0 / 9.0
        for u, lo in gaps:
            assert 0.08 <= u <= 0.14 and 0.08 <= lo <= 0.14
            assert u > 0.0 and lo > 0.0
        # the upper gap rises toward force/9, the lower gap falls toward it
        assert uppers[0] < uppers[1] < uppers[2] < limit
        assert lowers[0] > lowers[1] > lowers[2] > limit

    def test_matches_high_precision_roots(self, profile_table, well):
        upper, lower = asymptotic_gap(well, profile_table, 1.0, 0.01)
        assert abs(upper - GAP_UPPER_EXACT) <= 1e-9
        assert abs(lower - GAP_LOWER_EXACT) <= 1e-9

    def test_force_validation(self, profile_table, well):
        with pytest.raises(ValueError, match="positive"):
            asymptotic_gap(well, profile_table, 0.0, 0.01)
        with pytest.raises(ValueError, match="positive"):
            asymptotic_gap(well, profile_table, -1.0, 0.01)
