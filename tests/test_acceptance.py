"""Acceptance gate: every stated bound at the stated desk scale.

Each test asserts one advertised guarantee of the package at its stated
tolerance: closed-form anchors for the profile machinery, curvature-balance
convergence for the conserved disk, the long-range balance law, the
comparison-field defect certificate, gap and multiplicity laws, bulk
plateau accuracy, and infrastructure properties (linearization, adjointness,
operator consistency, deterministic reruns).
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from gtlab.comparison import asymptotic_gap
from gtlab.field import Grid, gradient, integrate, laplacian, sample
from gtlab.harness import PROFILE_SPACING, StudyConfig, run_study
from gtlab.interface import Contour, curvature, curvature_balance, extract_contours, zero_crossings_1d
from gtlab.measure import bulk_deviation, multiplicity_estimate
from gtlab.potential import (
    DoubleWell,
    bulk_roots,
    first_order_correction,
    optimal_profile,
    surface_tension,
)
from gtlab.solve import (
    disk_signed_distance,
    long_range_potential,
    seed_from_signed_distance,
    solve_conserved,
)

SQRT2 = float(np.sqrt(2.0))

DISK_EPS = (0.08, 0.04, 0.02)
DISK_RADIUS = 0.25
DISK_CENTER = (0.5, 0.5)


@dataclass
class DiskState:
    eps: float
    grid: Grid
    values: np.ndarray
    multiplier: float
    contour: Contour
    kappa: np.ndarray
    r_eps: float
    seconds: float


def _disk_grid(eps: float, k: int) -> Grid:
    n = int(round(k / eps))
    return Grid.box((0.0, 0.0), (1.0, 1.0), (n, n))


def _largest_loop(values, grid):
    loops = [c for c in extract_contours(values, grid) if c.closed]
    return max(loops, key=lambda c: len(c.points))


def _polygon_radius(points):
    x, y = points[:, 0], points[:, 1]
    area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    return float(np.sqrt(area / np.pi))


@pytest.fixture(scope="module")
def disk_states(well, profile_table):
    """The conserved disk ladder at h = eps/4, solved once and shared."""
    states = []
    for eps in DISK_EPS:
        grid = _disk_grid(eps, 4)
        dist = disk_signed_distance(grid, DISK_CENTER, DISK_RADIUS)
        seed = seed_from_signed_distance(profile_table, dist, eps)
        start = time.perf_counter()
        u, report = solve_conserved(well, grid, eps, integrate(seed, grid), seed)
        seconds = time.perf_counter() - start
        assert report.converged
        contour = _largest_loop(u, grid)
        kappa = curvature(
            contour, grid, gradient(u, grid.spacing), window=8.0 * eps
        )
        states.append(
            DiskState(
                eps=eps,
                grid=grid,
                values=u,
                multiplier=float(report.multiplier),
                contour=contour,
                kappa=kappa,
                r_eps=_polygon_radius(contour.points),
                seconds=seconds,
            )
        )
    return states


class TestSurfaceTensionAnchor:
    def test_closed_form_and_runtime(self):
        start = time.perf_counter()
        sigma = surface_tension(DoubleWell())
        elapsed = time.perf_counter() - start
        assert abs(sigma - SQRT2 / 3.0) <= 1e-10
        assert elapsed < 1.0


@pytest.fixture(scope="module")
def fine_table(well):
    return first_order_correction(
        optimal_profile(well, spacing=PROFILE_SPACING), well
    )


class TestProfileFidelity:
    def test_profile_residual(self, fine_table, well):
        assert fine_table.interior_residual(well) < 1e-8

    def test_matches_tanh(self, fine_table):
        r = np.linspace(-10.0, 10.0, 20001)
        gap = np.abs(fine_table.phi0_at(r) - np.tanh(r / SQRT2))
        assert np.max(gap) < 1e-7

    def test_correction_tails(self, fine_table):
        tail = SQRT2 / 6.0
        assert abs(float(fine_table.phi1[0]) - tail) <= 1e-6
        assert abs(float(fine_table.phi1[-1]) - tail) <= 1e-6

    def test_equipartition_defect(self, fine_table, well):
        gap = 0.5 * fine_table.phi0_prime**2 - well.value(fine_table.phi0)
        assert np.max(np.abs(gap)) < 1e-8


class TestLayerEnergy:
    def test_converged_transition_energy(self, profile_table):
        report = run_study(
            StudyConfig(kind="ch-planar", eps=(0.02,), grid_k=8)
        )
        row = report.rows[0]
        assert row.error is None
        assert row.checks["solver_converged"]
        assert row.metrics["energy_error"] <= 1e-3


class TestCurvatureBalanceLadder:
    def test_ratio_endpoints_and_monotonicity(self, disk_states, profile_table):
        errors = [
            abs(s.multiplier * s.r_eps / profile_table.sigma - 1.0)
            for s in disk_states
        ]
        assert errors[0] <= 0.15
        assert errors[-1] <= 0.05
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_each_solve_within_budget(self, disk_states):
        for state in disk_states:
            assert state.seconds < 120.0


def _constant_balance_sup(state, kappa, sigma):
    target = np.full(len(state.contour.points), state.multiplier)
    return curvature_balance(kappa, target, sigma)


class TestPointwiseBalance:
    def test_interface_residual_at_finest(self, disk_states, profile_table):
        state = disk_states[-1]
        assert state.eps == 0.02
        sup = _constant_balance_sup(state, state.kappa, profile_table.sigma)
        assert sup <= 0.1 * state.multiplier

    @pytest.mark.parametrize(
        "kappa_sign, sigma_factor",
        [(-1.0, 1.0), (1.0, 1.1)],
        ids=["flipped-curvature", "sigma-times-1.1"],
    )
    def test_gate_rejects_mutations(
        self, disk_states, profile_table, kappa_sign, sigma_factor
    ):
        state = disk_states[-1]
        sup = _constant_balance_sup(
            state, kappa_sign * state.kappa, sigma_factor * profile_table.sigma
        )
        assert sup > 0.1 * state.multiplier


class TestLongRangeBalance:
    def test_disk_balance(self, well, profile_table):
        eps = 0.02
        grid = _disk_grid(eps, 4)
        dist = disk_signed_distance(grid, DISK_CENTER, DISK_RADIUS)
        seed = seed_from_signed_distance(profile_table, dist, eps)
        u, report = solve_conserved(
            well, grid, eps, integrate(seed, grid), seed, long_range=1.0
        )
        assert report.converged
        lam = float(report.multiplier)
        w = long_range_potential(u, grid, 1.0)
        contour = _largest_loop(u, grid)
        w_at = sample(w, grid, contour.points)
        kappa = curvature(
            contour, grid, gradient(u, grid.spacing), window=8.0 * eps
        )
        good = ~np.isnan(kappa)
        residual = profile_table.sigma * kappa[good] + w_at[good] - lam
        scale = float(np.max(np.abs(lam - w_at[good])))
        assert float(np.max(np.abs(residual))) <= 0.1 * scale

    def test_lamellar_flat_interfaces(self, well, profile_table):
        # walls off the mirror-symmetric 0.25/0.75 pair, where lam = v = 0
        # at the crossings whatever the solver does
        eps = 0.01
        grid = Grid.box((0.0,), (1.0,), (int(round(8 / eps)),))
        x = grid.axis(0)
        seed = (
            profile_table.phi0_at((x - 0.3) / eps)
            - profile_table.phi0_at((x - 0.7) / eps)
            - 1.0
        )
        u, report = solve_conserved(
            well, grid, eps, integrate(seed, grid), seed, long_range=1.0
        )
        assert report.converged
        lam = float(report.multiplier)
        w = long_range_potential(u, grid, 1.0)
        crossings = zero_crossings_1d(u, grid)
        assert crossings.size == 2
        gap = np.abs(lam - np.interp(crossings, x, w))
        assert np.max(gap) <= 0.05
        assert abs(lam) >= 1e-3
        assert np.max(gap) <= 0.05 * abs(lam)


class TestSubsolutionCertificate:
    def test_defect_bound_and_trend(self):
        report = run_study(
            StudyConfig(
                kind="subsolution",
                eps=(0.02, 0.01),
                grid_k=(24, 48),
                radius=0.6,
                force=1.0,
            )
        )
        defects = []
        for row in report.rows:
            assert row.error is None
            assert row.metrics["max_defect"] <= 7.0 / 9.0 + 0.05
            defects.append(row.metrics["max_defect"])
        assert all(b <= a for a, b in zip(defects, defects[1:]))
        assert abs(defects[-1] - 2.0 / 3.0) <= 0.05


class TestGapWindow:
    def test_gaps_in_window_and_positive(self, well, profile_table):
        rows = asymptotic_gap(well, profile_table, 1.0, [0.01, 0.005, 0.0025])
        for _, upper, lower in rows:
            assert upper > 0.0 and lower > 0.0
            assert 0.08 <= upper <= 0.14
            assert 0.08 <= lower <= 0.14


class TestMultiplicityCounts:
    def test_synthetic_stacks_count_exactly(self, well, profile_table):
        eps = 0.01
        grid = Grid.box((0.0,), (1.0,), (int(round(8 / eps)),))
        x = grid.axis(0)
        for layers in (1, 2, 3):
            offsets = (np.arange(layers) - (layers - 1) / 2.0) * 4.0 * eps
            u = np.zeros_like(x)
            for i, off in enumerate(offsets):
                u += (-1.0) ** i * profile_table.phi0_at((x - 0.5 - off) / eps)
            if layers % 2 == 0:
                u -= 1.0
            est = multiplicity_estimate(
                u, grid, well, eps, profile_table.sigma, 0.5, 8.0 * eps
            )
            assert round(est) == layers


class TestBulkPlateaus:
    def test_deviation_from_shifted_wells(self, disk_states, well):
        state = disk_states[-1]
        eps = state.eps
        assert eps == 0.02
        # plateaus continue the wells under the multiplier: W'(r) = eps*lam
        lam_minus, lam_plus = bulk_roots(well, eps, state.multiplier)
        dev = bulk_deviation(
            state.values,
            state.grid,
            state.contour.points,
            10.0 * eps,
            lam_plus,
            lam_minus,
        )
        assert dev <= eps * eps


class TestInfrastructure:
    def test_linearization_matches_finite_differences(self, well):
        rng = np.random.default_rng(11)
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (32, 32))
        eps = 0.1
        u = rng.uniform(-1.2, 1.2, grid.shape)
        v = rng.uniform(-1.0, 1.0, grid.shape)

        def residual(w):
            return -eps * laplacian(w, grid.spacing) + well.derivative(w) / eps

        step = 1e-5
        fd = (residual(u + step * v) - residual(u - step * v)) / (2.0 * step)
        lin = -eps * laplacian(v, grid.spacing) + well.second_derivative(u) * v / eps
        scale = float(np.max(np.abs(lin)))
        assert float(np.max(np.abs(fd - lin))) <= 1e-8 * max(1.0, scale)

    def test_reflecting_laplacian_self_adjoint(self):
        rng = np.random.default_rng(12)
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (48, 48))
        u = rng.standard_normal(grid.shape)
        v = rng.standard_normal(grid.shape)
        h = grid.spacing
        left = integrate(laplacian(u, h) * v, grid)
        right = integrate(u * laplacian(v, h), grid)
        norm = max(1.0, abs(left), abs(right))
        assert abs(left - right) <= 1e-10 * norm

    def test_study_rerun_is_bit_identical(self, tmp_path):
        blobs = []
        for sub in ("first", "second"):
            out = tmp_path / sub
            report = run_study(
                StudyConfig(
                    kind="ch-disk",
                    eps=(0.04,),
                    grid_k=4,
                    out_dir=str(out),
                )
            )
            assert report.rows[0].error is None
            blobs.append(
                (
                    (out / "report.json").read_bytes(),
                    (out / "ch-disk-field-00.npz").read_bytes(),
                    (out / "ch-disk-interface-00.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]
