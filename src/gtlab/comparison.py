"""Comparison fields: curvature graphs, saturating distance cutoffs, and
profile-based fields whose elliptic defect certifies the curvature balance.

The balance between surface tension and bulk forcing is probed from one side
by an explicit field: the optimal transition profile is composed with a
saturated signed distance to a reference front of prescribed curvature, plus
a first-order correction proportional to the forcing.  Outside a tube around
the front the field is exactly constant at the plateau values of
``far_field_values``, so the defect it leaves in the stationary equation

    -eps * lap(v) + W'(v) / eps

is measurable on a grid and stays below a fixed multiple of the forcing.
The pieces here build the constant-curvature graphs, the cutoff schedule,
the comparison field, and the verdicts derived from its defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import cKDTree

from .field import Grid, ScalarField, laplacian
from .potential import (
    DoubleWell,
    ProfileTable,
    _banded_newton,
    bulk_roots,
    far_field_values,
)

SQRT2 = float(np.sqrt(2.0))

# The taper of the cutoff starts at this fraction of the saturation length
# and spans the next fraction.  The identity core then covers a third of the
# saturation length with room to spare, the constant tails begin before twice
# the saturation length, and the largest curvature of the blend, 1.875/span,
# comes to about 2.93/saturation, inside the 3/saturation budget.
_TAPER_START = 0.68
_TAPER_SPAN = 0.64


def _smoothstep(x):
    """Quintic smoothstep: 0 -> 1 on [0, 1] with vanishing ends of S', S''."""
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def _smoothstep_prime(x):
    return 30.0 * x * x * (1.0 - x) ** 2


def _smoothstep_integral(x):
    """Antiderivative of the quintic smoothstep vanishing at 0."""
    return x * x * x * x * (2.5 + x * (x - 3.0))


@dataclass(frozen=True)
class CutoffSchedule:
    """Odd saturating map: identity near 0, constant +-saturation far out.

    ``value`` is the map itself, ``slope`` and ``curve`` its first and second
    derivatives.  The taper is a quintic smoothstep in the slope, so the map
    is twice continuously differentiable, the slope stays in [0, 1], and the
    second derivative is one-signed on each half line with magnitude below
    3 / saturation.
    """

    eps: float
    saturation: float

    def __post_init__(self) -> None:
        if not (self.eps > 0.0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not (self.saturation > 0.0 and np.isfinite(self.saturation)):
            raise ValueError(
                f"saturation must be positive and finite, got {self.saturation}"
            )

    @property
    def taper_start(self) -> float:
        return _TAPER_START * self.saturation

    @property
    def taper_span(self) -> float:
        return _TAPER_SPAN * self.saturation

    def _pieces(self, r):
        r = np.asarray(r, dtype=float)
        a = np.abs(r)
        x = np.clip((a - self.taper_start) / self.taper_span, 0.0, 1.0)
        return r, a, x

    def value(self, r):
        r, a, x = self._pieces(r)
        ramp = self.taper_start + self.taper_span * (x - _smoothstep_integral(x))
        out = np.where(a <= self.taper_start, a, ramp)
        # The saturated branch returns the constant itself, so every cell on
        # a plateau carries bitwise the same value.
        out = np.where(a >= self.taper_start + self.taper_span, self.saturation, out)
        out = np.copysign(out, r)
        return float(out) if out.ndim == 0 else out

    def slope(self, r):
        _, a, x = self._pieces(r)
        out = np.where(a <= self.taper_start, 1.0, 1.0 - _smoothstep(x))
        out = np.where(a >= self.taper_start + self.taper_span, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def curve(self, r):
        r, a, x = self._pieces(r)
        mag = _smoothstep_prime(x) / self.taper_span
        out = -np.copysign(mag, r)
        out = np.where(
            (a <= self.taper_start) | (a >= self.taper_start + self.taper_span),
            0.0,
            out,
        )
        return float(out) if out.ndim == 0 else out


def make_schedule(eps: float) -> CutoffSchedule:
    """Cutoff schedule with saturation 2 * eps * ln(1/eps), bounds audited.

    Requires eps < 1/e so the saturation length exceeds 2 * eps.  The
    construction is checked by dense sampling: identity on a third of the
    saturation length, constant beyond twice of it, slope in [0, 1], and
    second derivative one-signed with magnitude below 3 / saturation.  A
    violation is an internal inconsistency, not a caller error.
    """
    if not (0.0 < eps < 1.0 / np.e):
        raise ValueError(f"eps must lie in (0, 1/e), got {eps}")
    delta = 2.0 * eps * np.log(1.0 / eps)
    schedule = CutoffSchedule(eps=eps, saturation=delta)

    r = np.linspace(-3.0 * delta, 3.0 * delta, 10_000)
    val = schedule.value(r)
    slope = schedule.slope(r)
    curve = schedule.curve(r)
    core = np.abs(r) <= delta / 3.0
    flat = np.abs(r) >= 2.0 * delta
    checks = (
        np.array_equal(val[core], r[core]),
        np.all(val[flat] == np.copysign(delta, r[flat])),
        np.all((slope >= 0.0) & (slope <= 1.0)),
        np.all(np.abs(curve) <= 3.0 / delta),
        np.all(curve[r >= 0.0] <= 0.0) and np.all(curve[r <= 0.0] >= 0.0),
        np.max(np.abs(val)) == delta,
    )
    if not all(checks):
        raise RuntimeError(
            "cutoff schedule failed its own bound audit; "
            f"check vector (core, tails, slope, curve, signs, range) = {checks}"
        )
    return schedule


def mean_curvature_operator(slope, hessian):
    """Curvature of a height graph from its gradient p and Hessian X:

        (1 + |p|^2)^(-3/2) * ((1 + |p|^2) trace X - p.X.p)

    Scalars are treated as the one-dimensional-base case; batched input is
    accepted with p of shape (..., k) and X of shape (..., k, k).
    """
    p = np.asarray(slope, dtype=float)
    X = np.asarray(hessian, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
        X = X.reshape(X.shape + (1, 1)[X.ndim :]) if X.ndim < 2 else X
    k = p.shape[-1]
    if X.shape[-2:] != (k, k):
        raise ValueError(
            f"hessian block shape {X.shape[-2:]} does not match slope length {k}"
        )
    if not np.allclose(X, np.swapaxes(X, -1, -2), rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(X))))):
        raise ValueError("hessian must be symmetric")
    q = 1.0 + np.sum(p * p, axis=-1)
    tr = np.trace(X, axis1=-2, axis2=-1)
    pxp = np.einsum("...i,...ij,...j->...", p, X, p)
    out = (q * tr - pxp) / q**1.5
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True, eq=False)
class GraphPatch:
    """A height graph sampled over a centered base interval.

    ``positions`` are uniform over [center - radius, center + radius] and
    ``heights`` are the graph values there; ``slope`` and ``second`` hold
    finite-difference derivative samples.
    """

    center: float
    radius: float
    positions: np.ndarray
    heights: np.ndarray
    slope: np.ndarray
    second: np.ndarray

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        m = self.positions.size
        if m < 5:
            raise ValueError("need at least 5 graph samples")
        for name in ("positions", "heights", "slope", "second"):
            arr = getattr(self, name)
            if arr.shape != (m,):
                raise ValueError(f"{name} must be a flat array of {m} samples")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite samples")
        steps = np.diff(self.positions)
        if np.min(steps) <= 0.0:
            raise ValueError("positions must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-9 * np.max(steps):
            raise ValueError("positions must be uniformly spaced")
        lo, hi = self.center - self.radius, self.center + self.radius
        if abs(self.positions[0] - lo) > 1e-12 or abs(self.positions[-1] - hi) > 1e-12:
            raise ValueError("positions must span the base interval exactly")

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])

    def points(self) -> np.ndarray:
        """Graph vertices as an (m, 2) array of (position, height) rows."""
        return np.column_stack([self.positions, self.heights])

    @classmethod
    def from_heights(cls, center: float, radius: float, heights) -> "GraphPatch":
        heights = np.asarray(heights, dtype=float)
        m = heights.size
        positions = center + np.linspace(-radius, radius, m)
        h = 2.0 * radius / (m - 1)
        slope = np.gradient(heights, h, edge_order=2)
        second = np.empty_like(heights)
        second[1:-1] = (heights[2:] - 2.0 * heights[1:-1] + heights[:-2]) / h**2
        second[0] = (2.0 * heights[0] - 5.0 * heights[1] + 4.0 * heights[2] - heights[3]) / h**2
        second[-1] = (2.0 * heights[-1] - 5.0 * heights[-2] + 4.0 * heights[-3] - heights[-4]) / h**2
        return cls(float(center), float(radius), positions, heights, slope, second)


def solve_cmc_graph(
    center: float,
    radius: float,
    boundary: tuple[float, float],
    curvature: float,
    n_cells: int = 2000,
) -> GraphPatch:
    """Height graph of prescribed constant curvature over a base interval.

    Damped Newton for the quasilinear two-point problem

        psi'' = curvature * (1 + psi'^2)^(3/2)

    with exact Dirichlet values at the base endpoints.  A spanning arc of
    curvature c over a base of radius r exists only for |c| * r < 1; larger
    products are rejected up front.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    n = int(n_cells)
    if n < 8:
        raise ValueError("need at least 8 cells across the base")
    if abs(curvature) * radius >= 1.0:
        raise ValueError(
            f"|curvature| * radius = {abs(curvature) * radius:.6g} >= 1: "
            "no graph of this curvature spans the base"
        )
    left, right = float(boundary[0]), float(boundary[1])
    h = 2.0 * radius / n
    tloc = np.linspace(-radius, radius, n + 1)
    psi = left + (right - left) * (tloc + radius) / (2.0 * radius)
    psi += 0.5 * curvature * (tloc**2 - radius**2)
    psi[0], psi[-1] = left, right

    def residual(vals: np.ndarray) -> np.ndarray:
        d2 = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2
        dc = (vals[2:] - vals[:-2]) / (2.0 * h)
        return d2 - curvature * (1.0 + dc * dc) ** 1.5

    def bands(vals: np.ndarray) -> np.ndarray:
        dc = (vals[2:] - vals[:-2]) / (2.0 * h)
        cross = 3.0 * curvature * dc * np.sqrt(1.0 + dc * dc) / (2.0 * h)
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = 1.0 / h**2 - cross[:-1]
        ab[1, :] = -2.0 / h**2
        ab[2, :-1] = 1.0 / h**2 + cross[1:]
        return ab

    floor = (8.0 / h**2) * np.finfo(float).eps * max(1.0, float(np.max(np.abs(psi))))
    threshold = max(1e-9, floor)
    psi, sup = _banded_newton(psi, residual, bands, threshold, 40)
    if sup > threshold:
        raise RuntimeError(
            f"curvature graph Newton stalled at residual {sup:.3e}; "
            f"|curvature| * radius = {abs(curvature) * radius:.4g} "
            "is close to the spanning limit 1"
        )
    return GraphPatch.from_heights(center, radius, psi)


# Points projected together by signed_distance: each Newton temporary holds
# one float per point of a block.
_BLOCK = 1 << 14


def signed_distance(patch: GraphPatch, points) -> np.ndarray | float:
    """Distance to the graph's cubic interpolant, positive strictly above it.

    Main path: Newton's method on the squared distance to the cubic spline
    through the graph samples, started at the vertical foot t = x clipped to
    the base interval.  Inside a saturation tube the curvature times the
    distance stays below one (no focal crossing), so this start needs no
    nearest-vertex search.  Points run in blocks of ``_BLOCK``, and each one
    stops once its step falls below 1e-12 * max(1, base length), so its
    distance depends on that point alone.  The spline, not the polyline,
    carries the main path: a polyline puts all curvature at its vertices,
    and grid Laplacians amplify its chord-sag kinks by 1/spacing^2.

    Fallback: a point that does not settle within 8 steps, or whose foot
    ends on an end of the base, takes the exact distance to the polyline
    through the samples (nearest vertex, then its two adjacent segments).

    The sign compares the vertical coordinate against the polyline height at
    the same horizontal position, which for a height graph is the exact side
    test.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    spline = CubicSpline(patch.positions, patch.heights)
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], _BLOCK):
        block = pts[start : start + _BLOCK]
        out[start : start + _BLOCK] = _side(
            patch, block, _spline_distance(patch, spline, block)
        )
    missed = np.isnan(out)
    if np.any(missed):
        out[missed] = _polyline_distance(patch, pts[missed])
    return float(out[0]) if scalar else out


def _spline_distance(
    patch: GraphPatch, spline: CubicSpline, pts: np.ndarray
) -> np.ndarray:
    """Unsigned distance to the spline by Newton from the vertical foot;
    NaN where the foot does not settle or ends on an end of the base."""
    lo, hi = float(patch.positions[0]), float(patch.positions[-1])
    x, y = pts[:, 0], pts[:, 1]
    t = np.clip(x, lo, hi)
    settled = np.zeros(t.shape, dtype=bool)
    active = np.arange(t.size)
    for _ in range(8):
        ta, xa, ya = t[active], x[active], y[active]
        e1 = spline(ta, 1)
        gap = ya - spline(ta)
        g = -(xa - ta) - gap * e1
        gp = 1.0 + e1 * e1 - gap * spline(ta, 2)
        ok = gp > 0.0
        dt = np.where(ok, -g / np.where(ok, gp, 1.0), 0.0)
        t[active] = np.clip(ta + dt, lo, hi)
        done = ok & (np.abs(dt) <= 1e-12 * max(1.0, hi - lo))
        settled[active[done]] = True
        # past the focal distance (gp <= 0) the foot no longer moves
        active = active[ok & ~done]
        if active.size == 0:
            break
    keep = settled & (t > lo) & (t < hi)
    dist = np.full(t.shape, np.nan)
    dist[keep] = np.hypot(x[keep] - t[keep], y[keep] - spline(t[keep]))
    return dist


def _polyline_distance(patch: GraphPatch, pts: np.ndarray) -> np.ndarray:
    """Exact signed distance to the polyline through the graph samples:
    nearest vertex, then projection onto its two adjacent segments."""
    curve = patch.points()
    last = curve.shape[0] - 2
    _, idx = cKDTree(curve).query(pts)
    best = np.full(pts.shape[0], np.inf)
    for start in (idx - 1, idx):
        valid = (start >= 0) & (start <= last)
        seg = np.clip(start, 0, last)
        a = curve[seg]
        ab = curve[seg + 1] - a
        denom = np.einsum("ij,ij->i", ab, ab)
        tpar = np.einsum("ij,ij->i", pts - a, ab) / denom
        proj = a + np.clip(tpar, 0.0, 1.0)[:, None] * ab
        gap = pts - proj
        dist = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        best = np.minimum(best, np.where(valid, dist, np.inf))
    return _side(patch, pts, best)


def _side(patch: GraphPatch, pts: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Attach the sign: positive where the point lies on or above the
    polyline height at its horizontal position."""
    height = np.interp(pts[:, 0], patch.positions, patch.heights)
    return np.where(pts[:, 1] >= height, dist, -dist)


@dataclass(frozen=True, eq=False)
class SubsolutionField:
    """A comparison field on a grid together with its elliptic defect.

    ``defect`` holds -eps * lap(field) + W'(field) / eps cell by cell;
    ``plateau_minus`` and ``plateau_plus`` are the exact constants the field
    takes below and above the saturation tube.
    """

    field: ScalarField
    defect: ScalarField
    force: float
    plateau_minus: float
    plateau_plus: float


class DefectCertificate(NamedTuple):
    max_defect: float
    bound: float
    passed: bool


def build_subsolution(
    patch: GraphPatch,
    schedule: CutoffSchedule,
    table: ProfileTable,
    force: float,
    grid: Grid,
    well: DoubleWell,
) -> SubsolutionField:
    """Profile riding on the saturated signed distance to the graph.

    The field is phi0(b(d)/eps) + eps * (2/(3 sigma)) * force * phi1(b(d)/eps)
    with d the signed distance to the patch and b the cutoff schedule; its
    defect -eps * lap + W'/eps is evaluated with the grid Laplacian.  The
    grid box must contain the saturation tube of the front: the graph must
    span the box horizontally and clear the top and bottom walls by twice
    the saturation length.
    """
    if grid.ndim != 2:
        raise ValueError("comparison fields are built on 2D grids")
    eps = schedule.eps
    delta = schedule.saturation
    x_lo, y_lo = grid.origin
    x_hi, y_hi = grid.upper()
    if patch.positions[0] > x_lo or patch.positions[-1] < x_hi:
        raise ValueError("graph base does not span the grid horizontally")
    inside = (patch.positions >= x_lo) & (patch.positions <= x_hi)
    top_gap = y_hi - float(np.max(patch.heights[inside]))
    bottom_gap = float(np.min(patch.heights[inside])) - y_lo
    if min(top_gap, bottom_gap) < 2.0 * delta:
        raise ValueError(
            "saturation tube leaves the grid: wall clearance "
            f"{min(top_gap, bottom_gap):.4g} < {2.0 * delta:.4g}"
        )

    dist = signed_distance(patch, np.column_stack([m.ravel() for m in grid.mesh()]))
    z = schedule.value(dist.reshape(grid.shape)) / eps
    values = table.phi0_at(z)
    if force != 0.0:
        coeff = eps * (2.0 / (3.0 * table.sigma)) * force
        values = values + coeff * table.phi1_at(z)
        plateau_minus, plateau_plus = far_field_values(table, eps, delta, force)
    else:
        arg = delta / eps
        plateau_minus = float(table.phi0_at(-arg))
        plateau_plus = float(table.phi0_at(arg))
    defect = -eps * laplacian(values, grid.spacing) + well.derivative(values) / eps
    return SubsolutionField(
        field=ScalarField(grid, values),
        defect=ScalarField(grid, defect),
        force=float(force),
        plateau_minus=plateau_minus,
        plateau_plus=plateau_plus,
    )


# Cell layers next to each wall left out of the defect verdict.
_WALL_LAYERS = 2


def verify_subsolution(
    sub: SubsolutionField, slack: float | None = None
) -> DefectCertificate:
    """Check the defect of a comparison field against its forcing scale.

    The verdict compares the largest defect over interior cells (two layers
    at each wall excluded: the zero-flux stencil is wrong where the field
    still varies) with (7/9) * sub.force plus a slack, defaulting to
    0.05 * force, that absorbs the grid Laplacian truncation error.
    Positive forcing is required; the one-sided construction has no
    content otherwise.
    """
    force = sub.force
    if not (force > 0.0):
        raise ValueError("the defect bound applies to positive forcing only")
    if slack is None:
        slack = 0.05 * force
    vals = sub.defect.values
    k = _WALL_LAYERS
    if any(n <= 2 * k for n in vals.shape):
        raise ValueError("grid too small for the wall exclusion")
    vals = vals[tuple(slice(k, -k) for _ in range(vals.ndim))]
    max_defect = float(np.max(vals))
    bound = (7.0 / 9.0) * force
    return DefectCertificate(max_defect, bound, max_defect <= bound + slack)


def asymptotic_gap(
    well: DoubleWell,
    table: ProfileTable,
    force: float,
    eps_list,
) -> list[tuple[float, float, float]]:
    """Per-eps normalized gaps between bulk roots and plateau values.

    For each eps the bulk roots under the forcing (8/9) * force, the roots
    of W'(r) = eps * (8/9) * force, are compared against the plateau values
    of the comparison field at saturation 2 * eps * ln(1/eps); rows are
    (eps, (lam_plus - plateau_plus) / eps, (lam_minus - plateau_minus) / eps).
    For positive forcing both gaps are positive with common limit force / 9.
    """
    if not (force > 0.0):
        raise ValueError("gap rates are defined for positive forcing")
    rows = []
    for eps in eps_list:
        schedule = make_schedule(float(eps))
        # the barrier argument compares against the bulk state forced at
        # (8/9) * force, strictly above the (7/9) * force defect bound
        lam_minus, lam_plus = bulk_roots(well, eps, (8.0 / 9.0) * force)
        beta_minus, beta_plus = far_field_values(
            table, eps, schedule.saturation, force
        )
        rows.append(
            (float(eps), (lam_plus - beta_plus) / eps, (lam_minus - beta_minus) / eps)
        )
    return rows
