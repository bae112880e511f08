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
A front of constant curvature in the plane is a circular arc (a segment at
curvature 0), so the graph, its heights and its signed distance are closed
forms.  The pieces here build those graphs, the cutoff schedule, the
comparison field, and the verdicts derived from its defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import Grid, ScalarField, laplacian
from .potential import DoubleWell, ProfileTable, bulk_roots, far_field_values

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


@dataclass(frozen=True)
class GraphPatch:
    """Height graph of constant curvature over [center - radius, center + radius].

    The graph runs from (center - radius, left) to (center + radius, right).
    With curvature c != 0 it is the arc of radius 1/|c| through those two
    points, convex for c > 0 and concave for c < 0; with c = 0 it is the
    segment between them.  Heights and distances are closed forms in the
    start point, the unit tangents at the ends and c: one formula serves arcs
    and segments, and none of them goes through the circle's centre, which
    lies 1/|c| away and would cost digits for small |c|.
    """

    center: float
    radius: float
    left: float
    right: float
    curvature: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        values = (self.center, self.left, self.right, self.curvature)
        if not np.all(np.isfinite(values)):
            raise ValueError(
                f"center, boundary heights and curvature must be finite, got {values}"
            )
        # an arc through both ends exists while the chord is shorter than the
        # diameter, and it is a graph while both end tangents point right
        half_chord = 0.5 * np.hypot(2.0 * self.radius, self.right - self.left)
        if not (
            abs(self.curvature) * half_chord < 1.0
            and np.all(self.tangents()[:, 0] > 0.0)
        ):
            raise ValueError(
                f"curvature {self.curvature:.6g} over the base of radius "
                f"{self.radius:.6g} from height {self.left:.6g} to {self.right:.6g}: "
                "no graph of this curvature spans the base"
            )

    def ends(self) -> np.ndarray:
        """The two boundary points as rows (x, height)."""
        lo, hi = self.center - self.radius, self.center + self.radius
        return np.array([[lo, self.left], [hi, self.right]])

    def tangents(self) -> np.ndarray:
        """Unit tangents at the two ends as rows, pointing to larger x.

        Each is the chord direction turned by half the arc's turning angle,
        whose sine is curvature * half chord: below the chord at the start of
        a convex arc and above it at the end.
        """
        start, end = self.ends()
        chord = end - start
        length = np.hypot(*chord)
        along = chord / length
        normal = np.array([-along[1], along[0]])
        sin = 0.5 * self.curvature * length
        cos = np.sqrt(1.0 - sin * sin)
        return np.array([cos * along - sin * normal, cos * along + sin * normal])

    def height(self, x):
        """Graph height over the base interval.

        With t = x - start_x and (tx, ty) the unit tangent at the start, the
        graph rises from the start height by the root near 0 of the arc's
        equation c r^2 - 2 tx r + g = 0, g = t (c t + 2 ty), written as
        g / (tx + sqrt(tx^2 - c g)) so that c = 0 gives the segment.
        """
        (x0, y0), _ = self.ends()
        (tx, ty), _ = self.tangents()
        c = self.curvature
        t = np.asarray(x, dtype=float) - x0
        g = t * (c * t + 2.0 * ty)
        out = y0 + g / (tx + np.sqrt(tx * tx - c * g))
        return float(out) if out.ndim == 0 else out


def solve_cmc_graph(
    center: float,
    radius: float,
    boundary: tuple[float, float],
    curvature: float,
) -> GraphPatch:
    """Height graph of prescribed constant curvature over a base interval.

    The solution of the two-point problem

        psi'' = curvature * (1 + psi'^2)^(3/2)

    with Dirichlet values ``boundary`` at the base endpoints is the circular
    arc of radius 1/|curvature| through the two boundary points (a segment
    for curvature 0), returned in closed form.  Boundary values and a
    curvature for which no such arc is a graph over the whole base, among
    them every |curvature| * radius >= 1, are rejected.
    """
    left, right = boundary
    return GraphPatch(
        float(center), float(radius), float(left), float(right), float(curvature)
    )


def signed_distance(patch: GraphPatch, points) -> np.ndarray | float:
    """Exact distance to the graph, positive on or above it.

    With q = p - start, m the upward unit normal at the start and c the
    curvature, a point's distance to the whole circle (or line) that carries
    the graph is the magnitude of

        (2 q.m - c |q|^2) / (1 + |c q - m|),

    which is sign(c) * (1/|c| - |p - centre|) rewritten without the centre.
    That is the distance to the graph where the point lies in the arc's
    sector, between the normal lines at the two ends; elsewhere the nearest
    graph point is the nearer end.  The sign compares the vertical
    coordinate with the height at the horizontal position clipped to the
    base, the exact side test for a height graph.  A flat front at height 0
    gives y itself.
    """
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    (x0, y0), (x1, y1) = patch.ends()
    (tx0, ty0), (tx1, ty1) = patch.tangents()
    c = patch.curvature
    x, y = pts[:, 0], pts[:, 1]
    # Ordered and written in place so that at most five point-sized arrays
    # are alive at once: on a study grid this stays below the peak memory of
    # the field assembly that follows.
    below = y < patch.height(np.clip(x, x0, x1))
    qx, qy = x - x0, y - y0
    beyond = (qx * tx0 + qy * ty0 < 0.0) | ((x - x1) * tx1 + (y - y1) * ty1 > 0.0)
    # 2 q.m - c |q|^2 with m = (-ty0, tx0)
    dist = np.abs(qy * (2.0 * tx0 - c * qy) - qx * (2.0 * ty0 + c * qx))
    den = c * qx + ty0
    dist /= np.hypot(den, c * qy - tx0, out=den) + 1.0
    dist[beyond] = np.minimum(
        np.hypot(qx[beyond], qy[beyond]), np.hypot(x[beyond] - x1, y[beyond] - y1)
    )
    np.negative(dist, out=dist, where=below)
    return float(dist[0]) if scalar else dist


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
    (base_lo, _), (base_hi, _) = patch.ends()
    if base_lo > x_lo or base_hi < x_hi:
        raise ValueError("graph base does not span the grid horizontally")
    heights = patch.height(grid.axis(0))
    top_gap = y_hi - float(np.max(heights))
    bottom_gap = float(np.min(heights)) - y_lo
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


def verify_subsolution(sub: SubsolutionField, slack: float) -> DefectCertificate:
    """Check the defect of a comparison field against its forcing scale.

    The verdict compares the largest defect over interior cells (two layers
    at each wall excluded: the zero-flux stencil is wrong where the field
    still varies) with (7/9) * sub.force plus a slack that absorbs the grid
    Laplacian truncation error.
    Positive forcing is required; the one-sided construction has no
    content otherwise.
    """
    force = sub.force
    if not (force > 0.0):
        raise ValueError("the defect bound applies to positive forcing only")
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
