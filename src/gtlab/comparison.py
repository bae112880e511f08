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
comparison field, and the verdicts derived from its defect.  The field and
its defect are built in one pass over blocks of grid rows and handed to a
sink block by block; only the defect's interior maximum is kept, so the
memory a certificate needs does not grow with the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .field import Grid, laplacian
from .potential import DoubleWell, ProfileTable, bulk_roots, far_field_values

# Cells per row block of the comparison field: the block's temporaries stay
# small next to the field however large the grid.
_EVAL_BLOCK = 32768

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


@dataclass(frozen=True)
class CutoffSchedule:
    """Odd saturating map: identity near 0, constant +-saturation far out.

    ``value`` is the map itself, ``slope`` and ``curve`` its first and second
    derivatives, each evaluated elementwise on an array.  The taper is a
    quintic smoothstep in the slope, so the map is twice continuously
    differentiable, the slope stays in [0, 1], and the second derivative is
    one-signed on each half line with magnitude below 3 / saturation.
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

    def value(self, r, out=None, work=None):
        """The map at r, built in ``out`` with the pair of scratch arrays
        ``work`` when they are given (neither may be r), fresh otherwise."""
        r = np.asarray(r, dtype=float)
        if out is None:
            out = np.empty(r.shape)
        x, poly = (np.empty(r.shape), np.empty(r.shape)) if work is None else work
        a = np.abs(r, out=x)
        core = a <= self.taper_start
        # The saturated branch takes the constant itself, so every cell on
        # a plateau carries bitwise the same value.
        flat = a >= self.taper_start + self.taper_span
        x -= self.taper_start
        x /= self.taper_span
        np.clip(x, 0.0, 1.0, out=x)
        # the smoothstep's antiderivative vanishing at 0, x^4 (2.5 + x (x - 3))
        np.multiply(x, x, out=out)
        out *= x
        out *= x
        np.subtract(x, 3.0, out=poly)
        poly *= x
        poly += 2.5
        out *= poly
        # the ramp taper_start + taper_span * (x - integral)
        np.subtract(x, out, out=out)
        out *= self.taper_span
        out += self.taper_start
        np.abs(r, out=out, where=core)
        out[flat] = self.saturation
        np.copysign(out, r, out=out)
        return out if out.ndim else out[()]

    def slope(self, r):
        _, a, x = self._pieces(r)
        out = np.where(a <= self.taper_start, 1.0, 1.0 - _smoothstep(x))
        return np.where(a >= self.taper_start + self.taper_span, 0.0, out)

    def curve(self, r):
        r, a, x = self._pieces(r)
        mag = _smoothstep_prime(x) / self.taper_span
        out = -np.copysign(mag, r)
        return np.where(
            (a <= self.taper_start) | (a >= self.taper_start + self.taper_span),
            0.0,
            out,
        )


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

    def height(self, x, out=None, work=None):
        """Graph height over the base interval.

        With t = x - start_x and (tx, ty) the unit tangent at the start, the
        graph rises from the start height by the root near 0 of the arc's
        equation c r^2 - 2 tx r + g = 0, g = t (c t + 2 ty), written as
        g / (tx + sqrt(tx^2 - c g)) so that c = 0 gives the segment.

        The heights land in ``out``, with ``work`` as scratch, when they
        are given; either may be x itself.
        """
        (x0, y0), _ = self.ends()
        (tx, ty), _ = self.tangents()
        c = self.curvature
        x = np.asarray(x, dtype=float)
        t = np.subtract(x, x0, out=np.empty(x.shape) if out is None else out)
        g = np.multiply(c, t, out=np.empty(x.shape) if work is None else work)
        g += 2.0 * ty
        g *= t
        # y0 + g / (tx + sqrt(tx^2 - c g)), over t
        np.multiply(c, g, out=t)
        np.subtract(tx * tx, t, out=t)
        np.sqrt(t, out=t)
        t += tx
        np.divide(g, t, out=t)
        t += y0
        return float(t) if t.ndim == 0 else t


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


def signed_distance(patch: GraphPatch, points, out=None, work=None) -> np.ndarray:
    """Exact distance to the graph, positive on or above it, at each row
    of the (m, 2) array points.

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

    The distances land in ``out`` when it is given, and ``work``, three
    scratch arrays of length m, takes every intermediate; the field
    assembly passes the same ones for every block, so its blocks allocate
    nothing of their size.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (m, 2)")
    m = len(pts)
    if out is None:
        out = np.empty(m)
    qx, qy, scratch = (np.empty(m) for _ in range(3)) if work is None else work
    (x0, y0), (x1, y1) = patch.ends()
    (tx0, ty0), (tx1, ty1) = patch.tangents()
    c = patch.curvature
    x, y = pts[:, 0], pts[:, 1]
    below = y < patch.height(np.clip(x, x0, x1, out=qx), out=qx, work=qy)
    np.subtract(x, x0, out=qx)
    np.subtract(y, y0, out=qy)
    # beyond the end normals: q.t0 < 0 or (p - end).t1 > 0
    np.multiply(qx, tx0, out=out)
    out += np.multiply(qy, ty0, out=scratch)
    beyond = out < 0.0
    np.subtract(x, x1, out=out)
    out *= tx1
    np.subtract(y, y1, out=scratch)
    scratch *= ty1
    out += scratch
    beyond |= out > 0.0
    # |2 q.m - c |q|^2| with m = (-ty0, tx0): qy (2 tx0 - c qy) - qx (2 ty0 + c qx)
    np.multiply(c, qy, out=out)
    np.subtract(2.0 * tx0, out, out=out)
    out *= qy
    np.multiply(c, qx, out=scratch)
    scratch += 2.0 * ty0
    scratch *= qx
    out -= scratch
    np.abs(out, out=out)
    ends = np.minimum(
        np.hypot(qx[beyond], qy[beyond]), np.hypot(x[beyond] - x1, y[beyond] - y1)
    )
    # over 1 + |c q - m| = 1 + hypot(c qx + ty0, c qy - tx0)
    np.multiply(c, qx, out=scratch)
    scratch += ty0
    np.multiply(c, qy, out=qy)
    qy -= tx0
    np.hypot(scratch, qy, out=scratch)
    scratch += 1.0
    out /= scratch
    out[beyond] = ends
    np.negative(out, out=out, where=below)
    return out


@dataclass(frozen=True, eq=False)
class SubsolutionField:
    """What a comparison field leaves behind once its blocks are written.

    ``max_defect`` is the largest defect -eps * lap(v) + W'(v) / eps over
    the interior cells (``interior_max``); ``plateau_minus`` and
    ``plateau_plus`` are the exact constants the field takes below and
    above the saturation tube.  The field and its defect themselves go to
    the sink of ``build_subsolution`` block by block and are not kept.
    """

    max_defect: float
    force: float
    plateau_minus: float
    plateau_plus: float


class DefectCertificate(NamedTuple):
    max_defect: float
    bound: float
    passed: bool


# Cell layers next to each wall left out of the defect verdict.
_WALL_LAYERS = 2


def interior_max(defect: np.ndarray, start: int, shape: tuple[int, int]) -> float:
    """Largest defect over the interior cells of a block of grid rows.

    ``defect`` holds rows start, start + 1, ... of a grid of ``shape``;
    the two cell layers at each wall are left out, since the zero-flux
    stencil is wrong where the field still varies.  A block of wall rows
    only gives -inf, so a running maximum over the blocks is the maximum
    over the whole interior.
    """
    k = _WALL_LAYERS
    if any(n <= 2 * k for n in shape):
        raise ValueError("grid too small for the wall exclusion")
    lo = max(k - start, 0)
    hi = min(shape[0] - k - start, len(defect))
    inner = defect[lo:hi, k:-k]
    return float(np.max(inner)) if inner.size else -np.inf


def build_subsolution(
    patch: GraphPatch,
    schedule: CutoffSchedule,
    table: ProfileTable,
    force: float,
    grid: Grid,
    write: Callable[[slice, np.ndarray, np.ndarray], None],
) -> SubsolutionField:
    """Profile riding on the saturated signed distance to the graph.

    The field is phi0(b(d)/eps) + eps * (2/(3 sigma)) * force * phi1(b(d)/eps)
    with d the signed distance to the patch and b the cutoff schedule; its
    defect -eps * lap + W'/eps is evaluated with the grid Laplacian.  Both
    are built one block of grid rows at a time, in row order, and each
    finished block goes to ``write(rows, values, defect)`` with rows the
    block's slice of the grid's first axis; only the interior maximum of
    the defect is kept.  The two arrays are reused for later blocks, so a
    sink that keeps a block copies it.  The grid box must contain
    the saturation tube of the front: the graph must span the box
    horizontally and clear the top and bottom walls by twice the saturation
    length.
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

    # One pass over blocks of grid rows, each built in arrays made once
    # here and reused for every block, so a block allocates nothing of its
    # size and the peak memory is a few blocks.  Every step is cell by cell
    # except the Laplacian, which sees its block plus one halo row on each
    # interior side and keeps only the block's own rows: the flux-form
    # stencil then gives each cell the bits of the whole-grid call, and only
    # the true walls get the wall formula.  The field of the next block is
    # therefore built before the defect of the current one.  A block's
    # field sits in rows 1.. of one of two slabs, between its halo rows.
    xs, ys = grid.axes()
    rows = max(1, _EVAL_BLOCK // ys.size)
    coeff = eps * (2.0 / (3.0 * table.sigma)) * force
    centres = np.empty((rows, ys.size, 2))
    centres[:, :, 1] = ys
    dist, *work = np.empty((4, rows * ys.size))
    slabs = np.empty((2, rows + 2, ys.size))
    lap, *lap_work = np.empty((3, rows + 2, ys.size))

    def field(start, slab):
        bx = xs[start : start + rows]
        points = centres[: bx.size]
        points[:, :, 0] = bx[:, None]
        values = slab[1 : 1 + bx.size]
        flat = values.reshape(-1)
        m = flat.size
        scratch = [w[:m] for w in work]
        signed_distance(patch, points.reshape(-1, 2), out=dist[:m], work=scratch)
        schedule.value(dist[:m], out=flat, work=scratch[:2])
        flat /= eps
        # phi0 + coeff * phi1 in one closed-form evaluation
        table._eval(1.0, coeff, flat, out=flat, work=scratch[0])
        return values

    max_defect = -np.inf
    values = field(0, slabs[0])
    for block, start in enumerate(range(0, xs.size, rows)):
        slab, other = slabs[block % 2], slabs[1 - block % 2]
        n = len(values)
        # the halo rows: the last row of the previous block, a full one in
        # the other slab, and the first of the next, built there now
        lo = 1
        if start > 0:
            slab[0] = other[rows]
            lo = 0
        hi = 1 + n
        ahead = None
        if start + rows < xs.size:
            ahead = field(start + rows, other)
            slab[hi] = ahead[0]
            hi += 1
        k = hi - lo
        fluxes = [w[:k] for w in lap_work]
        laplacian(slab[lo:hi], grid.spacing, out=lap[:k], work=fluxes)
        # -eps * lap + W'(values) / eps
        defect = lap[1 - lo : 1 - lo + n]
        defect *= -eps
        well_term = DoubleWell.derivative(values, out=lap_work[0][:n])
        well_term /= eps
        defect += well_term
        # np.maximum, not max: a NaN anywhere in the defect is kept
        max_defect = np.maximum(max_defect, interior_max(defect, start, grid.shape))
        write(slice(start, start + n), values, defect)
        values = ahead
    plateau_minus, plateau_plus = far_field_values(table, eps, delta, force)
    return SubsolutionField(
        max_defect=float(max_defect),
        force=float(force),
        plateau_minus=plateau_minus,
        plateau_plus=plateau_plus,
    )


def verify_subsolution(sub: SubsolutionField, slack: float) -> DefectCertificate:
    """Check the defect of a comparison field against its forcing scale.

    The verdict compares the largest defect over interior cells
    (``sub.max_defect``, two layers at each wall excluded) with
    (7/9) * sub.force plus a slack that absorbs the grid Laplacian
    truncation error.
    Positive forcing is required; the one-sided construction has no
    content otherwise.
    """
    force = sub.force
    if not (force > 0.0):
        raise ValueError("the defect bound applies to positive forcing only")
    max_defect = sub.max_defect
    bound = (7.0 / 9.0) * force
    return DefectCertificate(max_defect, bound, max_defect <= bound + slack)


def asymptotic_gap(table: ProfileTable, force: float, eps: float) -> tuple[float, float]:
    """Normalized gaps between bulk roots and plateau values at one width.

    The bulk roots under the forcing (8/9) * force, the roots of
    W'(r) = eps * (8/9) * force, are compared against the plateau values of
    the comparison field at saturation 2 * eps * ln(1/eps); the result is
    ((lam_plus - plateau_plus) / eps, (lam_minus - plateau_minus) / eps).
    For positive forcing both gaps are positive with common limit force / 9.
    """
    if not (force > 0.0):
        raise ValueError("gap rates are defined for positive forcing")
    schedule = make_schedule(float(eps))
    # the barrier argument compares against the bulk state forced at
    # (8/9) * force, strictly above the (7/9) * force defect bound
    lam_minus, lam_plus = bulk_roots(eps, (8.0 / 9.0) * force)
    beta_minus, beta_plus = far_field_values(table, eps, schedule.saturation, force)
    return (lam_plus - beta_plus) / eps, (lam_minus - beta_minus) / eps
