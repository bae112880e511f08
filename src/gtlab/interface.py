"""Zero-set extraction and curvature measurement on cell-center lattices.

The zero set of a sampled field is traced over the squares of the lattice
of cell centers whose corner signs differ (16-case lookup, classified for
all squares at once; saddles resolved by the cell-average sign), chained
into polylines through shared edge crossings; in 1D it is the list of
interpolated sign changes.  Curvature along a polyline comes from an
algebraic circle fit over a sliding arclength window, which wraps around
closed loops and is left out (NaN) where an open end clips it; its sign
follows the field gradient, positive when the enclosed phase is the
positive one.  Those two ingredients feed the sup of the pointwise
curvature-balance residual sigma*kappa - f.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .field import Grid, sample

# undirected segment table: case -> pairs of square edges joined by the
# contour.  Edges of the square at (i, j): S/N horizontal below/above,
# W/E vertical left/right.  Corner bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1),
# 8=(i,j+1), set when the corner value is positive.
_SEGMENTS = {
    0: [],
    1: [("W", "S")],
    2: [("S", "E")],
    3: [("W", "E")],
    4: [("E", "N")],
    6: [("S", "N")],
    7: [("W", "N")],
    8: [("N", "W")],
    9: [("S", "N")],
    11: [("E", "N")],
    12: [("W", "E")],
    13: [("S", "E")],
    14: [("W", "S")],
    15: [],
}


@dataclass
class Contour:
    points: np.ndarray  # (m, 2) vertex coordinates in traversal order
    closed: bool


def _edge_key(name: str, i: int, j: int):
    if name == "S":
        return ("h", i, j)
    if name == "N":
        return ("h", i, j + 1)
    if name == "W":
        return ("v", i, j)
    return ("v", i + 1, j)


def extract_contours(values: np.ndarray, grid: Grid):
    """Trace the zero set into polylines; deterministic ordering.

    Returns a list of Contour objects.  Closed loops do not repeat their
    first vertex.  Vertices are linear interpolations along lattice edges,
    so a field that is linear across an edge is cut exactly.
    """
    if grid.ndim != 2:
        raise ValueError("contour extraction needs a 2D grid")
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise ValueError("values shape does not match the grid")
    x, y = grid.axes()
    inside = v > 0.0

    # adjacency between edge crossings
    neighbors: dict = {}

    def connect(a, b):
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)

    # corner-sign case of every square at once; only the squares the zero
    # set crosses are traced, in row-major order
    bits = inside.astype(np.int8)
    cases = bits[:-1, :-1] | bits[1:, :-1] << 1 | bits[1:, 1:] << 2 | bits[:-1, 1:] << 3
    rows, cols = np.nonzero((cases != 0) & (cases != 15))
    for i, j, case in zip(rows.tolist(), cols.tolist(), cases[rows, cols].tolist()):
        if case == 5 or case == 10:
            # saddle: the W-N and S-E segments cut off the (i, j+1) and
            # (i+1, j) corners, the right pairing when those corners are
            # negative (case 5) and the cell average is positive, or they
            # are positive (case 10) and the average is not
            center = 0.25 * (v[i, j] + v[i + 1, j] + v[i + 1, j + 1] + v[i, j + 1])
            if (case == 5) == (center > 0.0):
                pairs = [("W", "N"), ("S", "E")]
            else:
                pairs = [("W", "S"), ("E", "N")]
        else:
            pairs = _SEGMENTS[case]
        for a, b in pairs:
            connect(_edge_key(a, i, j), _edge_key(b, i, j))

    def position(key):
        kind, i, j = key
        if kind == "h":
            a, b = v[i, j], v[i + 1, j]
            t = -a / (b - a)
            return (x[i] + t * grid.spacing, y[j])
        a, b = v[i, j], v[i, j + 1]
        t = -a / (b - a)
        return (x[i], y[j] + t * grid.spacing)

    visited = set()
    contours = []

    def walk(start, first_step):
        path = [start, first_step]
        visited.add(start)
        visited.add(first_step)
        while True:
            options = [k for k in neighbors[path[-1]] if k != path[-2]]
            options = [k for k in options if k not in visited or k == path[0]]
            if not options:
                return path, False
            nxt = options[0]
            if nxt == path[0]:
                return path, True
            path.append(nxt)
            visited.add(nxt)

    # open paths first (deterministic: sorted endpoints), then loops
    endpoints = sorted(k for k, adj in neighbors.items() if len(adj) == 1)
    for key in endpoints:
        if key in visited:
            continue
        path, closed = walk(key, neighbors[key][0])
        contours.append((path, closed))
    for key in sorted(neighbors):
        if key in visited:
            continue
        path, closed = walk(key, neighbors[key][0])
        contours.append((path, closed))

    out = []
    for path, closed in contours:
        pts = np.array([position(k) for k in path])
        out.append(Contour(points=pts, closed=closed))
    return out


def zero_crossings_1d(values: np.ndarray, grid: Grid):
    """Linearly interpolated zero crossings of a 1D cell-center sample."""
    if grid.ndim != 1:
        raise ValueError("needs a 1D grid")
    v = np.asarray(values, dtype=float)
    x = grid.axis(0)
    sign = v > 0.0
    hits = np.nonzero(sign[1:] != sign[:-1])[0]
    t = -v[hits] / (v[hits + 1] - v[hits])
    return x[hits] + t * grid.spacing


def _arclengths(points: np.ndarray, closed: bool) -> np.ndarray:
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if closed:
        seg = np.append(seg, np.linalg.norm(points[0] - points[-1]))
    return seg


def _fit_circle(pts: np.ndarray):
    """Algebraic circle fit; returns (center, radius) or None if degenerate."""
    ax = np.column_stack([2.0 * pts, np.ones(len(pts))])
    rhs = np.sum(pts**2, axis=1)
    sol, _, rank, svals = np.linalg.lstsq(ax, rhs, rcond=None)
    if rank < 3 or svals[-1] <= 1e-12 * svals[0]:
        return None
    center = sol[:2]
    r2 = sol[2] + center @ center
    if r2 <= 0.0:
        return None
    return center, float(np.sqrt(r2))


def curvature(
    contour: Contour,
    grid: Grid,
    grad_fields: tuple[np.ndarray, np.ndarray],
    window: float,
) -> np.ndarray:
    """Signed curvature at every polyline vertex by windowed circle fit.

    The fit uses all vertices within arclength window/2 on either side.
    On open polylines, vertices whose window is clipped by an endpoint get
    NaN (downstream statistics trim them).  The sign convention makes the
    curvature of a bubble of the positive phase positive: kappa carries the
    sign of (fit center - vertex) . grad(u).
    """
    pts = contour.points
    m = len(pts)
    if m < 3:
        return np.full(m, np.nan)
    seg = _arclengths(pts, contour.closed)
    gx = sample(grad_fields[0], grid, pts)
    gy = sample(grad_fields[1], grid, pts)
    kappa = np.full(m, np.nan)
    half = window / 2.0
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if contour.closed:
        cum = cum[:-1]  # one arclength per vertex; total closes the loop
    for k in range(m):
        if contour.closed:
            d = np.abs(cum - cum[k])
            idx = np.nonzero(np.minimum(d, total - d) <= half)[0]
        else:
            lo = cum[k] - half
            hi = cum[k] + half
            if lo < 0.0 or hi > total:
                continue  # clipped window: leave NaN
            idx = np.nonzero((cum >= lo) & (cum <= hi))[0]
            if len(idx) < 3:
                continue
        fit = _fit_circle(pts[idx])
        if fit is None:
            kappa[k] = 0.0
            continue
        center, radius = fit
        orient = (center[0] - pts[k, 0]) * gx[k] + (center[1] - pts[k, 1]) * gy[k]
        kappa[k] = np.copysign(1.0 / radius, orient)
    return kappa


def curvature_balance(
    kappa: np.ndarray,
    force: np.ndarray,
    sigma: float,
) -> float:
    """Sup over the vertices of the residual sigma*kappa - force.

    force holds the driving value at each vertex (a constant multiplier, a
    prescribed forcing sampled there, or multiplier minus potential).  NaN
    curvature entries are excluded.
    """
    res = sigma * np.asarray(kappa, dtype=float) - np.asarray(force, dtype=float)
    good = ~np.isnan(res)
    if not np.any(good):
        raise ValueError("no usable vertices: all curvatures are NaN")
    return float(np.max(np.abs(res[good])))


def write_contour_csv(path, contour: Contour, kappa, force, sigma: float) -> None:
    """Vertex table: index,x,y,kappa,f,residual (NaN rows included as-is)."""
    kappa = np.asarray(kappa, dtype=float)
    force = np.asarray(force, dtype=float)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "x", "y", "kappa", "f", "residual"])
        for k, (p, kap, f) in enumerate(zip(contour.points, kappa, force)):
            writer.writerow(
                [
                    k,
                    "%.17g" % p[0],
                    "%.17g" % p[1],
                    "%.17g" % kap,
                    "%.17g" % f,
                    "%.17g" % (sigma * kap - f),
                ]
            )
