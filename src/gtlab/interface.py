"""Zero-set extraction and curvature measurement on cell-center lattices.

The zero set of a sampled field is traced over the squares of the lattice
of cell centers whose corner signs differ (16-case lookup, classified for
all squares at once; saddles resolved by the cell-average sign), chained
into polylines through shared edge crossings; in 1D it is the list of
interpolated sign changes.  Curvature along a closed loop comes from an
algebraic circle fit over a sliding arclength window that wraps around the
loop; its sign follows the field gradient, positive when the enclosed phase
is the positive one.  Those two ingredients feed the sup of the pointwise
curvature-balance residual sigma*kappa - f.
"""

from __future__ import annotations

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

    # A crossing lies on a lattice edge, which borders at most two squares,
    # and no two squares share two edges: every crossing joins one or two
    # distinct others, so each component is a path or a loop, and the next
    # vertex of a walk is the neighbour it did not come from.  Paths start
    # at their smaller endpoint, loops at their smallest key.
    endpoints = sorted(k for k, adj in neighbors.items() if len(adj) == 1)
    visited = set()
    out = []
    for start in endpoints + sorted(neighbors):
        if start in visited:
            continue
        path = [start, neighbors[start][0]]
        while len(neighbors[path[-1]]) == 2:
            a, b = neighbors[path[-1]]
            nxt = b if a == path[-2] else a
            if nxt == start:
                break
            path.append(nxt)
        visited.update(path)
        pts = np.array([position(k) for k in path])
        out.append(Contour(points=pts, closed=len(neighbors[path[-1]]) == 2))
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


# Window rows per chunk of the batched fit: the chunk's stack and its left
# singular vectors stay near 1.5 MB apiece however long the loop.
_FIT_ROWS = 1 << 16


def curvature(
    contour: Contour,
    grid: Grid,
    grad_fields: tuple[np.ndarray, np.ndarray],
    window: float,
) -> np.ndarray:
    """Signed curvature at every vertex of a closed loop by windowed circle fit.

    The fit uses all vertices within arclength window/2 on either side,
    wrapping around the loop; an open contour is rejected.  Each vertex's
    fit is the algebraic (Kasa) least-squares circle through its window,
    [2x 2y 1] (cx, cy, c) = x^2 + y^2, with radius^2 = c + |center|^2.  A
    degenerate (collinear) window gives curvature 0.  The sign convention
    makes the curvature of a bubble of the positive phase positive: kappa
    carries the sign of (fit center - vertex) . grad(u).

    All windows are solved at once: each holds its vertices in index order
    and is zero-padded to the widest, and zero rows leave a least-squares
    fit unchanged.  The stack is solved by SVD in chunks of vertices, with
    numpy.linalg.lstsq's rank test and a 1e-12 bound on the ratio of the
    extreme singular values.
    """
    if not contour.closed:
        raise ValueError("curvature is measured on closed loops only")
    pts = contour.points
    m = len(pts)
    seg = np.linalg.norm(np.diff(pts, axis=0, append=pts[:1]), axis=1)
    gx = sample(grad_fields[0], grid, pts)
    gy = sample(grad_fields[1], grid, pts)
    half = window / 2.0
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    cum = cum[:-1]  # one arclength per vertex; total closes the loop
    # the farthest window member on either side, bounded through the
    # unrolled arclengths with one vertex to spare for rounding; offsets
    # that reach past half the loop would visit a vertex twice
    unrolled = np.concatenate([cum - total, cum, cum + total])
    own = np.arange(m) + m
    reach = max(
        int(np.max(np.searchsorted(unrolled, cum + half, side="right") - 1 - own)),
        int(np.max(own - np.searchsorted(unrolled, cum - half, side="left"))),
    )
    offsets = np.arange(max(-reach - 1, -((m - 1) // 2)), min(reach + 1, m // 2) + 1)
    squares = np.sum(pts**2, axis=1)
    kappa = np.empty(m)
    chunk = max(1, _FIT_ROWS // offsets.size)
    for lo in range(0, m, chunk):
        k = np.arange(lo, min(lo + chunk, m))
        idx = (k[:, None] + offsets) % m
        # the window: cyclic arclength distance at most half
        d = np.abs(cum[idx] - cum[k, None])
        inside = np.minimum(d, total - d) <= half
        # each window's vertices first, in index order, then its zero rows
        idx = np.sort(np.where(inside, idx, m), axis=1)
        inside = idx < m
        idx[~inside] = 0
        ax = np.empty(idx.shape + (3,))
        np.multiply(2.0, pts[idx], out=ax[..., :2])
        ax[..., 2] = 1.0
        ax *= inside[..., None]
        rhs = np.where(inside, squares[idx], 0.0)
        u, svals, vt = np.linalg.svd(ax, full_matrices=False)
        # lstsq's rank test, rcond = eps * max(rows, columns)
        rows = np.maximum(np.count_nonzero(inside, axis=1), 3)
        cutoff = np.maximum(1e-12, np.finfo(float).eps * rows) * svals[:, 0]
        degenerate = svals[:, -1] <= cutoff
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.einsum("kri,kr->ki", u, rhs) / svals
        sol = np.einsum("kij,ki->kj", vt, coef)
        cx, cy = sol[:, 0], sol[:, 1]
        r2 = sol[:, 2] + (cx * cx + cy * cy)
        orient = (cx - pts[k, 0]) * gx[k] + (cy - pts[k, 1]) * gy[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            fitted = ~degenerate & (r2 > 0.0)
            kappa[k] = np.where(fitted, np.copysign(1.0 / np.sqrt(r2), orient), 0.0)
    return kappa


def curvature_balance(
    kappa: np.ndarray,
    force: np.ndarray,
    sigma: float,
) -> float:
    """Sup over the vertices of the residual sigma*kappa - force.

    force holds the driving value at each vertex (a constant multiplier, a
    prescribed forcing sampled there, or multiplier minus potential).  A NaN
    entry makes the sup NaN, so every gate on it fails.
    """
    res = sigma * np.asarray(kappa, dtype=float) - np.asarray(force, dtype=float)
    return float(np.max(np.abs(res)))
