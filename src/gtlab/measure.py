"""Energy measures of a diffuse field and the statistics built on them.

The energy density W(u)/eps + eps|grad u|^2/2 concentrates on interfaces as
eps shrinks; its mass per unit interface length approaches 2*sigma times the
local sheet count.  This module holds that density (the one the mixing
energy integrates), the sheet count of a ball derived from its mass, and
the far-from-interface deviation of the field from its bulk plateaus.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .field import Grid, gradient, integrate, squared_distance
from .potential import DoubleWell


def energy_density(
    values: np.ndarray, grid: Grid, well: DoubleWell, eps: float
) -> np.ndarray:
    """Cell-wise W(u)/eps + eps|grad u|^2/2, the integrand of the mixing energy."""
    density = well.value(values) / eps
    for g in gradient(values, grid.spacing):
        density = density + 0.5 * eps * g * g
    return density


def multiplicity_estimate(
    values: np.ndarray,
    grid: Grid,
    well: DoubleWell,
    eps: float,
    sigma: float,
    center,
    radius: float,
) -> float:
    """Sheets of interface through a ball: the energy in the ball over
    2*sigma times the (n-1)-ball volume omega_{n-1} r^{n-1}.

    A single transition crossing the ball diametrically gives 1; k parallel
    sheets give k.  The cross-section volumes are omega_0 = 1 (a point),
    omega_1 = 2 (a diameter has length 2r) and omega_2 = pi (a central disk).
    They are tabulated: the Gamma-function formula misses 2 by an ulp.
    """
    n = grid.ndim
    if n > 3:
        raise ValueError("sheet counts are defined on grids of dimension 1 to 3")
    values = np.asarray(values, dtype=float)
    if values.shape != grid.shape:
        raise ValueError("values shape does not match the grid")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    sq = squared_distance(grid, center, radius)
    inside = np.where(sq <= radius**2, energy_density(values, grid, well, eps), 0.0)
    omega = (1.0, 2.0, np.pi)[n - 1]
    return integrate(inside, grid) / (2.0 * sigma * omega * radius ** (n - 1))


def distance_to_points(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Distance from every cell center to a finite point set (interface
    vertices, shape (m, ndim)) by a KD-tree query."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.ndim:
        raise ValueError("points must have shape (m, ndim)")
    if pts.shape[0] == 0:
        raise ValueError("empty interface point set")
    mesh = grid.mesh()
    centers = np.column_stack([m.ravel() for m in mesh])
    dist, _ = cKDTree(pts).query(centers)
    return dist.reshape(grid.shape)


def bulk_deviation(
    values: np.ndarray,
    grid: Grid,
    interface_points: np.ndarray,
    margin: float,
    plus_value: float,
    minus_value: float,
) -> float:
    """Sup over cells at least margin away from the interface of the
    distance of the field to the bulk plateau of its own sign."""
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise ValueError("values shape does not match the grid")
    dist = distance_to_points(grid, interface_points)
    mask = dist >= margin
    if not np.any(mask):
        raise ValueError("margin leaves no bulk cells to check")
    dev = np.where(v > 0.0, np.abs(v - plus_value), np.abs(v - minus_value))
    return float(np.max(dev[mask]))
