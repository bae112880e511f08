"""Energy measures of a diffuse field and the statistics built on them.

The energy density eps|grad u|^2/2 + W(u)/eps concentrates on interfaces as
eps shrinks; its mass per unit interface length approaches 2*sigma times the
local sheet count.  This module computes the density, ball masses and the
derived multiplicity ratio, and the far-from-interface deviation of the
field from its bulk plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .field import Grid, gradient, integrate
from .potential import DoubleWell


@dataclass
class DiffuseMeasure:
    """Energy measure of one sampled field at one interface width."""

    grid: Grid
    well: DoubleWell
    eps: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("values shape does not match the grid")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")

    def _gradient_square(self) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        for g in gradient(self.values, self.grid.spacing):
            out += g * g
        return out

    def density(self) -> np.ndarray:
        return (
            0.5 * self.eps * self._gradient_square()
            + self.well.value(self.values) / self.eps
        )

    def mass_in_ball(self, center, radius: float) -> float:
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.size != self.grid.ndim:
            raise ValueError("center dimension does not match the grid")
        mesh = self.grid.mesh()
        sq = np.zeros(self.grid.shape)
        for j in range(self.grid.ndim):
            sq = sq + (mesh[j] - c[j]) ** 2
        mask = sq <= radius**2
        return integrate(np.where(mask, self.density(), 0.0), self.grid)

    def total_mass(self) -> float:
        return integrate(self.density(), self.grid)


def multiplicity_estimate(
    measure: DiffuseMeasure, sigma: float, center, radius: float
) -> float:
    """Sheets of interface through a ball: ball mass over 2*sigma times the
    (n-1)-ball volume omega_{n-1} r^{n-1}.

    A single transition crossing the ball diametrically gives 1; k parallel
    sheets give k.  In one dimension omega_0 = 1 (the interface is a point);
    in two omega_1 = 2 (a diameter has length 2r).
    """
    n = measure.grid.ndim
    omega = 1.0 if n == 1 else 2.0
    denom = 2.0 * sigma * omega * radius ** (n - 1)
    return measure.mass_in_ball(center, radius) / denom


def distance_to_points(grid: Grid, points: np.ndarray) -> np.ndarray:
    """Distance from every cell center to a finite point set (interface
    vertices); uses a KD-tree in two dimensions."""
    pts = np.asarray(points, dtype=float)
    if grid.ndim == 1:
        pts = pts.reshape(-1)
        if pts.size == 0:
            raise ValueError("empty interface point set")
        x = grid.axis(0)
        return np.min(np.abs(x[:, None] - pts[None, :]), axis=1)
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
