"""Cell-centered grids and the discrete field operations built on them.

Grids are uniform, cell centered, with the same spacing on every axis.
The Laplacian is the zero-flux (reflecting) five-point operator written in
flux form: per axis, interior face differences with zero boundary fluxes,
differenced again.  That form is symmetric with respect to the plain dot
product, mirrors bitwise under coordinate reflection, and avoids the
cancellation noise of the expanded three-term stencil.

The Poisson solver inverts the same discrete operator exactly through its
cosine-basis diagonalization, so solver output and stencil agree to
rounding, not just to truncation order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.fft import dctn, idctn


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on an axis-aligned box.

    The cell centers along axis j sit at origin[j] + (i + 1/2) * spacing,
    i = 0 .. shape[j]-1.  One spacing is shared by all axes.
    """

    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("grid spacing must be positive")
        if len(self.origin) != len(self.shape):
            raise ValueError("origin and shape dimensions disagree")
        if any(n < 2 for n in self.shape):
            raise ValueError("each axis needs at least 2 cells")

    @classmethod
    def box(cls, lower, upper, n_cells) -> "Grid":
        """Grid of n_cells[j] cells on [lower[j], upper[j]], one per axis.

        The spacing is taken from axis 0; every other axis must give the
        same one, so the cells are square (cubic) in any dimension.
        """
        if not len(lower) == len(upper) == len(n_cells):
            raise ValueError("lower, upper and n_cells dimensions disagree")
        widths = [hi - lo for lo, hi in zip(lower, upper)]
        if any(w <= 0.0 for w in widths):
            raise ValueError("box bounds are out of order")
        spacing = widths[0] / n_cells[0]
        if any(abs(w / n - spacing) > 1e-12 * spacing for w, n in zip(widths, n_cells)):
            raise ValueError("cells must be square; adjust counts or bounds")
        return cls(
            tuple(float(lo) for lo in lower),
            spacing,
            tuple(int(n) for n in n_cells),
        )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.ndim

    def axis(self, j: int) -> np.ndarray:
        n = self.shape[j]
        return self.origin[j] + (np.arange(n) + 0.5) * self.spacing

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis(j) for j in range(self.ndim))

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of every cell center, indexed like the values."""
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def upper(self) -> tuple[float, ...]:
        return tuple(
            self.origin[j] + self.shape[j] * self.spacing for j in range(self.ndim)
        )


def _moved(values: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(values, axis, 0)


def laplacian(values: np.ndarray, spacing: float) -> np.ndarray:
    """Zero-flux five-point Laplacian in flux form."""
    out = np.zeros_like(values)
    d = np.empty_like(values)
    for axis in range(values.ndim):
        f = _moved(np.diff(values, axis=axis), axis)
        dm = _moved(d, axis)
        # the difference of the face fluxes with zero wall fluxes, written
        # as (f - 0.0) and (0.0 - f) so signed zeros come out as they would
        # from the padded flux array
        dm[0] = f[0]
        np.subtract(f[1:], f[:-1], out=dm[1:-1])
        dm[-1] = 0.0 - f[-1]
        out += d
    out /= spacing**2
    return out


def gradient(values: np.ndarray, spacing: float) -> tuple[np.ndarray, ...]:
    """Centered interior differences, one-sided first order at the walls."""
    parts = []
    for axis in range(values.ndim):
        v = _moved(values, axis)
        g = np.empty_like(v)
        g[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
        g[0] = (v[1] - v[0]) / spacing
        g[-1] = (v[-1] - v[-2]) / spacing
        parts.append(np.moveaxis(g, 0, axis))
    return tuple(parts)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Midpoint quadrature: every cell carries the same volume."""
    return float(np.sum(values)) * grid.cell_volume


def squared_distance(grid: Grid, center, radius: float) -> np.ndarray:
    """Squared distance from every cell center to the center of a ball of
    positive radius; the radius is checked here, the caller compares."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = np.atleast_1d(np.asarray(center, dtype=float))
    if c.size != grid.ndim:
        raise ValueError("center dimension does not match the grid")
    sq = np.zeros(grid.shape)
    for m, cj in zip(grid.mesh(), c):
        sq = sq + (m - cj) ** 2
    return sq


def sample(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Clamped multilinear interpolation at arbitrary points.

    points has shape (m, ndim) (or (m,) in one dimension).  Outside the
    span of the cell centers the interpolant is extended by its boundary
    value (clamping), which is the right behaviour for fields that have
    reached their far-field plateau at the walls.
    """
    pts = np.asarray(points, dtype=float)
    if grid.ndim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != grid.ndim:
        raise ValueError("points must have shape (m, ndim)")
    m = pts.shape[0]
    base = np.empty((m, grid.ndim), dtype=int)
    frac = np.empty((m, grid.ndim))
    for j in range(grid.ndim):
        n = grid.shape[j]
        t = (pts[:, j] - grid.origin[j]) / grid.spacing - 0.5
        t = np.clip(t, 0.0, n - 1.0)
        i0 = np.minimum(t.astype(int), n - 2)
        base[:, j] = i0
        frac[:, j] = t - i0
    out = np.zeros(m)
    for corner in itertools.product((0, 1), repeat=grid.ndim):
        weight = np.ones(m)
        index = []
        for j, c in enumerate(corner):
            weight = weight * (frac[:, j] if c else 1.0 - frac[:, j])
            index.append(base[:, j] + c)
        out += weight * values[tuple(index)]
    return out


def neumann_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap in the orthonormal cosine basis of the reflecting
    grid, one per mode, as a full array shaped like the grid.

    Mode (k_0, .., k_d) has the eigenvalue sum_j (4/h^2) sin^2(pi k_j / 2n_j);
    mode 0, the constants, has eigenvalue 0.
    """
    out = np.zeros(grid.shape)
    for j, n in enumerate(grid.shape):
        lam = (4.0 / grid.spacing**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        shape = [1] * grid.ndim
        shape[j] = n
        out += lam.reshape(shape)
    return out


@functools.lru_cache(maxsize=8)
def _poisson_denominator(grid: Grid) -> np.ndarray:
    """The symbol of -lap with its zero (constant) mode set to 1; read-only,
    since every solve on the grid shares it."""
    denom = neumann_symbol(grid)
    denom.flat[0] = 1.0
    denom.flags.writeable = False
    return denom


def poisson_neumann(source: np.ndarray, grid: Grid) -> np.ndarray:
    """Solve -lap(v) = source - mean(source) with zero-flux walls, mean(v) = 0.

    The discrete operator is diagonal in the cosine basis of the reflecting
    grid, so the solve is exact for the same stencil `laplacian` applies.
    """
    g = np.asarray(source, dtype=float)
    if g.shape != grid.shape:
        raise ValueError("source shape does not match the grid")
    # every array below is a fresh temporary, so the transforms and the
    # division may work in place
    vhat = dctn(g - g.mean(), type=2, norm="ortho", overwrite_x=True)
    vhat /= _poisson_denominator(grid)
    vhat.flat[0] = 0.0
    v = idctn(vhat, type=2, norm="ortho", overwrite_x=True)
    v -= v.mean()
    return v


@dataclass
class ScalarField:
    """A scalar sample on every cell of a grid, stored as a snapshot."""

    grid: Grid
    values: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("values shape does not match the grid")

    def save(self, path) -> None:
        np.savez(
            path,
            origin=np.asarray(self.grid.origin),
            spacing=np.asarray(self.grid.spacing),
            values=self.values,
        )
