"""Newton-Krylov solvers for stationary diffuse-interface problems.

Two problem shapes share one damped-Newton loop:

* conserved (multiplier)   -eps lap(u) + W'(u)/eps = lam,  integral(u) = m
* long-range coupled       -eps lap(u) + W'(u)/eps + gamma*v = lam,
                           -lap(v) = u - mean(u),  integral(u) = m

The linearizations are symmetric, so the inner solves use MINRES with a
constant-coefficient spectral inverse as preconditioner.  Both problems
are solved in the mean-zero subspace: the multiplier is the mean
of the unconstrained residual, Newton steps solve the projected system
P J P du = -P F(u), and updates have zero mean, so the mass fixed by the
(pre-shifted) seed never drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn
from scipy.sparse.linalg import LinearOperator, minres

from .field import (
    Grid,
    integrate,
    laplacian,
    neumann_symbol,
    poisson_neumann,
    squared_distance,
)
from .measure import energy_density
from .potential import DoubleWell, ProfileTable

# Newton step cap, sup-residual tolerance, backtracking factor, and the
# smallest damped step tried.
_MAX_STEPS = 60
_TOLERANCE = 1e-9
_BACKTRACK = 0.5
_MIN_STEP = 2.0**-20


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    multiplier: float
    energy: float
    mass: float


def mixing_energy(
    values: np.ndarray,
    grid: Grid,
    well: DoubleWell,
    eps: float,
    long_range: float = 0.0,
) -> float:
    """Gradient + well energy, plus the screened long-range term if coupled."""
    total = integrate(energy_density(values, grid, well, eps), grid)
    if long_range != 0.0:
        dev = values - values.mean()
        v = long_range_potential(values, grid)
        total += 0.5 * long_range * integrate(v * dev, grid)
    return total


def disk_signed_distance(grid: Grid, center, radius: float) -> np.ndarray:
    """Positive inside the disk (or interval in 1D), negative outside."""
    return radius - np.sqrt(squared_distance(grid, center, radius))


def seed_from_signed_distance(
    table: ProfileTable, distance: np.ndarray, eps: float
) -> np.ndarray:
    """Compose the transition profile with a signed distance: +1 inside."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return table.phi0_at(np.asarray(distance, dtype=float) / eps)


class _SpectralInverse:
    """Exact inverse of (-eps*lap + shift) on the reflecting grid."""

    def __init__(self, grid: Grid, eps: float, shift: float):
        self._denom = sum(
            (eps * lam for lam in neumann_symbol(grid)), np.full(grid.shape, shift)
        )
        self._shape = grid.shape

    def __call__(self, flat: np.ndarray) -> np.ndarray:
        x = flat.reshape(self._shape)
        y = idctn(dctn(x, type=2, norm="ortho") / self._denom, type=2, norm="ortho")
        return y.ravel()


def _krylov_solve(matvec, rhs, grid, precond, rtol):
    n = rhs.size
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    m_op = LinearOperator((n, n), matvec=precond, dtype=float)
    x, _ = minres(op, rhs.ravel(), rtol=rtol, maxiter=20 * int(np.sqrt(n)) + 200, M=m_op)
    return x.reshape(grid.shape)


def _newton(residual_fn, jacobian_matvec, seed, grid, well, eps):
    """Damped-Newton loop; returns (u, lam, iterations, sup, converged).

    residual_fn(u) -> array, the residual without the multiplier;
    jacobian_matvec(u) -> callable(flat)->flat.  lam is the mean of
    residual_fn(u), its best constant fit.
    For a stable constrained state P J P is positive definite on the
    mean-zero subspace even though J itself carries the negative growth
    mode, which is what makes the projected solve robust where a bordered
    elimination is not.
    """
    u = np.array(seed, dtype=float)
    shift = well.second_derivative(well.wells[1]) / eps
    precond_core = _SpectralInverse(grid, eps, shift)
    shape = grid.shape

    def split(u):
        full = residual_fn(u)
        m = float(full.mean())
        return full - m, m

    def projected(core):
        def matvec(flat):
            x = flat.reshape(shape)
            x = x - x.mean()
            y = core(x.ravel()).reshape(shape)
            return (y - y.mean()).ravel()

        return matvec

    def projected_precond(flat):
        # block action: the spectral inverse on the mean-zero part, its own
        # constant-mode gain 1/shift on the mean part; SPD as a whole
        x = flat.reshape(shape)
        m = x.mean()
        y = precond_core((x - m).ravel()).reshape(shape)
        return ((y - y.mean()) + m / shift).ravel()

    for iteration in range(_MAX_STEPS):
        r, lam = split(u)
        sup = float(np.max(np.abs(r)))
        if sup <= _TOLERANCE:
            return u, lam, iteration, sup, True
        matvec = projected(jacobian_matvec(u))
        # sup > _TOLERANCE here, so this forcing stays above 1e-11
        du = -_krylov_solve(matvec, r, grid, projected_precond, 0.01 * min(sup, 1.0))
        norm0 = float(np.linalg.norm(r))
        step = 1.0
        while step >= _MIN_STEP:
            norm1 = float(np.linalg.norm(split(u + step * du)[0]))
            if norm1 <= (1.0 - 1e-4 * step) * norm0:
                break
            step *= _BACKTRACK
        u = u + step * du
    r, lam = split(u)
    sup = float(np.max(np.abs(r)))
    return u, lam, _MAX_STEPS, sup, sup <= _TOLERANCE


def solve_conserved(
    well: DoubleWell,
    grid: Grid,
    eps: float,
    mass: float,
    seed: np.ndarray,
    long_range: float = 0.0,
):
    """Mass-constrained stationary state; returns the multiplier in the report.

    With long_range > 0 the screened interaction gamma*v couples in, where
    -lap(v) = u - mean(u) on the same grid (the lamellar-forming case).
    """
    volume = grid.cell_volume * float(np.prod(grid.shape))
    u0 = np.array(seed, dtype=float)
    u0 += (mass - integrate(u0, grid)) / volume

    def residual(u):
        r = -eps * laplacian(u, grid.spacing) + well.derivative(u) / eps
        if long_range != 0.0:
            r = r + long_range_potential(u, grid, long_range)
        return r

    def jac(u):
        w2 = well.second_derivative(u) / eps

        def matvec(flat):
            x = flat.reshape(grid.shape)
            out = -eps * laplacian(x, grid.spacing) + w2 * x
            if long_range != 0.0:
                out = out + long_range_potential(x, grid, long_range)
            return out.ravel()

        return matvec

    u, lam, iters, sup, ok = _newton(residual, jac, u0, grid, well, eps)
    report = SolveReport(
        converged=ok,
        iterations=iters,
        residual=sup,
        multiplier=lam,
        energy=mixing_energy(u, grid, well, eps, long_range=long_range),
        mass=integrate(u, grid),
    )
    return u, report


def long_range_potential(values: np.ndarray, grid: Grid, coupling: float = 1.0):
    """The screened potential gamma*v with -lap(v) = u - mean(u).

    Subtracting the mean makes the source compatible by construction, so
    the compatibility check is off: Krylov probe vectors can be nearly
    constant, leaving a mean-removed part that is pure rounding noise.
    """
    return coupling * poisson_neumann(values - values.mean(), grid, compat_tol=np.inf)
