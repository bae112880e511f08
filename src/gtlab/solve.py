"""Newton-Krylov solvers for stationary diffuse-interface problems.

Two problem shapes share one damped-Newton loop:

* conserved (multiplier)   -eps lap(u) + W'(u)/eps = lam,  integral(u) = m
* long-range coupled       -eps lap(u) + W'(u)/eps + gamma*v = lam,
                           -lap(v) = u - mean(u),  integral(u) = m

The linearizations are symmetric, so the inner solves use MINRES.  Both
problems are solved in the mean-zero subspace: the multiplier is the mean
of the unconstrained residual, Newton steps solve the projected system
P J P du = -P F(u), and updates have zero mean, so the mass fixed by the
(pre-shifted) seed never drifts.

Each Newton system is solved on the orthonormal cosine (DCT-II)
coefficients of the step.  The reflecting Laplacian and the screened
Poisson inverse are diagonal there, with the eigenvalues of the same
stencil `laplacian` applies, so the Jacobian is diag(eps*Lambda +
gamma/Lambda) plus the well term C diag(W''(u)/eps) C^T: one DCT pair per
Krylov iteration.  The preconditioner, the exact inverse of
-eps*lap + W''(1)/eps, is a division, and P zeroes coefficient 0, which
the right-hand side, the operator and the preconditioner all hold at
exactly 0.  The residual stays on the grid with the stencil, so a
converged state solves the same discrete equations.

The line search asks for a decrease of the residual's L2 norm (the norm
a Newton step decreases); the solve stops on its sup norm, the pointwise
bound the studies report.

Each inner solve is asked for a relative tolerance of 0.01*min(sup, 1),
floored at 0.5*_TOLERANCE/||r||_2.  The 2-norm bounds the sup norm, so a
linear residual of half the stop tolerance is all the stop needs, and
the last Newton step no longer solves its system far past it.  MINRES
measures its residual in the preconditioned norm, so the floor is a
target, not a bound; the stop itself is unchanged, and a floor that
proves too loose costs one more Newton step, never a looser answer.

A solve stops for one of three reasons, kept in ``SolveReport.stop_reason``:
``converged`` (sup residual at most 1e-9), ``line_search_failed`` (no step
down to 2**-20 decreases the residual; the step is not applied) or
``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn
from scipy.sparse.linalg import LinearOperator, minres

from .field import (
    Grid,
    _poisson_denominator,
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
    stop_reason: str
    # MINRES iterations summed over all Newton steps, and the number of
    # inner solves that ended with info != 0
    krylov_iterations: int
    krylov_failures: int


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
    """Exact inverse of (-eps*lap + shift) on the reflecting grid, acting on
    orthonormal cosine coefficients, where it is diagonal."""

    def __init__(self, grid: Grid, eps: float, shift: float):
        self._denom = eps * neumann_symbol(grid).ravel()
        self._denom += shift

    def __call__(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs / self._denom


def _jacobian_symbol(grid: Grid, eps: float, long_range: float) -> np.ndarray:
    """The constant-coefficient part of the Jacobian in the cosine basis:
    eps*Lambda + gamma/Lambda, Lambda the symbol of -lap, with mode 0 at 0.

    The gamma term is the screened potential's (-lap)^+ P, which solves with
    the same denominator poisson_neumann divides by.
    """
    symbol = eps * neumann_symbol(grid)
    if long_range != 0.0:
        symbol += long_range / _poisson_denominator(grid)
    symbol.flat[0] = 0.0
    return symbol


def _cosine_jacobian(symbol: np.ndarray, w2: np.ndarray):
    """The projected Jacobian P J acting on flat cosine coefficients:
    diag(symbol) + C diag(w2) C^T, with coefficient 0 (the mean) set to 0."""
    shape = symbol.shape
    diagonal = symbol.ravel()

    def matvec(coeffs):
        y = idctn(coeffs.reshape(shape), type=2, norm="ortho")
        y *= w2
        out = dctn(y, type=2, norm="ortho", overwrite_x=True).ravel()
        out += diagonal * coeffs
        out[0] = 0.0
        return out

    return matvec


def _krylov_solve(matvec, rhs, precond, rtol):
    """MINRES solve; returns (x, info, iterations)."""
    n = rhs.size
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    m_op = LinearOperator((n, n), matvec=precond, dtype=float)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, info = minres(
        op,
        rhs,
        rtol=rtol,
        maxiter=20 * int(np.sqrt(n)) + 200,
        M=m_op,
        callback=count,
    )
    return x, info, iterations


def _newton(residual_fn, coefficient_fn, symbol, seed, grid, well, eps):
    """Damped-Newton loop.

    Returns (u, lam, iterations, sup, converged, stop_reason,
    krylov_iterations, krylov_failures); iterations counts applied steps.

    residual_fn(u) -> array, the residual without the multiplier; lam is
    the mean of residual_fn(u), its best constant fit.  The Jacobian is
    diag(symbol) + C diag(coefficient_fn(u)) C^T in the orthonormal cosine
    basis C, where each Newton system is solved (see _cosine_jacobian).
    For a stable constrained state P J P is positive definite on the
    mean-zero subspace even though J itself carries the negative growth
    mode, which is what makes the projected solve robust where a bordered
    elimination is not.

    In the cosine basis P zeroes coefficient 0.  The right-hand side, the
    operator's output and the diagonal preconditioner all keep it at exactly
    0, so the MINRES iterate has no constant part to drift; the step is
    still re-centred on mean zero against the rounding of the inverse DCT.
    """
    u = np.array(seed, dtype=float)
    shift = well.second_derivative(well.wells[1]) / eps
    precond = _SpectralInverse(grid, eps, shift)

    def split(u):
        full = residual_fn(u)
        m = float(full.mean())
        return full - m, m

    krylov_iterations = 0
    krylov_failures = 0

    def stop(iterations, sup, lam, reason):
        converged = reason == "converged"
        return u, lam, iterations, sup, converged, reason, krylov_iterations, krylov_failures

    r, lam = split(u)
    for iteration in range(_MAX_STEPS):
        sup = float(np.max(np.abs(r)))
        if sup <= _TOLERANCE:
            return stop(iteration, sup, lam, "converged")
        rhs = dctn(r, type=2, norm="ortho").ravel()
        rhs[0] = 0.0
        norm0 = float(np.linalg.norm(r))
        c, info, inner = _krylov_solve(
            _cosine_jacobian(symbol, coefficient_fn(u)),
            rhs,
            precond,
            max(0.01 * min(sup, 1.0), 0.5 * _TOLERANCE / norm0),
        )
        krylov_iterations += inner
        krylov_failures += int(info != 0)
        x = idctn(c.reshape(grid.shape), type=2, norm="ortho", overwrite_x=True)
        du = x.mean() - x
        step = 1.0
        while True:
            trial = u + step * du
            r_trial, lam_trial = split(trial)
            # a NaN norm fails this comparison, so the step is taken
            if not float(np.linalg.norm(r_trial)) > (1.0 - 1e-4 * step) * norm0:
                break
            step *= _BACKTRACK
            if step < _MIN_STEP:
                return stop(iteration, sup, lam, "line_search_failed")
        # the accepted trial's residual is the next iteration's
        u, r, lam = trial, r_trial, lam_trial
    sup = float(np.max(np.abs(r)))
    return stop(_MAX_STEPS, sup, lam, "converged" if sup <= _TOLERANCE else "max_iterations")


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

    def coefficient(u):
        return well.second_derivative(u) / eps

    symbol = _jacobian_symbol(grid, eps, long_range)
    u, lam, iters, sup, ok, reason, inner, failures = _newton(
        residual, coefficient, symbol, u0, grid, well, eps
    )
    report = SolveReport(
        converged=ok,
        iterations=iters,
        residual=sup,
        multiplier=lam,
        energy=mixing_energy(u, grid, well, eps, long_range=long_range),
        mass=integrate(u, grid),
        stop_reason=reason,
        krylov_iterations=inner,
        krylov_failures=failures,
    )
    return u, report


def long_range_potential(values: np.ndarray, grid: Grid, coupling: float = 1.0):
    """The screened potential gamma*v with -lap(v) = u - mean(u).

    The mean is taken out here and again inside `poisson_neumann`; the
    second pass removes only rounding, and dropping the first would move
    the last bits of every coupled result.
    """
    return coupling * poisson_neumann(values - values.mean(), grid)
