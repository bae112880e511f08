"""Newton-Krylov solvers for stationary diffuse-interface problems.

Two problem shapes share one damped-Newton loop:

* conserved (multiplier)   -eps lap(u) + W'(u)/eps = lam,  integral(u) = m
* long-range coupled       -eps lap(u) + W'(u)/eps + gamma*v = lam,
                           -lap(v) = u - mean(u),  integral(u) = m

The linearizations are symmetric, so the inner solves use MINRES, an
in-house transcription of scipy's that gives the same bits and works on a
fixed set of vectors reused in place (see `minres`).  Both problems are
solved in the mean-zero subspace: the multiplier is the mean of the
unconstrained residual, Newton steps solve the projected system
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
measures its residual in the preconditioned norm, which hardly sees a
grid-scale residual, so the floor is a target, not a bound.  The stop is
unchanged, so a floor that proves too loose never gives a looser answer,
but it can cost far more than one Newton step: on a 1D lamella seeded off
its stationary positions (gamma 1, eps 0.02) the floored solve runs all 60
steps and ends in ``max_iterations``, where the unfloored one converges
in 10 (ROADMAP item 1).

A solve stops for one of four reasons, kept in ``SolveReport.stop_reason``:
``converged`` (sup residual at most 1e-9), ``line_search_failed`` (no step
down to 2**-20 decreases the residual; the step is not applied),
``non_finite`` (the residual holds a NaN or an infinity, which no Krylov
solve can reduce) or ``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np
from scipy.fft import dctn, idctn

from .field import (
    Grid,
    integrate,
    laplacian,
    neumann_symbol,
    poisson_neumann,
    squared_distance,
)
from .measure import energy_density
from .potential import DoubleWell

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


class _SpectralInverse:
    """Exact inverse of (-eps*lap + shift) on the reflecting grid, acting on
    orthonormal cosine coefficients, where it is diagonal."""

    def __init__(self, grid: Grid, eps: float, shift: float):
        self._denom = eps * neumann_symbol(grid).ravel()
        self._denom += shift

    def __call__(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.divide(coeffs, self._denom, out=out)


def _jacobian_symbol(grid: Grid, eps: float, long_range: float) -> np.ndarray:
    """The constant-coefficient part of the Jacobian in the cosine basis:
    eps*Lambda + gamma/Lambda, Lambda the symbol of -lap, with mode 0 at 0.

    The gamma term is the screened potential's (-lap)^+ P: on modes 1 and
    up it divides by the symbol poisson_neumann divides by.
    """
    symbol = eps * neumann_symbol(grid)
    if long_range != 0.0:
        symbol.reshape(-1)[1:] += long_range / neumann_symbol(grid).reshape(-1)[1:]
    return symbol


def _cosine_jacobian(symbol: np.ndarray, w2: np.ndarray):
    """The projected Jacobian P J acting on flat cosine coefficients:
    diag(symbol) + C diag(w2) C^T, with coefficient 0 (the mean) set to 0.

    The product lands in `out` and `scratch` holds diag(symbol)*coeffs when
    they are given; both are fresh arrays otherwise.
    """
    shape = symbol.shape
    diagonal = symbol.ravel()

    def matvec(coeffs, out=None, scratch=None):
        if out is None:
            out = np.empty_like(coeffs)
        np.copyto(out, coeffs)
        y = idctn(out.reshape(shape), type=2, norm="ortho", overwrite_x=True)
        y *= w2
        out = dctn(y, type=2, norm="ortho", overwrite_x=True).ravel()
        out += np.multiply(diagonal, coeffs, out=scratch)
        out[0] = 0.0
        return out

    return matvec


def minres(matvec, b, precond, rtol, maxiter, callback=None):
    """Preconditioned MINRES (Paige & Saunders 1975) for a symmetric operator;
    returns (x, info, itn): info = maxiter if the iteration limit stopped
    it, else 0, and itn the iterations run, one per callback(x) call.

    matvec(v, out, scratch) returns A v, written into out unless out is
    None, and may overwrite scratch; precond(r, out=None) returns M r the
    same way, M symmetric positive definite.  The recurrences and stop tests
    are those of scipy.sparse.linalg.minres (shift 0, no starting guess, the
    scalars only its printout reads left out), evaluated in the same order,
    so x, info and the number of callback(x) calls are bitwise the same.

    The vectors are a fixed set worked on in place: b is consumed as the
    first residual r1; from the third iteration on r1, r2 and tmp rotate,
    the retired r1 receiving the next product matvec(v, tmp, z); z holds
    precond(r2, out=z) and is the matvec's and the updates' scratch; w_k is
    written over w_(k-2); v is scratch once w_k is formed.
    """
    x = np.zeros(b.size)
    r1 = b
    z = precond(r1)
    beta1 = np.inner(r1, z)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0, 0
    beta1 = sqrt(beta1)
    eps = np.finfo(float).eps

    istop = 0
    itn = 0
    oldb = 0
    beta = beta1
    dbar = 0
    epsln = 0
    phibar = beta1
    tnorm2 = 0
    gmax = 0
    gmin = np.finfo(float).max
    cs = -1
    sn = 0
    v = np.empty_like(x)
    w = np.zeros_like(x)
    w2 = np.zeros_like(x)
    r2 = r1
    tmp = None

    while itn < maxiter:
        itn += 1

        s = 1.0 / beta
        np.multiply(s, z, out=v)
        y = matvec(v, tmp, z)
        if itn >= 2:
            y -= np.multiply(beta / oldb, r1, out=z)
            # r1 retires here (in the first iteration it is r2), and its
            # buffer takes the next product
            tmp = r1
        alfa = np.inner(v, y)
        y -= np.multiply(alfa / beta, r2, out=z)
        r1 = r2
        r2 = y
        precond(r2, out=z)
        oldb = beta
        beta = np.inner(r2, z)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2

        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # terminate later

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])

        gamma = np.linalg.norm([gbar, beta])
        gamma = max(gamma, eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w_k = (v - oldeps*w_(k-2) - delta*w_(k-1)) / gamma, over w_(k-2)
        denom = 1.0 / gamma
        w, w2 = w2, w
        w *= oldeps
        np.subtract(v, w, out=w)
        w -= np.multiply(delta, w2, out=v)
        w *= denom
        x += np.multiply(phi, w, out=v)

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)

        anorm = sqrt(tnorm2)
        ynorm = np.linalg.norm(x)
        epsx = anorm * ynorm * eps
        if ynorm == 0 or anorm == 0:
            test1 = inf
        else:
            test1 = phibar / (anorm * ynorm)  # ||r|| / (||A|| ||x||)
        if anorm == 0:
            test2 = inf
        else:
            test2 = root / anorm  # ||Ar|| / (||A|| ||r||)
        acond = gmax / gmin

        if istop == 0:
            t1 = 1 + test1  # these tests work if rtol < eps
            t2 = 1 + test2
            if t2 <= 1:
                istop = 2
            if t1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1

        if callback is not None:
            callback(x)
        if istop != 0:
            break

    return x, maxiter if istop == 6 else 0, itn


def _newton(residual_fn, symbol, u, grid, well, eps):
    """Damped-Newton loop.

    Returns (u, lam, iterations, sup, converged, stop_reason,
    krylov_iterations, krylov_failures); iterations counts applied steps.

    residual_fn(u) -> array, the residual without the multiplier; lam is
    the mean of residual_fn(u), its best constant fit.  The Jacobian is
    diag(symbol) + C diag(W''(u)/eps) C^T in the orthonormal cosine basis C,
    where each Newton system is solved (see _cosine_jacobian).
    For a stable constrained state P J P is positive definite on the
    mean-zero subspace even though J itself carries the negative growth
    mode, which is what makes the projected solve robust where a bordered
    elimination is not.

    In the cosine basis P zeroes coefficient 0.  The right-hand side, the
    operator's output and the diagonal preconditioner all keep it at exactly
    0, so the MINRES iterate has no constant part to drift; the step is
    still re-centred on mean zero against the rounding of the inverse DCT.

    The starting state u is neither copied nor written to.  Every grid array
    a step has finished with is dropped before the next inner solve, so that
    solve's vectors are the loop's peak.
    """
    shift = well.second_derivative(1.0) / eps
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
        if not np.isfinite(sup):
            return stop(iteration, sup, lam, "non_finite")
        norm0 = float(np.linalg.norm(r))
        rhs = dctn(r, type=2, norm="ortho").ravel()
        del r
        rhs[0] = 0.0
        c, info, inner = minres(
            _cosine_jacobian(symbol, well.second_derivative(u) / eps),
            rhs,
            precond,
            max(0.01 * min(sup, 1.0), 0.5 * _TOLERANCE / norm0),
            20 * int(sqrt(rhs.size)) + 200,
        )
        krylov_iterations += inner
        krylov_failures += int(info != 0)
        x = idctn(c.reshape(grid.shape), type=2, norm="ortho", overwrite_x=True)
        du = x.mean() - x
        del rhs, c, x
        step = 1.0
        while True:
            trial = u + step * du
            r_trial, lam_trial = split(trial)
            # a NaN norm fails this comparison, so the step is taken and the
            # next iteration stops on it as non_finite
            if not float(np.linalg.norm(r_trial)) > (1.0 - 1e-4 * step) * norm0:
                break
            step *= _BACKTRACK
            if step < _MIN_STEP:
                return stop(iteration, sup, lam, "line_search_failed")
        # the accepted trial's residual is the next iteration's
        u, r, lam = trial, r_trial, lam_trial
        del du, trial, r_trial
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
    seed = np.asarray(seed, dtype=float)
    shift = (mass - integrate(seed, grid)) / volume

    def residual(u):
        r = -eps * laplacian(u, grid.spacing) + well.derivative(u) / eps
        if long_range != 0.0:
            r = r + long_range_potential(u, grid, long_range)
        return r

    symbol = _jacobian_symbol(grid, eps, long_range)
    # the shifted seed is a fresh array that only _newton holds
    u, lam, iters, sup, ok, reason, inner, failures = _newton(
        residual, symbol, seed + shift, grid, well, eps
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
