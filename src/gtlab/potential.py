"""The double well, its optimal transition profile, and bulk root asymptotics.

The quartic well W(r) = (1 - r^2)^2 / 4 has wells at r = -1, +1.  It is
the only well: the scaled well s^2 W is this one at width eps / s, with
lambda, sigma and the energy multiplied by s, so it reaches no state that
another eps does not.  Associated objects built here:

* the surface tension ``SIGMA`` (integral of sqrt(W/2) between the wells,
  in closed form: sqrt(W/2) is a polynomial on [-1, 1]),
* the optimal transition profile phi0 solving -phi0'' + W'(phi0) = 0 on a
  truncated line, solved by Newton on a uniform grid of nodes,
* the first-order profile correction phi1 solving the linearized equation with
  a solvability-projected right-hand side, in closed form: the constant
  sigma / W''(1) less its component along the kernel phi0',
* the near-well roots of W'(lam) = eps * forcing, used by the bulk
  far-field comparisons.

The Newton-solved nodes are what the profile study checks against the
closed forms.  Every other use evaluates the profile at arbitrary points
(``ProfileTable.phi0_at`` and ``phi1_at``), and that evaluation is the
closed form itself, one tanh per point: phi0 = tanh(r / sqrt 2),
phi0' = (1 - phi0^2) / sqrt 2 and phi1 = (sigma - phi0') / W''(1).
So those uses take a table with no nodes at all (``closed_form_profile``).
W and sigma are constants: ``DoubleWell``'s methods are static and
``SIGMA`` is the surface tension.  Only ``optimal_profile`` and
``first_order_correction`` take a well, as ``perfbench/worker.py`` calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, sqrt

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# The surface tension, the integral of sqrt(W/2) over [-1, 1]: there sqrt(W/2)
# is the polynomial (1 - r^2) / (2 sqrt 2), so sqrt(2) / 3 is exact.  The
# profile study checks it against the energy per layer, 2 * sigma.
SIGMA = SQRT2 / 3.0

# Window of the default profile: beyond +-20 the profile takes its limits.
# The Newton table ends on exactly this float at both spacings in use
# (40,000 knots of 5e-4, 50,000 of 4e-4), so a closed-form table clamps
# where a Newton table of this window does.
HALF_WIDTH = 20.0

# Roots of W' on the outer branches exist only while the forcing stays below
# the local extremum of W' at r = +-1/sqrt(3); see bulk_roots.
_BRANCH_LIMIT = 2.0 / (3.0 * np.sqrt(3.0))


class DoubleWell:
    """Quartic double well W(r) = (1 - r^2)^2 / 4, wells at -1, +1; stateless."""

    @staticmethod
    def value(r):
        r = np.asarray(r, dtype=float)
        q = 1.0 - r * r
        return q * q / 4.0

    @staticmethod
    def derivative(r, out=None):
        """W'(r), written into ``out`` (not r itself) when it is given."""
        r = np.asarray(r, dtype=float)
        w = np.multiply(r, r, out=out)
        w -= 1.0
        w *= r
        return w

    @staticmethod
    def second_derivative(r):
        r = np.asarray(r, dtype=float)
        return 3.0 * r * r - 1.0

    @staticmethod
    def transition(r):
        """Closed-form optimal profile tanh(r / sqrt(2))."""
        r = np.asarray(r, dtype=float)
        return np.tanh(r / SQRT2)


def _second_difference(values: np.ndarray, spacing: float) -> np.ndarray:
    """Centered second difference of a 1D table, interior nodes only.

    Uses the paired form (d_{j+1/2} - d_{j-1/2}) / h^2; for smooth slowly
    varying data the inner subtractions are exact in floating point, which
    keeps the residual floor near machine precision even for small h.
    """
    d = np.diff(values)
    return (d[1:] - d[:-1]) / (spacing * spacing)


def _derivative_table(values: np.ndarray, spacing: float) -> np.ndarray:
    """Fourth-order finite-difference derivative of a uniform 1D table."""
    n = values.size
    if n < 5:
        raise ValueError("need at least 5 nodes for the derivative stencil")
    out = np.empty_like(values)
    f = values
    # Grouped so that mirroring the data mirrors the output bitwise.
    out[2:-2] = (8.0 * (f[3:-1] - f[1:-3]) + (f[:-4] - f[4:])) / (12.0 * spacing)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (
        12.0 * spacing
    )
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (
        12.0 * spacing
    )
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (
        12.0 * spacing
    )
    out[-1] = (
        25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]
    ) / (12.0 * spacing)
    return out


@dataclass
class ProfileTable:
    """The transition profile on [-half_width, half_width].

    The nodes (``positions``, ``phi0``, ``phi0_prime`` and, once
    ``first_order_correction`` fills it, ``phi1``) are the Newton solution
    on the truncated line that the profile study checks; a table from
    ``closed_form_profile`` has none.  ``phi0_at`` and ``phi1_at`` evaluate
    the closed form instead, elementwise, so mirrored points give mirrored
    values bit for bit: phi0 is ``DoubleWell.transition``,
    phi0' = (1 - phi0^2) / sqrt 2 and phi1 = (sigma - phi0') / W''(1), with
    sigma the constant ``SIGMA``, never the field ``sigma``.  Outside the
    window the profile takes its limits, +-1 for phi0 and sigma / W''(1) for
    phi1.
    NaN gives NaN.
    """

    half_width: float
    sigma: float
    spacing: float | None = None
    positions: np.ndarray | None = None
    phi0: np.ndarray | None = None
    phi0_prime: np.ndarray | None = None
    phi1: np.ndarray | None = None
    phi1_tail_minus: float | None = None
    phi1_tail_plus: float | None = None
    fredholm_ratio: float | None = None

    def _eval(self, phi0_weight: float, phi1_weight: float, r, out=None, work=None):
        """phi0_weight * phi0(r) + phi1_weight * phi1(r), one tanh per point.

        The output is built in place, in ``out`` when it is given (it may be
        r itself); a nonzero phi1_weight needs one scratch array of the
        points' size, ``work`` when it is given.
        """
        r = np.asarray(r, dtype=float)
        # beyond the window its limits take over
        below = r < -self.half_width
        above = r > self.half_width
        # DoubleWell.transition's operations, in its order; out= keeps a single
        # point an array, so every step below works in place
        out = np.divide(r, SQRT2, out=np.empty(r.shape) if out is None else out)
        np.tanh(out, out=out)
        out[below] = -1.0
        out[above] = 1.0
        if phi1_weight:
            # phi0' = (1 - phi0^2) / sqrt 2, then (sigma - phi0') / W''(1)
            phi1 = np.empty(r.shape) if work is None else work
            np.multiply(out, out, out=phi1)
            np.subtract(1.0, phi1, out=phi1)
            phi1 /= SQRT2
            np.subtract(SIGMA, phi1, out=phi1)
            phi1 /= float(DoubleWell.second_derivative(1.0))
            phi1 *= phi1_weight
            out *= phi0_weight
            out += phi1
        return float(out[()]) if r.ndim == 0 else out

    def phi0_at(self, r):
        return self._eval(1.0, 0.0, r)

    def phi1_at(self, r):
        return self._eval(0.0, 1.0, r)

    def _check_nodes(self, use: str) -> None:
        if self.phi0 is None:
            raise ValueError(f"{use} needs the Newton nodes phi0 and phi0_prime; none are here")

    def interior_residual(self) -> float:
        """Sup norm of -phi0'' + W'(phi0) over interior nodes, by differences.

        The table must have nodes.
        """
        self._check_nodes("interior_residual")
        lap = _second_difference(self.phi0, self.spacing)
        res = -lap + DoubleWell.derivative(self.phi0[1:-1])
        return float(np.max(np.abs(res)))

    def save(self, path) -> None:
        """Write the table's constants and phi0 (phi1 and its constants once
        filled) as .npz arrays, readable with np.load."""
        self._check_nodes("save")
        phi1 = {}
        if self.phi1 is not None:
            phi1 = {
                "phi1": self.phi1,
                "phi1_tail_minus": self.phi1_tail_minus,
                "phi1_tail_plus": self.phi1_tail_plus,
                "fredholm_ratio": self.fredholm_ratio,
            }
        np.savez(
            path,
            half_width=self.half_width,
            spacing=self.spacing,
            sigma=self.sigma,
            phi0=self.phi0,
            **phi1,
        )


def closed_form_profile() -> ProfileTable:
    """The default window's profile with no nodes: only ``phi0_at``,
    ``phi1_at`` and ``sigma`` are there to read, and no Newton solve runs."""
    return ProfileTable(half_width=HALF_WIDTH, sigma=SIGMA)


def optimal_profile(
    well: DoubleWell, half_width: float = HALF_WIDTH, spacing: float = 5e-4
) -> ProfileTable:
    """Solve -phi0'' + W'(phi0) = 0 on [-half_width, half_width], tabulated.

    The profile is odd, so the system is solved on [0, half_width] with
    phi0(0) = 0 and the closed-form Dirichlet value at the right end, then
    extended by oddness.  The half-interval reduction removes the
    translation near-kernel that makes the full-interval system numerically
    singular for large windows.
    """
    from scipy.linalg import solve_banded

    if half_width <= 0 or spacing <= 0:
        raise ValueError("half_width and spacing must be positive")
    m = int(round(half_width / spacing))
    if m < 10:
        raise ValueError("fewer than 10 nodes per half interval")
    if abs(m * spacing - half_width) > 1e-9 * half_width:
        raise ValueError("half_width must be an integer multiple of spacing")

    # The window ends on its last knot, which rounding may put a few ulp
    # inside the requested half width.
    half_width = m * spacing
    h = spacing
    u = well.transition(np.arange(m + 1) * h)
    u[0] = 0.0
    u[-1] = float(well.transition(half_width))

    def residual(vals: np.ndarray) -> np.ndarray:
        lap = _second_difference(vals, h)
        return -lap + well.derivative(vals[1:-1])

    # Perturbing one stored node by 1 ulp moves the centered residual by
    # ~(2/h^2) ulp, so the sup residual cannot be driven below this floor
    # no matter how many Newton steps run.
    floor = (4.0 / h**2) * float(np.finfo(float).eps)
    threshold = max(1e-12, floor)

    # Damped Newton on the tridiagonal Jacobian of the interior nodes: each
    # step halves down to 2^-20 until the sup residual falls; the loop stops
    # at the threshold, on a step below 8 ulp, or when no damped step helps.
    f = residual(u)
    sup = float(np.max(np.abs(f)))
    for _ in range(50):
        if sup <= threshold:
            break
        ab = np.zeros((3, m - 1))
        ab[0, 1:] = -1.0 / h**2
        ab[1, :] = 2.0 / h**2 + well.second_derivative(u[1:-1])
        ab[2, :-1] = -1.0 / h**2
        du = solve_banded((1, 1), ab, -f)
        if float(np.max(np.abs(du))) <= 8.0 * np.finfo(float).eps:
            break
        step = 1.0
        while step >= 2.0**-20:
            trial = u.copy()
            trial[1:-1] += step * du
            f_trial = residual(trial)
            sup_trial = float(np.max(np.abs(f_trial)))
            if sup_trial < sup:
                u, f, sup = trial, f_trial, sup_trial
                break
            step *= 0.5
        else:
            break
    if sup > threshold:
        raise RuntimeError(
            f"profile Newton stalled at residual {sup:.3e} "
            f"(tolerance 1.0e-12, floating-point floor {floor:.1e})"
        )

    n = 2 * m + 1
    positions = (np.arange(n) - m) * h
    phi0 = np.empty(n)
    phi0[m:] = u
    phi0[:m] = -u[:0:-1]
    return ProfileTable(
        half_width=half_width,
        spacing=h,
        sigma=SIGMA,
        positions=positions,
        phi0=phi0,
        phi0_prime=_derivative_table(phi0, h),
    )


def first_order_correction(table: ProfileTable, well: DoubleWell) -> ProfileTable:
    """Fill the first-order correction phi1 into the table (returns it).

    phi1 solves L phi1 = sigma - phi0' where L = -d^2/dr^2 + W''(phi0), with
    tail values sigma / W''(+-1) and kernel normalization <phi1, phi0'> = 0.
    The raw right-hand side phi0' + sigma fails the solvability condition
    against the kernel phi0' (the inner product is 4*sigma, twice the kernel
    pairing 2*sigma; the quotient is stored as ``fredholm_ratio``), so the
    kernel component is projected out first, which turns the raw right-hand
    side into the even function sigma - phi0'.

    For the quartic well the solution is closed form.  On the profile
    phi0' = (1 - phi0^2) / sqrt 2, so W''(phi0) = 3 phi0^2 - 1 = W''(1) -
    3 sqrt2 phi0', and L maps the constant sigma / W''(1) to
    sigma - (3 sqrt2 sigma / W''(1)) phi0' = sigma - phi0', because
    sigma = sqrt2 / 3 and W''(1) = 2.  Any other solution differs from it
    by a multiple of the kernel phi0', which the normalization fixes.

    The table must have nodes.
    """
    table._check_nodes("first_order_correction")
    kern = table.phi0_prime
    sigma = table.sigma
    weights = np.full(kern.size, table.spacing)
    weights[0] = weights[-1] = table.spacing / 2.0
    pairing = float(np.sum(weights * (kern + sigma) * kern))

    tail = sigma / float(well.second_derivative(1.0))
    # Kernel normalization: <phi1, phi0'> = 0 in the trapezoid pairing
    # against the stored derivative table.  phi0_prime is exactly even (odd
    # data through symmetric stencils), so phi1 is exactly even.
    coeff = -tail * float(np.sum(weights * kern)) / float(np.sum(weights * kern * kern))

    table.phi1 = tail + coeff * kern
    table.phi1_tail_minus = sigma / float(well.second_derivative(-1.0))
    table.phi1_tail_plus = tail
    table.fredholm_ratio = pairing / (2.0 * sigma)
    return table


def _root_near_one(c: float) -> float:
    """Largest root of r^3 - r = c, the branch through r = 1, by the cubic's
    trigonometric form; it is real while |c| <= _BRANCH_LIMIT, the domain of
    the arccos."""
    return 2.0 * cos(acos(1.5 * sqrt(3.0) * c) / 3.0) / sqrt(3.0)


def bulk_roots(eps: float, forcing: float) -> tuple[float, float]:
    """Near-well roots (lam_minus, lam_plus) of W'(lam) = eps * forcing.

    Both roots continue the wells -1 and +1.  They exist only while the
    forcing stays below the local extremum of W' between well and barrier;
    the merge threshold is eps_crit = 2 / (3 sqrt(3) |forcing|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    c = eps * forcing
    if abs(c) >= _BRANCH_LIMIT:
        raise ValueError(
            f"bulk roots merge: |eps*forcing| = {abs(c):.6g} >= {_BRANCH_LIMIT:.6g}"
        )
    plus = _root_near_one(c)
    minus = -_root_near_one(-c)
    return (minus, plus)


def far_field_values(
    table: ProfileTable, eps: float, delta: float, force: float
) -> tuple[float, float]:
    """Plateau values of the corrected profile at distance +-delta.

    beta_pm = phi0(+-delta/eps) + eps * (2 / (3 sigma)) * force * phi1(+-delta/eps).
    These are the constants the cutoff-modified comparison field takes outside
    the transition tube.
    """
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    arg = delta / eps
    coeff = eps * (2.0 / (3.0 * table.sigma)) * force
    beta_minus, beta_plus = table._eval(1.0, coeff, np.array([-arg, arg]))
    return (float(beta_minus), float(beta_plus))
