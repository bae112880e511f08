"""Double-well potentials, optimal transition profiles, and bulk root asymptotics.

The scaled quartic well W(r) = scale^2 (1 - r^2)^2 / 4 has wells at r = -1, +1.
Associated objects built here:

* the surface tension (integral of sqrt(W/2) between the wells, in closed
  form: sqrt(W/2) is a polynomial on [-1, 1]),
* the optimal transition profile phi0 solving -phi0'' + W'(phi0) = 0 on a
  truncated line, tabulated on a uniform grid,
* the first-order profile correction phi1 solving the linearized equation with
  a solvability-projected right-hand side, in closed form: the constant
  sigma / W''(1) less its component along the kernel phi0',
* the near-well roots of W'(lam) = eps * forcing, used by the bulk
  far-field comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

SQRT2 = float(np.sqrt(2.0))

# Roots of W' on the outer branches exist only while the forcing stays below
# the local extremum of W' at r = +-1/sqrt(3); see bulk_roots.
_BRANCH_LIMIT = 2.0 / (3.0 * np.sqrt(3.0))

# Points per block of a profile-table evaluation: the block's scratch arrays
# stay small next to the output however many points are asked for.
_EVAL_BLOCK = 32768


@dataclass(frozen=True)
class DoubleWell:
    """Quartic double well W(r) = scale^2 (1 - r^2)^2 / 4 with wells at -1, +1."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        q = 1.0 - r * r
        return self.scale**2 * q * q / 4.0

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.scale**2 * (r * r - 1.0) * r

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        return self.scale**2 * (3.0 * r * r - 1.0)

    def transition(self, r):
        """Closed-form optimal profile tanh(scale * r / sqrt(2))."""
        r = np.asarray(r, dtype=float)
        return np.tanh(self.scale * r / SQRT2)


def surface_tension(well: DoubleWell) -> float:
    """Integral of sqrt(W/2) over [-1, 1], in closed form: scale * sqrt(2) / 3.

    On [-1, 1] sqrt(W/2) is the polynomial scale * (1 - r^2) / (2 sqrt 2),
    so its integral is exact.  The profile study checks sigma against the
    energy per layer, 2 * sigma, of the tabulated profile.
    """
    return well.scale * SQRT2 / 3.0


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


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n - 1, 4) power coefficients, cubic first, of the not-a-knot cubic
    spline through (x, y), one row per knot interval.

    The arithmetic is scipy's CubicSpline construction step for step (the
    tridiagonal system for the knot slopes s, its two not-a-knot end rows
    and the Hermite coefficients), so the rows are its PPoly coefficients
    bit for bit.
    """
    n = x.size
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    ab[1, 0] = dx[1]
    ab[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True)
    del ab
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    # The Hermite coefficients, in CubicSpline's operations and order, each
    # written straight into its column.
    c = np.empty((n - 1, 4))
    np.divide(t, dx, out=c[:, 0])
    np.subtract(slope, s[:-1], out=c[:, 1])
    c[:, 1] /= dx
    c[:, 1] -= t
    c[:, 2] = s[:-1]
    c[:, 3] = y[:-1]
    return c


@dataclass
class ProfileTable:
    """Uniform tabulation of the transition profile on [-half_width, half_width].

    Outside the tabulated window the profile is extended by its limits
    (+-1 for phi0, the stored tail constants for phi1); inside, evaluation
    uses the not-a-knot cubic spline through the knots, built once per
    table and evaluated in blocks of points.  Each interval is found by one
    division on the uniform knots, and the values are bitwise those of
    scipy's CubicSpline(positions, values, extrapolate=False).  NaN gives
    NaN.
    """

    half_width: float
    spacing: float
    sigma: float
    positions: np.ndarray
    phi0: np.ndarray
    phi0_prime: np.ndarray
    phi1: np.ndarray | None = None
    phi1_tail_minus: float | None = None
    phi1_tail_plus: float | None = None
    fredholm_ratio: float | None = None
    _splines: dict = field(default_factory=dict, repr=False, compare=False)

    def _spline(self, key: str, values: np.ndarray) -> np.ndarray:
        coefficients = self._splines.get(key)
        if coefficients is None:
            coefficients = _spline_coefficients(self.positions, values)
            self._splines[key] = coefficients
        return coefficients

    def _eval(self, key: str, values: np.ndarray | None, r, lo: float, hi: float):
        if values is None:
            raise ValueError(f"table has no {key} data; run first_order_correction")
        coefficients = self._spline(key, values)
        x = self.positions
        last = x.size - 2
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        flat, flat_out = r.reshape(-1), out.reshape(-1)
        for start in range(0, flat.size, _EVAL_BLOCK):
            rb = flat[start : start + _EVAL_BLOCK]
            ob = flat_out[start : start + _EVAL_BLOCK]
            # The knots are uniform, so one division finds the interval to
            # within one place (NaN lands on 0); one comparison each way
            # settles x[i] <= r < x[i+1], the last interval closed.
            q = np.fmin(np.fmax((rb - x[0]) / self.spacing, 0.0), last)
            i = q.astype(np.intp)
            i -= rb < x.take(i)
            i += rb >= x.take(i + 1)
            np.clip(i, 0, last, out=i)
            # PPoly's power sum, term by term in its order, for its bits.
            z = rb - x.take(i)
            c = coefficients.take(i, axis=0)
            np.multiply(c[:, 2], z, out=ob)
            ob += c[:, 3]
            zz = z * z
            ob += c[:, 1] * zz
            zz *= z
            zz *= c[:, 0]
            ob += zz
            # The window ends on the outer knots; beyond them its limits
            # take over.
            ob[rb < -self.half_width] = lo
            ob[rb > self.half_width] = hi
        return float(out[()]) if r.ndim == 0 else out

    def phi0_at(self, r):
        return self._eval("phi0", self.phi0, r, -1.0, 1.0)

    def phi1_at(self, r):
        return self._eval("phi1", self.phi1, r, self.phi1_tail_minus, self.phi1_tail_plus)

    def interior_residual(self, well: DoubleWell) -> float:
        """Sup norm of -phi0'' + W'(phi0) over interior nodes, by differences."""
        lap = _second_difference(self.phi0, self.spacing)
        res = -lap + well.derivative(self.phi0[1:-1])
        return float(np.max(np.abs(res)))

    def save(self, path) -> None:
        """Write the table's constants and phi0 (phi1 and its constants once
        filled) as .npz arrays, readable with np.load."""
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


def optimal_profile(
    well: DoubleWell, half_width: float = 20.0, spacing: float = 5e-4
) -> ProfileTable:
    """Solve -phi0'' + W'(phi0) = 0 on [-half_width, half_width], tabulated.

    The profile is odd, so the system is solved on [0, half_width] with
    phi0(0) = 0 and the closed-form Dirichlet value at the right end, then
    extended by oddness.  The half-interval reduction removes the
    translation near-kernel that makes the full-interval system numerically
    singular for large windows.
    """
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
    sigma = surface_tension(well)
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
        sigma=sigma,
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
    phi0' = scale (1 - phi0^2) / sqrt 2, so W''(phi0) = W''(1) -
    3 sqrt2 scale phi0', and L maps the constant sigma / W''(1) to
    sigma - (3 sqrt2 scale sigma / W''(1)) phi0' = sigma - phi0', because
    sigma = scale sqrt2 / 3 and W''(1) = 2 scale^2.  Any other solution
    differs from it by a multiple of the kernel phi0', which the
    normalization fixes.
    """
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
    table._splines.pop("phi1", None)
    return table


def _root_near_one(c: float) -> float:
    """Root of r^3 - r = c on the branch through r = 1 (requires |c| small)."""
    if c >= 0.0:
        lo, hi = 1.0, 1.0 + c + 1e-30
    else:
        lo, hi = 1.0 + c, 1.0
    r = 1.0
    for _ in range(100):
        val = (r * r - 1.0) * r - c
        if val > 0.0:
            hi = r
        else:
            lo = r
        slope = 3.0 * r * r - 1.0
        r_new = r - val / slope
        if not (lo <= r_new <= hi):
            r_new = 0.5 * (lo + hi)
        if abs(r_new - r) <= 1e-15 * max(1.0, abs(r)):
            return r_new
        r = r_new
    return r


def bulk_roots(well: DoubleWell, eps: float, forcing: float) -> tuple[float, float]:
    """Near-well roots (lam_minus, lam_plus) of W'(lam) = eps * forcing.

    Both roots continue the wells -1 and +1.  They exist only while the
    forcing stays below the local extremum of W' between well and barrier;
    the merge threshold is eps_crit = scale^2 * 2 / (3 sqrt(3) |forcing|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    c = eps * forcing / well.scale**2
    if abs(c) >= _BRANCH_LIMIT:
        raise ValueError(
            f"bulk roots merge: |eps*forcing|/scale^2 = {abs(c):.6g} "
            f">= {_BRANCH_LIMIT:.6g}"
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
    beta_plus = table.phi0_at(arg) + coeff * table.phi1_at(arg)
    beta_minus = table.phi0_at(-arg) + coeff * table.phi1_at(-arg)
    return (float(beta_minus), float(beta_plus))
