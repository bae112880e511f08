"""Study orchestration: JSON-configured eps sweeps, reports, and the CLI.

A study is one named experiment kind swept over a decreasing list of
interface widths.  Each width is solved (or constructed) independently,
measured, and checked against the rules configured for that kind; the
collected rows, cross-width checks, and observed convergence orders form a
report that is a pure function of the configuration.  Wall-clock timings
are written to a sidecar so the canonical report stays byte-identical
across reruns.

A kind is one `STUDIES` entry: its runner, its config keys with their
defaults, default tolerances, metric anchors, order metrics and
cross-width check.  A config names kind, eps, tolerances and out_dir, and
only those of grid_k, radius, center, mass, force and coupling that its
kind reads; `StudyConfig` refuses any other, so a report records exactly
the experiment it ran.  A CLI command is one `_COMMANDS` entry: its help
and the kind of each seed geometry it accepts; it takes --grid-k when a
kind it runs reads grid_k.

The solved kinds share one runner, made by `_solved(seed, measure)`: it
solves from the kind's seed, locates the interface before any write,
measures sigma * kappa = lambda - gamma * v there (kappa = 0 in 1D), writes
every file and reports lambda, h and solver_converged; the seed function
and the metrics read off that balance are all a kind adds.  Snapshots are
np.savez archives written by hand: a solved kind writes its state in one
block, and the subsolution study streams its field and defect into theirs
block by block as they are built, so neither is ever held whole.  Every
function the benchmark's tracer (perfbench/tracing.py) rebinds on this
module is looked up as a global at call time, never captured in a closure
or a default, or the tracer would stop seeing its calls.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import numpy.lib.format as npformat

from .comparison import (
    asymptotic_gap,
    build_subsolution,
    make_schedule,
    solve_cmc_graph,
    verify_subsolution,
)
from .field import Grid, gradient, integrate, sample
from .interface import (
    Contour,
    curvature,
    curvature_balance,
    extract_contours,
    zero_crossings_1d,
)
from .measure import bulk_deviation, mixing_energy, multiplicity_estimate
from .potential import (
    DoubleWell,
    bulk_roots,
    closed_form_profile,
    first_order_correction,
    optimal_profile,
)
from .solve import disk_signed_distance, long_range_potential, solve_conserved

SQRT2 = float(np.sqrt(2.0))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_number, value))


def _number_or_list(value) -> bool:
    return _number(value) or _numbers(value)


def _optional(check):
    return lambda value: value is None or check(value)


def _string(value) -> bool:
    return isinstance(value, str)


def _tolerance_map(value) -> bool:
    return isinstance(value, dict) and _numbers(list(value.values()))


# The config keys every kind takes; any other key belongs to the kinds
# whose STUDIES defaults name it.
_COMMON_KEYS = ("kind", "eps", "tolerances", "out_dir")

# The JSON type each config key accepts: (description, predicate).
_KEY_TYPES = {
    "kind": ("a string", _string),
    "eps": ("a number or a list of numbers", _number_or_list),
    "grid_k": ("a number or a list of numbers", _number_or_list),
    "radius": ("a number", _number),
    "center": ("a list of numbers", _numbers),
    "mass": ("a number or null", _optional(_number)),
    "force": ("a number", _number),
    "coupling": ("a number", _number),
    "tolerances": ("an object of numbers or null", _optional(_tolerance_map)),
    "out_dir": ("a string or null", _optional(_string)),
}


@dataclass(frozen=True)
class StudyConfig:
    """One experiment kind swept over a decreasing list of widths.

    Only kind is required.  kind, eps, tolerances and out_dir belong to
    every kind; grid_k, radius, center, mass, force and coupling belong to
    the kinds whose STUDIES defaults name them.  A key the kind does not
    name is refused unless it is None, so a config states only what the
    kind reads.  Every named key left as None takes the kind's default,
    the same way however the config is built: by this constructor, from a
    mapping, a study file or a CLI command.  A kind whose default grid_k
    is a per-eps list pairs it with its default eps only, so given eps it
    needs grid_k too.

    eps may be given as one number or a strictly decreasing list, and is
    stored as a tuple.  grid_k counts cells per eps: the solved kinds use
    the unit box with round(grid_k / eps) cells per side, so
    h = 1 / round(grid_k / eps), and the subsolution study uses
    h = eps / grid_k.  grid_k may be given as one integer or a per-eps
    list, and is stored, like eps, as a tuple with one entry per eps.
    Geometry means the seed disk (radius, center) for the 2D solves, the
    layer at center[0] for ch-planar, the wall positions
    center[0] +- radius for the lamellar case, the stack centre for the
    multiplicity study and the graph base radius for the subsolution
    study; center has one coordinate per dimension of the kind.  A mass
    of None keeps the mass of the seed.
    """

    kind: str
    eps: float | tuple[float, ...] | None = None
    grid_k: int | tuple[int, ...] | None = None
    radius: float | None = None
    center: tuple[float, ...] | None = None
    mass: float | None = None
    force: float | None = None
    coupling: float | None = None
    tolerances: dict | None = None
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in STUDIES:
            raise ValueError(
                f"unknown study kind {self.kind!r}; expected one of {', '.join(STUDIES)}"
            )
        defaults = STUDIES[self.kind].defaults
        unread = sorted(
            f.name
            for f in fields(self)
            if f.name not in _COMMON_KEYS
            and f.name not in defaults
            and getattr(self, f.name) is not None
        )
        if unread:
            raise ValueError(
                f"{self.kind} does not read the config key(s): {', '.join(unread)}"
            )
        # the pairing rule looks at the grid_k the caller gave, before the
        # kind's default fills it
        per_eps = isinstance(defaults.get("grid_k"), tuple)
        if per_eps and self.eps is not None and self.grid_k is None:
            raise ValueError(
                f"{self.kind} pairs its default grid_k {list(defaults['grid_k'])} with its "
                f"default eps {list(defaults['eps'])}; with another eps, give grid_k "
                "(--grid-k on the command line)"
            )
        for key, value in defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, value)
        eps = (self.eps,) if np.isscalar(self.eps) else self.eps
        eps = tuple(float(e) for e in eps)
        if not eps:
            raise ValueError("eps list must not be empty")
        if not all(0.0 < e < np.inf for e in eps):
            raise ValueError("every eps must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps list must be strictly decreasing")
        object.__setattr__(self, "eps", eps)
        if self.grid_k is not None:
            ks = (self.grid_k,) * len(eps) if np.isscalar(self.grid_k) else tuple(self.grid_k)
            if len(ks) != len(eps):
                raise ValueError("grid_k list length must match the eps list")
            if not all(np.isfinite(k) and int(k) == k and k >= 4 for k in ks):
                raise ValueError("grid_k entries must be finite integers >= 4")
            object.__setattr__(self, "grid_k", tuple(int(k) for k in ks))
        if self.radius is not None and not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")
        if self.center is not None:
            center = tuple(float(c) for c in self.center)
            ndim = len(defaults["center"])
            if len(center) != ndim or not all(np.isfinite(center)):
                raise ValueError(f"center of {self.kind} must be {ndim} finite coordinate(s)")
            object.__setattr__(self, "center", center)
        if self.mass is not None and not np.isfinite(self.mass):
            raise ValueError("mass must be finite (or null to keep the seed mass)")
        for key in ("force", "coupling"):
            if getattr(self, key) is not None and not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        tolerances = STUDIES[self.kind].tolerances
        given = dict(self.tolerances or {})
        extra = sorted(set(given) - set(tolerances))
        if extra:
            raise ValueError(
                f"unknown tolerance key(s) for {self.kind}: {', '.join(extra)}"
            )
        merged = {**tolerances, **{k: float(v) for k, v in given.items()}}
        bad = sorted(k for k, v in merged.items() if not np.isfinite(v))
        if bad:
            raise ValueError(f"tolerance(s) {', '.join(bad)} must be finite")
        object.__setattr__(self, "tolerances", merged)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "StudyConfig":
        allowed = {f.name for f in fields(cls)}
        extra = sorted(set(mapping) - allowed)
        if extra:
            raise ValueError(f"unknown config key(s): {', '.join(extra)}")
        if "kind" not in mapping:
            raise ValueError("config is missing the required key: kind")
        for key, value in mapping.items():
            what, accepts = _KEY_TYPES[key]
            if not accepts(value):
                raise ValueError(f"config key {key} must be {what}, got {value!r}")
        return cls(**mapping)

    def to_mapping(self) -> dict:
        """Canonical mapping for reports: kind, eps, tolerances and the
        kind's own keys.  It omits the output location so the report
        content does not depend on where it is written."""
        keys = {*_COMMON_KEYS, *STUDIES[self.kind].defaults} - {"out_dir"}
        return {key: value for key, value in asdict(self).items() if key in keys}


@dataclass(frozen=True)
class EpsRow:
    eps: float
    metrics: dict
    checks: dict
    error: str | None = None


@dataclass(frozen=True)
class StudyReport:
    config: StudyConfig
    rows: tuple[EpsRow, ...]
    cross_checks: dict
    orders: dict
    passed: bool
    seconds: tuple[float, ...]
    peak_rss_mb: tuple[float, ...]


def _unit_box(eps: float, k: int, ndim: int) -> Grid:
    n = int(round(k / eps))
    return Grid.box((0.0,) * ndim, (1.0,) * ndim, (n,) * ndim)


def _shoelace_radius(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    return float(np.sqrt(area / np.pi))


def _main_contour(values: np.ndarray, grid: Grid):
    loops = [c for c in extract_contours(values, grid) if c.closed]
    if not loops:
        raise RuntimeError("no closed interface contour found")
    return max(loops, key=lambda c: len(c.points))


@contextmanager
def _snapshot(out: Path | None, name: str, grid: Grid):
    """Open np.savez(out / name, origin=..., spacing=..., values=...) for
    float values of the grid's shape and yield write(block), which appends
    C-ordered blocks of leading-axis rows, in order, to the values.

    The values entry's .npy header is written from the grid's shape before
    any data, and zipfile's streamed entry computes the CRC and patches the
    sizes in on close, so the archive equals np.savez's byte for byte
    without the whole array in memory at once.  A snapshot left unfinished
    by an error is removed; with out None every block is dropped.
    """
    if out is None:
        yield lambda block: None
        return
    arrays = {"origin": np.asarray(grid.origin), "spacing": np.asarray(grid.spacing)}
    dtype = np.dtype(float)
    header = {"descr": npformat.dtype_to_descr(dtype), "fortran_order": False, "shape": grid.shape}
    try:
        with zipfile.ZipFile(out / name, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for key, val in arrays.items():
                with zf.open(key + ".npy", "w", force_zip64=True) as fid:
                    npformat.write_array_header_1_0(fid, npformat.header_data_from_array_1_0(val))
                    fid.write(val)
            with zf.open("values.npy", "w", force_zip64=True) as fid:
                npformat.write_array_header_1_0(fid, header)
                yield lambda block: fid.write(np.ascontiguousarray(block, dtype=dtype))
    except BaseException:
        (out / name).unlink(missing_ok=True)
        raise


def _save_field(out: Path | None, name: str, grid: Grid, values: np.ndarray) -> None:
    """Write np.savez(out / name, origin=..., spacing=..., values=...) byte
    for byte (for float values of the grid's shape), but from the values'
    own buffer: np.savez copies an array into bytes before it writes it."""
    with _snapshot(out, name, grid) as write:
        write(values)


def _write_crossings(out: Path | None, name: str, crossings: np.ndarray) -> None:
    if out is None:
        return
    with open(out / name, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "x"])
        for i, x in enumerate(crossings):
            writer.writerow([i, "%.17g" % x])


def write_contour_csv(path, contour: Contour, kappa, force, sigma: float) -> None:
    """Vertex table: index,x,y,kappa,f,residual."""
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


# Profile-study table resolution.  The equipartition defect of the discrete
# profile shrinks like spacing^2 while the achievable interior residual has a
# rounding floor that grows like 1/spacing^2; this spacing meets both bounds
# with margin.
PROFILE_SPACING = 4e-4


def _study_profile(config, eps, k, out, index):
    well = DoubleWell()
    table = first_order_correction(optimal_profile(well, spacing=PROFILE_SPACING), well)
    # the Newton nodes against the closed form, which phi0_at evaluates
    tanh_gap = float(np.max(np.abs(table.phi0 - DoubleWell.transition(table.positions))))
    tail = SQRT2 / 6.0
    tail_error = max(
        abs(float(table.phi1[0]) - tail), abs(float(table.phi1[-1]) - tail)
    )
    kinetic = 0.5 * table.phi0_prime**2
    bulk = DoubleWell.value(table.phi0)
    equi = float(np.max(np.abs(kinetic - bulk)))
    # one layer carries energy 2 * sigma: the trapezoid integral of
    # phi0'^2 / 2 + W(phi0) over the table, halved, is sigma
    weights = np.full(table.phi0.size, table.spacing)
    weights[0] = weights[-1] = table.spacing / 2.0
    layer = float(np.sum(weights * (kinetic + bulk)))
    metrics = {
        "sigma": table.sigma,
        "sigma_error": abs(0.5 * layer - table.sigma),
        "profile_residual": table.interior_residual(),
        "tanh_gap": tanh_gap,
        "tail_error": tail_error,
        "equipartition": equi,
    }
    checks = {
        "sigma_within": metrics["sigma_error"] <= config.tolerances["sigma"],
        "residual_within": metrics["profile_residual"] <= config.tolerances["residual"],
        "tanh_within": tanh_gap <= config.tolerances["tanh"],
        "tail_within": tail_error <= config.tolerances["tail"],
        "equipartition_within": equi <= config.tolerances["equipartition"],
    }
    if out is not None and index == 0:
        table.save(out / "profile-table.npz")
    return metrics, checks


def _disk(config, table, eps, k):
    grid = _unit_box(eps, k, 2)
    # the unit box mirrors at 0.5: on an axis with an even cell count whose
    # mirror runs through the disk's centre, the distance is taken on the
    # leading half and reflected, so the seed is bitwise mirror-symmetric
    # there and solve_conserved solves it on the half
    mirrors = [
        j for j, n in enumerate(grid.shape) if config.center[j] == 0.5 and n % 2 == 0 and n >= 4
    ]
    half = tuple(n // 2 if j in mirrors else n for j, n in enumerate(grid.shape))
    dist = disk_signed_distance(Grid(grid.origin, grid.spacing, half), config.center, config.radius)
    for j in mirrors:
        dist = np.concatenate((dist, np.flip(dist, j)), axis=j)
    return grid, table.phi0_at(dist / eps)


def _planar(config, table, eps, k):
    grid = _unit_box(eps, k, 1)
    return grid, table.phi0_at((grid.axis(0) - config.center[0]) / eps)


def _lamellar(config, table, eps, k):
    grid = _unit_box(eps, k, 1)
    x = grid.axis(0)
    left = config.center[0] - config.radius
    right = config.center[0] + config.radius
    return grid, table.phi0_at((x - left) / eps) - table.phi0_at((x - right) / eps) - 1.0


def _solved(seed, measure, coupled=False):
    """The runner of a solved kind: seed, solve, locate, balance, write, measure.

    seed(config, table, eps, k) returns (grid, values); a coupled kind
    solves with gamma = config.coupling.  Before any write, the interface
    is located (contour vertices and windowed kappa in 2D, crossings and
    kappa = 0 in 1D; none raises) and sup is the largest residual there of
    sigma * kappa = target = lambda - gamma * v.  measure(config, table,
    eps, grid, u, rep, points, target, sup) returns the kind's own metrics
    and checks; lambda, h and solver_converged are added here.
    """

    def run(config, eps, k, out, index):
        table = closed_form_profile()
        grid, values = seed(config, table, eps, k)
        mass = integrate(values, grid) if config.mass is None else config.mass
        gamma = config.coupling if coupled else 0.0
        u, rep = solve_conserved(grid, eps, mass, values, long_range=gamma)
        del values
        if grid.ndim == 2:
            contour = _main_contour(u, grid)
            points = contour.points
            kappa = curvature(contour, grid, gradient(u, grid.spacing), window=8.0 * eps)
        else:
            points = zero_crossings_1d(u, grid)
            if points.size == 0:
                raise RuntimeError(f"{config.kind.partition('-')[2]} state lost its interfaces")
            kappa = np.zeros_like(points)
        lam = rep.multiplier
        if coupled:
            w = long_range_potential(u, grid, gamma)
            v = sample(w, grid, points) if grid.ndim == 2 else np.interp(points, grid.axis(0), w)
            target = lam - v
        else:
            target = np.full_like(kappa, lam)
        sup = curvature_balance(kappa, target, table.sigma)
        _save_field(out, f"{config.kind}-field-{index:02d}.npz", grid, u)
        if grid.ndim == 1:
            _write_crossings(out, f"{config.kind}-crossings-{index:02d}.csv", points)
        elif out is not None:
            name = f"{config.kind}-interface-{index:02d}.csv"
            write_contour_csv(out / name, contour, kappa, target, table.sigma)
        metrics, checks = measure(config, table, eps, grid, u, rep, points, target, sup)
        metrics.update({"lambda": lam, "h": grid.spacing})
        checks["solver_converged"] = rep.converged
        return metrics, checks

    return run


def _ch_disk(config, table, eps, grid, u, rep, points, target, sup):
    r_eps = _shoelace_radius(points)
    ratio = rep.multiplier * r_eps / table.sigma
    metrics = {
        "r_eps": r_eps,
        "ratio": ratio,
        "ratio_error": abs(ratio - 1.0),
        "gt_sup": sup,
        "energy": mixing_energy(u, grid, eps),
    }
    return metrics, {}


def _across_ch_disk(config, rows):
    errors = [r.metrics["ratio_error"] for r in rows]
    return {
        "ratio_first_within": errors[0] <= config.tolerances["ratio_first"],
        "ratio_last_within": errors[-1] <= config.tolerances["ratio_last"],
        "ratio_strictly_decreasing": all(b < a for a, b in zip(errors, errors[1:])),
    }


def _ch_planar(config, table, eps, grid, u, rep, points, target, sup):
    energy = mixing_energy(u, grid, eps)
    energy_error = abs(energy - 2.0 * table.sigma)
    metrics = {"energy": energy, "energy_error": energy_error}
    return metrics, {"energy_within": energy_error <= config.tolerances["energy"]}


def _ok_disk(config, table, eps, grid, u, rep, points, target, sup):
    scale = float(np.max(np.abs(target)))
    metrics = {"ok_sup": sup, "ok_scale": scale}
    return metrics, {"balance_within": sup <= config.tolerances["balance"] * scale}


def _ok_lamellar(config, table, eps, grid, u, rep, points, target, sup):
    # a flat layer has kappa = 0, so sup is max |lambda - gamma * v|
    metrics = {"flat_sup": sup, "n_crossings": float(points.size)}
    return metrics, {"flat_within": sup <= config.tolerances["flat"]}


def _gt_check(config, table, eps, grid, u, rep, points, target, sup):
    lam = rep.multiplier
    # bulk plateaus continue the wells under the constant forcing lam:
    # roots of W'(r) = eps * lam
    lam_minus, lam_plus = bulk_roots(eps, lam)
    dev = bulk_deviation(u, grid, points, 10.0 * eps, lam_plus, lam_minus)
    metrics = {"gt_sup": sup, "bulk_dev": dev, "bulk_bound": eps * eps}
    checks = {
        "balance_within": sup <= config.tolerances["balance"] * lam,
        "bulk_within": dev <= eps * eps,
    }
    return metrics, checks


def _study_subsolution(config, eps, k, out, index):
    force = config.force
    if not force > 0.0:
        raise ValueError("subsolution studies need positive force")
    table = closed_form_profile()
    curv = 2.0 * force / (3.0 * table.sigma)
    rho = config.radius
    # spherical-cap boundary height; solve_cmc_graph rejects curv*rho >= 1
    cap = (1.0 / curv) - np.sqrt(max((1.0 / curv) ** 2 - rho * rho, 0.0))
    patch = solve_cmc_graph(0.0, rho, (cap, cap), curv)
    schedule = make_schedule(eps)
    delta = schedule.saturation
    h = eps / k
    half_cells = int(np.ceil(0.6 * rho / h))
    x_half = half_cells * h
    # the bowl is convex and even, so it is highest at the side walls; a
    # grid wider than the base is rejected by build_subsolution
    psi_max = patch.height(min(x_half, rho))
    m_lo = int(np.ceil(2.2 * delta / h))
    m_hi = int(np.ceil((psi_max + 2.2 * delta) / h))
    grid = Grid.box(
        (-x_half, -m_lo * h), (x_half, m_hi * h), (2 * half_cells, m_lo + m_hi)
    )
    # the field and its defect stream into their snapshots block by block
    with (
        _snapshot(out, f"subsolution-field-{index:02d}.npz", grid) as write_field,
        _snapshot(out, f"subsolution-defect-{index:02d}.npz", grid) as write_defect,
    ):
        def write(rows, values, defect):
            write_field(values)
            write_defect(defect)

        sub = build_subsolution(patch, schedule, table, force, grid, write)
    cert = verify_subsolution(sub, slack=config.tolerances["slack"] * force)
    metrics = {
        "max_defect": cert.max_defect,
        "bound": cert.bound,
        "defect_excess": cert.max_defect - (2.0 / 3.0) * force,
        "plateau_minus": sub.plateau_minus,
        "plateau_plus": sub.plateau_plus,
        "h": grid.spacing,
    }
    checks = {"defect_within": cert.passed}
    return metrics, checks


def _across_subsolution(config, rows):
    defects = [r.metrics["max_defect"] for r in rows]
    # the law's two-sided half: the excess over (2/3) force stays positive
    # and falls at least like eps^0.8 down the (decreasing) eps list
    excess = [(r.eps, r.metrics["defect_excess"]) for r in rows]
    return {
        "defect_non_increasing": all(b <= a for a, b in zip(defects, defects[1:])),
        "defect_excess_positive": all(e > 0.0 for _, e in excess),
        "defect_excess_order": all(
            ea > 0.0 and eb > 0.0 and np.log(ea / eb) >= 0.8 * np.log(pa / pb)
            for (pa, ea), (pb, eb) in zip(excess, excess[1:])
        ),
    }


def _study_multiplicity(config, eps, k, out, index):
    table = closed_form_profile()
    grid = _unit_box(eps, k, 1)
    x = grid.axis(0)
    center = config.center[0]
    metrics: dict = {"h": grid.spacing}
    exact = True
    within = True
    stack = {}
    for layers in (1, 2, 3):
        offsets = (np.arange(layers) - (layers - 1) / 2.0) * 4.0 * eps
        u = np.zeros_like(x)
        for i, off in enumerate(offsets):
            u += (-1.0) ** i * table.phi0_at((x - center - off) / eps)
        if layers % 2 == 0:
            u -= 1.0
        est = multiplicity_estimate(u, grid, eps, table.sigma, center, 8.0 * eps)
        metrics[f"est_{layers}"] = est
        exact = exact and round(est) == layers
        within = within and abs(est - layers) <= config.tolerances["estimate"]
        stack[f"layers_{layers}"] = u
    checks = {"exact_counts": exact, "estimates_within": within}
    if out is not None:
        np.savez(out / f"multiplicity-fields-{index:02d}.npz", x=x, **stack)
    return metrics, checks


def _study_gap(config, eps, k, out, index):
    upper, lower = asymptotic_gap(closed_form_profile(), config.force, eps)
    limit = config.force / 9.0
    metrics = {
        "upper_gap": upper,
        "lower_gap": lower,
        "upper_gap_error": abs(upper - limit),
        "lower_gap_error": abs(lower - limit),
    }
    low = config.tolerances["window_low"]
    high = config.tolerances["window_high"]
    checks = {
        "gaps_positive": upper > 0.0 and lower > 0.0,
        "window_within": low <= upper <= high and low <= lower <= high,
    }
    return metrics, checks


class _Study(NamedTuple):
    """Everything one study kind declares.

    run(config, eps, k, out, index) solves (or constructs) one width and
    returns its (metrics, checks), with k None for a kind that reads no
    grid_k; defaults is the kind's config schema: it names eps and every
    other key the kind reads, each with its default, which fills what a
    StudyConfig leaves out, and a StudyConfig refuses any key it does not
    name; tolerances are the default gates; anchors name the balance law each
    metric probes; orders lists the error metrics whose eps-to-eps ratios
    are reported as log2 orders; across(config, rows), given the rows that
    finished without error, returns the cross-width checks.
    """

    run: Callable
    defaults: dict
    tolerances: dict
    anchors: dict
    orders: tuple[str, ...] = ()
    across: Callable | None = None


# Balance laws that anchor more than one metric.
_GT = "sigma * kappa = lambda"
_RATIO = "lambda * R / sigma -> 1"
_LAYER = "energy per layer = 2 * sigma"
_OK = "sigma * kappa + v = lambda"
_FLAT = "flat interface: v = lambda"
_BULK = "|u - lambda_pm| <= eps^2 off the interface"
_DEFECT = "defect <= (7/9) * force"
_SHEETS = "ball mass / (2 sigma omega r) -> sheet count"

# The keys a solved disk kind reads besides eps.
_DISK = {"grid_k": 4, "radius": 0.25, "center": (0.5, 0.5), "mass": None}

STUDIES = {
    "profile": _Study(
        _study_profile,
        defaults={"eps": (0.02,)},
        tolerances={
            "sigma": 1e-10,
            "residual": 1e-8,
            "tanh": 1e-7,
            "tail": 1e-6,
            "equipartition": 1e-8,
        },
        anchors={
            "sigma": "sigma = sqrt(2)/3",
            "sigma_error": _LAYER,
            "profile_residual": "phi0'' = W'(phi0)",
            "tanh_gap": "phi0(r) = tanh(r / sqrt(2))",
            "tail_error": "phi1(+-inf) = sqrt(2) / 6",
            "equipartition": "phi0'^2 / 2 = W(phi0)",
        },
    ),
    "ch-disk": _Study(
        _solved(_disk, _ch_disk),
        defaults={"eps": (0.08, 0.04, 0.02), **_DISK},
        tolerances={"ratio_first": 0.15, "ratio_last": 0.05},
        anchors={
            "lambda": _GT,
            "r_eps": _RATIO,
            "ratio": _RATIO,
            "ratio_error": _RATIO,
            "gt_sup": _GT,
            "energy": _LAYER,
        },
        orders=("ratio_error",),
        across=_across_ch_disk,
    ),
    "ch-planar": _Study(
        _solved(_planar, _ch_planar),
        defaults={"eps": (0.02,), "grid_k": 8, "center": (0.5,), "mass": None},
        tolerances={"energy": 1e-3},
        anchors={
            "lambda": "flat layer: lambda -> 0",
            "energy": _LAYER,
            "energy_error": _LAYER,
        },
        orders=("energy_error",),
    ),
    "ok-disk": _Study(
        _solved(_disk, _ok_disk, coupled=True),
        defaults={"eps": (0.02,), **_DISK, "coupling": 1.0},
        tolerances={"balance": 0.1},
        anchors={"lambda": _OK, "ok_sup": _OK, "ok_scale": _OK},
    ),
    "ok-lamellar": _Study(
        _solved(_lamellar, _ok_lamellar, coupled=True),
        defaults={
            "eps": (0.01,),
            "grid_k": 8,
            "radius": 0.25,
            "center": (0.5,),
            "mass": None,
            "coupling": 1.0,
        },
        tolerances={"flat": 0.05},
        anchors={"lambda": _FLAT, "flat_sup": _FLAT, "n_crossings": _FLAT},
    ),
    "gt-check": _Study(
        _solved(_disk, _gt_check),
        defaults={"eps": (0.02,), **_DISK},
        tolerances={"balance": 0.1},
        anchors={"lambda": _GT, "gt_sup": _GT, "bulk_dev": _BULK, "bulk_bound": _BULK},
    ),
    "subsolution": _Study(
        _study_subsolution,
        defaults={"eps": (0.02, 0.01), "grid_k": (24, 48), "radius": 0.6, "force": 1.0},
        tolerances={"slack": 0.05},
        anchors={
            "max_defect": _DEFECT,
            "bound": _DEFECT,
            "defect_excess": "defect -> (2/3) * force",
        },
        orders=("defect_excess",),
        across=_across_subsolution,
    ),
    "multiplicity": _Study(
        _study_multiplicity,
        defaults={"eps": (0.01,), "grid_k": 8, "center": (0.5,)},
        tolerances={"estimate": 0.1},
        anchors={"est_1": _SHEETS, "est_2": _SHEETS, "est_3": _SHEETS},
    ),
    "gap": _Study(
        _study_gap,
        defaults={"eps": (0.01, 0.005, 0.0025), "force": 1.0},
        tolerances={"window_low": 0.08, "window_high": 0.14},
        anchors={
            "upper_gap": "(lambda_plus - beta_plus) / eps -> force/9",
            "lower_gap": "(lambda_minus - beta_minus) / eps -> force/9",
            "upper_gap_error": "(lambda_plus - beta_plus) / eps -> force/9",
            "lower_gap_error": "(lambda_minus - beta_minus) / eps -> force/9",
        },
        orders=("upper_gap_error", "lower_gap_error"),
    ),
}


def _orders(names: tuple[str, ...], rows: list[EpsRow]) -> dict:
    out: dict = {}
    for name in names:
        values = [
            r.metrics.get(name) if r.error is None else None for r in rows
        ]
        ratios = []
        for a, b in zip(values, values[1:]):
            if a is None or b is None or a <= 0.0 or b <= 0.0:
                ratios.append(None)
            else:
                ratios.append(float(np.log2(a / b)))
        if ratios:
            out[name] = ratios
    return out


def run_study(config: StudyConfig) -> StudyReport:
    """Execute every eps entry, collect rows, and write the report files.

    Every kind but the profile study, which builds its own Newton table,
    reads the profile through the node-less closed-form table, looked up
    where it is used (the well is a constant).  A failure at one eps is
    recorded in that row and the sweep continues.  The study
    passes only if every row completed and every row-level and cross-eps
    check holds.
    """
    study = STUDIES[config.kind]
    out = None
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows: list[EpsRow] = []
    seconds: list[float] = []
    peak_rss_mb: list[float] = []
    ks = config.grid_k or (None,) * len(config.eps)
    for index, (eps, k) in enumerate(zip(config.eps, ks)):
        start = time.perf_counter()
        try:
            metrics, checks = study.run(config, eps, k, out, index)
            rows.append(EpsRow(eps=eps, metrics=_plain(metrics), checks=checks))
        except Exception as exc:
            rows.append(
                EpsRow(
                    eps=eps,
                    metrics={},
                    checks={},
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        seconds.append(time.perf_counter() - start)
        peak_rss_mb.append(_peak_rss_mb())
    clean = [r for r in rows if r.error is None]
    cross = study.across(config, clean) if study.across and clean else {}
    passed = (
        len(clean) == len(rows)
        and all(all(r.checks.values()) for r in rows)
        and all(cross.values())
    )
    report = StudyReport(
        config=config,
        rows=tuple(rows),
        cross_checks=cross,
        orders=_orders(study.orders, rows),
        passed=passed,
        seconds=tuple(seconds),
        peak_rss_mb=tuple(peak_rss_mb),
    )
    if out is not None:
        write_report(report, out)
    return report


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MB (ru_maxrss counts KB
    on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _plain(metrics: dict) -> dict:
    return {k: float(v) for k, v in metrics.items()}


def report_payload(report: StudyReport) -> dict:
    """Canonical report content: pure function of the configuration."""
    return {
        "config": report.config.to_mapping(),
        "anchors": STUDIES[report.config.kind].anchors,
        "rows": [asdict(row) for row in report.rows],
        "cross_checks": report.cross_checks,
        "orders": report.orders,
        "passed": report.passed,
    }


def write_report(report: StudyReport, out: Path) -> None:
    """report.json is canonical (sorted keys, no timings); timings.json is
    the wall-clock and memory sidecar and is allowed to differ between
    reruns: seconds per width and the process's peak resident set in MB
    after each width."""
    payload = report_payload(report)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    timing = {
        "seconds_per_eps": list(report.seconds),
        "peak_rss_mb_per_eps": list(report.peak_rss_mb),
        "total_seconds": float(sum(report.seconds)),
    }
    (out / "timings.json").write_text(json.dumps(timing, indent=2) + "\n")


# Every subcommand: (help, {seed geometry: study kind}).  A command of one
# kind maps None to it; one that names geometries takes --seed-geometry,
# one of those names, and defaults to the first.
_COMMANDS = {
    "profile": (
        "transition profile table and its closed-form checks",
        {None: "profile"},
    ),
    "solve-ch": (
        "stationary conserved states (disk or planar seed)",
        {"disk": "ch-disk", "planar": "ch-planar"},
    ),
    "solve-ok": (
        "long-range coupled states (disk or lamellar seed)",
        {"disk": "ok-disk", "lamellar": "ok-lamellar"},
    ),
    "gt-check": (
        "curvature balance and bulk plateaus on a solved disk",
        {None: "gt-check"},
    ),
    "subsolution-check": (
        "defect certificate of the comparison field",
        {None: "subsolution"},
    ),
    "multiplicity": ("sheet counts of synthetic layer stacks", {None: "multiplicity"}),
    "gap": ("bulk-root versus plateau gap rates", {None: "gap"}),
    "study": ("run a study described by a JSON config", {}),
}


def _parse_list(flag: str, text: str, convert, what: str) -> list:
    """Comma-separated values of a CLI flag; a bad entry names the flag."""
    try:
        return [convert(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes {what}, got {text!r}") from None


def _parse_eps(text: str) -> tuple[float, ...]:
    return tuple(_parse_list("--eps", text, float, "a comma list of numbers"))


def _parse_grid_k(text: str):
    parts = _parse_list("--grid-k", text, int, "one integer or a comma list of integers")
    return parts[0] if len(parts) == 1 else tuple(parts)


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    try:
        mapping = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(mapping, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return mapping


def _config_from_args(args) -> StudyConfig:
    """Route the command to its kind, apply --eps, --grid-k and --out, and
    reject an empty flag value or a config file whose kind the command
    does not run; every other key, and every default, is StudyConfig's."""
    for name in ("config", "eps", "grid_k", "out"):
        if getattr(args, name, None) == "":
            raise ValueError(f"--{name.replace('_', '-')} must not be empty")
    grid_k = getattr(args, "grid_k", None)
    mapping = _load_config_file(args.config) if args.config is not None else {}
    if args.command == "study":
        if args.config is None:
            raise ValueError("the study command requires --config")
    else:
        kind = _COMMANDS[args.command][1][getattr(args, "seed_geometry", None)]
        if mapping.get("kind", kind) != kind:
            raise ValueError(
                f"config key kind = {mapping['kind']!r} conflicts with the "
                f"{args.command} command (expected {kind!r})"
            )
        mapping["kind"] = kind
    if args.eps is not None:
        mapping["eps"] = _parse_eps(args.eps)
    if grid_k is not None:
        mapping["grid_k"] = _parse_grid_k(grid_k)
    if args.out is not None:
        mapping["out_dir"] = args.out
    return StudyConfig.from_mapping(mapping)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtlab",
        description=(
            "curvature-balance studies for diffuse-interface fields: "
            "stationary solves, comparison certificates, and eps sweeps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, geometries) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON study configuration file")
        p.add_argument("--out", help="output directory for reports and snapshots")
        p.add_argument("--eps", help="comma-separated decreasing eps list")
        # a command takes --grid-k when a kind it can run reads grid_k
        if any("grid_k" in STUDIES[kind].defaults for kind in geometries.values() or STUDIES):
            p.add_argument(
                "--grid-k", dest="grid_k", help="cells per eps: one integer or a comma list"
            )
        if any(geometries):
            p.add_argument(
                "--seed-geometry",
                dest="seed_geometry",
                choices=list(geometries),
                default=next(iter(geometries)),
                help="the seed, which selects the study kind (default: %(default)s)",
            )
    return parser


def _print_summary(report: StudyReport) -> None:
    config = report.config
    print(f"study {config.kind}: eps = {', '.join('%g' % e for e in config.eps)}")
    for row, sec in zip(report.rows, report.seconds):
        if row.error is not None:
            print(f"  eps {row.eps:g}: FAILED ({row.error}) [{sec:.1f}s]")
            continue
        shown = {
            k: v for k, v in row.metrics.items() if k != "h"
        }
        body = ", ".join(f"{k} = {v:.6g}" for k, v in sorted(shown.items()))
        flag = "ok" if all(row.checks.values()) else "CHECK FAILED"
        print(f"  eps {row.eps:g}: {body} [{flag}, {sec:.1f}s]")
    for name, good in sorted(report.cross_checks.items()):
        print(f"  {name}: {'ok' if good else 'FAILED'}")
    print(f"result: {'PASS' if report.passed else 'FAIL'}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_study(config)
    _print_summary(report)
    return 0 if report.passed else 1
