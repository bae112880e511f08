"""Workload definitions, geometry from the seed, and reference checks.

A workload is a list of jobs.  A study job is a ``StudyConfig`` mapping run
through ``gtlab.harness.run_study`` in one worker process; a CLI job is an
argument list for the ``gtlab`` entry point, run as a fresh process.

Seed 0 is the canonical configuration.  Any other seed jitters the disk
radius and the graph base radius within the ranges below.  The ranges are
narrow so that every seed does about the same amount of work.  The disk stays
centred: an off-centre disk is not a stationary state (the walls and, for
ok-disk, the long-range term push it), so Newton has to translate it and its
work grows by orders of magnitude (an ok-disk at eps 0.005 centred at
(0.507, 0.505) ran for minutes).  cli-defaults runs the commands at their
defaults whatever the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SIGMA = math.sqrt(2.0) / 3.0

DISK_RADIUS = 0.25
DISK_CENTER = (0.5, 0.5)
GRAPH_RADIUS = 0.6

# Jitter applied for seeds other than 0 (half-widths of uniform ranges).
DISK_RADIUS_JITTER = 0.005
GRAPH_RADIUS_JITTER = 0.006

WORKLOADS = ("disk-fine", "disk-stall", "certificate", "cli-defaults")
SEEDED = ("disk-fine", "disk-stall", "certificate")

# Headline metrics per study kind: the values compared with references.
HEADLINE = {
    "profile": ("sigma",),
    "ch-disk": ("lambda", "ratio_error", "r_eps", "gt_sup", "energy"),
    "ch-planar": ("lambda", "energy"),
    "ok-disk": ("lambda", "ok_sup", "ok_scale"),
    "ok-lamellar": ("lambda", "flat_sup", "n_crossings"),
    "gt-check": ("lambda", "gt_sup", "bulk_dev"),
    "subsolution": ("max_defect", "plateau_minus", "plateau_plus"),
    "multiplicity": ("est_1", "est_2", "est_3"),
    "gap": ("upper_gap", "lower_gap"),
}

# Seed-0 headline values must match reference.json to this relative
# tolerance, with an absolute floor for values near zero.
FROZEN_RTOL = 1e-6
FROZEN_ATOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def geometry(workload: str, seed: int) -> dict:
    """Disk radius and centre and graph base radius for a workload and seed."""
    if seed == 0 or workload not in SEEDED:
        return {"radius": DISK_RADIUS, "center": DISK_CENTER, "graph_radius": GRAPH_RADIUS}
    rng = random.Random(seed)
    return {
        "radius": round(DISK_RADIUS + rng.uniform(-1, 1) * DISK_RADIUS_JITTER, 6),
        "center": DISK_CENTER,
        "graph_radius": round(GRAPH_RADIUS + rng.uniform(-1, 1) * GRAPH_RADIUS_JITTER, 6),
    }


def jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of a workload; each has ``kind`` plus ``config`` or ``argv``."""
    geo = geometry(workload, seed)
    disk = {"radius": geo["radius"], "center": list(geo["center"])}
    if workload == "disk-fine":
        return [
            {"kind": kind, "config": {"kind": kind, "eps": [0.005], "grid_k": 4, **disk}}
            for kind in ("ch-disk", "ok-disk")
        ]
    if workload == "disk-stall":
        return [{"kind": "ch-disk", "config": {"kind": "ch-disk", "eps": [0.016], "grid_k": 4, **disk}}]
    if workload == "certificate":
        config = {
            "kind": "subsolution",
            "eps": [0.02, 0.016],
            "grid_k": [24, 24],
            "radius": geo["graph_radius"],
            "force": 1.0,
        }
        return [{"kind": "subsolution", "config": config}]
    if workload == "cli-defaults":
        return [
            {"kind": "profile", "argv": ["profile"]},
            {"kind": "ch-disk", "argv": ["solve-ch"]},
            {"kind": "ch-planar", "argv": ["solve-ch", "--seed-geometry", "planar"]},
            {"kind": "ok-disk", "argv": ["solve-ok"]},
            {"kind": "ok-lamellar", "argv": ["solve-ok", "--seed-geometry", "lamellar"]},
            {"kind": "gt-check", "argv": ["gt-check"]},
            {"kind": "multiplicity", "argv": ["multiplicity"]},
            {"kind": "gap", "argv": ["gap"]},
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def headline(report: dict) -> list[dict]:
    """Per-row headline metrics of a report.json payload."""
    names = HEADLINE[report["config"]["kind"]]
    return [
        {"eps": row["eps"], "error": row["error"], **{n: row["metrics"].get(n) for n in names}}
        for row in report["rows"]
    ]


def _law_checks(report: dict) -> list[tuple[str, float, float, float]]:
    """(metric, value, reference, tolerance) from the balance laws, any seed."""
    config = report["config"]
    kind = config["kind"]
    out = []
    for row in report["rows"]:
        m = row["metrics"]
        eps = row["eps"]
        if kind in ("ch-disk", "ok-disk", "gt-check"):
            # sigma * kappa = lambda on a disk of the seed radius; the
            # interface radius shrinks by O(eps) as the seed relaxes
            ref = SIGMA / config["radius"]
            out.append(("lambda", m["lambda"], ref, (0.05 + eps / config["radius"]) * ref))
        if kind == "ch-disk":
            out.append(("ratio_error", m["ratio_error"], 0.0, 0.05))
        if kind == "ok-disk":
            out.append(("ok_sup", m["ok_sup"], 0.0, 0.1 * m["ok_scale"]))
        if kind == "gt-check":
            out.append(("bulk_dev", m["bulk_dev"], 0.0, eps * eps))
        if kind == "profile":
            out.append(("sigma", m["sigma"], SIGMA, 1e-9))
        if kind == "ch-planar":
            out.append(("energy", m["energy"], 2.0 * SIGMA, 1e-3))
        if kind == "ok-lamellar":
            out.append(("flat_sup", m["flat_sup"], 0.0, 0.05))
        if kind == "subsolution":
            force = config["force"]
            # defect <= (7/9) force, tending to (2/3) force
            out.append(("max_defect", m["max_defect"], 2.0 * force / 3.0, force / 9.0))
        if kind == "multiplicity":
            out.extend((f"est_{k}", m[f"est_{k}"], float(k), 0.1) for k in (1, 2, 3))
        if kind == "gap":
            limit = config["force"] / 9.0
            out.extend((g, m[g], limit, 0.03) for g in ("upper_gap", "lower_gap"))
    return out


def mismatches(workload: str, seed: int, index: int, report: dict) -> list[str]:
    """Why a study's report disagrees with its references (empty if it agrees).

    Every seed is checked against the balance laws; the canonical inputs
    (seed 0, or any seed of an unseeded workload) are also checked against
    the frozen headline values in reference.json.
    """
    problems = [f"row eps={r['eps']:g}: {r['error']}" for r in report["rows"] if r["error"]]
    if problems:
        return problems
    for name, value, ref, tol in _law_checks(report):
        if not abs(value - ref) <= tol:
            problems.append(f"{name} = {value:.6g}, law reference {ref:.6g} +- {tol:.3g}")
    if seed == 0 or workload not in SEEDED:
        frozen = json.loads(REFERENCE_FILE.read_text())[workload][index]
        for want, got in zip(frozen, headline(report), strict=True):
            for name, ref in want.items():
                value = got[name]
                if name in ("eps", "error"):
                    ok = value == ref
                else:
                    ok = abs(value - ref) <= max(FROZEN_RTOL * abs(ref), FROZEN_ATOL)
                if not ok:
                    problems.append(f"{name} = {value!r}, frozen reference {ref!r}")
    return problems
