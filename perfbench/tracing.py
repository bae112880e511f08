"""Timing wrappers at the names gtlab's callers look up.

``install()`` rebinds module attributes (``gtlab.solve.laplacian``,
``gtlab.harness.extract_contours``, ...) to wrappers that record a span per
call and bump per-layer counters.  Spans are kept in memory as
``(name, parent, start, end)``; a span's self time is its duration minus the
time its child spans cover.  Nothing here changes arguments or results, so a
traced run writes the same report.json bytes as an untraced one.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper named ``name``.

        ``count(counts, args, kwargs, result)`` adds work counters.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append((name, parent, time.perf_counter(), 0.0))
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                _, _, start, _ = tracer.spans[index]
                tracer.spans[index] = (name, parent, start, time.perf_counter())
            tracer.counts[name + ".n"] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)


def install() -> Tracer:
    """Wrap the public entry points of every gtlab layer for the rest of the
    process; return the tracer."""
    import numpy as np

    from gtlab import comparison, field, harness, potential, solve

    t = Tracer()

    # potential
    t.wrap(harness, "optimal_profile", "optimal_profile")
    t.wrap(harness, "first_order_correction", "first_order_correction")

    def profile_points(counts, args, kwargs, result):
        counts["profile_eval.points"] += np.size(args[3])

    t.wrap(potential.ProfileTable, "_eval", "profile_eval", profile_points)

    # field: every module-level binding of the Laplacian and Poisson solve
    def lap_cells(counts, args, kwargs, result):
        counts["laplacian.cells"] += args[0].size

    for module in (field, solve, comparison):
        t.wrap(module, "laplacian", "laplacian", lap_cells)
    for module in (field, solve):
        t.wrap(module, "poisson_neumann", "poisson_neumann")

    # solve
    t.wrap(harness, "solve_conserved", "solve_conserved")

    def newton_result(counts, args, kwargs, result):
        counts["newton_steps"] += result[2]
        counts["newton_converged"] += bool(result[4])

    original_newton = solve._newton

    def counted_newton(residual_fn, *rest, **kwargs):
        def residual(*a, **k):
            t.counts["residual_evals"] += 1
            return residual_fn(*a, **k)

        return original_newton(residual, *rest, **kwargs)

    solve._newton = counted_newton
    t.wrap(solve, "_newton", "newton", newton_result)

    original_minres = solve.minres

    def counted_minres(*args, **kwargs):
        inner = kwargs.get("callback")

        def callback(xk):
            t.counts["krylov_iters"] += 1
            if inner is not None:
                inner(xk)

        kwargs["callback"] = callback
        return original_minres(*args, **kwargs)

    solve.minres = counted_minres
    t.wrap(solve, "minres", "minres")
    t.wrap(solve._SpectralInverse, "__call__", "precond")

    # interface
    def contour_work(counts, args, kwargs, result):
        counts["extract_contours.cells"] += args[0].size
        counts["extract_contours.vertices"] += sum(len(c.points) for c in result)

    def curvature_work(counts, args, kwargs, result):
        counts["curvature.vertices"] += len(args[0].points)

    t.wrap(harness, "extract_contours", "extract_contours", contour_work)
    t.wrap(harness, "curvature", "curvature", curvature_work)

    # measure
    t.wrap(harness, "bulk_deviation", "bulk_deviation")
    t.wrap(harness, "multiplicity_estimate", "multiplicity_estimate")

    # comparison: signed_distance is looked up inside the comparison module
    original_distance = comparison.signed_distance

    def measured_distance(patch, points, *args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = original_distance(patch, points, *args, **kwargs)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        t.counts["signed_distance.rss_growth_mb"] += (after - before) / 1024.0
        t.counts["signed_distance.points"] += np.size(points) // 2
        return result

    comparison.signed_distance = measured_distance
    t.wrap(comparison, "signed_distance", "signed_distance")
    for name in ("build_subsolution", "solve_cmc_graph", "verify_subsolution"):
        t.wrap(harness, name, name)

    # harness: the study driver and every report, snapshot and CSV write
    t.wrap(harness, "run_study", "run_study")
    for name in ("write_report", "_save_field", "write_contour_csv", "_write_crossings"):
        t.wrap(harness, name, "io")
    t.wrap(potential.ProfileTable, "save", "io")
    t.wrap(np, "savez", "io")
    return t


# Per-layer work counts: deterministic, so two traced runs must agree exactly.
COUNTS = {
    "potential.optimal_profile.n": "optimal_profile.n",
    "potential.profile_eval.points": "profile_eval.points",
    "field.laplacian.n": "laplacian.n",
    "field.laplacian.cells": "laplacian.cells",
    "field.poisson_neumann.n": "poisson_neumann.n",
    "solve.solve_conserved.n": "solve_conserved.n",
    "solve.newton_steps": "newton_steps",
    "solve.krylov_iters": "krylov_iters",
    "solve.precond_applies": "precond.n",
    "solve.residual_evals": "residual_evals",
    "solve.newton_runs": "newton.n",
    "solve.newton_converged": "newton_converged",
    "interface.extract_contours.n": "extract_contours.n",
    "interface.extract_contours.cells": "extract_contours.cells",
    "interface.extract_contours.vertices": "extract_contours.vertices",
    "interface.curvature.vertices": "curvature.vertices",
    "comparison.signed_distance.points": "signed_distance.points",
}

# Per-layer self seconds, by span name.
SECONDS = {
    "potential.optimal_profile.s": "optimal_profile",
    "potential.first_order_correction.s": "first_order_correction",
    "potential.profile_eval.s": "profile_eval",
    "field.laplacian.s": "laplacian",
    "field.poisson_neumann.s": "poisson_neumann",
    "solve.solve_conserved.s": "solve_conserved",
    "solve.precond.s": "precond",
    "solve.minres.s": "minres",
    "interface.extract_contours.s": "extract_contours",
    "interface.curvature.s": "curvature",
    "measure.bulk_deviation.s": "bulk_deviation",
    "measure.multiplicity_estimate.s": "multiplicity_estimate",
    "comparison.signed_distance.s": "signed_distance",
    "comparison.build_subsolution.s": "build_subsolution",
    "comparison.solve_cmc_graph.s": "solve_cmc_graph",
    "comparison.verify_subsolution.s": "verify_subsolution",
    "harness.run_study.s": "run_study",
    "harness.io.s": "io",
}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counts, self seconds and memory growth of one traced process."""
    selfs = t.self_seconds()
    out = {metric: t.counts[key] for metric, key in COUNTS.items()}
    out.update({metric: selfs.get(key, 0.0) for metric, key in SECONDS.items()})
    out["comparison.signed_distance.rss_growth_mb"] = t.counts["signed_distance.rss_growth_mb"]
    return out
