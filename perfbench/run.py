#!/usr/bin/env python3
"""gtlab benchmark: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gtlab checkout; gtlab is imported from ./src.  The
workloads are defined in workloads.py (``--workload all`` runs each in turn).

With ``--trace 0`` the workload is repeated in fresh processes for about S
seconds and the end-to-end metrics are printed: wall_s (median seconds per
repetition), setup_s (median of three fresh ``import gtlab`` plus default
profile-table builds) and peak_rss_mb (median peak resident memory of the
workload's process, or of its largest command for cli-defaults).

With ``--trace 1`` the workload runs once untraced and twice traced, and the
per-layer metrics of BENCHMARK.json are printed.  The traced runs must write
report.json files byte-identical to the untraced run, and their work counts
must agree exactly.

Every study's report is checked against reference values (workloads.py);
a study that disagrees counts as failed.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
WORKER = HERE / "worker.py"

SETUP_REPEATS = 3
TRACED_REPEATS = 2
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts child processes one at a time, each bounded by one deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """(exit code, wall seconds, peak RSS in MB) of one child process.

        The parent blocks in wait4 (it does not poll, so it takes no CPU
        from the child); a watchdog thread kills the child at the deadline.
        """
        expired = threading.Event()
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )

            def kill() -> None:
                expired.set()
                proc.kill()

            watchdog = threading.Timer(max(self.deadline - start, 0.0), kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            raise BenchError(f"time limit reached while running {argv[1:3]}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def python(self, args: list[str], log: Path) -> tuple[int, float, float]:
        return self.run([sys.executable, *args], log)


def _read_log(log: Path) -> str:
    return log.read_text(errors="replace").strip()


def measure_setup(runner: Runner, work: Path) -> dict:
    """One fresh interpreter's set-up time, with the machine notes."""
    log = work / "setup.log"
    code, _, _ = runner.python([str(WORKER), "setup"], log)
    if code != 0:
        raise BenchError(f"cannot set up gtlab from {ROOT / 'src'}:\n{_read_log(log)}")
    notes = json.loads(_read_log(log).splitlines()[-1])
    if not Path(notes["gtlab"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"gtlab imported from {notes['gtlab']}, not from {ROOT / 'src'}")
    return notes


def run_once(runner: Runner, name: str, seed: int, jobs: list[dict], trace: bool, work: Path) -> dict:
    """One repetition of the workload, each study checked against references."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    flag = "1" if trace else "0"
    layers: list[dict] = []
    if name == "cli-defaults":
        wall, rss = 0.0, 0.0
        for i, job in enumerate(jobs):
            result = work / f"{i}.json"
            log = work / f"{i}.log"
            argv = [str(WORKER), "cli", str(work / str(i)), flag, str(result), *job["argv"]]
            code, seconds, peak = runner.python(argv, log)
            if code not in (0, 1):  # 1: the study ran and failed a rule
                raise BenchError(f"gtlab {' '.join(job['argv'])} exited {code}:\n{_read_log(log)}")
            wall += seconds
            rss = max(rss, peak)
            if trace:
                layers.append(json.loads(result.read_text())["layers"])
    else:
        spec = work / "spec.json"
        spec.write_text(json.dumps([job["config"] for job in jobs]))
        result = work / "result.json"
        log = work / "worker.log"
        code, _, rss = runner.python([str(WORKER), "studies", str(work), flag, str(result), str(spec)], log)
        if code != 0:
            raise BenchError(f"worker exited {code}:\n{_read_log(log)}")
        payload = json.loads(result.read_text())
        wall = payload["wall_s"]
        if trace:
            layers.append(payload["layers"])
    reports = [(work / str(i) / "report.json").read_bytes() for i in range(len(jobs))]
    problems = {}
    failed = 0
    for i, raw in enumerate(reports):
        report = json.loads(raw)
        failed += not report["passed"]
        found = workloads.mismatches(name, seed, i, report)
        if found:
            problems[i] = found
    merged = None
    if trace:
        merged = {key: sum(part[key] for part in layers) for key in layers[0]}
    return {
        "wall_s": wall,
        "rss_mb": rss,
        "reports": reports,
        "studies": len(jobs),
        "studies_failed": failed,
        "mismatched": problems,
        "layers": merged,
        "solver": _solver_notes(jobs, reports),
    }


def _solver_notes(jobs: list[dict], reports: list[bytes]) -> list[str]:
    notes = []
    for job, raw in zip(jobs, reports):
        report = json.loads(raw)
        for row in report["rows"]:
            if "solver_converged" in row["checks"]:
                state = "converged" if row["checks"]["solver_converged"] else "stalled"
                notes.append(f"{job['kind']} eps {row['eps']:g}: {state}")
    return notes


def _print_run(label: str, run: dict) -> None:
    print(
        f"  {label}: wall {run['wall_s']:.3f} s, peak rss {run['rss_mb']:.1f} MB, "
        f"studies failed {run['studies_failed']}/{run['studies']}, "
        f"results mismatched {len(run['mismatched'])}/{run['studies']}"
    )
    for i, found in sorted(run["mismatched"].items()):
        for line in found:
            print(f"    MISMATCH study {i}: {line}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (all metrics, counters for the result line)."""
    started = time.perf_counter()
    runner = Runner(started + TIME_LIMIT_S)
    work = RUN_DIR / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # every sample also checks gtlab comes from this checkout; the first
    # one in a fresh checkout compiles bytecode, which the median discards
    setups = [measure_setup(runner, work) for _ in range(1 if trace else SETUP_REPEATS)]
    info = setups[0]
    cores = info["cores"]
    print(
        f"machine: {cores} cores, {info['cpu']}, python {info['python']}, "
        f"numpy {info['numpy']}, scipy {info['scipy']}, blas {info['blas']} "
        f"({info['blas_threads']} threads), scipy.fft workers {info['fft_workers']}"
    )
    if info["blas_threads"] is not None and info["blas_threads"] > cores:
        raise BenchError(f"BLAS runs {info['blas_threads']} threads on {cores} cores")
    jobs = workloads.jobs(name, seed)
    geo = workloads.geometry(name, seed)
    print(f"workload {name}, seed {seed}: {len(jobs)} studies, geometry {geo}")

    runs = []
    metrics: dict = {}
    if not trace:
        begin = time.perf_counter()
        while True:
            run = run_once(runner, name, seed, jobs, False, work / f"run{len(runs)}")
            runs.append(run)
            _print_run(f"repetition {len(runs)}", run)
            now = time.perf_counter()
            mean = (now - begin) / len(runs)
            if now - begin + mean > seconds or now + mean > runner.deadline:
                break
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in runs)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in runs)
        samples = ", ".join(f"{s['setup_s']:.3f}" for s in setups)
        print(f"  setup_s samples: {samples}")
    else:
        base = run_once(runner, name, seed, jobs, False, work / "untraced")
        _print_run("untraced", base)
        runs.append(base)
        traced = []
        for i in range(TRACED_REPEATS):
            run = run_once(runner, name, seed, jobs, True, work / f"traced{i}")
            _print_run(f"traced {i + 1}", run)
            traced.append(run)
        runs.extend(traced)
        for i, run in enumerate(traced):
            if run["reports"] != base["reports"]:
                raise BenchError(f"traced run {i + 1} wrote different report.json bytes")
        first = traced[0]["layers"]
        for run in traced[1:]:
            differ = [k for k in tracing.COUNTS if run["layers"][k] != first[k]]
            if differ:
                raise BenchError(f"work counts differ between traced runs: {differ}")
        for key in first:
            metrics[key] = statistics.median(run["layers"][key] for run in traced)
        newton_runs = metrics["solve.newton_runs"]
        metrics["solve.converged_ratio"] = (
            metrics["solve.newton_converged"] / newton_runs if newton_runs else 0.0
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / base["wall_s"]
        )
        print("  traced reports byte-identical to untraced; work counts repeat exactly")

    last = runs[-1]
    for note in last["solver"]:
        print(f"  solver: {note}")
    attempted = sum(r["studies"] for r in runs)
    failed = sum(len(r["mismatched"]) for r in runs)
    metrics["studies_failed"] = last["studies_failed"]
    metrics["results_mismatched"] = len(last["mismatched"])
    counts = {"attempted": attempted, "failed": failed, "repetitions": len(runs), "studies": len(jobs)}
    return metrics, counts


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def _report(name: str, metrics: dict, counts: dict, declared: list[dict]) -> dict:
    print(f"{name}: {counts['repetitions']} repetitions")
    for key in ("studies_failed", "results_mismatched"):
        print(f"  {key} = {metrics[key]} of {counts['studies']} studies")
    shown = {}
    for entry in declared:
        value = metrics[entry["name"]]
        shown[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} = {value:.6g} {entry['unit']}")
    return shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gtlab" / "__init__.py").is_file():
        print(f"error: no gtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = _declared(trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            values, counts = run_workload(name, args.seed, args.seconds, trace)
            shown = _report(name, values, counts, declared)
            attempted += counts["attempted"]
            failed += counts["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in shown.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
