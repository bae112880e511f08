"""One measured process of the benchmark; run.py starts it with PYTHONPATH=src.

    worker.py studies OUT TRACE RESULT SPEC
        Run the StudyConfig mappings listed in the JSON file SPEC through
        gtlab.harness.run_study, study i writing into OUT/i.  Writes
        {"wall_s": ..., "layers": ...} to RESULT; wall_s covers the studies
        only (the import is measured as setup_s).  With TRACE 1 the spans,
        [name, parent index, start, end], go to OUT/spans.json.
    worker.py cli OUT TRACE RESULT ARG...
        Run the gtlab command line with ARG... --out OUT, as the installed
        ``gtlab`` script does; with TRACE 1 also write the layer metrics to
        RESULT and the spans to OUT/spans.json.  Exits with the command's
        exit code.
    worker.py setup
        Time ``import gtlab`` plus the default profile table, then print
        {"setup_s": ..., "gtlab": <its location>, <machine notes>} as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if it reports one."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _setup() -> dict:
    start = time.perf_counter()
    import gtlab

    well = gtlab.DoubleWell()
    gtlab.first_order_correction(gtlab.optimal_profile(well), well)
    setup_s = time.perf_counter() - start

    import os
    import platform

    import numpy
    import scipy
    import scipy.fft

    model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": setup_s,
        "gtlab": gtlab.__file__,
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "fft_workers": scipy.fft.get_workers(),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(_setup()))
        return 0
    out, trace, result = argv[1], argv[2] == "1", argv[3]
    tracer = None
    if trace:
        from tracing import install, layer_metrics

        tracer = install()
    from gtlab import harness

    if mode == "cli":
        code = harness.main([*argv[4:], "--out", out])
        wall = None
    else:
        with open(argv[4]) as handle:
            configs = json.load(handle)
        wall = 0.0
        for i, config in enumerate(configs):
            study = harness.StudyConfig.from_mapping({**config, "out_dir": f"{out}/{i}"})
            start = time.perf_counter()
            harness.run_study(study)
            wall += time.perf_counter() - start
        code = 0
    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer)
        with open(f"{out}/spans.json", "w") as handle:
            json.dump(tracer.spans, handle)
    if tracer is not None or wall is not None:
        with open(result, "w") as handle:
            json.dump({"wall_s": wall, "layers": layers}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
