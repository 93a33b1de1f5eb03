"""One workload process: set up, optionally run one pass, print a JSON line.

Started by run.py with PYTHONPATH set to the checkout's absolute `src`.
Modes: `setup` stops once the workload is ready to run; `pass` runs one
untraced pass; `trace` runs one pass under the span tracer and writes the
spans to `--spans`.  The result's `ready` is a `time.monotonic()` stamp,
which is system-wide on Linux, so the parent can time set-up from spawn.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback


def blas_threads():
    """Threads each loaded OpenBLAS reports, by library file name."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment(bsweyl):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "bsweyl_file": bsweyl.__file__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--src", required=True, help="absolute src directory bsweyl must come from")
    ap.add_argument("--scratch", required=True, help="directory for experiment artifacts")
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args(argv)

    import bsweyl

    if not os.path.abspath(bsweyl.__file__).startswith(os.path.join(args.src, "")):
        sys.exit(f"imported bsweyl from {bsweyl.__file__}, not from {args.src}")
    from run import GATES
    from workloads import WORKLOADS, Gates

    build, run = WORKLOADS[args.workload]
    inputs = build(args.seed)
    result = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    from spans import Tracer, layer_metrics

    gates = Gates(GATES[args.workload])
    tracer = Tracer() if args.mode == "trace" else contextlib.nullcontext()
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    extra = {}
    t0 = time.perf_counter()
    try:
        with tracer:
            extra = run(inputs, gates, outdir)
    except Exception as exc:  # a failed pass is a result: its gates count as failed
        traceback.print_exc()
        gates.fail_rest(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    shutil.rmtree(outdir, ignore_errors=True)
    result.update(wall_s=wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  gates=gates.results, env=environment(bsweyl))
    if args.mode == "trace":
        # weyl_rms_rel_err is 0 for workloads that run no C1
        result["layers"] = {"density.weyl_rms_rel_err": 0.0,
                            **layer_metrics(tracer.spans, tracer.counters), **extra}
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans, "counters": tracer.counters}, fh)
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
