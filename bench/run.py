"""Run a bsweyl benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh worker process (bench/worker.py)
with PYTHONPATH set to this checkout's absolute `src` and the BLAS thread
count fixed, so no stale or missing bsweyl is ever measured.

`--trace 0` measures the end-to-end metrics with tracing off: `setup_s`
is the median over several worker start-ups (spawn to ready), `wall_s`
the median pass time (gates included) over the whole passes that fit in
`--seconds` (at least one), and `peak_rss_mb` the largest worker peak.
`--trace 1` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass, plus `trace.overhead_frac`.

Metric names, units and directions come from BENCHMARK.json.  Human
lines go first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Gates that fail or a pass that
crashes make `correct` false; the full record (environment, gates per
pass) is written to .bench_out/.  Without the bsweyl sources next to
this directory the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # every run must end within 180 s
SETUP_SAMPLES = 3  # set-up is noisy (scipy import): half run before the passes, half after
BLAS_THREADS = str(min(2, os.cpu_count() or 1))

# workload -> the acceptance gates one pass checks (see workloads.py)
GATES = {
    "weyl-sampling": ("c1_cells", "c6_density_z", "c7_volume"),
    "spectral-lattice": ("c5_lattice", "c5_bs_predict", "c5_count", "c6_spectral",
                         "perturbed_count_0", "perturbed_count_1"),
    "variation-quadrature": ("c3_first_identity", "c3_integrable_zero",
                             "c4_second_identity", "c4_certificate"),
    "flow-trig": ("trig_density_z", "c2_defect", "reversibility"),
}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker(workload, seed, mode, deadline, spans=None):
    """Start one worker and return its result, with `setup_s` from spawn to ready."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--src", str(SRC), "--scratch", str(OUT)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker timed out"}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} worker exited {proc.returncode}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - start
    return result


def tally(workload, passes):
    """(attempted, failed) gates over the passes; a crashed pass fails them all."""
    attempted = failed = 0
    for p in passes:
        gates = p.get("gates") or {}
        attempted += len(GATES[workload])
        failed += sum(1 for g in GATES[workload] if not gates.get(g, {}).get("ok"))
    return attempted, failed


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        plain = worker(workload, seed, "pass", deadline)
        traced = worker(workload, seed, "trace", deadline,
                        spans=OUT / f"{workload}-seed{seed}-spans.json")
        passes, setups = [plain, traced], []
        metrics = dict(traced.get("layers", {}))
        if "wall_s" in plain and "wall_s" in traced:
            metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    else:
        setups = [worker(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(worker(workload, seed, "pass", deadline))
            elapsed = time.monotonic() - t0
            if "error" in passes[-1] or elapsed * (1 + 1 / len(passes)) > seconds:
                break
        setups += [worker(workload, seed, "setup", deadline)
                   for _ in range(SETUP_SAMPLES - len(setups) - len(passes))]
        walls = [p["wall_s"] for p in passes if "wall_s" in p]
        setup = [s["setup_s"] for s in setups + passes if "setup_s" in s]
        metrics = {}
        if walls:
            metrics["wall_s"] = statistics.median(walls)
            metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes if "peak_rss_mb" in p)
        if setup:
            metrics["setup_s"] = statistics.median(setup)
    attempted, failed = tally(workload, passes)
    errors = [r["error"] for r in setups + passes if "error" in r]
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "errors": errors, "metrics": metrics,
            "passes": passes, "setups": setups}


def report(record, spec, commit):
    """Print the human lines, write the full record, return the result object."""
    names = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in record["metrics"]]
    env = next((p["env"] for p in record["passes"] if "env" in p), {})
    env["git_commit"] = commit
    record["env"] = env
    tag = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, p in enumerate(record["passes"]):
        for g in GATES[record["workload"]]:
            r = p.get("gates", {}).get(g, {"ok": False, "error": p.get("error")})
            detail = r.get("error") or f"value {r.get('value')} limit {r.get('limit')}"
            print(f"gate pass{i} {g}: {'PASS' if r['ok'] else 'FAIL'} ({detail})")
    for e in record["errors"]:
        print(f"error: {e}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_ratio = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} gates)")
    for m in names:
        if m["name"] in record["metrics"]:
            print(f"{m['name']} = {record['metrics'][m['name']]:.6g} {m['unit']}")
    if missing:
        return None
    return {"correct": record["correct"], "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                        for m in names}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(GATES) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 reproduces the acceptance seeds")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "bsweyl" / "__init__.py").is_file():
        print(f"bench: no bsweyl sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    commit = git_commit()
    workloads = list(GATES) if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:  # a workload that measured nothing does not stop the rest
        result = report(run_workload(w, args.seed, args.seconds, args.trace), spec, commit)
        if result is None:
            print(f"bench: {w} produced no measurement", file=sys.stderr)
        elif len(workloads) > 1:
            print(json.dumps(result))
        results[w] = result
    if any(r is None for r in results.values()):
        return 1
    rs = list(results.values())
    final = rs[0] if len(rs) == 1 else {
        "correct": all(r["correct"] for r in rs),
        "attempted": sum(r["attempted"] for r in rs),
        "failed": sum(r["failed"] for r in rs),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
