"""swarmlift benchmark: one workload per process.

    python3 bench/run.py --workload sim_ekf_n4 --seed 0 --seconds 8 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout line
is a JSON object whose metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken
from one extra traced call. The lines before it give each metric in words,
with its sample count, and the run record. See bench/README.md.

Modules that load numpy (workloads, calibration, tracer) are imported only
once the set-up clock runs, so that set-up time includes loading them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # this interpreter and two children


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time import and configuration in a fresh interpreter.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def out_dir_for(workload: str) -> Path:
    return ROOT / ".bench_out" / f"{workload}-{os.getpid()}"


def make_plan(args):
    import workloads

    return workloads.make_plan(args.workload, args.seed,
                               str(out_dir_for(args.workload)))


def timed_setup(args):
    """Builds the plan in this interpreter; returns it with the seconds
    that took (importing swarmlift, numpy and scipy, and building the
    workload's inputs) and the calibration kernel's seconds right after."""
    t0 = time.perf_counter()
    plan = make_plan(args)
    setup_s = time.perf_counter() - t0
    import calibration

    return plan, setup_s, calibration.kernel_seconds()


def setup_sample(args) -> tuple[float, float]:
    """``timed_setup`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    setup_s, kernel_s = out.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


def measure(plan, seconds: float):
    """Back-to-back calls until ``seconds`` have passed (and at least
    ``plan.min_calls``); returns per-call wall and calibrated seconds, the
    calibrator (with its kernel times) and the outputs (None where a call
    raised)."""
    import calibration

    def guarded():
        try:
            return plan.op()
        except Exception:
            traceback.print_exc()
            return None

    calibrator = calibration.Calibrator()
    walls, cal, outputs = [], [], []
    start = time.perf_counter()
    while len(walls) < plan.min_calls or time.perf_counter() - start < seconds:
        out, wall, calibrated = calibrator.call(guarded)
        walls.append(wall)
        cal.append(calibrated)
        outputs.append(out)
    return walls, cal, calibrator, outputs


def traced_call(args, cal_median):
    """One call on a plan built under tracing; returns its output and the
    per-layer metrics, calibrated by the kernel timed before and after it.
    The kernel is not timed during the call, so no span holds kernel
    time."""
    import calibration
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    before = calibration.kernel_seconds()
    tracer.install()
    try:
        traced_plan = make_plan(args)
        t0, cpu0 = time.perf_counter(), calibration.cpu_seconds()
        try:
            out = traced_plan.op()
        except Exception:
            traceback.print_exc()
            out = None
        wall = time.perf_counter() - t0
        calibration.check_serial(wall, calibration.cpu_seconds() - cpu0)
    finally:
        tracer.restore()
    kernel = 0.5 * (before + calibration.kernel_seconds())
    csv_bytes = len(out[0]) if args.workload.startswith("sweep") and out else 0
    scale = calibration.NOMINAL_S / kernel
    overhead = wall * scale / cal_median - 1.0
    return out, tracer.metrics(csv_bytes, overhead, scale)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "swarmlift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def run_record(args, walls, cal, calibrator, setup) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "call_wall_s": walls, "call_cal_s": cal,
        "kernel_s": calibrator.kernels,
        "kernel_during_calls_s": calibrator.during,
        "setup_s_and_kernel_s": setup,
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pinned before numpy loads, in this process and every child.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "swarmlift" / "__init__.py").is_file():
        print(f"no swarmlift package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    plan, setup_s, kernel_s = timed_setup(args)
    if args.setup_only:
        print(repr(setup_s), repr(kernel_s))
        return 0
    setup = [(setup_s, kernel_s)]
    setup += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]

    out_dir = out_dir_for(args.workload)
    try:
        walls, cal, calibrator, outputs = measure(plan, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            out, layers = traced_call(args, statistics.median(cal))
            outputs.append(out)
        failed = sum(plan.failures(o) for o in outputs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run's output is still there
    attempted = len(outputs) * plan.ops_per_call

    import calibration

    n = plan.ops_per_call
    setup_raw = [s for s, _ in setup]
    setup_cal = [calibration.NOMINAL_S * s / k for s, k in setup]
    e2e = {
        "cal_s_per_op": statistics.median(cal) / n,
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": peak_rss_mb,
    }
    w = args.workload
    q1, q3 = quartiles(cal)
    print(f"{w}: cal_s_per_op {e2e['cal_s_per_op']:.6g} s (median of "
          f"{len(walls)} untraced calls of {n} op, calibrated; "
          f"quartiles {q1 / n:.6g}-{q3 / n:.6g} s)")
    q1, q3 = quartiles(walls)
    print(f"{w}: wall_s_per_op {statistics.median(walls) / n:.6g} s "
          f"(uncalibrated; quartiles {q1 / n:.6g}-{q3 / n:.6g} s; "
          f"kernel median {statistics.median(calibrator.kernels):.4g} s)")
    if calibrator.during:
        print(f"{w}: kernel median {statistics.median(calibrator.during):.4g}"
              f" s during calls ({len(calibrator.during)} samples), "
              f"{statistics.median(calibrator.between):.4g} s between "
              f"calls ({len(calibrator.between)})")
    for line in plan.describe(statistics.median(walls)):
        print(f"{w}: {line}")
    print(f"{w}: setup_s {e2e['setup_s']:.6g} s (median of {len(setup)} "
          f"fresh processes, calibrated; uncalibrated "
          f"{', '.join(f'{s:.4g}' for s in setup_raw)} s)")
    print(f"{w}: peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"{w}: error_rate {failed / attempted:.6g} ({failed} of "
          f"{attempted} operations failed)")
    print("record " + json.dumps(run_record(args, walls, cal, calibrator,
                                            setup)))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    if args.trace:
        for name, m in metrics.items():
            print(f"{w}: {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
