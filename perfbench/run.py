"""Pipeline benchmark for privseq: seeded workloads, end to end and per layer.

Run from the root of a source checkout (privseq is imported from ./src):

    python3 perfbench/run.py --workload release --seed 29 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 29 --seconds 32

A run builds its workload's corpus from --seed several times (set-up),
then runs passes until --seconds have elapsed, and at least two so the
second can be compared with the first. Each pass's outputs are checked;
the failed checks over the attempted ones give fail_ratio. The last line
of standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, measured with tracing off; with --trace 1 the
per-layer metrics, from the odd passes, traced, while the even passes
run untraced so trace.overhead_s can be their difference. `--workload
all` runs every workload both ways, one process each, and prints every
metric by name with its unit.

Work files go under .perfbench_work/ and are removed at exit; the traced
run writes its span tree to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
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
SETUP_REPEATS = 4
MIN_PASSES = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# End-to-end metrics, in BENCHMARK.json order: name -> unit.
END_TO_END = {
    "pass_s": "s",
    "samples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_privseq() -> None:
    """Put the checkout's src/ first on the path; fail unless privseq is there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("privseq")
    if spec is None or spec.origin is None or not Path(spec.origin).resolve().is_relative_to(src):
        raise SystemExit(f"privseq source not found under {src}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "compiled_kernel": importlib.util.find_spec("privseq._kernels") is not None,
    }


def calibrate() -> float:
    """Wall time of a fixed single-threaded numpy loop, to show host drift
    next to a result. No metric is scaled by it."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal(1 << 16)
    elapsed = 0.0
    for repeat in range(2):  # the first repeat only warms caches
        t0 = time.perf_counter()
        for _ in range(40):
            np.sort(a)
            np.fft.fft(a)
            np.cumsum(a)
        elapsed = time.perf_counter() - t0
    return elapsed


def measure(workload_cls, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, object, object]:
    from tracer import Tracer
    from workloads import Outcome

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workload_cls(seed, work)
        wl.setup()
        warm = workload_cls(seed, work / "warm-up", participants=2, features=1)
        warm.setup()
        warm.run_pass()
        setups.append(time.perf_counter() - t0)
    shutil.rmtree(work / "warm-up", ignore_errors=True)

    outcome, tracer = Outcome(), None
    plain, traced, layers, first_digest = [], [], [], None
    start = time.perf_counter()
    i, last = 0, 0.0
    # Start another pass only if it should end within the run's seconds.
    while i < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        tracing = trace and i % 2 == 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracing:
                with Tracer().installed() as tracer:
                    out = tracer.call("pass", "bench", wl.run_pass)
            else:
                out = wl.run_pass()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome.check(f"pass {i}", ["raised"])
            out = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        (traced if tracing else plain).append((wall, cpu))
        print(f"# pass {i}{' traced' if tracing else ''}: wall {wall:.4f} s, cpu {cpu:.4f} s")
        if tracing:
            layers.append(tracer.layer_metrics())
        if out is not None:
            wl.check(out, outcome)
            digest = wl.digest(out)
            if first_digest is None:
                first_digest = digest
            else:
                outcome.check(f"determinism pass {i}", [] if digest == first_digest else ["digest differs from pass 0"])
        out = None  # so peak RSS does not depend on the pass count
        last = time.perf_counter() - t0
        i += 1

    walls = [w for w, _ in plain]
    figures = {
        "pass_s": statistics.median(walls),
        "samples_per_s": statistics.median(wl.samples / w for w in walls),
        "cpu_s": statistics.median(c for _, c in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    if trace:
        for name in layers[0]:
            figures[name] = statistics.median(m[name] for m in layers)
        figures["trace.overhead_s"] = statistics.median(w for w, _ in traced) - figures["pass_s"]
    return figures, outcome, tracer


def run_one(args) -> int:
    import_privseq()
    from tracer import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    calib_start = calibrate()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        figures, outcome, tracer = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it
    figures["host.calib_s"] = calib_start
    figures["host.calib_end_s"] = calibrate()
    print(f"# host.calib_s start {calib_start:.4f} s, end {figures['host.calib_end_s']:.4f} s")
    print(f"# fail_ratio {outcome.fail_ratio} ({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems:
        print(f"# FAILED {problem}")

    units = LAYER_METRICS if args.trace else END_TO_END
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "spans": tracer.tree()}, indent=1) + "\n", encoding="utf-8")
        print(f"# span tree of the last traced pass: {path.relative_to(ROOT)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:24s} {v['value']:>16.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        import_privseq()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
