"""intentcnn benchmark: three workloads that run real ``intentcnn`` commands in-process.

    python3 perfbench/run.py --workload train-e5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload untraced and traced, prints every
metric by name with its unit and the tracing overhead, and exits 1 if any
output check failed.  Work files go to ``.bench_run/``; a traced run leaves
its spans in ``.bench_run/trace-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# One BLAS thread (at most nproc): the program then uses one core and the
# stream sender the other, and timings do not depend on thread scheduling.
BLAS_THREADS = min(1, NPROC or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("train-e5", "predict-csv", "stream-tcp")
END_TO_END = (("setup_s", "s"), ("train_s", "s"), ("test_macro_f1", "ratio"),
              ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"), ("throughput_per_s", "1/s"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intentcnn", "__init__.py")):
        print(f"error: no intentcnn sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import intentcnn.cli  # noqa: F401  (loads every module the tracer wraps)
    if not os.path.abspath(intentcnn.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported intentcnn from {intentcnn.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    output, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance(args)}))
    for line in result.notes:
        print(f"note: {line}")
    if result.raw:
        print("note: unscaled (host-speed calibration off): " + ", ".join(
            f"{k} {v:.6g}" for k, v in result.raw.items()))
    for line in result.problems:
        print(f"CHECK FAILED: {line}")
    for name, entry in output["metrics"].items():
        alias = result.aliases.get(name)
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']:<14}"
              f"{'(' + alias + ')' if alias else ''}")
    print(json.dumps(output))
    return 0 if output["correct"] else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result line as a dict and the Result."""
    import intentcnn
    import layers
    from calibrate import Calibrator
    from common import Context, Result
    from intentcnn import model
    from tracer import StepClock, Tracer

    module, op = _workload(name)
    run_dir = os.path.join(ROOT, ".bench_run", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    tracer = Tracer() if trace else None
    calib = Calibrator(enabled=not trace)
    clock = StepClock(model.Network, calib)
    if tracer is not None:
        tracer.install(intentcnn)
    clock.install()                        # over the tracer's wrappers, if any
    try:
        result = module.run(Context(ROOT, run_dir, seed, seconds, calib, tracer, clock))
    except Exception:                      # report the crash as a failed check
        result = Result()
        result.problems.append(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        values = layers.compute(tracer, op, result, tracer.span_cost_seconds())
        tracer.write(os.path.join(ROOT, ".bench_run", f"trace-{name}.tsv"))
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in layers.names()}
    else:
        metrics = {}
        for key, unit in END_TO_END:
            if key not in result.metrics:
                result.problems.append(f"{key} was not measured")
            metrics[key] = {"value": result.metrics.get(key, (0.0, unit))[0], "unit": unit}
    shutil.rmtree(run_dir, ignore_errors=True)
    output = {"correct": not result.problems, "attempted": max(1, result.attempted),
              "failed": result.failed, "metrics": metrics}
    return output, result


def _workload(name: str):
    if name == "train-e5":
        import train_e5
        return train_e5, "model.step"
    if name == "predict-csv":
        import predict_csv
        return predict_csv, "cli.main"
    import stream_tcp
    return stream_tcp, "streaming._StreamState.push"


def _run_all(seed: int, seconds: float) -> int:
    ok = True
    print(json.dumps({"provenance": provenance(argparse.Namespace(
        workload="all", seed=seed, seconds=seconds, trace="0 and 1"))}))
    for name in WORKLOADS:
        plain, result = run_workload(name, seed, seconds, trace=False)
        traced, traced_result = run_workload(name, seed, seconds, trace=True)
        ok = ok and plain["correct"] and traced["correct"]
        print(f"== {name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"failed_share={plain['failed'] / plain['attempted']:.6g}")
        for line in result.notes + [f"CHECK FAILED: {p}" for p in
                                    result.problems + traced_result.problems]:
            print(f"   {line}")
        for key, entry in plain["metrics"].items():
            label = result.aliases.get(key, key)
            print(f"   {label:<24} {entry['value']:>14.6g} {entry['unit']:<6} [{key}]")
        for key, value in result.raw.items():
            print(f"   {key + ' unscaled':<24} {value:>14.6g}")
        untraced = result.raw.get("latency_ms_p50", 0.0)
        with_trace = traced["metrics"]["trace.latency_ms_p50"]["value"]
        if untraced:
            print(f"   tracing overhead: latency_ms_p50 {untraced:.6g} ms untraced and "
                  f"unscaled, "
                  f"{with_trace:.6g} ms traced ({with_trace / untraced - 1:+.1%}); "
                  f"wrapper cost {traced['metrics']['trace.overhead_share']['value']:.2%} "
                  f"of the traced commands")
        for key, entry in traced["metrics"].items():
            print(f"   {key:<36} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def provenance(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:                      # older NumPy has no dict form
        blas_version = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "blas_threads": BLAS_THREADS, "blas_threads_runtime": _blas_threads(),
            "processes": "benchmark, plus the feed sender on stream-tcp (one TCP connection)"}


def _blas_threads():
    """Thread count OpenBLAS reports at run time, when its library can be found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
