"""Run one netsde benchmark workload and print its metrics.

    python3 perfbench/run.py --workload errbound_d16 --seed 1 --seconds 55 --trace 0

Run it from a source checkout: the benchmark imports netsde from the
checkout's src/ and reads the study configs from its configs/.  The
workload's inputs are made from --seed.  The set-up runs SETUP_REPEATS
times and so do the imports (the extra ones in fresh interpreters);
setup_s is the sum of the two medians.  The timed body is a closed loop
of one sequential client that keeps calling the workload, with the
garbage collected between calls, and starts no call that would likely
end after --seconds.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, and with --trace 1 the
per-layer metrics of a separate traced run.  The line before it carries
the environment stamp, fail_ratio with its base, the op latency count,
and the scores that are not gated metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
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
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
IMPORT_PATH = [str(ROOT / "src"), str(ROOT)]
SETUP_REPEATS = 3

# (name, unit, better) of every end-to-end metric, printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("edge_precision", "fraction", "higher"),
    ("edge_recall", "fraction", "higher"),
)
QUALITY = ("edge_precision", "edge_recall")


def _cap_blas_threads() -> int:
    """Run BLAS on one thread; returns the usable core count.

    Must run before numpy loads.  The single client runs one op at a
    time, and a second BLAS thread did not make the panel op faster on a
    2-core host, but OpenBLAS's idle worker kept spinning on the other
    core (about 1.55 cores busy per second of wall time), which left the
    panel runs more exposed to the load of a shared host.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _fresh_import_seconds() -> float:
    """Import time of netsde and the harness in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = {IMPORT_PATH!r}; import perfbench.workloads; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def _failed_batch(workload, exc: BaseException):
    from perfbench.workloads import Checked

    print(f"op failed: {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return Checked(workload.batch_size, workload.batch_size)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            overrides: dict | None = None, setup_repeats: int = SETUP_REPEATS):
    """Set up and run one workload; returns (result, info, tracer or None)."""
    from perfbench import layers
    from perfbench.tracer import Tracer, wrapper_costs
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, workdir, overrides)
    tracer = Tracer() if trace else None
    installed = tracer.installed(layers.TARGETS) if trace else nullcontext()
    setup_times = []
    calls = []
    with installed:
        # the traced run sets up once, so each set-up span is charged once
        for _ in range(1 if trace else setup_repeats):
            t0 = time.perf_counter()
            with tracer.root("setup", layers.SETUP) if trace else nullcontext():
                workload.setup(seed)
            setup_times.append(time.perf_counter() - t0)

        loop_start = time.perf_counter()
        index = 0
        while True:
            # garbage left by the previous call is freed outside the timing,
            # so no call pays for another one's cycles
            gc.collect()
            with tracer.root("op", index) if trace else nullcontext():
                t0 = time.perf_counter()
                try:
                    raw, error = workload.op(index), None
                except Exception as exc:  # an op that raises counts as failed
                    raw, error = None, exc
                elapsed = time.perf_counter() - t0
            if error is not None:
                checked = _failed_batch(workload, error)
            else:
                try:
                    checked = workload.check(raw)
                except Exception as exc:  # malformed output fails the batch
                    checked = _failed_batch(workload, exc)
            calls.append((elapsed, checked))
            index += 1
            # no call is started that would likely end after --seconds: the
            # calls last several seconds, and an overrun would add up to one
            # more to every run's wall time
            typical = statistics.median(e for e, _ in calls)
            if time.perf_counter() - loop_start + typical > seconds:
                break

    attempted = sum(c.ops for _, c in calls)
    failed = sum(c.failed for _, c in calls)
    body_s = sum(elapsed for elapsed, _ in calls)
    latencies = [elapsed / c.ops for elapsed, c in calls]
    scores: dict[str, list[float]] = {}
    for _, c in calls:
        for key, values in c.scores.items():
            scores.setdefault(key, []).extend(values)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "calls": len(calls), "body_s": body_s,
        "fail_ratio": {"value": failed / attempted,
                       "base": f"{failed} failed of {attempted} attempted ops"},
        "op_latency_s": {"median": statistics.median(latencies),
                         "count": len(latencies)},
        "setup_repeats_s": setup_times,
        # error_over_bound is the largest cell's ratio, the others are means
        "scores": {key: (max if key == "error_over_bound" else statistics.fmean)(v)
                   for key, v in scores.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        result["metrics"] = layers.per_layer_metrics(
            tracer, attempted, body_s, wrapper_costs())
        return result, info, tracer

    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (attempted - failed) / body_s,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in QUALITY:
        metrics[key] = info["scores"].get(key, 0.0)  # 0 when every op failed
    units = {metric: unit for metric, unit, _ in END_TO_END}
    result["metrics"] = {key: {"value": float(metrics[key]), "unit": units[key]}
                         for key in units}
    return result, info, None


def _write_trace(tracer, path: Path) -> None:
    spans = [{"name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent, "op": s.op} for s in tracer.spans]
    path.write_text(json.dumps({"spans": spans}), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _cap_blas_threads()
    if not (ROOT / "src" / "netsde" / "__init__.py").is_file():
        print(f"error: no netsde sources under {ROOT / 'src'}; run the "
              "benchmark from a source checkout", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path[:0] = IMPORT_PATH
    import netsde  # noqa: F401  (timed: imports are part of set-up)
    from perfbench.workloads import WORKLOADS
    import_times = [time.perf_counter() - t0]
    if Path(netsde.__file__).resolve().parent != ROOT / "src" / "netsde":
        print(f"error: netsde was imported from {netsde.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result, info, tracer = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        _write_trace(tracer, trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        import_times += [_fresh_import_seconds()
                         for _ in range(SETUP_REPEATS - 1)]
        result["metrics"]["setup_s"]["value"] += statistics.median(import_times)
        info["import_s"] = import_times
    info["env"] = environment(nproc)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
