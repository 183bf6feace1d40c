"""Benchmark of intelm: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train_cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it has the
per-layer metrics, from a run whose operations alternate between traced
and untraced. See perfbench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOAD_NAMES = ("train_cli", "serve_single", "classify_cli")
SETUP_REPEATS = 3
MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile

END_TO_END_UNITS = {
    "samples_per_s": "samples/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "model_bytes": "bytes",
    "setup_s": "s",
}

# per-layer metric -> (span name, field of Tracer.per_op, unit); medians over traced ops
SPAN_METRICS = {
    "data.load_idx_s": ("data.load_idx", "total", "s"),
    "data.preprocess_s": ("data.preprocess", "total", "s"),
    "seeding.make_rng_s": ("seeding.make_rng", "total", "s"),
    "elm.gen_weights_s": ("elm.gen_weights", "total", "s"),
    "elm.train_self_s": ("elm.train", "self", "s"),
    "elm.hidden_features_s": ("elm.hidden_features", "total", "s"),
    "elm.hidden_features_rows": ("elm.hidden_features", "count", "rows"),
    "elm.training_residual_s": ("elm.training_residual", "total", "s"),
    "linalg.accumulate_gram_s": ("linalg.accumulate_gram", "total", "s"),
    "linalg.gram_flops": ("linalg.accumulate_gram", "count", "flop-computed"),
    "linalg.solve_spd_s": ("linalg.solve_spd", "total", "s"),
    "experiments.make_quantized_s": ("experiments.make_quantized", "total", "s"),
    "quantize.quantize_beta_s": ("quantize.quantize_beta", "total", "s"),
    "modelio.save_model_s": ("modelio.save_model", "total", "s"),
    "modelio.load_model_s": ("modelio.load_model", "total", "s"),
    "cli.train_self_s": ("cli.train", "self", "s"),
    "cli.classify_self_s": ("cli.classify", "self", "s"),
    "intinfer.classify_int_self_s": ("intinfer.classify_int", "self", "s"),
    "intinfer.ternary_project_s": ("intinfer.ternary_project", "total", "s"),
    "intinfer.relu_int_s": ("intinfer.relu_int", "total", "s"),
    "intinfer.classify_int_batch_s": ("intinfer.classify_int_batch", "total", "s"),
    "intinfer.int_scores_s": ("intinfer.int_scores", "total", "s"),
    "intinfer.int_scores_calls": ("intinfer.int_scores", "calls", "count"),
}
# per-layer metrics measured by the workload, not by spans
OTHER_LAYER_UNITS = {
    "cli.stdout_bytes": "bytes",
    "intinfer.classify_int_alloc_peak_bytes": "bytes",
    "intinfer.int_adds_per_sample": "count",
    "intinfer.int_muls_per_sample": "count",
    "trace.spans_per_op": "count",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    return {**{k: v[2] for k, v in SPAN_METRICS.items()}, **OTHER_LAYER_UNITS}


def host_record() -> dict:
    import numpy as np

    record = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": "unknown",
        "blas_threads": None,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }
    import ctypes

    for lib_path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config and threads:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                record["openblas"] = config().decode().split("  ")[0]
                record["blas_threads"] = threads()
                return record
    return record


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT))
    try:
        wl = WORKLOADS[workload_name](seed, workdir)
        setup_times = [set_up(wl) for _ in range(SETUP_REPEATS)]

        tracer = Tracer() if trace else None
        outputs, errors, latency, traced, wall = measure(wl, seconds, MIN_OPS, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct = True
        try:
            failures, reference = wl.check(outputs)
        except CheckFailed as e:
            correct, failures, reference = False, {}, {"run_check_failed": str(e)}
        failures.update(errors)
        attempted = len(latency)
        result = {"correct": correct, "attempted": attempted, "failed": len(failures)}

        if not trace:
            lat = sorted(latency)
            metrics = {
                "setup_s": import_s + statistics.median(setup_times),
                "samples_per_s": attempted * wl.samples_per_op / wall,
                "op_p50_ms": 1e3 * statistics.median(lat),
                "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[-1],
                "peak_rss_mb": peak_rss_mb,
                "model_bytes": wl.model_bytes(),
            }
            units = END_TO_END_UNITS
        else:
            metrics = layer_metrics(wl, tracer, outputs, latency, traced)
            try:
                metrics.update(wl.trace_extras())
            except CheckFailed as e:
                correct = result["correct"] = False
                reference["trace_check_failed"] = str(e)
            tracer.write(OUT / f"trace-{workload_name}.json")
            units = per_layer_units()
        result["metrics"] = {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()}
        info = {"host": host_record(), "workload": workload_name, "seed": seed, "ops": attempted,
                "wall_s": wall, "setup_runs_s": setup_times, "reference": reference,
                "failures": dict(list(sorted(failures.items()))[:5])}
        print(json.dumps(info, default=float))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(wl) -> float:
    """Prepare the workload's files in a child process, load them here; return the time.

    The child keeps the input generation and the served model's training
    out of this process, so that peak_rss_mb covers only what the loaded
    inputs and the timed operations use.
    """
    t0 = time.perf_counter()
    child = multiprocessing.get_context("fork").Process(target=wl.prepare)
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"{wl.name} set-up exited with code {child.exitcode}")
    wl.load()
    return time.perf_counter() - t0


def measure(wl, seconds: float, min_ops: int, tracer=None):
    """Closed loop: op(i) after op(i - 1), for `seconds` and at least `min_ops` ops.

    With a tracer, even-numbered operations are traced and odd ones are not.
    Returns outputs and errors by op index, each op's latency, which ops were
    traced, and the wall time of the whole loop.
    """
    outputs, errors, latency, traced = {}, {}, [], []
    start = end = time.perf_counter()
    i = 0
    while i < min_ops or end - start < seconds:
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs[i] = wl.op(i)
        except Exception as e:  # noqa: BLE001 - any program failure counts the op as failed
            errors[i] = f"{type(e).__name__}: {e}"
        end = time.perf_counter()
        if on:
            tracer.uninstall()
        latency.append(end - t0)
        traced.append(on)
        i += 1
    return outputs, errors, latency, traced, end - start


def layer_metrics(wl, tracer, outputs, latency, traced) -> dict[str, float]:
    per_op = tracer.per_op()
    ops = [i for i, on in enumerate(traced) if on]
    metrics = {}
    for metric, (span, field, _) in SPAN_METRICS.items():
        metrics[metric] = statistics.median(per_op.get(i, {}).get(span, {}).get(field, 0) for i in ops)
    counted = [wl.counters(outputs[i]) for i in ops if i in outputs]
    for key in OTHER_LAYER_UNITS:
        values = [c[key] for c in counted if key in c]
        if values:
            metrics[key] = statistics.median(values)
    metrics["trace.spans_per_op"] = len(tracer.spans) / len(ops)
    on = statistics.median(t for t, flag in zip(latency, traced) if flag)
    off = statistics.median(t for t, flag in zip(latency, traced) if not flag)
    metrics["trace.overhead_pct"] = 100.0 * (on / off - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intelm" / "__init__.py").is_file():
        print(f"perfbench: no intelm sources in {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Set before numpy loads. One BLAS thread: the runs share a small host,
    # where a second BLAS thread waiting for a busy core makes training
    # times swing between runs. No huge-page advice on numpy's large
    # arrays: whether the kernel has a huge page free depends on the rest
    # of the host at the time, and with the advice on, classify_cli's
    # operation times changed up to 2.8-fold from one run to the next.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    import intelm

    if Path(intelm.__file__).resolve().parent != SRC / "intelm":
        print(f"perfbench: imported intelm from {intelm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
