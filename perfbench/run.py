"""Benchmark of the evtforce pipeline: one workload per process.

    python3 perfbench/run.py --workload {corpus,train,stream} --seed N \
        --seconds S --trace {0,1} [--scale {default,smoke}]

Run from the repository root.  Inputs are generated from the seed in a
child process, then this process times the program's set-up, runs the
workload, checks its outputs and prints human-readable lines followed, as
the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  A report with the run metadata and sample counts goes to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from metrics import (  # noqa: E402
    TRACED_NAMES, layer_metrics, last_level_cache_bytes, machine_ceilings,
    peak_rss_mb, run_metadata, summarize,
)
from tracer import Tracer, function_attributes, load_modules  # noqa: E402

# Never used while building or tuning the benchmark: a later change that
# claims a gain confirms it on this seed as well.
HELD_OUT_SEED = 7919

# Per-workload names of the generic end-to-end figures, printed beside them.
ALIASES = {
    "corpus": {"frames_per_s": "build_frames_per_s", "latency_ms_p50": "recording_ms_p50",
               "latency_ms_tail": "recording_ms_p80"},
    "train": {"frames_per_s": "train_frames_per_s", "latency_ms_p50": "step_ms_p50",
              "latency_ms_tail": "step_ms_p90"},
    "stream": {"frames_per_s": "windows_per_s", "latency_ms_p50": "window_ms_p50",
               "latency_ms_tail": "window_ms_p99"},
}

CHILD_TIMEOUT_S = 150
COPY_BYTES_CAP = 256 * 2**20


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child(call: str) -> str:
    """Run ``workloads.<call>`` in a fresh interpreter; return its stdout."""
    code = (
        f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(HERE)]!r}; "
        f"import workloads; print(workloads.{call})"
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child process timed out: {call}") from exc
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"child process failed: {call}: {last[0]}")
    return proc.stdout


def _check_package(state) -> None:
    src = (ROOT / "src").resolve()
    path = Path(state["ev"]["cli"].__file__).resolve()
    if src not in path.parents:
        raise BenchError(f"evtforce was imported from {path}, not from {src}")


def measure(args, workdir: Path) -> dict:
    scale = workloads.SCALES[args.scale]
    job = f"{args.workload!r}, {args.seed}, {str(workdir)!r}"
    _child(f"make_inputs({job}, {args.scale!r})")

    checks = workloads.Checks()
    tracer = None
    if args.trace:
        ev = load_modules()
        before = function_attributes(ev)
        tracer = Tracer(ev, TRACED_NAMES)
        tracer.tag = "setup"
        tracer.install()
    start = time.perf_counter()
    try:
        state = workloads.setup(args.workload, args.seed, str(workdir))
    finally:
        if tracer is not None:
            tracer.restore()
    setup_samples = [time.perf_counter() - start]
    _check_package(state)
    if tracer is None:
        before = function_attributes(state["ev"])
        for _ in range(scale.setup_repeats - 1):
            setup_samples.append(float(_child(f"setup_seconds({job})").split()[-1]))

    runner = workloads.RUNNERS[args.workload]
    outcome = runner(state, args.seed, args.seconds, scale, workdir, checks, tracer)
    checks.add("attributes_restored", function_attributes(state["ev"]) == before)

    q = workloads.TAIL_PERCENTILE[args.workload]
    latency = summarize(outcome.latency_ms, q)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "metadata": run_metadata(),
        "latency_ms": {**latency, "percentile": q},
        "setup_s_samples": setup_samples,
        "extra": outcome.extra,
        "checks": checks.counts,
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "frames_per_s": outcome.frames_per_s,
            "latency_ms_p50": latency["p50"],
            "latency_ms_tail": latency[f"p{q:g}"],
        }
    else:
        values = layer_metrics(tracer.spans, args.workload, outcome.units, outcome.extra)
        llc = last_level_cache_bytes() or 64 * 2**20
        copy_bytes = min(4 * llc, COPY_BYTES_CAP)
        values.update(machine_ceilings(workloads.TRAIN_GEMMS, copy_bytes))
        values["trace.overhead_frac"] = outcome.trace_overhead
        report["copy_bytes"] = copy_bytes
        report["missing"] = tracer.missing
        report["traced_units"] = outcome.units
        tracer.write(HERE / "out" / f"{args.workload}.spans.jsonl")
    report["values"] = values
    report["correct"] = checks.failed == 0
    report["attempted"] = checks.attempted
    report["failed"] = checks.failed
    return report


def result_line(report: dict, bench: dict) -> dict:
    section = "per_layer" if report["trace"] else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        value = report["values"].get(spec["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {spec['name']} has no finite value ({value!r})")
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def print_summary(report: dict, line: dict) -> None:
    w = report["workload"]
    print(f"workload {w}  seed {report['seed']}  trace {report['trace']}  "
          f"scale {report['scale']}  held-out seed {report['held_out_seed']}")
    aliases = ALIASES[w]
    for name, m in line["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{alias}")
    lat = report["latency_ms"]
    print(f"  latency samples {lat['samples']}, beyond p{lat['percentile']:g}: "
          f"{lat['beyond_tail']}; set-up samples {len(report['setup_s_samples'])}")
    if w == "train":
        extra = report["extra"]
        print(f"  eval_frames_per_s {extra['eval_frames_per_s']:.6g} 1/s  "
              f"test_rmse_n {extra['test_rmse_n']:.6g} N  test_r2 {extra['test_r2']}")
    if w == "train" and report["trace"]:
        step = report["extra"]["traced_step_ms_p50"]
        rest = report["values"]["training.step_unexplained_ms"]
        print(f"  traced step p50 {step:.4g} ms; ops, backward, zero_grad and adam_step "
              f"explain all but {rest:.3g} ms ({rest / step:.1%})")
    failed_frac = report["failed"] / report["attempted"]
    print(f"  checks attempted {report['attempted']} failed {report['failed']} "
          f"failed_frac {failed_frac:g}")
    for name, (n, bad) in sorted(report["checks"].items()):
        print(f"    {name}: {n - bad}/{n} passed")
    if report.get("missing"):
        print(f"  missing functions: {', '.join(report['missing'])}")
    print(f"  metadata {json.dumps(report['metadata'], sort_keys=True)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="default", choices=sorted(workloads.SCALES))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_blas_threads(workload: str) -> None:
    """Fix the BLAS thread count before numpy loads here or in a child.

    ``corpus`` and ``train`` get one thread per CPU.  ``stream`` gets one:
    its batch-1 GEMMs are too small to split, and a second thread only
    adds wake-up latency (on a 2-core host p99 went from 10-12.5 ms to
    16-23 ms with two threads).
    """
    threads = str(1 if workload == "stream" else len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = threads


def main(argv=None) -> int:
    args = parse_args(argv)
    set_blas_threads(args.workload)
    if not (ROOT / "src" / "evtforce" / "__init__.py").is_file():
        print(f"error: no evtforce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        report = measure(args, workdir)
        line = result_line(report, bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    print_summary(report, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
