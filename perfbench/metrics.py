"""Percentiles, per-layer metrics from spans, machine ceilings, run metadata."""

from __future__ import annotations

import math
import os
import platform
import time
from pathlib import Path

from tracer import self_times

# Public autodiff ops whose forward time is reported per unit of work.
OPS = (
    "add", "sub", "mul", "scale", "add_bias", "matmul", "transpose", "reshape",
    "softmax_rows", "layer_norm", "gelu", "mean_over_axis", "concat_tokens",
    "take_token", "repeat_batch",
)

# Every function a per-layer metric reads spans of; a name the package no
# longer defines is reported as missing and its metrics read 0.
TRACED_NAMES = tuple(f"autodiff.{op}" for op in OPS) + (
    "autodiff.backward", "autodiff.zero_grad",
    "cli.load_config",
    "synth.synthesize_recording",
    "events.write_events", "events.read_events", "events.slice_window",
    "frames.build_dataset", "frames.accumulate_frame",
    "frames.read_frame_dataset", "frames.write_frame_dataset",
    "vit.forward", "vit.encoder_block", "vit.multi_head_attention", "vit.patch_embed",
    "training.adam_step", "training.train", "training.predict_forces",
    "training.evaluate",
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty sample."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(values, q: float) -> dict:
    """Median and the q-th percentile, with the samples behind each."""
    tail = percentile(values, q)
    return {
        "p50": percentile(values, 50.0),
        f"p{q:g}": tail,
        "samples": len(values),
        "beyond_tail": sum(1 for v in values if v > tail),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanIndex:
    """Spans grouped by function name, with self times attached."""

    def __init__(self, spans):
        own = self_times(spans)
        self.by_name: dict[str, list] = {}
        for s in spans:
            # (duration s, self s, tag, grad, measured)
            self.by_name.setdefault(s[2], []).append((s[4] - s[3], own[s[0]], s[5], s[6], s[7]))

    def select(self, name, keep=None) -> list:
        rows = self.by_name.get(name, [])
        return rows if keep is None else [r for r in rows if keep(r)]

    def mean(self, name, keep=None, scale=1.0) -> float:
        rows = self.select(name, keep)
        return scale * sum(r[0] for r in rows) / len(rows) if rows else 0.0

    def rate(self, name, keep=None, scale=1.0) -> float:
        """Sum of the measured quantity over the sum of durations."""
        rows = self.select(name, keep)
        busy = sum(r[0] for r in rows)
        return scale * sum(r[4] for r in rows) / busy if busy > 0 else 0.0


def layer_metrics(spans, workload: str, units: int, extra: dict) -> dict:
    """Per-layer values from a traced run.

    ``units`` counts the work items that per-unit figures divide by:
    optimizer steps for ``train``, windows for ``stream``, builds for
    ``corpus``.  A layer the workload never calls reads 0.
    """
    idx = SpanIndex(spans)
    if workload == "train":
        def in_unit(r):  # the recorded training steps, not validation or eval
            return r[2] == "train" and r[3] is True
    elif workload == "stream":
        def in_unit(r):
            return r[2] in ("clean", "noisy")
    else:
        def in_unit(r):
            return r[2] == "build"
    per_unit = 1.0 / units if units else 0.0

    m = {"cli.load_config_ms": idx.mean("cli.load_config", scale=1e3)}

    synth = idx.select("synth.synthesize_recording")
    m["synth.synthesize_recording_ms"] = idx.mean("synth.synthesize_recording", scale=1e3)
    m["synth.events_per_s"] = idx.rate("synth.synthesize_recording")
    m["synth.events_per_recording"] = sum(r[4] for r in synth) / len(synth) if synth else 0.0

    m["events.write_events_mb_per_s"] = idx.rate("events.write_events", scale=1e-6)
    m["events.read_events_mb_per_s"] = idx.rate("events.read_events", scale=1e-6)
    m["events.slice_window_us"] = idx.mean("events.slice_window", scale=1e6)

    m["frames.build_dataset_s"] = idx.mean("frames.build_dataset")
    for kind in ("clean", "noisy"):
        def tagged(r, kind=kind):
            return r[2] == kind
        rows = idx.select("frames.accumulate_frame", tagged)
        m[f"frames.accumulate_frame_ms.{kind}"] = idx.mean(
            "frames.accumulate_frame", tagged, scale=1e3
        )
        m[f"frames.events_per_window.{kind}"] = (
            sum(r[4] for r in rows) / len(rows) if rows else 0.0
        )
    m["frames.read_frame_dataset_ms"] = idx.mean("frames.read_frame_dataset", scale=1e3)
    m["frames.write_frame_dataset_ms"] = idx.mean("frames.write_frame_dataset", scale=1e3)

    explained_ms = 0.0
    for op in OPS:
        rows = idx.select(f"autodiff.{op}", in_unit)
        fwd_ms = 1e3 * per_unit * sum(r[1] for r in rows)
        m[f"autodiff.{op}.fwd_ms"] = fwd_ms
        m[f"autodiff.{op}.calls"] = per_unit * len(rows)
        explained_ms += fwd_ms
    for name in ("backward", "zero_grad"):
        rows = idx.select(f"autodiff.{name}", in_unit)
        m[f"autodiff.{name}_ms"] = 1e3 * per_unit * sum(r[0] for r in rows)
        explained_ms += m[f"autodiff.{name}_ms"]
    m["autodiff.matmul.fwd_gflops"] = idx.rate("autodiff.matmul", in_unit, scale=1e-9)
    m["autodiff.gelu.fwd_gb_per_s"] = idx.rate("autodiff.gelu", in_unit, scale=1e-9)

    for name in ("forward", "encoder_block", "multi_head_attention", "patch_embed"):
        m[f"vit.{name}_ms"] = idx.mean(f"vit.{name}", in_unit, scale=1e3)

    m["training.adam_step_ms"] = idx.mean("training.adam_step", scale=1e3)
    explained_ms += m["training.adam_step_ms"]
    m["training.train.self_s"] = sum(r[1] for r in idx.select("training.train"))
    m["training.predict_forces_ms"] = idx.mean("training.predict_forces", scale=1e3)
    evals = idx.select("training.evaluate")
    m["training.eval_frames_per_s"] = (
        extra.get("eval_frames", 0) / sum(r[0] for r in evals) if evals else 0.0
    )
    m["training.test_rmse_n"] = extra.get("test_rmse_n", 0.0)
    step_ms = extra.get("traced_step_ms_p50")
    m["training.step_unexplained_ms"] = step_ms - explained_ms if step_ms else 0.0
    return m


def machine_ceilings(train_shapes, copy_bytes: int) -> dict:
    """Achieved float32 GEMM rate at the given (m, k, n) shapes and the
    copy bandwidth of arrays of ``copy_bytes`` (read plus write)."""
    import numpy as np

    rng = np.random.default_rng(0)
    flops, busy = 0.0, 0.0
    for m, k, n in train_shapes:
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((k, n), dtype=np.float32)
        a @ b
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(10):
                a @ b
            times.append((time.perf_counter() - t0) / 10)
        flops += 2.0 * m * k * n
        busy += percentile(times, 50.0)
    src = np.ones(copy_bytes // 4, dtype=np.float32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    del src, dst
    return {
        "machine.gemm_gflops": flops / busy / 1e9,
        "machine.copy_gb_per_s": 2.0 * copy_bytes / percentile(times, 50.0) / 1e9,
    }


def last_level_cache_bytes() -> int | None:
    """Size of the largest cache of CPU 0, from sysfs; None if unreadable."""
    best = None
    for size_file in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = size_file.read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        digits = text.rstrip("KM")
        if digits.isdigit():
            best = max(best or 0, int(digits) * scale)
    return best


def _openblas_threads():
    """Threads OpenBLAS reports it will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    site = Path(np.__file__).parent.parent
    libs = [*site.glob("*openblas*/lib/lib*openblas*.so*"), *site.glob("numpy.libs/lib*openblas*.so*")]
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": _openblas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "llc_bytes": last_level_cache_bytes(),
    }
