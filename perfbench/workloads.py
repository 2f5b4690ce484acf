"""The three workloads: input generation, the program's set-up, the measured
work and its output checks.

Every evtforce function is looked up on its module at call time
(``ev["synth"].synthesize_recording``), so the tracer's attribute wrappers
see the calls the benchmark makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

from metrics import percentile
from tracer import StepClock, function_attributes, load_modules

WORKLOADS = ("corpus", "train", "stream")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    config: dict              # evtforce config document; {} keeps the defaults
    n_recordings: int         # corpus recordings per build
    train_epochs: int
    stream_clean: int         # clean recordings in the stream mix
    stream_noisy: int         # noisy recordings in the stream mix
    noisy_samples: int        # force samples per noisy recording
    noise_rate_hz: float      # background events per second, noisy recordings
    stream_windows: int       # windows per stream run, at least
    setup_repeats: int        # set-ups timed per run, the first in-process


SCALES = {
    # The default corpus geometry: 25 recordings of 41 samples at 320x240,
    # 4 substeps, windowed into 1000 polarity2ch 64x64 frames.  The noise
    # rate puts about 100k events in a noisy 100 ms window against about
    # 2.3k in a clean one.
    "default": Scale(
        config={},
        n_recordings=25,
        train_epochs=4,
        stream_clean=4,
        stream_noisy=4,
        noisy_samples=11,
        noise_rate_hz=1e6,
        stream_windows=1010,
        setup_repeats=3,
    ),
    # The scale of the pipeline-determinism acceptance test, for smoke tests.
    "smoke": Scale(
        config={
            "scene": {"width": 80, "height": 60, "samples_per_recording": 6,
                      "substeps_per_sample": 2},
            "frame": {"out_size": 16},
            "model": {"image_size": 16, "patch_size": 8, "embed_dim": 16,
                      "depth": 1, "num_heads": 2},
            "train": {"epochs": 2, "batch_size": 8},
        },
        n_recordings=3,
        train_epochs=2,
        stream_clean=1,
        stream_noisy=1,
        noisy_samples=3,
        noise_rate_hz=1e5,
        stream_windows=10,
        setup_repeats=2,
    ),
}

# Percentile reported as each workload's tail latency: the highest one
# with at least ten samples beyond it at the default scale (50 recordings
# per corpus run, 172 steps per train run, >= 1010 windows per stream run).
TAIL_PERCENTILE = {"corpus": 80.0, "train": 90.0, "stream": 99.0}

# Same-seed builds per corpus run, at least: the determinism check needs two.
CORPUS_BUILDS = 2

# The learning-quality bar of the end-to-end acceptance criterion.
TEST_R2_MIN = 0.90

# GEMM shapes (m, k, n) of the default ViT at batch 16: 16 frames x 65
# tokens against the q/k/v/out, fc1 and fc2 weights.
TRAIN_GEMMS = ((1040, 128, 128), (1040, 128, 512), (1040, 512, 128))


class Checks:
    """Named output checks; each counts attempts and failures."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def add(self, name: str, ok: bool) -> None:
        c = self.counts.setdefault(name, [0, 0])
        c[0] += 1
        c[1] += 0 if ok else 1

    @property
    def attempted(self) -> int:
        return sum(c[0] for c in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.counts.values())

    def failed_names(self) -> list[str]:
        return sorted(n for n, c in self.counts.items() if c[1])


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- inputs


def build_corpus(ev, cfg, seed: int, n: int, out_dir: Path, on_recording=None):
    """``evtforce synth`` then ``evtforce convert`` on one directory.

    The same public functions, in the same order and with the same
    sub-seed fan-out, as ``cli.cmd_synth`` and ``cli.cmd_convert`` with no
    flag overrides.  Returns the dataset and the .frd path.
    """
    cli, synth, events, frames = ev["cli"], ev["synth"], ev["events"], ev["frames"]
    rec = out_dir / "rec"
    rec.mkdir(parents=True)
    entries = []
    for r in range(n):
        start = time.perf_counter()
        profile = synth.make_grasp_profile(
            cfg.protocol.samples_per_recording,
            cfg.scene.f_max_n,
            cfg.protocol.rate_hz,
            seed=cli.sub_seed(seed, f"profile:{r}"),
        )
        stream, _ = synth.synthesize_recording(
            cfg.scene,
            profile,
            cfg.protocol.substeps_per_sample,
            noise_rate_hz=cfg.protocol.noise_rate_hz,
            seed=cli.sub_seed(seed, f"noise:{r}"),
        )
        events_name, labels_name = f"rec{r:03d}.evb1", f"rec{r:03d}.labels.json"
        events.write_events(stream, rec / events_name, "binary")
        synth.save_profile(profile, rec / labels_name)
        entries.append({"events": events_name, "labels": labels_name, "n_events": len(stream)})
        if on_recording is not None:
            on_recording(time.perf_counter() - start)
    manifest = {
        "config_sha256": cfg.sha256(),
        "seed": seed,
        "n_recordings": n,
        "recordings": entries,
    }
    (rec / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    spec = cfg.frame
    streams, tracks, ids = [], [], []
    for path in sorted(p for p in rec.iterdir() if p.suffix in (".evb1", ".csv")):
        streams.append(events.read_events(path, "binary"))
        tracks.append(synth.load_profile(rec / (path.name.rsplit(".", 1)[0] + ".labels.json")))
        ids.append(path.stem)
    dataset = frames.build_dataset(
        streams, tracks, spec, force_range=(0.0, cfg.scene.f_max_n), ids=ids
    )
    frd = out_dir / "data.frd"
    frames.write_frame_dataset(dataset, frd, spec)
    return dataset, frd


def make_inputs(workload: str, seed: int, workdir: str, scale_name: str) -> None:
    """Generate a workload's inputs from its seed (run in a child process).

    ``train`` gets a corpus .frd; ``stream`` gets clean and noisy EVB1
    recordings.  Every workload gets the config document.
    """
    scale = SCALES[scale_name]
    work = Path(workdir)
    (work / "config.json").write_text(json.dumps(scale.config))
    if workload == "corpus":
        return
    ev = load_modules()
    cfg = ev["cli"].load_config(str(work / "config.json"))
    if workload == "train":
        build_corpus(ev, cfg, seed, scale.n_recordings, work / "input")
        return
    synth, events, sub_seed = ev["synth"], ev["events"], ev["cli"].sub_seed
    inputs = work / "input"
    inputs.mkdir()
    # Interleave clean and noisy so the loop meets noisy windows throughout a run.
    counts = {"clean": scale.stream_clean, "noisy": scale.stream_noisy}
    kinds = [k for j in range(max(counts.values())) for k in counts if j < counts[k]]
    for i, kind in enumerate(kinds):
        noisy = kind == "noisy"
        n_samples = scale.noisy_samples if noisy else cfg.protocol.samples_per_recording
        profile = synth.make_grasp_profile(
            n_samples, cfg.scene.f_max_n, cfg.protocol.rate_hz,
            seed=sub_seed(seed, f"stream-profile:{i}"),
        )
        stream, _ = synth.synthesize_recording(
            cfg.scene, profile, cfg.protocol.substeps_per_sample,
            noise_rate_hz=scale.noise_rate_hz if noisy else 0.0,
            seed=sub_seed(seed, f"stream-noise:{i}"),
        )
        events.write_events(stream, inputs / f"{i:02d}-{kind}.evb1", "binary")


# ---------------------------------------------------------------- set-up


def setup(workload: str, seed: int, workdir: str) -> dict:
    """The program's own set-up: imports, config, reading inputs, the model.

    Timed as ``setup_s``; generating the inputs is not part of it.
    """
    ev = load_modules()
    work = Path(workdir)
    cfg = ev["cli"].load_config(str(work / "config.json"))
    state = {"ev": ev, "cfg": cfg}
    sub_seed = ev["cli"].sub_seed
    if workload == "train":
        dataset = ev["frames"].read_frame_dataset(work / "input" / "data.frd")
        state["splits"] = ev["training"].split_dataset(
            dataset, cfg.train.split, sub_seed(seed, "split")
        )
        state["model"] = ev["vit"].init_params(cfg.model, sub_seed(seed, "init"))
    elif workload == "stream":
        paths = sorted((work / "input").glob("*.evb1"))
        state["recordings"] = [
            (p.stem.split("-")[1], ev["events"].read_events(p, "binary")) for p in paths
        ]
        ckpt = work / "model.ckpt"
        ev["vit"].save_checkpoint(ev["vit"].init_params(cfg.model, sub_seed(seed, "init")), ckpt)
        state["model"] = ev["vit"].load_checkpoint(ckpt)
    return state


def setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """Time one complete set-up; run in a fresh interpreter, so it pays the imports."""
    start = time.perf_counter()
    setup(workload, seed, workdir)
    return time.perf_counter() - start


# ---------------------------------------------------------------- runs


@dataclasses.dataclass
class Outcome:
    """What a workload run measured, before it is turned into metrics."""

    frames_per_s: float
    latency_ms: list          # per-unit latencies for the percentiles
    extra: dict               # workload-specific values (report and aliases)
    units: int = 0            # traced work items per-layer figures divide by
    trace_overhead: float | None = None


def run_corpus(state, seed, seconds, scale, workdir, checks, tracer=None) -> Outcome:
    import numpy as np

    ev, cfg = state["ev"], state["cfg"]
    frames_mod = ev["frames"]
    expected = scale.n_recordings * (cfg.protocol.samples_per_recording - 1)
    per_build, build_s, hashes = [], [], []
    n_frames = 0
    # A traced run makes exactly three builds and traces the middle one; the
    # untraced builds either side of it are the overhead reference.
    min_builds = 3 if tracer is not None else CORPUS_BUILDS
    start = time.perf_counter()
    while len(build_s) < min_builds or (
        tracer is None and time.perf_counter() - start < seconds
    ):
        out = Path(workdir) / f"build{len(build_s)}"
        if tracer is not None and len(build_s) == 1:
            tracer.tag = "build"
            tracer.install()
        latencies = []
        t0 = time.perf_counter()
        dataset, frd = build_corpus(
            ev, cfg, seed, scale.n_recordings, out, on_recording=latencies.append
        )
        build_s.append(time.perf_counter() - t0)
        per_build.append([1e3 * s for s in latencies])
        if tracer is not None:
            tracer.restore()
        n_frames += len(dataset)

        checks.add("frame_count", len(dataset) == expected)
        labels = dataset.labels
        checks.add(
            "labels_in_range",
            bool(np.all(labels >= 0.0) and np.all(labels <= np.float32(cfg.scene.f_max_n))),
        )
        checks.add("frd_reread_equal", frames_mod.read_frame_dataset(frd) == dataset)
        hashes.append((sha256_file(frd), sha256_file(str(frd) + ".json")))
        shutil.rmtree(out)
    for h in hashes[1:]:
        checks.add("same_seed_sha256", h == hashes[0])
    overhead = None
    if tracer is not None:
        untraced = (percentile(per_build[0], 50.0) + percentile(per_build[2], 50.0)) / 2
        overhead = percentile(per_build[1], 50.0) / untraced - 1.0
    return Outcome(
        frames_per_s=n_frames / sum(build_s),
        latency_ms=[ms for build in per_build for ms in build],
        extra={"builds": len(build_s), "build_s": build_s, "frames_per_build": expected,
               "frd_sha256": hashes[0][0]},
        units=1,
        trace_overhead=overhead,
    )


def _step_intervals(times, steps_per_epoch):
    """Intervals between consecutive step returns within one epoch."""
    return [
        1e3 * (times[k] - times[k - 1])
        for k in range(1, len(times))
        if k % steps_per_epoch != 0
    ]


def run_train(state, seed, seconds, scale, workdir, checks, tracer=None) -> Outcome:
    ev, cfg = state["ev"], state["cfg"]
    training, vit = ev["training"], ev["vit"]
    train_ds, val_ds, test_ds = state["splits"]
    train_cfg = dataclasses.replace(
        cfg.train, epochs=scale.train_epochs, seed=ev["cli"].sub_seed(seed, "train")
    )
    steps_per_epoch = math.ceil(len(train_ds) / train_cfg.batch_size)
    extra = {"steps_per_epoch": steps_per_epoch, "epochs": train_cfg.epochs,
             "train_frames": len(train_ds)}

    clock = StepClock(training)
    if tracer is not None:
        # Overhead reference: one untraced epoch from the same initial model.
        clock.install()
        try:
            training.train(
                vit.init_params(cfg.model, ev["cli"].sub_seed(seed, "init")),
                (train_ds, val_ds),
                dataclasses.replace(train_cfg, epochs=1),
            )
        finally:
            clock.restore()
        reference = _step_intervals(clock.times, steps_per_epoch)
        tracer.tag = "train"
        tracer.install()
    else:
        before = function_attributes(ev)
        clock.install()
        during = function_attributes(ev)
        changed = {k for k in before if before[k] != during.get(k)}
        checks.add("untraced_wraps_only_step_clock", changed == {("evtforce.training", "adam_step")})
    try:
        t0 = time.perf_counter()
        model, log = training.train(state["model"], (train_ds, val_ds), train_cfg)
        train_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.tag = "eval"
        t0 = time.perf_counter()
        metrics = training.evaluate(model, test_ds, train_cfg.mape_floor_n)
        eval_s = time.perf_counter() - t0
    finally:
        (tracer if tracer is not None else clock).restore()

    if tracer is not None:
        times = [s[4] for s in tracer.spans if s[2] == "training.adam_step" and s[5] == "train"]
    else:
        times = clock.times
    steps = _step_intervals(times, steps_per_epoch)
    checks.add("step_count", len(times) == steps_per_epoch * train_cfg.epochs)
    for e in log:
        checks.add("loss_finite", math.isfinite(e.train_mse) and math.isfinite(e.val_mse))
    checks.add("test_r2", metrics.r2 is not None and metrics.r2 >= TEST_R2_MIN)
    extra.update(
        test_rmse_n=metrics.rmse,
        test_r2=metrics.r2,
        eval_frames=len(test_ds),
        eval_frames_per_s=len(test_ds) / eval_s,
        train_s=train_s,
    )
    overhead = None
    if tracer is not None:
        extra["traced_step_ms_p50"] = percentile(steps, 50.0)
        overhead = extra["traced_step_ms_p50"] / percentile(reference, 50.0) - 1.0
    return Outcome(
        frames_per_s=train_cfg.epochs * len(train_ds) / train_s,
        latency_ms=steps,
        extra=extra,
        units=len(times),
        trace_overhead=overhead,
    )


def run_stream(state, seed, seconds, scale, workdir, checks, tracer=None) -> Outcome:
    """Closed loop, one client: each window is sent only after the reply to
    the previous one, so latency is per window and throughput is its
    inverse."""
    import numpy as np

    ev, cfg, model = state["ev"], state["cfg"], state["model"]
    events, frames_mod, training, ad = ev["events"], ev["frames"], ev["training"], ev["autodiff"]
    spec = cfg.frame
    schedule = [
        (kind, stream, k * spec.window_us)
        for kind, stream in state["recordings"]
        for k in range(stream.duration_us // spec.window_us)
    ]
    first_frames: dict[int, np.ndarray] = {}
    preds: list[tuple[int, float]] = []
    latencies = {"clean": [], "noisy": []}
    ordered = []
    # A traced run traces every other pass over the schedule; the passes in
    # between, interleaved in time with them, are the overhead reference.
    by_mode = {False: [], True: []}
    min_windows = 2 * len(schedule) if tracer is not None else scale.stream_windows
    start = time.perf_counter()
    i = 0
    try:
        while True:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and i >= min_windows) or elapsed > 3 * seconds + 10:
                break
            slot = i % len(schedule)
            kind, stream, t0 = schedule[slot]
            if tracer is not None:
                traced = (i // len(schedule)) % 2 == 1
                if slot == 0 and traced and not tracer.installed:
                    tracer.install()
                elif slot == 0 and not traced and tracer.installed:
                    tracer.restore()
                tracer.tag = kind
            w0 = time.perf_counter()
            piece = events.slice_window(stream, t0, t0 + spec.window_us)
            frame = frames_mod.accumulate_frame(piece, spec, t0)
            data = getattr(frame, "data", frame)  # a Frame, or a bare array
            with ad.no_grad():
                pred = float(training.predict_forces(model, data[None])[0])
            ms = 1e3 * (time.perf_counter() - w0)
            by_mode[tracer is not None and tracer.installed].append(ms)
            ordered.append(ms)
            latencies[kind].append(ms)
            first_frames.setdefault(slot, data)
            preds.append((slot, pred))
            i += 1
    finally:
        if tracer is not None:
            tracer.restore()
    loop_s = time.perf_counter() - start

    slots = sorted(first_frames)
    batched = training.predict_forces(
        model, np.stack([first_frames[s] for s in slots]), batch_size=16
    )
    ref = dict(zip(slots, batched.tolist()))
    for slot, pred in preds:
        checks.add("prediction_finite", math.isfinite(pred))
        checks.add("matches_batched", abs(pred - ref[slot]) <= 1e-5 + 1e-4 * abs(ref[slot]))

    extra = {
        "windows": i,
        "schedule_windows": len(schedule),
        "noisy_share": sum(1 for k, *_ in schedule if k == "noisy") / len(schedule),
        "window_ms_p50.clean": percentile(latencies["clean"], 50.0) if latencies["clean"] else None,
        "window_ms_p50.noisy": percentile(latencies["noisy"], 50.0) if latencies["noisy"] else None,
    }
    overhead = None
    if by_mode[True]:
        overhead = percentile(by_mode[True], 50.0) / percentile(by_mode[False], 50.0) - 1.0
    return Outcome(
        frames_per_s=i / loop_s,
        latency_ms=ordered,
        extra=extra,
        units=len(by_mode[True]),
        trace_overhead=overhead,
    )


RUNNERS = {"corpus": run_corpus, "train": run_train, "stream": run_stream}

