"""The ``evtforce`` command line: synth, convert, train, eval, predict, bench.

One JSON config document with four sections (scene, frame, model, train)
drives the whole pipeline; its keys and defaults are the fields of the
pipeline dataclasses (``_SECTIONS``).  The ``--config`` file, the one
way to set a pipeline value, is laid over the defaults.  Each config
class checks its own fields, types included; the file adds only the
refusal of unknown keys and the int64 bound on integers.  Every random
choice derives from a single master seed (``--seed``, else
``train.seed``), fanned out to named sub-seeds, so a pipeline rerun with
the same seed and config is byte-identical.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or file-format error,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .events import FormatError, _is_int, _is_int64, read_events, write_events
from .frames import (
    MODES,
    FrameSpec,
    accumulate_frame,
    build_dataset,
    frame_chunks,
    read_frame_dataset,
    write_frame_dataset,
)
from .synth import (
    GripperScene,
    SynthProtocol,
    load_profile,
    make_grasp_profile,
    save_profile,
    synthesize_recording,
)
from .training import TrainConfig, evaluate, predict_forces, split_dataset, train
from .vit import ViTConfig, check_frame_shape, init_params, load_checkpoint, save_checkpoint


class ConfigError(ValueError):
    """A config document or flag value failed validation."""


@dataclass(frozen=True)
class PipelineConfig:
    scene: GripperScene
    protocol: SynthProtocol
    frame: FrameSpec
    model: ViTConfig
    train: TrainConfig
    raw: dict

    def sha256(self) -> str:
        """Digest of the merged config document, as ``synth`` records it.

        The model section is hashed with ``head_output: 1``, the fixed
        one-output head that earlier versions listed as a config key, so
        a same-seed corpus manifest keeps its bytes.
        """
        hashed = {**self.raw, "model": {**self.raw["model"], "head_output": 1}}
        return hashlib.sha256(json.dumps(hashed, sort_keys=True).encode("ascii")).hexdigest()


# Each config section and the dataclasses its keys belong to, in the
# order ``PipelineConfig`` holds them.
_SECTIONS = {
    "scene": (GripperScene, SynthProtocol),
    "frame": (FrameSpec,),
    "model": (ViTConfig,),
    "train": (TrainConfig,),
}


def _json_default(value):
    return list(value) if isinstance(value, tuple) else value


DEFAULT_CONFIG: dict = {
    section: {f.name: _json_default(f.default) for cls in classes for f in fields(cls)}
    for section, classes in _SECTIONS.items()
}

def sub_seed(master: int, name: str) -> int:
    """Derive a stable named sub-seed from the master seed."""
    digest = hashlib.sha256(f"{master}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def load_config(path: str | None) -> PipelineConfig:
    """Merge a config file (if any) over the defaults and validate."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    document = {}
    if path is not None:
        try:
            document = json.loads(Path(path).read_text())
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(document, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    for section, values in document.items():
        if section not in merged:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in merged[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            _check_type(section, key, value)
            merged[section][key] = value
    return _build_config(merged)


def _check_type(section: str, key: str, value) -> None:
    """Refuse an integer past int64 where the default is an integer.

    Every other type rule belongs to the field's config class; this bound
    is the config file's own, since ``train.seed`` also holds ``sub_seed``'s
    u64 in the library.
    """
    if type(DEFAULT_CONFIG[section][key]) is int and _is_int(value) and not _is_int64(value):
        raise ConfigError(f"invalid {section}.{key}: {key} must be within int64, got {value!r}")


def _construct(section: str, cls, values: dict):
    """Build ``cls`` from its own fields of a merged config section."""
    kwargs = {f.name: values[f.name] for f in fields(cls)}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        key = str(exc).split()[0]
        if key in kwargs:
            raise ConfigError(f"invalid {section}.{key}: {exc}") from exc
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def _build_config(merged: dict) -> PipelineConfig:
    parts = [
        _construct(section, cls, merged[section])
        for section, classes in _SECTIONS.items()
        for cls in classes
    ]
    return PipelineConfig(*parts, merged)


def _master_seed(args, cfg: PipelineConfig) -> int:
    return args.seed if args.seed is not None else cfg.train.seed


def _print_json(payload) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise AssertionError("non-finite value in JSON output") from exc
    print(text)


@contextlib.contextmanager
def _config_needs_memory(section: str):
    """A valid but extreme config (a huge noise rate, say) asks for more memory than there is."""
    try:
        yield
    except MemoryError as exc:
        raise ConfigError(f"the {section} config needs more memory than is available "
                          f"({str(exc) or 'out of memory'})") from exc


def _event_format(path: Path) -> str:
    return "csv" if path.suffix == ".csv" else "binary"


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args, cfg)
    n = args.n_recordings
    if n < 0:
        raise ConfigError("--n-recordings must be non-negative")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for r in range(n):
        with _config_needs_memory("scene"):
            profile = make_grasp_profile(
                cfg.protocol.samples_per_recording,
                cfg.scene.f_max_n,
                cfg.protocol.rate_hz,
                seed=sub_seed(seed, f"profile:{r}"),
            )
            stream, _ = synthesize_recording(
                cfg.scene,
                profile,
                cfg.protocol.substeps_per_sample,
                noise_rate_hz=cfg.protocol.noise_rate_hz,
                seed=sub_seed(seed, f"noise:{r}"),
            )
        events_name = f"rec{r:03d}.evb1"
        labels_name = f"rec{r:03d}.labels.json"
        write_events(stream, out_dir / events_name, "binary")
        save_profile(profile, out_dir / labels_name)
        entries.append({"events": events_name, "labels": labels_name, "n_events": len(stream)})

    manifest = {
        "config_sha256": cfg.sha256(),
        "seed": seed,
        "n_recordings": n,
        "recordings": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    _print_json({"out": str(out_dir), "recordings": n})
    return 0


def cmd_convert(args) -> int:
    cfg = load_config(args.config)
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise FileNotFoundError(f"{in_dir} is not a directory")
    event_files = sorted(
        [p for p in in_dir.iterdir() if p.suffix in (".evb1", ".csv")]
    )
    if not event_files:
        raise ConfigError(f"no recordings found in {in_dir}")
    streams, tracks, ids = [], [], []
    for path in event_files:
        label_path = in_dir / (path.name.rsplit(".", 1)[0] + ".labels.json")
        if not label_path.exists():
            raise FileNotFoundError(f"missing label track {label_path}")
        streams.append(read_events(path, _event_format(path)))
        tracks.append(load_profile(label_path))
        ids.append(path.stem)
    dataset = build_dataset(
        streams, tracks, cfg.frame, force_range=(0.0, cfg.scene.f_max_n), ids=ids
    )
    write_frame_dataset(dataset, args.out, cfg.frame)
    _print_json({"frames": len(dataset), "out": str(args.out), "recordings": len(streams)})
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args, cfg)
    train_cfg = replace(cfg.train, seed=sub_seed(seed, "train"))
    with _config_needs_memory("model"):  # built first, so a model too large costs no read
        model = init_params(cfg.model, sub_seed(seed, "init"))
    dataset = read_frame_dataset(args.data)
    if len(dataset) == 0:
        raise ConfigError(f"{args.data} holds no frames")
    check_frame_shape(cfg.model, dataset.frames.shape[1:])
    splits = split_dataset(dataset, train_cfg.split, sub_seed(seed, "split"))
    model, log = train(model, splits, train_cfg)

    # Summarized before any file is written, so a diverged run writes nothing.
    best_epoch = metrics = split_name = None
    if log:
        validated = len(splits[1]) > 0
        best_epoch = min(log, key=lambda e: e.val_mse).epoch if validated else log[-1].epoch
        split_name = "val" if validated else "train"
        metrics = evaluate(model, splits[1] if validated else splits[0], train_cfg.mape_floor_n)
        # Without a validation split no epoch's predictions were checked.
        if not all(map(math.isfinite, (metrics.rmse, metrics.mape, metrics.r2 or 0.0))):
            raise ValueError(
                f"training diverged: non-finite {split_name} metrics after epoch {best_epoch}"
            )

    out = Path(args.out)
    save_checkpoint(model, out)
    log_lines = ["epoch,train_mse,val_mse"]
    log_lines += [f"{e.epoch},{e.train_mse!r},{e.val_mse!r}" for e in log]
    Path(str(out) + ".log.csv").write_text("\n".join(log_lines) + "\n")
    summary = {
        "best_epoch": best_epoch,
        "split": split_name,
        "metrics": None if metrics is None else metrics.to_dict(),
    }
    Path(str(out) + ".summary.json").write_text(
        json.dumps(summary, sort_keys=True) + "\n"
    )
    _print_json(summary)
    return 0


def _select_split(dataset, name: str, cfg: PipelineConfig, seed: int):
    if name == "all":
        return dataset
    splits = split_dataset(dataset, cfg.train.split, sub_seed(seed, "split"))
    return splits[("train", "val", "test").index(name)]


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args, cfg)
    model = load_checkpoint(args.ckpt)
    dataset = read_frame_dataset(args.data)
    part = _select_split(dataset, args.split, cfg, seed)
    if len(part) == 0:
        raise ConfigError(f"split {args.split!r} of {args.data} is empty")
    metrics = evaluate(model, part, cfg.train.mape_floor_n)
    # Labels are finite float32, so every metric is finite when the rmse is.
    if not math.isfinite(metrics.rmse):
        raise FormatError(f"{args.ckpt}: checkpoint gives a non-finite prediction")
    _print_json(metrics.to_dict())
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    model = load_checkpoint(args.ckpt)
    in_path = Path(args.in_path)
    if in_path.suffix == ".frd":
        chunks = [read_frame_dataset(in_path).frames]
    else:
        stream = read_events(in_path, _event_format(in_path))
        # Checked before any frame is built: a native-size frame of a huge
        # declared sensor would not fit in memory.
        check_frame_shape(model.config, cfg.frame.frame_shape(stream.height, stream.width))
        chunks = frame_chunks(stream, cfg.frame)
    # Both paths predict in batches of ``batch_frames`` frames, the size of
    # a chunk, so an event file and a .frd of the same frames print the same.
    for batch in chunks:
        preds = predict_forces(model, batch)
        if not np.all(np.isfinite(preds)):
            raise FormatError(f"{args.ckpt}: checkpoint gives a non-finite prediction")
        for value in preds:
            print(repr(float(value)))
        sys.stdout.flush()
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be at least 1")
    path = Path(args.in_path)
    stream = read_events(path, _event_format(path))
    if len(stream) == 0:
        raise ConfigError(f"{path} holds no events; nothing to benchmark")
    report: dict[str, float | int] = {"events": len(stream)}
    for mode in MODES:
        spec = FrameSpec(window_us=stream.duration_us, mode=mode, out_size=None, normalize=False)
        best = math.inf
        for _ in range(args.repeats):
            start = time.perf_counter()
            accumulate_frame(stream, spec, 0)
            best = min(best, time.perf_counter() - start)
        report[f"{mode}_events_per_s"] = len(stream) / best
    _print_json(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtforce",
        description="Synthetic event-camera force regression pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def configured(p, seeded):
        p.add_argument("--config", help="JSON config file")
        if seeded:
            p.add_argument("--seed", type=int, help="master seed for every random choice")

    p = sub.add_parser("synth", help="generate synthetic grasp recordings")
    configured(p, seeded=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-recordings", type=int, default=25)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="window recordings into a labeled frame dataset")
    configured(p, seeded=False)
    p.add_argument("--in", dest="in_dir", required=True, help="recording directory")
    p.add_argument("--out", required=True, help="output .frd container")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train the regressor on a frame dataset")
    configured(p, seeded=True)
    p.add_argument("--data", required=True, help="input .frd container")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report metrics for a checkpoint on a dataset")
    configured(p, seeded=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("all", "train", "val", "test"), default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print one force per frame")
    configured(p, seeded=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in_path", required=True, help="event file or .frd container")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="measure accumulation throughput per mode")
    p.add_argument("--in", dest="in_path", required=True, help="event file")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # A finite but huge weight may overflow on the way; the commands
        # report the outcome (a non-finite prediction) in one line instead.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (FormatError, OSError, MemoryError) as exc:  # numpy names what it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
