"""The ``evtforce`` command line: synth, convert, train, eval, predict, bench.

One JSON config document with four sections (scene, frame, model, train)
drives the whole pipeline.  Precedence is flag > config file > built-in
default.  Every random choice derives from a single master seed, fanned
out to named sub-seeds, so a pipeline rerun with the same seed and config
is byte-identical.

Exit codes: 0 success, 2 usage or validation error, 3 I/O or file-format error,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .events import FormatError, InvalidStreamError, read_events, write_events
from .frames import (
    FrameSpec,
    accumulate_frame,
    build_dataset,
    frames_from_stream,
    read_frame_dataset,
    write_frame_dataset,
)
from .synth import (
    GripperScene,
    load_profile,
    make_grasp_profile,
    save_profile,
    synthesize_recording,
)
from .training import TrainConfig, evaluate, predict_forces, split_dataset, train
from .vit import ViTConfig, init_params, load_checkpoint, save_checkpoint


class ConfigError(ValueError):
    """A config document or flag value failed validation."""


@dataclass(frozen=True)
class SynthProtocol:
    """How many samples each synthetic grasp has and how finely to simulate."""

    rate_hz: float = 10.0
    samples_per_recording: int = 41
    substeps_per_sample: int = 4
    noise_rate_hz: float = 0.0

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.samples_per_recording < 2:
            raise ValueError("samples_per_recording must be at least 2")
        if self.substeps_per_sample < 1:
            raise ValueError("substeps_per_sample must be at least 1")
        if self.noise_rate_hz < 0:
            raise ValueError("noise_rate_hz must be non-negative")


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


DEFAULT_CONFIG: dict = {
    "scene": {
        "width": 320,
        "height": 240,
        "fingers": None,
        "delta_max_px": 12.0,
        "f_max_n": 1.6,
        "background": 50.0,
        "foreground": 200.0,
        "contrast": 0.05,
        "thickness_px": 5.0,
        "rate_hz": 10.0,
        "samples_per_recording": 41,
        "substeps_per_sample": 4,
        "noise_rate_hz": 0.0,
    },
    "frame": {
        "window_us": 100_000,
        "mode": "polarity2ch",
        "out_size": 64,
        "normalize": True,
    },
    "model": {
        "image_size": 64,
        "patch_size": 8,
        "in_channels": 2,
        "embed_dim": 128,
        "depth": 4,
        "num_heads": 4,
        "mlp_ratio": 4.0,
    },
    "train": {
        "learning_rate": 0.001,
        "batch_size": 16,
        "epochs": 200,
        "seed": 0,
        "split": [0.70, 0.15, 0.15],
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "mape_floor_n": 0.05,
    },
}

_PROTOCOL_KEYS = ("rate_hz", "samples_per_recording", "substeps_per_sample", "noise_rate_hz")


def sub_seed(master: int, name: str) -> int:
    """Derive a stable named sub-seed from the master seed."""
    digest = hashlib.sha256(f"{master}:{name}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def load_config(path: str | None) -> PipelineConfig:
    """Merge a config file (if any) over the defaults and validate it."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            document = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_polylines(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(finger, list) and all(
            isinstance(point, list) and len(point) == 2 and all(map(_is_number, point))
            for point in finger
        )
        for finger in value
    )


# Keys whose value is not simply of its default's type.
_VALUE_KINDS = {
    "fingers": ("a list of fingers, each a list of [x, y] points, or null",
                lambda v: v is None or _is_polylines(v)),
    "out_size": ("an integer or null", lambda v: v is None or _is_int(v)),
    "split": ("a list of three numbers",
              lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v))),
}


def _check_type(section: str, key: str, value) -> None:
    """Reject a config value whose JSON type does not fit its default's.

    An integer field takes only integers, a float field any number, a
    bool or string field only its own type.
    """
    default = DEFAULT_CONFIG[section][key]
    if key in _VALUE_KINDS:
        expected, fits = _VALUE_KINDS[key]
    elif isinstance(default, bool):
        expected, fits = "true or false", lambda v: isinstance(v, bool)
    elif isinstance(default, int):
        expected, fits = "an integer", _is_int
    elif isinstance(default, float):
        expected, fits = "a number", _is_number
    else:
        expected, fits = "a string", lambda v: isinstance(v, str)
    if not fits(value):
        raise ConfigError(f"invalid {section}.{key}: must be {expected}, got {json.dumps(value)}")


def _construct(section: str, factory, kwargs: dict):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        key = str(exc).split()[0]
        if key in kwargs:
            raise ConfigError(f"invalid {section}.{key}: {exc}") from exc
        raise ConfigError(f"invalid {section} config: {exc}") from exc


def _build_config(merged: dict) -> PipelineConfig:
    scene_keys = dict(merged["scene"])
    protocol_kwargs = {k: scene_keys.pop(k) for k in _PROTOCOL_KEYS}
    if scene_keys.get("fingers") is not None:
        scene_keys["fingers"] = tuple(
            tuple((float(x), float(y)) for x, y in finger)
            for finger in scene_keys["fingers"]
        )
    scene = _construct("scene", GripperScene, scene_keys)
    protocol = _construct("scene", SynthProtocol, protocol_kwargs)
    frame = _construct("frame", FrameSpec, dict(merged["frame"]))
    model = _construct("model", ViTConfig, dict(merged["model"]))
    train_kwargs = dict(merged["train"])
    train_kwargs["split"] = tuple(train_kwargs["split"])
    train_cfg = _construct("train", TrainConfig, train_kwargs)
    return PipelineConfig(scene, protocol, frame, model, train_cfg, merged)


def _master_seed(args, cfg: PipelineConfig) -> int:
    return args.seed if args.seed is not None else cfg.train.seed


def _print_json(payload) -> None:
    _assert_finite(payload)
    print(json.dumps(payload, sort_keys=True))


def _assert_finite(payload) -> None:
    if isinstance(payload, dict):
        for v in payload.values():
            _assert_finite(v)
    elif isinstance(payload, (list, tuple)):
        for v in payload:
            _assert_finite(v)
    elif isinstance(payload, float) and not math.isfinite(payload):
        raise AssertionError("non-finite value in JSON output")


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


def _frame_spec_from_args(args, cfg: PipelineConfig) -> FrameSpec:
    kwargs = {
        "window_us": cfg.frame.window_us,
        "mode": cfg.frame.mode,
        "out_size": cfg.frame.out_size,
        "normalize": cfg.frame.normalize,
    }
    if getattr(args, "window_us", None) is not None:
        kwargs["window_us"] = args.window_us
    if getattr(args, "mode", None) is not None:
        kwargs["mode"] = args.mode
    if getattr(args, "out_size", None) is not None:
        kwargs["out_size"] = None if args.out_size == 0 else args.out_size
    if getattr(args, "normalize", None) is not None:
        kwargs["normalize"] = args.normalize
    return _construct("frame", FrameSpec, kwargs)


def cmd_convert(args) -> int:
    cfg = load_config(args.config)
    spec = _frame_spec_from_args(args, cfg)
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
        streams, tracks, spec, force_range=(0.0, cfg.scene.f_max_n), ids=ids
    )
    write_frame_dataset(dataset, args.out, spec)
    _print_json({"frames": len(dataset), "out": str(args.out), "recordings": len(streams)})
    return 0


def _train_config(args, cfg: PipelineConfig, seed: int) -> TrainConfig:
    kwargs = {
        "learning_rate": cfg.train.learning_rate,
        "batch_size": cfg.train.batch_size,
        "epochs": cfg.train.epochs,
        "split": cfg.train.split,
        "beta1": cfg.train.beta1,
        "beta2": cfg.train.beta2,
        "eps": cfg.train.eps,
        "mape_floor_n": cfg.train.mape_floor_n,
        "seed": sub_seed(seed, "train"),
    }
    if getattr(args, "epochs", None) is not None:
        kwargs["epochs"] = args.epochs
    if getattr(args, "batch_size", None) is not None:
        kwargs["batch_size"] = args.batch_size
    if getattr(args, "learning_rate", None) is not None:
        kwargs["learning_rate"] = args.learning_rate
    return _construct("train", TrainConfig, kwargs)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args, cfg)
    train_cfg = _train_config(args, cfg, seed)
    dataset = read_frame_dataset(args.data)
    if len(dataset) == 0:
        raise ConfigError(f"{args.data} holds no frames")
    shape = dataset.frames.shape[1:]
    expect = (cfg.model.in_channels, cfg.model.image_size, cfg.model.image_size)
    if shape != expect:
        raise ConfigError(
            f"dataset frames are {shape[0]}x{shape[1]}x{shape[2]} but model.in_channels/"
            f"image_size expect {expect[0]}x{expect[1]}x{expect[2]}"
        )
    splits = split_dataset(dataset, train_cfg.split, sub_seed(seed, "split"))
    model = init_params(cfg.model, sub_seed(seed, "init"))
    model, log = train(model, splits, train_cfg)

    out = Path(args.out)
    save_checkpoint(model, out)
    log_lines = ["epoch,train_mse,val_mse"]
    log_lines += [f"{e.epoch},{e.train_mse!r},{e.val_mse!r}" for e in log]
    Path(str(out) + ".log.csv").write_text("\n".join(log_lines) + "\n")

    if len(splits[1]) and log:
        best_epoch = min(log, key=lambda e: e.val_mse).epoch
        metrics = evaluate(model, splits[1], train_cfg.mape_floor_n)
        split_name = "val"
    elif log:
        best_epoch = log[-1].epoch
        metrics = evaluate(model, splits[0], train_cfg.mape_floor_n)
        split_name = "train"
    else:
        best_epoch = None
        metrics = None
        split_name = None
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
    _print_json(metrics.to_dict())
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    model = load_checkpoint(args.ckpt)
    in_path = Path(args.in_path)
    if in_path.suffix == ".frd":
        frames = read_frame_dataset(in_path).frames
    else:
        spec = _frame_spec_from_args(args, cfg)
        frames = frames_from_stream(read_events(in_path, _event_format(in_path)), spec)
    if len(frames) == 0:
        return 0
    preds = predict_forces(model, frames)
    if not np.all(np.isfinite(preds)):
        raise AssertionError("prediction produced a non-finite force")
    for value in preds:
        print(repr(float(value)))
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be at least 1")
    path = Path(args.in_path)
    stream = read_events(path, _event_format(path))
    if len(stream) == 0:
        raise ConfigError(f"{path} holds no events; nothing to benchmark")
    window = max(stream.duration_us, 1)
    report: dict[str, float | int] = {"events": len(stream)}
    for mode in ("count", "binary", "polarity2ch"):
        spec = FrameSpec(window_us=window, mode=mode, out_size=None, normalize=False)
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

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed for every random choice")

    p = sub.add_parser("synth", help="generate synthetic grasp recordings")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-recordings", type=int, default=25)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("convert", help="window recordings into a labeled frame dataset")
    common(p)
    p.add_argument("--in", dest="in_dir", required=True, help="recording directory")
    p.add_argument("--out", required=True, help="output .frd container")
    p.add_argument("--window-us", type=int)
    p.add_argument("--mode", choices=("binary", "count", "polarity2ch"))
    p.add_argument("--out-size", type=int, help="square frame side, 0 keeps native size")
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train the regressor on a frame dataset")
    common(p)
    p.add_argument("--data", required=True, help="input .frd container")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report metrics for a checkpoint on a dataset")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("all", "train", "val", "test"), default="all")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="print one force per frame")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in_path", required=True, help="event file or .frd container")
    p.add_argument("--window-us", type=int)
    p.add_argument("--mode", choices=("binary", "count", "polarity2ch"))
    p.add_argument("--out-size", type=int)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="measure accumulation throughput per mode")
    common(p)
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
        return args.func(args)
    except (FormatError, InvalidStreamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
