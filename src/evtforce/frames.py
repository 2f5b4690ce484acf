"""Fixed-interval event frames and labeled frame datasets.

A recording is cut into consecutive half-open windows [k*T, (k+1)*T) and
each window's events are accumulated into a dense frame.  Three pixel
encodings are supported:

binary       one channel, 1.0 where the pixel fired at least once
count        one channel, number of events per pixel
polarity2ch  two channels: positive-event count, negative-event count

The native sensor frame may then be box-resampled to a square model input
(mass preserving) and normalized by its maximum element.  Frames are
float32 throughout so container round trips are byte-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .events import (
    EventStream,
    FormatError,
    HeaderError,
    TruncatedError,
    slice_window,
)

MODES = ("binary", "count", "polarity2ch")

_FRD1_MAGIC = b"FRD1"
_FRD1_HEADER = struct.Struct("<4sHHHQ")


@dataclass(frozen=True)
class FrameSpec:
    """How to turn an event window into a model-ready frame.

    ``out_size`` is the square model input side; None keeps the native
    sensor geometry.  Normalization (per-frame max, applied after the
    resize) maps every non-empty frame into [0, 1] and leaves an empty
    frame all zero.
    """

    window_us: int = 100_000
    mode: str = "polarity2ch"
    out_size: int | None = 64
    normalize: bool = True

    def __post_init__(self):
        if self.window_us <= 0:
            raise ValueError("window_us must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.out_size is not None and self.out_size <= 0:
            raise ValueError("out_size must be positive or None")

    @property
    def channels(self) -> int:
        return 2 if self.mode == "polarity2ch" else 1


class Frame:
    """One accumulated window: float32 data (C, H, W) plus its time span."""

    __slots__ = ("data", "t_start_us", "t_end_us")

    def __init__(self, data: np.ndarray, t_start_us: int, t_end_us: int):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError("frame data must have shape (channels, height, width)")
        if t_end_us < t_start_us:
            raise ValueError("t_end_us must not precede t_start_us")
        self.data = data
        self.t_start_us = int(t_start_us)
        self.t_end_us = int(t_end_us)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.t_start_us == other.t_start_us
            and self.t_end_us == other.t_end_us
            and self.data.shape == other.data.shape
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Frame{self.data.shape}[{self.t_start_us}, {self.t_end_us})"


def accumulate_frame(events: EventStream, spec: FrameSpec, t0_us: int) -> Frame:
    """Accumulate one window of events into a frame.

    ``events`` must already be sliced to [t0, t0 + window); every event in
    the stream is counted, and one outside the sensor raises
    ``ValueError``.  Unnormalized, unresized count and polarity2ch
    frames hold exact non-negative integers.
    """
    h, w = events.height, events.width
    # Only an in-memory stream can hold such events (``read_events``
    # validates); unchecked, x would wrap into the next row.  As unsigned,
    # a negative coordinate is huge, so one max per axis catches both ends.
    if events.x.size and (
        events.x.view(np.uint32).max() >= w or events.y.view(np.uint32).max() >= h
    ):
        raise ValueError("event coordinates outside the sensor")
    lin = events.y.astype(np.int64) * w + events.x.astype(np.int64)
    if spec.mode == "polarity2ch":
        # One bincount over (channel, pixel): negative events land one
        # channel up.  Zero polarity (only in an invalid stream) counts in
        # neither channel.
        lin += (events.p < 0) * (h * w)
        if not events.p.all():
            lin = lin[events.p != 0]
        data = np.bincount(lin, minlength=2 * h * w).reshape(2, h, w).astype(np.float32)
    else:
        counts = np.bincount(lin, minlength=h * w).reshape(1, h, w)
        data = counts.astype(np.float32)
        if spec.mode == "binary":
            data = (data > 0).astype(np.float32)
    if spec.out_size is not None and (h, w) != (spec.out_size, spec.out_size):
        data = _box_resize(data, spec.out_size)
    if spec.normalize:
        peak = data.max() if data.size else 0.0
        if peak > 0:
            data = data / peak
    return Frame(data, t0_us, t0_us + spec.window_us)


@lru_cache(maxsize=None)
def _box_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Area-overlap resampling weights; every input cell's weights sum to 1."""
    s = n_out / n_in
    m = np.zeros((n_out, n_in))
    for k in range(n_in):
        a, b = k * s, (k + 1) * s
        for i in range(int(np.floor(a)), min(int(np.ceil(b)), n_out)):
            overlap = min(b, i + 1.0) - max(a, float(i))
            if overlap > 0:
                m[i, k] = overlap / s
    m.setflags(write=False)
    return m

def _box_resize(data: np.ndarray, out_size: int) -> np.ndarray:
    rows = _box_matrix(data.shape[1], out_size)
    cols = _box_matrix(data.shape[2], out_size)
    out = rows @ data.astype(np.float64) @ cols.T
    return out.astype(np.float32)


def resize_frame(frame: Frame, out_size: int) -> Frame:
    """Box-resample a frame to out_size x out_size, preserving total mass.

    Resizing to the frame's own size returns the frame unchanged.
    """
    if out_size <= 0:
        raise ValueError("out_size must be positive")
    if frame.data.shape[1] == out_size and frame.data.shape[2] == out_size:
        return frame
    return Frame(_box_resize(frame.data, out_size), frame.t_start_us, frame.t_end_us)


class FrameDataset:
    """Parallel frames, float32 force labels, and per-frame recording ids."""

    def __init__(self, frames: Sequence[Frame], labels, provenance: Sequence[str]):
        self.frames = list(frames)
        self.labels = np.asarray(labels, dtype=np.float32)
        self.provenance = list(provenance)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if not (len(self.frames) == len(self.labels) == len(self.provenance)):
            raise ValueError("frames, labels, and provenance must be equally long")
        if self.labels.size and not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")

    def __len__(self) -> int:
        return len(self.frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameDataset):
            return NotImplemented
        return (
            self.frames == other.frames
            and np.array_equal(self.labels, other.labels)
            and self.provenance == other.provenance
        )

    def subset(self, indices) -> "FrameDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return FrameDataset(
            [self.frames[i] for i in indices],
            self.labels[indices],
            [self.provenance[i] for i in indices],
        )

    def stacked(self) -> np.ndarray:
        """All frame data as one (N, C, H, W) float32 array."""
        if not self.frames:
            return np.zeros((0, 0, 0, 0), dtype=np.float32)
        return np.stack([f.data for f in self.frames])


def frames_from_stream(stream: EventStream, spec: FrameSpec) -> list[Frame]:
    """Cut a recording into every full window it covers, in time order.

    The recording spans [0, stream.duration_us); a trailing stretch
    shorter than the window is dropped.
    """
    n_windows = stream.duration_us // spec.window_us
    out = []
    for k in range(n_windows):
        t0 = k * spec.window_us
        piece = slice_window(stream, t0, t0 + spec.window_us)
        out.append(accumulate_frame(piece, spec, t0))
    return out


def build_dataset(
    recordings: Sequence[EventStream],
    force_tracks: Sequence,
    spec: FrameSpec,
    force_range: tuple[float, float] = (0.0, 1.6),
    ids: Sequence[str] | None = None,
) -> FrameDataset:
    """Window every recording and label frame k with force sample k.

    Each force track must expose ``rate_hz`` and ``samples`` and be
    sampled at exactly one sample per window; a track with fewer samples
    than its recording has windows is an error, as is a label outside
    ``force_range``.
    """
    if len(recordings) != len(force_tracks):
        raise ValueError("recordings and force_tracks must be equally long")
    if ids is None:
        ids = [f"rec{r:03d}" for r in range(len(recordings))]
    elif len(ids) != len(recordings):
        raise ValueError("ids must match recordings")

    frames: list[Frame] = []
    labels: list[float] = []
    provenance: list[str] = []
    lo, hi = force_range
    for rec_id, stream, track in zip(ids, recordings, force_tracks):
        period_us = round(1e6 / track.rate_hz)
        if period_us != spec.window_us:
            raise ValueError(
                f"{rec_id}: track period {period_us} us != window {spec.window_us} us"
            )
        rec_frames = frames_from_stream(stream, spec)
        if len(track.samples) < len(rec_frames):
            raise ValueError(
                f"{rec_id}: track has {len(track.samples)} samples but the "
                f"recording windows into {len(rec_frames)} frames"
            )
        for k, frame in enumerate(rec_frames):
            label = float(track.samples[k])
            if not (lo <= label <= hi):
                raise ValueError(f"{rec_id}: label {label} outside [{lo}, {hi}]")
            frames.append(frame)
            labels.append(label)
            provenance.append(rec_id)
    return FrameDataset(frames, labels, provenance)


def write_frame_dataset(
    dataset: FrameDataset,
    path,
    frame_spec: FrameSpec | None = None,
) -> None:
    """Write an FRD1 container plus a JSON sidecar manifest (path + '.json').

    The binary container is a pure function of the dataset, so identical
    datasets produce byte-identical files, sidecar included; it carries
    provenance, window bounds, and the frame spec.
    """
    path = Path(path)
    shapes = {f.data.shape for f in dataset.frames}
    if len(shapes) > 1:
        raise ValueError("all frames in a container must share one shape")
    c, h, w = shapes.pop() if shapes else (0, 0, 0)
    parts = [_FRD1_HEADER.pack(_FRD1_MAGIC, c, h, w, len(dataset))]
    for frame, label in zip(dataset.frames, dataset.labels):
        parts.append(np.ascontiguousarray(frame.data, dtype="<f4").tobytes())
        parts.append(struct.pack("<f", float(label)))
    path.write_bytes(b"".join(parts))

    manifest = {
        "format": "FRD1-manifest",
        "recordings": sorted(set(dataset.provenance)),
        "provenance": dataset.provenance,
        "windows": [[f.t_start_us, f.t_end_us] for f in dataset.frames],
        "frame_spec": None if frame_spec is None else {
            "window_us": frame_spec.window_us,
            "mode": frame_spec.mode,
            "out_size": frame_spec.out_size,
            "normalize": frame_spec.normalize,
        },
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=2) + "\n")


def _is_window_list(windows) -> bool:
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    return isinstance(windows, list) and all(
        isinstance(win, list) and len(win) == 2 and is_int(win[0]) and is_int(win[1])
        and win[0] <= win[1]
        for win in windows
    )


def read_frame_dataset(path) -> FrameDataset:
    """Read an FRD1 container; the sidecar manifest is used when present.

    A non-finite frame value or label, or a sidecar whose ``windows`` or
    ``provenance`` has the wrong shape, is a ``FormatError``.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _FRD1_HEADER.size:
        raise HeaderError(f"{path}: file shorter than the {_FRD1_HEADER.size}-byte header")
    magic, c, h, w, count = _FRD1_HEADER.unpack_from(data)
    if magic != _FRD1_MAGIC:
        raise HeaderError(f"{path}: bad magic {magic!r}, expected {_FRD1_MAGIC!r}")
    frame_bytes = c * h * w * 4
    expected = count * (frame_bytes + 4)
    body = len(data) - _FRD1_HEADER.size
    if body < expected:
        raise TruncatedError(f"{path}: declared {count} frames, payload is short")
    if body > expected:
        raise FormatError(f"{path}: {body - expected} trailing byte(s) after frames")

    values = np.frombuffer(data, dtype="<f4", offset=_FRD1_HEADER.size)
    finite = np.isfinite(values)
    if not finite.all():
        k, j = divmod(int(np.argmin(finite)), c * h * w + 1)
        what = "label" if j == c * h * w else "frame value"
        raise FormatError(f"{path}: frame {k} holds a non-finite {what}")

    windows = [[0, 0]] * count
    provenance = [""] * count
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        try:
            manifest = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise FormatError(f"{sidecar}: corrupt sidecar manifest") from exc
        if not isinstance(manifest, dict):
            raise FormatError(f"{sidecar}: sidecar manifest must be a JSON object")
        if "windows" in manifest:
            if not _is_window_list(manifest["windows"]):
                raise FormatError(
                    f"{sidecar}: windows must be a list of [start, end] integer pairs"
                    " with start <= end"
                )
            if len(manifest["windows"]) == count:
                windows = manifest["windows"]
        if "provenance" in manifest:
            if not (isinstance(manifest["provenance"], list)
                    and all(isinstance(r, str) for r in manifest["provenance"])):
                raise FormatError(f"{sidecar}: provenance must be a list of strings")
            if len(manifest["provenance"]) == count:
                provenance = manifest["provenance"]

    frames = []
    labels = np.empty(count, dtype=np.float32)
    offset = _FRD1_HEADER.size
    for k in range(count):
        raw = np.frombuffer(data, dtype="<f4", count=c * h * w, offset=offset)
        offset += frame_bytes
        (labels[k],) = struct.unpack_from("<f", data, offset)
        offset += 4
        frames.append(Frame(raw.reshape(c, h, w).copy(), windows[k][0], windows[k][1]))
    return FrameDataset(frames, labels, provenance)
