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

A dataset holds all its frames as one (N, C, H, W) array, with the
window bounds, labels and recording ids as per-frame rows beside it.  An
FRD1 container stores the frames as packed (frame, label) records after
a fixed header; a JSON sidecar carries the windows and provenance.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .events import EventStream, FormatError, _read_records, slice_window
from .synth import GripperScene

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


class _FrameArray(np.ndarray):
    """A (C, H, W) frame whose ``.data`` is the frame, not its buffer.

    Callers that take the pixels of an ``accumulate_frame`` result from
    its ``.data`` keep working; in every other use it is a plain ndarray.
    """

    @property
    def data(self) -> np.ndarray:
        return self.view(np.ndarray)


def accumulate_frame(stream: EventStream, spec: FrameSpec, t0_us: int) -> np.ndarray:
    """Accumulate the events of the window [t0, t0 + window) into a frame.

    Returns the float32 (C, H, W) frame; its ``.data`` is the same array.
    The window is taken from ``stream`` with ``slice_window``, so the
    stream may span the whole recording; an event in the window outside
    the sensor raises ``ValueError``.  Unnormalized, unresized count and
    polarity2ch frames hold exact non-negative integers.
    """
    events = slice_window(stream, t0_us, t0_us + spec.window_us)
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
    return data.view(_FrameArray)


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
    """Box-resample a (C, H, W) frame to out_size x out_size, preserving mass."""
    rows = _box_matrix(data.shape[1], out_size)
    cols = _box_matrix(data.shape[2], out_size)
    out = rows @ data.astype(np.float64) @ cols.T
    return out.astype(np.float32)


class FrameDataset:
    """Labeled frames: one float32 (N, C, H, W) array plus per-frame rows.

    ``windows`` is an (N, 2) int64 array of each frame's [start, end) in
    microseconds, all zero when unknown (a container read without its
    sidecar); ``labels`` are float32 forces and ``provenance`` the
    recording id of each frame.
    """

    def __init__(self, frames, labels, provenance: Sequence[str], windows=None):
        self.frames = np.asarray(frames, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.float32)
        self.provenance = list(provenance)
        if self.frames.ndim != 4:
            raise ValueError("frames must have shape (N, channels, height, width)")
        if windows is None:
            windows = np.zeros((len(self.frames), 2))
        self.windows = np.asarray(windows, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if self.windows.shape != (len(self.frames), 2):
            raise ValueError("windows must have shape (N, 2)")
        if not (len(self.frames) == len(self.labels) == len(self.provenance)):
            raise ValueError("frames, labels, and provenance must be equally long")
        if np.any(self.windows[:, 1] < self.windows[:, 0]):
            raise ValueError("a window must not end before it starts")
        if self.labels.size and not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")

    def __len__(self) -> int:
        return len(self.frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameDataset):
            return NotImplemented
        return (
            np.array_equal(self.frames, other.frames)
            and np.array_equal(self.windows, other.windows)
            and np.array_equal(self.labels, other.labels)
            and self.provenance == other.provenance
        )

    def subset(self, indices) -> "FrameDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return FrameDataset(
            self.frames[indices],
            self.labels[indices],
            [self.provenance[i] for i in indices],
            self.windows[indices],
        )


def frames_from_stream(
    stream: EventStream, spec: FrameSpec, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Frames of the full windows ``start <= k < stop`` of a recording, in order.

    Window k is [k * window_us, (k + 1) * window_us).  Returns a float32
    (n, C, H, W) array, four-dimensional even for n = 0.  The recording
    spans [0, stream.duration_us); a trailing stretch shorter than the
    window is dropped, and ``stop`` (None: every window) is clipped to
    the windows the recording holds.
    """
    n_windows = stream.duration_us // spec.window_us
    ks = range(start, n_windows if stop is None else min(stop, n_windows))
    side = (stream.height, stream.width) if spec.out_size is None else (spec.out_size,) * 2
    out = np.empty((len(ks), spec.channels, *side), dtype=np.float32)
    for i, k in enumerate(ks):
        out[i] = accumulate_frame(stream, spec, k * spec.window_us)
    return out


def build_dataset(
    recordings: Sequence[EventStream],
    force_tracks: Sequence,
    spec: FrameSpec,
    force_range: tuple[float, float] = (0.0, GripperScene.f_max_n),
    ids: Sequence[str] | None = None,
) -> FrameDataset:
    """Window every recording and label frame k with force sample k.

    Each force track must expose ``period_us`` and ``samples`` and be
    sampled at exactly one sample per window; a track with fewer samples
    than its recording has windows is an error, as is a label outside
    ``force_range``.  With ``out_size`` None every recording must share
    one sensor size.
    """
    if len(recordings) != len(force_tracks):
        raise ValueError("recordings and force_tracks must be equally long")
    if ids is None:
        ids = [f"rec{r:03d}" for r in range(len(recordings))]
    elif len(ids) != len(recordings):
        raise ValueError("ids must match recordings")

    parts: list[np.ndarray] = []
    starts: list[int] = []
    labels: list[float] = []
    provenance: list[str] = []
    lo, hi = force_range
    for rec_id, stream, track in zip(ids, recordings, force_tracks):
        if track.period_us != spec.window_us:
            raise ValueError(
                f"{rec_id}: track period {track.period_us} us != window {spec.window_us} us"
            )
        # Checked before windowing, so a bogus duration costs no frames.
        n = stream.duration_us // spec.window_us
        if len(track.samples) < n:
            raise ValueError(
                f"{rec_id}: track has {len(track.samples)} samples but the "
                f"recording windows into {n} frames"
            )
        for label in map(float, track.samples[:n]):
            if not (lo <= label <= hi):
                raise ValueError(f"{rec_id}: label {label} outside [{lo}, {hi}]")
            labels.append(label)
        parts.append(frames_from_stream(stream, spec))
        starts.extend(range(0, n * spec.window_us, spec.window_us))
        provenance.extend([rec_id] * n)
    frames = np.concatenate(parts) if parts else np.zeros((0, 0, 0, 0), dtype=np.float32)
    t0 = np.asarray(starts, dtype=np.int64)
    return FrameDataset(frames, labels, provenance, np.stack([t0, t0 + spec.window_us], axis=1))


def _record_dtype(c: int, h: int, w: int) -> np.dtype:
    """One FRD1 record: a little-endian float32 (C, H, W) frame, then its label."""
    return np.dtype([("frame", "<f4", (c, h, w)), ("label", "<f4")])


def write_frame_dataset(
    dataset: FrameDataset,
    path,
    frame_spec: FrameSpec | None = None,
) -> None:
    """Write an FRD1 container plus a JSON sidecar manifest (path + '.json').

    The binary container is a pure function of the dataset, so identical
    datasets produce byte-identical files, sidecar included; it carries
    provenance, window bounds, and the frame spec.  An empty dataset is
    written with 0 x 0 x 0 geometry.
    """
    path = Path(path)
    frames = dataset.frames if len(dataset) else dataset.frames.reshape(0, 0, 0, 0)
    c, h, w = frames.shape[1:]
    records = np.empty(len(dataset), dtype=_record_dtype(c, h, w))
    records["frame"] = frames
    records["label"] = dataset.labels
    with open(path, "wb") as fh:
        fh.write(_FRD1_HEADER.pack(_FRD1_MAGIC, c, h, w, len(dataset)))
        fh.write(records.data)

    manifest = {
        "format": "FRD1-manifest",
        "recordings": sorted(set(dataset.provenance)),
        "provenance": dataset.provenance,
        "windows": dataset.windows.tolist(),
        "frame_spec": None if frame_spec is None else {
            "window_us": frame_spec.window_us,
            "mode": frame_spec.mode,
            "out_size": frame_spec.out_size,
            "normalize": frame_spec.normalize,
        },
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=2) + "\n")


def _is_window_list(windows) -> bool:
    def is_int64(v):
        return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63

    return isinstance(windows, list) and all(
        isinstance(win, list) and len(win) == 2 and is_int64(win[0]) and is_int64(win[1])
        and win[0] <= win[1]
        for win in windows
    )


def read_frame_dataset(path) -> FrameDataset:
    """Read an FRD1 container; the sidecar manifest is used when present.

    A non-finite frame value or label, or a sidecar whose ``windows`` or
    ``provenance`` has the wrong shape or length, is a ``FormatError``.
    """
    path = Path(path)
    data = path.read_bytes()
    (c, h, w), records = _read_records(data, path, _FRD1_HEADER, _FRD1_MAGIC, _record_dtype)
    count = len(records)

    values = np.frombuffer(data, dtype="<f4", offset=_FRD1_HEADER.size)
    finite = np.isfinite(values)
    if not finite.all():
        k, j = divmod(int(np.argmin(finite)), c * h * w + 1)
        what = "label" if j == c * h * w else "frame value"
        raise FormatError(f"{path}: frame {k} holds a non-finite {what}")

    windows = None
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
                    f"{sidecar}: windows must be a list of [start, end] int64 pairs"
                    " with start <= end"
                )
            windows = np.array(manifest["windows"], dtype=np.int64).reshape(-1, 2)
        if "provenance" in manifest:
            if not (isinstance(manifest["provenance"], list)
                    and all(isinstance(r, str) for r in manifest["provenance"])):
                raise FormatError(f"{sidecar}: provenance must be a list of strings")
            provenance = manifest["provenance"]
        for field, rows in (("windows", windows), ("provenance", provenance)):
            if rows is not None and len(rows) != count:
                raise FormatError(
                    f"{sidecar}: {field} has {len(rows)} entries for {count} frames"
                )

    return FrameDataset(
        records["frame"].copy(), records["label"].copy(), provenance, windows
    )
