"""Fixed-interval event frames and labeled frame datasets.

A recording is cut into consecutive half-open windows [k*T, (k+1)*T) and
each window's events are accumulated into a frame.  Three pixel
encodings are supported:

binary       one channel, 1.0 where the pixel fired at least once
count        one channel, number of events per pixel
polarity2ch  two channels: positive-event count, negative-event count

The native sensor frame may then be box-resampled to a square model input
(mass preserving) and normalized by its maximum element.  No native frame
is built for that: events are counted straight into a small histogram of
pixel classes, whose two weight products give the resampled frame
exactly (``_axis_classes``).  Frames are float32 throughout so container
round trips are byte-exact.

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

from .events import EventStream, FormatError, _read_records
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
    The stream may span the whole recording; an event in the window
    outside the sensor raises ``ValueError``.  Unnormalized, unresized
    count and polarity2ch frames hold exact non-negative integers.
    """
    return _frames(stream, spec, t0_us, 1)[0].view(_FrameArray)


def _box_matrix(n_in: int, n_out: int, cells=None) -> np.ndarray:
    """Area-overlap resampling weights; every input cell's weights sum to 1.

    Returns the (n_out, len(cells)) weights of the given input cells (by
    default every cell).  On an axis of n_in * n_out units, input cell k
    spans [k n_out, (k + 1) n_out) and output cell i spans
    [i n_in, (i + 1) n_in), so each weight is an integer overlap / n_out.
    """
    k = np.arange(n_in, dtype=np.int64) if cells is None else cells
    i = np.arange(n_out, dtype=np.int64)[:, None]
    overlap = np.minimum((k + 1) * n_out, (i + 1) * n_in) - np.maximum(k * n_out, i * n_in)
    return np.maximum(overlap, 0) / n_out


def _axis_classes(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Class of each of n_in input cells of one axis, and the classes' weights.

    A cell inside one output cell takes that cell's class, with weight 1;
    a cell that straddles a boundary is a class of its own, split by its
    two overlaps.  So an axis has at most 2 n_out - 1 classes, however
    large n_in.  Classes are merged only when every weight is dyadic:
    integer counts times dyadic weights then sum exactly in float64, in
    any order, so ``weights @ class counts`` equals ``_box_matrix`` times
    the per-cell counts bit for bit.  Otherwise (upsampling past two
    output cells, a non-dyadic split) each cell is its own class and the
    weights are ``_box_matrix``.  Returns the (n_in,) class index and the
    (n_out, classes) weights.
    """
    k = np.arange(n_in, dtype=np.int64)
    first = k * n_out // n_in
    straddle = ((k + 1) * n_out - 1) // n_in - first
    head = np.minimum((k + 1) * n_out, (first + 1) * n_in) - k * n_out
    denominator = n_out // np.gcd(head, n_out)
    if straddle.max() > 1 or np.any(denominator & (denominator - 1)):
        return k, _box_matrix(n_in, n_out)
    _, cells, classes = np.unique(2 * first + straddle, return_index=True, return_inverse=True)
    return classes, _box_matrix(n_in, n_out, k[cells])


@lru_cache(maxsize=8)
def _geometry(height: int, width: int, out_size: int | None, binary: bool):
    """Index tables and weights that take a sensor's events to frame pixels.

    An event at (x, y) counts in bin ``rows[y] + cols[x]`` of an
    (n_rows, n_cols) class grid, and the frame is
    ``row_weights @ grid @ col_weights.T``, where a None weight is the
    identity.  Binary frames mark native pixels, so they keep one class
    per pixel.
    """

    def axis(n_in):
        if out_size is None or out_size == n_in:
            return np.arange(n_in, dtype=np.int64), None
        if binary:
            return np.arange(n_in, dtype=np.int64), _box_matrix(n_in, out_size)
        return _axis_classes(n_in, out_size)

    (rows, row_weights), (cols, col_weights) = axis(height), axis(width)
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    rows = rows * shape[1]
    for table in (rows, cols, row_weights, col_weights):
        if table is not None:
            table.setflags(write=False)  # shared by every caller of the cache
    return rows, cols, shape, row_weights, col_weights


# A window range is histogrammed this many bins at a time (16 MB of int64
# counts), so memory stays bounded however many windows it spans.
_CHUNK_BINS = 2**21

# One window's histogram may hold at most this many bins (128 MB of int64
# counts); a 2-channel native 2048 x 2048 frame takes half of it.
_WINDOW_BINS = 2**24


def _stream_geometry(stream: EventStream, spec: FrameSpec):
    """``_geometry`` of a stream's frames, and its bins per window.

    A geometry whose one window passes ``_WINDOW_BINS`` is a
    ``FormatError`` naming the frame config and the sensor size declared
    in the stream's header, raised before any histogram is allocated.
    """
    geometry = _geometry(stream.height, stream.width, spec.out_size, spec.mode == "binary")
    shape = geometry[2]
    bins = spec.channels * shape[0] * shape[1]
    if bins > _WINDOW_BINS:
        raise FormatError(
            f"frame.mode {spec.mode!r} at frame.out_size {spec.out_size} needs {bins} histogram "
            f"bins per window for the declared {stream.width}x{stream.height} sensor, more than "
            f"{_WINDOW_BINS}"
        )
    return geometry, bins


def _frames(stream: EventStream, spec: FrameSpec, t0_us: int, n: int) -> np.ndarray:
    """Frames of the n windows [t0 + j T, t0 + (j + 1) T), T = window_us.

    One integer ``bincount`` over (window, channel, row class, column
    class), one float64 product with the class weights, one float32 cast
    and a per-frame normalize.  Where ``_axis_classes`` merges cells, the
    cost follows the events and the output size, not the sensor size.
    The stream must be time-ordered.
    """
    h, w = stream.height, stream.width
    t = stream.t_us
    i0 = int(np.searchsorted(t, t0_us, side="left"))
    i1 = int(np.searchsorted(t, t0_us + n * spec.window_us, side="left"))
    x, y, p = stream.x[i0:i1], stream.y[i0:i1], stream.p[i0:i1]
    # Only an in-memory stream can hold such events (``read_events``
    # validates); unchecked, x would wrap into the next row.  As unsigned,
    # a negative coordinate is huge, so one max per axis catches both ends.
    if x.size and (x.view(np.uint32).max() >= w or y.view(np.uint32).max() >= h):
        raise ValueError("event coordinates outside the sensor")
    (rows, cols, shape, row_weights, col_weights), _ = _stream_geometry(stream, spec)
    plane = shape[0] * shape[1]
    idx = np.take(rows, y)
    idx += np.take(cols, x)
    if spec.mode == "polarity2ch":
        # Negative events land one channel up.  Zero polarity (only in an
        # invalid stream) counts in neither channel.
        idx += (p < 0) * plane
    if n > 1:
        idx += (t[i0:i1] - t0_us) // spec.window_us * (spec.channels * plane)
    if spec.mode == "polarity2ch" and not p.all():
        idx = idx[p != 0]
    hist = np.bincount(idx, minlength=n * spec.channels * plane)
    hist = hist.reshape(n, spec.channels, *shape)
    if spec.mode == "binary":
        hist = hist > 0
    data = hist.astype(np.float64)
    if row_weights is not None:
        data = row_weights @ data
    if col_weights is not None:
        data = data @ col_weights.T
    frames = data.astype(np.float32)
    if spec.normalize:
        peak = frames.max(axis=(1, 2, 3), keepdims=True)
        frames /= np.where(peak > 0, peak, np.float32(1))
    return frames


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
    stop = n_windows if stop is None else min(stop, n_windows)
    step = max(1, _CHUNK_BINS // _stream_geometry(stream, spec)[1])
    side = (stream.height, stream.width) if spec.out_size is None else (spec.out_size,) * 2
    out = np.empty((max(stop - start, 0), spec.channels, *side), dtype=np.float32)
    for k in range(start, stop, step):
        n = min(step, stop - k)
        out[k - start : k - start + n] = _frames(stream, spec, k * spec.window_us, n)
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
