"""Fixed-interval event frames and labeled frame datasets.

A recording is cut into consecutive half-open windows [k*T, (k+1)*T) and
each window's events are accumulated into a frame; ``frame_chunks`` is
the one loop over a recording's windows.  Three pixel encodings are
supported:

binary       one channel, 1.0 where the pixel fired at least once
count        one channel, number of events per pixel
polarity2ch  two channels: positive-event count, negative-event count

The native sensor frame may then be box-resampled to a square model input
(mass preserving) and normalized by its maximum element.  No native frame
is built for that: events are counted straight into a small histogram of
pixel classes, whose two weight products give the resampled frame
exactly (``_axis_classes``), and an axis a whole multiple of the output
needs no table; a geometry whose window or weight tables would pass
``_WINDOW_BINS`` is refused before any is built.  Frames are
float32 throughout so container round trips are byte-exact.

A dataset holds all its frames as one (N, C, H, W) array, with the
window bounds, labels and recording ids as per-frame rows beside it.
``build_dataset`` windows each recording as one job on synth's thread
pool (``_run_in_order``); every job writes its own rows of that array,
so the bytes are the same at any worker count.  An
FRD1 container stores the frames as packed (frame, label) records after
a fixed header; a JSON sidecar carries the windows and provenance.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .events import EventStream, FormatError, _check_fields, _read_records, _write_records
from .synth import GripperScene, _run_in_order

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
        _check_fields(self)
        if self.window_us <= 0:
            raise ValueError("window_us must be positive")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.out_size is not None and self.out_size <= 0:
            raise ValueError("out_size must be positive or None")

    @property
    def channels(self) -> int:
        return 2 if self.mode == "polarity2ch" else 1

    def frame_shape(self, height: int, width: int) -> tuple[int, int, int]:
        """(C, H, W) of a height x width sensor's frames: native, or out_size squared."""
        side = (height, width) if self.out_size is None else (self.out_size, self.out_size)
        return (self.channels, *side)


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
    The stream may span the whole recording.  Unnormalized, unresized
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
    """Class of each of n_in input cells of one axis, and each class's first cell.

    A cell inside one output cell takes that cell's class, with weight 1;
    a cell that straddles a boundary is a class of its own, split by its
    two overlaps.  So an axis has at most 2 n_out - 1 classes, however
    large n_in.  Classes are merged only when every weight is dyadic:
    integer counts times dyadic weights then sum exactly in float64, in
    any order, so ``weights @ class counts`` equals ``_box_matrix`` times
    the per-cell counts bit for bit.  Otherwise (upsampling past two
    output cells, a non-dyadic split) each cell is its own class.  Returns
    the (n_in,) class index and the first cell of each class, whose
    weights ``_box_matrix(n_in, n_out, cells)`` are the classes'.
    """
    k = np.arange(n_in, dtype=np.int64)
    first = k * n_out // n_in
    straddle = ((k + 1) * n_out - 1) // n_in - first
    head = np.minimum((k + 1) * n_out, (first + 1) * n_in) - k * n_out
    denominator = n_out // np.gcd(head, n_out)
    if straddle.max() > 1 or np.any(denominator & (denominator - 1)):
        return k, k
    _, cells, classes = np.unique(2 * first + straddle, return_index=True, return_inverse=True)
    return classes, k[cells]


# A window range is built at most this many bins or output values at a
# time (2 MB of int64 counts), however many windows it spans.  Pool
# threads keep what they free for reuse, so larger steps add their
# temporaries to the peak RSS once per thread.
_CHUNK_BINS = 2**18

# One window's histogram or output, and each weight table, may hold at most
# this many values; a 2-channel native 2048 x 2048 frame takes half of it.
_WINDOW_BINS = 2**24


@lru_cache(maxsize=8)
def _geometry(height: int, width: int, spec: FrameSpec):
    """Index tables and weights that take a sensor's events to frame pixels.

    An event at (x, y) counts in bin ``rows[y] + cols[x]`` of an
    (n_rows, n_cols) class grid, and the frame is
    ``row_weights @ grid @ col_weights.T``, where a None weight is the
    identity: an axis kept at its native size, or one whose native size
    is a whole multiple of ``out_size`` (320 -> 64 is exactly 5:1), whose
    classes are then the output cells themselves, each of weight 1.
    Binary frames mark native pixels, so they keep one class per pixel.
    Last comes the larger of a window's bins and output values.
    A geometry past ``_WINDOW_BINS`` is a ``FormatError`` naming the frame
    config and the declared sensor size, raised before any table is built.
    """
    out_size = spec.out_size

    def axis(n_in):  # each cell's class, and each class's first cell (None: no table)
        k = np.arange(n_in, dtype=np.int64)
        if out_size is None or out_size == n_in:
            return k, None
        if spec.mode == "binary":
            return k, k
        if n_in % out_size == 0:  # each output cell sums n_in // out_size whole cells
            return k // (n_in // out_size), None
        return _axis_classes(n_in, out_size)

    (rows, row_cells), (cols, col_cells) = axis(height), axis(width)
    shape = (int(rows.max()) + 1, int(cols.max()) + 1)
    bins = spec.channels * shape[0] * shape[1]
    values = math.prod(spec.frame_shape(height, width))
    entries = max((out_size * len(c) for c in (row_cells, col_cells) if c is not None), default=0)
    for size, what in (
        (bins, "histogram bins per window"),
        (values, "output values per window"),
        (entries, "entries in one weight table"),
    ):
        if size > _WINDOW_BINS:
            raise FormatError(
                f"frame.mode {spec.mode!r} at frame.out_size {out_size} needs {size} {what} "
                f"for the declared {width}x{height} sensor, more than {_WINDOW_BINS}"
            )

    row_weights = None if row_cells is None else _box_matrix(height, out_size, row_cells)
    col_weights = None if col_cells is None else _box_matrix(width, out_size, col_cells)
    rows = rows * shape[1]
    for table in (rows, cols, row_weights, col_weights):
        if table is not None:
            table.setflags(write=False)  # shared by every caller of the cache
    return rows, cols, shape, row_weights, col_weights, max(bins, values)


def _frames(stream: EventStream, spec: FrameSpec, t0_us: int, n: int) -> np.ndarray:
    """Frames of the n windows [t0 + j T, t0 + (j + 1) T), T = window_us.

    One integer ``bincount`` over (window, channel, row class, column
    class), one float64 product with the class weights, one float32 cast
    and a per-frame normalize.  Where ``_axis_classes`` merges cells, the
    cost follows the events and the output size, not the sensor size.
    """
    t = stream.t_us
    i0 = int(np.searchsorted(t, t0_us, side="left"))
    i1 = int(np.searchsorted(t, t0_us + n * spec.window_us, side="left"))
    x, y, p = stream.x[i0:i1], stream.y[i0:i1], stream.p[i0:i1]
    rows, cols, shape, row_weights, col_weights, _ = _geometry(stream.height, stream.width, spec)
    plane = shape[0] * shape[1]
    idx = np.take(rows, y)
    idx += np.take(cols, x)
    if spec.mode == "polarity2ch":
        idx += (p < 0) * plane  # negative events land one channel up
    if n > 1:
        idx += (t[i0:i1] - t0_us) // spec.window_us * (spec.channels * plane)
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


def batch_frames(frame_shape: Sequence[int]) -> int:
    """Frames per chunk of ``frame_chunks`` and per inference batch.

    ``clamp(8 MiB // frame_bytes, 1, 16)`` for float32 frames of
    ``frame_shape`` (C, H, W): 16 for a default 2 x 64 x 64 frame
    (32 KiB), 2 for a native 1024 x 1024 count frame.  ``train``'s
    validation, ``evaluate`` and ``predict`` all batch by it.  16 is
    ``TrainConfig.batch_size``'s default, so an inference shard is no
    larger than a train step's.  At 64, each validation pass ran two
    32-frame shards on the pool threads, whose malloc arenas kept the
    freed pages: perfbench ``train`` (seed 1) peaked at 155 MB against
    139 MB at 16.
    Predictions are not batch-invariant for every model config, so a
    recording predicted chunk by chunk equals its frames predicted in
    one call only because both take their size from this one rule.
    """
    # An empty dataset's 0x0x0 frames count as one byte each.
    frame_bytes = max(4 * math.prod(frame_shape), 1)
    return min(max((8 << 20) // frame_bytes, 1), 16)


def _fill_frames(stream: EventStream, spec: FrameSpec, out: np.ndarray, first: int = 0) -> None:
    """Write the frames of windows first, first + 1, ... into the rows of ``out``.

    Built ``_CHUNK_BINS`` values at a time.  A ``build_dataset`` pool job
    and the body of ``frame_chunks``: it calls private helpers only.
    """
    step = max(1, _CHUNK_BINS // _geometry(stream.height, stream.width, spec)[-1])
    for k in range(0, len(out), step):
        n = min(step, len(out) - k)
        out[k : k + n] = _frames(stream, spec, (first + k) * spec.window_us, n)


def frame_chunks(stream: EventStream, spec: FrameSpec) -> Iterator[np.ndarray]:
    """Frames of a recording's full windows, in order, in float32 chunks.

    Window k is [k T, (k + 1) T), T = window_us; a trailing stretch of the
    recording shorter than T is dropped.  A chunk holds ``batch_frames``
    frames (the last one may hold fewer), built ``_CHUNK_BINS`` values at a
    time.  The geometry is checked before the first chunk, even if there is
    none.
    """
    n_windows = stream.duration_us // spec.window_us
    _geometry(stream.height, stream.width, spec)  # an unbounded one fails here
    shape = spec.frame_shape(stream.height, stream.width)
    size = batch_frames(shape)
    for lo in range(0, n_windows, size):
        chunk = np.empty((min(size, n_windows - lo), *shape), dtype=np.float32)
        _fill_frames(stream, spec, chunk, lo)
        yield chunk


class FrameDataset:
    """Labeled frames: one float32 (N, C, H, W) array plus per-frame rows.

    ``windows`` is an (N, 2) int64 array of each frame's [start, end) in
    microseconds, all zero when unknown (a container read without its
    sidecar); ``labels`` are float32 forces and ``provenance`` the
    recording id of each frame.  Construction refuses a broken row: a ``ValueError``.
    """

    def __init__(self, frames, labels, provenance: Sequence[str], windows=None):
        self.frames = np.asarray(frames, dtype=np.float32)
        self.labels = np.asarray(labels, dtype=np.float32)
        if not (isinstance(provenance, (list, tuple))
                and all(isinstance(r, str) for r in provenance)):
            raise ValueError("provenance must be a list or tuple of strings")
        self.provenance = list(provenance)
        if self.frames.ndim != 4:
            raise ValueError("frames must have shape (N, channels, height, width)")
        n = len(self.frames)
        try:
            pairs = np.asarray(np.zeros((n, 2), np.int64) if windows is None else windows)
        except ValueError:  # a ragged list
            pairs = np.asarray(None)
        # Floats, strings and integers past int64 (uint64 or object) are not
        # of kind "i", and numpy reads a bool among integers as 0 or 1.
        if pairs.size and (pairs.dtype.kind != "i" or not isinstance(windows, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(windows, dtype=object).flat)):
            raise ValueError("windows must be a list of [start, end] int64 pairs")
        self.windows = (pairs if pairs.size else pairs.reshape(0, 2)).astype(np.int64, copy=False)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        for field, rows in (("labels", self.labels), ("provenance", self.provenance)):
            if len(rows) != n:
                raise ValueError(f"{field} has {len(rows)} entries for {n} frames")
        if self.windows.shape != (n, 2):
            raise ValueError(f"windows must have shape ({n}, 2), not {self.windows.shape}")
        if np.any(self.windows[:, 1] < self.windows[:, 0]):
            raise ValueError("windows must not end before they start")
        # A sum is finite only if every term is.  A float32 sum may also
        # overflow, so a frame it flags is summed again in float64, which
        # float32 terms cannot overflow: that sum is finite iff every term is.
        with np.errstate(over="ignore", invalid="ignore"):
            frame_ok = np.isfinite(self.frames.sum(axis=(1, 2, 3)))
            flagged = np.flatnonzero(~frame_ok)
            frame_ok[flagged] = np.isfinite(
                self.frames[flagged].sum(axis=(1, 2, 3), dtype=np.float64))
        bad = np.flatnonzero(~(frame_ok & np.isfinite(self.labels)))
        if bad.size:
            what = "label" if frame_ok[bad[0]] else "frame value"
            raise ValueError(f"frame {bad[0]} holds a non-finite {what}")

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

    Each recording is one job on a pool (``synth._run_in_order``) that
    writes its own rows of the one output array.
    """
    if len(recordings) != len(force_tracks):
        raise ValueError("recordings and force_tracks must be equally long")
    if ids is None:
        ids = [f"rec{r:03d}" for r in range(len(recordings))]
    elif len(ids) != len(recordings):
        raise ValueError("ids must match recordings")

    starts: list[int] = []
    counts: list[int] = []
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
        _geometry(stream.height, stream.width, spec)  # an unbounded one fails here
        starts.extend(range(0, n * spec.window_us, spec.window_us))
        counts.append(n)
        provenance.extend([rec_id] * n)
    shapes = {spec.frame_shape(s.height, s.width) for s in recordings}
    if len(shapes) > 1:
        raise ValueError("recordings of different sensor sizes need a frame.out_size")
    shape = shapes.pop() if shapes else (0, 0, 0)
    frames = np.empty((len(starts), *shape), dtype=np.float32)
    rows = np.split(frames, np.cumsum(counts, dtype=np.int64)[:-1])  # views, one per recording
    for _ in _run_in_order((_fill_frames, s, spec, r) for s, r in zip(recordings, rows)):
        pass
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
    frames = dataset.frames if len(dataset) else dataset.frames.reshape(0, 0, 0, 0)
    c, h, w = frames.shape[1:]
    header = _FRD1_HEADER.pack(_FRD1_MAGIC, c, h, w, len(dataset))
    columns = {"frame": frames, "label": dataset.labels}
    _write_records(path, header, _record_dtype(c, h, w), columns)

    manifest = {
        "format": "FRD1-manifest",
        "recordings": sorted(set(dataset.provenance)),
        "provenance": dataset.provenance,
        "windows": dataset.windows.tolist(),
        "frame_spec": None if frame_spec is None else asdict(frame_spec),
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, indent=2) + "\n")


def read_frame_dataset(path) -> FrameDataset:
    """Read an FRD1 container; the sidecar manifest is used when present.

    Damage, and rows that ``FrameDataset`` refuses, are a ``FormatError``
    naming the sidecar (for ``windows`` and ``provenance``) or the container.
    """
    path = Path(path)
    _, columns = _read_records(
        path, _FRD1_HEADER, _FRD1_MAGIC, _record_dtype, {"frame": np.float32, "label": np.float32}
    )
    manifest = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        try:
            manifest = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise FormatError(f"{sidecar}: corrupt sidecar manifest") from exc
        if not isinstance(manifest, dict):
            raise FormatError(f"{sidecar}: sidecar manifest must be a JSON object")
        if manifest.get("windows", []) is None:  # a null is not an absent field
            raise FormatError(f"{sidecar}: windows must be a list of [start, end] int64 pairs")
    provenance = manifest.get("provenance", [""] * len(columns["label"]))
    try:
        return FrameDataset(*columns.values(), provenance, manifest.get("windows"))
    except ValueError as exc:
        named = sidecar if str(exc).split()[0] in ("windows", "provenance") else path
        raise FormatError(f"{named}: {exc}") from exc
