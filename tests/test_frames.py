"""Frame accumulation, mass-preserving resize, windowing, and FRD1 files."""

import hashlib
import inspect
import json
import struct
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtforce import events, frames, synth
from evtforce.events import (
    EventStream,
    FormatError,
    read_events,
    slice_window,
    write_events,
)
from evtforce.frames import (
    MODES,
    FrameDataset,
    FrameSpec,
    accumulate_frame,
    build_dataset,
    batch_frames,
    frame_chunks,
    read_frame_dataset,
    write_frame_dataset,
    _CHUNK_BINS,
    _axis_classes,
    _box_matrix,
    _frames,
    _geometry,
)
from evtforce.synth import GripperScene, make_grasp_profile, synthesize_recording

from conftest import all_frames, make_stream, traced_memory


@dataclass
class FakeTrack:
    rate_hz: float
    samples: tuple

    @property
    def period_us(self) -> int:
        return round(1e6 / self.rate_hz)


def native_spec(mode, normalize=False):
    return FrameSpec(window_us=100_000, mode=mode, out_size=None, normalize=normalize)


# Three events at pixel (x=1, y=2): two brightening, one dimming.
def three_event_stream():
    return EventStream(4, 4, t_us=[0, 10, 20], x=[1, 1, 1], y=[2, 2, 2], p=[1, 1, -1])


class TestFrameSpec:
    def test_defaults(self):
        spec = FrameSpec()
        assert (spec.window_us, spec.mode, spec.out_size, spec.normalize) == (
            100_000,
            "polarity2ch",
            64,
            True,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"window_us": 0}, {"mode": "rgb"}, {"out_size": 0}, {"out_size": -3}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FrameSpec(**kwargs)

    def test_channels(self):
        assert FrameSpec(mode="binary").channels == 1
        assert FrameSpec(mode="count").channels == 1
        assert FrameSpec(mode="polarity2ch").channels == 2


class TestAccumulate:
    def test_count_mode(self):
        f = accumulate_frame(three_event_stream(), native_spec("count"), 0)
        assert f.shape == (1, 4, 4)
        assert f.dtype == np.float32
        assert f[0, 2, 1] == 3.0
        assert f.sum() == 3.0

    def test_data_attribute_is_the_frame(self):
        f = accumulate_frame(three_event_stream(), native_spec("polarity2ch"), 0)
        assert type(f.data) is np.ndarray
        assert np.array_equal(f.data[None][0], f)

    def test_binary_mode(self):
        f = accumulate_frame(three_event_stream(), native_spec("binary"), 0)
        assert f[0, 2, 1] == 1.0
        assert f.sum() == 1.0

    def test_polarity_mode_splits_by_sign(self):
        f = accumulate_frame(three_event_stream(), native_spec("polarity2ch"), 0)
        assert f.shape == (2, 4, 4)
        assert f[0, 2, 1] == 2.0
        assert f[1, 2, 1] == 1.0

    def test_count_totals_match_event_count(self, rng):
        for _ in range(10):
            s = make_stream(rng, n=int(rng.integers(0, 500)), t_max=100_000)
            f = accumulate_frame(s, native_spec("count"), 0)
            assert f.sum() == len(s)
            assert np.all(f >= 0)
            assert np.array_equal(f, np.round(f))

    def test_binary_is_count_indicator(self, rng):
        s = make_stream(rng, n=300, t_max=100_000)
        count = accumulate_frame(s, native_spec("count"), 0)
        binary = accumulate_frame(s, native_spec("binary"), 0)
        assert np.array_equal(binary, (count > 0).astype(np.float32))

    def test_polarity_channels_sum_to_count(self, rng):
        s = make_stream(rng, n=300, t_max=100_000)
        count = accumulate_frame(s, native_spec("count"), 0)
        pol = accumulate_frame(s, native_spec("polarity2ch"), 0)
        assert np.array_equal(pol[0] + pol[1], count[0])

    def test_normalized_peak_is_one(self, rng):
        s = make_stream(rng, n=300, t_max=100_000)
        f = accumulate_frame(s, native_spec("count", normalize=True), 0)
        assert f.max() == 1.0

    def test_empty_window_stays_zero(self):
        s = EventStream(4, 4)
        f = accumulate_frame(s, FrameSpec(mode="count", out_size=8, normalize=True), 0)
        assert f.shape == (1, 8, 8)
        assert not f.any()

    def test_resize_applied_when_out_size_set(self, rng):
        s = make_stream(rng, n=300)
        f = accumulate_frame(s, FrameSpec(mode="polarity2ch", out_size=16, normalize=False), 0)
        assert f.shape == (2, 16, 16)

    def test_only_the_window_from_t0_is_counted(self):
        # Half-open [t0, t0 + window): t = 100 and t = 199 count, t = 99
        # and t = 200 belong to the neighbouring windows.
        s = EventStream(4, 4, t_us=[0, 99, 100, 150, 199, 200], x=[0, 1, 2, 3, 0, 1],
                        y=[0, 0, 1, 1, 2, 2], p=[1, -1, 1, -1, 1, 1])
        spec = FrameSpec(window_us=100, mode="count", out_size=None, normalize=False)
        f = accumulate_frame(s, spec, 100)
        assert f.sum() == 3.0
        assert f[0, [1, 1, 2], [2, 3, 0]].tolist() == [1.0, 1.0, 1.0]
        assert accumulate_frame(s, spec, 300).sum() == 0.0


def _box_resize(data: np.ndarray, out_size: int) -> np.ndarray:
    """Box-resample a (C, H, W) frame to out_size x out_size, preserving mass."""
    rows = _box_matrix(data.shape[1], out_size)
    cols = _box_matrix(data.shape[2], out_size)
    out = rows @ data.astype(np.float64) @ cols.T
    return out.astype(np.float32)


def two_bincount_accumulate(events, spec):
    """The earlier accumulate_frame: masks and one bincount per polarity.

    Counts every event of ``events``, which must be sliced to the window.
    """
    h, w = events.height, events.width
    lin = events.y.astype(np.int64) * w + events.x.astype(np.int64)
    if spec.mode == "polarity2ch":
        pos = np.bincount(lin[events.p > 0], minlength=h * w)
        neg = np.bincount(lin[events.p < 0], minlength=h * w)
        data = np.stack([pos, neg]).reshape(2, h, w).astype(np.float32)
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
    return data


class TestAccumulateMatchesTwoBincounts:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 48),
        height=st.integers(1, 40),
        n_events=st.sampled_from([0, 1, 7, 300, 20_000]),
        polarities=st.sampled_from([(-1, 1), (1,), (-1,)]),
        mode=st.sampled_from(MODES),
        out_size=st.sampled_from([None, 64, 7]),
        normalize=st.booleans(),
    )
    def test_exactly_equal(
        self, seed, width, height, n_events, polarities, mode, out_size, normalize
    ):
        # 20k events on at most 48 x 40 pixels is a noisy window: most
        # pixels fire many times.
        rng = np.random.default_rng(seed)
        stream = EventStream(
            width,
            height,
            t_us=np.full(n_events, 200_000, dtype=np.int64),
            x=rng.integers(0, width, n_events),
            y=rng.integers(0, height, n_events),
            p=rng.choice(np.array(polarities), n_events),
        )
        spec = FrameSpec(mode=mode, out_size=out_size, normalize=normalize)
        got = accumulate_frame(stream, spec, 200_000)
        want = two_bincount_accumulate(stream, spec)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", MODES)
    def test_pixel_below_the_sensor_is_an_error(self, mode):
        # Refused when the stream is built, before any frame.
        with pytest.raises(ValueError, match="'y out of range' at index 1"):
            accumulate_frame(EventStream(4, 4, t_us=[0, 1], x=[1, 0], y=[2, 4], p=[1, 1]),
                             native_spec(mode), 0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "x, y",
        [(-1, 1), (5, 1), (1, -1), (1, 4), (-(2**31), 0), (0, 2**31 - 1)],
        ids=["left", "right", "top", "bottom", "int32-min-x", "int32-max-y"],
    )
    def test_event_outside_the_sensor_is_rejected(self, mode, x, y):
        # 5 wide by 4 high: x = 5 would otherwise wrap into the next row
        # and x = -1 into the previous one.  The stream refuses it, so no
        # frame is built.
        with pytest.raises(ValueError, match="[xy] out of range' at index 1"):
            accumulate_frame(EventStream(5, 4, t_us=[0, 1], x=[2, x], y=[1, y], p=[1, -1]),
                             native_spec(mode), 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_sensor_corners_are_inside(self, mode):
        stream = EventStream(5, 4, t_us=[0, 1, 2, 3], x=[0, 4, 0, 4], y=[0, 0, 3, 3],
                             p=[1, 1, 1, 1])
        frame = accumulate_frame(stream, native_spec(mode), 0)
        assert frame.sum() == 4
        assert frame[0, [0, 0, 3, 3], [0, 4, 0, 4]].tolist() == [1, 1, 1, 1]


class TestBoxResize:
    def test_two_by_two_ones_collapse_to_four(self):
        out = _box_resize(np.ones((1, 2, 2), dtype=np.float32), 1)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 4.0

    def test_uniform_downsample_by_integer_factor(self):
        out = _box_resize(np.ones((1, 4, 4), dtype=np.float32), 2)
        assert np.array_equal(out, np.full((1, 2, 2), 4.0, dtype=np.float32))

    def test_mass_preserved_sensor_to_model_size(self, rng):
        data = rng.random((2, 240, 320)).astype(np.float32) * 10
        out = _box_resize(data, 64)
        for c in range(2):
            before = float(data[c].astype(np.float64).sum())
            after = float(out[c].astype(np.float64).sum())
            assert abs(after - before) <= 1e-6 * before

    def test_mass_preserved_upsample(self, rng):
        data = rng.random((1, 3, 5)).astype(np.float32)
        out = _box_resize(data, 7)
        assert out.shape == (1, 7, 7)
        assert abs(out.sum() - data.sum()) <= 1e-6 * data.sum()

    def test_nonnegative_preserved(self, rng):
        data = rng.random((1, 17, 31)).astype(np.float32)
        out = _box_resize(data, 64)
        assert np.all(out >= 0)


class TestClassHistogram:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 400),
        height=st.integers(1, 400),
        n_events=st.sampled_from([0, 1, 50, 3000]),
        n_windows=st.integers(1, 6),
        mode=st.sampled_from(MODES),
        out_size=st.sampled_from([None, 7, 8, 16, 32, 64]),
        normalize=st.booleans(),
        start=st.integers(0, 8),
        length=st.none() | st.integers(0, 8),
    )
    def test_window_range_equals_dense_frames(
        self, seed, width, height, n_events, n_windows, mode, out_size, normalize, start, length
    ):
        # Each window against a dense per-pixel bincount plus the
        # ``_box_matrix`` product.  A range of ``length`` windows from
        # ``start`` may run past the recording's last full window; without a
        # length, the windows from ``start`` on come through
        # ``frame_chunks``, which drops a cut last window.
        rng = np.random.default_rng(seed)
        stream = EventStream(
            width,
            height,
            t_us=np.sort(rng.integers(0, n_windows * 100 + 50, n_events)),
            x=rng.integers(0, width, n_events),
            y=rng.integers(0, height, n_events),
            p=rng.choice(np.array([-1, 1]), n_events),
        )
        spec = FrameSpec(window_us=100, mode=mode, out_size=out_size, normalize=normalize)
        if length is None:
            got = all_frames(stream, spec)[start:]
            ks = range(start, stream.duration_us // 100)
        else:
            got = _frames(stream, spec, start * 100, length)
            ks = range(start, start + length)
        want = np.zeros((0, *spec.frame_shape(height, width)), dtype=np.float32)
        if len(ks):
            want = np.stack([
                two_bincount_accumulate(slice_window(stream, k * 100, (k + 1) * 100), spec)
                for k in ks
            ])
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_a_range_is_built_in_chunks_of_windows(self, rng):
        # A native window of this sensor would hold 2 * 65535**2 counts;
        # its class histogram holds at most 2 * 127**2, and the 99 windows
        # take more than one chunk of bins.
        s = make_stream(rng, n=3000, width=65535, height=65535, t_max=1_000_000)
        spec = FrameSpec(window_us=10_000, mode="polarity2ch", out_size=64)
        frames = all_frames(s, spec)
        assert frames.shape == (99, 2, 64, 64)
        for k in (0, 50, 98):
            assert np.array_equal(frames[k], accumulate_frame(s, spec, k * 10_000))
        assert 99 * 2 * 127**2 > _CHUNK_BINS

    @pytest.mark.parametrize(
        "mode, out_size, height, width, refused",
        [
            ("polarity2ch", None, 2048, 2048, False),
            ("count", None, 4096, 4096, False),
            ("count", None, 4096, 4097, True),
            ("binary", 16, 4097, 4096, True),
            ("count", 7, 4097, 4096, True),
            # Dyadic classes: at most 2 * (2 * 16 - 1)**2 bins, whatever the sensor.
            ("polarity2ch", 16, 65535, 65535, False),
            # An upsampled frame is bounded by its output values: 2 * 2048**2
            # fit, 2 * 4096**2 do not.
            ("polarity2ch", 2048, 60, 80, False),
            ("polarity2ch", 4096, 60, 80, True),
            ("count", 100_000, 60, 80, True),
        ],
    )
    def test_window_bins_are_bounded(self, mode, out_size, height, width, refused):
        s = EventStream(width, height, t_us=[5], x=[width - 1], y=[height - 1], p=[-1])
        spec = FrameSpec(window_us=10, mode=mode, out_size=out_size)
        # No full window: only the geometry is checked, no histogram built.
        if refused:
            with pytest.raises(FormatError, match=f"declared {width}x{height} sensor"):
                list(frame_chunks(s, spec))
            with pytest.raises(FormatError, match=f"frame.mode '{mode}'"):
                accumulate_frame(s, spec, 0)
        else:
            assert list(frame_chunks(s, spec)) == []

    @settings(max_examples=200, deadline=None)
    @given(n_in=st.integers(1, 5000), n_out=st.integers(1, 128))
    def test_classes_carry_the_box_weights(self, n_in, n_out):
        classes, cells = _axis_classes(n_in, n_out)
        weights = _box_matrix(n_in, n_out, cells)
        assert np.array_equal(weights[:, classes], _box_matrix(n_in, n_out))
        if n_out & (n_out - 1) == 0:
            assert weights.shape[1] <= 2 * n_out - 1

    @pytest.mark.parametrize("n_out", [16, 64])
    def test_class_count_does_not_follow_the_sensor_size(self, n_out):
        classes, cells = _axis_classes(65535, n_out)
        assert classes.shape == (65535,)
        assert cells.shape == (classes.max() + 1,)
        assert len(cells) <= 2 * n_out - 1

    def test_non_dyadic_weights_keep_one_class_per_cell(self):
        # 30 -> 7 splits cells into sevenths, whose sums round by order;
        # 14 -> 7 splits none, so its classes merge with weight 1.
        classes, cells = _axis_classes(30, 7)
        assert np.array_equal(classes, np.arange(30))
        assert np.array_equal(cells, np.arange(30))
        classes, cells = _axis_classes(14, 7)
        assert np.array_equal(classes, np.arange(14) // 2)
        assert np.array_equal(_box_matrix(14, 7, cells), np.eye(7))

    def test_box_weights_are_integer_overlaps(self):
        # Computed in floating point, 98 -> 8 leaked about 1e-14 of a
        # cell's mass into an output cell it does not overlap.
        m = _box_matrix(98, 8)
        assert np.array_equal(m * 8, np.round(m * 8))
        assert np.array_equal(m.sum(axis=0), np.ones(98))
        assert ((m > 0).sum(axis=0) <= 2).all()


class TestIdentityWeights:
    """A weight table equal to the identity is dropped (None)."""

    def test_default_geometry_drops_the_column_table(self):
        # 320 -> 64 columns is exactly 5:1; 240 -> 64 rows is 3.75:1.
        _, _, shape, row_weights, col_weights, _ = _geometry(240, 320, FrameSpec())
        assert shape == (112, 64)
        assert col_weights is None
        assert row_weights.shape == (64, 112)

    def test_small_sensor_drops_the_column_table(self):
        _, _, _, row_weights, col_weights, _ = _geometry(60, 80, FrameSpec(out_size=16))
        assert col_weights is None and row_weights is not None

    def test_whole_ratio_on_both_axes_needs_no_table(self, rng):
        rows, cols, shape, row_weights, col_weights, _ = _geometry(128, 128, FrameSpec())
        assert row_weights is None and col_weights is None
        assert shape == (64, 64)
        assert np.array_equal(rows, np.arange(128) // 2 * 64)
        assert np.array_equal(cols, np.arange(128) // 2)
        s = make_stream(rng, n=20_000, width=128, height=128, t_max=300)
        spec = FrameSpec(window_us=100, normalize=False)
        got = _frames(s, spec, 0, 3)
        for k in range(3):
            want = two_bincount_accumulate(slice_window(s, k * 100, (k + 1) * 100), spec)
            assert np.array_equal(got[k], want), k

    def test_binary_keeps_one_class_per_pixel(self):
        # Binary marks native pixels, so 320 -> 64 keeps every column a class.
        _, cols, shape, _, col_weights, _ = _geometry(240, 320, FrameSpec(mode="binary"))
        assert shape == (240, 320)
        assert np.array_equal(cols, np.arange(320))
        assert col_weights.shape == (64, 320)
        assert np.array_equal(col_weights, _box_matrix(320, 64))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_window_range_equals_dense_frames(self, rng, normalize):
        # Many events per pixel, over five windows of the default geometry.
        n = 200_000
        s = EventStream(320, 240, t_us=np.sort(rng.integers(0, 500, n)),
                        x=rng.integers(0, 320, n), y=rng.integers(0, 240, n),
                        p=rng.choice([-1, 1], n))
        spec = FrameSpec(window_us=100, normalize=normalize)
        got = _frames(s, spec, 0, 5)
        for k in range(5):
            want = two_bincount_accumulate(slice_window(s, k * 100, (k + 1) * 100), spec)
            assert np.array_equal(got[k], want), k


class TestWindowing:
    def test_half_open_assignment(self):
        # duration 250 -> two full 100 us windows; t=100 belongs to the
        # second, t=249 falls in the dropped partial tail.
        s = EventStream(4, 4, t_us=[0, 100, 199, 249], x=[0, 1, 2, 3],
                        y=[0, 0, 0, 0], p=[1, 1, 1, 1])
        spec = FrameSpec(window_us=100, mode="count", out_size=None, normalize=False)
        frames = all_frames(s, spec)
        assert frames.shape == (2, 1, 4, 4)
        assert frames.sum(axis=(1, 2, 3)).tolist() == [1.0, 2.0]

    def test_duration_exactly_k_windows(self):
        s = EventStream(4, 4, t_us=[199], x=[0], y=[0], p=[1])
        spec = FrameSpec(window_us=100, mode="count", out_size=None, normalize=False)
        assert len(all_frames(s, spec)) == 2

    def test_empty_stream_no_frames(self):
        assert list(frame_chunks(EventStream(4, 4), FrameSpec())) == []
        native = FrameSpec(mode="count", out_size=None)
        assert list(frame_chunks(EventStream(5, 4), native)) == []
        assert all_frames(EventStream(5, 4), native).shape == (0, 1, 4, 5)

    def test_window_range_is_a_slice_of_every_window(self, rng):
        s = make_stream(rng, n=400, t_max=1_000_000)
        spec = FrameSpec(window_us=100_000, mode="count", out_size=None, normalize=False)
        every = all_frames(s, spec)
        assert len(every) == 9
        for start, n in [(0, 9), (2, 3), (7, 2), (8, 1), (9, 0)]:
            part = _frames(s, spec, start * spec.window_us, n)
            assert part.shape == (n, *every.shape[1:])
            assert np.array_equal(part, every[start : start + n]), (start, n)

    def test_chunks_concatenate_to_every_window(self, rng):
        # 600 windows: nine full chunks and a short last one, each equal to
        # the frames of its own windows.
        s = make_stream(rng, n=3000, t_max=600_000)
        spec = FrameSpec(window_us=1000, mode="polarity2ch", out_size=16)
        chunks = list(frame_chunks(s, spec))
        assert batch_frames((2, 16, 16)) == 64
        assert [len(c) for c in chunks] == [64] * 9 + [s.duration_us // 1000 - 576]
        assert all(c.dtype == np.float32 and c.shape[1:] == (2, 16, 16) for c in chunks)
        every = np.concatenate(chunks)
        assert np.array_equal(every, _frames(s, spec, 0, len(every)))
        for k in (0, 63, 64, len(every) - 1):
            assert np.array_equal(every[k], accumulate_frame(s, spec, k * 1000))

    @pytest.mark.parametrize(
        "shape, frames",
        [((2, 64, 64), 64), ((2, 16, 16), 64), ((1, 128, 128), 64), ((1, 1024, 1024), 2),
         ((2, 1024, 1024), 1), ((2, 4096, 4096), 1), ((0, 64, 64), 64)],
    )
    def test_batch_is_sized_by_bytes(self, shape, frames):
        # 8 MiB of float32 frames, at least one and at most 64.
        assert batch_frames(shape) == frames

    def test_chunks_of_large_frames_stay_small(self, rng):
        # 1024 x 1024 count frames are 4 MiB each, so a chunk holds two.
        s = make_stream(rng, n=50, t_max=4999, width=1024, height=1024)
        s = EventStream(1024, 1024, np.append(s.t_us, 4999), *(np.append(c, 1) for c in (s.x, s.y, s.p)))
        spec = FrameSpec(window_us=1000, mode="count", out_size=None, normalize=False)
        chunks = list(frame_chunks(s, spec))
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert np.array_equal(np.concatenate(chunks), _frames(s, spec, 0, 5))

    def test_events_conserved_across_windows(self, rng):
        s = make_stream(rng, n=400, t_max=1_000_000)
        spec = FrameSpec(window_us=100_000, mode="count", out_size=None, normalize=False)
        frames = all_frames(s, spec)
        total = float(frames.sum())
        in_range = int(np.sum(s.t_us < len(frames) * spec.window_us))
        assert total == in_range


class TestBuildDataset:
    def make_recording(self, rng, n_windows, width=16, height=12):
        # Last event pinned to n_windows * window - 1 so the duration is exact.
        t = np.sort(rng.integers(0, n_windows * 100_000 - 1, size=60))
        t[-1] = n_windows * 100_000 - 1
        return EventStream(
            width,
            height,
            t_us=t,
            x=rng.integers(0, width, size=60),
            y=rng.integers(0, height, size=60),
            p=rng.choice([-1, 1], size=60),
        )

    def test_labels_align_with_windows(self, rng):
        rec = self.make_recording(rng, 10)
        track = FakeTrack(10.0, tuple(np.linspace(0.0, 1.6, 10)))
        spec = FrameSpec(window_us=100_000, mode="count", out_size=8, normalize=True)
        ds = build_dataset([rec], [track], spec)
        assert len(ds) == 10
        assert ds.frames.shape == (10, 1, 8, 8)
        assert np.allclose(ds.labels, np.linspace(0.0, 1.6, 10), atol=1e-7)
        assert ds.provenance == ["rec000"] * 10
        assert ds.windows.dtype == np.int64
        assert ds.windows.tolist() == [[k * 100_000, (k + 1) * 100_000] for k in range(10)]

    def test_multiple_recordings_and_custom_ids(self, rng):
        recs = [self.make_recording(rng, 3), self.make_recording(rng, 2)]
        tracks = [FakeTrack(10.0, (0.0, 0.5, 1.0)), FakeTrack(10.0, (0.2, 0.4))]
        spec = FrameSpec(window_us=100_000, mode="count", out_size=8, normalize=True)
        ds = build_dataset(recs, tracks, spec, ids=["a", "b"])
        assert ds.provenance == ["a", "a", "a", "b", "b"]
        assert ds.windows[:, 0].tolist() == [0, 100_000, 200_000, 0, 100_000]
        for k, (rec, start) in enumerate(zip([0, 0, 0, 1, 1], ds.windows[:, 0])):
            assert np.array_equal(ds.frames[k], accumulate_frame(recs[rec], spec, start))

    def test_mixed_sensor_sizes_need_a_resize(self, rng):
        recs = [self.make_recording(rng, 2), self.make_recording(rng, 2, width=8, height=8)]
        tracks = [FakeTrack(10.0, (0.0, 0.5))] * 2
        native = FrameSpec(window_us=100_000, mode="count", out_size=None)
        with pytest.raises(ValueError):
            build_dataset(recs, tracks, native)
        assert len(build_dataset(recs, tracks, FrameSpec(out_size=8))) == 4

    def test_track_shorter_than_recording(self, rng):
        rec = self.make_recording(rng, 5)
        track = FakeTrack(10.0, (0.0, 0.1, 0.2))
        with pytest.raises(ValueError, match="3 samples"):
            build_dataset([rec], [track], FrameSpec(out_size=8))

    def test_track_longer_is_fine(self, rng):
        rec = self.make_recording(rng, 2)
        track = FakeTrack(10.0, (0.0, 0.1, 0.2, 0.3))
        assert len(build_dataset([rec], [track], FrameSpec(out_size=8))) == 2

    def test_samples_are_counted_before_windowing(self):
        # A last event at 10**15 us would need 10**10 frames; the short
        # track is reported without building any of them.
        rec = EventStream(8, 8, t_us=[0, 10**15], x=[0, 1], y=[0, 1], p=[1, -1])
        track = FakeTrack(10.0, (0.0, 0.1))
        with pytest.raises(ValueError, match="windows into 10000000000 frames"):
            build_dataset([rec], [track], FrameSpec(out_size=None))

    def test_rate_must_match_window(self, rng):
        rec = self.make_recording(rng, 2)
        track = FakeTrack(20.0, (0.0, 0.1))
        with pytest.raises(ValueError, match="period"):
            build_dataset([rec], [track], FrameSpec(window_us=100_000))

    def test_label_range_enforced(self, rng):
        rec = self.make_recording(rng, 2)
        track = FakeTrack(10.0, (0.0, 2.0))
        with pytest.raises(ValueError, match="outside"):
            build_dataset([rec], [track], FrameSpec(out_size=8))
        ds = build_dataset([rec], [track], FrameSpec(out_size=8), force_range=(0.0, 2.0))
        assert len(ds) == 2

    def test_output_is_allocated_once(self):
        # 20,000 windows of a 320 x 240 stream at out_size 16: the frames
        # are filled chunk by chunk into one array, not built per recording
        # and then concatenated (a second copy).
        n = 20_000
        rng = np.random.default_rng(0)
        t = np.sort(rng.integers(0, n * 1000, size=10 * n))
        t[-1] = n * 1000 - 1
        s = EventStream(320, 240, t_us=t, x=rng.integers(0, 320, size=t.size),
                        y=rng.integers(0, 240, size=t.size), p=rng.choice([-1, 1], size=t.size))
        track = FakeTrack(1000.0, (0.0,) * n)
        spec = FrameSpec(window_us=1000, out_size=16)
        ds, _, peak = traced_memory(build_dataset, [s], [track], spec)
        assert ds.frames.shape == (n, 2, 16, 16)
        assert peak <= 1.5 * ds.frames.nbytes, peak / ds.frames.nbytes

    def test_zero_duration_recording_contributes_nothing(self):
        ds = build_dataset([EventStream(8, 8)], [FakeTrack(10.0, ())], FrameSpec())
        assert len(ds) == 0
        assert ds.frames.shape == (0, 2, 64, 64)
        assert ds.windows.shape == (0, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_dataset([EventStream(8, 8)], [], FrameSpec())


def pool_recordings():
    """Recordings of 3, 0, 5, 1 and 4 windows on an 80 x 60 sensor, and their tracks.

    The one of 0 windows is shorter than a window; the last is noisy.
    """
    scene = GripperScene(width=80, height=60)
    recordings, tracks = [], []
    for k, (n, noise) in enumerate([(3, 0.0), (0, 0.0), (5, 0.0), (1, 0.0), (4, 5e4)]):
        if n == 0:
            recordings.append(EventStream(80, 60, t_us=[5, 90_000], x=[1, 2], y=[3, 4], p=[1, -1]))
            tracks.append(FakeTrack(10.0, (0.0,)))
            continue
        profile = make_grasp_profile(n + 1, scene.f_max_n, seed=k)
        recordings.append(synthesize_recording(scene, profile, 2, noise, seed=k)[0])
        tracks.append(profile)
    return recordings, tracks


class TestConvertPool:
    """Each recording is one job on a pool whose size changes no byte."""

    spec = FrameSpec(out_size=16)

    def test_worker_count_changes_no_byte(self, monkeypatch):
        # More workers than cores and a short switch interval shuffle the
        # order in which jobs run and finish.
        recordings, tracks = pool_recordings()
        datasets = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 5):
                monkeypatch.setattr(synth, "_WORKERS", workers)
                datasets.append(build_dataset(recordings, tracks, self.spec))
        finally:
            sys.setswitchinterval(interval)
        assert len(datasets[0]) == 13 and datasets[0] == datasets[1]
        assert datasets[0].frames.tobytes() == datasets[1].frames.tobytes()
        k = 0
        for stream, n in zip(recordings, (3, 0, 5, 1, 4)):
            for j in range(n):
                want = accumulate_frame(stream, self.spec, j * 100_000)
                assert np.array_equal(datasets[1].frames[k], want)
                k += 1

    def test_jobs_see_the_callers_errstate(self, monkeypatch):
        seen = []
        fill_frames = frames._fill_frames

        def spy(*args):
            seen.append(np.geterr()["divide"])
            return fill_frames(*args)

        monkeypatch.setattr(frames, "_fill_frames", spy)
        monkeypatch.setattr(synth, "_WORKERS", 2)
        recordings, tracks = pool_recordings()
        with np.errstate(divide="ignore"):
            build_dataset(recordings, tracks, self.spec)
        assert len(seen) == 5 and set(seen) == {"ignore"}

    def test_public_functions_run_on_the_main_thread(self, monkeypatch):
        # A tracer that wraps the public functions keeps one span stack,
        # which is not thread-safe.
        threads = []

        def on_main(name, fn):
            def wrapper(*args, **kwargs):
                threads.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in list(vars(frames).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                monkeypatch.setattr(frames, name, on_main(name, fn))
        monkeypatch.setattr(synth, "_WORKERS", 4)
        recordings, tracks = pool_recordings()
        frames.build_dataset(recordings, tracks, self.spec)
        assert "build_dataset" in {name for name, _ in threads}
        assert {thread for _, thread in threads} == {threading.main_thread()}

    def test_the_earlier_recordings_error_is_raised(self, monkeypatch):
        # Recording 4 fails at once, recording 2 only after a wait; the
        # error of the earlier recording is the one raised.
        recordings, tracks = pool_recordings()
        fill_frames = frames._fill_frames

        def failing(stream, *args):
            if stream is recordings[2]:
                time.sleep(0.2)
                raise ValueError("recording 2 fails")
            if stream is recordings[4]:
                raise ValueError("recording 4 fails")
            return fill_frames(stream, *args)

        monkeypatch.setattr(frames, "_fill_frames", failing)
        monkeypatch.setattr(synth, "_WORKERS", 3)
        before = threading.active_count()
        with pytest.raises(ValueError, match="recording 2 fails"):
            build_dataset(recordings, tracks, self.spec)
        assert threading.active_count() == before


class TestFrameDataset:
    def make_dataset(self, rng, n=6, shape=(2, 8, 8)):
        frames = rng.random((n, *shape)).astype(np.float32)
        windows = [[k * 10, (k + 1) * 10] for k in range(n)]
        labels = rng.random(n).astype(np.float32)
        return FrameDataset(frames, labels, [f"rec{k % 2}" for k in range(n)], windows)

    def test_arrays(self, rng):
        ds = self.make_dataset(rng)
        assert ds.frames.shape == (6, 2, 8, 8)
        assert ds.frames.dtype == np.float32
        assert ds.windows.shape == (6, 2) and ds.windows.dtype == np.int64

    def test_windows_default_to_zero(self):
        ds = FrameDataset(np.ones((2, 1, 2, 2)), [0.1, 0.2], ["a", "a"])
        assert ds.frames.dtype == np.float32
        assert ds.windows.tolist() == [[0, 0], [0, 0]]

    def test_subset(self, rng):
        ds = self.make_dataset(rng)
        sub = ds.subset([4, 1])
        assert np.array_equal(sub.frames, ds.frames[[4, 1]])
        assert sub.windows.tolist() == [[40, 50], [10, 20]]
        assert list(sub.labels) == [ds.labels[4], ds.labels[1]]
        assert sub.provenance == [ds.provenance[4], ds.provenance[1]]

    def test_equality_compares_every_array(self, rng):
        ds = self.make_dataset(rng)
        assert ds == ds.subset(range(6))
        assert ds != ds.subset(range(5))
        frames = ds.frames.copy()
        frames[3, 1, 2, 2] += 1.0
        assert ds != FrameDataset(frames, ds.labels, ds.provenance, ds.windows)
        windows = ds.windows.copy()
        windows[5] = [50, 70]
        assert ds != FrameDataset(ds.frames, ds.labels, ds.provenance, windows)

    @pytest.mark.parametrize(
        "frames,labels,provenance,windows",
        [
            (np.zeros((1, 2, 2)), [0.1], ["a"], None),
            (np.zeros((2, 1, 2, 2)), [0.1], ["a"], None),
            (np.zeros((1, 1, 2, 2)), [0.1, 0.2], ["a"], None),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a", "b"], None),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a"], [[0, 1], [1, 2]]),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a"], [0, 1]),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a"], [[2, 1]]),
            (np.array([[[[0.0, 1.0], [np.nan, 0.0]]]]), [0.1], ["a"], None),
            (np.array([[[[0.0, 1.0], [np.inf, 0.0]]]]), [0.1], ["a"], None),
            (np.zeros((2, 1, 2, 2)), [0.1, 0.2], ["a", "a"], [[0.5, 1.7], [2.9, 3.2]]),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a"], np.array([[2**63, 2**63 + 1]], np.uint64)),
            (np.zeros((2, 1, 2, 2)), [0.1, 0.2], [1, 2], None),
            (np.zeros((1, 1, 2, 2)), [0.1], ["a"], [[0, True]]),
        ],
        ids=["3-d", "labels", "labels-long", "provenance", "windows", "flat-windows",
             "window-ends-first", "nan-frame", "inf-frame", "float-windows",
             "uint64-windows", "int-provenance", "bool-windows"],
    )
    def test_malformed_rejected(self, frames, labels, provenance, windows):
        with pytest.raises(ValueError):
            FrameDataset(frames, labels, provenance, windows)

    def test_frames_whose_float32_sum_overflows_are_finite(self):
        # Each frame's values sum past float32's range, to inf or, with
        # both signs, to nan; every value is finite, and no warning is
        # raised, nor for a frame holding both infinities.
        frames = np.full((3, 2, 4, 4), 3e38, np.float32)
        frames[1, 1] = -3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(FrameDataset(frames, np.zeros(3), ["a"] * 3)) == 3
            frames[2, 0, 1, 1], frames[2, 1, 1, 1] = np.inf, -np.inf
            with pytest.raises(ValueError, match="^frame 2 holds a non-finite frame value$"):
                FrameDataset(frames, np.zeros(3), ["a"] * 3)

    def test_nan_labels_rejected(self):
        with pytest.raises(ValueError):
            FrameDataset(np.zeros((1, 1, 2, 2)), [np.nan], ["a"])


class TestFrdContainer:
    def test_round_trip_equal_and_byte_exact(self, tmp_path, rng):
        ds = TestFrameDataset().make_dataset(rng, n=5)
        p1, p2 = tmp_path / "a.frd", tmp_path / "b.frd"
        write_frame_dataset(ds, p1, frame_spec=FrameSpec())
        back = read_frame_dataset(p1)
        assert back == ds
        write_frame_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(width=32), min_size=2, max_size=2),
        window=st.integers(-2**64, 2**64) | st.floats() | st.booleans(),
        name=st.text(max_size=3) | st.integers(),
    )
    def test_every_dataset_that_constructs_reads_back_equal(self, tmp_path_factory, values,
                                                            window, name):
        # Only a valid dataset exists, so whatever constructs is written and
        # read back as the round trip above reads it back.
        rows = np.array([[[[values[0]]]], [[[1.0]]]])
        try:
            ds = FrameDataset(rows, [values[1], 0.5], [name, "b"], [[0, window], [window, window]])
        except ValueError:
            return
        path = tmp_path_factory.getbasetemp() / "constructed.frd"
        write_frame_dataset(ds, path)
        back = read_frame_dataset(path)
        assert back == ds
        write_frame_dataset(back, path.with_name("again.frd"))
        assert path.read_bytes() == path.with_name("again.frd").read_bytes()

    def test_sidecar_holds_windows_and_provenance(self, tmp_path, rng):
        import json

        ds = TestFrameDataset().make_dataset(rng, n=4)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path, frame_spec=FrameSpec(mode="count"))
        manifest = json.loads((tmp_path / "d.frd.json").read_text())
        assert manifest["provenance"] == ds.provenance
        assert manifest["windows"] == [[k * 10, (k + 1) * 10] for k in range(4)]
        assert manifest["frame_spec"]["mode"] == "count"
        assert manifest["recordings"] == ["rec0", "rec1"]

    def test_read_without_sidecar(self, tmp_path, rng):
        ds = TestFrameDataset().make_dataset(rng, n=3)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        (tmp_path / "d.frd.json").unlink()
        back = read_frame_dataset(path)
        assert np.array_equal(back.frames, ds.frames)
        assert np.array_equal(back.labels, ds.labels)
        assert back.provenance == [""] * 3
        assert back.windows.tolist() == [[0, 0]] * 3

    def test_empty_dataset_round_trip(self, tmp_path):
        path = tmp_path / "d.frd"
        write_frame_dataset(FrameDataset(np.zeros((0, 2, 8, 8)), [], []), path)
        # The header of an empty container declares 0 x 0 x 0 frames.
        assert path.read_bytes() == b"FRD1" + bytes(14)
        back = read_frame_dataset(path)
        assert len(back) == 0
        assert back.frames.shape == (0, 0, 0, 0) and back.windows.shape == (0, 2)

    # sha256 of the .frd and .frd.json files, pinned when each frame
    # was a separate object, so the record layout cannot drift.
    GOLDEN = {
        "three.frd": "90b1e13b740dbd1f08782cda35365de99aea668198eebf5db71351dd67606d9f",
        "three.frd.json": "2f9e57a08d441192fb291b2df7010b7d8cde90ca3c5c1c4125ac355aca3a9399",
        "empty.frd": "8639d2884c5ee2d20b49e1edcaf78aa9a891f2f404829935fa5a55fa785a5097",
        "empty.frd.json": "ba36e14ea09c8ad7665893abb1e3fb2276b7f14d73d886f8245c48927a941879",
    }

    def test_golden_bytes(self, tmp_path):
        frames = np.arange(3 * 2 * 3 * 4, dtype=np.float32).reshape(3, 2, 3, 4) / 4
        three = FrameDataset(frames, [0.25, 1.5, 0.0], ["rec000", "rec000", "rec001"],
                             [[0, 10], [10, 20], [0, 10]])
        spec = FrameSpec(window_us=10, mode="polarity2ch", out_size=None, normalize=False)
        write_frame_dataset(three, tmp_path / "three.frd", spec)
        write_frame_dataset(FrameDataset(np.zeros((0, 0, 0, 0)), [], []), tmp_path / "empty.frd")
        for name, digest in self.GOLDEN.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert read_frame_dataset(tmp_path / "three.frd") == three

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.frd"
        path.write_bytes(b"NOPE" + bytes(14))
        with pytest.raises(FormatError, match="bad magic"):
            read_frame_dataset(path)

    def test_unusable_geometry(self, tmp_path):
        # 65535**3 float32 values do not fit one numpy record.
        path = tmp_path / "d.frd"
        path.write_bytes(struct.pack("<4sHHHQ", b"FRD1", 65535, 65535, 65535, 0))
        with pytest.raises(FormatError, match="unusable record geometry"):
            read_frame_dataset(path)

    def test_truncated(self, tmp_path, rng):
        ds = TestFrameDataset().make_dataset(rng, n=2)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="declared 2 records but payload holds 1"):
            read_frame_dataset(path)

    def test_trailing_bytes(self, tmp_path, rng):
        ds = TestFrameDataset().make_dataset(rng, n=2)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            read_frame_dataset(path)

    @pytest.mark.parametrize(
        "damage,message",
        [
            ("short", "declared 3 records but payload holds 2"),
            ("long", "5 trailing byte(s) after records"),
        ],
    )
    def test_damage_reads_as_in_an_event_file(self, tmp_path, rng, damage, message):
        # FRD1 and EVB1 share one fixed-record reader, hence one wording.
        frd, evb1 = tmp_path / "d.frd", tmp_path / "s.evb1"
        write_frame_dataset(TestFrameDataset().make_dataset(rng, n=3), frd)
        write_events(make_stream(rng, n=3), evb1)
        for path, read in ((frd, read_frame_dataset), (evb1, read_events)):
            raw = path.read_bytes()
            path.write_bytes(raw[:-1] if damage == "short" else raw + bytes(5))
            with pytest.raises(FormatError) as info:
                read(path)
            assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "frame,index,value,what",
        [
            (0, 0, np.nan, "frame value"),
            (2, 127, np.inf, "frame value"),
            (1, 128, -np.inf, "label"),
            (2, 128, np.nan, "label"),
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, rng, frame, index, value, what):
        # Record k is 2 * 8 * 8 = 128 frame values, then the label at index 128.
        ds = TestFrameDataset().make_dataset(rng, n=3, shape=(2, 8, 8))
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<f", raw, 18 + 4 * (129 * frame + index), value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"frame {frame} holds a non-finite {what}"):
            read_frame_dataset(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("windows", 5),
            ("windows", [[0]]),
            ("windows", [[0, 10], [10, "20"]]),
            ("windows", [[0, 10], [20, 10]]),
            ("windows", [[0, 10], [10, 20.0]]),
            ("windows", None),
            ("provenance", 7),
            ("provenance", ["rec0", 1]),
            ("provenance", "rec0rec1"),
            ("windows", [[0, 10]]),
            ("windows", [[0, 10], [10, 20], [20, 30]]),
            ("windows", [[0, 10], [10, 2**63]]),
            ("provenance", ["rec0"]),
            ("provenance", []),
        ],
    )
    def test_malformed_sidecar_fields_rejected(self, tmp_path, rng, field, value):
        ds = TestFrameDataset().make_dataset(rng, n=2)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        sidecar = Path(str(path) + ".json")
        manifest = json.loads(sidecar.read_text())
        manifest[field] = value
        sidecar.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=field):
            read_frame_dataset(path)

    @pytest.mark.parametrize(
        "field,value",
        [("windows", [[0, 10], [20, 10]]), ("windows", [[0, 10]]), ("provenance", ["rec0"])],
    )
    def test_sidecar_rows_are_refused_as_the_dataset_refuses_them(self, tmp_path, rng, field, value):
        ds = TestFrameDataset().make_dataset(rng, n=2)
        path = tmp_path / "d.frd"
        write_frame_dataset(ds, path)
        sidecar = Path(str(path) + ".json")
        manifest = json.loads(sidecar.read_text())
        manifest[field] = value
        sidecar.write_text(json.dumps(manifest))
        rows = {"windows": ds.windows, "provenance": ds.provenance, field: value}
        with pytest.raises(ValueError) as from_dataset:
            FrameDataset(ds.frames, ds.labels, rows["provenance"], rows["windows"])
        with pytest.raises(FormatError) as from_reader:
            read_frame_dataset(path)
        assert str(from_reader.value) == f"{sidecar}: {from_dataset.value}"

    def test_read_holds_the_frames_once(self, tmp_path):
        # The records are read a block at a time straight into the frame
        # and label arrays: no whole-file buffer and no whole-file mask.
        ds = self.memory_dataset()
        write_frame_dataset(ds, tmp_path / "d.frd")
        back, _, peak = traced_memory(read_frame_dataset, tmp_path / "d.frd")
        assert back == ds
        assert peak <= 1.3 * ds.frames.nbytes, peak / ds.frames.nbytes

    def test_write_adds_one_block(self, tmp_path):
        ds = self.memory_dataset()
        _, _, peak = traced_memory(write_frame_dataset, ds, tmp_path / "d.frd")
        assert peak <= 0.3 * ds.frames.nbytes, peak / ds.frames.nbytes

    @staticmethod
    def memory_dataset(n=20_000):
        rng = np.random.default_rng(0)
        frames = rng.random((n, 2, 16, 16), dtype=np.float32)
        return FrameDataset(frames, rng.random(n, dtype=np.float32), [""] * n)

    def test_only_regular_files_are_read(self, tmp_path):
        with pytest.raises(FormatError) as info:
            read_frame_dataset(tmp_path)
        assert str(info.value) == f"{tmp_path}: not a regular file"


def records_per_block(monkeypatch, record_bytes, n):
    """Cut ``events._BLOCK_BYTES`` so that a block holds n records."""
    monkeypatch.setattr(events, "_BLOCK_BYTES", n * record_bytes + record_bytes // 2)


class TestFrdBlocks:
    """FRD1 moved two or three records at a time, across block edges."""

    RECORD = 4 * (2 * 8 * 8 + 1)  # a 2 x 8 x 8 frame and its label

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_round_trip_matches_one_block(self, tmp_path, rng, monkeypatch, n):
        make = TestFrameDataset().make_dataset
        ds = make(rng, n=n) if n else FrameDataset(np.zeros((0, 2, 8, 8)), [], [])
        whole, blocked = tmp_path / "whole.frd", tmp_path / "blocked.frd"
        write_frame_dataset(ds, whole, FrameSpec())
        records_per_block(monkeypatch, self.RECORD, 2)
        write_frame_dataset(ds, blocked, FrameSpec())
        assert blocked.read_bytes() == whole.read_bytes()
        back = read_frame_dataset(blocked)
        assert back == read_frame_dataset(whole)
        if n:  # an empty dataset reads back as 0 x 0 x 0 frames
            assert back == ds

    def test_golden_bytes(self, tmp_path, monkeypatch):
        records_per_block(monkeypatch, 4 * (2 * 3 * 4 + 1), 2)  # blocks of 2 and 1
        TestFrdContainer().test_golden_bytes(tmp_path)

    @pytest.mark.parametrize("damage,message", [
        ("short", "declared 3 records but payload holds 2"),
        ("long", "5 trailing byte(s) after records"),
    ])
    @pytest.mark.parametrize("record_bytes", [16, RECORD])  # EVB1's, then FRD1's
    def test_damage_reads_as_in_an_event_file(self, tmp_path, rng, monkeypatch,
                                              record_bytes, damage, message):
        records_per_block(monkeypatch, record_bytes, 2)
        TestFrdContainer().test_damage_reads_as_in_an_event_file(tmp_path, rng, damage, message)

    @pytest.mark.parametrize(
        "frame,index,value,what",
        [
            (0, 0, np.nan, "frame value"),
            (1, 127, np.inf, "frame value"),  # the last value of the first block
            (1, 128, -np.inf, "label"),
            (2, 127, np.inf, "frame value"),
            (2, 128, np.nan, "label"),
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, rng, monkeypatch, frame, index, value,
                                        what):
        records_per_block(monkeypatch, self.RECORD, 2)
        TestFrdContainer().test_non_finite_values_rejected(
            tmp_path, rng, frame, index, value, what)
