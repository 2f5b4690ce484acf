"""Scene rendering, the contrast-threshold event model, and grasp synthesis."""

import inspect
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_frames

from evtforce import synth
from evtforce.events import EventStream, concat_streams, slice_window
from evtforce.frames import FrameSpec
from evtforce.synth import (
    ForceProfile,
    GripperScene,
    SynthProtocol,
    _reachable_boxes,
    default_fingers,
    events_from_intensity_pair,
    force_to_deflection,
    load_profile,
    make_grasp_profile,
    render_intensity,
    save_profile,
    synthesize_recording,
)
from evtforce.training import TrainConfig

SMALL = GripperScene(width=80, height=60)


class TestSceneAndProfile:
    def test_default_finger_geometry(self):
        top, bottom = default_fingers(320, 240)
        assert top == ((40.0, 60.0), (280.0, 60.0))
        assert bottom == ((40.0, 180.0), (280.0, 180.0))

    def test_scene_defaults(self):
        scene = GripperScene()
        assert (scene.width, scene.height) == (320, 240)
        assert scene.fingers == default_fingers(320, 240)
        assert (scene.delta_max_px, scene.f_max_n, scene.contrast) == (12.0, 1.6, 0.05)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"contrast": 0.0},
            {"contrast": -0.1},
            # Up to 2.8e301 events per pixel between two renders.
            {"contrast": 1e-300},
            {"delta_max_px": -1.0},
            {"f_max_n": 0.0},
            {"thickness_px": 0.0},
            {"background": 0.0},
            {"fingers": (((0.0, 0.0),),)},
            {"fingers": (((0.0, 0.0), (320.0, 10.0)),)},
            {"fingers": ()},
        ],
    )
    def test_scene_validation(self, kwargs):
        with pytest.raises(ValueError):
            GripperScene(**kwargs)

    @pytest.mark.parametrize(
        "config, field",
        [
            (GripperScene, "f_max_n"),
            (GripperScene, "thickness_px"),
            (GripperScene, "background"),
            (GripperScene, "foreground"),
            (GripperScene, "contrast"),
            (SynthProtocol, "rate_hz"),
            (SynthProtocol, "noise_rate_hz"),
            (TrainConfig, "learning_rate"),
            (TrainConfig, "eps"),
        ],
    )
    def test_nan_is_refused_by_the_rule_that_names_the_field(self, config, field):
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            config(**{field: math.nan})

    def test_delta_max_px_stops_where_the_render_squares_could_overflow(self):
        bound = synth._MAX_DELTA_PX
        scene = GripperScene(width=40, height=30, delta_max_px=bound)
        for force in (0.0, scene.f_max_n / 3, scene.f_max_n):
            assert np.isfinite(render_intensity(scene, force)).all()
        stream, _ = synthesize_recording(scene, make_grasp_profile(3, scene.f_max_n))
        assert len(stream) > 0
        # Past the bound the squares in _render_box can overflow: NaN renders.
        for delta in (float(np.nextafter(bound, math.inf)), 1e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="^delta_max_px "):
                GripperScene(width=40, height=30, delta_max_px=delta)

    def test_profile_period(self):
        assert ForceProfile((0.0, 1.0), rate_hz=10.0).period_us == 100_000
        assert ForceProfile((0.0,), rate_hz=40.0).period_us == 25_000

    @pytest.mark.parametrize("samples", [(-0.1,), (math.nan,), (math.inf,)])
    def test_profile_rejects_bad_samples(self, samples):
        with pytest.raises(ValueError):
            ForceProfile(samples, rate_hz=10.0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf, 5e-324, 3e6, 1e-13])
    def test_profile_rejects_bad_rate(self, rate):
        # 5e-324 Hz is positive, but its period overflows to infinity; the
        # period of 3e6 Hz rounds to 0 us, and at 1e-13 Hz the second sample
        # lies past 2**63 us.
        with pytest.raises(ValueError, match="rate_hz"):
            ForceProfile((0.0, 1.0), rate_hz=rate)


class TestDeflection:
    def test_linear_endpoints_and_midpoint(self):
        scene = GripperScene()
        assert force_to_deflection(0.0, scene) == 0.0
        assert force_to_deflection(scene.f_max_n, scene) == scene.delta_max_px
        assert force_to_deflection(0.8, scene) == 6.0

    @pytest.mark.parametrize("force", [-0.01, 1.61])
    def test_out_of_range(self, force):
        with pytest.raises(ValueError):
            force_to_deflection(force, GripperScene())


class TestRender:
    def test_deterministic(self):
        a = render_intensity(SMALL, 0.7)
        b = render_intensity(SMALL, 0.7)
        assert np.array_equal(a, b)

    def test_intensities_bounded_and_background_dominates(self):
        img = render_intensity(SMALL, 0.0)
        assert img.shape == (60, 80)
        assert img.min() == SMALL.background
        assert img.max() == SMALL.foreground
        assert img[0, 0] == SMALL.background
        # Pixel on the top finger centerline is fully covered.
        assert img[15, 40] == SMALL.foreground

    def test_tip_moves_by_exactly_delta_max_at_full_force(self):
        scene = GripperScene()
        rest = render_intensity(scene, 0.0)
        full = render_intensity(scene, scene.f_max_n)
        tip_x = 280
        top_half = slice(0, scene.height // 2)

        def lowest_lit_row(img):
            rows = np.nonzero(img[top_half, tip_x] > scene.background)[0]
            return rows.max()

        moved = lowest_lit_row(full) - lowest_lit_row(rest)
        assert moved == scene.delta_max_px

    def test_base_stays_put(self):
        scene = GripperScene()
        rest = render_intensity(scene, 0.0)
        full = render_intensity(scene, scene.f_max_n)
        # The finger base (arc position 0) does not deflect: the base pixel
        # stays fully covered and everything left of it stays background.
        assert rest[60, 40] == full[60, 40] == scene.foreground
        assert np.array_equal(rest[:, :37], full[:, :37])


class TestEventModel:
    # One pixel jumps from intensity 1 to `factor`; with log(prev) == 0 the
    # measured log step is log(factor), so contrasts derived from that value
    # make the quantization count exact in float arithmetic.
    def single_pixel_pair(self, factor=7.0):
        prev = np.ones((4, 6))
        nxt = prev.copy()
        nxt[2, 3] = factor
        return prev, nxt, abs(float(np.log(factor)))

    def test_exact_threshold_fires_once(self):
        prev, nxt, step = self.single_pixel_pair()
        s = events_from_intensity_pair(prev, nxt, 0, 1000, contrast=step)
        assert len(s) == 1
        assert (s.x[0], s.y[0], s.p[0]) == (3, 2, 1)
        assert s.t_us[0] == 1000

    def test_fractional_thresholds_floor(self):
        prev, nxt, step = self.single_pixel_pair()
        s = events_from_intensity_pair(prev, nxt, 0, 1000, contrast=step / 2.5)
        assert len(s) == 2
        assert list(s.t_us) == [500, 1000]

    def test_negative_change_gives_negative_polarity(self):
        prev, nxt, step = self.single_pixel_pair(factor=1.0 / 7.0)
        s = events_from_intensity_pair(prev, nxt, 0, 1000, contrast=step / 1.5)
        assert len(s) == 1 and s.p[0] == -1

    def test_below_threshold_is_silent(self):
        prev, nxt, step = self.single_pixel_pair()
        s = events_from_intensity_pair(prev, nxt, 0, 1000, contrast=step * 1.0001)
        assert len(s) == 0

    def test_identical_images_are_silent(self):
        img = np.full((4, 6), 123.0)
        assert len(events_from_intensity_pair(img, img, 0, 1000, 0.1)) == 0

    def test_timestamps_evenly_spaced_over_half_open_interval(self):
        prev, nxt, step = self.single_pixel_pair()
        s = events_from_intensity_pair(prev, nxt, 2000, 3000, contrast=step / 4)
        assert list(s.t_us) == [2250, 2500, 2750, 3000]

    def test_stream_valid_and_in_window(self, rng):
        for _ in range(10):
            prev = rng.uniform(50.0, 200.0, size=(20, 30))
            nxt = rng.uniform(50.0, 200.0, size=(20, 30))
            # Valid, since it was built; its events lie in (t_prev, t_next].
            s = events_from_intensity_pair(prev, nxt, 100, 600, 0.2)
            if len(s):
                assert s.t_us.min() > 100
                assert s.t_us.max() <= 600

    def test_doubling_contrast_never_adds_events(self, rng):
        for _ in range(10):
            prev = rng.uniform(50.0, 200.0, size=(16, 16))
            nxt = rng.uniform(50.0, 200.0, size=(16, 16))
            lo = events_from_intensity_pair(prev, nxt, 0, 100, 0.05)
            hi = events_from_intensity_pair(prev, nxt, 0, 100, 0.10)
            assert len(hi) <= len(lo)

    def test_input_validation(self):
        img = np.full((4, 4), 10.0)
        with pytest.raises(ValueError):
            events_from_intensity_pair(img, np.full((4, 5), 10.0), 0, 1, 0.1)
        with pytest.raises(ValueError):
            events_from_intensity_pair(img, img * 0.0, 0, 1, 0.1)
        with pytest.raises(ValueError):
            events_from_intensity_pair(img, img, 5, 5, 0.1)
        # No stream holds a negative timestamp.
        with pytest.raises(ValueError, match="t_prev_us must be non-negative"):
            events_from_intensity_pair(img, img * 2.0, -1000, 500, 0.1)
        with pytest.raises(ValueError):
            events_from_intensity_pair(img, img, 0, 1, 0.0)


class TestGraspProfile:
    def test_monotone_and_pinned(self):
        p = make_grasp_profile(41, 1.6, seed=3)
        assert len(p.samples) == 41
        assert p.samples[0] == 0.0
        assert p.samples[-1] == 1.6
        assert all(b >= a for a, b in zip(p.samples, p.samples[1:]))

    def test_seeded(self):
        assert make_grasp_profile(10, 1.6, seed=4) == make_grasp_profile(10, 1.6, seed=4)
        assert make_grasp_profile(10, 1.6, seed=4) != make_grasp_profile(10, 1.6, seed=5)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            make_grasp_profile(1, 1.6)


class TestSynthesize:
    def test_constant_zero_profile_is_silent(self):
        profile = ForceProfile((0.0, 0.0, 0.0), rate_hz=10.0)
        stream, _ = synthesize_recording(SMALL, profile)
        assert len(stream) == 0
        assert (stream.width, stream.height) == (80, 60)

    def test_one_sample_profile_is_an_empty_stream(self):
        # One render, no pair and no time for noise: no chunk at all.
        profile = ForceProfile((1.0,), rate_hz=10.0)
        stream, track = synthesize_recording(SMALL, profile, noise_rate_hz=5000.0)
        assert stream == EventStream(80, 60)
        assert (stream.width, stream.height, len(stream)) == (80, 60, 0)
        assert stream.t_us.dtype == np.int64
        assert track == profile

    def test_deterministic(self):
        profile = make_grasp_profile(4, SMALL.f_max_n, seed=2)
        a, _ = synthesize_recording(SMALL, profile, substeps_per_sample=2)
        b, _ = synthesize_recording(SMALL, profile, substeps_per_sample=2)
        assert a == b

    def test_windows_into_one_frame_per_sample_interval(self):
        profile = make_grasp_profile(5, SMALL.f_max_n, seed=1)
        stream, _ = synthesize_recording(SMALL, profile)
        spec = FrameSpec(window_us=profile.period_us, mode="count",
                         out_size=None, normalize=False)
        frames = all_frames(stream, spec)
        assert len(frames) == len(profile.samples) - 1
        assert np.all(frames.sum(axis=(1, 2, 3)) > 0)

    def test_polarity_matches_rendered_intensity_change(self):
        profile = make_grasp_profile(4, SMALL.f_max_n, seed=6)
        stream, _ = synthesize_recording(SMALL, profile, substeps_per_sample=1)
        period = profile.period_us
        for k in range(len(profile.samples) - 1):
            prev = render_intensity(SMALL, profile.samples[k])
            nxt = render_intensity(SMALL, profile.samples[k + 1])
            delta = np.log(nxt) - np.log(prev)
            win = slice_window(stream, k * period + 1, (k + 1) * period + 1)
            assert len(win) > 0
            signs = np.sign(delta[win.y, win.x])
            assert np.array_equal(signs, win.p)

    def test_returns_profile_as_labels(self):
        profile = make_grasp_profile(4, SMALL.f_max_n, seed=7)
        _, track = synthesize_recording(SMALL, profile)
        assert track == profile

    def test_noise_is_seeded_and_additive(self):
        profile = ForceProfile((0.0, 0.0), rate_hz=10.0)
        clean, _ = synthesize_recording(SMALL, profile)
        noisy1, _ = synthesize_recording(SMALL, profile, noise_rate_hz=5000.0, seed=9)
        noisy2, _ = synthesize_recording(SMALL, profile, noise_rate_hz=5000.0, seed=9)
        other, _ = synthesize_recording(SMALL, profile, noise_rate_hz=5000.0, seed=10)
        assert noisy1 == noisy2
        assert noisy1 != other
        assert len(noisy1) > len(clean)
        assert noisy1.t_us.max() < 100_000

    def test_argument_validation(self):
        profile = ForceProfile((0.0, 1.0), rate_hz=10.0)
        with pytest.raises(ValueError):
            synthesize_recording(SMALL, profile, substeps_per_sample=0)
        with pytest.raises(ValueError):
            synthesize_recording(SMALL, profile, noise_rate_hz=-1.0)


class TestProfileFiles:
    def test_round_trip(self, tmp_path):
        p = make_grasp_profile(6, 1.6, seed=12)
        path = tmp_path / "track.json"
        save_profile(p, path)
        assert load_profile(path) == p

    def test_malformed_track(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rate_hz": 10.0}\n')
        with pytest.raises(ValueError):
            load_profile(path)


# The event model before sparse extraction and the packed sort key, kept
# here unchanged so that the reference synthesis below shares no event
# code with ``synth``.
def frozen_log_change_events(log_stack, times_us, contrast, y0=0, x0=0):
    delta = np.diff(log_stack, axis=0)
    counts = np.floor(np.abs(delta) / contrast)
    pair, ys, xs = np.nonzero(counts)
    per_pixel = counts[pair, ys, xs].astype(np.int64)
    # Each count fits in int64 (``GripperScene`` checks); their sum may not.
    if per_pixel.size and per_pixel.max() > synth._MAX_EVENTS // per_pixel.size and (
        sum(per_pixel.tolist()) > synth._MAX_EVENTS
    ):
        raise MemoryError("the renders give more than 2**60 events")
    pol = np.where(delta[pair, ys, xs] > 0, 1, -1).astype(np.int8)

    rep_n = np.repeat(per_pixel, per_pixel)
    starts = np.cumsum(per_pixel) - per_pixel
    ordinal = np.arange(per_pixel.sum()) - np.repeat(starts, per_pixel)
    t_prev = np.repeat(times_us[:-1][pair], per_pixel)
    span = np.repeat(np.diff(times_us)[pair], per_pixel)
    t = t_prev + np.ceil(span * (ordinal + 1) / rep_n).astype(np.int64)
    return (
        t,
        np.repeat(xs + x0, per_pixel),
        np.repeat(ys + y0, per_pixel),
        np.repeat(pol, per_pixel),
    )


def frozen_sorted_stream(width, height, t, x, y, p):
    order = np.lexsort((p, x, y, t))
    return EventStream(width, height, t[order], x[order], y[order], p[order])


def frozen_events_from_pair(prev_img, next_img, t_prev_us, t_next_us, contrast):
    """``events_from_intensity_pair`` on the frozen event model."""
    log_stack = np.log(np.stack([prev_img, next_img]))
    columns = frozen_log_change_events(log_stack, np.array([t_prev_us, t_next_us]), contrast)
    return frozen_sorted_stream(prev_img.shape[1], prev_img.shape[0], *columns)


def full_frame_recording(scene, profile, substeps_per_sample, noise_rate_hz=0.0, seed=0):
    """Reference synthesis: whole-sensor renders and differences every substep.

    This is the recording loop before renders were limited to the boxes
    the fingers can reach, on the frozen event model;
    ``synthesize_recording`` must match it exactly.
    """
    period_us = profile.period_us
    samples = profile.samples
    parts = []
    prev_img = render_intensity(scene, samples[0])
    t_prev = 0
    for k in range(len(samples) - 1):
        lo, hi = sorted((samples[k], samples[k + 1]))
        for j in range(1, substeps_per_sample + 1):
            if j == substeps_per_sample:
                force = samples[k + 1]
            else:
                frac = j / substeps_per_sample
                force = min(max(samples[k] + (samples[k + 1] - samples[k]) * frac, lo), hi)
            t_next = k * period_us + round(j * period_us / substeps_per_sample)
            img = render_intensity(scene, force)
            parts.append(frozen_events_from_pair(prev_img, img, t_prev, t_next, scene.contrast))
            prev_img, t_prev = img, t_next
    stream = concat_streams(parts) if parts else EventStream(scene.width, scene.height)

    duration_us = (len(samples) - 1) * period_us
    if noise_rate_hz > 0 and duration_us > 0:
        rng = np.random.default_rng(seed)
        n_noise = rng.poisson(noise_rate_hz * duration_us / 1e6)
        if n_noise > 0:
            nt = rng.integers(0, duration_us, n_noise)
            nx = rng.integers(0, scene.width, n_noise)
            ny = rng.integers(0, scene.height, n_noise)
            npol = rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)
            t = np.concatenate([stream.t_us, nt])
            x = np.concatenate([stream.x, nx.astype(np.int32)])
            y = np.concatenate([stream.y, ny.astype(np.int32)])
            p = np.concatenate([stream.p, npol])
            stream = frozen_sorted_stream(scene.width, scene.height, t, x, y, p)
    return stream


@st.composite
def odd_scenes(draw):
    """Small scenes with many-segment, diagonal, overlapping and edge fingers."""
    width, height = draw(st.integers(8, 64)), draw(st.integers(8, 48))
    # Each finger wanders from an anchor; anchors may sit on the sensor's
    # first or last row/column, and clipping pins wandering points there too.
    xs = st.one_of(st.floats(0.0, width - 1.0), st.sampled_from([0.0, width - 1.0]))
    ys = st.one_of(st.floats(0.0, height - 1.0), st.sampled_from([0.0, height - 1.0]))
    steps = st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                     min_size=1, max_size=3)
    fingers = []
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(xs), draw(ys)
        finger = [(x, y)]
        for dx, dy in draw(steps):
            x, y = min(max(x + dx, 0.0), width - 1.0), min(max(y + dy, 0.0), height - 1.0)
            finger.append((x, y))
        fingers.append(tuple(finger))
    return GripperScene(
        width=width,
        height=height,
        fingers=tuple(fingers),
        delta_max_px=draw(
            st.one_of(st.just(0.0), st.floats(0.5, 8.0), st.floats(8.0, 2.0 * height))
        ),
        f_max_n=draw(st.floats(0.1, 5.0)),
        background=draw(st.floats(1.0, 255.0)),
        foreground=draw(st.floats(1.0, 255.0)),
        contrast=draw(st.one_of(st.just(0.005), st.floats(0.005, 0.3))),
        thickness_px=draw(st.floats(0.5, 12.0)),
    )


def outside_boxes(scene):
    mask = np.ones((scene.height, scene.width), dtype=bool)
    for y0, y1, x0, x1 in _reachable_boxes(scene):
        mask[y0:y1, x0:x1] = False
    return mask


def assert_boxes_cover_every_render(scene):
    boxes = _reachable_boxes(scene)
    for i, (a0, a1, b0, b1) in enumerate(boxes):
        assert 0 <= a0 < a1 <= scene.height and 0 <= b0 < b1 <= scene.width
        for c0, c1, d0, d1 in boxes[i + 1 :]:
            assert a1 <= c0 or c1 <= a0 or b1 <= d0 or d1 <= b0, "boxes overlap"
    outside = outside_boxes(scene)
    for force in (0.0, scene.f_max_n / 2, scene.f_max_n):
        assert np.all(render_intensity(scene, force)[outside] == scene.background)


class TestReachableBoxes:
    def test_default_scene_boxes(self):
        assert _reachable_boxes(GripperScene()) == ((56, 77, 36, 285), (164, 185, 36, 285))

    @pytest.mark.parametrize(
        "scene",
        [
            GripperScene(),
            SMALL,
            # Crossing diagonals and a three-point finger: merged into one box.
            GripperScene(width=60, height=40, fingers=(
                ((2.0, 3.0), (50.0, 30.0)), ((2.0, 30.0), (50.0, 3.0)),
                ((10.0, 20.0), (30.0, 22.0), (55.0, 5.0)),
            )),
            # Fingers on the sensor edge that deflect off it.
            GripperScene(width=40, height=30, delta_max_px=50.0, fingers=(
                ((0.0, 0.0), (39.0, 0.0)), ((0.0, 29.0), (39.0, 29.0)),
            )),
            GripperScene(width=40, height=30, delta_max_px=0.0, thickness_px=11.0),
        ],
    )
    def test_disjoint_and_background_outside(self, scene):
        assert_boxes_cover_every_render(scene)


class TestBoxLimitedSynthesis:
    @given(
        scene=odd_scenes(),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        substeps=st.integers(1, 5),
        noise_rate_hz=st.sampled_from([0.0, 3000.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_full_frame_synthesis(self, scene, fractions, substeps, noise_rate_hz, seed):
        # Fractions of f_max_n, so the top of the range (full deflection) is hit exactly.
        samples = tuple(min(f * scene.f_max_n, scene.f_max_n) for f in fractions)
        profile = ForceProfile(samples + (scene.f_max_n,), rate_hz=10.0)
        stream, _ = synthesize_recording(scene, profile, substeps, noise_rate_hz, seed)
        expected = full_frame_recording(scene, profile, substeps, noise_rate_hz, seed)
        assert stream == expected
        assert_boxes_cover_every_render(scene)

    def test_default_recording_matches_full_frame_synthesis(self):
        scene = GripperScene()
        profile = make_grasp_profile(6, scene.f_max_n, seed=11)
        stream, _ = synthesize_recording(scene, profile, 4)
        assert len(stream) > 0
        assert stream == full_frame_recording(scene, profile, 4)


def chunked_recording(scene, profile, substeps, pixels):
    """``synthesize_recording`` with ``_RENDER_PIXELS`` set to ``pixels``.

    Also returns the number of renders in each stack that was rendered.
    One worker runs the jobs in the order they were submitted.
    """
    stacks = []
    render_box = synth._render_box

    def spy(scene, fingers, box):
        stacks.append(len(fingers[0]))
        return render_box(scene, fingers, box)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_RENDER_PIXELS", pixels)
        mp.setattr(synth, "_render_box", spy)
        mp.setattr(synth, "_WORKERS", 1)
        stream, _ = synthesize_recording(scene, profile, substeps)
    return stream, stacks


def box_pixels(scene):
    return sum((y1 - y0) * (x1 - x0) for y0, y1, x0, x1 in _reachable_boxes(scene))


class TestChunkedSynthesis:
    """Chunk boundaries change no event.

    ``_RENDER_PIXELS`` = 1 gives one render pair per chunk; four box areas
    give chunks of four renders (three pairs), whose boundaries fall
    inside sample intervals of two or more substeps.
    """

    def test_default_scene(self):
        scene = GripperScene()
        profile = make_grasp_profile(6, scene.f_max_n, seed=11)
        whole, stacks = chunked_recording(scene, profile, 4, synth._RENDER_PIXELS)
        assert stacks == [21, 21]
        pairs, stacks = chunked_recording(scene, profile, 4, 1)
        assert pairs == whole and stacks == [2] * 40
        split, stacks = chunked_recording(scene, profile, 4, 4 * box_pixels(scene))
        assert split == whole and stacks == [4] * 12 + [3] * 2

    @given(
        scene=odd_scenes(),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        substeps=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_odd_scenes(self, scene, fractions, substeps):
        samples = tuple(min(f * scene.f_max_n, scene.f_max_n) for f in fractions)
        profile = ForceProfile(samples + (scene.f_max_n,), rate_hz=10.0)
        whole, _ = synthesize_recording(scene, profile, substeps)
        for pixels in (1, 4 * box_pixels(scene)):
            assert chunked_recording(scene, profile, substeps, pixels)[0] == whole


class TestRenderPool:
    """Render jobs run on a thread pool whose size changes no byte."""

    @pytest.mark.parametrize(
        "scene, samples, noise_rate_hz, pixels",
        [(GripperScene(), 41, 0.0, synth._RENDER_PIXELS), (SMALL, 9, 2e4, 3 * box_pixels(SMALL))],
        ids=["default", "noisy-multi-chunk"],
    )
    def test_worker_count_changes_no_byte(self, monkeypatch, scene, samples, noise_rate_hz, pixels):
        # More workers than cores and a short switch interval shuffle the
        # order in which jobs run and finish.
        profile = make_grasp_profile(samples, scene.f_max_n, seed=4)
        monkeypatch.setattr(synth, "_RENDER_PIXELS", pixels)
        streams = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 5):
                monkeypatch.setattr(synth, "_WORKERS", workers)
                streams.append(synthesize_recording(scene, profile, 4, noise_rate_hz, seed=9)[0])
        finally:
            sys.setswitchinterval(interval)
        assert len(streams[0]) > 0 and streams[0] == streams[1]

    def test_jobs_see_the_callers_errstate(self, monkeypatch):
        seen = []
        render_box = synth._render_box

        def spy(*args):
            seen.append(np.geterr()["divide"])
            return render_box(*args)

        monkeypatch.setattr(synth, "_render_box", spy)
        monkeypatch.setattr(synth, "_WORKERS", 2)
        with np.errstate(divide="ignore"):
            synthesize_recording(SMALL, make_grasp_profile(5, SMALL.f_max_n))
        assert seen and set(seen) == {"ignore"}

    def test_public_functions_run_on_the_main_thread(self, monkeypatch):
        # A tracer that wraps the public functions keeps one span stack,
        # which is not thread-safe; force_to_deflection is one of them.
        threads = []

        def on_main(name, fn):
            def wrapper(*args, **kwargs):
                threads.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in list(vars(synth).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                monkeypatch.setattr(synth, name, on_main(name, fn))
        monkeypatch.setattr(synth, "_WORKERS", 4)
        monkeypatch.setattr(synth, "_RENDER_PIXELS", 1)
        synth.synthesize_recording(SMALL, make_grasp_profile(5, SMALL.f_max_n), 3)
        assert "force_to_deflection" in {name for name, _ in threads}
        assert {thread for _, thread in threads} == {threading.main_thread()}

    def test_jobs_in_flight_are_bounded(self, monkeypatch):
        # A job is a chunk, whose renders share one fingers array.  While
        # the first chunk is held, its result cannot be taken, so the pool
        # may start only the chunks submitted by then: 2 x workers, the
        # held one included.  A pool given every job at once starts all
        # 40 one-pair chunks (80 renders over 2 boxes).
        scene, workers = GripperScene(), 2
        first_box = _reachable_boxes(scene)[0]
        deflected_fingers, render_box = synth._deflected_fingers, synth._render_box
        calls, started, held = [], [], []
        lock = threading.Lock()

        def fingers_spy(scene, forces):
            calls.append(deflected_fingers(scene, forces))
            return calls[-1]

        def chunks_started():
            return len({id(fingers) for fingers in started})

        def render_spy(scene, fingers, box):
            with lock:
                started.append(fingers)
            # Call 0 finds the reachable boxes; call 1 is the first chunk's.
            if fingers is calls[1] and box == first_box:
                time.sleep(0.2)
                with lock:
                    held.append(chunks_started())
            return render_box(scene, fingers, box)

        monkeypatch.setattr(synth, "_deflected_fingers", fingers_spy)
        monkeypatch.setattr(synth, "_render_box", render_spy)
        monkeypatch.setattr(synth, "_WORKERS", workers)
        monkeypatch.setattr(synth, "_RENDER_PIXELS", 1)
        synthesize_recording(scene, make_grasp_profile(11, scene.f_max_n, seed=2), 4)
        assert len(started) == 80 and chunks_started() == 40
        assert len(held) == 1 and held[0] <= 2 * workers

    def test_noise_on_chunk_boundaries_keeps_its_place(self, monkeypatch):
        # About 100 noise events per microsecond over 400 us, so noise
        # falls at t = 0 and on every render time, where one-pair chunks
        # meet: each chunk takes the noise of (t_first, t_last].
        profile = make_grasp_profile(5, SMALL.f_max_n, rate_hz=1e4, seed=3)
        monkeypatch.setattr(synth, "_RENDER_PIXELS", 1)
        monkeypatch.setattr(synth, "_WORKERS", 2)
        stream, _ = synthesize_recording(SMALL, profile, 2, 1e8, seed=5)
        assert np.isin(np.arange(0, 400, 50), stream.t_us).all()
        assert stream == full_frame_recording(SMALL, profile, 2, 1e8, seed=5)

    def test_a_jobs_error_reaches_the_caller(self, monkeypatch):
        calls = []
        log_change_events = synth._log_change_events

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError("the renders give more than 2**60 events")
            return log_change_events(*args)

        monkeypatch.setattr(synth, "_log_change_events", failing)
        monkeypatch.setattr(synth, "_WORKERS", 2)
        monkeypatch.setattr(synth, "_RENDER_PIXELS", 1)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="more than 2"):
            synthesize_recording(SMALL, make_grasp_profile(9, SMALL.f_max_n), 2)
        assert threading.active_count() == before


@st.composite
def log_stacks(draw):
    """(log_stack, times_us, contrast, y0, x0) arguments of ``_log_change_events``.

    Log values that are small multiples of the contrast give changes at
    exact thresholds (exact in float for a power-of-two contrast) and just
    off them, of both signs; some stacks do not change at all.
    """
    contrast = draw(st.one_of(st.sampled_from([0.25, 0.05, float(np.log(7.0))]),
                              st.floats(0.01, 1.0)))
    r, h, w = draw(st.integers(2, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = st.one_of(st.integers(-4, 4).map(lambda k: k * contrast), st.floats(-3.0, 3.0))
    stack = np.array(draw(st.lists(value, min_size=r * h * w, max_size=r * h * w)))
    stack = stack.reshape(r, h, w)
    if draw(st.booleans()):
        stack[1:] = stack[0]
    steps = draw(st.lists(st.integers(1, 10**6), min_size=r - 1, max_size=r - 1))
    times = draw(st.integers(-10**9, 10**9)) + np.concatenate([[0], np.cumsum(steps)])
    return stack, times, contrast, draw(st.integers(0, 1000)), draw(st.integers(0, 1000))


def assert_same_columns(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSparseEventModel:
    """``_log_change_events`` equals the frozen dense body byte for byte."""

    @given(case=log_stacks())
    @example(case=(np.array([[[0.0, 0.0]], [[0.25, -0.5]]]), np.array([0, 10]), 0.25, 3, 5))
    @example(case=(np.zeros((2, 3, 4)), np.array([5, 9]), 0.05, 0, 0))
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_body(self, case):
        assert_same_columns(synth._log_change_events(*case), frozen_log_change_events(*case))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_log_values_behave_as_before(self, bad):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = bad
        outcomes = []
        with np.errstate(invalid="ignore"):
            for f in (synth._log_change_events, frozen_log_change_events):
                try:
                    outcomes.append(f(stack, np.array([0, 10, 20]), 0.1))
                except ValueError as exc:
                    outcomes.append(str(exc))
        if isinstance(outcomes[0], str):
            assert outcomes[0] == outcomes[1]
        else:
            assert_same_columns(*outcomes)


def lexsort_counter(monkeypatch):
    """Count the calls of ``np.lexsort`` from here on."""
    calls = []
    lexsort = np.lexsort

    def spy(keys, *args, **kwargs):
        calls.append(1)
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    return calls


def random_columns(rng, n, width, height, t_lo, t_hi):
    """Unsorted event columns with many duplicate events."""
    pool = 1 + n // 3
    t = rng.integers(t_lo, t_hi, pool, endpoint=True)
    x, y = rng.integers(0, width, pool), rng.integers(0, height, pool)
    p = rng.choice(np.array([-1, 1], dtype=np.int8), pool)
    pick = rng.integers(0, pool, n)
    return t[pick], x[pick], y[pick], p[pick]


def sorted_stream(width, height, *columns):
    return EventStream(width, height, *synth._sorted_columns(width, height, *columns))


class TestSortKey:
    """``_sorted_columns`` gives ``np.lexsort``'s order, with or without the key."""

    @given(
        n=st.integers(0, 300),
        width=st.integers(1, 70),
        height=st.integers(1, 50),
        t_hi=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_lexsort_with_duplicates(self, n, width, height, t_hi, seed):
        columns = random_columns(np.random.default_rng(seed), n, width, height, 0, t_hi)
        got = sorted_stream(width, height, *columns)
        assert got == frozen_sorted_stream(width, height, *columns)

    @pytest.mark.parametrize("past", [0, 1])
    def test_key_bound_on_a_huge_sensor(self, rng, monkeypatch, past):
        # Up to t_max every key fits in int64, the largest just below
        # 2**63; one microsecond later the last row's keys would wrap.
        side = 65535
        t_max = 2**63 // (side * side * 2) - 1
        t, x, y, p = random_columns(rng, 500, side, side, t_max - 50, t_max)
        t[0], x[0], y[0], p[0] = t_max + past, side - 1, side - 1, 1
        want = frozen_sorted_stream(side, side, t, x, y, p)
        calls = lexsort_counter(monkeypatch)
        assert sorted_stream(side, side, t, x, y, p) == want
        assert calls == [1] * past

    @pytest.mark.parametrize("t_lo, t_hi", [(2**32, 2**40), (2**62, 2**63 - 1)])
    def test_huge_sensor_falls_back_to_lexsort(self, rng, monkeypatch, t_lo, t_hi):
        side = 65535
        columns = random_columns(rng, 500, side, side, t_lo, t_hi)
        want = frozen_sorted_stream(side, side, *columns)
        calls = lexsort_counter(monkeypatch)
        assert sorted_stream(side, side, *columns) == want
        assert calls == [1]

    @pytest.mark.parametrize("t_prev_us", [2**62, 2**63 - 2000])
    def test_pairs_past_the_key_fall_back_to_lexsort(self, rng, monkeypatch, t_prev_us):
        prev = rng.uniform(50.0, 200.0, size=(12, 9))
        nxt = rng.uniform(50.0, 200.0, size=(12, 9))
        want = frozen_events_from_pair(prev, nxt, t_prev_us, t_prev_us + 1500, 0.05)
        assert len(want) > 0
        calls = lexsort_counter(monkeypatch)
        assert events_from_intensity_pair(prev, nxt, t_prev_us, t_prev_us + 1500, 0.05) == want
        assert calls == [1]
