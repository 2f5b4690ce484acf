"""Synthetic gripper scenes with a known force -> deflection -> event chain.

The scene holds two mirrored elastic fingers drawn as polylines.  Applied
force deflects each finger toward the jaw centerline: the displacement of
a polyline point grows linearly with its arc position, from zero at the
base to ``delta_max_px * F / f_max_n`` at the tip.  Rendering uses a one
pixel anti-aliased edge so sub-pixel motion still changes intensities.

Events follow the standard contrast-threshold model: between two renders,
each pixel emits ``floor(|ln I1 - ln I0| / C)`` events with the sign of
the log-intensity change, timestamped evenly over the half-open interval
``(t0, t1]``.  Everything here is deterministic; optional noise events are
driven by an explicit seed and are off by default.

Deflection is linear in force, so over the whole force range each finger
segment stays inside the union of its boxes at zero and at full
deflection.  Outside those fixed boxes every render is exactly
``background``, the log change is exactly zero and no event can fire, so
``synthesize_recording`` renders and differences only the boxes.

Renders are stacked: one call renders R deflections of a box as an
``(R, h, w)`` array, and one call turns such a stack of log intensities
into the events of its R - 1 consecutive pairs.  A single image is the
R = 1 case and a single image pair the R = 2 case.  A recording walks
its substeps in chunks of about ``_RENDER_PIXELS`` pixels, each chunk
starting with the previous chunk's last render, so memory stays bounded
however many substeps a recording has.

Each chunk is one job on a thread pool sized to the CPUs the process
may use (numpy releases the interpreter lock in its loops): it renders
every box, takes its share of the noise and sorts its events.  Chunks
own disjoint, increasing time ranges, so joining their results in
submission order gives the whole recording in order, at any worker
count.  The calling thread walks the schedule, deflects the fingers and
draws the noise.  A window of 2 x workers bounds the jobs queued or
running, each on a stack of about ``_RENDER_PIXELS`` pixels; the thread
count bounds those running (``_run_in_order``).

Only a few percent of (pair, pixel) entries change between renders, so
events are extracted sparsely: one ``flatnonzero`` over the changed-entry
mask, then counts, polarities and coordinates at those entries alone.
A chunk's events are ordered by (t, y, x, p) in one ``argsort`` of a
packed int64 key, with ``lexsort`` as the fallback when a key would not
fit (``_sorted_columns``).  The recording's one ``EventStream`` is built
from the joined chunks, whose arrays it keeps uncopied; a stream that
breaks a rule there is a synthesis bug (``AssertionError``).
"""

from __future__ import annotations

import collections
import contextvars
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .events import MAX_SIDE, EventStream, FormatError, _check_fields, _is_real

Polyline = tuple[tuple[float, float], ...]


def default_fingers(width: int, height: int) -> tuple[Polyline, Polyline]:
    """Two horizontal fingers, base at the left, mirrored about mid-height."""
    x0, x1 = round(width * 0.125), round(width * 0.875)
    y_top, y_bot = round(height * 0.25), round(height * 0.75)
    return (
        ((float(x0), float(y_top)), (float(x1), float(y_top))),
        ((float(x0), float(y_bot)), (float(x1), float(y_bot))),
    )


# ``_render_box`` squares coordinate differences and segment lengths,
# which reach about delta_max_px + MAX_SIDE.  At this bound a square stays
# near 1e300 and the sum of two near 2e300, far below float64's 1.8e308;
# much past it they overflow to inf and the renders turn to NaN.
_MAX_DELTA_PX = 1e150


def _is_polylines(value) -> bool:
    """A list or tuple of fingers, each a list or tuple of (x, y) number pairs."""
    seq = (list, tuple)
    return isinstance(value, seq) and all(isinstance(finger, seq) and all(
        isinstance(point, seq) and len(point) == 2 and all(map(_is_real, point)) for point in finger
    ) for finger in value)


@dataclass(frozen=True)
class GripperScene:
    """Static scene geometry and the event-camera contrast threshold."""

    width: int = 320
    height: int = 240
    fingers: tuple[Polyline, ...] | None = None
    delta_max_px: float = 12.0
    f_max_n: float = 1.6
    background: float = 50.0
    foreground: float = 200.0
    contrast: float = 0.05
    thickness_px: float = 5.0

    def __post_init__(self):
        _check_fields(self)
        for name in ("width", "height"):
            if not 0 < getattr(self, name) <= MAX_SIDE:
                raise ValueError(f"{name} must be in 1..{MAX_SIDE}, the sides an event file stores")
        if self.fingers is None:
            object.__setattr__(self, "fingers", default_fingers(self.width, self.height))
        if not _is_polylines(self.fingers):
            raise ValueError("fingers must be sequences of (x, y) pairs of finite numbers")
        fingers = tuple(tuple((float(x), float(y)) for x, y in f) for f in self.fingers)
        object.__setattr__(self, "fingers", fingers)
        if not 0 <= self.delta_max_px <= _MAX_DELTA_PX:
            raise ValueError(f"delta_max_px must be in [0, {_MAX_DELTA_PX:g}]")
        if not self.f_max_n > 0:
            raise ValueError("f_max_n must be positive")
        if not self.background > 0:
            raise ValueError("background intensity must be positive")
        if not self.foreground > 0:
            raise ValueError("foreground intensity must be positive")
        if not self.contrast > 0:
            raise ValueError("contrast must be positive")
        # A pixel's log intensity stays between ln background and ln
        # foreground, so this bounds its event count between two renders,
        # which the event model holds in int64.
        if not abs(math.log(self.foreground) - math.log(self.background)) / self.contrast < 2**63:
            raise ValueError(
                f"contrast {self.contrast!r} gives a pixel more than 2**63 events between renders"
            )
        if not self.thickness_px > 0:
            raise ValueError("thickness_px must be positive")
        if not fingers:
            raise ValueError("fingers must hold at least one finger")
        for finger in fingers:
            if len(finger) < 2:
                raise ValueError("fingers need at least two control points")
            for x, y in finger:
                if not (0 <= x < self.width and 0 <= y < self.height):
                    raise ValueError("fingers must lie inside the sensor at zero force")


@dataclass(frozen=True)
class SynthProtocol:
    """How many samples each synthetic grasp has and how finely to simulate."""

    rate_hz: float = 10.0
    samples_per_recording: int = 41
    substeps_per_sample: int = 4
    noise_rate_hz: float = 0.0

    def __post_init__(self):
        _check_fields(self)
        if not self.rate_hz > 0:
            raise ValueError("rate_hz must be positive")
        if self.samples_per_recording < 2:
            raise ValueError("samples_per_recording must be at least 2")
        if self.substeps_per_sample < 1:
            raise ValueError("substeps_per_sample must be at least 1")
        if not self.noise_rate_hz >= 0:
            raise ValueError("noise_rate_hz must be non-negative")


@dataclass(frozen=True)
class ForceProfile:
    """Force samples in newtons at a fixed rate, sample k at t = k / rate."""

    samples: tuple[float, ...]
    rate_hz: float

    def __post_init__(self):
        _check_fields(self)
        samples = self.samples
        if not (isinstance(samples, (list, tuple)) and all(_is_real(s) and s >= 0 for s in samples)):
            raise ValueError("samples must be finite and non-negative")
        object.__setattr__(self, "samples", tuple(map(float, samples)))
        # ``period_us`` rounds 1e6 / rate_hz, so that must be finite too.
        if not (self.rate_hz > 0 and 1e6 / self.rate_hz < math.inf):
            raise ValueError("rate_hz must be finite and positive")
        # Every sample time must be a distinct int64 microsecond.
        if self.period_us == 0:
            raise ValueError(f"rate_hz {self.rate_hz!r} rounds the sample period to 0 us")
        if (len(self.samples) - 1) * self.period_us >= 2**63:
            raise ValueError(
                f"rate_hz {self.rate_hz!r} puts sample {len(self.samples) - 1} past 2**63 us"
            )

    @property
    def period_us(self) -> int:
        return round(1e6 / self.rate_hz)


def force_to_deflection(force_n: float, scene: GripperScene) -> float:
    """Tip deflection in pixels for a force inside [0, f_max_n]."""
    if not (0 <= force_n <= scene.f_max_n):
        raise ValueError(f"force {force_n} outside [0, {scene.f_max_n}]")
    # Divide first so full force maps to exactly delta_max_px.
    return scene.delta_max_px * (force_n / scene.f_max_n)


def _deflected_points(finger: Polyline, deflections: np.ndarray, center_y: float) -> np.ndarray:
    """A finger's control points at each of R tip deflections, shape (R, n, 2)."""
    pts = np.asarray(finger, dtype=np.float64)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    frac = arc / arc[-1] if arc[-1] > 0 else arc
    direction = 1.0 if pts[:, 1].mean() < center_y else -1.0
    out = np.repeat(pts[None], len(deflections), axis=0)
    out[:, :, 1] += direction * deflections[:, None] * frac
    return out


def _deflected_fingers(scene: GripperScene, forces) -> list[np.ndarray]:
    """Each finger's (R, n, 2) control points at R forces."""
    deflections = np.array([force_to_deflection(f, scene) for f in forces])
    return [_deflected_points(f, deflections, scene.height / 2.0) for f in scene.fingers]


# A half-open pixel rectangle (y0, y1, x0, x1) in sensor coordinates.
Box = tuple[int, int, int, int]


def _clamped_box(scene: GripperScene, y_min, y_max, x_min, x_max) -> Box:
    """Pixels around a coordinate range that a finger may cover, cut to the sensor.

    The margin reaches past the edge at which coverage falls to zero.
    """
    margin = scene.thickness_px / 2 + 1.5
    return (
        max(int(np.floor(y_min - margin)), 0),
        min(int(np.ceil(y_max + margin)) + 1, scene.height),
        max(int(np.floor(x_min - margin)), 0),
        min(int(np.ceil(x_max + margin)) + 1, scene.width),
    )


def _boxes_overlap(a: Box, b: Box) -> bool:
    return a[0] < b[1] and b[0] < a[1] and a[2] < b[3] and b[2] < a[3]


def _reachable_boxes(scene: GripperScene) -> tuple[Box, ...]:
    """Disjoint boxes holding every pixel a finger can cover at any force.

    Each point's y is monotone in the deflection, so a segment's box at
    any force lies inside the union of its boxes at deflection 0 and at
    ``delta_max_px``.  Overlapping boxes are merged into their bounding
    box until no two share a pixel.
    """
    boxes = []
    for rest, full in _deflected_fingers(scene, (0.0, scene.f_max_n)):
        for i in range(len(rest) - 1):
            ys = (rest[i, 1], rest[i + 1, 1], full[i, 1], full[i + 1, 1])
            xs = (rest[i, 0], rest[i + 1, 0])
            box = _clamped_box(scene, min(ys), max(ys), min(xs), max(xs))
            if box[0] < box[1] and box[2] < box[3]:
                boxes.append(box)
    disjoint: list[Box] = []
    while boxes:
        box = boxes.pop()
        hit = next((d for d in disjoint if _boxes_overlap(box, d)), None)
        if hit is None:
            disjoint.append(box)
        else:
            disjoint.remove(hit)
            y0, y1, x0, x1 = zip(box, hit)
            boxes.append((min(y0), max(y1), min(x0), max(x1)))
    return tuple(sorted(disjoint))


def _render_box(scene: GripperScene, fingers: list[np.ndarray], box: Box) -> np.ndarray:
    """Render R deflections of one box of pixels as a float64 (R, h, w) stack.

    ``fingers`` holds each finger's (R, n, 2) deflected control points.
    Every pixel gets the same arithmetic as in a single whole-sensor
    render, so a box stack equals the matching slices of R
    ``render_intensity`` images.

    Each segment's distances are computed over the union of its R clamped
    boxes (``_clamped_box``).  A pixel outside one render's own clamped
    box lies more than ``thickness_px / 2 + 1.5`` px from that render's
    segment, because the box reaches that margin past the segment's
    coordinate range on every side (or the sensor edge).  Its coverage
    ``thickness_px / 2 + 0.5 - dist`` is then below -1 and clips to
    exactly 0, as it would with the distance left at ``inf``; and a
    smaller distance from another segment wins the minimum either way.
    So the union changes no pixel.
    """
    by0, by1, bx0, bx1 = box
    dist = np.full((len(fingers[0]), by1 - by0, bx1 - bx0), np.inf)
    for pts in fingers:
        for i in range(pts.shape[1] - 1):
            ax, ay, bx, by = pts[:, i, 0], pts[:, i, 1], pts[:, i + 1, 0], pts[:, i + 1, 1]
            y_lo, y_hi, x_lo, x_hi = _clamped_box(
                scene,
                min(ay.min(), by.min()), max(ay.max(), by.max()),
                min(ax.min(), bx.min()), max(ax.max(), bx.max()),
            )
            y_lo, y_hi = max(y_lo, by0), min(y_hi, by1)
            x_lo, x_hi = max(x_lo, bx0), min(x_hi, bx1)
            if x_lo >= x_hi or y_lo >= y_hi:
                continue
            ys = np.arange(y_lo, y_hi, dtype=np.float64)[:, None]
            xs = np.arange(x_lo, x_hi, dtype=np.float64)
            ax, ay, bx, by = (v[:, None, None] for v in (ax, ay, bx, by))
            abx, aby = bx - ax, by - ay
            length2 = abx * abx + aby * aby
            # The nearest point of the segment is a + tpar * (b - a), tpar
            # clipped to [0, 1]; a zero-length segment is a point, and
            # clipping to [0, 0] pins its tpar to 0.  The steps run in
            # place but keep each element's arithmetic, xs - (ax + tpar *
            # abx) and so on, so the bytes match a scalar render.
            point = length2 == 0
            tpar = (xs - ax) * abx + (ys - ay) * aby
            tpar /= np.where(point, 1.0, length2)
            np.maximum(tpar, 0.0, out=tpar)
            np.minimum(tpar, np.where(point, 0.0, 1.0), out=tpar)
            dx = tpar * abx
            dx += ax
            np.subtract(xs, dx, out=dx)
            dy = tpar  # its last use, so its buffer is reused
            dy *= aby
            dy += ay
            np.subtract(ys, dy, out=dy)
            view = dist[:, y_lo - by0 : y_hi - by0, x_lo - bx0 : x_hi - bx0]
            np.minimum(view, np.hypot(dx, dy, out=dx), out=view)
    # intensity = background + (foreground - background) * coverage, in place.
    img = np.subtract(scene.thickness_px / 2 + 0.5, dist, out=dist)
    np.maximum(img, 0.0, out=img)
    np.minimum(img, 1.0, out=img)
    img *= scene.foreground - scene.background
    img += scene.background
    return img


def render_intensity(scene: GripperScene, force_n: float) -> np.ndarray:
    """Render the scene at a force as a float64 (height, width) image.

    Pixels are sampled at integer centers; coverage falls off linearly
    over one pixel around each finger's outline, so the image is smooth
    in the sub-pixel deflection.  At every force, each pixel outside the
    boxes the fingers can reach (``_reachable_boxes``) is exactly
    ``scene.background``, so no event ever fires there.
    """
    fingers = _deflected_fingers(scene, (force_n,))
    return _render_box(scene, fingers, (0, scene.height, 0, scene.width))[0]


def _log_intensity(img: np.ndarray) -> np.ndarray:
    if (img <= 0).any():
        raise ValueError("intensities must be positive for the log-change model")
    return np.log(img)


# A recording of more events than this would not fit in a 64-bit address
# space (each takes at least 16 bytes).  An event total past it is a
# MemoryError, raised before int64 arithmetic on the total could wrap.
_MAX_EVENTS = 2**60


def _log_change_events(
    log_stack: np.ndarray,
    times_us: np.ndarray,
    contrast: float,
    y0: int = 0,
    x0: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted (t, x, y, p) columns of the events of a stack of renders.

    ``log_stack`` holds R log-intensity images, shape (R, h, w), rendered
    at the R int64 ``times_us``; each consecutive pair emits its events.
    The images cover a box whose top-left pixel is (y0, x0) on the
    sensor; coordinates come out in sensor pixels.

    Counts are computed at the changed entries alone.  Their C-order flat
    indices give (pair, y, x) in the order ``np.nonzero`` gives, and
    ``!= 0`` is the test it applies, so a NaN change is kept as it would
    be there.
    """
    delta = np.diff(log_stack, axis=0)
    flat = np.flatnonzero(delta != 0)
    d = delta.ravel()[flat]
    counts = np.floor(np.abs(d) / contrast)
    fires = counts != 0
    flat, d, counts = flat[fires], d[fires], counts[fires]
    pair, ys, xs = np.unravel_index(flat, delta.shape)
    per_pixel = counts.astype(np.int64)
    # Each count fits in int64 (``GripperScene`` checks); their sum may not.
    if per_pixel.size and per_pixel.max() > _MAX_EVENTS // per_pixel.size and (
        sum(per_pixel.tolist()) > _MAX_EVENTS
    ):
        raise MemoryError("the renders give more than 2**60 events")
    pol = np.where(d > 0, 1, -1).astype(np.int8)

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


def _sorted_columns(width: int, height: int, t, x, y, p):
    """The event columns ordered by timestamp, then y, x, polarity, with x
    and y narrowed to a stream's uint16 (coordinates on a sensor of sides
    up to MAX_SIDE fit it), so the stream keeps them uncopied.

    The order is one ``argsort`` of the packed int64 key
    ``((t * height + y) * width + x) * 2 + (p > 0)``, which orders events
    as the (t, y, x, p) tuple does: timestamps are non-negative,
    coordinates lie inside the sensor by construction (boxes lie inside
    it and noise is drawn inside it), and polarity is -1 or +1.  Equal
    keys are equal events, so neither stability nor the sort kind can
    change a byte.  When the largest key would not fit in int64 (checked
    in Python ints, since int64 arithmetic wraps silently), a 4-key
    ``np.lexsort`` gives the same order instead.
    """
    x, y = x.astype(np.uint16), y.astype(np.uint16)
    if t.size and (int(t.max()) + 1) * height * width * 2 > np.iinfo(np.int64).max:
        order = np.lexsort((p, x, y, t))
    else:
        key = t * height
        key += y
        key *= width
        key += x
        key *= 2
        key += p > 0
        order = np.argsort(key)
    return t[order], x[order], y[order], p[order]


def events_from_intensity_pair(
    prev_img: np.ndarray,
    next_img: np.ndarray,
    t_prev_us: int,
    t_next_us: int,
    contrast: float,
) -> EventStream:
    """Contrast-threshold events between two positive intensity images.

    Each pixel emits floor(|ln next - ln prev| / contrast) events whose
    polarity is the sign of the change; the k events of a pixel are
    spaced evenly over (t_prev, t_next].  The stream is sorted by
    timestamp, then y, x, polarity, so output order is reproducible.
    ``t_prev_us`` must be non-negative, as every stream timestamp is.
    """
    prev_img = np.asarray(prev_img, dtype=np.float64)
    next_img = np.asarray(next_img, dtype=np.float64)
    if prev_img.shape != next_img.shape or prev_img.ndim != 2:
        raise ValueError("images must be two equal-shape 2-D arrays")
    log_stack = _log_intensity(np.stack([prev_img, next_img]))
    if t_prev_us < 0:
        raise ValueError("t_prev_us must be non-negative")
    if t_prev_us >= t_next_us:
        raise ValueError("t_prev_us must precede t_next_us")
    if contrast <= 0:
        raise ValueError("contrast must be positive")

    height, width = prev_img.shape
    columns = _log_change_events(log_stack, np.array([t_prev_us, t_next_us]), contrast)
    return EventStream(width, height, *_sorted_columns(width, height, *columns))


def make_grasp_profile(
    n_samples: int, f_max_n: float, rate_hz: float = SynthProtocol.rate_hz, seed: int = 0
) -> ForceProfile:
    """Seeded monotone grasp: force climbs from 0 to f_max_n in random steps."""
    if n_samples < 2:
        raise ValueError("a grasp profile needs at least two samples")
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 1.5, n_samples - 1)
    ramp = np.concatenate([[0.0], np.cumsum(steps)])
    # Normalize before scaling so the top sample is exactly f_max_n.
    samples = f_max_n * (ramp / ramp[-1])
    return ForceProfile(tuple(samples), rate_hz)


# Pixels rendered per chunk of a recording, over all its boxes: enough
# renders that numpy's per-call cost is spread thin, few enough that the
# stack's temporaries stay small.
_RENDER_PIXELS = 1 << 18


def _render_schedule(samples: tuple[float, ...], period_us: int, substeps: int):
    """Yield (force, t_us) of each render of a recording, lazily.

    Sample 0 comes first, at t = 0, then ``substeps`` renders per sample
    interval with the force interpolated linearly between its samples.
    """
    yield samples[0], 0
    for k in range(len(samples) - 1):
        lo, hi = sorted((samples[k], samples[k + 1]))
        for j in range(1, substeps + 1):
            if j == substeps:
                force = samples[k + 1]
            else:
                # Clamp away interpolation dust; endpoints are already range-checked.
                frac = j / substeps
                force = min(max(samples[k] + (samples[k + 1] - samples[k]) * frac, lo), hi)
            yield force, k * period_us + round(j * period_us / substeps)


# Pool jobs run on this many threads: the CPUs this process may use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _run_in_order(jobs):
    """Run each (function, *args) of ``jobs`` on a pool; yield the results in order.

    The pool has ``_WORKERS`` threads and lives as long as the generator.
    Jobs are drawn from ``jobs`` on the calling thread, at most 2 x
    workers ahead of the oldest result not yet taken, so the work between
    draws stays on that thread too.  Each job runs in a copy of the
    caller's context, so it keeps the caller's ``np.errstate``.  A job's
    error is raised when its result is due, after the pool has joined its
    threads; so of two failing jobs, the earlier one's error is raised.
    """
    # Imported here: at module level it would add a few ms to every CLI start.
    from concurrent.futures import ThreadPoolExecutor

    pending = collections.deque()
    with ThreadPoolExecutor(_WORKERS) as pool:
        for job in jobs:
            if len(pending) == 2 * _WORKERS:
                yield pending.popleft().result()
            pending.append(pool.submit(contextvars.copy_context().run, *job))
        while pending:
            yield pending.popleft().result()


def _chunk_events(scene: GripperScene, fingers: list[np.ndarray], times_us: np.ndarray, boxes,
                  noise):
    """The sorted (t, x, y, p) columns of one chunk of renders and its noise.

    A pool job: it calls private helpers only, so every public function
    (``force_to_deflection`` among them) stays on the calling thread.
    """
    columns = [noise]
    for box in boxes:
        log_stack = _log_intensity(_render_box(scene, fingers, box))
        columns.append(_log_change_events(log_stack, times_us, scene.contrast, box[0], box[2]))
    return _sorted_columns(scene.width, scene.height, *map(np.concatenate, zip(*columns)))


def synthesize_recording(
    scene: GripperScene,
    profile: ForceProfile,
    substeps_per_sample: int = SynthProtocol.substeps_per_sample,
    noise_rate_hz: float = SynthProtocol.noise_rate_hz,
    seed: int = 0,
) -> tuple[EventStream, ForceProfile]:
    """Simulate one grasp: render the deflecting fingers and emit events.

    Force is interpolated linearly between profile samples and the scene
    is rendered at ``substeps_per_sample`` points per sample interval;
    consecutive renders feed the contrast-threshold model.  Optional
    uniform background noise (``noise_rate_hz`` events per second over
    the whole array, seeded) is merged in, off by default.
    """
    SynthProtocol(substeps_per_sample=substeps_per_sample, noise_rate_hz=noise_rate_hz)
    period_us = profile.period_us
    samples = profile.samples

    # Noise columns in timestamp order, so each chunk's share is one slice.
    noise = (np.zeros(0, np.int64),) * 3 + (np.zeros(0, np.int8),)
    duration_us = (len(samples) - 1) * period_us
    if noise_rate_hz > 0 and duration_us > 0:
        mean = noise_rate_hz * duration_us / 1e6
        if mean > _MAX_EVENTS:
            # Past numpy's own bound the Poisson draw fails with no word of memory.
            raise MemoryError(f"a mean of {mean:.3g} noise events is more than 2**60")
        rng = np.random.default_rng(seed)
        n_noise = rng.poisson(mean)
        if n_noise > 0:
            nt = rng.integers(0, duration_us, n_noise)
            nx = rng.integers(0, scene.width, n_noise)
            ny = rng.integers(0, scene.height, n_noise)
            npol = rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)
            order = np.argsort(nt)
            noise = tuple(c[order] for c in (nt, nx, ny, npol))

    boxes = _reachable_boxes(scene)
    box_pixels = sum((y1 - y0) * (x1 - x0) for y0, y1, x0, x1 in boxes)
    # Render pairs per chunk; a chunk holds one render more than pairs.
    chunk = max(_RENDER_PIXELS // box_pixels - 1, 1)

    def jobs():
        schedule = _render_schedule(samples, period_us, substeps_per_sample)
        renders = list(itertools.islice(schedule, chunk + 1))
        lo = 0
        while len(renders) > 1:
            forces, times = zip(*renders)
            # A chunk's events have t in (times[0], times[-1]]; the first
            # chunk's noise also takes t = 0.  The last render is at
            # duration_us, past every noise timestamp.
            hi = int(np.searchsorted(noise[0], times[-1], side="right"))
            fingers = _deflected_fingers(scene, forces)
            yield (_chunk_events, scene, fingers, np.array(times), boxes,
                   tuple(c[lo:hi] for c in noise))
            lo = hi
            # The next chunk starts from this chunk's last render.
            renders = renders[-1:] + list(itertools.islice(schedule, chunk))

    # The sort key is the whole event and the chunks' time ranges follow
    # one another, so joining the sorted chunks equals one sort of them all.
    # A one-sample profile has no chunk, so no columns: an empty stream.
    columns = [np.concatenate(c) for c in zip(*_run_in_order(jobs()))]
    for col in columns:
        col.setflags(write=False)  # fresh arrays: the stream keeps them uncopied
    try:
        return EventStream(scene.width, scene.height, *columns), profile
    except ValueError as exc:
        raise AssertionError(f"synthesis produced an invalid stream: {exc}") from exc


def save_profile(profile: ForceProfile, path) -> None:
    """Write a force track as JSON {rate_hz, samples}."""
    payload = {"rate_hz": profile.rate_hz, "samples": list(profile.samples)}
    Path(path).write_text(json.dumps(payload) + "\n")


def load_profile(path) -> ForceProfile:
    """Read a ``save_profile`` track; any damage is a ``FormatError`` naming the file."""
    try:
        payload = json.loads(Path(path).read_bytes())
        rate, samples = payload["rate_hz"], payload["samples"]
        # Converted once checked: a loaded rate is a float, as the file's may not be.
        return replace(ForceProfile(tuple(samples), rate), rate_hz=float(rate))
    except KeyError as exc:
        raise FormatError(f"{path}: not a force track (no {exc} key)") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: not a force track ({exc})") from exc
