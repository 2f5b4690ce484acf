"""Time-ordered event streams and the on-disk event formats.

An event is a single brightness-change report from a dynamic vision sensor:
a microsecond timestamp, a pixel coordinate, and a polarity (+1 for a
brightness increase, -1 for a decrease).  Streams are stored column-wise
(one array per attribute) so that million-event recordings stay cheap to
slice and accumulate.  An ``EventStream`` is valid by construction: its
constructor is the one place that checks the stream rules.

In memory, t is int64, x and y are uint16 and p is int8: 13 bytes per
event.  x and y have the width the EVB1 file gives them, which holds every
coordinate of a sensor of sides up to MAX_SIDE; code that does arithmetic
on them casts first, since uint16 wraps below 0 and at 65,536.

Two interchangeable file formats are supported, for sensor sides 1..MAX_SIDE:

CSV (text)
    line 1: ``# width=W height=H``
    line 2: ``t_us,x,y,p``
    then one ``t,x,y,p`` integer row per event, sorted by ``t_us``.

EVB1 (binary, little-endian)
    header: magic ``EVB1``, u16 width, u16 height, u64 event count.
    records: ``{u64 t_us, u16 x, u16 y, i8 p, pad}`` packed to 16 bytes
    per record; pad bytes are written as zero and ignored on read.

Only a valid stream exists to be written, and readers build theirs through
the same checked constructor, so a file round trip (write, read, write) is
byte-exact.  EVB1 and the FRD1 frame container (``frames.py``) share one
block reader and one writer.
"""

from __future__ import annotations

import math
import os
import re
import stat
import struct
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

FORMATS = ("csv", "binary")

# Each attribute of a stream and its in-memory dtype, in record order.
_COLUMNS = {"t_us": np.int64, "x": np.uint16, "y": np.uint16, "p": np.int8}

_EVB1_MAGIC = b"EVB1"
_EVB1_HEADER = struct.Struct("<4sHHQ")
# Records are padded to 16 bytes so that timestamps stay 8-byte aligned.
_EVB1_RECORD = np.dtype(
    {
        "names": ["t_us", "x", "y", "p"],
        "formats": ["<u8", "<u2", "<u2", "<i1"],
        "offsets": [0, 8, 10, 12],
        "itemsize": 16,
    }
)

_CSV_HEADER_RE = re.compile(r"^# width=(\d+) height=(\d+)$")
_CSV_COLUMNS = "t_us,x,y,p"


# The largest sensor side: EVB1 and FRD1 headers store each side as u16.
MAX_SIDE = 0xFFFF


class FormatError(ValueError):
    """An input file is damaged, or its content breaks a stream invariant."""


def _is_int(value) -> bool:
    """An integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_int64(value) -> bool:
    """An integer (not a bool) that fits in int64."""
    return _is_int(value) and -2**63 <= value < 2**63


def _is_real(value) -> bool:
    """An integer or float (not a bool) that is not infinite, nor past
    float64's range.  NaN passes: each field's own rule refuses it by name.
    """
    try:
        return (_is_int(value) or isinstance(value, (float, np.floating))) and not math.isinf(value)
    except OverflowError:
        return False


# What each scalar annotation asks of its field's value.
_FIELD_RULES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_real),
    "bool": ("a bool", lambda value: isinstance(value, bool)),
    "str": ("a string", lambda value: isinstance(value, str)),
}


def _check_fields(config) -> None:
    """Refuse a config dataclass field whose value breaks its annotation's
    rule; an ``X | None`` field takes X's rule or None.  Tuple fields are
    left to their class's own check.  The annotations are strings, as each
    config module's ``from __future__ import annotations`` leaves them.
    """
    for f in fields(config):
        kind = f.type.removesuffix(" | None")
        if kind in _FIELD_RULES:
            value = getattr(config, f.name)
            expected, fits = _FIELD_RULES[kind]
            optional = kind != f.type
            if not (fits(value) or optional and value is None):
                or_none = " or None" if optional else ""
                raise ValueError(f"{f.name} must be {expected}{or_none}, got {value!r}")


def _check_sides(width, height, error=ValueError, where="") -> None:
    if not all(_is_int(side) and 0 < side <= MAX_SIDE for side in (width, height)):
        raise error(f"{where}sensor size {width!r}x{height!r} is outside 1..{MAX_SIDE} per side")


def _column(values, given: np.ndarray, dtype) -> np.ndarray:
    """``given``, which is ``np.asarray(values)``, as a C-ordered column of ``dtype``.

    Kept uncopied only when neither ``values`` nor the owner of its memory
    is writeable.
    """
    owner = values if getattr(values, "base", None) is None else values.base
    kept = all(isinstance(a, np.ndarray) and not a.flags.writeable for a in (values, owner))
    return np.array(given, dtype=dtype, order="C", copy=None if kept else True)


def _breaks(given: np.ndarray, side: int | None = None) -> np.ndarray:
    """Where a coordinate breaks ``0 <= v < side``, or (no side) a polarity ``|v| == 1``.

    Read in the given dtype, a float truncated toward zero as the cast to
    the column's dtype truncates it (NaN breaks both rules), so that no
    narrowing cast can wrap a bad value into range first.
    """
    if given.dtype.kind == "f":
        given = np.trunc(given)
    if side is None:
        return np.abs(given) != 1  # an int8 -128 has no absolute value: it stays -128
    if given.dtype == _COLUMNS["x"]:
        return given >= side  # unsigned: nothing lies below 0
    return ~((given >= 0) & (given < side))


class EventStream:
    """Immutable, valid collection of events for one sensor size.

    Construction refuses, with a ``ValueError``, a side that is not an
    integer in 1..MAX_SIDE and any broken stream rule.  Checked per event:
    non-negative timestamp, x within [0, width), y within [0, height),
    polarity in {+1, -1}; and pairwise: timestamps non-decreasing.  The
    error counts each broken check on each event once and names the first
    violation: the lowest index, the check listed first winning a tie.
    x, y and p are checked in the dtype they are given in (a float read as
    truncated toward zero), then narrowed to their column's dtype, so no
    value past a column's range is wrapped into it.

    Attribute arrays are read-only.  A writeable input is copied and a
    read-only one of the column's dtype kept, so no caller can write a
    stream's memory and a stream stays valid for its whole life.  That
    rests on numpy's writeable flag alone: a caller who turns it back on
    for a column or its ``.base`` and writes voids the stream's validity.
    Nothing in evtforce does so.
    """

    __slots__ = ("width", "height", "t_us", "x", "y", "p")

    def __init__(self, width, height, t_us=(), x=(), y=(), p=()):
        _check_sides(width, height)
        object.__setattr__(self, "width", int(width))
        object.__setattr__(self, "height", int(height))
        given = [np.asarray(values) for values in (t_us, x, y, p)]
        if any(a.ndim != 1 or a.shape != given[0].shape for a in given):
            raise ValueError("attribute arrays must be 1-D and equally long")
        t = _column(t_us, given[0], _COLUMNS["t_us"])
        nonmono = np.zeros(len(t), dtype=bool)
        # A comparison, not ``np.diff``: a difference of int64 timestamps can wrap.
        nonmono[1:] = t[1:] < t[:-1]
        # x, y and p are checked as given, before a narrowing cast could wrap
        # a bad value into range.
        checks = [
            (t < 0, "negative timestamp"),
            (nonmono, "non-monotonic timestamp"),
            (_breaks(given[1], self.width), "x out of range"),
            (_breaks(given[2], self.height), "y out of range"),
            (_breaks(given[3]), "polarity not in {+1, -1}"),
        ]
        count, first = 0, None
        for mask, reason in checks:
            hits = int(np.count_nonzero(mask))
            if hits:
                count += hits
                index = int(mask.argmax())
                # Strictly lower only: on a tie the earlier check keeps its place.
                if first is None or index < first[0]:
                    first = (index, reason)
        if count:
            raise ValueError(f"{count} violation(s), first is '{first[1]}' at index {first[0]}")
        for (name, dtype), values, a in zip(_COLUMNS.items(), (t_us, x, y, p), given):
            col = t if name == "t_us" else _column(values, a, dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError("EventStream is immutable")

    def __len__(self) -> int:
        return len(self.t_us)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.t_us, other.t_us)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.p, other.p)
        )

    @property
    def duration_us(self) -> int:
        """Half-open time span [0, duration) covering every event.

        Zero for an empty stream, else the last timestamp plus one.
        """
        return 0 if len(self) == 0 else int(self.t_us[-1]) + 1

    def __repr__(self) -> str:
        return f"EventStream({self.width}x{self.height}, {len(self)} events)"


def slice_window(stream: EventStream, t0_us: int, t1_us: int) -> EventStream:
    """Return the sub-stream with timestamps in the half-open [t0, t1).

    Requires t0 <= t1.  Slicing is O(log n) via binary search, its columns
    are views of the stream's, it is idempotent, and windows that
    partition [0, D) concatenate back to the original stream.
    """
    if t0_us > t1_us:
        raise ValueError("t0_us must not exceed t1_us")
    i0 = int(np.searchsorted(stream.t_us, t0_us, side="left"))
    i1 = int(np.searchsorted(stream.t_us, t1_us, side="left"))
    return EventStream(
        stream.width,
        stream.height,
        stream.t_us[i0:i1],
        stream.x[i0:i1],
        stream.y[i0:i1],
        stream.p[i0:i1],
    )


def concat_streams(parts: Iterable[EventStream]) -> EventStream:
    """Concatenate pieces that share one sensor size, in time order.

    Pieces out of time order make an invalid stream: a ``ValueError``.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one stream")
    w, h = parts[0].width, parts[0].height
    if any(p.width != w or p.height != h for p in parts):
        raise ValueError("streams have mismatched sensor sizes")
    return EventStream(
        w,
        h,
        np.concatenate([p.t_us for p in parts]),
        np.concatenate([p.x for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.p for p in parts]),
    )


def write_events(stream: EventStream, path, format: str = "binary") -> None:
    """Write a stream to ``path`` in the given format ('csv' or 'binary')."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "binary":
        header = _EVB1_HEADER.pack(_EVB1_MAGIC, stream.width, stream.height, len(stream))
        _write_records(path, header, _EVB1_RECORD, {c: getattr(stream, c) for c in _COLUMNS})
        return
    lines = [f"# width={stream.width} height={stream.height}", _CSV_COLUMNS]
    lines.extend(
        f"{t},{x},{y},{p}" for t, x, y, p in zip(stream.t_us, stream.x, stream.y, stream.p)
    )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_events(path, format: str = "binary") -> EventStream:
    """Read a stream from ``path``; the result is always a valid stream.

    Raises FileNotFoundError for a missing file, and FormatError for
    structural damage, a side outside 1..MAX_SIDE, or well-formed content
    that breaks an invariant.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    width, height, columns = _parse_csv(path) if format == "csv" else _parse_evb1(path)
    for col in columns:
        col.setflags(write=False)  # the parser's own arrays: the stream keeps them uncopied
    try:
        return EventStream(width, height, *columns)
    except ValueError as exc:
        raise FormatError(f"invalid stream in {path}: {exc}") from exc


def _parse_csv(path):
    """The sensor sides and the (t, x, y, p) columns of a CSV event file."""
    size = _file_size(path)
    try:
        text = Path(path).read_bytes().decode("ascii")
    except MemoryError as exc:
        raise FormatError(f"{path}: its {size} bytes do not fit in memory") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not an ascii event file") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty file")
    m = _CSV_HEADER_RE.match(lines[0])
    if m is None:
        raise FormatError(f"{path}: first line must be '# width=W height=H'")
    sides = m.group(1, 2)
    # int() fails past 4,300 digits, so a side of more digits than
    # MAX_SIDE, out of range whatever they are, is refused unparsed.
    if max(len(side.lstrip("0")) for side in sides) > len(str(MAX_SIDE)):
        raise FormatError(f"{path}: sensor size {'x'.join(sides)} is outside 1..{MAX_SIDE} per side")
    width, height = map(int, sides)
    _check_sides(width, height, FormatError, f"{path}: ")
    if len(lines) < 2 or lines[1] != _CSV_COLUMNS:
        raise FormatError(f"{path}: second line must be '{_CSV_COLUMNS}'")
    n = len(lines) - 2
    t = np.empty(n, dtype=np.int64)
    # Coordinates parse wider than their column, so that one outside the
    # sensor reads as out of range, not as a malformed record.
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    p = np.empty(n, dtype=np.int8)
    for i, line in enumerate(lines[2:]):
        fields = line.split(",")
        if len(fields) != 4:
            raise FormatError(f"{path}: malformed record at line {i + 3}")
        try:
            t[i], x[i], y[i], p[i] = (int(f) for f in fields)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: malformed record at line {i + 3}") from exc
    return width, height, (t, x, y, p)


# Fixed-record files are read and written at most this many bytes at a time.
_BLOCK_BYTES = 4 << 20


def _file_size(path) -> int:
    """Size of a regular input file; anything else (a pipe, say) is a ``FormatError``."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise FormatError(f"{path}: not a regular file")
    return info.st_size


def _write_records(path, header: bytes, record: np.dtype, columns: dict) -> None:
    """Write ``header``, then one ``record`` per row of the named columns.

    One zeroed block of at most ``_BLOCK_BYTES`` is filled and written in
    turn, so the bytes outside the named fields (padding) stay zero.
    """
    count = len(next(iter(columns.values())))
    per_block = max(1, _BLOCK_BYTES // record.itemsize)
    block = np.zeros(min(per_block, count), dtype=record)
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, count, per_block):
            part = block[: min(per_block, count - lo)]
            for name, values in columns.items():
                part[name] = values[lo : lo + len(part)]
            fh.write(part.data)


def _read_records(path, header: struct.Struct, magic: bytes, record_dtype, columns: dict):
    """A fixed-record file's header ``fields`` and one array per named column.

    The file is ``header`` (magic first, ``fields``, record count last),
    then exactly count records of ``record_dtype(*fields)``.  A short
    header, a wrong magic, a geometry numpy cannot hold, a short payload or
    trailing bytes is a ``FormatError`` raised before any allocation.
    ``columns`` maps fields to output dtypes; each output is allocated once
    and filled one block of at most ``_BLOCK_BYTES`` at a time.
    """
    size = _file_size(path)
    if size < header.size:
        raise FormatError(f"{path}: file shorter than the {header.size}-byte header")
    with open(path, "rb") as fh:
        found, *fields, count = header.unpack(fh.read(header.size))
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        try:
            record = record_dtype(*fields)
        except ValueError as exc:
            raise FormatError(f"{path}: unusable record geometry {fields} ({exc})") from exc
        body = size - header.size
        expected = count * record.itemsize
        if body < expected:
            raise FormatError(
                f"{path}: declared {count} records but payload holds {body // record.itemsize}"
            )
        if body > expected:
            raise FormatError(f"{path}: {body - expected} trailing byte(s) after records")
        try:
            out = {
                name: np.empty((count, *record[name].shape), dtype=dtype)
                for name, dtype in columns.items()
            }
        except MemoryError as exc:
            raise FormatError(f"{path}: its {count} declared records do not fit in memory") from exc
        per_block = max(1, _BLOCK_BYTES // record.itemsize)
        for lo in range(0, count, per_block):
            block = np.fromfile(fh, dtype=record, count=min(per_block, count - lo))
            for name, values in out.items():  # a short read (the file shrank) fails here
                values[lo : lo + per_block] = block[name]
    return fields, out


def _parse_evb1(path):
    """The sensor sides and the (t, x, y, p) columns of an EVB1 event file."""
    (width, height), columns = _read_records(
        path, _EVB1_HEADER, _EVB1_MAGIC, lambda width, height: _EVB1_RECORD, _COLUMNS
    )
    return width, height, tuple(columns.values())
