"""Event stream construction and its checks, slicing, and file round trips."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtforce import events
from evtforce.events import (
    EventStream,
    FormatError,
    concat_streams,
    read_events,
    slice_window,
    write_events,
)

from conftest import make_stream, traced_memory


# Bare lists of (t, x, y, p) tuples; sorting by t makes them valid streams.
event_tuples = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 31),
        st.integers(0, 23),
        st.sampled_from([-1, 1]),
    ),
    max_size=120,
)


def stream_from_tuples(rows, width=32, height=24):
    rows = sorted(rows, key=lambda r: r[0])
    return EventStream(
        width,
        height,
        t_us=[r[0] for r in rows],
        x=[r[1] for r in rows],
        y=[r[2] for r in rows],
        p=[r[3] for r in rows],
    )


class TestEventStream:
    def test_columns_and_dtypes(self):
        s = EventStream(8, 8, t_us=[100], x=[3], y=[2], p=[1])
        assert (s.t_us.dtype, s.x.dtype, s.y.dtype, s.p.dtype) == (
            np.int64,
            np.uint16,
            np.uint16,
            np.int8,
        )
        assert (s.t_us.tolist(), s.x.tolist(), s.y.tolist(), s.p.tolist()) == (
            [100], [3], [2], [1]
        )

    def test_immutable(self):
        s = EventStream(8, 8, t_us=[1], x=[0], y=[0], p=[1])
        with pytest.raises(AttributeError):
            s.width = 9
        with pytest.raises(ValueError):
            s.t_us[0] = 5

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            EventStream(8, 8, t_us=[1, 2], x=[0], y=[0], p=[1])

    def test_bad_sensor_size_rejected(self):
        with pytest.raises(ValueError):
            EventStream(0, 8)

    @pytest.mark.parametrize("width, height", [(65536, 1), (1, 65536)])
    def test_side_past_u16_rejected(self, width, height):
        with pytest.raises(ValueError, match=f"sensor size {width}x{height} is outside 1..65535"):
            EventStream(width, height)
        assert EventStream(65535, 65535).width == 65535

    @pytest.mark.parametrize("width, height", [(4.5, 4), (True, 4), ("4", 4), (4, 4.0)])
    def test_side_must_be_an_integer(self, width, height):
        # 4.5 was once taken as a 4-wide sensor, True as a 1-wide one, and
        # '4' ended in a TypeError.
        shown = re.escape(f"{width!r}x{height!r}")
        with pytest.raises(ValueError, match=f"^sensor size {shown} is outside 1..65535"):
            EventStream(width, height)
        assert type(EventStream(np.int64(4), 4).width) is int

    def test_duration_empty_is_zero(self):
        assert EventStream(8, 8).duration_us == 0

    def test_duration_is_last_timestamp_plus_one(self):
        s = EventStream(8, 8, t_us=[0, 41_000], x=[0, 0], y=[0, 0], p=[1, 1])
        assert s.duration_us == 41_001

    def test_unsorted_stream_is_refused(self):
        # Accepted, this stream gave a count frame of 3 for [0, 100), where 2
        # events lie, and a duration that hid the event at t = 250.
        with pytest.raises(ValueError, match="first is 'non-monotonic timestamp' at index 2"):
            EventStream(4, 4, t_us=[50, 250, 10, 120], x=[0, 1, 2, 3], y=[0] * 4, p=[1] * 4)

    def test_out_of_order_parts_do_not_concatenate(self):
        s = EventStream(4, 4, t_us=[10, 20, 30], x=[0, 1, 2], y=[0] * 3, p=[1] * 3)
        with pytest.raises(ValueError, match="first is 'non-monotonic timestamp' at index 2"):
            concat_streams([slice_window(s, 20, 40), slice_window(s, 0, 20)])

    def test_writeable_input_is_copied(self):
        base = np.arange(4, dtype=np.int32)
        view = base[:2]
        s = EventStream(5, 4, [0, 1], view, [1, 1], [1, 1])
        assert base.flags.writeable and view.flags.writeable
        base[1] = 9
        view[0] = 7
        assert s.x.tolist() == [0, 1]
        assert not np.shares_memory(s.x, base)

    def test_read_only_view_of_writeable_memory_is_copied(self):
        base = np.arange(4, dtype=np.int32)
        view = base[:2]
        view.setflags(write=False)
        s = EventStream(5, 4, [0, 1], view, [1, 1], [1, 1])
        base[1] = 9
        assert s.x.tolist() == [0, 1]

    def test_read_only_input_of_the_column_dtype_is_kept(self):
        t = np.array([3, 5], dtype=np.int64)
        t.setflags(write=False)
        s = EventStream(5, 4, t, [0, 1], [1, 1], [1, 1])
        assert s.t_us is t
        assert not s.x.flags.writeable

    def test_slice_shares_the_parents_memory(self, rng):
        s = make_stream(rng)
        w = slice_window(s, 100_000, 600_000)
        assert 0 < len(w) < len(s)
        for name in ("t_us", "x", "y", "p"):
            assert np.shares_memory(getattr(w, name), getattr(s, name)), name


def reference_violations(width, height, t_us, x, y, p):
    """Every (index, reason) violation, one per broken check per event, by index.

    A per-event reference for the ``EventStream`` checks, written
    independently of them: on one index the checks keep their documented
    order.
    """
    found = []
    for i in range(len(t_us)):
        t, xi, yi, pi = (int(c[i]) for c in (t_us, x, y, p))
        if t < 0:
            found.append((i, "negative timestamp"))
        if i > 0 and t < int(t_us[i - 1]):
            found.append((i, "non-monotonic timestamp"))
        if not 0 <= xi < width:
            found.append((i, "x out of range"))
        if not 0 <= yi < height:
            found.append((i, "y out of range"))
        if pi not in (1, -1):
            found.append((i, "polarity not in {+1, -1}"))
    return found


def refusal(width, height, t_us, x, y, p):
    """The (count, (index, reason)) of ``EventStream``'s refusal, or None if it builds."""
    try:
        EventStream(width, height, t_us, x, y, p)
    except ValueError as exc:
        m = re.fullmatch(r"(\d+) violation\(s\), first is '(.+)' at index (\d+)", str(exc))
        assert m, str(exc)
        return int(m[1]), (int(m[3]), m[2])
    return None


class TestValidate:
    def test_valid_random_streams(self, rng):
        for _ in range(20):
            s = make_stream(rng)
            assert refusal(s.width, s.height, s.t_us, s.x, s.y, s.p) is None

    def test_empty_is_valid(self):
        assert len(EventStream(8, 8)) == 0
        assert refusal(8, 8, [], [], [], []) is None

    def test_non_monotonic_flagged_at_second_index(self):
        assert refusal(8, 8, [5, 3], [0, 0], [0, 0], [1, 1]) == (
            1, (1, "non-monotonic timestamp"))

    def test_equal_timestamps_allowed(self):
        assert refusal(8, 8, [3, 3], [0, 1], [0, 0], [1, -1]) is None

    def test_negative_timestamp(self):
        assert refusal(8, 8, [-1], [0], [0], [1])[1][1] == "negative timestamp"

    def test_coordinate_bounds_are_exclusive(self):
        cols = ([0, 1], [8, 0], [0, 6], [1, 1])
        assert reference_violations(8, 6, *cols) == [(0, "x out of range"), (1, "y out of range")]
        assert refusal(8, 6, *cols) == (2, (0, "x out of range"))
        assert refusal(8, 6, [0, 1], [7, 0], [0, 5], [1, 1]) is None

    def test_zero_polarity_flagged(self):
        assert refusal(8, 8, [0], [0], [0], [0])[1][1] == "polarity not in {+1, -1}"
        # The int8 extremes, whose absolute value or square wraps round.
        assert refusal(8, 8, [0, 1], [0, 0], [0, 0], [-128, 127]) == (
            2, (0, "polarity not in {+1, -1}"))

    @pytest.mark.parametrize(
        "column, values, reason",
        [
            ("x", np.array([2**32 + 1]), "x out of range"),
            ("p", np.array([257]), "polarity not in {+1, -1}"),
            ("x", [2**32 + 1], "x out of range"),
            ("x", [2**64], "x out of range"),
            ("x", np.array([65539]), "x out of range"),
            ("y", np.array([-1], np.int64), "y out of range"),
            ("x", [65539.0], "x out of range"),
            ("y", [np.nan], "y out of range"),
        ],
        ids=["int32-wrap", "int8-wrap", "list-past-int32", "list-past-uint64", "uint16-wrap",
             "negative-int64", "float-past-uint16", "nan"],
    )
    def test_a_value_past_its_column_is_refused_before_narrowing(self, column, values, reason):
        # A cast before the check would wrap each into range (2**32 + 1 to
        # x = 1 as int32, 257 to p = +1 as int8, 65539 to 3 and -1 to 65535
        # as uint16) or raise OverflowError on a Python int past the column.
        cols = {"t_us": [0], "x": [0], "y": [0], "p": [1]}
        cols[column] = values
        message = f"1 violation(s), first is '{reason}' at index 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            EventStream(4, 4, **cols)

    def test_floats_are_truncated(self):
        s = EventStream(4, 4, [0, 1], [3.9, -0.5], [0.0, 2.5], [1.5, -1.0])
        assert (s.x.tolist(), s.y.tolist(), s.p.tolist()) == ([3, 0], [0, 2], [1, -1])

    @pytest.mark.parametrize(
        "t_us, count, first",
        [
            # The int64 difference of these timestamps would wrap round.
            ([-1, 2**63 - 1], 1, (0, "negative timestamp")),
            ([5, -(2**63) + 3], 2, (1, "negative timestamp")),
        ],
    )
    def test_order_is_compared_not_differenced(self, t_us, count, first):
        cols = (t_us, [0, 0], [0, 0], [1, 1])
        assert len(reference_violations(8, 8, *cols)) == count
        assert refusal(8, 8, *cols) == (count, first)

    def test_timestamp_past_int64_reads_as_two_violations(self, tmp_path):
        path = tmp_path / "s.evb1"
        path.write_bytes(struct.pack("<4sHHQ", b"EVB1", 8, 8, 2)
                         + struct.pack("<QHHb3x", 5, 0, 0, 1)
                         + struct.pack("<QHHb3x", 2**63 + 3, 0, 0, 1))
        with pytest.raises(FormatError,
                           match="2 violation\\(s\\), first is 'negative timestamp' at index 1"):
            read_events(path)

    def test_violations_sorted_by_index(self):
        cols = ([0, 1, 2], [0, 8, 0], [0, 0, 0], [0, 1, 2])
        idx = [i for i, _ in reference_violations(8, 8, *cols)]
        assert idx == sorted(idx) == [0, 1, 2]
        assert refusal(8, 8, *cols) == (3, (0, "polarity not in {+1, -1}"))


# Unsorted rows with values on both sides of every bound, so one event can
# break several invariants at once and many events can break the same one.
bad_event_tuples = st.lists(
    st.tuples(
        st.integers(-3, 20),
        st.integers(-2, 9),
        st.integers(-2, 7),
        st.integers(-2, 2),
    ),
    max_size=60,
)


class TestViolationSummary:
    @given(rows=bad_event_tuples)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_event_reference(self, rows):
        cols = list(zip(*rows)) if rows else [(), (), (), ()]
        expected = reference_violations(8, 6, *cols)
        got = refusal(8, 6, *cols)
        assert got == ((len(expected), expected[0]) if expected else None)

    @given(rows=bad_event_tuples)
    @settings(max_examples=100, deadline=None)
    def test_rejection_message_names_first_violation_and_count(self, rows, tmp_path_factory):
        # A CSV file can hold any such row; reading it gives the constructor's
        # refusal, prefixed with the path.
        path = tmp_path_factory.mktemp("r") / "s.csv"
        path.write_text("# width=8 height=6\nt_us,x,y,p\n"
                        + "".join(f"{t},{x},{y},{p}\n" for t, x, y, p in rows))
        violations = reference_violations(8, 6, *(list(zip(*rows)) if rows else [()] * 4))
        if not violations:
            assert len(read_events(path, format="csv")) == len(rows)
            return
        with pytest.raises(FormatError) as err:
            read_events(path, format="csv")
        index, reason = violations[0]
        assert str(err.value) == (
            f"invalid stream in {path}: {len(violations)} violation(s), "
            f"first is '{reason}' at index {index}"
        )

    def test_tie_goes_to_the_earlier_check(self):
        # Index 1 is both non-monotonic and out of range in x; the
        # timestamp check is listed first.
        assert refusal(8, 8, [5, 3], [0, 9], [0, 0], [1, 1]) == (
            2, (1, "non-monotonic timestamp"))

    def test_read_rejects_a_file_of_bad_events(self, tmp_path):
        n = 100_000
        records = np.zeros(n, dtype=[("t", "<u8"), ("x", "<u2"), ("y", "<u2"),
                                     ("p", "i1"), ("pad", "V3")])
        records["t"] = np.arange(n)[::-1]
        records["p"] = 0
        path = tmp_path / "bad.evb1"
        path.write_bytes(struct.pack("<4sHHQ", b"EVB1", 8, 8, n) + records.tobytes())
        with pytest.raises(FormatError, match=(
            rf"{2 * n - 1} violation\(s\), first is 'polarity not in {{\+1, -1}}' at index 0"
        )):
            read_events(path)


class TestSliceWindow:
    def test_half_open(self):
        s = EventStream(8, 8, t_us=[0, 10, 20], x=[0, 1, 2], y=[0, 0, 0], p=[1, 1, 1])
        w = slice_window(s, 0, 20)
        assert list(w.t_us) == [0, 10]
        assert list(slice_window(s, 20, 21).t_us) == [20]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            slice_window(EventStream(8, 8), 5, 4)

    def test_empty_window(self):
        s = EventStream(8, 8, t_us=[10], x=[0], y=[0], p=[1])
        assert len(slice_window(s, 0, 10)) == 0

    @given(rows=event_tuples, edges=st.lists(st.integers(0, 10_001), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_partition_concatenates_back(self, rows, edges):
        s = stream_from_tuples(rows)
        edges = sorted(edges)
        edges[0], edges[-1] = 0, 10_001
        parts = [slice_window(s, a, b) for a, b in zip(edges, edges[1:])]
        assert concat_streams(parts) == s
        assert sum(len(p) for p in parts) == len(s)

    @given(rows=event_tuples, t0=st.integers(0, 10_000), span=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, rows, t0, span):
        s = stream_from_tuples(rows)
        w = slice_window(s, t0, t0 + span)
        assert slice_window(w, t0, t0 + span) == w

    def test_concat_needs_matching_sensor(self):
        with pytest.raises(ValueError):
            concat_streams([EventStream(8, 8), EventStream(9, 8)])
        with pytest.raises(ValueError):
            concat_streams([])


class TestCsvFormat:
    def test_exact_bytes(self, tmp_path):
        s = EventStream(8, 8, t_us=[100, 250], x=[3, 0], y=[2, 7], p=[1, -1])
        path = tmp_path / "s.csv"
        write_events(s, path, format="csv")
        assert path.read_bytes() == b"# width=8 height=8\nt_us,x,y,p\n100,3,2,1\n250,0,7,-1\n"

    def test_parse_hand_written(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# width=8 height=8\nt_us,x,y,p\n100,3,2,1\n")
        s = read_events(path, format="csv")
        assert s == EventStream(8, 8, t_us=[100], x=[3], y=[2], p=[1])

    def test_header_only_is_empty_stream(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# width=4 height=4\nt_us,x,y,p\n")
        s = read_events(path, format="csv")
        assert len(s) == 0 and (s.width, s.height) == (4, 4)

    # Each damaged header and the message it is refused with.
    HEADER_ERRORS = {
        "": "empty file",
        "width=8 height=8\nt_us,x,y,p\n": "first line must be",
        "# width=8\nt_us,x,y,p\n": "first line must be",
        "# width=0 height=8\nt_us,x,y,p\n": "sensor size 0x8 is outside 1..65535",
        "# width=8 height=8\nt,x,y,p\n": "second line must be",
        "# width=8 height=8\n": "second line must be",
    }

    @pytest.mark.parametrize("text", list(HEADER_ERRORS))
    def test_header_errors(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=self.HEADER_ERRORS[text]):
            read_events(path, format="csv")

    @pytest.mark.parametrize(
        "row", ["100,3,2", "100,3,2,1,9", "abc,3,2,1", "100,3.5,2,1", ""]
    )
    def test_malformed_rows(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"# width=8 height=8\nt_us,x,y,p\n{row}\n")
        with pytest.raises(FormatError):
            read_events(path, format="csv")

    def test_well_formed_but_invalid_content(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# width=8 height=8\nt_us,x,y,p\n100,8,2,1\n")
        with pytest.raises(FormatError, match=r"1 violation\(s\), first is 'x out of range'"):
            read_events(path, format="csv")


class TestBinaryFormat:
    def test_record_layout_is_16_bytes(self, tmp_path, rng):
        s = make_stream(rng, n=7)
        path = tmp_path / "s.evb1"
        write_events(s, path, format="binary")
        assert path.stat().st_size == 16 + 16 * 7
        assert path.read_bytes()[:4] == b"EVB1"

    def test_field_offsets(self, tmp_path):
        s = EventStream(4096, 16, t_us=[0x0102030405], x=[0xBEEF >> 4], y=[7], p=[-1])
        path = tmp_path / "s.evb1"
        write_events(s, path, format="binary")
        rec = path.read_bytes()[16:]
        assert int.from_bytes(rec[0:8], "little") == 0x0102030405
        assert int.from_bytes(rec[8:10], "little") == 0xBEEF >> 4
        assert int.from_bytes(rec[10:12], "little") == 7
        assert int.from_bytes(rec[12:13], "little", signed=True) == -1
        assert rec[13:16] == b"\x00\x00\x00"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.evb1"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="bad magic"):
            read_events(path, format="binary")

    def test_short_header(self, tmp_path):
        path = tmp_path / "bad.evb1"
        path.write_bytes(b"EVB1\x01")
        with pytest.raises(FormatError, match="shorter than the 16-byte header"):
            read_events(path, format="binary")

    def test_truncated_payload(self, tmp_path, rng):
        s = make_stream(rng, n=5)
        path = tmp_path / "s.evb1"
        write_events(s, path, format="binary")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="declared 5 records but payload holds 4"):
            read_events(path, format="binary")

    def test_trailing_bytes(self, tmp_path, rng):
        s = make_stream(rng, n=5)
        path = tmp_path / "s.evb1"
        write_events(s, path, format="binary")
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_events(path, format="binary")

    def test_invalid_content_in_valid_container(self, tmp_path):
        # p = 0 is representable on disk but breaks the stream invariant.
        import struct

        payload = struct.pack("<4sHHQ", b"EVB1", 8, 8, 1) + struct.pack(
            "<QHHb3x", 5, 1, 1, 0
        )
        path = tmp_path / "bad.evb1"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match=r"1 violation\(s\), first is 'polarity not in"):
            read_events(path, format="binary")

    def test_oversized_sensor_rejected(self):
        with pytest.raises(ValueError, match="outside 1..65535"):
            EventStream(70_000, 8)


class TestBlocks:
    """EVB1 moved three 16-byte records at a time, across block edges."""

    @pytest.mark.parametrize("n", [0, 1, 3, 4, 7])
    def test_round_trip_matches_one_block(self, tmp_path, rng, monkeypatch, n):
        s = make_stream(rng, n=n)
        whole, blocked = tmp_path / "whole.evb1", tmp_path / "blocked.evb1"
        write_events(s, whole)
        monkeypatch.setattr(events, "_BLOCK_BYTES", 3 * 16 + 8)
        write_events(s, blocked)
        assert blocked.read_bytes() == whole.read_bytes()
        assert read_events(blocked) == read_events(whole) == s

    def test_bad_event_in_a_block_edge_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events, "_BLOCK_BYTES", 3 * 16)
        payload = b"".join(struct.pack("<QHHb3x", t, 0, 0, 1 if t != 2 else 0) for t in range(4))
        path = tmp_path / "bad.evb1"
        path.write_bytes(struct.pack("<4sHHQ", b"EVB1", 8, 8, 4) + payload)
        with pytest.raises(FormatError, match="first is 'polarity not in .* at index 2"):
            read_events(path)

    def test_file_that_shrinks_while_read_is_an_error(self, tmp_path, rng, monkeypatch):
        # The size says four records, but the last is gone by the time it is read.
        path = tmp_path / "s.evb1"
        write_events(make_stream(rng, n=4), path)
        path.write_bytes(path.read_bytes()[:-16])
        monkeypatch.setattr(events, "_file_size", lambda p: 16 + 4 * 16)
        monkeypatch.setattr(events, "_BLOCK_BYTES", 3 * 16)
        with pytest.raises(ValueError, match="could not broadcast"):
            read_events(path)

    @pytest.mark.parametrize("format", ["csv", "binary"])
    def test_only_regular_files_are_read(self, tmp_path, format):
        with pytest.raises(FormatError) as info:
            read_events(tmp_path, format=format)
        assert str(info.value) == f"{tmp_path}: not a regular file"


class TestRoundTrips:
    @pytest.mark.parametrize("format", ["csv", "binary"])
    def test_write_read_write_is_byte_exact(self, tmp_path, rng, format):
        for i in range(10):
            s = make_stream(rng, n=int(rng.integers(0, 300)))
            p1 = tmp_path / f"a{i}.{format}"
            p2 = tmp_path / f"b{i}.{format}"
            write_events(s, p1, format=format)
            back = read_events(p1, format=format)
            assert back == s
            write_events(back, p2, format=format)
            assert p1.read_bytes() == p2.read_bytes()

    def test_million_event_binary_round_trip(self, tmp_path, rng):
        s = make_stream(rng, n=1_000_000, width=320, height=240, t_max=4_000_000)
        path = tmp_path / "big.evb1"
        write_events(s, path, format="binary")
        assert read_events(path, format="binary") == s

    def test_read_holds_13_bytes_per_event(self, tmp_path, rng):
        # 8 B of t, 2 B each of x and y, 1 B of p.
        # The slack is for array headers and interpreter caches, which do
        # not grow with n (1.3 to 2.5 KiB seen).
        n = 1_000_000
        path = tmp_path / "big.evb1"
        write_events(make_stream(rng, n=n, width=320, height=240, t_max=4_000_000), path)
        stream, live, _ = traced_memory(read_events, path)
        assert len(stream) == n
        assert live <= 13 * n + 64 * 1024

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_events(tmp_path / "nope.evb1", format="binary")

    def test_unknown_format_rejected(self, tmp_path, rng):
        with pytest.raises(ValueError):
            write_events(make_stream(rng), tmp_path / "s.bin", format="parquet")
        with pytest.raises(ValueError):
            read_events(tmp_path / "s.bin", format="parquet")
