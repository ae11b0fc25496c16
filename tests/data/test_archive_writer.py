"""Byte-exact test of the archive's tuple-row writer.

Both archive writers (:class:`ArchiveAppender` and
:func:`write_archive_day`) encode each record as a tuple of its fields in
column order.  The oracle is the writer they replaced: ``csv.DictWriter``
over the record's ``to_dict()``.  Every table file must equal the oracle's
bytes, the byte offsets the fleet checkpoint records must be the oracle's
cumulative lengths, and the files must read back to the same records.
"""

import csv
import io
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.archive import (
    ArchiveAppender,
    load_archive_day,
    read_telemetry_slice,
    write_archive_day,
)
from repro.streaming.telemetry import (
    BufferEvent,
    ClientBufferRecord,
    TelemetryLog,
    VideoAckedRecord,
    VideoSentRecord,
)

TABLES = ("video_sent", "video_acked", "client_buffer")

AWKWARD = [0.0, -0.0, 1e-7, 1e22, 1e16, 0.1 + 0.2, 5e-324,
           1.7976931348623157e308, 123456789.125, -2.5e-310]

floats = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(allow_nan=False, allow_infinity=False),
)
ints = st.one_of(st.sampled_from([0, -1, 2**53 + 1]), st.integers())


@st.composite
def telemetry_st(draw):
    log = TelemetryLog()
    for _ in range(draw(st.integers(0, 6))):
        log.video_sent.append(
            VideoSentRecord(
                *[draw(floats)] + [draw(ints) for _ in range(3)]
                + [draw(floats) for _ in range(7)]
            )
        )
    for _ in range(draw(st.integers(0, 6))):
        log.video_acked.append(
            VideoAckedRecord(draw(floats), draw(ints), draw(ints), draw(ints))
        )
    for _ in range(draw(st.integers(0, 6))):
        log.client_buffer.append(
            ClientBufferRecord(
                draw(floats), draw(ints), draw(ints),
                draw(st.sampled_from(list(BufferEvent))),
                draw(floats), draw(floats),
            )
        )
    return log


def oracle_rows(records) -> bytes:
    """What ``csv.DictWriter`` writes for these records' ``to_dict()``."""
    buffer = io.StringIO(newline="")
    if records:
        writer = csv.DictWriter(buffer, fieldnames=list(records[0].to_dict()))
        for record in records:
            writer.writerow(record.to_dict())
    return buffer.getvalue().encode("utf-8")


def oracle_header(table) -> bytes:
    fields = {
        "video_sent": VideoSentRecord,
        "video_acked": VideoAckedRecord,
        "client_buffer": ClientBufferRecord,
    }[table].__dataclass_fields__
    buffer = io.StringIO(newline="")
    csv.DictWriter(buffer, fieldnames=list(fields)).writeheader()
    return buffer.getvalue().encode("utf-8")


def concat(logs: List[TelemetryLog]) -> TelemetryLog:
    whole = TelemetryLog()
    for log in logs:
        for table in TABLES:
            getattr(whole, table).extend(getattr(log, table))
    return whole


def exact(records):
    """Field reprs, so -0.0 and 0.0 (equal as floats) stay distinct."""
    return [
        [repr(value) for value in record.to_dict().values()]
        for record in records
    ]


def table_path(directory, table):
    return directory / f"{table}.csv"


class TestTupleRowWriter:
    @settings(max_examples=60, deadline=None)
    @given(telemetry=telemetry_st())
    def test_write_archive_day_matches_dictwriter(self, telemetry, tmp_path_factory):
        directory = tmp_path_factory.mktemp("day")
        write_archive_day(telemetry, directory)
        for table in TABLES:
            assert table_path(directory, table).read_bytes() == (
                oracle_header(table) + oracle_rows(getattr(telemetry, table))
            )
        loaded = load_archive_day(directory)
        for table in TABLES:
            assert exact(getattr(loaded, table)) == exact(
                getattr(telemetry, table)
            )

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(telemetry_st(), min_size=1, max_size=4))
    def test_appender_matches_dictwriter_and_offsets(
        self, batches, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("append")
        with ArchiveAppender(directory) as appender:
            expected = {table: oracle_header(table) for table in TABLES}
            assert appender.offsets() == {
                table: len(expected[table]) for table in TABLES
            }
            marks = [appender.offsets()]
            for batch in batches:
                appender.append(batch)
                for table in TABLES:
                    expected[table] += oracle_rows(getattr(batch, table))
                # Checkpoint offsets are the oracle's cumulative lengths.
                assert appender.offsets() == {
                    table: len(expected[table]) for table in sorted(TABLES)
                }
                marks.append(appender.offsets())
            for table in TABLES:
                assert table_path(directory, table).read_bytes() == (
                    expected[table]
                )
            # Every recorded slice reads back to exactly its batch.
            for batch, start, end in zip(batches, marks, marks[1:]):
                got = read_telemetry_slice(directory, start, end)
                for table in TABLES:
                    assert exact(getattr(got, table)) == exact(
                        getattr(batch, table)
                    )
            # Rolling back to the first commit and re-appending the rest
            # reproduces the same bytes (the resume path).
            appender.truncate_to(marks[1])
            for batch in batches[1:]:
                appender.append(batch)
            appender.flush()
            for table in TABLES:
                assert table_path(directory, table).read_bytes() == (
                    expected[table]
                )
        assert exact(load_archive_day(directory).client_buffer) == exact(
            concat(batches).client_buffer
        )

    def test_every_buffer_event_written_as_its_value(self, tmp_path):
        log = TelemetryLog()
        for i, event in enumerate(BufferEvent):
            log.client_buffer.append(
                ClientBufferRecord(0.25 * i, 7, 3, event, 1e-7, -0.0)
            )
        write_archive_day(log, tmp_path)
        lines = table_path(tmp_path, "client_buffer").read_bytes().split(
            b"\r\n"
        )
        assert lines[1:-1] == [
            f"{0.25 * i},7,3,{event.value},1e-07,-0.0".encode()
            for i, event in enumerate(BufferEvent)
        ]
        assert [r.event for r in load_archive_day(tmp_path).client_buffer] == (
            list(BufferEvent)
        )

    def test_reset_rewrites_the_header(self, tmp_path):
        log = TelemetryLog()
        log.video_acked.append(VideoAckedRecord(1e22, 1, 2, 3))
        with ArchiveAppender(tmp_path) as appender:
            appender.append(log)
            appender.reset()
            appender.append(log)
        assert table_path(tmp_path, "video_acked").read_bytes() == (
            oracle_header("video_acked") + oracle_rows(log.video_acked)
        )
