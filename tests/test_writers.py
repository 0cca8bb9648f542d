"""The artifact writers give the bytes of the csv.writer code they replaced.

`write_timeline_csv` formats each run's row once and fills it with the
run's times and payloads, and `write_radio_csv` formats its rows itself.
The functions below are the earlier csv.writer versions, kept as oracles:
every file must match them byte for byte, over records with times up to
about 4,000 s, equal stamps, zero payloads, every record kind, directions
and kinds that need quoting, and several connections, and over radio
timelines that hold beacon trains.  A timeline file reads back as the
records written, into the columns and runs of the Timeline that the earlier
per-row reader's record list gives.
"""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsim.radio import (
    ACTIVE,
    DCH,
    FACH,
    IDLE,
    PCH,
    PSM_IDLE,
    SLEEP,
    BeaconTrain,
    StateSegment,
    expand_segments,
    write_radio_csv,
)
from streamsim.transport import (
    CLOSE_FIN,
    CLOSE_RST,
    DATA,
    DOWN,
    OPEN,
    REQUEST,
    TIMELINE_HEADER,
    UP,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
    PacketRecord,
    Timeline,
    read_timeline_csv,
    write_timeline_csv,
)

KINDS = [DATA, ZERO_WINDOW_AD, ZERO_WINDOW_PROBE, OPEN, CLOSE_FIN, CLOSE_RST, REQUEST]
STATES = [DCH, FACH, PCH, IDLE, ACTIVE, PSM_IDLE, SLEEP]


def oracle_timeline_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TIMELINE_HEADER)
        for r in records:
            w.writerow(["%.6f" % r.time, r.direction, r.payload, r.kind, r.conn_id])


def oracle_read_timeline_csv(path):
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None:
            raise ValueError("%s: empty file, no timeline header" % path)
        if header != TIMELINE_HEADER:
            raise ValueError("%s: unexpected timeline header: %s" % (path, header))
        try:
            for row in rd:
                t, direction, payload, kind, conn_id = row
                time, nbytes = float(t), int(payload)
                if not math.isfinite(time):
                    raise ValueError("time %r is not finite" % t)
                if nbytes < 0:
                    raise ValueError("byte count %r is negative" % payload)
                out.append(PacketRecord(time, direction, nbytes, kind, int(conn_id)))
        except ValueError as exc:
            raise ValueError("%s line %d: %s" % (path, rd.line_num, exc)) from None
    return out


def oracle_radio_csv(segments, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state", "start_s", "end_s"])
        for seg in expand_segments(segments):
            w.writerow([seg.state, "%.6f" % seg.start, "%.6f" % seg.end])


# times that repeat, and ones on a rounding edge of the sixth decimal
stamps = st.one_of(
    st.floats(0.0, 4_000.0),
    st.sampled_from([0.0, 0.01, 0.0000005, 1234.5678905, 3999.9999995]),
)

# directions and kinds that csv.writer must quote (a comma, a quote, a line
# break) or that a % format would read as a directive
fields = st.text(alphabet=',"\r\n% ad', max_size=4)

records = st.lists(
    st.builds(
        PacketRecord,
        time=stamps,
        direction=st.one_of(st.sampled_from([DOWN, UP]), fields),
        payload=st.one_of(st.just(0), st.integers(1, 10_000_000)),
        kind=st.one_of(st.sampled_from(KINDS), fields),
        conn_id=st.integers(1, 4),
    ),
    max_size=60,
)


@st.composite
def beacon_train(draw):
    start = draw(stamps)
    interval = draw(st.sampled_from([0.1, 0.1024, 0.3]))
    count = draw(st.integers(1, 12))
    end = start
    for _ in range(count):
        end += interval
    return BeaconTrain(start, end, count, interval, draw(st.sampled_from([0.0, 0.002, 0.01])))


segments = st.lists(
    st.one_of(
        st.builds(StateSegment, state=st.sampled_from(STATES), start=stamps, end=stamps),
        beacon_train(),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(records)
def test_timeline_csv_matches_csv_writer(tmp_path_factory, recs):
    out = tmp_path_factory.mktemp("timeline")
    write_timeline_csv(recs, out / "got.csv")
    oracle_timeline_csv(recs, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
    back = read_timeline_csv(out / "got.csv")
    assert [(r.direction, r.payload, r.kind, r.conn_id) for r in back] == [
        (r.direction, r.payload, r.kind, r.conn_id) for r in recs]


def outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_reads_as_the_row_reader(path):
    """read_timeline_csv gives the Timeline of the per-row reader's records,
    or the same error."""
    want, got = outcome(oracle_read_timeline_csv, path), outcome(read_timeline_csv, path)
    if isinstance(want, tuple):
        assert got == want
        return
    want = Timeline.of(want)
    assert type(got) is Timeline and got._rows is None
    assert list(map(repr, got.time)) == list(map(repr, want.time))
    assert got.payload == want.payload and list(got.runs()) == list(want.runs())


@settings(max_examples=200, deadline=None)
@given(records, st.data())
def test_timeline_csv_reads_into_the_row_readers_columns(tmp_path_factory, recs, data):
    path = tmp_path_factory.mktemp("read") / "t.csv"
    write_timeline_csv(recs, path)
    lines = path.read_bytes().split(b"\r\n")
    # a connection id written with a leading zero, next to rows that spell it
    # without: both read as one connection, in one run
    for i in data.draw(st.lists(st.integers(1, max(1, len(lines) - 2)), max_size=4)):
        if i < len(lines) - 1 and lines[i].endswith((b",1", b",2")):
            lines[i] = lines[i][:-1] + b"0" + lines[i][-1:]
    path.write_bytes(b"\r\n".join(lines))
    assert_reads_as_the_row_reader(path)


@pytest.mark.parametrize("text", [
    "",
    "t,dir,n\n0.01,down,1000\n",
    "time_s,direction,bytes,kind,conn_id\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\n0.02,down,20,DATA,x\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\n0.02,down,20,DATA\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\n0.02,down,20,DATA,1,9\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\nnan,down,-5,DATA,x\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\n0.02,down,-5,DATA,x\n",
    "time_s,direction,bytes,kind,conn_id\n0.01,\"a\nb\",10,DATA,1\n-inf,down,0,DATA,1\n",
], ids=["empty", "foreign-header", "header-only", "bad-conn", "short-row",
        "long-row", "nan-first", "negative-first", "quoted-line-break"])
def test_timeline_csv_reader_keeps_the_row_readers_errors(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert_reads_as_the_row_reader(path)


def test_leading_zero_connection_ids_read_as_one_run(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,direction,bytes,kind,conn_id\n0.01,down,10,DATA,1\n"
                    "0.02,down,20,DATA,01\n0.03,down,30,DATA,1\n")
    assert list(read_timeline_csv(path).runs()) == [(0, 3, DOWN, DATA, 1)]


@settings(max_examples=200, deadline=None)
@given(segments)
def test_radio_csv_matches_csv_writer(tmp_path_factory, segs):
    out = tmp_path_factory.mktemp("radio")
    write_radio_csv(segs, out / "got.csv")
    oracle_radio_csv(segs, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
