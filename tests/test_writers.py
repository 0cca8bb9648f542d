"""The artifact writers give the bytes of the csv.writer code they replaced.

`write_timeline_csv` formats each time once and each distinct rest of a row
once, and `write_radio_csv` formats its rows itself.  The functions below
are the earlier csv.writer versions, kept as oracles: every file must match
them byte for byte, over records with times up to about 4,000 s, equal
stamps, zero payloads, every record kind and several connections, and over
radio timelines that hold beacon trains.
"""

import csv

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

records = st.lists(
    st.builds(
        PacketRecord,
        time=stamps,
        direction=st.sampled_from([DOWN, UP]),
        payload=st.one_of(st.just(0), st.integers(1, 10_000_000)),
        kind=st.sampled_from(KINDS),
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


@settings(max_examples=200, deadline=None)
@given(segments)
def test_radio_csv_matches_csv_writer(tmp_path_factory, segs):
    out = tmp_path_factory.mktemp("radio")
    write_radio_csv(segs, out / "got.csv")
    oracle_radio_csv(segs, out / "want.csv")
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
