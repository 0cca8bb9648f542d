"""The single-pass trace analysis equals the multi-pass code it replaced.

`estimate_buffer`, the classifier's feature harvest and `rrc_drive` each walk
a timeline once.  The functions below are their earlier multi-pass versions,
kept as oracles: every output must match them exactly, float for float, over
random timelines that include zero-byte schedule seconds, control records
between DATA records, equal timestamps, tiny RRC timers, promotion ramps and
observation windows that open after the first packet.  The harvest is also
tied to the public estimators on every bundled trace, so the inlined and
standalone code cannot drift apart.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsim.analysis import (
    THRESHOLDS,
    _harvest,
    classify,
    estimate_buffer,
    estimate_throttle_factor,
    group_bursts,
)
from streamsim.radio import DCH, FACH, IDLE, PCH, RrcParams, StateSegment, rrc_drive
from streamsim.session import VideoSpec
from streamsim.transport import (
    CLOSE_FIN,
    DATA,
    DOWN,
    OPEN,
    REQUEST,
    UP,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
    PacketRecord,
)

CONTROL = (REQUEST, ZERO_WINDOW_AD, ZERO_WINDOW_PROBE, OPEN, CLOSE_FIN)


# --- oracles: the multi-pass implementations -------------------------------


def oracle_estimate_buffer(records, encoding_schedule, start_of_playback):
    video = VideoSpec(encoding_schedule)
    data = [r for r in records if r.kind == DATA]
    series = []
    received = 0
    playhead = 0.0
    wall = start_of_playback
    for r in data:
        if r.time > wall and wall >= start_of_playback:
            dt = r.time - max(wall, start_of_playback)
            if r.time >= start_of_playback:
                dt = r.time - max(wall, start_of_playback)
                avail = video.media_time(received) - playhead
                playhead += min(max(dt, 0.0), max(avail, 0.0))
                playhead = min(playhead, float(video.duration_s))
        wall = max(wall, r.time)
        received += r.payload
        consumed = video.cum_bytes(playhead)
        series.append(
            (r.time, received - consumed, video.media_time(received) - playhead)
        )
    return series


def oracle_harvest(records):
    data = [r for r in records if r.kind == DATA]
    feats = {
        "data_packets": len(data),
        "data_bytes": sum(r.payload for r in data),
        "probes": sum(1 for r in records if r.kind == ZERO_WINDOW_PROBE),
        "ads": sum(1 for r in records if r.kind == ZERO_WINDOW_AD),
        "requests": sum(1 for r in records if r.kind == REQUEST),
        "connections": len({r.conn_id for r in data}),
    }
    if not data:
        return feats
    bursts = group_bursts(records)
    gaps = [bursts[i + 1].start - bursts[i].end for i in range(len(bursts) - 1)]
    long_gaps = [g for g in gaps if g >= THRESHOLDS["silent_gap_s"]]
    feats["bursts"] = len(bursts)
    feats["max_burst_gap_s"] = max(gaps) if gaps else 0.0
    feats["long_gaps"] = len(long_gaps)
    spans = {}
    for r in records:
        a = spans.setdefault(r.conn_id, [r.time, r.time])
        a[0] = min(a[0], r.time)
        a[1] = max(a[1], r.time)
    ordered = sorted(spans.values())
    conn_gaps = [
        max(0.0, ordered[i + 1][0] - ordered[i][1]) for i in range(len(ordered) - 1)
    ]
    if conn_gaps:
        conn_gaps.sort()
        feats["median_conn_gap_s"] = conn_gaps[len(conn_gaps) // 2]
    else:
        feats["median_conn_gap_s"] = 0.0
    t_first, t_last = data[0].time, data[-1].time
    trace_end = records[-1].time
    feats["data_span_s"] = t_last - t_first
    feats["trace_span_s"] = trace_end - records[0].time
    feats["span_coverage"] = (
        feats["data_span_s"] / feats["trace_span_s"] if feats["trace_span_s"] > 0 else 0.0
    )
    minutes = max(feats["data_span_s"] / 60.0, 1e-9)
    feats["ads_per_min"] = feats["ads"] / minutes
    gaps_req = []
    req_times = [r.time for r in records if r.kind == REQUEST]
    for i in range(len(req_times) - 1):
        gaps_req.append(req_times[i + 1] - req_times[i])
    if gaps_req:
        srt = sorted(gaps_req)
        med = srt[len(srt) // 2]
        near = sum(1 for g in gaps_req if med > 0 and 0.3 * med <= g <= 3.0 * med)
        feats["request_gap_median_s"] = med
        feats["request_regularity"] = near / len(gaps_req)
    else:
        feats["request_gap_median_s"] = 0.0
        feats["request_regularity"] = 0.0
    return feats


def oracle_packet_times(records):
    times = []
    last = None
    for r in records:
        t = r.time if hasattr(r, "time") else float(r)
        if last is not None and t < last - 1e-12:
            raise ValueError("packet timeline must be sorted by time")
        times.append(t)
        last = t
    return times


def oracle_rrc_drive(records, params, t_end=None, t_start=None):
    params.validate()
    times = oracle_packet_times(records)
    if not times and t_end is None:
        raise ValueError("empty timeline needs an explicit t_end")
    if t_start is None:
        t_start = times[0] if times else 0.0
    if t_end is None:
        t_end = times[-1] + params.t1 + params.t2 + params.t3
    segs = []

    def emit(state, a, b):
        if b <= a:
            return
        if segs and segs[-1].state == state and abs(segs[-1].end - a) < 1e-12:
            segs[-1].end = b
        else:
            segs.append(StateSegment(state, a, b))

    def ladder(last_packet, a, b):
        d1 = last_packet + params.t1
        d2 = d1 + params.t2
        d3 = d2 + params.t3
        emit(DCH, a, min(b, d1))
        if b > d1:
            emit(FACH, max(a, d1), min(b, d2))
        if b > d2:
            emit(PCH, max(a, d2), min(b, d3))
        if b > d3:
            emit(IDLE, max(a, d3), b)
        if b <= d1:
            return DCH
        if b <= d2:
            return FACH
        if b <= d3:
            return PCH
        return IDLE

    cursor = t_start
    last_packet = None
    for t in times:
        if t < t_start:
            last_packet = t
            continue
        if t > t_end:
            break
        if last_packet is None:
            if t > cursor:
                emit(IDLE, cursor, t)
            state_now = IDLE
        else:
            state_now = ladder(last_packet, cursor, t)
        if state_now != DCH and params.promotion_delay > 0:
            ramp_start = max(cursor, t - params.promotion_delay)
            if segs:
                while segs and segs[-1].start >= ramp_start:
                    ramp_start = min(ramp_start, segs[-1].start)
                    segs.pop()
                if segs and segs[-1].end > ramp_start:
                    segs[-1].end = ramp_start
            emit(DCH, ramp_start, t)
        cursor = t
        last_packet = t
    if last_packet is None:
        emit(IDLE, cursor, t_end)
    else:
        ladder(last_packet, cursor, t_end)
    return segs


# --- strategies -------------------------------------------------------------

# gaps that hit equal timestamps, burst-sized steps, and RRC/silence timers
gap = st.one_of(
    st.just(0.0),
    st.sampled_from([0.001, 0.01, 0.049, 0.05, 0.3, 2.0, 3.0, 8.0, 10.0, 11.0]),
    st.floats(0.0, 15.0, allow_nan=False),
)


@st.composite
def timelines(draw, max_records=50):
    """A sorted timeline of DATA and control records on a few connections."""
    t = draw(st.floats(0.0, 5.0, allow_nan=False))
    out = []
    for _ in range(draw(st.integers(0, max_records))):
        t += draw(gap)
        kind = draw(st.sampled_from((DATA, DATA, DATA) + CONTROL))
        payload = draw(st.one_of(round_bytes, st.integers(0, 4000))) if kind == DATA else 0
        conn = draw(st.integers(1, 3))
        out.append(PacketRecord(t, DOWN if payload else UP, payload, kind, conn))
    return out


# round byte counts make cumulative received bytes land exactly on schedule
# second boundaries, some of them followed by zero-byte seconds
round_bytes = st.sampled_from([500, 1000])
schedules = st.lists(
    st.one_of(st.just(0), round_bytes, st.integers(1, 3000)), min_size=1, max_size=15
).filter(lambda s: sum(s) > 0)


def outcome(fn, *args, **kw):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        return ("ValueError", str(exc))


def exact(series):
    """repr() keeps the sign of zero and the int/float distinction."""
    return [tuple(map(repr, x)) for x in series]


def segments(segs):
    return segs if isinstance(segs, tuple) else [(s.state, s.start, s.end) for s in segs]


# --- equivalence ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    timelines(),
    schedules,
    st.one_of(
        st.just(0.0),
        st.just(1e9),
        st.floats(-5.0, 0.0, allow_nan=False),
        st.floats(0.0, 120.0, allow_nan=False),
    ),
)
def test_estimate_buffer_matches_the_multi_pass_replay(records, schedule, start):
    assert exact(estimate_buffer(records, schedule, start)) == exact(
        oracle_estimate_buffer(records, schedule, start)
    )


@settings(max_examples=200, deadline=None)
@given(
    timelines(),
    st.floats(0.001, 10.0),
    st.floats(0.001, 5.0),
    st.floats(0.001, 20.0),
    st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    st.data(),
)
def test_rrc_drive_matches_the_ladder_walk(records, t1, t2, t3, delay, data):
    params = RrcParams(t1=t1, t2=t2, t3=t3, promotion_delay=delay)
    times = [r.time for r in records]
    last = times[-1] if times else 0.0
    # None, a window opening before, at or after the first packet
    t_start = data.draw(st.one_of(
        st.none(), st.floats(-1.0, last + 1.0), st.sampled_from(times or [0.0])
    ))
    t_end = data.draw(st.one_of(st.none(), st.floats(last - 1.0, last + 40.0)))
    expected = segments(outcome(oracle_rrc_drive, records, params, t_end, t_start))
    assert segments(outcome(rrc_drive, records, params, t_end, t_start)) == expected
    # a timeline of bare timestamps prices the same
    assert segments(outcome(rrc_drive, times, params, t_end, t_start)) == expected


def test_rrc_drive_sorted_check_on_records_and_small_back_steps():
    records = [PacketRecord(1.0, DOWN, 10, DATA, 1), PacketRecord(0.5, DOWN, 10, DATA, 1)]
    with pytest.raises(ValueError, match="sorted"):
        rrc_drive(records, RrcParams())
    # steps back inside the 1e-12 tolerance are not an error, and two of them
    # move the cursor far enough back that the next DCH span is not merged
    times = [0.0, 1.0, 1.0 - 9e-13, 1.0 - 18e-13, 5.0]
    assert segments(rrc_drive(times, RrcParams())) == segments(
        oracle_rrc_drive(times, RrcParams())
    )


@settings(max_examples=200, deadline=None)
@given(timelines())
# gaps exactly at the burst and silence thresholds
@example([PacketRecord(t, DOWN, 100, DATA, 1) for t in (0.0, 0.05, 0.5, 10.5)])
def test_one_pass_harvest_matches_the_multi_pass_features(records):
    feats, data = _harvest(records)
    expected = oracle_harvest(records)
    assert list(feats.items()) == list(expected.items())
    assert data == [r for r in records if r.kind == DATA]


# --- the harvest agrees with the public estimators ----------------------------


def jittered(records, fraction, rng):
    """Each time moved by up to `fraction` of its gap to the previous record,
    kept sorted: the transport's jitter rule."""
    out = []
    last_nominal = last = 0.0
    for r in records:
        step = max(0.0, r.time - last_nominal)
        last_nominal = r.time
        last = max(r.time + rng.uniform(-1.0, 1.0) * fraction * step, last)
        out.append(PacketRecord(last, r.direction, r.payload, r.kind, r.conn_id))
    return out


def assert_harvest_tied_to_estimators(records, rate, bandwidth):
    evidence = classify(records, rate, bandwidth).evidence
    assert evidence["data_bytes"] == sum(r.payload for r in records if r.kind == DATA)
    if not evidence["data_packets"]:
        return
    try:
        ratio = estimate_throttle_factor(records, rate)
    except ValueError:
        ratio = None
    assert evidence["steady_ratio"] == ratio
    assert evidence["bursts"] == len(group_bursts(records))


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.2, 0.3])
def test_harvest_agrees_with_the_estimators_on_bundled_traces(grid, fraction):
    for name, report in grid.items():
        records = jittered(report.records, fraction, random.Random(f"{name}:{fraction}"))
        sc = report.scenario
        assert_harvest_tied_to_estimators(records, sc.video.avg_rate_bps, sc.path.bandwidth_bps)


@settings(max_examples=100, deadline=None)
@given(timelines(), st.floats(1.0, 1e7))
def test_harvest_agrees_with_the_estimators_on_random_traces(records, rate):
    assert_harvest_tied_to_estimators(records, rate, 1e6)
