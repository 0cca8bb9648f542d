"""The single-pass trace analysis equals the multi-pass code it replaced.

`estimate_buffer` replays the playhead over every DATA arrival in bulk and
samples it at the first and last arrival and where the received bytes first
reach each whole second of the clip; each sample must equal the per-arrival
oracle's tuple at that arrival, over random timelines and over every bundled
trace, clean and jittered.  `group_bursts` and `rrc_drive` each walk a
timeline once.  The classifier's feature harvest walks it once for the control
records, connections and requests, and reads the DATA count, bytes and burst
gaps from the `_DataView` the classifier builds.  The rate knee, the steady
ratio and `estimate_fast_start` read the same prefix sums, and `psm_drive`
returns runs of whole beacons as beacon trains, which `integrate` prices in
bulk.  The functions below are their earlier versions, kept as oracles: every
output must match them exactly, float for float, over random timelines that
include zero-byte schedule seconds, control records between DATA records,
equal timestamps, records on window edges, steps back within the 1e-12
ordering tolerance, tiny RRC timers, promotion ramps, beacon wakes that round
away and observation windows that open after the first packet.  Beacon
trains are compared expanded into per-beacon segments, and by the charge,
clip and radio CSV they give.  The harvest is also tied to the public
estimators on every bundled trace, so the inlined and standalone code cannot
drift apart, and the classifier's accuracy on jittered bundled traces is held
to a stated floor.
"""

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamsim.analysis import (
    THRESHOLDS,
    Burst,
    FastStartEstimate,
    _DataView,
    _harvest,
    classify,
    estimate_buffer,
    estimate_fast_start,
    estimate_throttle_factor,
    find_rate_knee,
    group_bursts,
)
from streamsim.harness import audit, expected_label
from streamsim.radio import (
    ACTIVE,
    DCH,
    FACH,
    IDLE,
    PCH,
    PSM_IDLE,
    SLEEP,
    PsmParams,
    RrcParams,
    StateSegment,
    clip_segments,
    expand_segments,
    integrate,
    _packet_times,
    psm_drive,
    rrc_drive,
    write_radio_csv,
)
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
    Timeline,
    write_timeline_csv,
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


def oracle_group_bursts(records, gap_s=THRESHOLDS["burst_gap_s"]):
    bursts = []
    for r in records:
        if r.kind != DATA:
            continue
        if bursts and r.time - bursts[-1].end < gap_s:
            b = bursts[-1]
            b.end = r.time
            b.nbytes += r.payload
            b.packets += 1
        else:
            bursts.append(Burst(r.time, r.time, r.payload, 1))
    return bursts


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
    bursts = oracle_group_bursts(records)
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


def oracle_rate_knee(data, window_s=None, drop_frac=None):
    window_s = window_s or THRESHOLDS["knee_window_s"]
    drop_frac = drop_frac or THRESHOLDS["knee_drop_frac"]
    if len(data) < 2:
        return None
    t0, t_last = data[0].time, data[-1].time
    if t_last - t0 < window_s:
        return None
    n_windows = int((t_last - t0) / window_s)
    sums = [0.0] * n_windows
    for r in data:
        i = int((r.time - t0) / window_s)
        if i >= n_windows:
            continue
        sums[i] += r.payload
    peak = max(sums)
    for i, s in enumerate(sums):
        if s < drop_frac * peak:
            return t0 + i * window_s
    return None


def oracle_steady_ratio(data, avg_rate_bps, fast_start_exclusion):
    t_last = data[-1].time
    span = t_last - fast_start_exclusion
    if span <= 0:
        raise ValueError("no steady phase after the fast-start exclusion")
    nbytes = sum(r.payload for r in data if r.time > fast_start_exclusion)
    return (nbytes * 8.0 / span) / avg_rate_bps


def oracle_throttle_factor(records, avg_rate_bps, fast_start_exclusion=None):
    data = [r for r in records if r.kind == DATA]
    if not data:
        raise ValueError("no DATA records in trace")
    if fast_start_exclusion is None:
        fast_start_exclusion = oracle_rate_knee(data) or 0.0
    return oracle_steady_ratio(data, avg_rate_bps, fast_start_exclusion)


def oracle_estimate_fast_start(records, avg_rate_bps):
    data = [r for r in records if r.kind == DATA]
    if len(data) < 2:
        raise ValueError("trace too short to estimate the initial burst")
    t0 = data[0].time
    times = [r.time for r in data]
    cums = []
    acc = 0
    for r in data:
        acc += r.payload
        cums.append(acc)
    span = times[-1] - t0
    if span <= 0:
        raise ValueError("degenerate trace")
    tail_start = t0 + 0.4 * span
    k = bisect_right(times, tail_start)
    if k >= len(times):
        k = len(times) - 1
    rho = (cums[-1] - cums[k]) / max(times[-1] - times[k], 1e-9)
    values = [c - rho * (t - t0) for t, c in zip(times, cums)]
    vmax = max(values)
    tol = rho * 2.0
    i = next(j for j, v in enumerate(values) if v >= vmax - tol)
    while i + 1 < len(values) and values[i + 1] > values[i]:
        i += 1
    return FastStartEstimate(
        end_time=times[i],
        nbytes=cums[i],
        media_s=cums[i] * 8.0 / avg_rate_bps,
    )


def oracle_psm_drive(records, params, t_end=None, t_start=0.0):
    params.validate()
    times = [t for t in oracle_packet_times(records) if t_end is None or t <= t_end]
    times = [t for t in times if t >= t_start]
    if t_end is None:
        if not times:
            raise ValueError("empty timeline needs an explicit t_end")
        t_end = times[-1] + params.idle_timeout
    segs = []

    def emit(state, a, b):
        if b <= a:
            return
        if segs and segs[-1].state == state and abs(segs[-1].end - a) < 1e-12:
            segs[-1].end = b
        else:
            segs.append(StateSegment(state, a, b))

    def sleep_span(a, b):
        if params.cam_mode:
            emit(PSM_IDLE, a, b)
            return
        t = a
        while t < b:
            wake_end = min(t + params.beacon_wake, b)
            emit(ACTIVE, t, wake_end)
            emit(SLEEP, wake_end, min(t + params.beacon_interval, b))
            t += params.beacon_interval

    runs = []
    for t in times:
        if runs and t - runs[-1][1] <= params.idle_timeout:
            runs[-1][1] = t
        else:
            runs.append([t, t])

    cursor = t_start
    for a, b in runs:
        if a > cursor:
            sleep_span(cursor, a)
        emit(ACTIVE, a, max(b, a))
        idle_end = min(b + params.idle_timeout, t_end)
        emit(PSM_IDLE, b, idle_end)
        cursor = idle_end
    if cursor < t_end:
        sleep_span(cursor, t_end)
    return segs


def in_order_or_error(fn, records, *args):
    """fn's result, or the ordering error when the timeline steps back by
    more than 1e-12: the old estimators had no ordering rule."""
    try:
        oracle_packet_times(records)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return outcome(fn, records, *args)


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
    """Segments as (state, start, end), beacon trains expanded."""
    if isinstance(segs, tuple):
        return segs
    return [(s.state, s.start, s.end) for s in expand_segments(segs)]


# gaps that put DATA records exactly on binary window edges, or on one time
edge_gap = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 3.0, allow_nan=False),
)
# how far a record sits before its nominal time: mostly not at all, else
# within the 1e-12 ordering tolerance, or past it
back_step = st.sampled_from([0.0] * 6 + [1e-13, 5e-13, 9e-13, 1e-12, 3e-12])
windows = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 10.0))
drop_fracs = st.one_of(st.sampled_from([0.5, 0.8, 1.0]), st.floats(0.01, 1.0))


@st.composite
def edge_timelines(draw, max_records=40):
    """DATA and control records on and around window edges: equal times, a
    trace that ends on an edge, and records that step back a little, some
    to before the first DATA record."""
    t = draw(st.one_of(st.sampled_from([0.0, 1.0, 4.0]), st.floats(0.0, 5.0)))
    out = []
    for _ in range(draw(st.integers(0, max_records))):
        t += draw(edge_gap)
        kind = draw(st.sampled_from((DATA, DATA, DATA, DATA, REQUEST, ZERO_WINDOW_AD)))
        payload = draw(st.one_of(round_bytes, st.integers(0, 4000))) if kind == DATA else 0
        out.append(PacketRecord(t - draw(back_step), DOWN, payload, kind, 1))
    return out


@st.composite
def psm_params(draw):
    interval = draw(st.one_of(st.sampled_from([0.05, 0.1, 0.3]), st.floats(0.01, 1.0)))
    # wakes of 1e-11, 8e-11 and interval - 1e-10 round away on timelines
    # near 2**20 s (see test_psm_drive_matches_where_beacon_wakes_round_away)
    wake = draw(st.one_of(
        st.sampled_from([0.0, 0.002, interval / 2, interval * 0.999]),
        st.sampled_from([1e-11, 8e-11, interval - 1e-10]),
        st.floats(0.0, interval, exclude_max=True),
    ))
    # idle timeouts under, at and over the beacon interval
    # (0.25 and 0.5 are also gaps edge_timelines() draws)
    idle = draw(st.one_of(
        st.sampled_from([0.1, 0.25, 0.5, interval, 2 * interval]), st.floats(0.01, 2.0)
    ))
    cam = draw(st.sampled_from([False, False, False, True]))
    return PsmParams(180.0, 80.0, 5.0, interval, idle, wake, cam)


# --- equivalence ------------------------------------------------------------


def sample_arrivals(records, schedule):
    """The DATA arrivals estimate_buffer samples: the first, each where the
    received bytes first reach a whole second of the clip, and the last."""
    payloads = [r.payload for r in records if r.kind == DATA]
    picks = {0, len(payloads) - 1} if payloads else set()
    bounds = accumulate(schedule)  # the bytes of the clip's first 1, 2, ... seconds
    bound, received = next(bounds), 0
    for k, payload in enumerate(payloads):
        received += payload
        while bound is not None and received >= bound:
            picks.add(k)
            bound = next(bounds, None)
    return sorted(picks)


def assert_buffer_samples_match_the_replay(records, schedule, start):
    expected = in_order_or_error(oracle_estimate_buffer, records, schedule, start)
    got = outcome(estimate_buffer, records, schedule, start)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert exact(got) == exact([expected[k] for k in sample_arrivals(records, schedule)])


def data_at(times, payload):
    return [PacketRecord(t, DOWN, payload, DATA, 1) for t in times]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(timelines(), edge_timelines()),
    schedules,
    st.one_of(
        st.just(0.0),
        st.just(1e9),
        st.floats(-5.0, 0.0, allow_nan=False),
        st.floats(0.0, 120.0, allow_nan=False),
    ),
)
# a stall at 1 s of media, and a recovery from 3 s on
@example(data_at([i / 10 for i in range(10)], 100) + data_at([3 + i / 20 for i in range(40)], 100),
         [1000] * 10, 0.0)
# the playhead reaches the clip's end at 2 s, on a step longer than the media ahead
@example(data_at([0.0, 0.5], 100) + data_at([1.0, 2.7, 3.0], 0), [100, 100], 0.0)
# three times the clip's bytes, the last of them after playback ended
@example(data_at([0.0, 0.5, 1.0, 3.0], 150), [100, 100], 0.0)
# playback starts after 21 arrivals
@example(data_at([i / 10 for i in range(30)], 100), [500] * 10, 2.05)
# steps back within 1e-12, one ahead of a window's end
@example(data_at([0.0, 0.5, 1.0, 1.0 - 5e-13, 1.5, 2.0, 2.0 - 9e-13, 2.5], 100), [100] * 10, 0.0)
# the playhead catches up with the media held 1e-10 s before an arrival
@example(data_at([0.0, 1.0 + 1e-10, 1.5], 100), [100] * 10, 0.0)
# steps whose running sum rounds past the media held (to 1.0000000000000002)
# though the last arrival is at the wall clock plus that media
@example(data_at([1.0], 100) + data_at([2.291153435001304, 2.7], 0), [100] * 10, 1.7)
# a step capped at the media held that rounds one ulp past it (3 + 2**-50 >
# 3 + 2**-51), then an arrival with no new bytes, which must not move it back
@example(data_at([0.0], 1) + data_at([3 * 2.0**-52], 3) + data_at([10.0, 11.0], 0),
         [1, 1, 1, 2**51], 0.0)
def test_estimate_buffer_matches_the_multi_pass_replay(records, schedule, start):
    assert_buffer_samples_match_the_replay(records, schedule, start)


@pytest.mark.parametrize("fraction", [0.0, 0.3])
def test_estimate_buffer_matches_the_replay_on_bundled_traces(grid, fraction):
    for name, report in grid.items():
        records = jittered(report.records, fraction, random.Random(f"{name}:buffer"))
        schedule = report.scenario.video.schedule
        assert_buffer_samples_match_the_replay(records, schedule, report.metrics.startup_s)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(timelines(), edge_timelines()),
    st.one_of(st.just(THRESHOLDS["burst_gap_s"]), st.sampled_from([0.001, 0.3, 2.0, 10.0])),
)
# gaps just under, at and over the threshold
@example([PacketRecord(t, DOWN, 100, DATA, 1) for t in (0.0, 0.049, 0.099, 0.149, 1.0)], 0.05)
def test_group_bursts_matches_the_burst_list_loop(records, gap_s):
    expected = in_order_or_error(oracle_group_bursts, records, gap_s)
    assert repr(outcome(group_bursts, records, gap_s)) == repr(expected)


# a time that breaks the order rule: not finite, or a whole second back
broken_times = st.sampled_from([math.nan, math.inf, -math.inf, None])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(timelines(), edge_timelines()),
    st.one_of(st.just(THRESHOLDS["burst_gap_s"]), st.sampled_from([0.001, 0.3, 2.0, 10.0])),
    st.lists(st.tuples(st.integers(0, 50), broken_times), max_size=2),
)
# a control record inside a burst, and a step back within the tolerance
@example([PacketRecord(t, DOWN, 100, k, 1) for t, k in (
    (0.0, DATA), (0.01, REQUEST), (0.02 - 1e-12, DATA), (0.03, ZERO_WINDOW_AD), (0.04, DATA),
)], 0.05, [])
# the record loop's first step is from below every finite time: a first NaN
# or -inf fails there, before a later time that is not finite or steps back
@example([PacketRecord(0.01 * i, DOWN, 100, DATA, 1) for i in range(4)], 0.05,
         [(0, math.nan), (1, math.inf)])
@example([PacketRecord(0.01 * i, DOWN, 100, DATA, 1) for i in range(4)], 0.05,
         [(0, -math.inf), (2, None)])
def test_group_bursts_reads_a_timeline_as_its_record_list(records, gap_s, breaks):
    # a Timeline's DATA runs and time column give the record loop's bursts
    # and errors
    records = list(records)
    for i, t in breaks:
        if i < len(records):
            r = records[i]
            records[i] = replace(r, time=r.time - 1.0 if t is None else t)
    timeline = Timeline.of(records)
    assert repr(outcome(group_bursts, timeline, gap_s)) == repr(
        outcome(group_bursts, records, gap_s))
    assert timeline._rows is None


@settings(max_examples=100, deadline=None)
@given(st.one_of(timelines(), edge_timelines()))
def test_timeline_index_builds_one_record_from_its_run(records):
    timeline = Timeline.of(records)
    n = len(records)
    got = [timeline[i] for i in range(-n, n)]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            timeline[i]
    assert timeline._rows is None  # no record list was built
    rows = timeline.rows()
    assert all(type(r) is PacketRecord for r in got)
    assert got == [rows[i] for i in range(-n, n)]


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
    feats = _harvest(records, _DataView(records))
    expected = oracle_harvest(records)
    assert list(feats.items()) == list(expected.items())


@settings(max_examples=200, deadline=None)
@given(st.one_of(timelines(), edge_timelines()))
# a connection that comes back after another, with a record that steps back
@example([PacketRecord(t, DOWN, 100, k, c) for t, k, c in (
    (0.0, OPEN, 1), (1.0, DATA, 1), (2.0, DATA, 2), (1.5 - 5e-13, DATA, 1), (3.0, REQUEST, 1),
)])
def test_column_readers_match_the_record_loops(tmp_path_factory, records):
    # a Timeline's readers take its runs; a list of records keeps the loops
    timeline = Timeline.of(records)
    assert timeline == records

    def fields(rows):
        return exact((r.time, r.direction, r.payload, r.kind, r.conn_id) for r in rows)

    assert all(type(r) is PacketRecord for r in timeline.rows())
    assert fields(timeline.rows()) == fields(records)
    # audit's wire tallies against a record loop: bills that match them are
    # clean, and one byte more on any connection is flagged
    wire = Counter()
    for r in records:
        if r.kind == DATA:
            wire[r.conn_id] += r.payload
    for conn, extra in [(None, 0)] + [(c, 1) for c in wire]:
        billed = dict(wire)
        if conn is not None:
            billed[conn] += extra
        metrics = SimpleNamespace(received_total=sum(billed.values()), consumed_bytes=0,
                                  wasted_bytes=sum(billed.values()), connection_bytes=billed,
                                  end_t=0.0)
        report = SimpleNamespace(metrics=metrics, records=timeline, radio_segments=[],
                                 energy=SimpleNamespace(duration_s=0.0))
        problems = audit(report)
        assert [p for p in problems if p != "packet timeline out of order"] == [
            "billed bytes differ from the DATA payloads on the wire",
            "per-connection byte tallies differ from the DATA on each connection",
        ][:2 * extra]
        assert audit(SimpleNamespace(**{**vars(report), "records": records})) == problems

    def view(v):
        return [v.times, v.cums, v.sorted_times, v.sorted_cums]

    got, want = outcome(_DataView, timeline), outcome(_DataView, records)
    if isinstance(want, tuple):
        assert got == want
        return
    assert view(got) == view(want)
    assert exact(_harvest(timeline, got).items()) == exact(_harvest(records, want).items())
    assert _packet_times(timeline) == _packet_times(records)
    tmp = tmp_path_factory.mktemp("csv")
    write_timeline_csv(timeline, tmp / "columns.csv")
    write_timeline_csv(records, tmp / "records.csv")
    assert (tmp / "columns.csv").read_bytes() == (tmp / "records.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(edge_timelines(), windows, drop_fracs)
# a trace that ends on a window edge, with a record on each edge before it
@example([PacketRecord(t, DOWN, 1000, DATA, 1) for t in (0.0, 2.0, 4.0, 6.0)], 2.0, 0.8)
# a step back within the tolerance onto the far side of an edge, and one to
# before the first DATA record
@example(
    [PacketRecord(t, DOWN, 1000, DATA, 1) for t in (1.0, 1.0 - 5e-13, 3.0, 3.0 - 9e-13, 9.0)],
    2.0, 0.8,
)
# records that float rounding puts on the other side of the edge time
# t0 + (i + 1) * window_s from the window the loop bins them in
@example(
    [
        PacketRecord(t, DOWN, n, DATA, 1)
        for t, n in (
            (0.8634033085882786, 5000), (1.7, 5000), (2.4, 1000),
            (2.9634033085882785, 4000), (4.5, 1),
        )
    ],
    0.7, 0.8,
)
@example(
    [PacketRecord(t, DOWN, n, DATA, 1) for t, n in ((0.0, 1), (126.80890349925502, 9), (130.0, 1))],
    2.5879368061072454, 0.5,
)
def test_rate_knee_matches_the_window_loop(records, window_s, drop_frac):
    def oracle(records, window_s, drop_frac):
        return oracle_rate_knee([r for r in records if r.kind == DATA], window_s, drop_frac)

    expected = in_order_or_error(oracle, records, window_s, drop_frac)
    assert repr(outcome(find_rate_knee, records, window_s, drop_frac)) == repr(expected)
    if window_s == THRESHOLDS["knee_window_s"] and drop_frac == THRESHOLDS["knee_drop_frac"]:
        assert repr(outcome(find_rate_knee, records)) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(edge_timelines(), st.floats(1.0, 1e7), st.data())
def test_steady_ratio_matches_the_filtered_sum(records, rate, data):
    times = [r.time for r in records]
    exclusion = data.draw(st.one_of(st.none(), st.sampled_from(times or [0.0]), st.floats(-1.0, 130.0)))
    expected = in_order_or_error(oracle_throttle_factor, records, rate, exclusion)
    got = outcome(estimate_throttle_factor, records, rate, exclusion)
    assert repr(got) == repr(expected)
    if exclusion is None and not isinstance(expected, tuple):
        assert repr(classify(records, rate, 1e6).evidence["steady_ratio"]) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(st.one_of(edge_timelines(), timelines()), st.floats(1.0, 1e7))
# the burst ends on a step back: the estimate keeps the record order
@example(
    [PacketRecord(t, DOWN, 50_000, DATA, 1) for t in (0.0, 0.5, 1.0, 1.0 - 5e-13)]
    + [PacketRecord(2.0 + k, DOWN, 1000, DATA, 1) for k in range(20)],
    500_000.0,
)
def test_fast_start_matches_the_record_loop(records, rate):
    expected = in_order_or_error(oracle_estimate_fast_start, records, rate)
    assert repr(outcome(estimate_fast_start, records, rate)) == repr(expected)


@st.composite
def psm_currents(draw):
    """PSM currents with many significant bits, so that adding the charge in
    another order shows in the last digit; some lack a state a beacon needs."""
    current = st.one_of(st.sampled_from([180.0, 5.0]), st.floats(0.1, 500.0))
    currents = {ACTIVE: draw(current), PSM_IDLE: draw(current), SLEEP: draw(current)}
    missing = draw(st.sampled_from([None, None, None, ACTIVE, SLEEP]))
    if missing:
        del currents[missing]
    return currents


@settings(max_examples=300, deadline=None)
@given(edge_timelines(), psm_params(), psm_currents(), st.data())
def test_psm_drive_matches_the_beacon_loop(tmp_path_factory, records, params, currents, data):
    # near 2**20 s a float step is about 1e-10, so short wakes round away
    offset = data.draw(st.sampled_from([0.0, 0.0, 2.0 ** 20 - 3.0]))
    if offset:
        records = [
            PacketRecord(r.time + offset, r.direction, r.payload, r.kind, r.conn_id)
            for r in records
        ]
    times = [r.time for r in records]
    last = times[-1] if times else offset
    # a window opening before, at or after the first packet
    t_start = data.draw(st.one_of(
        st.just(offset), st.floats(offset - 1.0, last + 1.0), st.sampled_from(times or [offset])
    ))
    # an end after the last packet, before it, or inside a beacon wake
    wake_end = (
        data.draw(st.sampled_from(times or [offset])) + params.idle_timeout
        + data.draw(st.integers(0, 5)) * params.beacon_interval
        + data.draw(st.floats(0.0, 1.0)) * params.beacon_wake
    )
    t_end = data.draw(st.one_of(st.none(), st.floats(last - 1.0, last + 20.0), st.just(wake_end)))
    expected = in_order_or_error(oracle_psm_drive, records, params, t_end, t_start)
    got = outcome(psm_drive, records, params, t_end, t_start)
    assert segments(got) == segments(expected)
    if isinstance(expected, tuple):
        return
    # the trains price, clip and write as the per-beacon segments do
    assert repr(outcome(integrate, got, currents)) == repr(outcome(integrate, expected, currents))
    a = data.draw(st.floats(t_start - 1.0, last + 21.0))
    b = data.draw(st.floats(a, last + 21.0))
    assert clip_segments(got, a, b) == clip_segments(expected, a, b)
    out = tmp_path_factory.mktemp("radio")
    write_radio_csv(got, out / "trains.csv")
    write_radio_csv(expected, out / "beacons.csv")
    assert (out / "trains.csv").read_bytes() == (out / "beacons.csv").read_bytes()


@pytest.mark.parametrize("idle", [0.25, 0.5])
def test_psm_drive_matches_at_a_gap_equal_to_the_idle_timeout(idle):
    # packets exactly idle_timeout apart share one active run
    times = [1.0, 1.25, 1.5, 2.0, 4.0]
    params = PsmParams(180.0, 80.0, 5.0, beacon_interval=0.1, idle_timeout=idle)
    assert segments(psm_drive(times, params)) == segments(oracle_psm_drive(times, params))


@pytest.mark.parametrize("wake", [0.0, 1e-11, 8e-11, 0.1 - 1e-10])
def test_psm_drive_matches_where_beacon_wakes_round_away(wake):
    # around 2**20 s a float step is 1.16e-10 below and 2.33e-10 above, so
    # t + 8e-11 is t only past 2**20, t + 1e-11 is t on both sides, and a
    # wake of 0.1 - 1e-10 often ends where the beacon does, leaving no sleep
    start = 2.0 ** 20 - 3.0
    times = [start, start + 0.05, start + 2.5, start + 6.0]
    params = PsmParams(180.0, 80.0, 5.0, beacon_interval=0.1, beacon_wake=wake)
    for t_end in (None, start + 7.05 + wake / 2, start + 9.0):
        expected = oracle_psm_drive(times, params, t_end, start - 1.0)
        got = psm_drive(times, params, t_end, start - 1.0)
        assert segments(got) == segments(expected)
        currents = params.currents()
        assert repr(integrate(got, currents)) == repr(integrate(expected, currents))


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


# --- classifier accuracy across timing jitter ---------------------------------

# least share of the bundled scenarios labelled with their own technique at
# each jitter level; every level labels all 20 today
ACCURACY_FLOOR = {0.0: 1.0, 0.1: 0.95, 0.2: 0.95, 0.3: 0.9}


@pytest.mark.parametrize("fraction", sorted(ACCURACY_FLOOR))
def test_classifier_accuracy_across_jitter(grid, fraction):
    wrong = []
    for name, report in grid.items():
        records = jittered(report.records, fraction, random.Random(f"{name}:{fraction}"))
        sc = report.scenario
        label = classify(records, sc.video.avg_rate_bps, sc.path.bandwidth_bps).label
        if label != expected_label(sc.technique):
            wrong.append(f"{name}: {label}")
    assert len(grid) - len(wrong) >= ACCURACY_FLOOR[fraction] * len(grid), wrong
