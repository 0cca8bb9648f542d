import hashlib
import json
import math
import random
import re
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamsim.session import _STRETCH

from streamsim.analysis import group_bursts
from streamsim.harness import _report, audit, build_session
from streamsim.media import QualityLevel, VideoSpec, dash_pick_quality
from streamsim.scenario import builtin_scenario_names, load_builtin
from streamsim.session import (
    DASH,
    ENCODING_RATE,
    FAST_CACHING,
    ON_OFF,
    PER_BURST,
    PERSISTENT,
    THROTTLE,
    WINDOWED,
    DeadlockError,
    StreamingSession,
    TechniqueSpec,
)
from streamsim.transport import (
    CLOSE_FIN,
    CLOSE_RST,
    DATA,
    Connection,
    REQUEST,
    PacketRecord,
    PathSpec,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
    Transport,
    paced,
)

PATH = PathSpec(6_000_000, rtt_s=0.05)
GOLDEN_SESSIONS = Path(__file__).with_name("golden_sessions.json")


def run(video, technique, path=PATH, **kw):
    session = StreamingSession(video, technique, path, **kw)
    metrics = session.run()
    return session, metrics


def kinds_of(session):
    return [r.kind for r in session.transport.records]


def assert_conserved(session, metrics):
    assert metrics.received_total == pytest.approx(
        metrics.consumed_bytes + metrics.wasted_bytes, abs=1e-6
    )
    assert metrics.received_total == sum(metrics.connection_bytes.values())
    assert_billed_on_the_wire(metrics, session.transport.records)
    assert all(b >= -1e-9 for _, b, _ in metrics.buffer_series)


def assert_billed_on_the_wire(metrics, records, finished=True):
    """Every byte billed, in total and per connection, is a DATA payload."""
    wire = Counter()
    for r in records:
        if r.kind == DATA:
            wire[r.conn_id] += r.payload
    assert Counter(metrics.connection_bytes) == wire
    if finished:  # the total is booked when the watch ends
        assert metrics.received_total == wire.total()


LADDER = (
    QualityLevel(200_000, "lo", 5.0),
    QualityLevel(400_000, "mid", 5.0),
    QualityLevel(800_000, "hi", 5.0),
)


def ladder_video(duration_s=60, rate_bps=400_000):
    return VideoSpec.constant(duration_s, rate_bps, ladder=LADDER)


# -- basics ----------------------------------------------------------------


def test_fast_start_is_unthrottled_then_playback_begins():
    video = VideoSpec.constant(60, 400_000)
    _, m = run(video, TechniqueSpec(ENCODING_RATE, fast_start_s=10.0))
    # 500 kB at the 750 kB/s path rate, plus one request round trip
    assert m.startup_s == pytest.approx(0.72, abs=0.02)
    assert m.fast_start_end_t == m.startup_s
    assert m.watched_s == pytest.approx(60.0)
    assert m.stalls == []


def test_every_technique_conserves_bytes():
    video = VideoSpec.constant(60, 500_000)
    specs = [
        TechniqueSpec(ENCODING_RATE, fast_start_s=5.0),
        TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25),
        TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25, burst_size=65_536),
        TechniqueSpec(ON_OFF, fast_start_s=20.0, low_watermark_s=5.0, high_watermark_s=20.0),
        TechniqueSpec(
            ON_OFF,
            fast_start_s=20.0,
            low_watermark_s=5.0,
            high_watermark_s=20.0,
            connection_mode=PER_BURST,
        ),
        TechniqueSpec(FAST_CACHING, fast_start_s=5.0),
    ]
    for spec in specs:
        session, m = run(video, spec)
        assert_conserved(session, m)
        assert m.watched_s == pytest.approx(60.0), spec.kind
    session, m = run(ladder_video(), TechniqueSpec(DASH, fast_start_s=5.0, dash_target_s=20.0))
    assert_conserved(session, m)


def test_full_watch_ends_with_fin_partial_with_rst():
    video = VideoSpec.constant(60, 400_000)
    session, m = run(video, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0))
    assert kinds_of(session)[-1] == CLOSE_FIN

    session, m = run(
        video, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0), watched_fraction=0.5
    )
    assert m.watched_s == pytest.approx(30.0)
    assert kinds_of(session)[-1] == CLOSE_RST
    # the buffered surplus is abandoned, not played
    assert m.wasted_bytes > 0


# -- wire signatures per technique ----------------------------------------


def test_encoding_rate_fills_the_receive_buffer_and_advertises():
    video = VideoSpec.constant(120, 500_000)
    session, m = run(video, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0))
    ads = kinds_of(session).count(ZERO_WINDOW_AD)
    assert ads / (m.delivery_end_t / 60.0) >= 10.0
    # delivery is stretched across most of the session
    assert m.delivery_end_t >= 0.9 * m.duration_s


def test_throttle_paces_at_factor_times_encoding_rate():
    video = VideoSpec.constant(120, 500_000)
    session, m = run(video, TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25))
    a, b = m.fast_start_end_t + 5.0, m.delivery_end_t
    steady = sum(
        r.payload for r in session.transport.records if r.kind == DATA and a < r.time <= b
    )
    rate = steady * 8.0 / (b - a)
    assert rate == pytest.approx(1.25 * 500_000, rel=0.05)
    # pacing below the path rate keeps the receive window open
    assert kinds_of(session).count(ZERO_WINDOW_AD) <= 2


def test_bursty_throttle_spaces_bursts_by_size_over_rate():
    video = VideoSpec.constant(120, 500_000)
    spec = TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25, burst_size=65_536)
    session, m = run(video, spec)
    bursts = group_bursts(session.transport.records)
    steady = [b for b in bursts if b.start > m.fast_start_end_t + 2.0]
    spacing = statistics.median(
        steady[i + 1].start - steady[i].start for i in range(len(steady) - 1)
    )
    assert spacing == pytest.approx(65_536 * 8.0 / (1.25 * 500_000), abs=0.02)
    assert statistics.median(b.nbytes for b in steady) == 65_536


def test_on_off_persistent_keeps_one_connection_with_probes():
    video = VideoSpec.constant(120, 500_000)
    spec = TechniqueSpec(
        ON_OFF, fast_start_s=30.0, low_watermark_s=5.0, high_watermark_s=30.0
    )
    session, m = run(video, spec)
    assert m.connection_count == 1
    assert kinds_of(session).count(ZERO_WINDOW_PROBE) >= 2
    bursts = group_bursts(session.transport.records)
    gaps = [bursts[i + 1].start - bursts[i].end for i in range(len(bursts) - 1)]
    assert max(gaps) >= 10.0


def test_on_off_per_burst_opens_a_connection_per_refill():
    video = VideoSpec.constant(120, 500_000)
    spec = TechniqueSpec(
        ON_OFF,
        fast_start_s=30.0,
        low_watermark_s=5.0,
        high_watermark_s=30.0,
        connection_mode=PER_BURST,
    )
    session, m = run(video, spec)
    # 90 s of media beyond the initial fill, ~25 s of media per refill
    assert 4 <= m.connection_count <= 6
    assert kinds_of(session).count(CLOSE_RST) == m.connection_count
    assert kinds_of(session).count(ZERO_WINDOW_PROBE) == 0


def test_fast_caching_downloads_at_path_speed():
    video = VideoSpec.constant(60, 1_000_000)
    session, m = run(video, TechniqueSpec(FAST_CACHING, fast_start_s=5.0))
    # 7.5 MB over a 750 kB/s path: done in a sixth of the playback time
    assert m.delivery_end_t < 0.25 * m.duration_s
    assert m.wasted_bytes == 0.0
    assert m.watched_s == pytest.approx(60.0)


def test_capped_store_reconnects_and_rerequests_from_the_keyframe():
    video = VideoSpec.constant(60, 800_000, keyframe_spacing=350_000)
    spec = TechniqueSpec(
        THROTTLE,
        fast_start_s=5.0,
        throttle_factor=2.0,
        buffer_cap=1_000_000,
        keyframe_waste=True,
        reopen_headroom=200_000,
    )
    session, m = run(video, spec)
    assert m.connection_count >= 3
    assert all(b <= 1_000_000 + 1e-6 for _, b, _ in m.buffer_series)
    # every reconnect resends the partial key frame already delivered
    assert m.wasted_bytes > 0
    assert m.received_total > video.total_bytes
    assert_conserved(session, m)


# -- DASH ------------------------------------------------------------------


def test_dash_requests_every_segment_and_adapts_upward():
    session, m = run(
        ladder_video(), TechniqueSpec(DASH, fast_start_s=5.0, dash_target_s=20.0)
    )
    # 12 segments; the first at the playlist default, the rest at the top level
    assert m.dash_quality_history == [0] + [2] * 11
    assert m.received_total == 125_000 + 11 * 500_000
    assert m.stalls == []
    assert_conserved(session, m)


def test_dash_holds_the_lowest_level_on_a_narrow_path():
    session, m = run(
        ladder_video(),
        TechniqueSpec(DASH, fast_start_s=5.0, dash_target_s=20.0),
        path=PathSpec(300_000, rtt_s=0.05),
    )
    assert set(m.dash_quality_history) == {0}
    assert m.watched_s == pytest.approx(60.0)


def test_dash_buffer_stays_near_target():
    session, m = run(
        ladder_video(120), TechniqueSpec(DASH, fast_start_s=5.0, dash_target_s=20.0)
    )
    seg = LADDER[0].segment_s
    tail = [bm for t, _, bm in m.buffer_series if t > 40.0 and t < m.delivery_end_t]
    assert tail
    assert max(tail) <= 20.0 + seg + 1e-6


def refetch_run(replaced_counts_waste):
    """A DASH watch whose one upward switch, 200 -> 800 kb/s on its second
    request, re-fetches the first segment: it is held, and not yet playing
    in a 10 s fast start."""
    spec = TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=20.0, dash_refetch_depth=2,
                         dash_replaced_counts_waste=replaced_counts_waste)
    session, m = run(ladder_video(), spec)
    assert m.dash_quality_history == [0] + [2] * 11
    # the re-fetch is billed as it arrives: 500 kB more on the wire, under
    # a request of its own (one at the open, twelve segments, the re-fetch)
    wire = sum(r.payload for r in session.transport.records if r.kind == DATA)
    assert m.received_total == wire == 125_000 + 11 * 500_000 + 500_000
    assert kinds_of(session).count(REQUEST) == 14
    assert_conserved(session, m)
    return m


def test_dash_refetch_replaces_recent_unplayed_segments():
    m = refetch_run(replaced_counts_waste=False)
    # the old copy stays on the books and plays; the re-fetched one is surplus
    assert m.wasted_bytes == 500_000
    assert m.consumed_bytes == 125_000 + 11 * 500_000


def test_dash_refetch_can_bill_the_replaced_copies_instead():
    m = refetch_run(replaced_counts_waste=True)
    # the re-fetched copy plays; the 200 kb/s one it replaced is surplus
    assert m.wasted_bytes == 125_000
    assert m.consumed_bytes == 12 * 500_000


@pytest.mark.parametrize("fast_start_s, depth, replaced, refetches, wasted", [
    # the re-fetched copies are surplus: 250 kB at the first switch, then
    # 500 kB for each segment re-fetched at the second
    (15.0, 2, False, 3, 250_000 + 2 * 500_000),  # both held segments
    (15.0, 1, False, 2, 250_000 + 500_000),      # the depth keeps the newest only
    (10.0, 2, False, 2, 250_000 + 500_000),      # the first segment plays by then
    # the replaced copies are surplus: 125 kB, then 250 kB for each
    (15.0, 2, True, 3, 125_000 + 2 * 250_000),
    # ... unless the segment began to play before its copy arrived
    (10.0, 2, True, 2, 125_000 + 500_000),
])
def test_dash_refetch_takes_the_newest_unplayed_segments(
        fast_start_s, depth, replaced, refetches, wasted):
    # 1.2 Mb/s over a 0.5 s rtt: the estimate climbs 200 -> 400 -> 800 kb/s
    # over the first three requests, and each switch re-fetches at its level
    spec = TechniqueSpec(DASH, fast_start_s=fast_start_s, dash_target_s=20.0,
                         dash_refetch_depth=depth, dash_replaced_counts_waste=replaced)
    session, m = run(ladder_video(), spec, path=PathSpec(1_200_000, rtt_s=0.5))
    assert m.dash_quality_history[:3] == [0, 1, 2]
    assert kinds_of(session).count(REQUEST) == 1 + len(m.dash_quality_history) + refetches
    assert m.wasted_bytes == wasted
    assert_conserved(session, m)


def test_dash_pick_quality_takes_highest_affordable_level():
    assert dash_pick_quality(LADDER, 6_000_000, 1.0) == 2
    assert dash_pick_quality(LADDER, 450_000, 1.0) == 1
    assert dash_pick_quality(LADDER, 450_000, 0.5) == 0
    # nothing affordable: fall back to the cheapest level
    assert dash_pick_quality(LADDER, 50_000, 1.0) == 0
    with pytest.raises(ValueError):
        dash_pick_quality([], 1e6, 1.0)


# -- quiet spans and sampling ----------------------------------------------


def test_quiet_ticks_run_inside_one_kernel_event():
    # fast caching has the file after 30 s of a 360 s watch; the rest is quiet
    session = build_session(load_builtin("compare_fast_caching_3g"))
    with planned() as (played, _, _):
        session.run()
    assert session.kernel.executed <= len(session.transport.records) + 10
    # the planner lays out nearly all of the 36,088 ticks in bulk, the quiet
    # ones after the file is in and the paced ones that move it
    assert session._ticks > 36_000
    assert played["quiet"] > 30_000 and sum(played.values()) > 0.99 * session._ticks


def test_data_ticks_run_inside_few_kernel_events():
    executed = {}
    for name in builtin_scenario_names():
        session = build_session(load_builtin(name))
        session.run()
        executed[name] = session.kernel.executed
        if name == "n9_dailymotion_3g":
            # a 1.25x throttled watch moves bytes on every tick after its fast start
            assert sum(r.kind == DATA for r in session.transport.records) == 27_726
    assert executed["n9_dailymotion_3g"] <= 50
    # window refills (the freed window, then a zero-window advertisement) play in spans
    assert executed["compare_encoding_3g"] <= 50
    # paced plans carry the bursty server's writes
    for name in ("compare_throttle_bursty_3g", "galaxy_s3_dailymotion_wifi",
                 "iphone_youtube_720p_3g", "iphone_youtube_sd_3g", "nexus_s_youtube_browser_3g"):
        assert executed[name] <= 20, name
    assert sum(executed.values()) <= 1_000


def test_a_flow_run_books_its_bytes_once(monkeypatch):
    # the encoding-rate client refills its window 5,482 times in this
    # session; each fill emits its DATA records before the zero-window
    # advertisement, but a span books its bytes once, at its end
    on_data = StreamingSession._on_data
    booked = []

    def counted(self, nbytes, conn_id, now):
        booked.append(nbytes)
        return on_data(self, nbytes, conn_id, now)

    monkeypatch.setattr(StreamingSession, "_on_data", counted)
    session = build_session(load_builtin("compare_encoding_3g"))
    metrics = session.run()
    assert len(booked) <= 50
    wire = sum(r.payload for r in session.transport.records if r.kind == DATA)
    assert sum(booked) == metrics.received_total == wire


READ_VIDEOS = {
    "constant": VideoSpec.constant(20, 500_000),
    "vbr": VideoSpec.vbr(20, 500_000, 0.8, period_s=10.0),
    "still_seconds": VideoSpec([62_500] * 3 + [0] * 2 + [62_500] * 5),
}


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(READ_VIDEOS)),
    tick_s=st.sampled_from([0.01, 0.02, 0.025]),  # the ticks random_sessions() draws
    where=st.sampled_from(["start", "ticks", "whole", "end", "past"]),
    second=st.integers(0, 20),
    frac=st.floats(-1.0, 1.0),
)
def test_encoding_rate_reads_the_next_tick_of_media(name, tick_s, where, second, frac):
    # reads() works over a column of playheads; over one tick it must give
    # the bytes cum_bytes gives
    video = READ_VIDEOS[name]
    end = video.duration_s
    if where == "ticks":
        # a playhead as playback builds it, one tick added at a time
        playhead = 0.0
        for _ in range(int(abs(frac) * end / tick_s)):
            playhead += tick_s
    else:
        playhead = {
            "start": 0.0,
            "whole": min(second, end) + frac * tick_s,  # within a tick of a whole second
            "end": end - abs(frac) * tick_s,  # within one tick of the end
            "past": end + abs(frac) * 5.0,
        }[where]
    session = StreamingSession(video, TechniqueSpec(ENCODING_RATE), PATH, tick_s=tick_s)
    expected = int(math.ceil(video.cum_bytes(playhead + tick_s) - video.cum_bytes(playhead)))
    assert session.policy.reads((playhead, playhead + tick_s)) == [expected]


def every_tick(session, now):
    """Stands in for _play_quiet: every tick gets its own kernel event."""
    return now + session.tick_s


def play(video, technique, path, kw):
    """Records, metrics and the error text (or None) of one session."""
    session = StreamingSession(video, technique, path, **kw)
    try:
        session.run()
        error = None
    except DeadlockError as exc:
        error = str(exc)
    records = [(r.time, r.direction, r.payload, r.kind, r.conn_id)
               for r in session.transport.records]
    return error, session.metrics, records


def fixed_cases():
    """(name, (video, technique, path, kw)) of every fixed case below: each
    technique on a fast, a jittery and a too-slow path, then still frames,
    VBR clips and a DASH refetch."""
    specs = {
        "encoding_rate": TechniqueSpec(ENCODING_RATE, fast_start_s=5.0),
        "throttle": TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25),
        "throttle_bursty": TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25,
                                         burst_size=65_536),
        "throttle_capped": TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=1.5,
                                         buffer_cap=300_000, keyframe_waste=True),
        "on_off": TechniqueSpec(ON_OFF, fast_start_s=10.0, low_watermark_s=2.0,
                                high_watermark_s=10.0),
        "on_off_per_burst": TechniqueSpec(ON_OFF, fast_start_s=10.0, low_watermark_s=0.0,
                                          high_watermark_s=10.0, connection_mode=PER_BURST),
        "fast_caching": TechniqueSpec(FAST_CACHING, fast_start_s=2.0),
        "dash": TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0),
    }
    configs = {
        "fast": (PATH, {}),
        "jittery_partial": (PathSpec(6_000_000, rtt_s=0.3, jitter=0.1),
                            dict(watched_fraction=0.4, recv_capacity=4_000,
                                 probe_interval=1.0, seed=7)),
        "slow": (PathSpec(400_000, rtt_s=0.05), {}),  # slower than the clip: stalls
    }
    video = VideoSpec.constant(45, 500_000, keyframe_spacing=40_000, ladder=LADDER)
    cases = [
        (f"{s}@{c}", (video, spec, path, kw))
        for s, spec in specs.items() for c, (path, kw) in configs.items()
    ]
    vbr = VideoSpec.vbr(45, 500_000, 0.5, period_s=15.0, ladder=LADDER)
    # still frames: the client reads nothing for a second, then reopens the window
    stills = VideoSpec([62_500] * 10 + [0] * 2 + [62_500] * 20)
    er = specs["encoding_rate"]
    cases += [
        ("encoding_rate@jitter_0.3_4kB", (video, er, PathSpec(6_000_000, rtt_s=0.3, jitter=0.3),
                                          dict(recv_capacity=4_000, seed=3))),
        ("encoding_rate@still_frames", (stills, er, PATH, {})),
        ("encoding_rate@vbr", (vbr, er, PATH, {})),
        ("on_off@vbr", (vbr, specs["on_off"], PATH, {})),
        ("dash@vbr", (vbr, TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0), PATH, {})),
        ("dash_refetch@fast", (video, TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0,
                                                    dash_refetch_depth=2), PATH, {})),
    ]
    return cases


def test_quiet_spans_change_no_output(monkeypatch):
    # reference: every tick its own kernel event; _play_quiet plays every
    # planned run (quiet, paced, window refills, stalled), so this turns off all
    cases = [case for _, case in fixed_cases()]

    def outputs():
        return [play(*case) for case in cases]

    skipped = outputs()
    assert [error for error, _, _ in skipped] == [None] * len(cases)
    capped = skipped[9][1]  # throttle_capped on the fast path
    assert capped.connection_count > 1 and capped.wasted_bytes > 0  # reconnects, key frames lost
    monkeypatch.setattr(StreamingSession, "_play_quiet", every_tick)
    assert outputs() == skipped


def fingerprint(error, metrics, records):
    """sha256 of a session's error text, metrics and records, as repr()s."""
    text = repr((error, asdict(metrics), records))
    return hashlib.sha256(text.encode()).hexdigest()


def test_fixed_sessions_match_their_golden_fingerprints():
    # A reference taken apart from the every-tick oracle: a change that moves
    # one record, metric or error text of a fixed case changes a hash here,
    # and must state its reason in CHANGES.md when it updates the file.
    golden = json.loads(GOLDEN_SESSIONS.read_text())
    got = {name: fingerprint(*play(*case)) for name, case in fixed_cases()}
    assert sorted(golden) == sorted(got)
    assert [name for name in got if got[name] != golden[name]] == []


@st.composite
def random_sessions(draw):
    kind = draw(st.sampled_from([ENCODING_RATE, THROTTLE, ON_OFF, FAST_CACHING, DASH]))
    fast_start_s = draw(st.sampled_from([0.0, 1.0, 2.0]))
    tight_headroom = False
    if kind == THROTTLE:
        factor = draw(st.sampled_from([1.25, 2.0, 8.0]))
        shape = draw(st.sampled_from(["steady", "bursty", "capped"]))
        technique = TechniqueSpec(
            THROTTLE, fast_start_s=fast_start_s, throttle_factor=factor,
            # a burst under one tick's allowance, several bursts on one tick,
            # and on the slow path a queue that never drains
            burst_size=draw(st.sampled_from([1_500, 8_000, 65_536, 200_000]))
            if shape == "bursty" else None,
            buffer_cap=draw(st.sampled_from([300_000, 600_000])) if shape == "capped" else None,
            keyframe_waste=draw(st.booleans()),
        )
        tight_headroom = shape == "capped" and draw(st.booleans())
    elif kind == ON_OFF:
        low = draw(st.sampled_from([0.0, 1.0, 3.0]))
        technique = TechniqueSpec(
            ON_OFF, fast_start_s=fast_start_s, low_watermark_s=low,
            high_watermark_s=draw(st.sampled_from([low + 2.0, low + 6.0, 20.0])),
            connection_mode=draw(st.sampled_from([PERSISTENT, PER_BURST])),
        )
    elif kind == DASH:
        # a 10 s fast start still holds its first segment unplayed at the
        # first upward switch, so a refetch re-downloads it
        technique = TechniqueSpec(
            DASH, fast_start_s=draw(st.sampled_from([fast_start_s, 10.0])),
            dash_target_s=draw(st.sampled_from([3.0, 8.0])),
            dash_refetch_depth=draw(st.sampled_from([0, 2])),
            dash_replaced_counts_waste=draw(st.booleans()),
        )
    else:
        technique = TechniqueSpec(kind, fast_start_s=fast_start_s)
    duration = draw(st.sampled_from([10, 20]))
    rate = draw(st.sampled_from([250_000, 500_000, 1_000_000]))
    if draw(st.booleans()):
        video = VideoSpec.vbr(duration, rate, draw(st.sampled_from([0.3, 0.8])), period_s=10.0,
                              keyframe_spacing=40_000, ladder=LADDER)
    else:
        video = VideoSpec.constant(duration, rate, keyframe_spacing=40_000, ladder=LADDER)
    # ENCODING_RATE on a zero rtt and a 4 kB window refills the window on
    # every tick: the freed space, then a zero-window advertisement
    refills = kind == ENCODING_RATE and draw(st.booleans())
    path = PathSpec(
        draw(st.sampled_from([300_000, 1_000_000, 6_000_000])),
        rtt_s=0.0 if refills else draw(st.sampled_from([0.0, 0.05, 0.3])),
        jitter=draw(st.sampled_from([0.0, 0.1, 0.3])),
    )
    kw = dict(
        tick_s=draw(st.sampled_from([0.01, 0.02, 0.025])),
        watched_fraction=draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 1.0))),
        recv_capacity=4_000 if refills else draw(st.sampled_from([4_000, 65_536])),
        probe_interval=draw(st.sampled_from([1.0, 5.0])),
        seed=draw(st.integers(0, 99)),
        # short horizons end in DeadlockError
        max_sim_time=draw(st.one_of(st.just(60.0), st.floats(3.0, 60.0))),
    )
    if technique.buffer_cap is not None:
        # a fast start the store cannot hold is rejected up front (see
        # test_fast_start_larger_than_the_store_cap_is_rejected)
        assume(video.cum_bytes(fast_start_s) <= technique.buffer_cap)
        if tight_headroom:
            # the smallest headroom a session accepts: one byte over the
            # store slack (see test_reopen_headroom_within_the_store_slack_is_rejected)
            slack = int(max(video.schedule) * kw["tick_s"]) + 2
            technique = replace(technique, reopen_headroom=slack + 1)
    return video, technique, path, kw


@settings(max_examples=100, deadline=None)
@given(random_sessions())
def test_random_sessions_match_every_tick_playback(case):
    spans = play(*case)
    error, metrics, records = spans
    assert_billed_on_the_wire(metrics, [PacketRecord(*r) for r in records], error is None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_play_quiet", every_tick)
        assert play(*case) == spans


@settings(max_examples=300, deadline=None)
@given(random_sessions())
def test_random_sessions_that_finish_audit_clean(case):
    # priced under one 3G RRC and one Wi-Fi PSM radio of the bundled scenarios
    video, technique, path, kw = case
    session = StreamingSession(video, technique, path, **kw)
    try:
        metrics = session.run()
    except DeadlockError:
        return
    for name in ("compare_encoding_3g", "galaxy_s3_dailymotion_wifi"):
        scenario = replace(load_builtin(name), video=video, technique=technique, path=path)
        assert audit(_report(scenario, metrics, session.transport.records)) == [], name


@pytest.mark.parametrize("technique, interval", [
    (TechniqueSpec(FAST_CACHING, fast_start_s=2.0), 0.1),
    (TechniqueSpec(ON_OFF, fast_start_s=10.0, low_watermark_s=2.0, high_watermark_s=10.0), 0.1),
    (TechniqueSpec(ENCODING_RATE, fast_start_s=5.0), 0.25),
])
def test_buffer_samples_are_a_whole_number_of_ticks_apart(technique, interval):
    session, m = run(VideoSpec.constant(60, 500_000), technique, sample_interval=interval)
    times = [t for t, _, _ in m.buffer_series]
    gaps = {round((b - a) / session.tick_s) for a, b in zip(times, times[1:-1])}
    assert gaps == {round(interval / session.tick_s)}


# -- steady paced chunks ---------------------------------------------------


def chunk_cuts(session, args, plan):
    """The rules that end a run _flow played in bulk (what stops the tick
    after it), and the window events a paced run carried ("fill" and
    "reopen"), worked out from the plan's columns and not from its cut.  A
    quiet run's rules are named "quiet <rule>".  The books are the
    session's, as _chunk read them: _flow books a plan after it."""
    t, = args
    k, ts, phs, ns, upto, pacing = plan.k, plan.ts, plan.phs, plan.ns, plan.upto, plan.pacing
    conn, buf, policy = session.conn, session.buffer, session.policy
    dt, end = session.tick_s, session.watched_end
    conn_t = min(conn.next_action(t, dt), policy.burst_next)
    reads, acts = policy.rule(session)
    windowed = session._run_kind(t + dt, conn_t, reads, acts) == WINDOWED
    # a windowed run stops before the bursty server's next write; a quiet
    # run stops before it too, as the connection's next action; a paced run
    # carries the writes on its ticks, which the queue grows by (serve())
    stop_t = session.max_sim_time
    if windowed:
        stop_t = min(policy.burst_next, stop_t)
    queue, at, left = conn.send_queue, policy.burst_next, getattr(policy, "server_left", 0)
    while at <= ts[k]:
        n = min(session.technique.burst_size, left)
        queue, left = queue + n, left - n
        at = at + policy.interval if left else math.inf
    media_pos, dup, playhead, consumed = buf.pos, buf.dup, session.playhead, buf.consumed
    delivered = buf.delivered()
    to_go = math.inf
    if session.phase == "FAST_START" and session.technique.kind != DASH:
        to_go = buf.ready_at - media_pos
    # a paced progressive run that sends the last of the queue idles on
    # after it where no rule acts on the store (session._lay_bytes)
    idles = (not windowed and session.technique.kind != DASH and conn.send_queue < to_go
             and acts is None and buf.cap is None)

    def ends_met(nbytes):  # the ends of the bytes that a run sending nbytes in all meets
        edges = (("queue", math.inf if idles else queue), ("fast_start", to_go))
        return {cut for cut, edge in edges if nbytes >= edge}

    cuts = set()
    if plan.fills:
        cuts.add("fill")
    if pacing is not None and pacing.reopened is not None:
        cuts.add("reopen")
    pos = media_pos + max(0, upto[k - 1] - dup) if upto else media_pos
    used = consumed
    if queue and upto and upto[k - 1] >= queue and not idles:
        cuts.add("queue")  # a paced run's last tick emptied the queue
    if ns is not None and k < len(ns):
        # the tick after a run that the act rule or the store limit cut
        if ns[k]:
            cuts |= ends_met(upto[k])
        if phs is not None:
            used = buf.consumed_at(phs[k], pos)
        limit = buf.limit(pos, used, max(0, dup - upto[k - 1]))
        if limit is not None and ns[k] >= limit:
            cuts.add("limit")
        pos = media_pos + max(0, upto[k] - dup)
    if k + 1 < len(ts):
        if ts[k + 1] >= stop_t:
            cuts.add("clock")
        elif ns is None and ts[k + 1] >= conn_t:
            cuts.add("next_action")  # a quiet run also ends at the connection's next action
        elif pacing is not None and pacing.closed is not None and pacing.closed == ts[k]:
            cuts.add("shut")  # the last tick filled a window the client did not reopen
        ahead = playhead
        if phs is not None:
            ahead = phs[k + 1]
            used = buf.consumed_at(ahead, pos)
            if end - phs[k] < dt or ahead >= end - 1e-12:
                cuts.add("watch")
            if delivered - phs[k] + 1e-9 < dt:
                cuts.add("dry")
        got = session.video.media_time(pos) if pos != media_pos else delivered
        if acts is not None and acts(pos, got, ahead, used):
            cuts.add(acts.__name__)
        if ns is not None and k == len(ns):
            # Connection.plan lays out no tick past its cut: the next one's
            # bytes, paced as advance() would from the state the run leaves
            n, _ = paced(ts[k + 1], dt, pacing.resume, conn.byte_rate, pacing.credit,
                         queue - upto[k - 1], conn.recv_capacity - pacing.occupancy)
            if n:
                cuts |= ends_met(upto[k - 1] + n)
    return {c if ns is not None else "quiet " + c for c in cuts}


# the stops of a plan that chunk_cuts cannot see: the last tick a paced run
# builds (_STRETCH), and a windowed run's stop before a send into a zero window
UNSEEN_CUTS = {"stretch", "zero_window"}


@contextmanager
def planned():
    """Counters of the ticks the planner's quiet and paced runs play, of
    the rules that end them (chunk_cuts) and of the cuts the planner names
    (Plan.cut), while the block runs.  Each plan's cut must be one of the
    rules that end it, or one they cannot see where they find none."""
    plan = StreamingSession._chunk
    played, cuts, named = Counter(), Counter(), Counter()

    def counted(self, *args):
        chunk = plan(self, *args)
        if chunk is not None:
            quiet = "quiet " if chunk.ns is None else ""
            played["quiet" if quiet else "paced"] += chunk.k
            seen = chunk_cuts(self, args, chunk)
            cuts.update(seen)
            named[quiet + chunk.cut] += 1
            rules = {c.removeprefix("quiet ") for c in seen} - {"fill", "reopen"}
            assert chunk.cut in (rules or UNSEEN_CUTS), (chunk.cut, rules)
        return chunk

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_chunk", counted)
        yield played, cuts, named


def play_chunks(case):
    """play() of a case, the ticks its quiet and paced runs played, the
    rules that ended them and the cuts the planner named."""
    with planned() as (played, cuts, named):
        out = play(*case)
    return out, played, cuts, named


def play_without_chunks(case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_play_quiet", every_tick)
        return play(*case)


def bundled_outputs(name):
    session = build_session(load_builtin(name))
    metrics = session.run()
    return metrics, [(r.time, r.direction, r.payload, r.kind, r.conn_id)
                     for r in session.transport.records]


def test_chunks_change_no_output(monkeypatch):
    # reference: every tick its own kernel event
    cases = [case for _, case in fixed_cases()]
    names = builtin_scenario_names()
    chunked = [play_chunks(case) for case in cases]
    bundled = [bundled_outputs(name) for name in names]
    assert sum(ticks["paced"] for _, ticks, _, _ in chunked) > 10_000
    assert sum(ticks["quiet"] for _, ticks, _, _ in chunked) > 10_000
    monkeypatch.setattr(StreamingSession, "_play_quiet", every_tick)
    assert [play(*case) for case in cases] == [out for out, _, _, _ in chunked]
    assert [bundled_outputs(name) for name in names] == bundled


def test_every_tick_is_planned_or_full():
    # no third kind of tick: the planner lays out every tick that is not a
    # full tick (kernel event) of its own
    for name in builtin_scenario_names():
        session = build_session(load_builtin(name))
        with planned() as (played, _, _):
            session.run()
        assert sum(played.values()) + session.kernel.executed == session._ticks, name


def test_no_sending_run_is_planned_while_playback_stalls():
    # the transport takes no playback state: a stalled session plans only
    # quiet runs, and the bytes that end its stall arrive on a full tick.
    # Over the fixed cases on the too-slow path, and a bundled scenario on
    # a path at 0.8 of its clip's rate, which flaps between play and stall
    chunk = StreamingSession._chunk
    plans = Counter()

    def counted(self, *args):
        plan = chunk(self, *args)
        if plan is not None:
            plans["stalled " * self.stalled + ("quiet" if plan.ns is None else "sending")] += 1
        return plan

    scenario = load_builtin("compare_encoding_3g")
    scenario = scenario.with_path(bandwidth_bps=0.8 * scenario.video.avg_rate_bps)
    cases = [case for name, case in fixed_cases() if name.endswith("@slow")]
    cases.append((scenario.video, scenario.technique, scenario.path,
                  dict(tick_s=scenario.tick_s, recv_capacity=scenario.recv_capacity,
                       probe_interval=scenario.probe_interval_s, seed=scenario.seed)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_chunk", counted)
        chunked = [play(*case) for case in cases]
    assert plans["stalled sending"] == 0
    assert plans["stalled quiet"] > 0 and plans["sending"] > 0
    assert len(chunked[-1][1].stalls) > 1_000
    assert [play_without_chunks(case) for case in cases] == chunked


def test_dash_plans_only_quiet_runs_while_it_may_request():
    # Dash.rule has an act rule only while no download is outstanding, and
    # then the send queue is empty: every run planned under it is quiet.  So
    # the planner needs no segment-store case in _cut_search or _holds: a
    # quiet run moves no byte, its pos stands and its act rule is monotone.
    # Over every DASH session: the bundled ones, the fixed cases, and the
    # refetch variant whose replaced copies are or are not the waste
    chunk = StreamingSession._chunk
    plans = Counter()

    def counted(self, t):
        _, acts = self.policy.rule(self)
        plan = chunk(self, t)
        if plan is not None and acts is not None:
            plans["quiet" if plan.ns is None else "sending"] += 1
        return plan

    sessions = [build_session(load_builtin(name))
                for name in ("compare_dash_3g", "iphone_vimeo_dash_wifi")]
    dash = load_builtin("compare_dash_3g")
    for waste in (False, True):
        technique = replace(dash.technique, dash_refetch_depth=2, dash_replaced_counts_waste=waste)
        sessions.append(build_session(replace(dash, technique=technique)))
    cases = [case for name, case in fixed_cases() if name.startswith("dash")]
    assert len(cases) == 5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_chunk", counted)
        for session in sessions:
            session.run()
        for case in cases:
            play(*case)
    assert plans["sending"] == 0
    assert plans["quiet"] > 50


def test_the_planner_reads_live_books():
    # _flow books each plan into the session as it plays it: at every call,
    # _chunk sees the clock, byte books and playhead that a session with one
    # kernel event per tick holds at the end of the same tick
    def books(session, t):
        buf, policy = session.buffer, session.policy
        return (t, buf.received, buf.pos, buf.dup, buf.consumed, session.playhead,
                getattr(policy, "server_left", 0), policy.burst_next)

    plan = StreamingSession._chunk
    calls = 0
    for name, case in fixed_cases():
        planned, ticked = [], {}

        def read_books(self, t):
            planned.append((self._ticks, books(self, t)))
            return plan(self, t)

        def every_tick_books(session, now):
            ticked[session._ticks] = books(session, now)
            return now + session.tick_s

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StreamingSession, "_chunk", read_books)
            play(*case)
            patch.setattr(StreamingSession, "_play_quiet", every_tick_books)
            play(*case)
        assert [seen for _, seen in planned] == [ticked[ticks] for ticks, _ in planned], name
        calls += len(planned)
    assert calls > 10_000


STEADY = TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25)
CLIP =VideoSpec.constant(60, 500_000, keyframe_spacing=40_000)
ON_OFF_SPEC = dict(fast_start_s=10.0, low_watermark_s=2.0, high_watermark_s=10.0)
CAPPED = TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=1.5, buffer_cap=300_000,
                       keyframe_waste=True)
STILLS = VideoSpec([62_500] * 10 + [0] * 2 + [62_500] * 20)


@pytest.mark.parametrize("case, cut", [
    # the tick that completes a DASH download (its whole queue) is a full tick
    ((VideoSpec.constant(60, 500_000, ladder=LADDER),
      TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0), PATH, {}), "queue"),
    ((CLIP, TechniqueSpec(FAST_CACHING, fast_start_s=40.0), PATH, {}), "fast_start"),
    ((CLIP, STEADY, PATH, dict(watched_fraction=0.5)), "watch"),
    # a 4 kB window on the 6 Mb/s path: each tick refills the window, so the
    # runs are windowed, and a windowed run stops before the server's write
    ((CLIP, TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=2.0, burst_size=200_000),
      PATH, dict(recv_capacity=4_000)), "clock"),
    ((CLIP, TechniqueSpec(FAST_CACHING, fast_start_s=5.0), PathSpec(400_000, rtt_s=0.05), {}),
     "dry"),
    # paced runs that carry an act rule: a capped store fills and a burst
    # reaches the high watermark
    ((CLIP, CAPPED, PATH, {}), "store_full"),
    ((CLIP, TechniqueSpec(ON_OFF, **ON_OFF_SPEC), PATH, {}), "burst_ends"),
    # a paced run carries a bursty server's writes up to the most ticks it
    # builds; a quiet run that follows it stops before the next write, the
    # connection's next action
    ((CLIP, TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25, burst_size=65_536),
      PATH, {}), "quiet next_action"),
    # the encoding-rate client fills the window and reopens it on the same
    # tick; over still frames it reads nothing, so a fill ends the run and
    # a later run reopens the window
    ((CLIP, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0), PATH, {}), "fill"),
    ((STILLS, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0), PATH, {}), "shut"),
    ((STILLS, TechniqueSpec(ENCODING_RATE, fast_start_s=5.0), PATH, {}), "reopen"),
    # quiet runs: between bursts, with no download under way, while a
    # closed store drains, after the file is in, and until the connection's
    # next action (a zero-window probe, or the sender's resume an rtt on)
    ((CLIP, TechniqueSpec(ON_OFF, connection_mode=PER_BURST, **ON_OFF_SPEC), PATH, {}),
     "quiet below_low_watermark"),
    ((VideoSpec.constant(60, 500_000, ladder=LADDER),
      TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0), PATH, {}), "quiet buffer_short"),
    ((CLIP, CAPPED, PATH, {}), "quiet store_reopens"),
    ((CLIP, TechniqueSpec(FAST_CACHING, fast_start_s=5.0), PATH, dict(watched_fraction=0.5)),
     "quiet watch"),
    ((CLIP, TechniqueSpec(ON_OFF, **ON_OFF_SPEC), PATH, {}), "quiet next_action"),
], ids=["queue", "fast_start", "watch", "burst", "run_dry", "store_full", "burst_ends",
        "burst_train", "encoding_fill", "encoding_shut", "encoding_reopen", "quiet_low_watermark",
        "quiet_dash_target", "quiet_store_reopens", "quiet_watch", "quiet_next_action"])
def test_a_chunk_cut_by_each_rule_plays_as_every_tick(case, cut):
    out, ticks, cuts, named = play_chunks(case)
    assert ticks["quiet" if cut.startswith("quiet") else "paced"] > 100 and cuts[cut] > 0, cuts
    # the planner names the cut itself; a fill and a reopen are window events, not cuts
    assert cut in ("fill", "reopen") or named[cut] > 0, named
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_play_quiet", every_tick)
        assert play(*case) == out


def test_a_plan_carries_several_bursts():
    # a 64 kB burst crosses the 6 Mb/s path in about nine ticks, and the
    # server writes one every 84 ticks: a paced plan carries the writes on
    # its ticks, so no write costs a full tick
    case = (CLIP, TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25,
                                burst_size=65_536), PATH, {})
    plan = StreamingSession._chunk
    carried = []

    def counted(self, *args):
        chunk = plan(self, *args)
        if chunk is not None and chunk.writes:
            carried.append(sum(i < chunk.k for i, _, _ in chunk.writes))
        return chunk

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_chunk", counted)
        session = StreamingSession(*case[:3])
        session.run()
    # the full tick that ends the fast start writes the first of 53 bursts
    assert sum(carried) == 52 and max(carried) >= 5
    assert session.kernel.executed <= 10


def test_a_plan_from_an_empty_queue_keeps_the_credit():
    # 15,625 B is five ticks of the 1 Mb/s path at 25 ms, so the tick that
    # empties the queue sends its whole allowance and keeps its credit, and
    # an empty queue sends nothing and keeps it too (paced()).  A plan that
    # starts on a write's tick with the queue empty carries that credit
    # into the burst (Connection.plan from an empty queue).
    case = (VideoSpec.constant(30, 250_000),
            TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=1.25, burst_size=15_625),
            PathSpec(1_000_000, rtt_s=0.05), dict(tick_s=0.025))
    plan, credits = Connection.plan, []

    def from_empty(self, ts, dt, wants, left, rest=False, credit=None):
        if left <= 0:
            credits.append(self._rate_frac if credit is None else credit)
        return plan(self, ts, dt, wants, left, rest, credit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Connection, "plan", from_empty)
        out = play(*case)
    assert any(credits)
    assert play_without_chunks(case) == out


def test_a_chunk_paces_its_first_tick_from_the_resume_time():
    # (0.02 + 0.01) - 0.01 rounds below 0.02: a sender resuming at 0.02
    # gets less than a whole tick on the tick that ends at 0.03
    session = StreamingSession(CLIP, STEADY, PATH)
    session.policy.start(session, 0.0)
    conn = session.conn
    t, dt = 0.02, session.tick_s
    start = t + dt - dt
    assert start < t
    conn.send_queue = 10**9
    session.buffer.ready_at = 10**9

    def plan(resume):
        conn._resume_at = resume
        return session._chunk(t)

    for resume in (t, start):
        run = plan(resume)
        assert run.k == _STRETCH and run.cut == "stretch"
        assert run.ts[1] == t + dt and not run.fills
        first = paced(run.ts[1], dt, resume, conn.byte_rate, 0.0, 10**9, 10**9)
        assert run.ns[0] == first[0] and 0.0 <= run.pacing.credit < 1.0
    assert plan(t).ns[0] < plan(start).ns[0]


def test_random_sessions_play_chunks_as_every_tick():
    played = Counter()

    @settings(max_examples=100, deadline=None)
    @given(random_sessions())
    @example((VideoSpec.constant(20, 500_000), TechniqueSpec(THROTTLE, throttle_factor=2.0),
              PATH, {}))
    @example((VideoSpec.constant(20, 500_000), TechniqueSpec(FAST_CACHING), PATH, {}))
    def chunks_change_nothing(case):
        out, ticks, _, _ = play_chunks(case)
        assert play_without_chunks(case) == out
        played[case[1].kind] += ticks["paced"]
        played["quiet"] += ticks["quiet"]

    chunks_change_nothing()
    assert played["quiet"] > 0 and all(played[kind] > 0 for kind in (
        THROTTLE, FAST_CACHING, ENCODING_RATE, ON_OFF, DASH))


def test_a_window_fill_emits_its_records_once(monkeypatch):
    # the encoding-rate client refills its window 5,481 times in this
    # session, inside 66 windowed plans: each plan emits its DATA records
    # and their zero-window advertisements in one call
    emit_run = Transport.emit_run
    calls = []

    def counted(self, direction, kind, conn_id, times, payloads, ads=()):
        calls.append(len(ads))
        return emit_run(self, direction, kind, conn_id, times, payloads, ads)

    monkeypatch.setattr(Transport, "emit_run", counted)
    session = build_session(load_builtin("compare_encoding_3g"))
    session.run()
    fills = sum(calls)
    assert fills > 5_000
    assert len(calls) <= 100
    assert kinds_of(session).count(ZERO_WINDOW_AD) >= fills


# -- degradation and guards ------------------------------------------------


def test_underprovisioned_path_stalls_but_finishes():
    video = VideoSpec.constant(60, 500_000)
    session, m = run(
        video,
        TechniqueSpec(ENCODING_RATE, fast_start_s=5.0),
        path=PathSpec(400_000, rtt_s=0.05),
    )
    assert len(m.stalls) >= 1
    assert m.stall_total_s > 5.0
    assert m.watched_s == pytest.approx(60.0)
    assert m.duration_s > 70.0
    assert_conserved(session, m)


def test_horizon_reports_a_slow_session_as_still_progressing():
    # a 1500 B receive window over a 0.6 s rtt moves ~2.5 kB/s: too slow, not stuck
    with pytest.raises(DeadlockError, match=(
        r"too slow for the horizon, still progressing at t=1079\.\d\d: "
        r"delivered 42\.48 of 60 s by t=1080\.0"
    )):
        run(
            VideoSpec.constant(60, 500_000),
            TechniqueSpec(ENCODING_RATE, fast_start_s=5.0),
            path=PathSpec(2_000_000, rtt_s=0.6),
            recv_capacity=1500,
        )


def test_horizon_reports_a_stuck_session_with_the_time_it_stopped():
    # the store never drains 300 kB below its 200 kB cap, so it never reopens
    session = StreamingSession(
        VideoSpec.constant(60, 500_000),
        TechniqueSpec(
            THROTTLE, fast_start_s=2.0, throttle_factor=2.0,
            buffer_cap=200_000, reopen_headroom=300_000,
        ),
        PATH,
        max_sim_time=120.0,
    )
    with pytest.raises(DeadlockError, match=(
        r"stuck, no media byte or playhead movement since t=4\.58: "
        r"delivered 4\.36 of 60 s by t=120\.0"
    )):
        session.run()
    # the stall up to the horizon is played in one span, not tick by tick
    assert session.kernel.executed < 100


@pytest.mark.parametrize("cap, depth, stuck", [
    # the store fills in the fast start, before a segment is whole
    (300_000, 0, ("0.52", 325_000, "FAST_START")),
    (600_000, 0, ("0.92", 25_000, "FAST_START")),
    # a refetch after an upward switch fills it in steady play
    (1_300_000, 2, ("36.62", 200_000, "STEADY")),
    # controls: the same store without refetches, and a larger one with them
    (1_300_000, 0, None),
    (2_000_000, 2, None),
], ids=["fast-start-300k", "fast-start-600k", "refetch-1300k", "no-refetch-1300k", "refetch-2000k"])
def test_dash_stuck_on_a_full_store_says_so(cap, depth, stuck):
    technique = TechniqueSpec(DASH, fast_start_s=10, dash_target_s=15,
                              buffer_cap=cap, dash_refetch_depth=depth)
    session = StreamingSession(ladder_video(), technique, PathSpec(6_000_000))
    if stuck is None:
        assert session.run().watched_s == pytest.approx(60.0)
        return
    since, queued, phase = stuck
    with pytest.raises(DeadlockError, match=re.escape(
        f"stuck, no media byte or playhead movement since t={since}, with the store full "
        f"({cap} B held, cap {cap} B) and {queued} B still queued: "
    ) + rf".*\(phase={phase} ") as err:
        session.run()
    # progress is media seconds of the clip, which refetched bytes do not inflate
    delivered, clip = re.search(r"delivered (\S+) of (\d+) s", str(err.value)).groups()
    assert float(delivered) <= float(clip) == 60.0
    buf = session.buffer
    assert buf.held(buf.consumed) == cap and buf.limit(buf.pos, buf.consumed, buf.dup) == 0


def test_fast_start_larger_than_the_store_cap_is_rejected():
    # 6 s of a 500 kb/s clip is 375,000 B, which a 200,000 B store never holds
    with pytest.raises(ValueError, match="375000 B buffered .* at most 200000 B"):
        StreamingSession(
            VideoSpec.constant(60, 500_000),
            TechniqueSpec(THROTTLE, fast_start_s=6.0, throttle_factor=1.25,
                          buffer_cap=200_000),
            PATH,
        )


def test_reopen_headroom_within_the_store_slack_is_rejected():
    # a store that reopens within one tick of playback of being full still
    # counts as full: the client would reset each new connection at once.
    # One 10 ms tick of a 500 kb/s clip is 625 B, so the slack is 627 B.
    video = VideoSpec.constant(60, 500_000)
    for headroom in (1, 627):
        with pytest.raises(ValueError, match="headroom of %d B .* store slack of 627 B" % headroom):
            StreamingSession(
                video,
                TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=2.0,
                              buffer_cap=300_000, reopen_headroom=headroom),
                PATH,
            )
    StreamingSession(
        video,
        TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=2.0,
                      buffer_cap=300_000, reopen_headroom=628),
        PATH,
    )


def test_deadlock_guard_trips_when_nothing_moves():
    video = VideoSpec.constant(60, 500_000)
    with pytest.raises(DeadlockError):
        run(
            video,
            TechniqueSpec(ENCODING_RATE, fast_start_s=30.0),
            path=PathSpec(1_000, rtt_s=0.05),
            max_sim_time=5.0,
        )


def test_same_seed_reproduces_the_trace_exactly():
    video = VideoSpec.constant(60, 500_000)
    spec = TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25, burst_size=65_536)
    path = PathSpec(6_000_000, rtt_s=0.05, jitter=0.1)
    traces = []
    for _ in range(2):
        session, _ = run(video, spec, path=path, seed=7)
        traces.append([(r.time, r.kind, r.payload) for r in session.transport.records])
    assert traces[0] == traces[1]
    session, _ = run(video, spec, path=path, seed=8)
    assert [(r.time, r.kind, r.payload) for r in session.transport.records] != traces[0]


# -- parameter validation --------------------------------------------------


def test_technique_validation_rejects_bad_specs():
    bad = [
        TechniqueSpec("TELEPATHY"),
        TechniqueSpec(ENCODING_RATE, fast_start_s=-1.0),
        TechniqueSpec(THROTTLE, throttle_factor=1.0),
        TechniqueSpec(THROTTLE, throttle_factor=2.0, burst_size=0),
        TechniqueSpec(THROTTLE, throttle_factor=2.0, burst_size=1, buffer_cap=100),
        TechniqueSpec(ON_OFF, low_watermark_s=5.0),
        TechniqueSpec(ON_OFF, low_watermark_s=20.0, high_watermark_s=5.0),
        TechniqueSpec(ON_OFF, low_watermark_s=1.0, high_watermark_s=5.0, connection_mode="BOTH"),
        TechniqueSpec(DASH),
        TechniqueSpec(DASH, dash_target_s=10.0, dash_safety=0.0),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            spec.validate()


def test_session_argument_validation():
    video = VideoSpec.constant(10, 100_000)
    with pytest.raises(ValueError):
        StreamingSession(video, TechniqueSpec(ENCODING_RATE), PATH, watched_fraction=0.0)
    with pytest.raises(ValueError):
        StreamingSession(video, TechniqueSpec(ENCODING_RATE), PATH, watched_fraction=1.5)
    with pytest.raises(ValueError):
        StreamingSession(video, TechniqueSpec(ENCODING_RATE), PATH, tick_s=0.0)


# tick_s=inf ended in a DeadlockError "stuck ... by t=960", max_sim_time=nan
# reported "by t=nan", probe_interval=nan ran to the end, and a NaN tick,
# sample interval or receive window failed converting NaN to an integer
@pytest.mark.parametrize("name", ["tick_s", "max_sim_time", "probe_interval",
                                  "sample_interval", "recv_capacity"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_session_rejects_a_parameter_that_is_not_positive_and_finite(name, value):
    # the receive capacity is Transport.open's, which asks for a whole byte
    rule = "at least 1 byte" if name == "recv_capacity" else "positive"
    with pytest.raises(ValueError, match="%s must be %s and finite" % (name, rule)):
        StreamingSession(VideoSpec.constant(10, 100_000), TechniqueSpec(ENCODING_RATE), PATH,
                         **{name: value})


@pytest.mark.parametrize("capacity, interval", [(0.5, 5.0), (0, 5.0), (65_536, 0.0)])
def test_session_rejects_at_construction_what_transport_open_rejects(capacity, interval):
    # recv_capacity=0.5 passed construction and failed only in run(), when
    # the first connection opened
    with pytest.raises(ValueError) as opened:
        Transport(PATH).open(0.0, capacity, interval)
    with pytest.raises(ValueError) as built:
        StreamingSession(VideoSpec.constant(10, 100_000), TechniqueSpec(ENCODING_RATE), PATH,
                         recv_capacity=capacity, probe_interval=interval)
    assert str(built.value) == str(opened.value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 3_000), min_size=1, max_size=12).filter(any),
    st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0]), st.floats(-3.0, 15.0), st.integers(-2, 15),
    ), max_size=30),
    st.booleans(),
)
def test_cum_bytes_at_matches_cum_bytes(schedule, times, at_end):
    # in bulk between 0 and the clip's end, at each time outside it alone
    video = VideoSpec(schedule)
    if at_end:
        times.append(video.duration_s)
    times.sort()
    got = video.cum_bytes_at(times)
    assert list(map(repr, got)) == list(map(repr, map(video.cum_bytes, times)))


def test_video_spec_schedule_arithmetic():
    video = VideoSpec.constant(60, 500_000)
    assert video.total_bytes == 3_750_000
    assert video.cum_bytes(0) == 0.0
    assert video.cum_bytes(60) == 3_750_000.0
    assert video.cum_bytes(1.5) == pytest.approx(1.5 * 62_500)
    assert video.media_time(video.cum_bytes(17.3)) == pytest.approx(17.3)

    vbr = VideoSpec.vbr(60, 500_000, amplitude=0.4)
    assert vbr.total_bytes == 3_750_000
    assert max(vbr.schedule) > min(vbr.schedule)

    with pytest.raises(ValueError):
        VideoSpec([])
    with pytest.raises(ValueError):
        VideoSpec([-1, 5])
    with pytest.raises(ValueError):
        VideoSpec.vbr(60, 500_000, amplitude=1.5)


def test_vbr_names_a_negative_last_second_correction():
    # five seconds of a rising 30 s sine overshoot the total by 5137 B
    with pytest.raises(ValueError, match="last-second correction .* negative by 5137 B"):
        VideoSpec.vbr(5, 500_000, 0.9)


def test_randomized_sessions_always_balance_the_books():
    rng = random.Random(11)
    for trial in range(8):
        duration = rng.choice([30, 45, 60])
        rate = rng.choice([250_000, 500_000, 1_000_000])
        video = VideoSpec.constant(duration, rate)
        spec = rng.choice(
            [
                TechniqueSpec(ENCODING_RATE, fast_start_s=rng.choice([0.0, 5.0])),
                TechniqueSpec(
                    THROTTLE,
                    fast_start_s=5.0,
                    throttle_factor=rng.choice([1.25, 2.0]),
                    burst_size=rng.choice([None, 65_536]),
                ),
                TechniqueSpec(
                    ON_OFF,
                    fast_start_s=10.0,
                    low_watermark_s=2.0,
                    high_watermark_s=10.0,
                    connection_mode=rng.choice([PERSISTENT, PER_BURST]),
                ),
                TechniqueSpec(FAST_CACHING, fast_start_s=2.0),
            ]
        )
        session, m = run(
            video,
            spec,
            path=PathSpec(6_000_000, rtt_s=0.05, jitter=rng.choice([0.0, 0.1])),
            watched_fraction=rng.choice([0.5, 1.0]),
            seed=trial,
        )
        assert_conserved(session, m)
        assert m.watched_s > 0, f"trial {trial}"
    # DASH watches that re-fetch after their upward switch
    for trial in range(4):
        spec = TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=rng.choice([8.0, 20.0]),
                             dash_refetch_depth=2, dash_replaced_counts_waste=rng.random() < 0.5)
        session, m = run(
            ladder_video(rng.choice([30, 60])),
            spec,
            path=PathSpec(6_000_000, rtt_s=0.05, jitter=rng.choice([0.0, 0.1])),
            watched_fraction=rng.choice([0.5, 1.0]),
            seed=trial,
        )
        assert_conserved(session, m)
        assert kinds_of(session).count(REQUEST) > len(m.dash_quality_history) + 1
