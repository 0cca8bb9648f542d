import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import streamsim.session as session_module

from streamsim.analysis import group_bursts
from streamsim.harness import build_session
from streamsim.scenario import builtin_scenario_names, load_builtin
from streamsim.session import (
    DASH,
    ENCODING_RATE,
    FAST_CACHING,
    ON_OFF,
    PER_BURST,
    PERSISTENT,
    THROTTLE,
    DeadlockError,
    QualityLevel,
    StreamingSession,
    TechniqueSpec,
    VideoSpec,
    dash_pick_quality,
)
from streamsim.transport import (
    CLOSE_FIN,
    CLOSE_RST,
    DATA,
    PathSpec,
    ZERO_WINDOW_AD,
    ZERO_WINDOW_PROBE,
)

PATH = PathSpec(6_000_000, rtt_s=0.05)


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
    assert all(b >= -1e-9 for _, b, _ in metrics.buffer_series)


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


def test_dash_refetch_replaces_recent_unplayed_segments():
    video = ladder_video()
    spec = TechniqueSpec(
        DASH, fast_start_s=5.0, dash_target_s=20.0, dash_refetch_depth=2
    )
    session = StreamingSession(video, spec, PATH)
    session._segments = [(0.0, 5.0, 125_000), (5.0, 5.0, 125_000), (10.0, 5.0, 125_000)]
    session.playhead = 2.5
    session.received = 375_000
    session._dash_refetch(2)  # jump to the 800 kbps level
    # two newest unplayed segments re-downloaded, old copies kept on the books
    assert session.wasted == 2 * 500_000
    assert session.received == 375_000 + 2 * 500_000
    assert [n for _, _, n in session._segments] == [125_000] * 3


def test_dash_refetch_can_bill_the_replaced_copies_instead():
    video = ladder_video()
    spec = TechniqueSpec(
        DASH,
        fast_start_s=5.0,
        dash_target_s=20.0,
        dash_refetch_depth=2,
        dash_replaced_counts_waste=True,
    )
    session = StreamingSession(video, spec, PATH)
    session._segments = [(0.0, 5.0, 125_000), (5.0, 5.0, 125_000), (10.0, 5.0, 125_000)]
    session.playhead = 2.5
    session.received = 375_000
    session._dash_refetch(2)
    assert session.wasted == 2 * 125_000
    assert [n for _, _, n in session._segments] == [125_000, 500_000, 500_000]


def test_dash_pick_quality_takes_highest_affordable_level():
    assert dash_pick_quality(LADDER, 6_000_000, 1.0) == 2
    assert dash_pick_quality(LADDER, 450_000, 1.0) == 1
    assert dash_pick_quality(LADDER, 450_000, 0.5) == 0
    # nothing affordable: fall back to the cheapest level
    assert dash_pick_quality(LADDER, 50_000, 1.0) == 0
    with pytest.raises(ValueError):
        dash_pick_quality([], 1e6, 1.0)


# -- quiet spans and sampling ----------------------------------------------


def test_quiet_ticks_run_inside_one_kernel_event(monkeypatch):
    # fast caching has the file after 30 s of a 360 s watch; the rest is quiet
    runs_dry = session_module._runs_dry
    calls = []

    def counted(avail_media, step):
        calls.append(step)
        return runs_dry(avail_media, step)

    monkeypatch.setattr(session_module, "_runs_dry", counted)
    session = build_session(load_builtin("compare_fast_caching_3g"))
    session.run()
    assert session.kernel.executed <= len(session.transport.records) + 10
    # quiet stretches test the playback rules a few times per stretch, not
    # once per tick: 36,088 ticks, about 3,000 of them moving bytes
    assert session._ticks > 36_000
    assert len(calls) <= 6_000


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
    assert sum(executed.values()) <= 5_000


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


def test_quiet_spans_change_no_output(monkeypatch):
    # reference: every tick its own kernel event; _play_quiet plays every
    # kind of span (quiet, flow, socket-read, stalled), so this turns off all
    specs = [
        TechniqueSpec(ENCODING_RATE, fast_start_s=5.0),
        TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25),
        TechniqueSpec(THROTTLE, fast_start_s=5.0, throttle_factor=1.25, burst_size=65_536),
        TechniqueSpec(THROTTLE, fast_start_s=2.0, throttle_factor=1.5, buffer_cap=300_000,
                      keyframe_waste=True),
        TechniqueSpec(ON_OFF, fast_start_s=10.0, low_watermark_s=2.0, high_watermark_s=10.0),
        TechniqueSpec(ON_OFF, fast_start_s=10.0, low_watermark_s=0.0, high_watermark_s=10.0,
                      connection_mode=PER_BURST),
        TechniqueSpec(FAST_CACHING, fast_start_s=2.0),
        TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0),
    ]
    configs = [
        (PATH, {}),
        (PathSpec(6_000_000, rtt_s=0.3, jitter=0.1),
         dict(watched_fraction=0.4, recv_capacity=4_000, probe_interval=1.0, seed=7)),
        (PathSpec(400_000, rtt_s=0.05), {}),  # slower than the clip: stalls
    ]
    video = VideoSpec.constant(45, 500_000, keyframe_spacing=40_000, ladder=LADDER)
    cases = [(video, spec, path, kw) for spec in specs for path, kw in configs]
    vbr = VideoSpec.vbr(45, 500_000, 0.5, period_s=15.0, ladder=LADDER)
    # still frames: the client reads nothing for a second, then reopens the window
    stills = VideoSpec([62_500] * 10 + [0] * 2 + [62_500] * 20)
    cases += [
        (video, specs[0], PathSpec(6_000_000, rtt_s=0.3, jitter=0.3),
         dict(recv_capacity=4_000, seed=3)),
        (stills, specs[0], PATH, {}),
        (vbr, specs[0], PATH, {}),
        (vbr, specs[4], PATH, {}),
        (vbr, TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0), PATH, {}),
        (video, TechniqueSpec(DASH, fast_start_s=10.0, dash_target_s=15.0,
                              dash_refetch_depth=2), PATH, {}),
    ]

    def outputs():
        return [play(*case) for case in cases]

    skipped = outputs()
    assert [error for error, _, _ in skipped] == [None] * len(cases)
    capped = skipped[3 * len(configs)][1]  # specs[3] on PATH
    assert capped.connection_count > 1 and capped.wasted_bytes > 0  # reconnects, key frames lost
    monkeypatch.setattr(StreamingSession, "_play_quiet", every_tick)
    assert outputs() == skipped


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
            burst_size=draw(st.sampled_from([8_000, 65_536])) if shape == "bursty" else None,
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
        technique = TechniqueSpec(
            DASH, fast_start_s=fast_start_s, dash_target_s=draw(st.sampled_from([3.0, 8.0])),
            dash_refetch_depth=draw(st.sampled_from([0, 2])),
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingSession, "_play_quiet", every_tick)
        assert play(*case) == spans


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
        r"delivered 2655000 of 3750000 B by t=1080\.0"
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
        r"delivered 272500 of 3750000 B by t=120\.0"
    )):
        session.run()
    # the stall up to the horizon is played in one span, not tick by tick
    assert session.kernel.executed < 100


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


def test_video_spec_schedule_arithmetic():
    video = VideoSpec.constant(60, 500_000)
    assert video.total_bytes == 3_750_000
    assert video.cum_bytes(0) == 0.0
    assert video.cum_bytes(60) == 3_750_000.0
    assert video.cum_bytes(1.5) == pytest.approx(1.5 * 62_500)
    assert video.media_time(video.cum_bytes(17.3)) == pytest.approx(17.3)
    assert video.bytes_between(10.0, 20.0) == pytest.approx(625_000)

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
