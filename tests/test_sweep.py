"""sweep_watched_fraction runs one session for all its fractions; every
report must equal that of a fresh run truncated at its fraction."""

import copy
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from streamsim import analysis
from streamsim.analysis import data_view
from streamsim.harness import run_scenario, sweep_watched_fraction
from streamsim.media import QualityLevel, VideoSpec
from streamsim.scenario import builtin_scenario_names, load_builtin
from streamsim.session import (
    DASH,
    ENCODING_RATE,
    FAST_CACHING,
    KINDS,
    ON_OFF,
    PER_BURST,
    PERSISTENT,
    THROTTLE,
    DeadlockError,
    TechniqueSpec,
)
from streamsim.transport import PathSpec, Transport

LADDER = (
    QualityLevel(200_000, "lo", 5.0),
    QualityLevel(400_000, "mid", 5.0),
    QualityLevel(800_000, "hi", 5.0),
)
# one base scenario per radio: the strategy replaces everything but the radio
BASES = ("compare_throttle_3g", "galaxy_s3_dailymotion_wifi")


def oracle(scenario, fractions):
    """The sweep as one fresh session per fraction."""
    return [run_scenario(scenario.with_watched_fraction(f)) for f in fractions]


def outcome(fn, *args):
    try:
        return fn(*args), None
    except DeadlockError as exc:
        return None, str(exc)


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.scenario == b.scenario
        m, n = a.metrics, b.metrics
        assert m.buffer_series == n.buffer_series
        assert m.stalls == n.stalls
        assert m.connection_bytes == n.connection_bytes
        assert m.dash_quality_history == n.dash_quality_history
        assert m == n
        assert a.records == b.records
        assert a.radio_segments == b.radio_segments
        assert a.energy == b.energy
        assert a.classification == b.classification
    # a report's timeline is its own list, even for a repeated fraction
    assert len({id(r.records) for r in got}) == len(got)
    assert len({id(r.metrics) for r in got}) == len(got)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(KINDS))
    fast_start_s = draw(st.sampled_from([0.0, 1.0, 4.0]))
    if kind == THROTTLE:
        shape = draw(st.sampled_from(["steady", "bursty", "capped"]))
        technique = TechniqueSpec(
            THROTTLE, fast_start_s=fast_start_s,
            throttle_factor=draw(st.sampled_from([1.25, 2.0])),
            burst_size=65_536 if shape == "bursty" else None,
            buffer_cap=draw(st.sampled_from([300_000, 600_000])) if shape == "capped" else None,
            keyframe_waste=draw(st.booleans()),
        )
    elif kind == ON_OFF:
        low = draw(st.sampled_from([0.0, 2.0]))
        technique = TechniqueSpec(
            ON_OFF, fast_start_s=fast_start_s, low_watermark_s=low,
            high_watermark_s=draw(st.sampled_from([low + 3.0, 20.0])),
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
        video = VideoSpec.vbr(duration, rate, 0.8, period_s=10.0,
                              keyframe_spacing=40_000, ladder=LADDER)
    else:
        video = VideoSpec.constant(duration, rate, keyframe_spacing=40_000, ladder=LADDER)
    if technique.buffer_cap is not None:
        assume(video.cum_bytes(fast_start_s) <= technique.buffer_cap)
    base = load_builtin(draw(st.sampled_from(BASES)))
    return replace(
        base,
        name="random",
        seed=draw(st.integers(0, 99)),
        video=video,
        technique=technique,
        # a 300 kb/s path stalls most clips
        path=PathSpec(
            draw(st.sampled_from([300_000, 1_000_000, 6_000_000])),
            rtt_s=draw(st.sampled_from([0.0, 0.05, 0.3])),
            jitter=draw(st.sampled_from([0.0, 0.1, 0.3])),
        ),
        tick_s=draw(st.sampled_from([0.01, 0.025])),
        recv_capacity=draw(st.sampled_from([4_000, 65_536])),
    )


def stall_points(metrics):
    """Media seconds at which playback stalled: a stall freezes the
    playhead, which otherwise runs with the clock from startup."""
    points, stalled = [], 0.0
    for s in metrics.stalls:
        points.append(s.start - metrics.startup_s - stalled)
        stalled += (s.end if s.end is not None else s.start) - s.start
    return points


def cutoffs(data, sc, full):
    """Fractions to sweep: random ones, 1.0, whole ticks, stall and fast-start
    points, in any order and with repeats."""
    d = sc.video.duration_s
    ticks = round(d / sc.tick_s)
    fracs = data.draw(st.lists(st.floats(0.01, 1.0), max_size=3), label="random")
    if data.draw(st.booleans(), label="full"):
        fracs.append(1.0)
    fracs += [
        k * sc.tick_s / d
        for k in data.draw(st.lists(st.integers(1, ticks), max_size=2), label="ticks")
    ]
    if sc.technique.fast_start_s > 0:
        # the watch ends before the fast start's media has played out
        fracs.append(data.draw(
            st.floats(0.001, min(1.0, sc.technique.fast_start_s / d)), label="fast start"
        ))
    if full is not None:
        for p in stall_points(full.metrics)[:2]:
            for eps in data.draw(st.lists(st.sampled_from([-1e-3, 0.0, 1e-3]), max_size=2),
                                 label="stall"):
                fracs.append(min(1.0, max(1e-3, (p + eps) / d)))
    assume(fracs)
    repeats = data.draw(st.lists(st.sampled_from(fracs), max_size=2), label="repeats")
    return data.draw(st.permutations(fracs + repeats), label="order")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.data())
def test_sweep_matches_one_session_per_fraction(sc, data):
    full, _ = outcome(run_scenario, sc.with_watched_fraction(1.0))
    fractions = cutoffs(data, sc, full)
    got, got_error = outcome(sweep_watched_fraction, sc, fractions)
    want, want_error = outcome(oracle, sc, fractions)
    assert got_error == want_error
    if want is not None:
        assert_same_reports(got, want)


def test_sweep_matches_one_session_per_fraction_on_every_bundled_scenario():
    # the benchmark's sweep: 10% path jitter, a drawn seed, cut at 10/30/60%
    rng = random.Random(11)
    for name in builtin_scenario_names():
        sc = load_builtin(name)
        sc = replace(sc.with_path(jitter=0.1), seed=rng.randrange(1, 2**31))
        fractions = (0.1, 0.3, 0.6)
        assert_same_reports(sweep_watched_fraction(sc, fractions), oracle(sc, fractions))


def test_sweep_keeps_the_callers_order_and_repeats():
    sc = load_builtin("sweep_onoff_3g")
    reports = sweep_watched_fraction(sc, [0.6, 0.2, 0.6, 1.0])
    assert [r.scenario.watched_fraction for r in reports] == [0.6, 0.2, 0.6, 1.0]
    assert_same_reports(reports, oracle(sc, [0.6, 0.2, 0.6, 1.0]))
    assert sweep_watched_fraction(sc, []) == []


@pytest.mark.parametrize("kind", [ENCODING_RATE, FAST_CACHING])
def test_a_watch_that_ends_mid_tick_as_playback_would_run_dry(kind):
    # a 300 kb/s path cannot carry a 500 kb/s clip: playback keeps running
    # dry, so some watch ends fall on a tick whose full step would stall
    sc = replace(
        load_builtin("compare_throttle_3g"),
        video=VideoSpec.constant(20, 500_000),
        technique=TechniqueSpec(kind, fast_start_s=2.0),
        path=PathSpec(300_000, rtt_s=0.05, jitter=0.1),
    )
    fractions = [round(0.05 * i, 2) for i in range(1, 21)]
    reports = sweep_watched_fraction(sc, fractions)
    assert sum(len(r.metrics.stalls) for r in reports) > 0
    assert_same_reports(reports, oracle(sc, fractions))


@pytest.mark.parametrize("replaced_counts_waste", [False, True])
def test_dash_refetch_sweep_matches_one_session_per_fraction(replaced_counts_waste):
    # the benchmark's refetch variant on its jittery path.  A DASH sample's
    # bytes consumed and media delivered are taken when it is: later segments
    # grow what delivered() reads, and with the replaced copies counted as
    # waste SegmentBuffer.replace rewrites `spent` after earlier samples
    sc = load_builtin("compare_dash_3g")
    technique = replace(sc.technique, dash_refetch_depth=2, fast_start_s=30.0,
                        dash_replaced_counts_waste=replaced_counts_waste)
    sc = replace(sc.with_path(jitter=0.1), seed=12345, technique=technique)
    fractions = (0.1, 0.3, 0.6, 1.0)
    assert_same_reports(sweep_watched_fraction(sc, fractions), oracle(sc, fractions))


def test_buffer_series_read_in_any_order_gives_the_same_lists():
    # the reports of one sweep share the session's samples, and each works
    # out its own on its first read
    sc = load_builtin("sweep_onoff_3g")
    fractions = (0.2, 0.6, 1.0)
    want = [list(r.metrics.buffer_series) for r in sweep_watched_fraction(sc, fractions)]
    reports = sweep_watched_fraction(sc, fractions)
    copies = [copy.deepcopy(r.metrics) for r in reports[::2]]
    for _ in range(2):
        assert [list(r.metrics.buffer_series) for r in reports[::-1]] == want[::-1]
    assert [list(m.buffer_series) for m in copies] == want[::2]
    for r, rows in zip(reports, want):
        m = r.metrics
        assert repr(m.buffer_series) == repr(list(m.buffer_series)) == repr(rows)
        assert m.buffer_series == rows and len(m.buffer_series) == len(rows)
        assert m.buffer_series[-1] == rows[-1] and m.buffer_series[1:4] == rows[1:4]


# --- the analysis view each report reads ---------------------------------------


def view_columns(view):
    """A view's columns, their types and its burst split points."""
    columns = [view.times, view.cums]
    return [list(c) for c in columns], [type(c) for c in columns], list(view.burst_starts())


def same(got, want):
    """Whether two lists hold the very same objects, in order."""
    return list(map(id, got)) == list(map(id, want))


def assert_fresh_views(reports):
    """Each report reads the view its own timeline would build afresh."""
    for r in reports:
        assert view_columns(data_view(r.records)) == view_columns(data_view(r.records.copy()))


@pytest.fixture
def built(monkeypatch):
    """The timelines a _DataView is built from, in order."""
    timelines = []

    class Counted(analysis._DataView):
        __slots__ = ()

        def __init__(self, records):
            timelines.append(records)
            super().__init__(records)

    monkeypatch.setattr(analysis, "_DataView", Counted)
    return timelines


@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_every_report_reads_the_view_its_timeline_would_build(jitter, built):
    # the shorter watches, and a repeat of the longest, read slices of the
    # longest watch's view, its burst split points too, and the one view is
    # all the sweep builds
    rng = random.Random(29)
    for name in builtin_scenario_names():
        sc = load_builtin(name)
        sc = replace(sc.with_path(jitter=jitter), seed=rng.randrange(1, 2**31))
        built.clear()
        reports = sweep_watched_fraction(sc, (0.1, 0.3, 0.6, 0.3, 0.6))
        assert same(built, [reports[2].records]), name
        assert_fresh_views(reports)


def test_a_timeline_that_steps_back_fails_the_sweep_as_it_fails_a_run(monkeypatch, built):
    # a step back of 5e-13 s is out of order, as any step back is: the view
    # of the longest watch, the one view a sweep builds, rejects it, and so
    # does a single run's
    emit_run = Transport.emit_run

    def stepping_back(self, *args, **kwargs):
        emit_run(self, *args, **kwargs)
        time = self.records.time
        if len(time) > 6 and time[5] < time[6]:
            time[5] = time[6] + 5e-13

    monkeypatch.setattr(Transport, "emit_run", stepping_back)
    sc = load_builtin("sweep_onoff_3g")
    with pytest.raises(ValueError, match="packet timeline must be sorted by time"):
        sweep_watched_fraction(sc, (0.1, 0.3, 0.6, 0.3))
    assert len(built) == 1
    with pytest.raises(ValueError, match="packet timeline must be sorted by time"):
        run_scenario(sc.with_watched_fraction(0.3))
