import math
import re
from dataclasses import replace

import pytest

from streamsim import analysis
from streamsim.analysis import (
    THRESHOLDS,
    UNKNOWN,
    _DataView,
    burst_cdf,
    classify,
    data_view,
    estimate_buffer,
    estimate_fast_start,
    estimate_throttle_factor,
    find_rate_knee,
    group_bursts,
)
from streamsim.cli import main
from streamsim.harness import audit
from streamsim.radio import PsmParams, RrcParams, psm_drive, rrc_drive
from streamsim.transport import (
    DATA,
    DOWN,
    REQUEST,
    UP,
    PacketRecord,
    PathSpec,
    Timeline,
    Transport,
    read_timeline_csv,
    write_timeline_csv,
)

PSM = PsmParams(current_active=180.0, current_idle=80.0, current_sleep=5.0)


def rec(time, payload, kind=DATA, conn=1):
    return PacketRecord(time, DOWN if payload else UP, payload, kind, conn)


def burst_trace(payload=125_000, steady=6250, t_burst=1.0, t_end=50.0, step=0.1):
    """Initial full-rate fill followed by a steady trickle."""
    out = []
    t = 0.0
    while t < t_burst - 1e-9:
        out.append(rec(round(t, 6), payload))
        t += step
    while t < t_end - 1e-9:
        out.append(rec(round(t, 6), steady))
        t += step
    return out


def test_bursts_group_on_packet_gaps():
    records = [
        rec(0.00, 100),
        rec(0.01, 200),
        rec(0.02, 300),
        rec(1.00, 400),
        rec(1.01, 500),
        rec(1.50, 0, kind=REQUEST),  # control records never join bursts
        rec(3.00, 600),
    ]
    bursts = group_bursts(records, gap_s=0.05)
    assert [(b.start, b.end, b.nbytes, b.packets) for b in bursts] == [
        (0.0, 0.02, 600, 3),
        (1.0, 1.01, 900, 2),
        (3.0, 3.0, 600, 1),
    ]


def test_burst_cdf_steps_by_thirds():
    bursts = group_bursts(
        [rec(0.0, 1), rec(10.0, 2), rec(20.0, 3)], gap_s=0.05
    )
    sizes, intervals = burst_cdf(bursts)
    assert sizes == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3)), (3, pytest.approx(1.0))]
    assert [v for v, _ in intervals] == [10.0, 10.0]
    assert intervals[-1][1] == pytest.approx(1.0)


def test_rate_knee_lands_on_the_first_slow_window():
    records = burst_trace()
    assert find_rate_knee(records) == pytest.approx(2.0)


def test_rate_knee_none_for_flat_or_short_traces():
    flat = [rec(t / 10, 1000) for t in range(0, 100)]
    assert find_rate_knee(flat) is None
    assert find_rate_knee([rec(0.0, 1000)]) is None


def test_throttle_factor_on_a_synthetic_pace():
    # steady 7812 B per 100 ms is 624,960 bps, a 1.25x pace over 500 kbps
    records = burst_trace(steady=7812, t_burst=2.0, t_end=30.0)
    factor = estimate_throttle_factor(records, avg_rate_bps=500_000)
    assert factor == pytest.approx(1.25, rel=0.01)


def test_throttle_factor_honours_explicit_exclusion():
    records = [rec(float(t), 6250) for t in range(0, 40)]
    factor = estimate_throttle_factor(records, 500_000, fast_start_exclusion=0.0)
    # 6250 B/s == 50 kbps over a 500 kbps encoding is a 0.1 ratio
    assert factor == pytest.approx(0.1, rel=0.05)


def test_throttle_factor_error_cases():
    with pytest.raises(ValueError):
        estimate_throttle_factor([], 500_000)
    with pytest.raises(ValueError):
        estimate_throttle_factor([rec(0.0, 100)], 0)
    with pytest.raises(ValueError):
        estimate_throttle_factor([rec(0.0, 100)], 500_000, fast_start_exclusion=0.0)


def test_fast_start_estimate_finds_the_elbow():
    records = burst_trace()  # 1.25 MB burst, then exactly the encoding rate
    est = estimate_fast_start(records, avg_rate_bps=500_000)
    assert est.nbytes == 1_250_000
    assert est.media_s == pytest.approx(20.0, rel=1e-6)
    assert est.end_time == pytest.approx(0.9)


def test_fast_start_estimate_needs_data():
    with pytest.raises(ValueError):
        estimate_fast_start([rec(0.0, 100)], 500_000)


def test_buffer_replay_tracks_received_minus_consumed():
    schedule = [100] * 10  # 1 kB of media over 10 s
    records = [rec(0.0, 500), rec(1.0, 300), rec(2.0, 200)]
    series = estimate_buffer(records, schedule, start_of_playback=0.0)
    assert [(t, b, pytest.approx(m)) for t, b, m in [
        (0.0, 500, 5.0),
        (1.0, 700, 7.0),
        (2.0, 800, 8.0),
    ]] == [(t, b, m) for t, b, m in series]


def test_buffer_replay_freezes_the_playhead_on_a_stall():
    schedule = [100] * 10
    records = [rec(0.0, 100), rec(5.0, 900)]
    series = estimate_buffer(records, schedule, start_of_playback=0.0)
    # only 1 s of media existed, so the playhead stalls at 1.0 until t = 5
    t, buffered, media = series[-1]
    assert (t, buffered) == (5.0, 900)
    assert media == pytest.approx(9.0)


# a NaN start left every arrival at or before it, so playback never began:
# the last sample read (5.0, 400.0, 4.0) where a start of 0.0 gives (5.0, 100.0, 1.0)
@pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
def test_buffer_replay_rejects_a_start_that_is_not_finite(start):
    records = [rec(t, 100) for t in (0.0, 0.01, 0.02, 5.0)]
    assert estimate_buffer(records, [100] * 10, 0.0)[-1] == (5.0, 100.0, 1.0)
    with pytest.raises(ValueError, match="start_of_playback must be finite, got " + re.escape(repr(start))):
        estimate_buffer(records, [100] * 10, start)


# each of these made every DATA record its own burst
@pytest.mark.parametrize("gap_s", [math.nan, 0.0, -0.05])
def test_group_bursts_rejects_a_gap_that_is_not_positive(gap_s):
    records = [rec(t, 100) for t in (0.0, 0.01, 0.02, 0.03)]
    assert len(group_bursts(records)) == 1
    with pytest.raises(ValueError, match="gap_s must be positive, got " + re.escape(repr(gap_s))):
        group_bursts(records, gap_s)


def test_classifier_returns_unknown_on_empty_trace():
    result = classify([], avg_rate_bps=500_000, path_bandwidth_bps=6_000_000)
    assert result.label == UNKNOWN
    assert result.confidence == 0.0


def test_classifier_thresholds_are_complete():
    expected = {
        "burst_gap_s",
        "silent_gap_s",
        "knee_window_s",
        "knee_drop_frac",
        "ads_per_min",
        "encoding_band",
        "throttle_band",
        "early_margin_s",
        "min_requests",
        "request_regularity",
        "fc_bandwidth_frac",
        "span_coverage",
    }
    assert expected == set(THRESHOLDS)


@pytest.mark.parametrize(
    "rate, bandwidth, name",
    [
        (0, 1e6, "avg_rate_bps"),  # used to divide by zero
        (-1, 1e6, "avg_rate_bps"),  # used to return UNKNOWN
        (8000, 0, "path_bandwidth_bps"),  # used to divide by zero
        # NaN and inf used to pass and return a label (the encoding rate's
        # cases are in test_a_rate_must_be_positive_and_finite)
        (8000, math.nan, "path_bandwidth_bps"),
        (8000, math.inf, "path_bandwidth_bps"),
    ],
)
def test_classifier_rejects_a_non_positive_rate(rate, bandwidth, name):
    with pytest.raises(ValueError, match=name):
        classify(burst_trace(), rate, bandwidth)


@pytest.mark.parametrize("rate", [0, -1, math.nan, math.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("estimate", [
    estimate_throttle_factor, estimate_fast_start,
    lambda records, rate: classify(records, rate, 6e6),
], ids=["throttle_factor", "fast_start", "classify"])
def test_a_rate_must_be_positive_and_finite(estimate, rate):
    # estimate_fast_start used to divide by a zero rate and return a negative
    # media_s for -1; NaN and inf passed every check and gave nan or 0
    with pytest.raises(ValueError, match="avg_rate_bps .* got " + re.escape(repr(rate))):
        estimate(burst_trace(), rate)


# DATA at 100, 0, 104.5 used to index a window list at -50; at 10, 9, 14.5 the
# record at 9 was binned into the first window; at 5, 1, 3 group_bursts made
# Burst(start=5.0, end=1.0) and estimate_buffer a series running backward
@pytest.mark.parametrize("times", [(100.0, 0.0, 104.5), (10.0, 9.0, 14.5), (5.0, 1.0, 3.0)])
@pytest.mark.parametrize(
    "estimator",
    [
        lambda records: classify(records, 500_000, 6_000_000),
        lambda records: estimate_throttle_factor(records, 500_000),
        lambda records: estimate_fast_start(records, 500_000),
        find_rate_knee,
        lambda records: rrc_drive(records, RrcParams()),
        lambda records: psm_drive(records, PSM),
        group_bursts,
        lambda records: estimate_buffer(records, [100_000] * 200, 0.0),
    ],
    ids=[
        "classify", "throttle_factor", "fast_start", "rate_knee", "rrc_drive", "psm_drive",
        "group_bursts", "estimate_buffer",
    ],
)
def test_estimators_and_radio_reject_the_same_out_of_order_timelines(times, estimator):
    with pytest.raises(ValueError, match="packet timeline must be sorted by time"):
        estimator([rec(t, 1000) for t in times])


ESTIMATORS = [
    lambda records: classify(records, 500_000, 6_000_000),
    lambda records: estimate_throttle_factor(records, 500_000),
    lambda records: estimate_fast_start(records, 500_000),
    find_rate_knee,
    lambda records: rrc_drive(records, RrcParams()),
    lambda records: psm_drive(records, PSM),
    group_bursts,
    lambda records: estimate_buffer(records, [100_000] * 200, 0.0),
]


# a NaN made classify and the knee fail with "cannot convert float NaN to
# integer", and group_bursts, the buffer and fast-start estimates and the
# radio drives return results
@pytest.mark.parametrize("times, bad", [
    ((0.0, math.nan, 1.0), "nan"), ((math.nan, 0.0, 1.0), "nan"), ((0.0, 1.0, math.nan), "nan"),
    ((0.0, 1.0, math.inf), "inf"), ((-math.inf, 0.0, 1.0), "-inf"), ((0.0, math.inf, 1.0), "inf"),
], ids=["nan-middle", "nan-first", "nan-last", "inf-last", "-inf-first", "inf-middle"])
@pytest.mark.parametrize("estimator", ESTIMATORS, ids=[
    "classify", "throttle_factor", "fast_start", "rate_knee", "rrc_drive", "psm_drive",
    "group_bursts", "estimate_buffer",
])
def test_estimators_and_radio_name_a_time_that_is_not_finite(times, bad, estimator):
    with pytest.raises(ValueError, match=re.escape("packet timeline time %s is not finite" % bad)):
        estimator([rec(t, 1000) for t in times])


def test_a_control_record_out_of_order_is_rejected_too():
    records = [rec(0.0, 1000), rec(5.0, 0, kind=REQUEST), rec(4.0, 1000), rec(10.0, 1000)]
    for estimator in (
        find_rate_knee,
        lambda r: rrc_drive(r, RrcParams()),
        group_bursts,
        lambda r: estimate_buffer(r, [1000] * 20, 0.0),
    ):
        with pytest.raises(ValueError, match="sorted by time"):
            estimator(records)


@pytest.mark.parametrize("kind", [DATA, REQUEST])
@pytest.mark.parametrize("form", [list, Timeline.of], ids=["list", "Timeline"])
@pytest.mark.parametrize("reader", ESTIMATORS + [None], ids=[
    "classify", "throttle_factor", "fast_start", "rate_knee", "rrc_drive", "psm_drive",
    "group_bursts", "estimate_buffer", "audit",
])
def test_every_reader_rejects_a_1e13_step_back(bundled, reader, form, kind):
    # one order rule: a record 1e-13 s before the one ahead of it, a DATA
    # record or a control record, is out of order for the estimators and
    # the radio drives, and audit reports it
    report = bundled("compare_onoff_per_burst_3g")
    records = list(report.records)
    i = next(k for k, r in enumerate(records) if k > 10 and r.kind == kind)
    records[i] = replace(records[i], time=records[i - 1].time - 1e-13)
    assert records[i].time < records[i - 1].time
    records = form(records)
    if reader is None:
        assert audit(replace(report, records=records)) == ["packet timeline out of order"]
        return
    with pytest.raises(ValueError, match="packet timeline must be sorted by time"):
        reader(records)


@pytest.mark.parametrize("window_s", [0, 0.0, -1.0, float("nan")])
def test_rate_knee_rejects_a_non_positive_window(window_s):
    with pytest.raises(ValueError, match="window_s"):
        find_rate_knee(burst_trace(), window_s=window_s)


@pytest.mark.parametrize("drop_frac", [0, -0.1, 1.5, float("nan")])
def test_rate_knee_rejects_a_drop_fraction_outside_0_1(drop_frac):
    with pytest.raises(ValueError, match="drop_frac"):
        find_rate_knee(burst_trace(), drop_frac=drop_frac)


def test_rate_knee_defaults_stand_for_none():
    records = burst_trace()
    default = find_rate_knee(records)
    assert find_rate_knee(records, None, None) == default
    assert find_rate_knee(
        records, THRESHOLDS["knee_window_s"], THRESHOLDS["knee_drop_frac"]
    ) == default
    # a drop fraction of 1 is allowed: any window below the peak is the knee
    assert find_rate_knee(records, drop_frac=1.0) == pytest.approx(2.0)


# --- the analysis view a Timeline keeps ---------------------------------------


def view_lists(view):
    return [list(view.times), list(view.cums)]


def test_a_timeline_keeps_its_view_until_its_columns_change():
    records = burst_trace(t_end=20.0)
    timeline = Timeline.of(records)
    view = data_view(timeline)
    assert data_view(timeline) is view and timeline._view is view
    # a list gets a view of its own each call
    assert data_view(records) is not data_view(records)
    extra = rec(records[-1].time + 1.0, 4321)
    timeline.append(extra)
    assert timeline._view is None
    grown = data_view(timeline)
    assert view_lists(grown) == view_lists(_DataView(records + [extra]))
    assert data_view(timeline) is grown
    # a copy starts without one, and builds its own
    copy = timeline.copy()
    assert copy._view is None and data_view(copy) is not data_view(timeline)
    # emit_run drops the view, with or without a zero-window ad
    transport = Transport(PathSpec(1e6))
    transport.emit_run(DOWN, DATA, 1, [0.1, 0.2], [100, 200])
    assert list(data_view(transport.records).cums) == [0, 100, 300]
    transport.emit_run(DOWN, DATA, 1, [0.3], [300], ads=[1])
    assert transport.records._view is None
    assert list(data_view(transport.records).cums) == [0, 100, 300, 600]


READERS = ESTIMATORS + [
    lambda records: outcome(estimate_buffer, records, [50_000] * 100, 2.0),
    lambda records: outcome(group_bursts, records, 0.3),
]


def outcome(fn, *args):
    """fn's result, or the text of the ValueError it raised, as its repr."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return "ValueError: %s" % exc


@pytest.mark.parametrize("records", [
    burst_trace(t_end=30.0),
    # out of order, by 5e-13 s or by 4 s: no reader keeps a view, and each
    # names the same fault
    [rec(0.0, 1000), rec(0.05, 0, REQUEST), rec(0.1, 2000), rec(0.1 - 5e-13, 500),
     rec(3.0, 700, conn=2), rec(40.0, 300, conn=2)],
    [rec(0.0, 1000), rec(5.0, 1000), rec(1.0, 1000)],
    [],
], ids=["burst", "step-back", "out-of-order", "empty"])
def test_every_reader_reads_a_timeline_the_same_first_or_last(records):
    alone = [outcome(read, Timeline.of(records)) for read in READERS]
    shared = Timeline.of(records)
    for read in READERS:
        outcome(read, shared)
    assert [outcome(read, shared) for read in READERS] == alone
    assert [outcome(read, list(records)) for read in READERS] == alone


def test_analyze_reads_one_view_of_a_csv_timeline(tmp_path, monkeypatch, capsys):
    path = tmp_path / "trace.csv"
    write_timeline_csv(burst_trace(), path)
    built = []

    class Counted(_DataView):
        __slots__ = ()

        def __init__(self, records):
            built.append(type(records))
            super().__init__(records)

    monkeypatch.setattr(analysis, "_DataView", Counted)
    assert main(["analyze", str(path), "--rate", "500000", "--bandwidth", "6000000"]) == 0
    assert "rate knee at" in capsys.readouterr().out
    assert built == [Timeline]
    # a list is read afresh by each of classify and the three estimators
    records = list(read_timeline_csv(path))
    classify(records, 500_000, 6e6)
    estimate_throttle_factor(records, 500_000)
    estimate_fast_start(records, 500_000)
    find_rate_knee(records)
    assert built == [Timeline] + [list] * 4
