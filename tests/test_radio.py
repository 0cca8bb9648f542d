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
    PsmParams,
    RrcParams,
    StateSegment,
    clip_segments,
    expand_segments,
    integrate,
    make_energy_report,
    psm_drive,
    rrc_drive,
    streaming_current,
    write_radio_csv,
)
from streamsim.scenario import builtin_scenario_names


def shape(segs):
    return [(s.state, s.start, s.end) for s in segs]


def dwell_of(segs):
    out = {}
    for s in segs:
        out[s.state] = out.get(s.state, 0.0) + (s.end - s.start)
    return out


def psm():
    return PsmParams(current_active=180.0, current_idle=80.0, current_sleep=5.0)


# -- 3G RRC ---------------------------------------------------------------


def test_single_packet_walks_the_full_demotion_ladder():
    segs = rrc_drive([0.0], RrcParams())
    assert shape(segs) == [
        (DCH, 0.0, 8.0),
        (FACH, 8.0, 11.0),
        (PCH, 11.0, 1751.0),
    ]


def test_idle_reached_after_all_three_timers():
    segs = rrc_drive([0.0], RrcParams(), t_end=1800.0)
    assert shape(segs)[-1] == (IDLE, 1751.0, 1800.0)


def test_packets_inside_t1_merge_into_one_dch_span():
    segs = rrc_drive([0.0, 5.0, 9.0], RrcParams())
    assert shape(segs)[:2] == [(DCH, 0.0, 17.0), (FACH, 17.0, 20.0)]


def test_packet_in_fach_promotes_back_to_dch():
    segs = rrc_drive([0.0, 10.0], RrcParams(), t_end=21.0)
    assert shape(segs) == [
        (DCH, 0.0, 8.0),
        (FACH, 8.0, 10.0),
        (DCH, 10.0, 18.0),
        (FACH, 18.0, 21.0),
    ]


def test_packet_in_pch_promotes_back_to_dch():
    segs = rrc_drive([0.0, 30.0], RrcParams(), t_end=41.0)
    assert shape(segs) == [
        (DCH, 0.0, 8.0),
        (FACH, 8.0, 11.0),
        (PCH, 11.0, 30.0),
        (DCH, 30.0, 38.0),
        (FACH, 38.0, 41.0),
    ]


def test_t_end_clips_mid_state():
    segs = rrc_drive([0.0], RrcParams(), t_end=9.5)
    assert shape(segs) == [(DCH, 0.0, 8.0), (FACH, 8.0, 9.5)]


def test_packet_before_window_still_warms_the_radio():
    segs = rrc_drive([0.0, 20.0], RrcParams(), t_start=5.0, t_end=25.0)
    assert shape(segs) == [
        (DCH, 5.0, 8.0),
        (FACH, 8.0, 11.0),
        (PCH, 11.0, 20.0),
        (DCH, 20.0, 25.0),
    ]


def test_promotion_delay_prices_a_dch_ramp_before_the_packet():
    segs = rrc_drive([0.0, 30.0], RrcParams(promotion_delay=2.0), t_end=41.0)
    assert shape(segs) == [
        (DCH, 0.0, 8.0),
        (FACH, 8.0, 11.0),
        (PCH, 11.0, 28.0),
        (DCH, 28.0, 38.0),
        (FACH, 38.0, 41.0),
    ]


def test_idle_before_the_first_packet():
    segs = rrc_drive([10.0], RrcParams(), t_start=0.0, t_end=12.0)
    assert shape(segs) == [(IDLE, 0.0, 10.0), (DCH, 10.0, 12.0)]


def test_empty_timeline_is_idle_with_explicit_end():
    segs = rrc_drive([], RrcParams(), t_end=10.0)
    assert shape(segs) == [(IDLE, 0.0, 10.0)]
    with pytest.raises(ValueError):
        rrc_drive([], RrcParams())


def test_unsorted_timeline_rejected():
    with pytest.raises(ValueError):
        rrc_drive([1.0, 0.5], RrcParams())


def test_rrc_params_validation():
    with pytest.raises(ValueError):
        RrcParams(t1=0.0).validate()
    with pytest.raises(ValueError):
        RrcParams(current_fach=250.0).validate()
    with pytest.raises(ValueError):
        RrcParams(promotion_delay=-1.0).validate()


# -- Wi-Fi PSM ------------------------------------------------------------


def test_psm_empty_timeline_is_sleep_plus_beacon_wakes():
    segs = list(expand_segments(psm_drive([], psm(), t_end=10.0)))
    dw = dwell_of(segs)
    # ten seconds of sleep means 100 beacon checks of 2 ms each
    assert dw[ACTIVE] == pytest.approx(0.2, abs=1e-9)
    assert dw[SLEEP] == pytest.approx(9.8, abs=1e-9)
    assert PSM_IDLE not in dw


def test_psm_burst_then_idle_then_sleep():
    segs = list(expand_segments(psm_drive([0.0, 0.05, 0.08], psm(), t_end=1.18)))
    dw = dwell_of(segs)
    assert segs[0].state == ACTIVE and segs[0].end == pytest.approx(0.08)
    assert segs[1].state == PSM_IDLE
    assert segs[1].end - segs[1].start == pytest.approx(0.1)
    assert dw[ACTIVE] == pytest.approx(0.08 + 10 * 0.002, abs=1e-9)
    assert dw[SLEEP] == pytest.approx(0.98, abs=1e-9)
    assert sum(dw.values()) == pytest.approx(1.18, abs=1e-9)


def test_psm_whole_beacons_of_a_sleep_come_as_one_train():
    segs = psm_drive([0.0, 0.05, 60.0, 60.05], psm(), t_end=60.15)
    # ACTIVE and PSM_IDLE, the first beacon, the train, the last whole beacon,
    # the partial one, then ACTIVE and PSM_IDLE again
    assert [s.state for s in segs] == [
        ACTIVE, PSM_IDLE, ACTIVE, SLEEP, "BEACONS", ACTIVE, SLEEP, ACTIVE, SLEEP,
        ACTIVE, PSM_IDLE,
    ]
    train = segs[4]
    assert isinstance(train, BeaconTrain) and train.count == 596
    assert (train.start, train.end) == (segs[3].end, segs[5].start)
    assert train.state not in psm().currents()
    expanded = list(expand_segments(segs))
    assert len(expanded) == len(segs) - 1 + 2 * train.count
    assert integrate(segs, psm().currents()) == integrate(expanded, psm().currents())
    # a train priced without a current fails as its first beacon would
    for currents in ({SLEEP: 5.0}, {ACTIVE: 180.0}):
        with pytest.raises(ValueError) as got:
            integrate(segs[3:], currents)
        with pytest.raises(ValueError) as want:
            integrate(expanded[3:], currents)
        assert str(got.value) == str(want.value)


def test_psm_gaps_under_idle_timeout_merge_into_one_run():
    segs = psm_drive([0.0, 0.09, 0.18], psm(), t_end=0.5)
    assert segs[0].state == ACTIVE
    assert segs[0].end == pytest.approx(0.18)
    assert sum(1 for s in segs if s.state == ACTIVE and s.end - s.start > 0.01) == 1


def test_psm_gap_over_idle_timeout_starts_a_new_run():
    segs = psm_drive([0.0, 0.5], psm(), t_end=1.0)
    idles = [s for s in segs if s.state == PSM_IDLE]
    assert [(s.start, s.end) for s in idles] == [(0.0, 0.1), (0.5, 0.6)]
    # the radio sleeps between the two runs
    assert any(s.state == SLEEP and s.start < 0.5 for s in segs)


def test_psm_cam_mode_never_sleeps():
    segs = psm_drive([0.0], psm_cam(), t_end=5.0)
    states = {s.state for s in segs}
    assert SLEEP not in states
    assert PSM_IDLE in states


def psm_cam():
    p = psm()
    p.cam_mode = True
    return p


def test_psm_empty_timeline_requires_t_end():
    with pytest.raises(ValueError):
        psm_drive([], psm())


def test_psm_params_validation():
    with pytest.raises(ValueError):
        PsmParams(current_active=10.0, current_idle=80.0, current_sleep=5.0).validate()
    with pytest.raises(ValueError):
        PsmParams(180.0, 80.0, 5.0, beacon_wake=0.2).validate()


# -- integration and reports ----------------------------------------------


def test_charge_is_dwell_times_current():
    br = integrate([StateSegment(DCH, 0.0, 20.0)], {DCH: 150.0})
    assert br.charge_mAs == pytest.approx(3000.0)
    assert br.avg_total_mA == pytest.approx(150.0)
    assert br.duration_s == pytest.approx(20.0)
    assert br.dwell == {DCH: pytest.approx(20.0)}
    # no playback draw until make_energy_report adds one
    assert br.playback_mA == 0.0 and br.avg_streaming_mA == br.avg_total_mA


def test_integrate_mixed_states():
    segs = [StateSegment(DCH, 0.0, 10.0), StateSegment(PCH, 10.0, 30.0)]
    br = integrate(segs, {DCH: 200.0, PCH: 50.0})
    assert br.charge_mAs == pytest.approx(2000.0 + 1000.0)
    assert br.avg_total_mA == pytest.approx(100.0)


def test_integrate_rejects_unknown_state_and_negative_span():
    with pytest.raises(ValueError):
        integrate([StateSegment("WARP", 0.0, 1.0)], {DCH: 1.0})
    with pytest.raises(ValueError):
        integrate([StateSegment(DCH, 2.0, 1.0)], {DCH: 1.0})


def test_streaming_current_subtracts_playback():
    assert streaming_current(230.0, 170.0) == pytest.approx(60.0)
    with pytest.raises(ValueError):
        streaming_current(100.0, 170.0)


def test_energy_report_adds_playback_everywhere():
    br = integrate([StateSegment(DCH, 0.0, 10.0)], {DCH: 200.0})
    rep = make_energy_report(br, playback_mA=150.0)
    assert rep.avg_total_mA == pytest.approx(350.0)
    assert rep.avg_streaming_mA == pytest.approx(200.0)
    assert rep.charge_mAs == pytest.approx(2000.0 + 1500.0)
    assert rep.playback_mA == 150.0


def test_clip_segments_window():
    segs = [StateSegment(DCH, 0.0, 8.0), StateSegment(FACH, 8.0, 11.0)]
    out = clip_segments(segs, 5.0, 9.0)
    assert shape(out) == [(DCH, 5.0, 8.0), (FACH, 8.0, 9.0)]
    with pytest.raises(ValueError):
        clip_segments(segs, 9.0, 5.0)


def test_radio_csv_layout(tmp_path):
    path = tmp_path / "radio.csv"
    write_radio_csv([StateSegment(DCH, 0.0, 8.0)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "state,start_s,end_s"
    assert lines[1] == "DCH,0.000000,8.000000"


# A longer timer keeps the radio in a state that draws no less for longer,
# so on a fixed trace and window the charge does not fall.  For RRC that holds
# instant by instant.  PSM pins the beacons to the start of each sleep, so an
# idle timeout a hair longer shifts them and can cost a fraction of one
# beacon wake; from beacon_wake * (active - sleep) / (idle - sleep) longer
# on (4.7 ms here) the idle draw outweighs that.  So the timers drawn differ
# by at least 10 ms.
TIMERS = {
    "t1": lambda t: RrcParams(t1=t),
    "t2": lambda t: RrcParams(t2=t),
    "idle_timeout": lambda t: PsmParams(180.0, 80.0, 5.0, 0.1, t, 0.002),
}


TIMER_DRAWS = (st.sampled_from(sorted(TIMERS)), st.floats(0.01, 12.0), st.floats(0.01, 12.0))


def assert_charge_does_not_fall(records, t_end, timer, shorter, more):
    charges = []
    for value in (shorter, shorter + more):
        params = TIMERS[timer](value)
        drive = psm_drive if timer == "idle_timeout" else rrc_drive
        segments = drive(records, params, t_end=t_end, t_start=0.0)
        charges.append(integrate(segments, params.currents()).charge_mAs)
    assert charges[1] >= charges[0], (timer, shorter, more, charges)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(builtin_scenario_names())), *TIMER_DRAWS)
def test_charge_does_not_fall_as_a_timer_grows(grid, name, timer, shorter, more):
    records = grid[name].records
    assert_charge_does_not_fall(records, records.time[-1] + 30.0, timer, shorter, more)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40).map(sorted), *TIMER_DRAWS)
def test_charge_does_not_fall_as_a_timer_grows_on_generated_traces(times, timer, shorter, more):
    # sorted traces of bare times beyond the bundled timelines
    assert_charge_does_not_fall(times, times[-1] + 30.0, timer, shorter, more)
