import math

import pytest

from streamsim.cli import main
from streamsim.media import QualityLevel
from streamsim.scenario import (
    PSM_WIFI,
    RRC_3G,
    Scenario,
    ScenarioError,
    builtin_scenario_names,
    load_builtin,
    load_scenario,
)
from streamsim.session import TechniqueSpec

BASE = """\
[scenario]
name = testcase
seed = 3

[video]
duration_s = 30
avg_encoding_rate_bps = 400000

[technique]
kind = FAST_CACHING
fast_start_s = 2

[path]
bandwidth_bps = 6000000

[radio]
kind = RRC_3G

[playback]
playback_current_ma = 150
"""


def write(tmp_path, text, name="case.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def load_text(tmp_path, text):
    return load_scenario(write(tmp_path, text))


def test_minimal_scenario_round_trip(tmp_path):
    sc = load_text(tmp_path, BASE)
    assert sc.name == "testcase"
    assert sc.seed == 3
    assert sc.video.duration_s == 30
    assert sc.technique.kind == "FAST_CACHING"
    assert sc.path.bandwidth_bps == 6_000_000.0
    assert sc.path.rtt_s == 0.05  # default
    assert sc.radio_kind == RRC_3G
    assert sc.rrc is not None and sc.psm is None
    assert sc.playback_current_ma == 150.0
    assert sc.watched_fraction == 1.0
    assert sc.recv_capacity == 65536


def test_origin_prefixes_are_equivalent_to_plain_keys(tmp_path):
    prefixed = BASE.replace(
        "avg_encoding_rate_bps = 400000", "measured:avg_encoding_rate_bps = 400000"
    ).replace("fast_start_s = 2", "fitted:fast_start_s = 2")
    a = load_text(tmp_path, BASE)
    b = load_scenario(write(tmp_path, prefixed, name="prefixed.ini"))
    assert a.video.total_bytes == b.video.total_bytes
    assert a.technique == b.technique


def test_unknown_key_is_rejected(tmp_path):
    text = BASE.replace("[path]\n", "[path]\nbandwith_bps = 1\n")
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_text(tmp_path, text)


def test_unknown_section_is_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="unknown sections"):
        load_text(tmp_path, BASE + "\n[telemetry]\nx = 1\n")


def test_missing_section_is_rejected(tmp_path):
    text = BASE.replace("[radio]\nkind = RRC_3G\n", "")
    with pytest.raises(ScenarioError, match=r"missing \[radio\]"):
        load_text(tmp_path, text)


def test_missing_required_key_is_rejected(tmp_path):
    text = BASE.replace("duration_s = 30\n", "")
    with pytest.raises(ScenarioError, match="duration_s"):
        load_text(tmp_path, text)


def test_nonexistent_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "absent.ini")


def test_bad_value_reports_section_and_key(tmp_path):
    text = BASE.replace("seed = 3", "seed = soon")
    with pytest.raises(ScenarioError, match=r"\[scenario\] seed"):
        load_text(tmp_path, text)


def test_technique_validation_flows_through(tmp_path):
    text = BASE.replace(
        "kind = FAST_CACHING\nfast_start_s = 2",
        "kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = 0.9",
    )
    with pytest.raises(ScenarioError, match="throttle_factor"):
        load_text(tmp_path, text)


def test_wifi_scenarios_must_state_their_currents(tmp_path):
    text = BASE.replace("kind = RRC_3G", "kind = PSM_WIFI")
    with pytest.raises(ScenarioError, match="current_active_ma"):
        load_text(tmp_path, text)

    full = BASE.replace(
        "kind = RRC_3G",
        "kind = PSM_WIFI\ncurrent_active_ma = 180\ncurrent_idle_ma = 80\n"
        "current_sleep_ma = 5",
    )
    sc = load_text(tmp_path, full)
    assert sc.radio_kind == PSM_WIFI
    assert sc.psm.current_active == 180.0
    assert sc.rrc is None


def test_dash_requires_a_ladder(tmp_path):
    text = BASE.replace(
        "kind = FAST_CACHING\nfast_start_s = 2",
        "kind = DASH\nfast_start_s = 2\ndash_target_buffer_s = 100",
    )
    with pytest.raises(ScenarioError, match="ladder"):
        load_text(tmp_path, text)

    with_ladder = text.replace(
        "avg_encoding_rate_bps = 400000",
        "avg_encoding_rate_bps = 400000\nladder = 200000:240p:10, 400000:360p:10",
    )
    sc = load_text(tmp_path, with_ladder)
    assert [q.label for q in sc.video.ladder] == ["240p", "360p"]
    assert sc.technique.dash_target_s == 100.0


def test_bad_ladder_entry_is_rejected(tmp_path):
    text = BASE.replace(
        "avg_encoding_rate_bps = 400000",
        "avg_encoding_rate_bps = 400000\nladder = 200000:240p",
    )
    with pytest.raises(ScenarioError, match="ladder"):
        load_text(tmp_path, text)


def test_a_ladder_bandwidth_reads_as_a_rate(tmp_path):
    # a level's bandwidth is read as avg_encoding_rate_bps is: 2e5 is a rate
    text = BASE.replace(
        "avg_encoding_rate_bps = 400000",
        "avg_encoding_rate_bps = 2e5\nladder = 2e5:240p:10, 350000.0:360p:10, 450000:480p:10",
    )
    sc = load_text(tmp_path, text)
    assert [(q.bandwidth_bps, q.label, q.segment_s) for q in sc.video.ladder] == [
        (200_000, "240p", 10.0), (350_000, "360p", 10.0), (450_000, "480p", 10.0)]
    for bad in ("nan", "inf", "0", "-2e5", "2e5x"):
        with pytest.raises(ScenarioError, match=r"^\[video\] ladder entry '%s:240p:10'" % bad):
            load_text(tmp_path, BASE.replace(
                "avg_encoding_rate_bps = 400000",
                "avg_encoding_rate_bps = 400000\nladder = %s:240p:10" % bad))


def test_the_bundled_ladders_parse_to_whole_rates():
    # the bundled ladders give the levels they gave when bandwidths were ints
    ladders = {name: load_builtin(name).video.ladder for name in builtin_scenario_names()}
    ladders = {name: ladder for name, ladder in ladders.items() if ladder}
    assert sorted(ladders) == ["compare_dash_3g", "iphone_vimeo_dash_wifi"]
    assert [(q.bandwidth_bps, q.label, q.segment_s) for q in ladders["compare_dash_3g"]] == [
        (200_000, "240p", 10.0), (350_000, "360p", 10.0), (450_000, "480p", 10.0)]
    assert [(q.bandwidth_bps, q.label) for q in ladders["iphone_vimeo_dash_wifi"]] == [
        (859_000, "640x360"), (386_000, "480x270"), (2_654_000, "1280x720")]
    for ladder in ladders.values():
        assert all(q.bandwidth_bps == int(q.bandwidth_bps) for q in ladder)


def test_watched_fraction_bounds(tmp_path):
    text = BASE.replace(
        "playback_current_ma = 150", "playback_current_ma = 150\nwatched_fraction = 0"
    )
    with pytest.raises(ScenarioError, match="watched_fraction"):
        load_text(tmp_path, text)


def test_boolean_parsing_accepts_common_spellings(tmp_path):
    text = BASE.replace(
        "kind = FAST_CACHING\nfast_start_s = 2",
        "kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = 2\n"
        "buffer_cap_bytes = 1000000\nkeyframe_waste = yes",
    )
    sc = load_text(tmp_path, text)
    assert sc.technique.keyframe_waste is True

    bad = text.replace("keyframe_waste = yes", "keyframe_waste = maybe")
    with pytest.raises(ScenarioError, match="keyframe_waste"):
        load_text(tmp_path, bad)


def test_transport_section_overrides_defaults(tmp_path):
    text = BASE + "\n[transport]\nrecv_capacity_bytes = 131072\nprobe_interval_s = 9\n"
    sc = load_text(tmp_path, text)
    assert sc.recv_capacity == 131072
    assert sc.probe_interval_s == 9.0

    with pytest.raises(ScenarioError, match="recv_capacity_bytes"):
        load_text(tmp_path, BASE + "\n[transport]\nrecv_capacity_bytes = 0\n")


def test_with_watched_fraction_and_with_path_do_not_mutate(tmp_path):
    sc = load_text(tmp_path, BASE)
    half = sc.with_watched_fraction(0.5)
    narrower = sc.with_path(bandwidth_bps=1_000_000)
    assert sc.watched_fraction == 1.0
    assert half.watched_fraction == 0.5
    assert half.video is sc.video
    assert narrower.path.bandwidth_bps == 1_000_000
    assert sc.path.bandwidth_bps == 6_000_000


def test_builtin_scenarios_all_load():
    names = builtin_scenario_names()
    assert len(names) == 20
    for name in names:
        sc = load_builtin(name)
        assert isinstance(sc, Scenario)
        assert sc.name == name


def test_unknown_builtin_name_lists_the_catalog():
    with pytest.raises(ScenarioError, match="no builtin scenario"):
        load_builtin("does_not_exist")


@pytest.mark.parametrize("old, new, field", [
    ("duration_s = 30", "duration_s = 0", "duration_s"),
    ("duration_s = 30", "duration_s = -5", "duration_s"),
    ("avg_encoding_rate_bps = 400000", "avg_encoding_rate_bps = inf", "rate_bps"),
    ("avg_encoding_rate_bps = 400000",
     "avg_encoding_rate_bps = 400000\nvbr_amplitude = 0.3\nvbr_period_s = 0", "period_s"),
    ("avg_encoding_rate_bps = 400000",
     "avg_encoding_rate_bps = 400000\nladder = 200000:lo:inf", "segment_s"),
], ids=["zero_duration", "negative_duration", "infinite_rate", "zero_vbr_period",
        "infinite_segment"])
def test_a_bad_clip_value_is_a_named_cli_error(tmp_path, capsys, old, new, field):
    # each once crashed the clip builder with a ZeroDivisionError, an
    # IndexError or an OverflowError, or passed
    path = write(tmp_path, BASE.replace(old, new))
    with pytest.raises(ScenarioError, match=r"^\[video\] .*%s" % field):
        load_scenario(path)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [video] ") and field in err


@pytest.mark.parametrize("line, message", [
    ("bandwidth_bps = fast",
     "[path] bandwidth_bps = 'fast': could not convert string to float: 'fast'"),
    ("bandwidth_bps = 0", "[path] bandwidth_bps must be positive and finite, not 0.0"),
], ids=["unreadable", "invalid"])
def test_a_bad_path_value_names_its_section_once(tmp_path, capsys, line, message):
    # a key that does not convert once came out as "[path] [path] bandwidth_bps ..."
    path = write(tmp_path, BASE.replace("bandwidth_bps = 6000000", line))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == message
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("bandwidth, segment", [
    (float("nan"), 5.0), (float("inf"), 5.0), (400_000, float("nan")), (400_000, float("inf")),
])
def test_a_quality_level_needs_a_finite_bandwidth_and_segment(bandwidth, segment):
    with pytest.raises(ValueError, match="quality level (bandwidth_bps|segment_s) must be"):
        QualityLevel(bandwidth, "lo", segment)


PSM_RADIO = "[radio]\nkind = PSM_WIFI\ncurrent_active_ma = 180\ncurrent_idle_ma = 80\n" \
    "current_sleep_ma = 5\n"


@pytest.mark.parametrize("radio, line, message", [
    ("[radio]\nkind = RRC_3G\n", "t1_s = nan", "[radio] t1 must be positive, not nan"),
    ("[radio]\nkind = RRC_3G\n", "t2_s = nan", "[radio] t2 must be positive, not nan"),
    ("[radio]\nkind = RRC_3G\n", "t3_s = nan", "[radio] t3 must be positive, not nan"),
    ("[radio]\nkind = RRC_3G\n", "promotion_delay_s = nan",
     "[radio] promotion_delay must be >= 0, not nan"),
    (PSM_RADIO, "idle_timeout_s = nan", "[radio] idle_timeout must be positive, not nan"),
], ids=["t1_s", "t2_s", "t3_s", "promotion_delay_s", "idle_timeout_s"])
def test_a_nan_radio_timer_names_its_key_and_section(tmp_path, radio, line, message):
    path = write(tmp_path, BASE.replace("[radio]\nkind = RRC_3G\n", radio + line + "\n"))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == message


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_playback_current_must_be_finite_and_not_negative(tmp_path, value):
    # a NaN once ran to exit 0 and printed nan for the charge
    path = write(tmp_path, BASE.replace("playback_current_ma = 150",
                                        "playback_current_ma = %s" % value))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == (
        "[playback] playback_current_ma must be >= 0 and finite, not %r" % float(value))


LADDER = "ladder = 200000:240p:10, 400000:360p:10"


@pytest.mark.parametrize("technique, message", [
    ("kind = THROTTLE\nfast_start_s = 2\nmeasured:throttle_factor = nan",
     "[technique] throttle_factor must be > 1 and finite, not nan"),
    ("kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = inf",
     "[technique] throttle_factor must be > 1 and finite, not inf"),
    ("kind = FAST_CACHING\nfitted:fast_start_s = nan",
     "[technique] fast_start_s must be >= 0, not nan"),
    ("kind = DASH\nfast_start_s = 2\ndash_target_buffer_s = nan",
     "[technique] dash_target_buffer_s must be > 0, not nan"),
], ids=["throttle_factor", "throttle_factor-inf", "fast_start_s", "dash_target_buffer_s"])
def test_a_nan_technique_value_names_its_key_and_section(tmp_path, capsys, technique, message):
    # a NaN throttle factor once ran unthrottled to exit 0, a NaN fast start
    # failed in int(), and a NaN DASH target stalled until the horizon
    text = BASE.replace("kind = FAST_CACHING\nfast_start_s = 2", technique)
    path = write(tmp_path, text.replace("avg_encoding_rate_bps = 400000",
                                        "avg_encoding_rate_bps = 400000\n" + LADDER))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == message
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("technique, message", [
    ("kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = 2\nburst_size_bytes = 0",
     "[technique] burst_size_bytes must be positive"),
    ("kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = 2\nmeasured:buffer_cap_bytes = -1",
     "[technique] buffer_cap_bytes must be positive"),
    ("kind = THROTTLE\nfast_start_s = 2\nthrottle_factor = 2\n"
     "burst_size_bytes = 64000\nbuffer_cap_bytes = 64000",
     "[technique] buffer_cap_bytes and burst_size_bytes do not combine"),
    ("kind = DASH\nfast_start_s = 2\ndash_target_buffer_s = 0",
     "[technique] dash_target_buffer_s must be > 0, not 0.0"),
], ids=["burst_size_bytes", "buffer_cap_bytes", "do-not-combine", "dash_target_buffer_s"])
def test_a_technique_error_names_the_scenario_key(tmp_path, capsys, technique, message):
    # the spec's fields are burst_size, buffer_cap and dash_target_s; a
    # scenario's reader sees the keys the file holds
    text = BASE.replace("kind = FAST_CACHING\nfast_start_s = 2", technique)
    path = write(tmp_path, text.replace("avg_encoding_rate_bps = 400000",
                                        "avg_encoding_rate_bps = 400000\n" + LADDER))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == message
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_technique_spec_errors_keep_the_field_names():
    # Python callers build the spec from its fields, so its own errors name them
    with pytest.raises(ValueError, match="^dash_target_s must be > 0, not 0$"):
        TechniqueSpec("DASH", dash_target_s=0).validate()
    with pytest.raises(ValueError, match="^buffer_cap and burst_size do not combine$"):
        TechniqueSpec("THROTTLE", throttle_factor=2.0, burst_size=1, buffer_cap=1).validate()


@pytest.mark.parametrize("technique", [
    "kind = FAST_CACHING\nfast_start_s = inf",
    "kind = DASH\nfast_start_s = 2\ndash_target_buffer_s = inf",
], ids=["fast_start_s", "dash_target_buffer_s"])
def test_an_infinite_fast_start_or_dash_target_stays_valid(tmp_path, technique):
    # the whole clip goes in the fast start; the client fetches back to back
    text = BASE.replace("kind = FAST_CACHING\nfast_start_s = 2", technique)
    sc = load_text(tmp_path, text.replace("avg_encoding_rate_bps = 400000",
                                          "avg_encoding_rate_bps = 400000\n" + LADDER))
    assert math.inf in (sc.technique.fast_start_s, sc.technique.dash_target_s)


@pytest.mark.parametrize("key", ["tick_s", "probe_interval_s"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_a_transport_interval_must_be_positive_and_finite(tmp_path, capsys, key, value):
    # a NaN once passed the load and failed in the session, naming no section
    path = write(tmp_path, BASE + "\n[transport]\n%s = %s\n" % (key, value))
    message = "[transport] %s must be positive and finite, not %r" % (key, float(value))
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert str(caught.value) == message
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
