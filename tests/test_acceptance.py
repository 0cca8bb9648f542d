"""End-to-end acceptance checks for the delivery simulator and analyzer.

Each test prints one summary line so a bare run of this module reads as a
checklist.  Scenario runs shared by several checks come from the session
fixtures; where a check carries a wall-clock budget the timed region covers
the work that belongs to that check alone.
"""

import time
from dataclasses import replace

import pytest

from streamsim.analysis import (
    classify,
    estimate_fast_start,
    estimate_throttle_factor,
    group_bursts,
)
from streamsim.harness import build_session, run_scenario, sweep_watched_fraction
from streamsim.media import VideoSpec
from streamsim.radio import RrcParams, clip_segments, rrc_drive
from streamsim.scenario import builtin_scenario_names, load_builtin

IPHONE_HD_CAP = 33 * 1024 * 1024

THROTTLE_CASES = [
    ("nexus_s_youtube_browser_3g", 1.25),
    ("iphone_youtube_sd_3g", 2.0),
    ("n9_dailymotion_3g", 1.25),
    ("iphone_youtube_720p_3g", 2.0),
]

FAST_START_CASES = [
    ("nexus_s_youtube_browser_3g", 40.0),
    ("iphone_youtube_sd_3g", 30.0),
    ("n9_dailymotion_3g", 15.0),
    ("iphone_youtube_720p_3g", 30.0),
]

RATE_LIMITED_SET = [
    "compare_encoding_3g",
    "compare_throttle_3g",
    "compare_onoff_persistent_3g",
    "compare_fast_caching_3g",
    "compare_dash_3g",
]


def dwell_of(segments):
    out = {}
    for s in segments:
        out[s.state] = out.get(s.state, 0.0) + (s.end - s.start)
    return out


@pytest.fixture(scope="module")
def probe9_trace(bundled):
    """The persistent on-off scenario rerun with 9 s zero-window probes."""
    sc = load_builtin("onoff_persistent_probes_3g")
    session = build_session(sc, probe_interval=9.0)
    metrics = session.run()
    return session.transport.records, metrics


def test_criterion_01_rrc_demotion_ladder_is_exact():
    t0 = time.monotonic()
    params = RrcParams()
    segs = rrc_drive([0.0], params)
    assert [(s.state, s.start, s.end) for s in segs] == [
        ("DCH", 0.0, 8.0),
        ("FACH", 8.0, 11.0),
        ("PCH", 11.0, 1751.0),
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "criterion 01 PASS: single packet walks DCH[0,8) FACH[8,11) "
        f"PCH[11,1751) exactly ({elapsed * 1000:.1f} ms)"
    )


def test_criterion_02_probe_cadence_decides_the_rrc_state(bundled, probe9_trace):
    report = bundled("onoff_persistent_probes_3g")
    records9, metrics9 = probe9_trace
    t0 = time.monotonic()

    # 5 s probes against an 8 s DCH timer: the radio never leaves DCH while
    # delivery is in flight
    window = (report.records[0].time, report.metrics.delivery_end_t)
    dwell5 = dwell_of(clip_segments(report.radio_segments, *window))
    assert set(dwell5) == {"DCH"}
    assert dwell5["DCH"] == pytest.approx(window[1] - window[0], abs=1e-9)

    # stretching the probes past the timer lets the radio demote to FACH
    segs9 = rrc_drive(records9, load_builtin("onoff_persistent_probes_3g").rrc,
                      t_end=metrics9.end_t, t_start=0.0)
    window9 = (records9[0].time, metrics9.delivery_end_t)
    dwell9 = dwell_of(clip_segments(segs9, *window9))
    assert dwell9.get("FACH", 0.0) > 0.0

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"criterion 02 PASS: 5s probes hold DCH for {dwell5['DCH']:.1f}s (100% of "
        f"delivery); 9s probes yield {dwell9['FACH']:.1f}s of FACH"
    )


def test_criterion_03_per_burst_connections_halve_the_streaming_drain(bundled):
    t0 = time.monotonic()
    per_burst = bundled("onoff_per_burst_reconnect_3g")
    persistent = bundled("onoff_persistent_probes_3g")
    ratio = (
        per_burst.energy.avg_streaming_mA / persistent.energy.avg_streaming_mA
    )
    assert ratio <= 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"criterion 03 PASS: per-burst {per_burst.energy.avg_streaming_mA:.1f} mA vs "
        f"persistent {persistent.energy.avg_streaming_mA:.1f} mA (ratio {ratio:.3f})"
    )


def test_criterion_04_small_bursts_sleep_on_wifi_but_pin_3g(bundled):
    report = bundled("galaxy_s3_dailymotion_wifi")
    t0 = time.monotonic()
    m = report.metrics
    window = (m.fast_start_end_t, m.delivery_end_t)

    bursts = group_bursts(report.records)
    steady = [b for b in bursts if b.start > window[0]]
    gaps = [steady[i + 1].start - steady[i].start for i in range(len(steady) - 1)]
    gaps.sort()
    spacing = gaps[len(gaps) // 2]
    assert spacing == pytest.approx(65_536 * 8.0 / (1.25 * 250_000), abs=0.05)

    dwell = dwell_of(clip_segments(report.radio_segments, *window))
    span = window[1] - window[0]
    sleep_frac = dwell.get("SLEEP", 0.0) / span
    assert sleep_frac >= 0.70

    rrc = rrc_drive(report.records, RrcParams(), t_end=m.end_t, t_start=0.0)
    dwell_3g = dwell_of(clip_segments(rrc, *window))
    assert set(dwell_3g) == {"DCH"}
    assert dwell_3g["DCH"] == pytest.approx(span, abs=1e-9)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"criterion 04 PASS: {spacing:.2f}s burst spacing sleeps {sleep_frac:.0%} "
        "of the steady phase on Wi-Fi yet holds 3G in DCH for 100% of it"
    )


def test_criterion_05_rate_limited_path_flattens_every_technique(bundled):
    t0 = time.monotonic()
    currents = {}
    labels = {}
    for name in RATE_LIMITED_SET:
        sc = load_builtin(name)
        limited = run_scenario(sc.with_path(bandwidth_bps=sc.video.avg_rate_bps))
        currents[name] = limited.energy.avg_streaming_mA
        labels[name] = limited.classification.label

    base = currents["compare_encoding_3g"]
    for name, value in currents.items():
        assert abs(value - base) / base <= 0.05, (name, value, base)
    as_encoding = sum(1 for v in labels.values() if v == "ENCODING_RATE")
    assert as_encoding >= 4

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    spread = 100.0 * max(abs(v - base) / base for v in currents.values())
    print(
        f"criterion 05 PASS: at 1.0x bandwidth all five techniques draw within "
        f"{spread:.1f}% of encoding-rate delivery; {as_encoding}/5 classified "
        f"ENCODING_RATE ({elapsed:.1f}s)"
    )


def test_criterion_06_bytes_are_conserved_everywhere(grid):
    worst = 0.0
    for name, report in grid.items():
        m = report.metrics
        drift = abs(m.received_total - m.consumed_bytes - m.wasted_bytes)
        assert drift <= 1e-6, name
        worst = max(worst, drift)
        assert all(b >= -1e-9 for _, b, _ in m.buffer_series), name
    capped = grid["iphone_youtube_hd_multiconn_wifi"].metrics
    peak = max(b for _, b, _ in capped.buffer_series)
    assert peak <= IPHONE_HD_CAP + 1e-6
    print(
        f"criterion 06 PASS: received = consumed + wasted on all {len(grid)} "
        f"scenarios (worst drift {worst:.2e} B); capped store peaks at "
        f"{peak / 2**20:.1f} MiB <= 33 MiB"
    )


def test_criterion_07_classifier_is_clean_and_jitter_tolerant(grid):
    t0 = time.monotonic()
    names = builtin_scenario_names()
    clean = sum(1 for n in names if grid[n].classifier_agrees)
    assert clean == len(names)

    ok = total = 0
    for seed in (11, 22, 33):
        for name in names:
            sc = load_builtin(name)
            jittered = replace(sc, path=replace(sc.path, jitter=0.1), seed=seed)
            report = run_scenario(jittered)
            total += 1
            ok += int(report.classifier_agrees)
    assert ok / total >= 0.90

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"criterion 07 PASS: {clean}/{len(names)} clean traces classified; "
        f"{ok}/{total} under 10% timing jitter ({elapsed:.1f}s)"
    )


def test_criterion_08_throttle_factor_recovered_within_5_percent(bundled):
    estimates = {}
    for name, expected in THROTTLE_CASES:
        report = bundled(name)
        est = estimate_throttle_factor(report.records, report.scenario.video.avg_rate_bps)
        assert abs(est - expected) / expected <= 0.05, (name, est)
        estimates[name] = (est, expected)
    detail = ", ".join(
        f"{est:.3f}~{expected}" for est, expected in estimates.values()
    )
    print(f"criterion 08 PASS: throttle factors {detail} all within 5%")


def test_criterion_09_fast_start_duration_recovered_within_10_percent(bundled):
    estimates = {}
    for name, expected in FAST_START_CASES:
        report = bundled(name)
        est = estimate_fast_start(report.records, report.scenario.video.avg_rate_bps)
        assert abs(est.media_s - expected) / expected <= 0.10, (name, est.media_s)
        estimates[name] = (est.media_s, expected)
    detail = ", ".join(f"{got:.1f}s~{want:.0f}s" for got, want in estimates.values())
    print(f"criterion 09 PASS: initial bursts {detail} all within 10%")


def test_criterion_10_capped_store_overhead_matches_and_grows_with_keyframes(bundled):
    report = bundled("iphone_youtube_hd_multiconn_wifi")
    sc = report.scenario
    ratio = report.metrics.received_total / sc.video.total_bytes
    assert 1.8 <= ratio <= 2.2

    ratios = [ratio]
    for mult in (0.5, 1.5):
        spacing = int(sc.video.keyframe_spacing * mult)
        video = VideoSpec.constant(
            sc.video.duration_s, sc.video.avg_rate_bps, keyframe_spacing=spacing
        )
        scaled = run_scenario(replace(sc, video=video))
        ratios.append(scaled.metrics.received_total / video.total_bytes)
    half, base, bigger = ratios[1], ratios[0], ratios[2]
    assert half < base < bigger
    print(
        f"criterion 10 PASS: download/play ratio {base:.2f} in [1.8, 2.2]; "
        f"monotone in keyframe spacing ({half:.2f} < {base:.2f} < {bigger:.2f})"
    )


def test_criterion_11_dash_buffer_tracks_its_target(bundled):
    for name in ("iphone_vimeo_dash_wifi", "compare_dash_3g"):
        report = bundled(name)
        m = report.metrics
        target = report.scenario.technique.dash_target_s
        seg = report.scenario.video.ladder[0].segment_s
        warm = next(t for t, _, media in m.buffer_series if media >= target)
        steady = [
            media
            for t, _, media in m.buffer_series
            if warm <= t <= m.delivery_end_t
        ]
        assert steady, name
        assert min(steady) >= target - seg - 1e-6, name
        assert max(steady) <= target + seg + 1e-6, name
    print(
        f"criterion 11 PASS: DASH buffer holds {target:.0f}s +/- one {seg:.0f}s "
        "segment from warm-up to the end of delivery on both ladders"
    )


def test_criterion_12_abandonment_sweeps_are_monotone_and_cross(bundled):
    fractions = [round(0.1 * i, 1) for i in range(1, 11)]
    curves = {}
    for name in ("sweep_fast_caching_3g", "sweep_onoff_3g"):
        reports = sweep_watched_fraction(load_builtin(name), fractions)
        curve = [r.energy.avg_streaming_mA for r in reports]
        for a, b in zip(curve, curve[1:]):
            assert b <= a + 1e-9, (name, curve)
        curves[name] = curve
    fc, oo = curves["sweep_fast_caching_3g"], curves["sweep_onoff_3g"]
    for i, f in enumerate(fractions):
        if f <= 0.4:
            assert fc[i] >= oo[i], (f, fc[i], oo[i])
    print(
        "criterion 12 PASS: streaming drain never increases with watch length; "
        f"prefetch-everything costs more up to f=0.4 ({fc[0]:.0f} vs {oo[0]:.0f} mA "
        f"at f=0.1) and less at f=1.0 ({fc[-1]:.0f} vs {oo[-1]:.0f} mA)"
    )
