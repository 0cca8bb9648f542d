import math
from dataclasses import replace

import pytest

from streamsim.harness import (
    audit,
    emit_report,
    expected_label,
    run_scenario,
    sweep_watched_fraction,
    write_sweep_csv,
)
from streamsim.radio import expand_segments
from streamsim.scenario import load_builtin
from streamsim.session import (
    DASH,
    ENCODING_RATE,
    ON_OFF,
    PER_BURST,
    TechniqueSpec,
)
from streamsim.transport import DATA, check_time_order

COMPARE = [
    "compare_encoding_3g",
    "compare_throttle_3g",
    "compare_throttle_bursty_3g",
    "compare_onoff_persistent_3g",
    "compare_onoff_per_burst_3g",
    "compare_fast_caching_3g",
    "compare_dash_3g",
]


def test_expected_label_mapping():
    assert expected_label(TechniqueSpec(ENCODING_RATE)) == "ENCODING_RATE"
    assert expected_label(TechniqueSpec(DASH)) == "DASH"
    assert (
        expected_label(TechniqueSpec(ON_OFF, low_watermark_s=1, high_watermark_s=5))
        == "ON_OFF_PERSISTENT"
    )
    assert (
        expected_label(
            TechniqueSpec(
                ON_OFF, low_watermark_s=1, high_watermark_s=5, connection_mode=PER_BURST
            )
        )
        == "ON_OFF_PER_BURST"
    )


def test_every_bundled_run_audits_clean(grid):
    for name, report in grid.items():
        assert audit(report) == [], name


def test_audit_flags_bytes_billed_off_the_wire(grid):
    report = grid["compare_onoff_per_burst_3g"]
    m = report.metrics
    wire = "billed bytes differ from the DATA payloads on the wire"
    per_conn = "per-connection byte tallies differ from the DATA on each connection"
    # a DATA record that carried one byte less than was billed
    records = list(report.records)
    i = next(k for k, r in enumerate(records) if r.kind == DATA)
    records[i] = replace(records[i], payload=records[i].payload - 1)
    assert audit(replace(report, records=records)) == [wire, per_conn]
    # the same on the Timeline's columns
    timeline = report.records.copy()
    timeline.payload[i] -= 1
    assert audit(replace(report, records=timeline)) == [wire, per_conn]
    # bytes billed with no packet, as a re-fetch booked off the wire once was
    extra = dict(m.connection_bytes)
    extra[1] += 500
    doctored = replace(m, received_total=m.received_total + 500, connection_bytes=extra)
    assert wire in audit(replace(report, metrics=doctored))
    # the right total, but booked on the wrong connection
    ids = sorted(m.connection_bytes)
    moved = dict(m.connection_bytes)
    moved[ids[0]] -= 100
    moved[ids[1]] += 100
    assert audit(replace(report, metrics=replace(m, connection_bytes=moved))) == [per_conn]


def test_audit_flags_a_record_that_steps_back(grid):
    # audit's order rule is check_time_order's: a step back of 1e-13 s is
    # flagged, as the view rejects it
    report = grid["compare_onoff_per_burst_3g"]
    records = list(report.records)
    i = len(records) // 2
    records[i] = replace(records[i], time=records[i - 1].time - 1e-13)
    with pytest.raises(ValueError, match="packet timeline must be sorted by time"):
        check_time_order([r.time for r in records])
    assert audit(replace(report, records=records)) == ["packet timeline out of order"]
    timeline = report.records.copy()
    timeline.time[i] = records[i].time
    assert audit(replace(report, records=timeline)) == ["packet timeline out of order"]


@pytest.mark.parametrize("step", [-1.0, math.nan])
def test_audit_flags_a_timeline_the_analysis_view_rejects(grid, step):
    # a step back of a second, or a time that is not finite: the view's
    # order check raises, and audit reports a problem line instead
    report = grid["compare_onoff_per_burst_3g"]
    timeline = report.records.copy()
    i = len(timeline) // 2
    timeline.time[i] = timeline.time[i - 1] + step
    assert audit(replace(report, records=timeline)) == ["packet timeline out of order"]


def test_every_bundled_run_is_classified_as_built(grid):
    for name, report in grid.items():
        assert report.classifier_agrees, (
            f"{name}: got {report.classification.label} "
            f"({report.classification.confidence:.2f})"
        )


def test_radio_kind_picks_the_matching_state_machine(grid):
    for name, report in grid.items():
        states = {s.state for s in expand_segments(report.radio_segments)}
        if report.scenario.radio_kind == "RRC_3G":
            assert states <= {"DCH", "FACH", "PCH", "IDLE"}, name
        else:
            assert states <= {"ACTIVE", "PSM_IDLE", "SLEEP"}, name


def test_streaming_energy_ordering_across_techniques(grid):
    """Delivery-attributable drain orders the techniques on identical terms.

    Downloading fast and sleeping beats trickling forever: fast caching,
    then burst-per-connection on-off, then bursty throttling, and the two
    always-on shapes (client pacing, probe-kept on-off) cost the most.
    """
    current = {
        name: grid[name].energy.avg_streaming_mA
        for name in (
            "compare_fast_caching_3g",
            "compare_onoff_per_burst_3g",
            "compare_throttle_bursty_3g",
            "compare_encoding_3g",
            "compare_onoff_persistent_3g",
        )
    }
    assert current["compare_fast_caching_3g"] <= current["compare_onoff_per_burst_3g"]
    assert current["compare_onoff_per_burst_3g"] <= current["compare_throttle_bursty_3g"]
    assert current["compare_throttle_bursty_3g"] <= min(
        current["compare_encoding_3g"], current["compare_onoff_persistent_3g"]
    )


def test_emit_report_rejects_empty_and_unknown_formats(grid):
    with pytest.raises(ValueError):
        emit_report([])
    with pytest.raises(ValueError):
        emit_report([grid["compare_encoding_3g"]], fmt="yaml")


def test_emit_report_csv_has_one_row_per_run(grid):
    reports = [grid[n] for n in COMPARE[:3]]
    text = emit_report(reports, fmt="csv")
    lines = text.strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "scenario"
    assert "avg_streaming_mA" in header
    assert lines[1].split(",")[0] == "compare_encoding_3g"


def test_emit_report_table_is_aligned_and_unit_labelled(grid):
    reports = [grid[n] for n in COMPARE[:3]]
    text = emit_report(reports, fmt="table")
    lines = text.splitlines()
    assert len(lines) == 2 + len(reports)
    assert len({len(line) for line in lines}) == 1  # every row padded alike
    assert set(lines[1]) <= {"-", " "}
    for unit_col in ("duration_s", "received_bytes", "avg_total_mA"):
        assert unit_col in lines[0]


def test_artifact_files_round_trip(tmp_path, grid):
    from streamsim.transport import read_timeline_csv

    report = run_scenario(load_builtin("compare_fast_caching_3g"), out_dir=tmp_path)
    for suffix in (".timeline.csv", ".radio.csv", ".buffer.csv", ".summary.csv"):
        assert (tmp_path / ("compare_fast_caching_3g" + suffix)).is_file()
    back = read_timeline_csv(tmp_path / "compare_fast_caching_3g.timeline.csv")
    assert len(back) == len(report.records)
    summary = (tmp_path / "compare_fast_caching_3g.summary.csv").read_text()
    assert summary.splitlines()[1].startswith("compare_fast_caching_3g,")


def test_repeated_runs_are_byte_identical(tmp_path):
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_scenario(load_builtin("compare_throttle_bursty_3g"), out_dir=out)
        texts.append(
            (out / "compare_throttle_bursty_3g.timeline.csv").read_bytes()
            + (out / "compare_throttle_bursty_3g.radio.csv").read_bytes()
            + (out / "compare_throttle_bursty_3g.summary.csv").read_bytes()
        )
    assert texts[0] == texts[1]


def test_sweep_rejects_out_of_range_fractions():
    sc = load_builtin("sweep_fast_caching_3g")
    with pytest.raises(ValueError):
        sweep_watched_fraction(sc, [0.5, 0.0])
    with pytest.raises(ValueError):
        sweep_watched_fraction(sc, [1.2])


def test_sweep_truncates_at_each_fraction(tmp_path):
    sc = load_builtin("sweep_fast_caching_3g")
    reports = sweep_watched_fraction(sc, [0.25, 1.0])
    assert reports[0].metrics.watched_s == pytest.approx(0.25 * sc.video.duration_s)
    assert reports[1].metrics.watched_s == pytest.approx(sc.video.duration_s)
    # walking away early wastes prefetched bytes; watching it all wastes none
    assert reports[0].metrics.wasted_bytes > 0
    assert reports[1].metrics.wasted_bytes == pytest.approx(0.0)

    out = tmp_path / "sweep.csv"
    write_sweep_csv(reports, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("watched_fraction,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.250"
