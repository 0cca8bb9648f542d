"""Run orchestration: scenario -> session -> radio -> energy -> classifier.

A RunReport bundles everything one simulated watch produces.  The same
packet timeline that the energy models consume is handed to the classifier,
so every run doubles as a self-check: the technique recovered from the
trace should match the technique that generated it.
"""

import csv
import io
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass
from itertools import chain, islice

from .analysis import ClassificationResult, _unchecked_view, classify, data_view, share_view
from .radio import (
    integrate,
    make_energy_report,
    psm_drive,
    rrc_drive,
    share_walks,
    write_radio_csv,
)
from .scenario import PSM_WIFI, RRC_3G, Scenario
from .session import ON_OFF, PER_BURST, SessionMetrics, StreamingSession
from .transport import Timeline, write_timeline_csv


@dataclass
class RunReport:
    scenario: Scenario
    metrics: SessionMetrics
    records: Timeline  # or a list of PacketRecord; read as a sequence of records
    radio_segments: list
    energy: object
    classification: ClassificationResult

    @property
    def classifier_agrees(self):
        return self.classification.label == expected_label(self.scenario.technique)


def expected_label(technique):
    if technique.kind == ON_OFF:
        if technique.connection_mode == PER_BURST:
            return "ON_OFF_PER_BURST"
        return "ON_OFF_PERSISTENT"
    return technique.kind


def build_session(scenario, **overrides):
    kw = dict(
        watched_fraction=scenario.watched_fraction,
        tick_s=scenario.tick_s,
        recv_capacity=scenario.recv_capacity,
        probe_interval=scenario.probe_interval_s,
        seed=scenario.seed,
    )
    kw.update(overrides)
    return StreamingSession(scenario.video, scenario.technique, scenario.path, **kw)


def run_scenario(scenario, out_dir=None):
    session = build_session(scenario)
    metrics = session.run()
    report = _report(scenario, metrics, session.transport.records)
    if out_dir is not None:
        write_artifacts(report, out_dir)
    return report


def _report(scenario, metrics, records):
    """The radio drive, energy and classification of one finished watch."""
    drive, params = _radio(scenario)
    segments = drive(records, params, t_end=metrics.end_t, t_start=0.0)
    energy = make_energy_report(integrate(segments, params.currents()),
                                scenario.playback_current_ma)

    label = classify(records, scenario.video.avg_rate_bps, scenario.path.bandwidth_bps)
    return RunReport(scenario, metrics, records, segments, energy, label)


def _radio(scenario):
    """The scenario's radio drive and its parameters."""
    if scenario.radio_kind == RRC_3G:
        return rrc_drive, scenario.rrc
    if scenario.radio_kind == PSM_WIFI:
        return psm_drive, scenario.psm
    raise ValueError(f"scenario {scenario.name}: unknown radio {scenario.radio_kind}")


def sweep_watched_fraction(scenario, fractions):
    """One report per abandonment point, in the order given, all from one session.

    Watching fraction f and walking away delivers, up to the tick on which
    the playhead reaches f of the clip, exactly what a longer watch does.
    So one session runs to the largest fraction, and every shorter watch
    ends as a snapshot of it at its own end: the metrics and the timeline
    up to that tick, and the close record a session truncated at f would
    emit (StreamingSession._finish).  Each report equals that of a fresh
    run_scenario at f, identical seed throughout, so the runs are directly
    comparable.  Each report has a timeline of its own (a Timeline.copy()),
    and reading it as records builds its own PacketRecord objects: no two
    reports share a record, nor a radio segment.

    The longest watch's timeline is walked once for all of them.  Its
    analysis view, the DATA columns and the run tallies, is built once, and
    each shorter watch's timeline, its first records and a close, is handed
    a slice of it (analysis.share_view).  Its packet times are walked once
    through the radio, and each watch's drive goes on from that walk at its
    prefix (radio.share_walks): each takes only its own tail.
    """
    fractions = list(fractions)
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"watched fraction {f} outside (0, 1]")
    if not fractions:
        return []
    session = build_session(scenario, watched_fraction=max(fractions))
    session._also_watch(fractions)
    session.run()
    timeline = session.transport.records
    view = data_view(timeline)
    ended = session._ended_watches
    order = sorted(ended)  # shortest first: neither prefix nor end falls
    watches = []
    for f in order:
        metrics, records, prefix = ended[f]
        share_view(records, view, prefix)
        watches.append((records, prefix, metrics.end_t))
    share_walks(_radio(scenario)[1], timeline.time, watches)
    reports, seen = [], set()
    for f in fractions:
        metrics, records, prefix = ended[f]
        if f in seen:
            # a repeated fraction gets outputs of its own, as a fresh run would
            metrics, records = deepcopy(metrics), records.copy()
            share_view(records, view, prefix)
        seen.add(f)
        reports.append(_report(scenario.with_watched_fraction(f), metrics, records))
    return reports


def audit(report):
    """Cross-module consistency problems in a finished run, [] when clean."""
    problems = []
    m = report.metrics
    drift = m.received_total - m.consumed_bytes - m.wasted_bytes
    if abs(drift) > 1e-6:
        problems.append(f"byte conservation off by {drift!r}")
    records = Timeline.of(report.records)
    try:
        view, ordered = data_view(records), True  # classify's, which checked the order
    except ValueError:  # a step back, or a time that is not finite
        view, ordered = _unchecked_view(records), False
    wire, cums = Counter(), view.cums
    for conn_id, _, _, d0, d1 in view.stretches:
        if d1 > d0:
            wire[conn_id] += cums[d1] - cums[d0]
    if m.received_total != wire.total():
        problems.append("billed bytes differ from the DATA payloads on the wire")
    if Counter(m.connection_bytes) != wire:
        problems.append("per-connection byte tallies differ from the DATA on each connection")
    segs = report.radio_segments
    for a, b in zip(segs, segs[1:]):
        if abs(a.end - b.start) > 1e-9:
            problems.append(f"radio timeline gap at t={a.end:.6f}")
            break
    if segs and abs(segs[-1].end - m.end_t) > 1e-6:
        problems.append("radio timeline does not reach the end of the session")
    span = sum(s.end - s.start for s in segs)
    if abs(span - report.energy.duration_s) > 1e-6:
        problems.append("energy duration disagrees with the radio timeline")
    if not ordered:
        problems.append("packet timeline out of order")
    return problems


_DWELL_STATES = ("DCH", "FACH", "PCH", "IDLE", "ACTIVE", "PSM_IDLE", "SLEEP")

_COLUMNS = [
    "scenario", "technique", "radio", "duration_s", "startup_s", "watched_s",
    "stalls", "stall_s", "received_bytes", "consumed_bytes", "wasted_bytes",
    "connections", "label", "confidence", "agrees",
    "avg_total_mA", "avg_streaming_mA", "charge_mAs",
] + [s.lower() + "_s" for s in _DWELL_STATES]


def _row(report):
    m, e = report.metrics, report.energy
    row = {
        "scenario": report.scenario.name,
        "technique": expected_label(report.scenario.technique),
        "radio": report.scenario.radio_kind,
        "duration_s": f"{m.duration_s:.2f}",
        "startup_s": f"{m.startup_s:.2f}",
        "watched_s": f"{m.watched_s:.2f}",
        "stalls": str(len(m.stalls)),
        "stall_s": f"{m.stall_total_s:.2f}",
        "received_bytes": str(m.received_total),
        "consumed_bytes": f"{m.consumed_bytes:.0f}",
        "wasted_bytes": f"{m.wasted_bytes:.0f}",
        "connections": str(m.connection_count),
        "label": report.classification.label,
        "confidence": f"{report.classification.confidence:.2f}",
        "agrees": "yes" if report.classifier_agrees else "NO",
        "avg_total_mA": f"{e.avg_total_mA:.1f}",
        "avg_streaming_mA": f"{e.avg_streaming_mA:.1f}",
        "charge_mAs": f"{e.charge_mAs:.0f}",
    }
    for state in _DWELL_STATES:
        row[state.lower() + "_s"] = f"{e.dwell.get(state, 0.0):.2f}"
    return row


def emit_report(reports, fmt="table"):
    """Render finished runs as an aligned text table or CSV text."""
    if not reports:
        raise ValueError("no runs to report")
    rows = [_row(r) for r in reports]
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_COLUMNS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        return buf.getvalue()
    if fmt == "table":
        cols = [c for c in _COLUMNS if any(row[c] not in ("0.00", "0") for row in rows)]
        widths = {c: max(len(c), *(len(row[c]) for row in rows)) for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        lines.append("  ".join("-" * widths[c] for c in cols))
        for row in rows:
            lines.append("  ".join(row[c].ljust(widths[c]) for c in cols))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def write_artifacts(report, out_dir):
    """Timeline, radio, buffer, and summary CSVs for one run."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, report.scenario.name)
    write_timeline_csv(report.records, base + ".timeline.csv")
    write_radio_csv(report.radio_segments, base + ".radio.csv")
    with open(base + ".buffer.csv", "w", newline="") as fh:
        fh.write("time_s,buffer_bytes,buffer_media_s\r\n")
        rows = iter(report.metrics.buffer_series)
        while block := tuple(chain.from_iterable(islice(rows, 1024))):  # one % a block of rows
            fh.write("%.3f,%.0f,%.3f\r\n" * (len(block) // 3) % block)
    with open(base + ".summary.csv", "w", newline="") as fh:
        fh.write(emit_report([report], fmt="csv"))


def write_sweep_csv(reports, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "watched_fraction", "duration_s", "received_bytes", "wasted_bytes",
            "charge_mAs", "avg_total_mA", "avg_streaming_mA",
        ])
        for r in reports:
            w.writerow([
                f"{r.scenario.watched_fraction:.3f}",
                f"{r.metrics.duration_s:.2f}",
                str(r.metrics.received_total),
                f"{r.metrics.wasted_bytes:.0f}",
                f"{r.energy.charge_mAs:.0f}",
                f"{r.energy.avg_total_mA:.2f}",
                f"{r.energy.avg_streaming_mA:.2f}",
            ])
