"""The benchmark's workloads, their output checks, and the helpers they share.

Each workload is a list of items run one after another in a closed loop.
Grid and sweep items go through `harness.run_scenario` and
`harness.sweep_watched_fraction` themselves.  In traced runs,
`harness_spans` wraps the layer functions those look up in a tracer span
named after the metric it feeds, so time is attributed per layer while the
code that runs is the program's own.
"""

import csv
import hashlib
import io
import os
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from streamsim import harness
from streamsim.analysis import (
    burst_cdf,
    classify,
    estimate_buffer,
    estimate_fast_start,
    estimate_throttle_factor,
    find_rate_knee,
    group_bursts,
)
from streamsim.harness import (
    audit,
    build_session,
    emit_report,
    expected_label,
    run_scenario,
    sweep_watched_fraction,
    write_sweep_csv,
)
from streamsim.kernel import Kernel
from streamsim.radio import integrate, make_energy_report, psm_drive, rrc_drive
from streamsim.scenario import builtin_scenario_names, load_builtin
from streamsim.transport import DATA, PacketRecord, read_timeline_csv

ARTIFACTS = ("timeline", "radio", "buffer", "summary")
JITTER_LEVELS = (0.0, 0.1, 0.2, 0.3)
SWEEP_FRACTIONS = (0.1, 0.3, 0.6)
SWEEP_JITTER = 0.1
# Known defect: a refetch after an upward DASH switch bills bytes no packet
# carried.  Run at a full watch so the whole refetch shows.
REFETCH_BASE = "compare_dash_3g"
REFETCH_KEY = "compare_dash_3g+refetch@1.0"
# Summary columns that do not depend on the transport's jitter seed.
BOOK_COLUMNS = (
    "scenario", "technique", "radio", "duration_s", "startup_s", "watched_s",
    "stalls", "stall_s", "received_bytes", "consumed_bytes", "wasted_bytes",
    "connections",
)
# Fixed radio parameter sets that every replayed trace is priced under.
REPLAY_RRC_FROM = "compare_encoding_3g"
REPLAY_PSM_FROM = "galaxy_s3_dailymotion_wifi"
# Names harness.run_scenario looks up when it runs, and the span each call is
# timed under.  build_session is wrapped separately (see harness_spans).
HARNESS_LAYERS = {
    "rrc_drive": "radio.drive.rrc",
    "psm_drive": "radio.drive.psm",
    "integrate": "radio.integrate",
    "make_energy_report": "radio.integrate",
    "classify": "analysis.classify",
    "write_artifacts": "harness.artifacts",
}


@contextmanager
def harness_spans(tracer):
    """Time each call harness makes into a layer, by wrapping the names it
    looks up; the session's construction and its run() are both timed as
    "session.run".  The original functions are put back on exit."""
    saved = {name: getattr(harness, name) for name in [*HARNESS_LAYERS, "build_session"]}

    def timed(fn, span):
        def call(*args, **kwargs):
            with tracer.span(span):
                return fn(*args, **kwargs)

        return call

    build = timed(saved["build_session"], "session.run")

    def traced_build_session(scenario, **overrides):
        session = build(scenario, **overrides)
        session.run = timed(session.run, "session.run")
        return session

    for name, span in HARNESS_LAYERS.items():
        setattr(harness, name, timed(saved[name], span))
    harness.build_session = traced_build_session
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(harness, name, fn)


class CountingKernel(Kernel):
    """Kernel that counts executed events, and those that appended no record.

    Attach the transport's timeline to `records` before the first event runs.
    Wrapping every event costs time, so it is used only in untimed runs.
    """

    def __init__(self):
        super().__init__()
        self.events = 0
        self.idle = 0
        self.records = None

    def schedule(self, fire_time, action):
        def counted():
            before = len(self.records)
            action()
            self.events += 1
            if len(self.records) == before:
                self.idle += 1

        return super().schedule(fire_time, counted)


@dataclass
class Unit:
    """One checked output: a session run, or one replayed copy of a trace."""

    key: str
    agrees: bool
    fails: list
    regression: bool   # a failure the reference does not record as known
    level: str = ""


@dataclass
class ItemResult:
    units: list
    sim_s: float
    counters: Counter = field(default_factory=Counter)
    exact: list = field(default_factory=lambda: [0, 0])  # artifacts matched, compared


def label_key(technique):
    return expected_label(technique).lower()


def record_kinds(records):
    return dict(sorted(Counter(r.kind for r in records).items()))


def unbilled_bytes(report):
    return report.metrics.received_total - sum(
        r.payload for r in report.records if r.kind == DATA
    )


def summary_row(report):
    return next(csv.DictReader(io.StringIO(emit_report([report], fmt="csv"))))


def kernel_counts(sc):
    """Events one session of `sc` executes, and those that appended no record."""
    kernel = CountingKernel()
    session = build_session(sc, kernel=kernel)
    kernel.records = session.transport.records
    session.run()
    return Counter({"kernel.events": kernel.events, "kernel.idle_events": kernel.idle})


def count_run(counters, report):
    n = len(report.records)
    data = sum(1 for r in report.records if r.kind == DATA)
    counters["transport.records"] += n
    counters["transport.records.data"] += data
    counters["transport.records.control"] += n - data
    counters["radio.segments"] += len(report.radio_segments)
    counters["radio.charge_mAs"] += report.energy.charge_mAs
    counters["session.unbilled_bytes"] += unbilled_bytes(report)


def check_run(report, problems, ref, columns):
    """(failure reasons, is_regression) of one finished run against its reference.

    `problems` are the run's audit() findings.  A reference entry may record
    a known defect: reproducing it exactly is a failure but not a regression,
    and once the run comes out clean its recorded (defective) row no longer
    applies.
    """
    fails = list(problems)
    unbilled = unbilled_bytes(report)
    if unbilled:
        fails.append(f"{unbilled} bytes billed that no DATA record carried")
    defect = ref.get("known_defect")
    if defect is not None and not fails:
        return [], False
    mismatch = []
    if record_kinds(report.records) != ref["records"]:
        mismatch.append("record counts per kind")
    row = summary_row(report)
    diff = [c for c in columns if row[c] != ref["row"][c]]
    if diff:
        mismatch.append("summary columns " + ", ".join(diff))
    fails += [f"differs from reference: {m}" for m in mismatch]
    expected = defect is not None and not mismatch and fails == defect["fails"]
    return fails, bool(fails) and not expected


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def artifact_matches(out_dir, name, ref_shas):
    base = os.path.join(out_dir, name)
    return sum(file_sha256(f"{base}.{kind}.csv") == ref_shas[kind] for kind in ARTIFACTS)


def jittered(records, fraction, rng):
    """Copy of a sorted timeline with each time moved by up to `fraction` of
    its gap to the previous record and kept sorted (the transport's rule)."""
    out = []
    last_nominal = 0.0
    last = 0.0
    for r in records:
        gap = max(0.0, r.time - last_nominal)
        last_nominal = r.time
        t = max(r.time + rng.uniform(-1.0, 1.0) * fraction * gap, last)
        last = t
        out.append(PacketRecord(t, r.direction, r.payload, r.kind, r.conn_id))
    return out


def level_name(fraction):
    return "j%02d" % round(fraction * 100)


def _or_none(estimator, *args):
    try:
        return estimator(*args)
    except ValueError:
        return None  # the trace has no phase this estimator can measure


@dataclass
class Replayed:
    label: str
    throttle_factor: float | None
    fast_start_end_s: float | None
    rate_knee_s: float | None
    bursts: int
    t_end: float
    segments: list
    energies: list


def replay_trace(records, sc, rrc, psm, startup_s, tracer):
    """Classify, estimate and price one packet timeline."""
    rate = sc.video.avg_rate_bps
    with tracer.span("analysis.classify"):
        label = classify(records, rate, sc.path.bandwidth_bps).label
    with tracer.span("analysis.estimators"):
        factor = _or_none(estimate_throttle_factor, records, rate)
        fast = _or_none(estimate_fast_start, records, rate)
        knee = find_rate_knee(records)
        bursts = group_bursts(records)
        burst_cdf(bursts)
    with tracer.span("analysis.estimate_buffer"):
        estimate_buffer(records, sc.video.schedule, startup_s)
    t_end = records[-1].time
    with tracer.span("radio.drive.rrc"):
        rrc_segs = rrc_drive(records, rrc, t_end=t_end, t_start=0.0)
    with tracer.span("radio.drive.psm"):
        psm_segs = psm_drive(records, psm, t_end=t_end, t_start=0.0)
    with tracer.span("radio.integrate"):
        energies = [
            make_energy_report(integrate(rrc_segs, rrc.currents()), sc.playback_current_ma),
            make_energy_report(integrate(psm_segs, psm.currents()), sc.playback_current_ma),
        ]
    return Replayed(
        label, factor, fast.end_time if fast else None, knee, len(bursts), t_end,
        [rrc_segs, psm_segs], energies,
    )


def replay_reference(r):
    """The reference fields of a replayed jitter-free trace."""

    def fmt(x, spec):
        return None if x is None else format(x, spec)

    return {
        "label": r.label,
        "throttle_factor": fmt(r.throttle_factor, ".4g"),
        "fast_start_end_s": fmt(r.fast_start_end_s, ".2f"),
        "rate_knee_s": fmt(r.rate_knee_s, ".2f"),
        "bursts": r.bursts,
        "rrc_charge_mAs": fmt(r.energies[0].charge_mAs, ".1f"),
        "psm_charge_mAs": fmt(r.energies[1].charge_mAs, ".1f"),
    }


def check_replayed(copy, clean, r):
    """Invariants every replayed copy must keep, jittered or not."""
    fails = []
    times = [x.time for x in copy]
    if times != sorted(times):
        fails.append("timeline out of order")
    if [(x.payload, x.kind, x.conn_id) for x in copy] != [
        (x.payload, x.kind, x.conn_id) for x in clean
    ]:
        fails.append("payloads, kinds or connections differ from the clean trace")
    for segs, energy in zip(r.segments, r.energies):
        ends = [(a.end, b.start) for a, b in zip(segs, segs[1:])]
        if (
            not segs
            or segs[0].start != 0.0
            or abs(segs[-1].end - r.t_end) > 1e-6
            or any(abs(a - b) > 1e-9 for a, b in ends)
            or abs(energy.duration_s - r.t_end) > 1e-6
        ):
            fails.append("radio timeline does not cover the trace contiguously")
    return fails


def load_scenarios(tracer):
    with tracer.span("scenario.load"):
        return [load_builtin(name) for name in builtin_scenario_names()]


def record(sc, tracer, out_dir):
    """One `streamsim run --out` of a scenario, then its audit."""
    report = run_scenario(sc, out_dir)
    with tracer.span("harness.audit"):
        problems = audit(report)
    return report, problems


def check_record(outputs, ref, out_dir):
    report, problems = outputs
    name = report.scenario.name
    fails, regression = check_run(report, problems, ref, list(ref["row"]))
    out = ItemResult(
        [Unit(name, report.classifier_agrees, fails, regression)], report.metrics.end_t
    )
    count_run(out.counters, report)
    out.exact = [artifact_matches(out_dir, name, ref["sha256"]), len(ARTIFACTS)]
    return out


class Grid:
    """Every bundled scenario once through the full `streamsim run --out` path."""

    def __init__(self, seed, reference, work_dir):
        self.seed = seed
        self.ref = reference["scenarios"]
        self.out_dir = os.path.join(work_dir, "grid")

    def setup(self, tracer):
        scenarios = load_scenarios(tracer)
        random.Random(f"grid:{self.seed}").shuffle(scenarios)
        self.items = scenarios
        self.labels = [label_key(sc.technique) for sc in scenarios]
        os.makedirs(self.out_dir, exist_ok=True)
        return ItemResult([], 0.0)

    def run(self, i, tracer):
        return record(self.items[i], tracer, self.out_dir)

    def count(self, i):
        return kernel_counts(self.items[i])

    def check(self, i, outputs):
        return check_record(outputs, self.ref[self.items[i].name], self.out_dir)


class Replay:
    """Re-read recorded traces and analyse jittered copies; no session runs."""

    def __init__(self, seed, reference, work_dir):
        self.seed = seed
        self.ref = reference["scenarios"]
        self.out_dir = os.path.join(work_dir, "replay")

    def setup(self, tracer):
        """Record every bundled scenario's timeline as CSV, and jitter copies of it."""
        scenarios = load_scenarios(tracer)
        by_name = {sc.name: sc for sc in scenarios}
        self.rrc = by_name[REPLAY_RRC_FROM].rrc
        self.psm = by_name[REPLAY_PSM_FROM].psm
        os.makedirs(self.out_dir, exist_ok=True)
        random.Random(f"replay:{self.seed}").shuffle(scenarios)
        self.items = scenarios
        self.labels = [label_key(sc.technique) for sc in scenarios]
        self.startup = []
        self.copies = []
        setup = ItemResult([], 0.0)
        for i, sc in enumerate(scenarios):
            tracer.item = i
            outputs = record(sc, tracer, self.out_dir)
            res = check_record(outputs, self.ref[sc.name], self.out_dir)
            setup.units += res.units
            setup.counters.update(res.counters)
            setup.exact = [a + b for a, b in zip(setup.exact, res.exact)]
            report = outputs[0]
            self.startup.append(report.metrics.startup_s)
            self.copies.append([
                jittered(report.records, j, random.Random(f"replay:{self.seed}:{sc.name}:{j}"))
                for j in JITTER_LEVELS[1:]
            ])
        tracer.item = None
        return setup

    def count(self, i):
        return kernel_counts(self.items[i])

    def run(self, i, tracer):
        sc = self.items[i]
        with tracer.span("transport.csv_read"):
            clean = read_timeline_csv(os.path.join(self.out_dir, f"{sc.name}.timeline.csv"))
        return clean, [
            (copy, replay_trace(copy, sc, self.rrc, self.psm, self.startup[i], tracer))
            for copy in [clean] + self.copies[i]
        ]

    def check(self, i, outputs):
        clean, replayed = outputs
        sc = self.items[i]
        ref = self.ref[sc.name]
        expected = expected_label(sc.technique)
        out = ItemResult([], 0.0)
        for j, (copy, r) in zip(JITTER_LEVELS, replayed):
            fails = check_replayed(copy, clean, r)
            if j == 0.0:
                if record_kinds(copy) != ref["records"]:
                    fails.append("differs from reference: record counts per kind")
                got = replay_reference(r)
                diff = [k for k, v in ref["replay"].items() if got[k] != v]
                if diff:
                    fails.append("differs from reference: " + ", ".join(diff))
            key = f"{sc.name}@{level_name(j)}"
            out.units.append(Unit(key, r.label == expected, fails, bool(fails), level_name(j)))
            out.sim_s += r.t_end
            n = len(copy)
            data = sum(1 for x in copy if x.kind == DATA)
            out.counters["transport.records"] += n
            out.counters["transport.records.data"] += data
            out.counters["transport.records.control"] += n - data
            out.counters["radio.segments"] += sum(len(s) for s in r.segments)
            out.counters["radio.charge_mAs"] += sum(e.charge_mAs for e in r.energies)
        return out


class Sweep:
    """Every bundled scenario at three abandonment points on a jittery path,
    plus the DASH refetch variant; only the sweep CSV is written."""

    def __init__(self, seed, reference, work_dir):
        self.seed = seed
        self.ref = reference["sweep"]
        self.out_dir = os.path.join(work_dir, "sweep")

    def setup(self, tracer):
        scenarios = load_scenarios(tracer)
        rng = random.Random(f"sweep:{self.seed}")
        items = []
        for sc in scenarios:
            sc = replace(sc.with_path(jitter=SWEEP_JITTER), seed=rng.randrange(1, 2**31))
            items.append((sc, SWEEP_FRACTIONS))
            if sc.name == REFETCH_BASE:
                items.append((refetch_variant(sc), (1.0,)))
        rng.shuffle(items)
        self.items = items
        self.labels = [label_key(sc.technique) for sc, _ in items]
        os.makedirs(self.out_dir, exist_ok=True)
        return ItemResult([], 0.0)

    def run(self, i, tracer):
        base, fractions = self.items[i]
        reports = sweep_watched_fraction(base, fractions)
        runs = []
        for report in reports:
            with tracer.span("harness.audit"):
                runs.append((report, audit(report)))
        with tracer.span("harness.artifacts"):
            write_sweep_csv(reports, os.path.join(self.out_dir, f"{base.name}-{i}.sweep.csv"))
        return runs

    def count(self, i):
        base, fractions = self.items[i]
        return sum((kernel_counts(base.with_watched_fraction(f)) for f in fractions), Counter())

    def check(self, i, outputs):
        base, fractions = self.items[i]
        out = ItemResult([], 0.0)
        for f, (report, problems) in zip(fractions, outputs):
            key = sweep_key(base, f)
            fails, regression = check_run(report, problems, self.ref[key], BOOK_COLUMNS)
            out.units.append(Unit(key, report.classifier_agrees, fails, regression))
            out.sim_s += report.metrics.end_t
            count_run(out.counters, report)
        return out


def refetch_variant(sc):
    technique = replace(sc.technique, dash_refetch_depth=2, fast_start_s=30.0)
    return replace(sc, technique=technique)


def sweep_key(sc, fraction):
    if sc.technique.dash_refetch_depth:
        return REFETCH_KEY
    return f"{sc.name}@{fraction}"


WORKLOADS = {"grid": Grid, "replay": Replay, "sweep": Sweep}
