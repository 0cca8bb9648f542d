"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import random
import sys
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import pytest  # noqa: E402
from streamsim import harness  # noqa: E402
from streamsim.harness import audit, run_scenario  # noqa: E402
from streamsim.scenario import load_builtin  # noqa: E402
from streamsim.transport import DATA, REQUEST, PacketRecord  # noqa: E402

from spans import Span, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    BOOK_COLUMNS,
    HARNESS_LAYERS,
    WORKLOADS,
    check_run,
    harness_spans,
    jittered,
    record_kinds,
    refetch_variant,
    summary_row,
)


def _timeline(n=400, seed=5):
    rng = random.Random(seed)
    t, out = 0.0, []
    for i in range(n):
        t += rng.choice([0.0, 0.01, 0.01, 0.3, 12.0])
        out.append(PacketRecord(t, "down", 1000 + i, DATA, 1))
    return out


def test_jitter_is_deterministic_per_seed_and_keeps_timelines_sorted():
    clean = _timeline()
    for fraction in (0.1, 0.2, 0.3):
        a = jittered(clean, fraction, random.Random(f"s:{fraction}"))
        b = jittered(clean, fraction, random.Random(f"s:{fraction}"))
        c = jittered(clean, fraction, random.Random(f"other:{fraction}"))
        assert [r.time for r in a] == [r.time for r in b]
        assert [r.time for r in a] != [r.time for r in c]
        times = [r.time for r in a]
        assert times == sorted(times)
        assert [(r.payload, r.kind) for r in a] == [(r.payload, r.kind) for r in clean]
        # each time moves by at most the fraction of its gap to the previous
        # record, except where it is pushed up to keep the order
        prev, prev_moved = 0.0, 0.0
        for r, x in zip(clean, a):
            reach = fraction * (r.time - prev) + 1e-12
            assert r.time - reach <= x.time <= max(r.time + reach, prev_moved)
            prev, prev_moved = r.time, x.time


def test_self_time_subtracts_only_what_children_cover():
    #  root [0, 10]
    #   ├─ a [1, 4]      └─ a1 [2, 3]
    #   ├─ b [3.5, 6]    (overlaps a by 0.5: counted once)
    #   └─ c [9, 12]     (runs past the root: clipped at 10)
    spans = [
        Span("root", 0.0, 10.0, None, 0, "measure"),
        Span("a", 1.0, 4.0, 0, 0, "measure"),
        Span("a1", 2.0, 3.0, 1, 0, "measure"),
        Span("b", 3.5, 6.0, 0, 0, "measure"),
        Span("c", 9.0, 12.0, 0, 0, "measure"),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 2.5, 3.0])


def test_harness_spans_time_the_layers_run_scenario_calls_and_restore_harness():
    names = [*HARNESS_LAYERS, "build_session"]
    before = {n: getattr(harness, n) for n in names}
    tracer = Tracer()
    tracer.enabled = True
    with harness_spans(tracer):
        run_scenario(load_builtin("compare_encoding_3g").with_watched_fraction(0.1))
    assert {n: getattr(harness, n) for n in names} == before
    assert Counter(s.name for s in tracer.spans) == {
        "session.run": 2,  # construction, then run()
        "radio.drive.rrc": 1,
        "radio.integrate": 2,  # integrate, then make_energy_report
        "analysis.classify": 1,
    }
    assert all(s.parent is None for s in tracer.spans)


@pytest.fixture(scope="module")
def short_run():
    report = run_scenario(load_builtin("compare_encoding_3g").with_watched_fraction(0.1))
    return report, {"row": summary_row(report), "records": record_kinds(report.records)}


def test_reference_check_passes_the_unmodified_run(short_run):
    report, ref = short_run
    assert check_run(report, audit(report), ref, list(ref["row"])) == ([], False)


@pytest.mark.parametrize("mutate", ["payload", "kind"])
def test_reference_check_flags_a_single_mutated_packet(short_run, mutate):
    report, ref = short_run
    records = list(report.records)
    i = next(k for k, r in enumerate(records) if r.kind == DATA)
    r = records[i]
    if mutate == "payload":
        records[i] = PacketRecord(r.time, r.direction, r.payload - 1, r.kind, r.conn_id)
    else:
        records[i] = PacketRecord(r.time, r.direction, 0, REQUEST, r.conn_id)
    original = report.records
    report.records = records
    try:
        fails, regression = check_run(report, audit(report), ref, BOOK_COLUMNS)
    finally:
        report.records = original
    assert regression and fails


def test_known_defect_counts_as_failure_but_not_regression():
    report = run_scenario(refetch_variant(load_builtin("compare_dash_3g")))
    fails = audit(report) + ["562500 bytes billed that no DATA record carried"]
    ref = {
        "row": {c: summary_row(report)[c] for c in BOOK_COLUMNS},
        "records": record_kinds(report.records),
        "known_defect": {"fails": fails},
    }
    assert check_run(report, audit(report), ref, BOOK_COLUMNS) == (fails, False)


def test_benchmark_json_names_the_workloads_the_benchmark_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
