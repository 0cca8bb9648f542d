#!/usr/bin/env python3
"""Regenerate bench/reference.json from the current code.

    python3 bench/make_reference.py

Grid rows and artifact hashes come from `harness.run_scenario` and
`harness.write_artifacts` themselves.  Sweep entries hold only what does not
depend on the jitter seed (byte books, timings, record counts).  Replay
entries price the re-read jitter-free timeline the way the benchmark does.
Changing the reference changes what the benchmark accepts: say why in
CHANGES.md whenever you regenerate it.
"""

import json
import os
import sys
import tempfile
from dataclasses import replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from streamsim.harness import audit, run_scenario, sweep_watched_fraction  # noqa: E402
from streamsim.scenario import builtin_scenario_names, load_builtin  # noqa: E402
from streamsim.transport import read_timeline_csv  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ARTIFACTS,
    BOOK_COLUMNS,
    REFETCH_BASE,
    REFETCH_KEY,
    REPLAY_PSM_FROM,
    REPLAY_RRC_FROM,
    SWEEP_FRACTIONS,
    SWEEP_JITTER,
    check_run,
    file_sha256,
    record_kinds,
    refetch_variant,
    replay_reference,
    replay_trace,
    summary_row,
)


def main():
    names = builtin_scenario_names()
    rrc = load_builtin(REPLAY_RRC_FROM).rrc
    psm = load_builtin(REPLAY_PSM_FROM).psm
    scenarios, sweep = {}, {}
    out_dir = os.path.join(os.path.dirname(BENCH_DIR), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for name in names:
            sc = load_builtin(name)
            report = run_scenario(sc, out_dir=tmp)
            assert not audit(report), (name, audit(report))
            base = os.path.join(tmp, name)
            clean = read_timeline_csv(base + ".timeline.csv")
            replayed = replay_trace(clean, sc, rrc, psm, report.metrics.startup_s, Tracer())
            scenarios[name] = {
                "row": summary_row(report),
                "records": record_kinds(report.records),
                "sha256": {k: file_sha256(f"{base}.{k}.csv") for k in ARTIFACTS},
                "replay": replay_reference(replayed),
            }
            jittery = replace(sc.with_path(jitter=SWEEP_JITTER), seed=1)
            runs = [(f"{name}@{f}", sweep_watched_fraction(jittery, [f])[0])
                    for f in SWEEP_FRACTIONS]
            if name == REFETCH_BASE:
                refetch = run_scenario(refetch_variant(jittery))
                runs.append((REFETCH_KEY, refetch))
            for key, r in runs:
                row = summary_row(r)
                sweep[key] = {
                    "row": {c: row[c] for c in BOOK_COLUMNS},
                    "records": record_kinds(r.records),
                }
    defect = sweep[REFETCH_KEY]
    fails, _ = check_run(refetch, audit(refetch), defect, BOOK_COLUMNS)
    defect["known_defect"] = {
        "what": "a DASH refetch bills bytes that no packet carried",
        "fails": fails,
    }
    out = os.path.join(BENCH_DIR, "reference.json")
    with open(out, "w") as fh:
        json.dump({"scenarios": scenarios, "sweep": sweep}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}: {len(scenarios)} scenarios, {len(sweep)} sweep runs")


if __name__ == "__main__":
    main()
