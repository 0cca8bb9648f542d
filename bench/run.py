#!/usr/bin/env python3
"""streamsim benchmark: one process, one thread, a closed loop over items.

Run from the repository root:

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Set-up (import, scenario loading, input generation) is repeated a few times
and reported as a median.  The measured phase then runs the workload's items
one after another, pass after pass, until --seconds have elapsed.  Every
output is checked against bench/reference.json.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced runs of each item, records a span around every call into a layer,
and reports per-layer self time, work counters and the tracing overhead; the
spans are written to .bench_out/ at exit.  Kernel event counts come from one
extra, untimed run of each item on a counting kernel.  Every metric is printed as
"name value unit"; the last line is one JSON object with the metrics that
BENCHMARK.json declares for the mode.
"""

import argparse
import gc
from contextlib import nullcontext
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter, defaultdict
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
IMPORT_REPEATS = 9
# Set-up repeats until this many host seconds have passed, so that the short
# set-ups (grid, sweep) report a median of many.
SETUP_MIN_S = 1.0
# Host seconds calibration_s() takes on the reference host (2-core x86-64
# container, Python 3.11); timings are reported as if run at that speed.
CALIBRATION_REF_S = 0.015
# span name -> metric name; spans not listed here are reported as name + "_s"
SPAN_METRICS = {
    "item": "bench.self_s",
    "radio.drive.rrc": "radio.drive_s.rrc",
    "radio.drive.psm": "radio.drive_s.psm",
}


def import_streamsim(repeats, clock):
    """Import the package from this checkout's sources `repeats` times, each
    from scratch; returns the median of the scaled seconds taken."""
    package = os.path.join(SRC, "streamsim")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no streamsim sources at {package}")
    sys.path.insert(0, SRC)
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "streamsim"]:
            del sys.modules[name]
        t0 = perf_counter()
        import streamsim

        times.append((perf_counter() - t0) * clock.scale())
    if os.path.dirname(os.path.abspath(streamsim.__file__)) != package:
        raise SystemExit(f"error: imported streamsim from {streamsim.__file__}")
    return statistics.median(times)


def span_metric(name):
    return SPAN_METRICS.get(name, name + "_s")


def median_sum(samples):
    return sum(statistics.median(s) for s in samples if s)


def mean_sum(samples):
    return sum(statistics.fmean(s) for s in samples if s)


def calibration_s():
    """Host seconds for a fixed pure-Python loop of heap, dict and float work,
    the kind of work the simulator does."""
    t0 = perf_counter()
    heap, x = [], 0.0
    for i in range(20000):
        heapq.heappush(heap, ((i * 0.37) % 100.0, i))
        if len(heap) > 64:
            x += heapq.heappop(heap)[0]
        d = {"a": i, "b": x}
        x += d["a"] * 1e-9
    return perf_counter() - t0


class Clock:
    """Scales host seconds to the reference host.

    Every timed piece of work is followed by scale(), which runs the
    calibration loop.  The work's host time is scaled by CALIBRATION_REF_S
    over the mean of the calibrations just before and after it, which
    removes most of what a busy shared host adds to a run.
    """

    def __init__(self):
        self.last = calibration_s()
        self.factors = []  # scale factor of each timed piece of work

    def scale(self):
        """Scale factor for the work timed since the previous calibration."""
        cal = calibration_s()
        f = CALIBRATION_REF_S / ((self.last + cal) / 2)
        self.last = cal
        self.factors.append(f)
        return f


class Run:
    """State of one benchmark run: set-up, measured passes, and their results.

    Timings are scaled by `clock`; the unscaled host seconds of the measured
    passes are printed too.
    """

    def __init__(self, workload, seconds, traced, tracer, clock):
        self.workload = workload
        self.seconds = seconds
        self.traced = traced
        self.tracer = tracer
        self.clock = clock
        self.setup_s = []
        self.setup = None
        self.regressions = []
        self.span_speed = []     # scale factor of each recorded span

    def _scale(self):
        """Scale factor for the work timed since the previous calibration."""
        f = self.clock.scale()
        self.span_speed += [f] * (len(self.tracer.spans) - len(self.span_speed))
        return f

    def layers(self, on):
        """Spans around the layer calls harness makes, if `on`."""
        from workloads import harness_spans

        return harness_spans(self.tracer) if on else nullcontext()

    def do_setup(self, min_repeats, min_s):
        """Set up at least `min_repeats` times, and until `min_s` host seconds
        have passed."""
        self.tracer.phase = "setup"
        start = perf_counter()
        while len(self.setup_s) < min_repeats or perf_counter() - start < min_s:
            self.tracer.enabled = self.traced
            t0 = perf_counter()
            with self.layers(self.traced):
                self.setup = self.workload.setup(self.tracer)
            with self.tracer.span("gc.collect"):
                gc.collect()
            took = perf_counter() - t0
            self.tracer.enabled = False
            self.setup_s.append(took * self._scale())
        # The collector need not scan the set-up's inputs (replay holds ~600k
        # records) again and again while items run.
        gc.freeze()
        self.setup_regressions = [u for u in self.setup.units if u.regression]

    def measure(self):
        tracer = self.tracer
        tracer.phase = "measure"
        n = len(self.workload.items)
        self.plain = [[] for _ in range(n)]
        self.with_spans = [[] for _ in range(n)]
        self.host = [[] for _ in range(n)]
        self.counters = [Counter() for _ in range(n)]
        self.kernel_counts = [None] * n
        self.first = [None] * n
        self.units = 0
        self.raised = set()
        self.nondeterministic = set()
        min_passes = 2 if self.traced else 1
        start = perf_counter()
        p = 0
        while True:
            for i in range(n):
                if p >= min_passes and perf_counter() - start >= self.seconds:
                    return
                on = self.traced and (i + p) % 2 == 0
                tracer.enabled = on
                tracer.item = i
                t0 = perf_counter()
                try:
                    with self.layers(on), tracer.span("item"):
                        outputs = self.workload.run(i, tracer)
                        # the item's garbage is collected inside the timed region
                        with tracer.span("gc.collect"):
                            gc.collect()
                    took = perf_counter() - t0
                    tracer.enabled = False
                    res = self.workload.check(i, outputs)
                except Exception:
                    from workloads import Unit

                    tracer.enabled = False
                    traceback.print_exc()
                    self.units += 1
                    self.raised.add(i)
                    self.regressions.append(Unit(f"item {i}", False, ["raised"], True))
                    continue
                del outputs
                (self.with_spans if on else self.plain)[i].append(took * self._scale())
                if on and self.kernel_counts[i] is None:
                    self.kernel_counts[i] = self.workload.count(i)
                    gc.collect()  # so that no timed item collects the counting run's garbage
                if on:
                    self.counters[i].update(res.counters)
                else:
                    self.host[i].append(took)
                self.units += len(res.units)
                self.regressions += [u for u in res.units if u.regression]
                if self.first[i] is None:
                    self.first[i] = res
                elif signature(res) != signature(self.first[i]):
                    self.nondeterministic.add(i)
            p += 1

    def end_to_end(self, import_s):
        done = [r for r in self.first if r is not None]
        units = [u for r in done for u in r.units]
        never_done = [i for i in self.raised if self.first[i] is None]
        wall = median_sum(self.plain) if not self.traced else mean_sum(self.plain)
        m = {
            "wall_s": (wall, "s"),
            "sim_s_per_s": (sum(r.sim_s for r in done) / wall if wall else 0.0, "s/s"),
            "setup_s": (import_s + statistics.median(self.setup_s), "s"),
            "wall_host_s": (median_sum(self.host), "s"),
            "host_speed": (statistics.median(self.clock.factors), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "label_agree_frac": (frac(sum(u.agrees for u in units), len(units)), "frac"),
            # per pass: an item that never completed counts as one failed output
            "fail_frac": (frac(sum(1 for u in units if u.fails) + len(never_done),
                               len(units) + len(never_done)), "frac"),
        }
        levels = sorted({u.level for u in units if u.level})
        for level in levels:
            at = [u for u in units if u.level == level]
            m[f"analysis.agree_frac.{level}"] = (frac(sum(u.agrees for u in at), len(at)), "frac")
        matched = sum(r.exact[0] for r in done) + self.setup.exact[0]
        compared = sum(r.exact[1] for r in done) + self.setup.exact[1]
        if compared:
            m["harness.artifact_exact_frac"] = (frac(matched, compared), "frac")
        return m

    def per_layer(self, self_s):
        """Per pass in the measured phase; per set-up for layers only set-up reaches."""
        labels = self.workload.labels
        measured, setup = defaultdict(float), defaultdict(float)
        for span, own, f in zip(self.tracer.spans, self_s, self.span_speed):
            own *= f
            name = span_metric(span.name)
            if span.phase == "measure":
                share = own / max(1, len(self.with_spans[span.item]))
                measured[name] += share
                if span.name == "session.run":
                    measured[f"{name}.{labels[span.item]}"] += share
            else:
                share = own / len(self.setup_s)
                setup[name] += share
                if span.name == "session.run" and span.item is not None:
                    setup[f"{name}.{labels[span.item]}"] += share
        counts = Counter()
        for i, c in enumerate(self.counters):
            for k, v in c.items():
                counts[k] += v / max(1, len(self.with_spans[i]))
            counts.update(self.kernel_counts[i] or {})
        for k, v in self.setup.counters.items():
            if k not in counts:
                counts[k] = v
        times = dict(setup)
        times.update(measured)
        m = {k: (v, "s") for k, v in times.items()}
        units = {"radio.charge_mAs": "mAs", "session.unbilled_bytes": "bytes"}
        m.update({
            k: (int(v) if float(v).is_integer() else v, units.get(k, "count"))
            for k, v in counts.items()
        })
        events = counts.get("kernel.events", 0)
        m["kernel.idle_frac"] = (frac(counts.get("kernel.idle_events", 0), events), "frac")
        session_s = measured.get("session.run_s", setup.get("session.run_s", 0.0))
        m["session.us_per_event"] = (1e6 * session_s / events if events else 0.0, "us")
        traced_wall = mean_sum(self.with_spans)
        m["trace.wall_s"] = (traced_wall, "s")
        # what the layers account for; the rest of the traced pass is bench.self_s
        m["trace.self_total_s"] = (sum(
            v for k, v in measured.items()
            if k != "bench.self_s" and not k.startswith("session.run_s.")
        ), "s")
        m["trace.overhead_s"] = (traced_wall - mean_sum(self.plain), "s")
        return m


def frac(a, b):
    return a / b if b else 0.0


def signature(res):
    return res.sim_s, [(u.key, u.agrees, tuple(u.fails)) for u in res.units]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("grid", "replay", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    clock = Clock()
    import_s = import_streamsim(IMPORT_REPEATS, clock)
    from spans import Tracer, self_times
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh)

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    tracer = Tracer()
    try:
        run = Run(WORKLOADS[args.workload](args.seed, reference, work_dir),
                  args.seconds, bool(args.trace), tracer, clock)
        run.do_setup(SETUP_REPEATS, SETUP_MIN_S)
        run.measure()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = run.end_to_end(import_s)
    if args.trace:
        metrics.update(run.per_layer(self_times(tracer.spans)))
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:36s} {value:.6g} {unit}")
    for u in run.setup_regressions + run.regressions:
        print(f"FAIL {u.key}: {'; '.join(u.fails)}", file=sys.stderr)
    for i in sorted(run.nondeterministic):
        print(f"FAIL item {i}: outputs differ between passes", file=sys.stderr)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: declared metrics not measured: {missing}")
    failed = len(run.regressions)
    result = {
        "correct": not (failed or run.setup_regressions or run.nondeterministic),
        "attempted": run.units,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
