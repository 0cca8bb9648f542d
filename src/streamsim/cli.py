"""Command line front end: run scenarios, sweep abandonment points,
analyze trace CSVs, and validate the bundled scenario set."""

import argparse
import os
import sys

from .analysis import (
    estimate_fast_start,
    estimate_throttle_factor,
    find_rate_knee,
    classify,
)
from .harness import (
    audit,
    emit_report,
    expected_label,
    run_scenario,
    sweep_watched_fraction,
    write_sweep_csv,
)
from .scenario import (
    ScenarioError,
    builtin_scenario_names,
    load_builtin,
    load_scenario,
)
from .session import DeadlockError
from .transport import read_timeline_csv


def _load(name_or_path):
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    return load_builtin(name_or_path)


def _cmd_run(args):
    sc = _load(args.scenario)
    report = run_scenario(sc, out_dir=args.out)
    sys.stdout.write(emit_report([report], fmt=args.format))
    problems = audit(report)
    for p in problems:
        print(f"audit: {p}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_sweep(args):
    sc = _load(args.scenario)
    fractions = []
    for item in args.fractions.split(","):
        if not item.strip():
            continue
        try:
            fractions.append(float(item))
        except ValueError:
            raise ScenarioError(f"--fractions: {item.strip()!r} is not a number") from None
    if not fractions:
        raise ScenarioError("no watched fractions given")
    reports = sweep_watched_fraction(sc, fractions)
    sys.stdout.write(emit_report(reports, fmt=args.format))
    if args.out:
        write_sweep_csv(reports, args.out)
    return 0


def _cmd_analyze(args):
    records = read_timeline_csv(args.trace)
    result = classify(records, args.rate, args.bandwidth)
    print(f"label       {result.label}")
    print(f"confidence  {result.confidence:.2f}")
    for key in sorted(result.evidence):
        value = result.evidence[key]
        if isinstance(value, float):
            value = f"{value:.3f}"
        print(f"  {key} = {value}")
    try:
        factor = estimate_throttle_factor(records, args.rate)
        print(f"steady throughput / encoding rate = {factor:.3f}")
    except ValueError as exc:
        print(f"steady-rate estimate unavailable: {exc}")
    try:
        fs = estimate_fast_start(records, args.rate)
        print(
            f"initial burst: {fs.nbytes} bytes by t={fs.end_time:.2f}s"
            f" (~{fs.media_s:.1f}s of media)"
        )
    except ValueError as exc:
        print(f"initial-burst estimate unavailable: {exc}")
    knee = find_rate_knee(records)
    if knee is not None:
        print(f"rate knee at t={knee:.2f}s")
    return 0


def _cmd_validate(args):
    names = args.scenarios or builtin_scenario_names()
    failures = 0
    for name in names:
        try:
            sc = _load(name)
            report = run_scenario(sc)
        except (ValueError, DeadlockError) as exc:  # ScenarioError is a ValueError
            print(f"FAIL  {name}: {exc}")
            failures += 1
            continue
        problems = audit(report)
        if not report.classifier_agrees:
            problems.append(
                f"classified as {report.classification.label}, "
                f"expected {expected_label(report.scenario.technique)}"
            )
        if problems:
            failures += 1
            print(f"FAIL  {name}: " + "; ".join(problems))
        else:
            print(
                f"ok    {name}: {report.classification.label}"
                f" conf={report.classification.confidence:.2f}"
                f" avg={report.energy.avg_total_mA:.1f}mA"
            )
    if failures:
        print(f"{failures} of {len(names)} scenarios failed")
    return 1 if failures else 0


def _cmd_list(args):
    for name in builtin_scenario_names():
        print(name)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamsim",
        description="Simulate mobile video delivery techniques and their radio energy cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate one scenario and print its report")
    p.add_argument("scenario", help="scenario .ini path or builtin scenario name")
    p.add_argument("--out", metavar="DIR", help="also write timeline/radio/buffer CSVs here")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="rerun a scenario at several abandonment points")
    p.add_argument("scenario")
    p.add_argument("--fractions", default="0.1,0.2,0.4,0.6,0.8,1.0",
                   help="comma-separated watched fractions in (0, 1]")
    p.add_argument("--out", metavar="FILE", help="write a sweep CSV here")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="classify a packet timeline CSV")
    p.add_argument("trace", help="timeline CSV as written by run --out")
    p.add_argument("--rate", type=float, required=True,
                   help="average encoding rate of the video, bits/s")
    p.add_argument("--bandwidth", type=float, required=True,
                   help="path bandwidth during capture, bits/s")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("validate", help="run scenarios end to end and self-check")
    p.add_argument("scenarios", nargs="*", help="default: every builtin scenario")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("list", help="print the builtin scenario names")
    p.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, DeadlockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
