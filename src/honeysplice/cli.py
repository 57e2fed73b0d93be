"""Command line entry point.

    honeysplice run <scenario> [--seed N] [--reps N] [--out DIR]
    honeysplice summarize <trace-dir>
    honeysplice check <scenario> [--seed N] [--reps N]

<scenario> is a scenario file path or the name of a shipped scenario
(e1_redirect, e2_saturated, e3_copy_on_demand, e4_restore).

Exit codes: 0 success, 1 invariant violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    Scenario,
    builtin_scenario_path,
    export_run,
    load_scenario,
    read_attacker_csv,
    run_experiment,
    summarize,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _resolve_scenario(spec: str, seed, reps) -> Scenario:
    path = Path(spec)
    if not path.exists():
        builtin = builtin_scenario_path(spec)
        if builtin.exists():
            path = builtin
        else:
            raise ConfigError("scenario", f"no file or shipped scenario named {spec!r}")
    scenario = load_scenario(path)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    if reps is not None:
        scenario = replace(scenario, repetitions=reps)
    scenario.validate()
    return scenario


def _print_summary(summary) -> None:
    if summary.pre_mean is not None:
        print(f"pre-migration mean rtt : {summary.pre_mean:.1f} us")
    if summary.post_mean is not None:
        print(f"post-migration mean rtt: {summary.post_mean:.1f} us")
    if summary.ratio is not None:
        print(f"post/pre ratio         : {summary.ratio:.4f}")
    rtts = [s.mean for s in summary.per_index]
    if rtts:
        print(f"per-index mean rtt     : min {min(rtts):.1f} us, "
              f"max {max(rtts):.1f} us over {len(rtts)} indices")


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed, args.reps)
    out_dir = Path(args.out or f"out/{scenario.name}")
    try:  # before any repetition runs: a path that cannot hold the exports
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory {out_dir}: {exc}") from None
    print(f"running {scenario.name}: {scenario.repetitions} repetition(s), "
          f"seed {scenario.seed}")
    traces = run_experiment(scenario, strict=False)
    summary = summarize(traces, scenario.trigger_index)
    files = export_run(scenario, traces, out_dir, summary)
    _print_summary(summary)
    print(f"wrote {files['attacker']}")
    print(f"wrote {files['controller']}")
    print(f"wrote {files['summary']}")
    # every repetition ran and was exported, so a failing run leaves its
    # traces to inspect
    violations = [f"invariant violation: {scenario.name} rep {trace.rep}: {v}"
                  for trace in traces for v in trace.violations]
    if violations:
        print("\n".join(violations), file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_summarize(args) -> int:
    trace_dir = Path(args.trace_dir)
    csv_path = trace_dir / "attacker_trace.csv"
    if not csv_path.exists():
        raise ConfigError("trace-dir", f"no attacker_trace.csv under {trace_dir}")
    trigger = None
    meta_path = trace_dir / "meta.json"
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError("trace-dir", f"meta.json is not JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise ConfigError("trace-dir", "meta.json is not a JSON object")
        trigger = meta.get("trigger_index")
        # bool is an int subclass, but true/false is no packet index
        if trigger is not None and type(trigger) is not int:
            raise ConfigError("trace-dir", "meta.json trigger_index must be an "
                                           f"integer or null, not {trigger!r}")
    try:
        traces = read_attacker_csv(csv_path)
    except KeyError as exc:
        raise ConfigError("trace-dir", f"attacker_trace.csv has no column {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("trace-dir", f"attacker_trace.csv: {exc}") from exc
    if not traces:
        raise ConfigError("trace-dir", "attacker_trace.csv holds no records")
    summary = summarize(traces, trigger)
    write_summary_csv(summary, trace_dir / "summary.csv")
    _print_summary(summary)
    print(f"wrote {trace_dir / 'summary.csv'}")
    return EXIT_OK


def cmd_check(args) -> int:
    scenario = _resolve_scenario(args.scenario, args.seed, args.reps)
    print(f"stealth check {scenario.name}: {scenario.repetitions} repetition(s)")
    failures = 0
    for trace in run_experiment(scenario, strict=False):
        for v in trace.violations:
            print(f"rep {trace.rep}: VIOLATION {v}")
            failures += 1
    if failures:
        print(f"FAIL: {failures} violation(s)")
        return EXIT_VIOLATION
    print("OK: no stealth violations")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="honeysplice",
        description="Deterministic simulator for stealthy TCP redirection "
                    "to on-demand honey servers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and export trace CSVs")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate an exported trace directory")
    p_sum.add_argument("trace_dir")
    p_sum.set_defaults(fn=cmd_summarize)

    p_chk = sub.add_parser("check", help="run the stealth suite only (exit 0/1)")
    p_chk.add_argument("scenario")
    p_chk.add_argument("--seed", type=int, default=None)
    p_chk.add_argument("--reps", type=int, default=None)
    p_chk.set_defaults(fn=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
