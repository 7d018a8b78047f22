"""Command-line interface.

Exposes the main experiment flows without writing code::

    repro-mntp scenarios                     # list scenarios/*.json
    repro-mntp run mntp_wireless_corrected   # run one scenario
    repro-mntp pcap traces/ --servers AG1    # §3.1 synthetic server pcaps
    repro-mntp log-trace trace.jsonl         # log a tuner trace
    repro-mntp autotune --target-ms 8        # self-tuning pass
    repro-mntp run X --save run.json         # archive a run
    repro-mntp run X --telemetry out.jsonl   # export run telemetry
    repro-mntp replay run.json               # summarise an archived run
    repro-mntp trace run.json                # inspect archived telemetry
    repro-mntp explain run.json --worst 5    # root-cause offset errors
    repro-mntp matrix scenarios --smoke      # spec-file guarantee matrix
    repro-mntp lint src                      # domain static analysis

Summaries print as tables by default; ``--json`` on ``run`` and
``replay`` emits machine-readable JSON instead.  The paper's figures and
tables are the benches under ``benchmarks/``; no command recomputes one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

# The parser needs the scenario list, which the catalog reads without
# loading any model code.  Each subcommand imports the rest from its home
# module, so a process loads only the code its subcommand runs.
from repro.testbed.catalog import scenario_names


def _positive_float(text: str) -> float:
    """Argparse type: a finite float > 0 (rejects nan, inf, 0, negatives)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number: {text!r}"
        )
    return value


def _non_negative_int(text: str) -> int:
    """Argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer: {text!r}"
        )
    return value


def _build_parser() -> Tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``repro-mntp`` parser and its ``lint`` subparser (no options yet)."""
    parser = argparse.ArgumentParser(
        prog="repro-mntp",
        description="Reproduction of 'MNTP: Enhancing Time Synchronization "
        "for Mobile Devices' (IMC 2016).",
    )
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios",
                   help="list the scenario specs under scenarios/")

    run = sub.add_parser("run", help="run one named scenario")
    run.add_argument("scenario", choices=scenario_names())
    run.add_argument("--save", metavar="PATH",
                     help="archive the result and the scenario's "
                     "guarantees as JSON")
    run.add_argument("--telemetry", metavar="PATH",
                     help="export the run's telemetry as JSONL")
    run.add_argument("--json", action="store_true",
                     help="print the summary as JSON instead of tables")
    run.add_argument("--watch", action="store_true",
                     help="judge the run after it finishes and print one "
                     "line per periodic SLO evaluation")
    run.add_argument("--slo", metavar="PATH", default=None,
                     help="SloSpec JSON to judge the run against after it "
                     "finishes (the scenario's guarantees otherwise; the "
                     "verdict lands in the summary and a violated run "
                     "exits 1)")

    replay = sub.add_parser("replay", help="summarise an archived run")
    replay.add_argument("path", help="JSON file written by 'run --save'")
    replay.add_argument("--json", action="store_true",
                        help="print the summary as JSON instead of tables")

    trace = sub.add_parser(
        "trace", help="inspect the telemetry of an archived run"
    )
    trace.add_argument("path", help="JSON file written by 'run --save'")
    trace.add_argument("--chrome", metavar="PATH",
                       help="export as Chrome trace-event JSON "
                       "(chrome://tracing / Perfetto)")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="re-export the telemetry as JSONL")
    trace.add_argument("--component", help="show only this component")
    trace.add_argument("--kind", help="show only this record kind")
    trace.add_argument("--limit", type=_non_negative_int, default=20,
                       help="max records to print (default 20)")

    explain = sub.add_parser(
        "explain",
        help="root-cause each offset error of an archived run (causal "
        "trees from the telemetry trace)",
    )
    explain.add_argument("path", help="JSON file written by 'run --save'")
    explain.add_argument("--worst", type=_non_negative_int, default=5,
                         help="how many worst samples to list (default 5)")
    explain.add_argument("--trace-id", dest="trace_id", metavar="ID",
                         help="print one exchange's causal tree instead")
    explain.add_argument("--window", type=_positive_float, default=300.0,
                         help="aggregation window in seconds (default 300)")
    explain.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of text")

    health = sub.add_parser(
        "health",
        help="judge an archived run against an SLO envelope and print "
        "the mntp-health-report-v1 verdict",
    )
    health.add_argument(
        "path", nargs="?", default=None,
        help="archived run (JSON written by 'run --save')",
    )
    health.add_argument("--slo", metavar="PATH", default=None,
                        help="SloSpec JSON with the thresholds to judge "
                        "against (the archived scenario guarantees "
                        "otherwise, defaults for an archive without them)")
    health.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")

    pcap = sub.add_parser(
        "pcap", help="write each server's synthetic §3.1 trace as a .pcap file"
    )
    pcap.add_argument("directory", help="directory for the <server>.pcap files")
    pcap.add_argument(
        "--servers", nargs="+", default=["AG1", "JW2", "SU1"],
        help="Table-1 server ids (default: the Figure-1 trio)",
    )
    pcap.add_argument(
        "--scale", type=float, default=3e-4,
        help="population subsampling factor",
    )

    log_trace = sub.add_parser(
        "log-trace", help="log a tuner trace on the testbed and save it"
    )
    log_trace.add_argument("path", help="file to write the trace to (JSONL)")
    log_trace.add_argument("--hours", type=_positive_float, default=4.0)

    autotune = sub.add_parser("autotune", help="self-tuning pass (§7)")
    autotune.add_argument("--hours", type=_positive_float, default=4.0)
    autotune.add_argument("--target-ms", type=_positive_float, default=10.0)
    autotune.add_argument("--budget-per-hour", type=_positive_float,
                          default=None)
    autotune.add_argument("--telemetry", metavar="PATH",
                          help="export tuning telemetry as JSONL")

    matrix = sub.add_parser(
        "matrix",
        help="execute a directory of scenario-spec JSON files across a "
        "worker pool and print the aggregated mntp-matrix-report-v1 "
        "verdict (see docs/SCENARIO_SPECS.md)",
    )
    matrix.add_argument("directory",
                        help="directory of ScenarioSpec JSON files "
                        "(e.g. scenarios/)")
    matrix.add_argument("--jobs", type=int, default=2,
                        help="worker processes running concurrently "
                        "(default 2; the report is byte-identical for "
                        "any value)")
    matrix.add_argument("--timeout-s", dest="timeout_s",
                        type=_positive_float,
                        default=600.0,
                        help="per-spec deadline in wall seconds; a hung "
                        "worker is terminated and its spec marked "
                        "timeout (default 600)")
    matrix.add_argument("--smoke", action="store_true",
                        help="only run specs tagged 'smoke' (the CI gate "
                        "tier)")
    matrix.add_argument("--save", metavar="PATH",
                        help="write the aggregated report JSON to a file")
    matrix.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of the "
                        "table")

    lint = sub.add_parser(
        "lint",
        help="run the repro static-analysis rules (determinism, time-unit "
        "safety); see docs/STATIC_ANALYSIS.md",
    )
    return parser, lint


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser, lint = _build_parser()
    if "lint" in argv:
        # Only a command line that can be a lint run imports the linter
        # for its options; every other subcommand starts without it.
        from repro.analysis.cli import add_lint_arguments

        add_lint_arguments(lint)
    args = parser.parse_args(argv)
    command = args.command
    if command == "scenarios":
        return _cmd_scenarios()
    if command == "run":
        return _cmd_run(args)
    if command == "replay":
        return _cmd_replay(args)
    if command == "trace":
        return _cmd_trace(args)
    if command == "explain":
        return _cmd_explain(args)
    if command == "health":
        return _cmd_health(args)
    if command == "pcap":
        return _cmd_pcap(args)
    if command == "log-trace":
        return _cmd_log_trace(args)
    if command == "autotune":
        return _cmd_autotune(args)
    if command == "matrix":
        return _cmd_matrix(args)
    if command == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args)
    return 2  # pragma: no cover - argparse enforces choices


def _cmd_scenarios() -> int:
    from repro.reporting.tables import render_table
    from repro.testbed.catalog import SCENARIO_DIR
    from repro.testbed.specs import load_spec_dir

    rows = [
        [spec.name, f"{spec.duration_s / 3600:.1f} h", spec.description]
        for spec in load_spec_dir(SCENARIO_DIR)
    ]
    print(render_table(["scenario", "duration", "description"], rows))
    return 0


def _cmd_run(args) -> int:
    from repro.obs.health import judge_health
    from repro.testbed.specs import load_scenario

    watch = getattr(args, "watch", False)
    slo = None
    if getattr(args, "slo", None):
        # --slo judges on its own; --watch only adds the per-evaluation
        # lines.
        slo = _load_slo_spec(args.slo)
        if slo is None:
            return 2
    try:
        spec = load_scenario(args.scenario)
        result = spec.build_runner(seed=args.seed).run()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    health = None
    if slo is not None or watch:
        health, rows = judge_health(
            result, spec.guarantees if slo is None else slo
        )
        if watch:
            for row in rows:
                _print_health_line(row)
    if getattr(args, "save", None):
        from repro.testbed.persistence import save_result

        with open(args.save, "w") as f:
            save_result(result, f, guarantees=spec.guarantees)
        print(f"result archived to {args.save}")
    if getattr(args, "telemetry", None):
        _write_telemetry(result.telemetry, args.telemetry)
    # A judged run that ends violated is a failed run: rc 1 so
    # scripted callers (and CI) see the verdict without parsing output.
    rc = 1 if health is not None and health["verdict"] == "violated" else 0
    if getattr(args, "json", False):
        summary = _summary_dict(result)
        if health is not None:
            summary["health"] = health
        print(json.dumps(summary, sort_keys=True, indent=2))
        return rc
    if health is not None:
        print(f"health verdict: {health['verdict']} "
              f"(final state: {health['state']})")
    _summarise(result)
    return rc


def _load_slo_spec(path: str):
    """Parse a SloSpec JSON file (None + stderr message on error)."""
    from repro.obs.health import SloSpec

    try:
        with open(path) as f:
            return SloSpec.from_json(f.read())
    except (OSError, ValueError) as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        return None


def _print_health_line(row: Dict[str, Any]) -> None:
    """One ``run --watch`` line per periodic SLO evaluation."""
    signals = row["signals"]

    def fmt(key: str, unit: str) -> str:
        value = signals.get(key)
        return "n/a" if value is None else f"{value:.2f}{unit}"

    fault = "  [fault window]" if row["in_fault_window"] else ""
    print(f"health t={row['t']:9.2f}  {row['state']:<9} "
          f"p99|err|={fmt('p99_abs_error_ms', 'ms')} "
          f"drop={fmt('drop_rate_ratio', '')} "
          f"starvation={fmt('starvation_s', 's')} "
          f"rate={fmt('exchange_rate_per_s', '/s')}{fault}")


def _load_archive(path: str):
    """``(result, archived guarantees)`` of a saved run.

    None, with a ``cannot load`` message on stderr, when the file is
    unreadable or malformed.
    """
    from repro.testbed.persistence import load_archive

    try:
        with open(path) as f:
            return load_archive(f)
    except (OSError, ValueError) as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        return None


def _cmd_replay(args) -> int:
    loaded = _load_archive(args.path)
    if loaded is None:
        return 2
    result = loaded[0]
    if getattr(args, "json", False):
        print(json.dumps(_summary_dict(result), sort_keys=True, indent=2))
        return 0
    return _summarise(result)


def _write_telemetry(snapshot, path: str) -> None:
    from repro.obs.exporters import write_jsonl

    if snapshot is None:
        print("no telemetry captured for this run", file=sys.stderr)
        return
    with open(path, "w") as f:
        lines = write_jsonl(snapshot, f)
    print(f"telemetry ({lines} lines) written to {path}")


def _stats_dict(stats) -> Dict[str, Any]:
    return {
        "count": stats.count,
        "mean_abs_ms": stats.mean_abs * 1000,
        "std_abs_ms": stats.std_abs * 1000,
        "max_abs_ms": stats.max_abs * 1000,
        "rmse_ms": stats.rmse * 1000,
    }


def _summary_dict(result) -> Dict[str, Any]:
    from repro.obs.telemetry import snapshot_span_kinds

    out: Dict[str, Any] = {
        "duration": result.duration,
        "sntp": _stats_dict(result.sntp_error_stats()),
        "sntp_failures": result.sntp_failures,
    }
    if result.mntp_reports:
        out["mntp"] = _stats_dict(result.mntp_error_stats())
        out["mntp_reports"] = len(result.mntp_reports)
        out["improvement_factor"] = result.improvement_factor()
    if result.telemetry is not None:
        out["telemetry"] = {
            "span_kinds": snapshot_span_kinds(result.telemetry),
            "record_count": len(result.telemetry["records"]),
        }
    return out


def _summarise(result) -> int:
    from repro.reporting.series import render_series
    from repro.reporting.tables import render_table

    sntp = result.sntp_error_stats()
    rows = [["SNTP", sntp.count, f"{sntp.mean_abs * 1000:.1f}",
             f"{sntp.max_abs * 1000:.1f}"]]
    if result.mntp_reports:
        mntp = result.mntp_error_stats()
        rows.append(["MNTP", mntp.count, f"{mntp.mean_abs * 1000:.1f}",
                     f"{mntp.max_abs * 1000:.1f}"])
    print(render_table(["series", "n", "mean |err| (ms)", "max (ms)"], rows))
    if result.sntp:
        print(render_series([p.offset for p in result.sntp], label="SNTP"))
    if result.mntp_reports:
        print(render_series(
            [p.offset for p in result.mntp_accepted()], label="MNTP"
        ))
        print(f"improvement: {result.improvement_factor():.1f}x")
    return 0


def _load_archived_telemetry(path: str):
    """Telemetry snapshot out of an archived run (None + message if absent)."""
    loaded = _load_archive(path)
    if loaded is None:
        return None
    result = loaded[0]
    if result.telemetry is None:
        print(f"{path} has no telemetry payload (saved by an older "
              "version?)", file=sys.stderr)
        return None
    return result.telemetry


def _cmd_trace(args) -> int:
    from repro.obs.exporters import write_chrome_trace, write_jsonl
    from repro.obs.spans import SPAN_COMPONENT
    from repro.reporting.tables import render_table

    snapshot = _load_archived_telemetry(args.path)
    if snapshot is None:
        return 2
    records = snapshot["records"]
    if getattr(args, "chrome", None):
        with open(args.chrome, "w") as f:
            n = write_chrome_trace(snapshot, f)
        print(f"chrome trace ({n} events) written to {args.chrome}")
    if getattr(args, "jsonl", None):
        with open(args.jsonl, "w") as f:
            n = write_jsonl(snapshot, f)
        print(f"telemetry ({n} lines) written to {args.jsonl}")

    spans = [r for r in records if r.component == SPAN_COMPONENT]
    durations: Dict[str, List[float]] = {}
    for s in spans:
        durations.setdefault(s.kind, []).append(float(s.data.get("dur", 0.0)))
    rows = [
        [kind, len(durs), f"{sum(durs):.1f}", f"{max(durs):.1f}"]
        for kind, durs in sorted(durations.items())
    ]
    print(render_table(["span", "n", "total (s, sim)", "max (s, sim)"], rows))

    shown = 0
    for r in records:
        if args.component and r.component != args.component:
            continue
        if args.kind and r.kind != args.kind:
            continue
        if shown >= args.limit:
            break
        data = " ".join(f"{k}={v}" for k, v in sorted(r.data.items()))
        print(f"t={r.time:.3f} {r.component}/{r.kind} {data}")
        shown += 1
    total = sum(
        1 for r in records
        if (not args.component or r.component == args.component)
        and (not args.kind or r.kind == args.kind)
    )
    if total > shown:
        print(f"... {total - shown} more records (raise --limit)")
    return 0


def _cmd_explain(args) -> int:
    from repro.obs.causal import assemble_exchanges
    from repro.obs.explain import decompose, explain_run, render_tree

    loaded = _load_archive(args.path)
    if loaded is None:
        return 2
    result = loaded[0]
    if result.telemetry is None:
        print(f"{args.path} has no telemetry payload (saved by an older "
              "version?)", file=sys.stderr)
        return 2
    samples = result.offset_samples()
    if getattr(args, "trace_id", None):
        matches = [
            e for e in assemble_exchanges(result.telemetry)
            if e.trace_id == args.trace_id
        ]
        if not matches:
            print(f"no exchange with trace id {args.trace_id!r}",
                  file=sys.stderr)
            return 1
        truths = {
            (p.time, p.offset): p.truth for p in samples if p.truth == p.truth
        }
        for exchange in matches:
            truth = (
                truths.get((exchange.t1, exchange.offset))
                if exchange.offset is not None else None
            )
            print(render_tree(exchange, decompose(exchange, truth)))
        return 0
    try:
        report = explain_run(
            result.telemetry, samples=samples, window_s=args.window
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(
            report.to_dict(worst_n=args.worst), sort_keys=True, indent=2
        ))
        return 0
    print(report.render_text(worst_n=args.worst))
    return 0


def _cmd_health(args) -> int:
    from repro.obs.health import judge_health, render_health_text

    spec = None
    if getattr(args, "slo", None):
        spec = _load_slo_spec(args.slo)
        if spec is None:
            return 2
    if args.path is None:
        print("give an archived run path (JSON written by 'run --save')",
              file=sys.stderr)
        return 2
    loaded = _load_archive(args.path)
    if loaded is None:
        return 2
    result, archived = loaded
    try:
        report, _rows = judge_health(
            result, archived if spec is None else spec
        )
    except ValueError as exc:
        print(f"cannot judge {args.path}: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_health_text(report))
    return 1 if report["verdict"] == "violated" else 0


def _cmd_pcap(args) -> int:
    from repro.logs.generator import GeneratorOptions, TraceGenerator
    from repro.logs.servers import TABLE1_SERVERS, server_by_id

    try:
        servers = [server_by_id(s) for s in args.servers]
    except KeyError as exc:
        known = ", ".join(s.server_id for s in TABLE1_SERVERS)
        print(f"unknown server {exc}; known: {known}", file=sys.stderr)
        return 2
    os.makedirs(args.directory, exist_ok=True)
    for server in servers:
        generator = TraceGenerator(
            server, seed=args.seed, options=GeneratorOptions(scale=args.scale),
        )
        path = os.path.join(args.directory, f"{server.server_id}.pcap")
        with open(path, "wb") as f:
            generator.generate(fileobj=f)
        print(f"wrote {path}")
    return 0


def _cmd_log_trace(args) -> int:
    from repro.tuner.logger import LoggerOptions, TraceLogger

    options = LoggerOptions(duration=args.hours * 3600.0)
    trace = TraceLogger(seed=args.seed, options=options).run()
    with open(args.path, "w") as f:
        trace.save(f)
    print(f"trace saved to {args.path}")
    return 0


def _cmd_matrix(args) -> int:
    from repro.testbed.matrix import (
        MatrixOptions,
        render_matrix_text,
        report_to_json,
        run_matrix,
    )

    if not os.path.isdir(args.directory):
        print(f"{args.directory} is not a directory", file=sys.stderr)
        return 2
    try:
        options = MatrixOptions(
            seed=args.seed,
            jobs=args.jobs,
            timeout_s=args.timeout_s,
            tags=("smoke",) if args.smoke else (),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_matrix(args.directory, options)
    if not report["specs"]:
        print(f"no scenario specs selected in {args.directory}",
              file=sys.stderr)
        return 2
    if getattr(args, "save", None):
        with open(args.save, "w") as f:
            f.write(report_to_json(report))
        if not args.json:
            print(f"matrix report written to {args.save}")
    if args.json:
        print(report_to_json(report), end="")
    else:
        print(render_matrix_text(report))
    return 0 if report["verdict"]["ok"] else 1


def _cmd_autotune(args) -> int:
    from repro.obs.telemetry import Telemetry
    from repro.reporting.tables import render_table
    from repro.tuner.autotune import AutoTuneOptions, AutoTuner
    from repro.tuner.logger import LoggerOptions, TraceLogger

    options = LoggerOptions(duration=args.hours * 3600.0)
    trace = TraceLogger(seed=args.seed, options=options).run()
    telemetry = (
        Telemetry.standalone() if getattr(args, "telemetry", None) else None
    )
    tuner = AutoTuner(
        options=AutoTuneOptions(
            target_rmse_ms=args.target_ms,
            max_requests_per_hour=args.budget_per_hour,
        ),
        telemetry=telemetry,
    )
    outcome = tuner.tune(trace)
    if telemetry is not None:
        _write_telemetry(telemetry.snapshot(), args.telemetry)
    if outcome.recommended is None:
        print("no viable configuration under the given constraints")
        return 1
    c = outcome.recommended
    status = "meets target" if outcome.met_target else "best affordable"
    print(f"recommended ({status}): warmup={c.warmup_period / 60:.0f}min "
          f"warmupWait={c.warmup_wait_time / 60:.3f}min "
          f"regularWait={c.regular_wait_time / 60:.0f}min "
          f"reset={c.reset_period / 60:.0f}min")
    rows = [
        [f"{r.config.warmup_period / 60:.0f}/{r.config.warmup_wait_time / 60:.2f}"
         f"/{r.config.regular_wait_time / 60:.0f}",
         r.requests, f"{r.rmse_ms:.2f}"]
        for r in outcome.pareto
    ]
    print(render_table(["pareto config (min)", "requests", "RMSE (ms)"], rows))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
