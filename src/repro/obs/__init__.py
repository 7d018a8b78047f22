"""Deterministic-safe observability: metrics, spans, exporters.

The simulation side (metrics registry, span tracer) runs entirely on
virtual time, so telemetry is a pure function of the run's seed —
two runs with the same seed export byte-identical JSONL.  Wall-clock
cost is measured from outside by ``perfbench/``, never in here.  See
``docs/OBSERVABILITY.md`` for the metric naming scheme, the span
taxonomy, and the exporter formats.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SPAN_COMPONENT",
    "Span",
    "SpanTracer",
    "TELEMETRY_FORMAT",
    "ManualClock",
    "Telemetry",
    "snapshot_metric_names",
    "snapshot_span_kinds",
    "chrome_trace_events",
    "jsonl_lines",
    "load_jsonl",
    "render_prometheus",
    "write_chrome_trace",
    "write_jsonl",
    "METRIC_UNIT_SUFFIXES",
    "SPAN_KINDS",
    "SPAN_SUBSYSTEMS",
    "metric_name_conforms",
    "span_kind_registered",
    "span_subsystem",
    "Exchange",
    "Hop",
    "InterferenceEpisode",
    "Turnaround",
    "assemble_exchanges",
    "completeness",
    "CAUSES",
    "EXPLAIN_FORMAT",
    "Decomposition",
    "ExplainReport",
    "WindowAgg",
    "decompose",
    "explain_run",
    "render_tree",
    "HEALTH_FORMAT",
    "HEALTH_STATES",
    "HealthMonitor",
    "SloSpec",
    "judge_health",
    "recovered_transitions",
    "render_health_text",
    "smoke_spec",
]

# Re-exports resolve on first use: a simulation needs only the metrics,
# spans and telemetry bundle, never the exporters or the offline
# explain/health analyses.
_HOMES = {
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.spans": ("SPAN_COMPONENT", "Span", "SpanTracer"),
    "repro.obs.telemetry": (
        "TELEMETRY_FORMAT",
        "ManualClock",
        "Telemetry",
        "snapshot_metric_names",
        "snapshot_span_kinds",
    ),
    "repro.obs.exporters": (
        "chrome_trace_events",
        "jsonl_lines",
        "load_jsonl",
        "render_prometheus",
        "write_chrome_trace",
        "write_jsonl",
    ),
    "repro.obs.taxonomy": (
        "METRIC_UNIT_SUFFIXES",
        "SPAN_KINDS",
        "SPAN_SUBSYSTEMS",
        "metric_name_conforms",
        "span_kind_registered",
        "span_subsystem",
    ),
    "repro.obs.causal": (
        "Exchange",
        "Hop",
        "InterferenceEpisode",
        "Turnaround",
        "assemble_exchanges",
        "completeness",
    ),
    "repro.obs.explain": (
        "CAUSES",
        "EXPLAIN_FORMAT",
        "Decomposition",
        "ExplainReport",
        "WindowAgg",
        "decompose",
        "explain_run",
        "render_tree",
    ),
    "repro.obs.health": (
        "HEALTH_FORMAT",
        "HEALTH_STATES",
        "HealthMonitor",
        "SloSpec",
        "judge_health",
        "recovered_transitions",
        "render_health_text",
        "smoke_spec",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _HOMES)
