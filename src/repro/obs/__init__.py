"""Deterministic-safe observability: metrics, spans, exporters.

The simulation side (metrics registry, span tracer) runs entirely on
virtual time, so telemetry is a pure function of the run's seed —
two runs with the same seed export byte-identical JSONL.  Wall-clock
cost is measured from outside by ``perfbench/``, never in here.  See
``docs/OBSERVABILITY.md`` for the metric naming scheme, the span
taxonomy, and the exporter formats.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import SPAN_COMPONENT, Span, SpanTracer
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    ManualClock,
    Telemetry,
    snapshot_metric_names,
    snapshot_span_kinds,
)
from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    load_jsonl,
    render_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.taxonomy import (
    METRIC_UNIT_SUFFIXES,
    SPAN_KINDS,
    SPAN_SUBSYSTEMS,
    metric_name_conforms,
    span_kind_registered,
    span_subsystem,
)
from repro.obs.causal import (
    Exchange,
    Hop,
    InterferenceEpisode,
    Turnaround,
    assemble_exchanges,
    completeness,
)
from repro.obs.explain import (
    CAUSES,
    EXPLAIN_FORMAT,
    Decomposition,
    ExplainReport,
    WindowAgg,
    decompose,
    explain_run,
    render_tree,
)
from repro.obs.health import (
    HEALTH_FORMAT,
    HEALTH_STATES,
    HealthMonitor,
    SloSpec,
    judge_health,
    recovered_transitions,
    render_health_text,
    smoke_spec,
)

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
