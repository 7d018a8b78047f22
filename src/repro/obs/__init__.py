"""Deterministic-safe observability: metrics, spans, exporters.

The simulation side (metrics registry, span tracer) runs entirely on
virtual time, so telemetry is a pure function of the run's seed —
two runs with the same seed export byte-identical JSONL.  Wall-clock
cost is measured from outside by ``perfbench/``, never in here.  See
``docs/OBSERVABILITY.md`` for the metric naming scheme, the span
taxonomy, and the exporter formats.
"""

from repro.obs.merge import (
    SHARD_FORMAT,
    content_id,
    iter_merged_records,
    make_shard,
    merge_documents,
    write_merged_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.ringbuf import DEFAULT_RING_CAPACITY, RingBufferSink
from repro.obs.sampling import (
    DEFAULT_EXEMPLARS,
    ERROR_KINDS,
    Reservoir,
    TraceSampler,
    stable_hash,
)
from repro.obs.spans import SPAN_COMPONENT, Span, SpanTracer
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    ManualClock,
    Telemetry,
    record_from_dict,
    record_to_dict,
    snapshot_metric_names,
    snapshot_span_kinds,
)
from repro.obs.exporters import (
    chrome_trace_events,
    jsonl_lines,
    load_jsonl,
    render_prometheus,
    stream_jsonl,
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
    recovered_transitions,
    render_health_text,
    replay_health,
    smoke_spec,
)
from repro.obs.diff import (
    DIFF_FORMAT,
    coerce_snapshot,
    diff_snapshots,
    rank_suspects,
    render_diff_text,
)

__all__ = [
    "Counter",
    "DEFAULT_EXEMPLARS",
    "DEFAULT_RING_CAPACITY",
    "ERROR_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "RingBufferSink",
    "SHARD_FORMAT",
    "SPAN_COMPONENT",
    "Span",
    "SpanTracer",
    "TraceSampler",
    "content_id",
    "iter_merged_records",
    "make_shard",
    "merge_documents",
    "stable_hash",
    "stream_jsonl",
    "write_merged_jsonl",
    "TELEMETRY_FORMAT",
    "ManualClock",
    "Telemetry",
    "record_from_dict",
    "record_to_dict",
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
    "recovered_transitions",
    "render_health_text",
    "replay_health",
    "smoke_spec",
    "DIFF_FORMAT",
    "coerce_snapshot",
    "diff_snapshots",
    "rank_suspects",
    "render_diff_text",
]
