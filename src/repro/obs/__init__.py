"""Deterministic-safe observability: metrics, spans, exporters.

The simulation side (metrics registry, span tracer) runs entirely on
virtual time, so telemetry is a pure function of the run's seed —
two runs with the same seed export byte-identical JSONL.  Wall-clock
cost is measured from outside by ``perfbench/``, never in here.  See
``docs/OBSERVABILITY.md`` for the metric naming scheme, the span
taxonomy, and the exporter formats.
"""
