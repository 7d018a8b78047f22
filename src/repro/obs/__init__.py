"""Deterministic-safe observability: trace records, spans, exporters.

The simulation side (trace log, span tracer) runs entirely on virtual
time, so telemetry is a pure function of the run's seed — two runs
with the same seed export byte-identical JSONL.  Wall-clock cost is
measured from outside by ``perfbench/``, never in here.  See
``docs/OBSERVABILITY.md`` for the span taxonomy, where each count
lives, and the exporter formats.
"""
