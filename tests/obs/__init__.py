"""Tests for the observability layer (records, spans, exporters)."""
