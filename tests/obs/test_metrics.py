"""Metrics registry: counters, gauges, histograms, snapshots."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_accumulates_and_rejects_decrease():
    c = Counter("requests_total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_add_and_update_count():
    g = Gauge("drift_ppm")
    g.set(12.5)
    g.add(-2.5)
    assert g.value == 10.0
    assert g.updates == 2


def test_invalid_metric_name_rejected():
    with pytest.raises(ValueError):
        Counter("bad name")
    with pytest.raises(ValueError):
        Counter("0starts_with_digit")


def test_histogram_buckets_and_cumulative_counts():
    h = Histogram("residual_ms", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 0.9, 5.0, 50.0, 5000.0):
        h.observe(value)
    assert h.count == 5
    assert h.sum == pytest.approx(5056.4)
    # Per-bucket: <=1 twice, <=10 once, <=100 once, +Inf once.
    assert h.bucket_counts == [2, 1, 1, 1]
    assert h.cumulative_counts() == [2, 3, 4, 5]


def test_histogram_requires_a_bucket():
    with pytest.raises(ValueError):
        Histogram("empty", buckets=())


def test_registry_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    a = reg.counter("x_total")
    b = reg.counter("x_total")
    assert a is b
    assert len(reg) == 1
    assert "x_total" in reg


def test_registry_type_clash_is_an_error():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")


def test_registry_value_and_names():
    reg = MetricsRegistry()
    reg.counter("b_total").inc(3)
    reg.gauge("a_gauge").set(7)
    assert reg.value("b_total") == 3.0
    assert reg.value("missing", default=-1.0) == -1.0
    assert reg.names() == ["a_gauge", "b_total"]


def test_snapshot_is_sorted_and_serialisable():
    import json

    reg = MetricsRegistry()
    reg.counter("z_total", help="last").inc()
    reg.histogram("a_ms", buckets=(1.0,)).observe(0.5)
    snap = reg.snapshot()
    assert [m["name"] for m in snap] == ["a_ms", "z_total"]
    json.dumps(snap)  # must not raise
