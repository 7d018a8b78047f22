"""OBS003 — telemetry emission in hot code must go through the ring sink."""

from pathlib import Path

from repro.analysis import Engine, check_source
from repro.analysis.flow.hot import HOT_ROOTS, chain_label, hot_closure

REPO_ROOT = Path(__file__).resolve().parents[2]


def _check(src):
    return check_source(
        src, module="repro.simcore.node", project=True, select=["OBS003"]
    )


def test_direct_trace_emit_in_hot_function():
    src = """\
class Node:
    def on_event(self, t):  # repro: hot
        self.trace.emit(t, "node", "tick")
"""
    findings = _check(src)
    assert [f.rule for f in findings] == ["OBS003"]
    assert "direct TraceLog write" in findings[0].message
    assert "telemetry.emit" in findings[0].message


def test_direct_trace_append_in_hot_function():
    src = """\
class Node:
    def on_event(self, record):  # repro: hot
        self._trace.append(record)
"""
    findings = _check(src)
    assert [f.rule for f in findings] == ["OBS003"]


def test_per_event_registry_resolution_in_hot_function():
    src = """\
class Node:
    def on_event(self):  # repro: hot
        self.metrics.counter("node_ticks_total").inc()
"""
    findings = _check(src)
    assert [f.rule for f in findings] == ["OBS003"]
    assert "registry resolution" in findings[0].message
    assert "telemetry.count" in findings[0].message


def test_sanctioned_telemetry_paths_are_silent():
    src = """\
class Node:
    def on_event(self, t):  # repro: hot
        self.telemetry.emit(t, "node", "tick")
        self.telemetry.count("node_ticks_total")
        self._hist.observe(1.0)
        self._ticks.inc()
"""
    assert _check(src) == []


def test_cold_function_is_silent():
    src = """\
class Node:
    def report(self, t):
        self.trace.emit(t, "node", "summary")
"""
    assert _check(src) == []


def test_finding_carries_witness_chain_and_endpoint():
    src = """\
def step(node, t):  # repro: hot
    emit_tick(node, t)


def emit_tick(node, t):
    node.trace.emit(t, "node", "tick")
"""
    findings = _check(src)
    assert [f.rule for f in findings] == ["OBS003"]
    assert "hot via" in findings[0].message
    assert findings[0].endpoint.endswith("::step")


def test_finding_in_root_itself_has_no_endpoint():
    src = """\
def step(node, t):  # repro: hot
    node.trace.emit(t, "node", "tick")
"""
    findings = _check(src)
    assert [f.rule for f in findings] == ["OBS003"]
    assert findings[0].endpoint == ""


def test_noqa_suppresses():
    src = """\
class Node:
    def on_event(self, t):  # repro: hot
        self.trace.emit(t, "node", "tick")  # repro: noqa[OBS003]
"""
    assert _check(src) == []


def test_real_tree_is_clean():
    # The actual hot closure routes every emission through the ring
    # sink; any regression shows up here before it shows up in the
    # perfbench obs.overhead_ratio row.
    result = Engine(select=["OBS003"]).check_paths([REPO_ROOT / "src"])
    assert [f.message for f in result.findings] == []


def test_chain_label_caps_long_chains():
    chain = [f"m.f{i}" for i in range(8)]
    label = chain_label(chain)
    assert "..." in label
    assert chain[-1] in label
    assert chain[4] not in label


def test_hot_roots_resolve_in_shipped_source():
    """Every HOT_ROOTS entry must name a real function, or the list has
    drifted from the source and the OBS003 scope silently shrank."""
    result = Engine(select=["OBS003"]).check_paths([REPO_ROOT / "src"])
    assert result.project is not None
    missing = [r for r in HOT_ROOTS if r not in result.project.functions]
    assert missing == []

    closure = hot_closure(result.project)
    # The acceptance bar: the event loop and the wireless sampler are in
    # the hot closure, and the closure reaches beyond the roots.
    assert "repro.simcore.simulator.Simulator.run_until" in closure
    assert "repro.wireless.channel.WirelessChannel._step_once" in closure
    assert len(closure) > len(HOT_ROOTS)
    # Chains are witness paths: every chain starts at a root.
    roots = {full for full, chain in closure.items() if len(chain) == 1}
    for full, chain in closure.items():
        assert chain[0] in roots
        assert chain[-1] == full
