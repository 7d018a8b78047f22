"""OBS001 (bare print) and OBS002 (telemetry taxonomy) rules."""

from repro.analysis.engine import check_source


def rules_for(src, module):
    # The fire-and-forget `spans.begin(...)` fixtures below also trip
    # the RES001 typestate rule by design; this file is about OBS.
    return sorted({
        f.rule for f in check_source(src, module=module)
        if f.rule.startswith("OBS")
    })


PRINTING = "def f():\n    print('hello')\n"


def test_print_flagged_in_library_package():
    assert rules_for(PRINTING, "repro.core.protocol") == ["OBS001"]
    assert rules_for(PRINTING, "repro.testbed.experiment") == ["OBS001"]
    assert rules_for(PRINTING, "repro.obs.spans") == ["OBS001"]


def test_print_allowed_in_cli_analysis_reporting():
    assert rules_for(PRINTING, "repro.cli") == []
    assert rules_for(PRINTING, "repro.analysis.cli") == []
    assert rules_for(PRINTING, "repro.reporting.tables") == []


def test_print_allowed_outside_repro():
    assert rules_for(PRINTING, "scratch") == []
    assert rules_for(PRINTING, "scripts.bench") == []


def test_noqa_suppresses_obs001():
    src = "def f():\n    print('x')  # repro: noqa[OBS001] boot banner\n"
    assert rules_for(src, "repro.core.protocol") == []


def test_method_named_print_not_flagged():
    src = "def f(doc):\n    doc.print()\n"
    assert rules_for(src, "repro.core.protocol") == []


def test_message_names_the_module():
    findings = check_source(PRINTING, module="repro.wireless.channel")
    assert any("repro.wireless.channel" in f.message for f in findings)


# -- OBS002: span-kind taxonomy --------------------------------------------


def test_unregistered_span_kind_flagged():
    src = 'def f(sim):\n    sim.telemetry.spans.begin("mntp.mystery")\n'
    assert rules_for(src, "repro.core.protocol") == ["OBS002"]


def test_registered_span_kinds_pass():
    src = (
        "def f(sim):\n"
        '    sim.telemetry.spans.begin("sntp.exchange", trace_id="c/1")\n'
        '    with sim.telemetry.spans.span("tuner.tune"):\n'
        "        pass\n"
    )
    assert rules_for(src, "repro.tuner.autotune") == []


def test_dynamic_span_kind_skipped():
    src = "def f(sim, name):\n    sim.telemetry.spans.begin(name)\n"
    assert rules_for(src, "repro.core.protocol") == []
    src = 'def f(sim, k):\n    sim.telemetry.spans.begin(f"mntp.{k}")\n'
    assert rules_for(src, "repro.core.protocol") == []


def test_obs002_scoped_to_repro_modules():
    src = 'def f(sim):\n    sim.telemetry.spans.begin("mntp.mystery")\n'
    assert rules_for(src, "scratch") == []
    assert rules_for(src, "tests.obs.test_spans") == []


def test_obs002_ignores_unrelated_receivers():
    src = (
        "def f(db, spans):\n"
        '    db.begin("transaction")\n'
        '    spans.begin("not.registered")\n'
    )
    # Only the receiver actually named 'spans' is checked.
    findings = [
        f for f in check_source(src, module="repro.core.protocol")
        if f.rule.startswith("OBS")
    ]
    assert len(findings) == 1
    assert "not.registered" in findings[0].message


def test_noqa_suppresses_obs002():
    src = (
        "def f(sim):\n"
        '    sim.telemetry.spans.begin("x.y")  '
        "# repro: noqa[OBS002] migration shim\n"
    )
    assert rules_for(src, "repro.core.protocol") == []


# -- OBS004: SLO thresholds must be SloSpec fields ------------------------


HEALTH_IMPORT = "from repro.obs.health import HealthMonitor\n"


def obs004_for(src, module):
    # The import line itself may trip unrelated rules (e.g. COR004
    # unused-import in these minimal fixtures); isolate OBS004.
    return [f for f in check_source(src, module=module) if f.rule == "OBS004"]


def test_slo_literal_flagged_in_health_module():
    src = "def judge(p99_abs_error_ms):\n    return p99_abs_error_ms > 200.0\n"
    assert rules_for(src, "repro.obs.health") == ["OBS004"]


def test_slo_literal_flagged_in_health_importer():
    src = HEALTH_IMPORT + "def f(drop_rate_ratio):\n    return drop_rate_ratio >= 0.5\n"
    assert [f.rule for f in obs004_for(src, "repro.testbed.experiment")] == ["OBS004"]


def test_slo_literal_flagged_in_judge_importer():
    src = (
        "from repro.obs.health import judge_health\n"
        "def f(p99_abs_error_ms):\n    return p99_abs_error_ms > 25.0\n"
    )
    assert [f.rule for f in obs004_for(src, "repro.testbed.specs")] == ["OBS004"]


def test_obs004_out_of_scope_without_health_import():
    src = "def f(timeout_s):\n    return timeout_s > 30.0\n"
    assert obs004_for(src, "repro.net.link") == []
    assert obs004_for(HEALTH_IMPORT + src, "scripts.bench") == []


def test_obs004_exempts_structural_constants():
    src = HEALTH_IMPORT + (
        "def f(window_s, rate_per_s):\n"
        "    return window_s > 0 and rate_per_s >= 1 and window_s != -1\n"
    )
    assert obs004_for(src, "repro.obs.explain") == []


def test_obs004_spec_field_comparison_passes():
    src = HEALTH_IMPORT + (
        "def f(spec, p99_abs_error_ms):\n"
        "    return p99_abs_error_ms >= spec.p99_abs_error_violate_ms\n"
    )
    assert obs004_for(src, "repro.testbed.experiment") == []


def test_obs004_ignores_unsuffixed_names():
    src = HEALTH_IMPORT + "def f(count):\n    return count > 5\n"
    assert obs004_for(src, "repro.obs.health") == []


def test_obs004_negative_and_chained_literals():
    src = HEALTH_IMPORT + "def f(skew_ms):\n    return -50.0 < skew_ms < 50.0\n"
    findings = obs004_for(src, "repro.core.protocol")
    assert [f.rule for f in findings] == ["OBS004", "OBS004"]
    assert "'skew_ms'" in findings[0].message


def test_noqa_suppresses_obs004():
    src = HEALTH_IMPORT + (
        "def f(age_s):\n"
        "    return age_s > 3.5  # repro: noqa[OBS004] parser sentinel\n"
    )
    assert obs004_for(src, "repro.obs.health") == []
