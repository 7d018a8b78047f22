"""ROB001 (bare except / degenerate waits) and ROB002 (hard-coded
guarantee thresholds in scenario code)."""

from repro.analysis.engine import check_source


def rules_for(src, module):
    return sorted({f.rule for f in check_source(src, module=module)})


BARE = "def f():\n    try:\n        g()\n    except:\n        pass\n"


def test_bare_except_flagged_in_library_code():
    assert "ROB001" in rules_for(BARE, "repro.core.protocol")
    assert "ROB001" in rules_for(BARE, "repro.ntp.sntp_client")
    # Unlike OBS001, the CLI and analysis layers are NOT exempt.
    assert "ROB001" in rules_for(BARE, "repro.cli")
    assert "ROB001" in rules_for(BARE, "repro.analysis.engine")


def test_bare_except_allowed_outside_repro():
    assert rules_for(BARE, "scripts.bench") == []
    assert rules_for(BARE, "scratch") == []


def test_named_except_passes():
    src = "def f():\n    try:\n        g()\n    except ValueError:\n        pass\n"
    assert rules_for(src, "repro.core.protocol") == []


def test_nonpositive_wait_literals_flagged():
    src = "def f(c):\n    c.query('s', cb, timeout=0)\n"
    assert rules_for(src, "repro.ntp.sntp_client") == ["ROB001"]
    src = "def f(c):\n    c.wait(poll_interval=-1.5)\n"
    assert rules_for(src, "repro.testbed.experiment") == ["ROB001"]


def test_positive_and_dynamic_waits_pass():
    src = (
        "def f(c, t):\n"
        "    c.query('s', cb, timeout=2.0)\n"
        "    c.query('s', cb, timeout=t)\n"
        "    c.wait(poll_interval=0.5)\n"
    )
    assert rules_for(src, "repro.ntp.sntp_client") == []


def test_boolean_literal_is_not_a_wait_value():
    # timeout=False is weird but not the numeric-zero pattern ROB001
    # targets; leave it to type checkers.
    src = "def f(c):\n    c.query('s', cb, timeout=False)\n"
    assert rules_for(src, "repro.ntp.sntp_client") == []


def test_noqa_suppresses_rob001():
    src = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except:  # repro: noqa[ROB001] last-ditch report guard\n"
        "        pass\n"
    )
    assert rules_for(src, "repro.core.protocol") == []


def test_message_points_at_the_wait_keyword():
    findings = check_source(
        "def f(c):\n    c.query('s', cb, timeout=0)\n",
        module="repro.ntp.sntp_client",
    )
    assert any("timeout=0" in f.message for f in findings)


# -- ROB002: guarantee thresholds must live in the spec --------------------


THRESHOLD = "def judge(p99_abs_error_ms):\n    return p99_abs_error_ms > 25.0\n"

SPEC_IMPORT = "from repro.testbed.specs import ScenarioSpec\n"


def rob002_for(src, module):
    # The import line may trip unrelated rules (e.g. COR004 unused
    # import in these minimal fixtures); isolate ROB002.
    return [f for f in check_source(src, module=module) if f.rule == "ROB002"]


def test_rob002_flags_thresholds_in_scenario_modules():
    assert "ROB002" in rules_for(THRESHOLD, "repro.testbed.specs")
    assert "ROB002" in rules_for(THRESHOLD, "repro.testbed.matrix")


def test_rob002_flags_thresholds_in_spec_importers():
    src = SPEC_IMPORT + "def f(duration_s):\n    return duration_s >= 600.0\n"
    assert [f.rule for f in rob002_for(src, "repro.core.protocol")] == ["ROB002"]


def test_rob002_out_of_scope_without_scenario_import():
    assert rob002_for(THRESHOLD, "repro.core.protocol") == []
    assert rob002_for(SPEC_IMPORT + THRESHOLD, "scripts.bench") == []
    assert rob002_for(SPEC_IMPORT + THRESHOLD, "tests.testbed.test_specs") == []


def test_rob002_exempts_structural_constants():
    src = (
        "def f(duration_s, cadence_s):\n"
        "    return duration_s > 0 and cadence_s >= 1 and duration_s != -1\n"
    )
    assert rob002_for(src, "repro.testbed.specs") == []


def test_rob002_ignores_unsuffixed_names():
    src = "def f(retries):\n    return retries > 5\n"
    assert rob002_for(src, "repro.testbed.matrix") == []


def test_rob002_spec_field_comparison_passes():
    src = (
        "def f(spec, p99_abs_error_ms):\n"
        "    return p99_abs_error_ms >= spec.p99_abs_error_violate_ms\n"
    )
    assert rob002_for(src, "repro.testbed.specs") == []


def test_rob002_message_names_the_spec_home():
    findings = rob002_for(THRESHOLD, "repro.testbed.specs")
    assert len(findings) == 1
    assert "SloSpec guarantees block" in findings[0].message
    assert "'p99_abs_error_ms'" in findings[0].message


def test_noqa_suppresses_rob002():
    src = (
        "def f(age_s):\n"
        "    return age_s > 3.5  # repro: noqa[ROB002] parser sentinel\n"
    )
    assert rob002_for(src, "repro.testbed.specs") == []
