"""Engine mechanics: suppressions, rule selection, tests-tree scope."""

from pathlib import Path

import pytest

from repro.analysis.engine import (
    Engine,
    Finding,
    check_source,
    load_source,
    module_parts_for,
)

WALL_CLOCK_SRC = """\
import time

def now():
    return time.time()
"""


def test_finding_renders_with_anchor():
    f = Finding("DET001", "src/x.py", 4, 12, "no wall clock")
    assert f.anchor() == "src/x.py:4:12"
    assert f.render() == "src/x.py:4:12: DET001 no wall clock"


def test_inline_noqa_with_rule_suppresses():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()",
        "return time.time()  # repro: noqa[DET001] host calibration",
    )
    assert check_source(src, module="repro.simcore.clocksource") == []


def test_inline_noqa_bare_suppresses_everything():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()", "return time.time()  # repro: noqa"
    )
    assert check_source(src, module="repro.simcore.clocksource") == []


def test_noqa_for_other_rule_does_not_suppress():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()", "return time.time()  # repro: noqa[COR001]"
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_multi_rule_list_suppresses_each_listed_rule():
    src = (
        "import os, time\n"  # COR002 (multi-import) + COR004 (os unused)
        "\n\n"
        "def now():\n"
        "    return time.time()\n"
    ).replace(
        "import os, time",
        "import os, time  # repro: noqa[COR002, COR004]",
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_noqa_multi_rule_list_leaves_unlisted_rule_on_same_line():
    # The line produces COR002 and COR004; only COR002 is listed, so
    # COR004 must survive.
    src = (
        "import os, time  # repro: noqa[COR002]\n"
        "\n\n"
        "def _now():\n"
        "    return time.time()  # repro: noqa[DET001]\n"
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["COR004"]


@pytest.mark.parametrize("comment", [
    "# repro: noqa[DET001",      # unclosed bracket
    "# repro: noqa[]",           # empty rule list
    "# repro: noqa[,]",          # separators only
    "# repro: noqa[DET001,,COR001]",  # doubled separator
])
def test_malformed_noqa_warns_and_suppresses_nothing(tmp_path, comment):
    target = tmp_path / "repro" / "simcore" / "clk.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        WALL_CLOCK_SRC.replace(
            "return time.time()", f"return time.time()  {comment}"
        )
    )
    result = Engine(select=["DET001"]).check_paths([target])
    assert [f.rule for f in result.findings] == ["DET001"]
    assert len(result.warnings) == 1
    assert "malformed noqa" in result.warnings[0]
    assert "clk.py:4" in result.warnings[0]


def test_malformed_noqa_warning_reaches_human_and_json_output(tmp_path):
    from repro.analysis.reporting import render_human, render_json

    target = tmp_path / "repro" / "simcore" / "clk.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        WALL_CLOCK_SRC.replace(
            "return time.time()", "return time.time()  # repro: noqa[]"
        )
    )
    result = Engine(select=["DET001"]).check_paths([target])
    assert "warning:" in render_human(result)
    import json

    assert json.loads(render_json(result))["warnings"]


def test_noqa_text_inside_a_string_literal_suppresses_nothing():
    src = WALL_CLOCK_SRC.replace(
        "return time.time()", 'return time.time(), "# repro: noqa"'
    )
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_marker_text_inside_a_string_literal_raises_no_warning(tmp_path):
    target = tmp_path / "tests" / "test_markers.py"
    target.parent.mkdir(parents=True)
    target.write_text('SAMPLE = "x = 1  # repro: noqa[]"\n')
    result = Engine().check_paths([target])
    assert result.warnings == []
    assert load_source(target).noqa == {}


def test_noqa_on_different_line_does_not_suppress():
    src = "# repro: noqa[DET001]\n" + WALL_CLOCK_SRC
    findings = check_source(src, module="repro.simcore.clocksource")
    assert [f.rule for f in findings] == ["DET001"]


def test_select_runs_only_chosen_rules():
    src = "import os\n" + WALL_CLOCK_SRC  # os unused -> COR004
    only_det = check_source(
        src, module="repro.simcore.clocksource", select=["DET001"]
    )
    assert [f.rule for f in only_det] == ["DET001"]


def test_ignore_drops_rules():
    src = "import os\n" + WALL_CLOCK_SRC
    findings = check_source(
        src, module="repro.simcore.clocksource", ignore=["COR004"]
    )
    assert [f.rule for f in findings] == ["DET001"]


def test_unknown_rule_ids_rejected():
    with pytest.raises(ValueError, match="NOPE999"):
        Engine(select=["NOPE999"])
    with pytest.raises(ValueError, match="NOPE999"):
        Engine(ignore=["NOPE999"])


def test_module_parts_inferred_from_repro_directory():
    assert module_parts_for(Path("src/repro/ntp/wire.py")) == (
        "repro", "ntp", "wire",
    )
    assert module_parts_for(Path("src/repro/simcore/__init__.py")) == (
        "repro", "simcore",
    )
    assert module_parts_for(Path("scratch/tool.py")) == ("tool",)


def test_check_paths_records_unparsable_files(tmp_path):
    good = tmp_path / "repro" / "simcore" / "ok.py"
    good.parent.mkdir(parents=True)
    good.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    bad = tmp_path / "repro" / "simcore" / "broken.py"
    bad.write_text("def :(\n")
    result = Engine().check_paths([tmp_path])
    assert result.files_checked == 1
    assert [f.rule for f in result.findings] == ["DET001"]
    assert len(result.errors) == 1
    assert "broken.py" in result.errors[0]


def test_check_paths_accepts_single_file(tmp_path):
    target = tmp_path / "repro" / "clock" / "osc.py"
    target.parent.mkdir(parents=True)
    target.write_text(WALL_CLOCK_SRC)
    result = Engine().check_paths([target])
    assert [f.rule for f in result.findings] == ["DET001"]


def test_cor001_is_skipped_under_tests_but_fires_under_src(tmp_path):
    exact = (
        '"""Fixture."""\n\n\n'
        "def check(offset_s, expected_s):\n"
        "    return offset_s == expected_s\n"
    )
    for tree in ("tests", "src/repro/core"):
        target = tmp_path / tree / "exact.py"
        target.parent.mkdir(parents=True)
        target.write_text(exact)
    result = Engine(select=["COR001"]).check_paths(
        [tmp_path / "src", tmp_path / "tests"]
    )
    assert [(f.rule, Path(f.path).parts[-2]) for f in result.findings] == [
        ("COR001", "core"),
    ]


def test_each_module_fact_is_built_once_per_run(tmp_path, monkeypatch):
    """Import map and flow summary: one build per module."""
    from repro.analysis import engine
    from repro.analysis.flow import summary
    from repro.analysis.rules.base import ImportMap

    pkg = tmp_path / "repro" / "simcore"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from repro.simcore.clock import now\n\n__all__ = ['now']\n"
    )
    (pkg / "clock.py").write_text(WALL_CLOCK_SRC)
    (pkg / "node.py").write_text(
        "from repro.simcore.clock import now\n\n\n"
        "def later_s():\n    return now() + 1.0\n"
    )
    counts = {"imports": 0, "summary": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        ImportMap, "__init__", counting("imports", ImportMap.__init__)
    )
    monkeypatch.setattr(
        summary, "summarize", counting("summary", summary.summarize)
    )
    result = Engine().check_paths([tmp_path], reference_roots=[])
    assert result.errors == []
    assert result.files_checked == 3
    assert counts == {"imports": 3, "summary": 3}
