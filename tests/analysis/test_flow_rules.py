"""Interprocedural rules (UNIT004/UNIT005/DET004/COR005) over fixtures.

Single-module cases go through ``check_source(project=True)``; the
cross-module cases build a real tree under ``tmp_path`` and run
``Engine.check_paths`` so resolution exercises the same import-map
machinery production runs use.
"""

from pathlib import Path

from repro.analysis.engine import Engine, check_source, load_source
from repro.analysis.flow.project import Project
from repro.analysis.flow.summary import summarize


def _project_findings(src, module="repro.simcore.node"):
    return check_source(src, module=module, project=True,
                        select=["UNIT004"])


def _write_tree(tmp_path, files):
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return tmp_path


def _rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# UNIT004 — call-site argument unit mismatch


def test_unit004_positional_mismatch():
    src = """\
def wait(timeout_s):
    return timeout_s


def run(delay_ms):
    return wait(delay_ms)
"""
    findings = _project_findings(src)
    assert _rules_of(findings) == ["UNIT004"]
    assert "'delay_ms'" in findings[0].message
    assert "'timeout_s'" in findings[0].message
    assert findings[0].endpoint.endswith("::wait")


def test_unit004_keyword_mismatch():
    src = """\
def wait(*, timeout_s=1.0):
    return timeout_s


def run(delay_ns):
    return wait(timeout_s=delay_ns)
"""
    findings = _project_findings(src)
    assert _rules_of(findings) == ["UNIT004"]


def test_unit004_matching_units_are_silent():
    src = """\
def wait(timeout_s):
    return timeout_s


def run(delay_s):
    return wait(delay_s)
"""
    assert _project_findings(src) == []


def test_unit004_cross_module(tmp_path):
    _write_tree(tmp_path, {
        "repro/util/timing.py": (
            "def sleep_for(duration_s):\n    return duration_s\n"
        ),
        "repro/simcore/node.py": (
            "from repro.util.timing import sleep_for\n\n\n"
            "def step(dt_ms):\n    return sleep_for(dt_ms)\n"
        ),
    })
    result = Engine(select=["UNIT004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert _rules_of(result.findings) == ["UNIT004"]
    assert result.findings[0].endpoint.endswith("timing.py::sleep_for")


def test_unit004_mismatch_in_a_default():
    src = """\
DELAY_MS = 5.0


def wait(timeout_s):
    return timeout_s


def poll(deadline=wait(DELAY_MS)):
    return deadline
"""
    findings = _project_findings(src)
    assert _rules_of(findings) == ["UNIT004"]
    assert (findings[0].line, findings[0].col) == (8, 19)
    assert "'DELAY_MS'" in findings[0].message


# ---------------------------------------------------------------------------
# UNIT005 — return-unit mismatch on assignment


def test_unit005_direct_return_suffix():
    src = """\
def poll_interval_ms():
    return 64.0


def run():
    interval_s = poll_interval_ms()
    return interval_s
"""
    findings = check_source(src, module="repro.ntp.poll", project=True,
                            select=["UNIT005"])
    assert _rules_of(findings) == ["UNIT005"]
    assert "'interval_s'" in findings[0].message


def test_unit005_inferred_through_call_chain():
    src = """\
def inner_ms():
    return 5.0


def outer():
    return inner_ms()


def run():
    x_s = outer()
    return x_s
"""
    findings = check_source(src, module="repro.ntp.poll", project=True,
                            select=["UNIT005"])
    assert _rules_of(findings) == ["UNIT005"]
    assert "returns 'ms'" in findings[0].message


def test_unit005_conflicting_returns_stay_silent():
    src = """\
def pick(flag, a_s, b_ms):
    if flag:
        return a_s
    return b_ms


def run():
    x_s = pick(True, 1.0, 2.0)
    return x_s
"""
    findings = check_source(src, module="repro.ntp.poll", project=True,
                            select=["UNIT005"])
    assert findings == []


def test_unit005_annotated_class_attribute():
    src = """\
def poll_s():
    return 1.0


class Config:
    plain_ms = poll_s()
    annotated_ms: float = poll_s()
"""
    findings = check_source(src, module="repro.ntp.poll", project=True,
                            select=["UNIT005"])
    assert [(f.rule, f.line) for f in findings] == [
        ("UNIT005", 6), ("UNIT005", 7),
    ]
    assert "'annotated_ms'" in findings[1].message


# ---------------------------------------------------------------------------
# DET004 — transitive effects reaching simulation code


def test_det004_via_out_of_scope_helper(tmp_path):
    _write_tree(tmp_path, {
        "repro/reporting/stamp.py": (
            "import time\n\n\n"
            "def stamp():\n    return time.time()\n"
        ),
        "repro/simcore/node.py": (
            "from repro.reporting.stamp import stamp\n\n\n"
            "def step():\n    return stamp()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert _rules_of(result.findings) == ["DET004"]
    finding = result.findings[0]
    assert "wall-clock call time.time()" in finding.message
    assert finding.endpoint.endswith("stamp.py::stamp")
    assert finding.path.endswith("node.py")


def test_det004_reports_at_boundary_only(tmp_path):
    # step -> helper (in scope, effect-free itself) -> stamp (outside).
    # The finding must anchor at helper's call to stamp, not at step.
    _write_tree(tmp_path, {
        "repro/reporting/stamp.py": (
            "import time\n\n\n"
            "def stamp():\n    return time.time()\n"
        ),
        "repro/simcore/node.py": (
            "from repro.reporting.stamp import stamp\n\n\n"
            "def helper():\n    return stamp()\n\n\n"
            "def step():\n    return helper()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert len(result.findings) == 1
    assert ".helper' transitively" in result.findings[0].message


def test_det004_noqa_on_direct_call_suppresses_the_chain(tmp_path):
    _write_tree(tmp_path, {
        "repro/reporting/stamp.py": (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # repro: noqa[DET004] report header\n"
        ),
        "repro/simcore/node.py": (
            "from repro.reporting.stamp import stamp\n\n\n"
            "def step():\n    return stamp()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert result.findings == []


def test_det004_outside_simulation_packages_not_policed(tmp_path):
    _write_tree(tmp_path, {
        "repro/reporting/stamp.py": (
            "import time\n\n\n"
            "def stamp():\n    return time.time()\n"
        ),
        "repro/reporting/render.py": (
            "from repro.reporting.stamp import stamp\n\n\n"
            "def header():\n    return stamp()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert result.findings == []


def test_det004_tests_helper_chain_is_flagged(tmp_path):
    # A test -> a tests helper -> a tests helper that reads the clock.
    _write_tree(tmp_path, {
        "tests/helpers/clock.py": (
            "import time\n\n\n"
            "def stamp():\n    return time.time()\n"
        ),
        "tests/helpers/fixtures.py": (
            "from tests.helpers.clock import stamp\n\n\n"
            "def fixture():\n    return stamp()\n"
        ),
        "tests/test_node.py": (
            "from tests.helpers.fixtures import fixture\n\n\n"
            "def test_node():\n    assert fixture()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path / "tests"], reference_roots=[]
    )
    assert _rules_of(result.findings) == ["DET004"]
    assert result.findings[0].path.endswith("fixtures.py")
    assert "wall-clock call time.time()" in result.findings[0].message


def test_det004_test_calling_library_code_is_not_flagged(tmp_path):
    # The callee's own package scope decides: repro.cli is host-side
    # code, so its monotonic clock is not the test's concern.
    _write_tree(tmp_path, {
        "src/repro/cli.py": (
            "import time\n\n\n"
            "def main():\n    return time.monotonic()\n"
        ),
        "tests/test_cli.py": (
            "from repro.cli import main\n\n\n"
            "def test_main():\n    assert main()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path / "src", tmp_path / "tests"], reference_roots=[]
    )
    assert result.findings == []


def test_det004_simulation_chain_still_flagged_with_tests_in_run(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/reporting/stamp.py": (
            "import time\n\n\n"
            "def stamp():\n    return time.time()\n"
        ),
        "src/repro/simcore/node.py": (
            "from repro.reporting.stamp import stamp\n\n\n"
            "def step():\n    return stamp()\n"
        ),
        "tests/test_node.py": (
            "from repro.simcore.node import step\n\n\n"
            "def test_step():\n    assert step()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path / "src", tmp_path / "tests"], reference_roots=[]
    )
    assert _rules_of(result.findings) == ["DET004"]
    assert result.findings[0].path.endswith("node.py")
    assert result.findings[0].endpoint.endswith("stamp.py::stamp")


def test_det004_sees_calls_in_defaults(tmp_path):
    # A call in a def's defaults runs where the def statement runs: a
    # nested def's in the enclosing function, a top-level def's in the
    # module body.
    _write_tree(tmp_path, {
        "repro/testbed/clockish.py": (
            "import time\n\n\n"
            "def now():\n    return time.time()\n"
        ),
        "repro/core/x.py": (
            "from repro.testbed.clockish import now\n\n\n"
            "def step():\n"
            "    def cb(t=now()):\n"
            "        return t\n"
            "    return cb\n\n\n"
            "def step2():\n    return now()\n\n\n"
            "def step3(t=now()):\n    return t\n\n\n"
            "VAL = now()\n"
        ),
    })
    result = Engine(select=["DET004"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert [
        (f.line, f.col, f.message.split(" transitively")[0])
        for f in result.findings
    ] == [
        (5, 14, "'repro.core.x.step'"),
        (11, 12, "'repro.core.x.step2'"),
        (14, 13, "'repro.core.x (module body)'"),
        (18, 7, "'repro.core.x (module body)'"),
    ]
    assert all(
        f.endpoint.endswith("clockish.py::now") for f in result.findings
    )


# ---------------------------------------------------------------------------
# COR005 — dead public functions


def test_cor005_flags_uncalled_public_function(tmp_path):
    _write_tree(tmp_path, {
        "repro/util/spare.py": "def orphan():\n    return 1\n",
    })
    result = Engine(select=["COR005"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert _rules_of(result.findings) == ["COR005"]
    assert "repro.util.spare.orphan" in result.findings[0].message


def test_cor005_reference_root_token_keeps_function_alive(tmp_path):
    _write_tree(tmp_path, {
        "repro/util/spare.py": "def orphan():\n    return 1\n",
        "refs/test_spare.py": "VALUE = 'orphan'\n",
    })
    result = Engine(select=["COR005"]).check_paths(
        [tmp_path / "repro"], reference_roots=[tmp_path / "refs"]
    )
    assert result.findings == []


def test_cor005_skips_private_decorated_and_main(tmp_path):
    _write_tree(tmp_path, {
        "repro/util/spare.py": (
            "import functools\n\n\n"
            "def _hidden():\n    return 1\n\n\n"
            "@functools.lru_cache\n"
            "def cached():\n    return 2\n\n\n"
            "def main():\n    return 3\n"
        ),
    })
    result = Engine(select=["COR005"]).check_paths(
        [tmp_path], reference_roots=[]
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# flow plumbing exercised directly


def test_load_source_feeds_the_flow_summary(tmp_path):
    target = tmp_path / "repro" / "clock" / "osc.py"
    target.parent.mkdir(parents=True)
    target.write_text("def drift_ppm(rate_ppm):\n    return rate_ppm\n")
    module = load_source(target)
    summary = summarize(module)
    assert summary.dotted() == "repro.clock.osc"
    project = Project([summary])
    entry = project.functions["repro.clock.osc.drift_ppm"]
    assert entry.info.name == "drift_ppm"
