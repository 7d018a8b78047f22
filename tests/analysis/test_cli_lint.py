"""End-to-end tests for ``repro-mntp lint`` / ``python -m repro.analysis``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.rules import all_rules
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _seed_violation(tmp_path):
    """A fake simulation module containing a wall-clock read."""
    target = tmp_path / "repro" / "simcore" / "bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        '"""Fixture."""\n\nimport time\n\n\ndef f():\n'
        "    return time.time()\n"
    )
    return target


def test_lint_src_is_clean_end_to_end(monkeypatch, capsys):
    """The tier-1 smoke test: the shipped tree lints clean."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"0 findings in \d+ files\n", out), out


def test_one_gate_run_over_src_and_tests_is_clean(monkeypatch, capsys):
    """The scripts/check.sh gate: one run over ``src tests``, no findings.

    Inline noqa is the only suppression, so every finding that survives
    it fails CI; this keeps the tier-1 suite in step with the gate.
    """
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src", "tests"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"0 findings in \d+ files\n", out), out


def test_seeded_violation_fails_the_run(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "bad.py" in out


def test_json_format_is_machine_readable(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert main(["lint", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["line"] == 7
    assert payload["errors"] == []


def test_select_restricts_rules(tmp_path, capsys):
    target = _seed_violation(tmp_path)
    target.write_text(target.read_text() + "\n\nimport os\n")
    assert main(["lint", str(tmp_path), "--select", "COR004"]) == 1
    out = capsys.readouterr().out
    assert "COR004" in out
    assert "DET001" not in out


def test_unknown_rule_id_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--select", "NOPE1"]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
def test_empty_rule_list_is_usage_error(tmp_path, capsys, option, value):
    """An empty list must not silently mean "every rule"."""
    _seed_violation(tmp_path)
    assert main(["lint", str(tmp_path), option, value]) == 2
    captured = capsys.readouterr()
    assert f"{option} names no rule ids" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("removed", [
    ["--fix"], ["--changed"], ["--format", "sarif"], ["--baseline", "x"],
    ["--no-baseline"], ["--write-baseline"], ["--update-baseline"],
    ["--jobs", "2"], ["--no-cache"], ["--stats"], ["--cache-path", "x"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, removed):
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(tmp_path), *removed])
    assert exc.value.code == 2


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_shipped_rule(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_list_rules_has_no_perf_or_conc_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert ids and not [i for i in ids if i.startswith(("PERF", "CONC"))]


def test_python_dash_m_entry_point(tmp_path):
    _seed_violation(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_lint_run_leaves_working_directory_unchanged(tmp_path, monkeypatch,
                                                      capsys):
    """A lint run writes nothing: no cache or state file appears."""
    _seed_violation(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert main(["lint", "."]) == 1
    assert "DET001" in capsys.readouterr().out
    after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert after == before
