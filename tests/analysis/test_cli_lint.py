"""End-to-end tests for ``repro-mntp lint`` / ``python -m repro.analysis``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import all_rules
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
    assert "0 findings" in out


def test_seeded_violation_fails_the_run(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert main(["lint", str(tmp_path), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "bad.py" in out


def test_json_format_is_machine_readable(tmp_path, capsys):
    _seed_violation(tmp_path)
    assert main(["lint", str(tmp_path), "--no-baseline",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "DET001"
    assert finding["line"] == 7
    assert payload["errors"] == []


def test_write_baseline_then_lint_passes(tmp_path, capsys):
    target = _seed_violation(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(tmp_path), "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # Fixing the violation leaves a stale entry (reported, not fatal).
    target.write_text('"""Fixture."""\n\n\ndef f():\n    return 0.0\n')
    assert main(["lint", str(tmp_path), "--baseline", str(baseline)]) == 0
    assert "stale baseline entry" in capsys.readouterr().out


def test_update_baseline_rewrites_the_file(tmp_path, capsys):
    _seed_violation(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(tmp_path), "--baseline", str(baseline),
                 "--update-baseline", "--no-cache"]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(baseline.read_text())
    assert payload["version"] == 2
    assert any(e["rule"] == "DET001" for e in payload["entries"])
    assert main(["lint", str(tmp_path), "--baseline", str(baseline),
                 "--no-cache"]) == 0


def test_update_baseline_refuses_partial_rule_runs(tmp_path, capsys):
    _seed_violation(tmp_path)
    for extra in (["--select", "DET001"], ["--ignore", "COR004"]):
        assert main(["lint", str(tmp_path), "--update-baseline",
                     *extra]) == 2
        assert "refusing" in capsys.readouterr().err


def test_select_restricts_rules(tmp_path, capsys):
    target = _seed_violation(tmp_path)
    target.write_text(target.read_text() + "\n\nimport os\n")
    assert main(["lint", str(tmp_path), "--no-baseline",
                 "--select", "COR004"]) == 1
    out = capsys.readouterr().out
    assert "COR004" in out
    assert "DET001" not in out


def test_unknown_rule_id_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--select", "NOPE1"]) == 2
    assert "unknown rule ids" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "absent")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_every_shipped_rule(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


def test_python_dash_m_entry_point(tmp_path):
    _seed_violation(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tmp_path),
         "--no-baseline"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def _seed_tree(tmp_path):
    pkg = tmp_path / "repro" / "simcore"
    pkg.mkdir(parents=True)
    (pkg / "one.py").write_text(
        '"""Fixture."""\n\nimport time\n\n\ndef f():\n'
        "    return time.time()\n"
    )
    (pkg / "two.py").write_text(
        '"""Fixture."""\n\n\ndef g():  # repro: hot\n'
        "    out = []\n"
        "    for i in range(3):\n"
        "        out.append(i)\n"
        "    return out\n"
    )


def test_jobs_output_matches_serial(tmp_path, capsys):
    _seed_tree(tmp_path)
    base = ["lint", str(tmp_path), "--no-baseline", "--no-cache"]
    assert main(base) == 1
    serial = capsys.readouterr().out
    assert main(base + ["--jobs", "2"]) == 1
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert "DET001" in serial
    assert "PERF004" in serial


def test_jobs_must_be_positive(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_stats_reports_cache_and_phases(tmp_path, capsys):
    _seed_tree(tmp_path)
    cache = tmp_path / "cache.json"
    base = ["lint", str(tmp_path), "--no-baseline", "--stats",
            "--cache-path", str(cache)]
    main(base)
    cold = capsys.readouterr().out
    assert "stats: 2 files, cache 0/2 hits (0%)" in cold
    assert "phase1" in cold and "phase2" in cold
    main(base)
    warm = capsys.readouterr().out
    assert "cache 2/2 hits (100%)" in warm
