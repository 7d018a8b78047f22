"""Incremental cache: warm runs re-parse nothing, stale entries die."""

import ast
import json

from repro.analysis.engine import Engine
from repro.analysis.cache import LintCache, config_key


def _tree(tmp_path):
    pkg = tmp_path / "repro" / "simcore"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    (pkg / "b.py").write_text("def poll_ms():\n    return 64.0\n")
    return tmp_path


def _cache(tmp_path, engine):
    return LintCache(tmp_path / "cache.json", config_key(engine.rule_ids))


def test_warm_run_parses_nothing(tmp_path, monkeypatch):
    tree = _tree(tmp_path)
    engine = Engine()
    cache = _cache(tmp_path, engine)
    cold = engine.check_paths([tree], cache=cache, reference_roots=[])
    cache.save()

    parsed = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse",
        lambda *a, **k: parsed.append(a) or real_parse(*a, **k),
    )
    warm_cache = _cache(tmp_path, engine)
    warm = engine.check_paths([tree], cache=warm_cache, reference_roots=[])
    assert parsed == []
    assert [f.render() for f in warm.findings] == [
        f.render() for f in cold.findings
    ]
    assert warm.files_checked == cold.files_checked


def test_content_change_invalidates_only_that_file(tmp_path, monkeypatch):
    tree = _tree(tmp_path)
    engine = Engine()
    cache = _cache(tmp_path, engine)
    engine.check_paths([tree], cache=cache, reference_roots=[])
    cache.save()

    (tree / "repro" / "simcore" / "b.py").write_text(
        "def poll_ms():\n    return 128.0\n"
    )
    parsed = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse",
        lambda *a, **k: parsed.append(a and a[-1]) or real_parse(*a, **k),
    )
    warm_cache = _cache(tmp_path, engine)
    engine.check_paths([tree], cache=warm_cache, reference_roots=[])
    # Exactly one re-parse: the edited file (ast.parse is called once
    # per freshly analysed module).
    assert len(parsed) == 1


def test_rule_selection_gets_its_own_section(tmp_path):
    tree = _tree(tmp_path)
    full = Engine()
    det = Engine(select=["DET001"])
    assert config_key(full.rule_ids) != config_key(det.rule_ids)

    full_cache = _cache(tmp_path, full)
    full.check_paths([tree], cache=full_cache, reference_roots=[])
    full_cache.save()

    # The DET-only engine must not see the full engine's records.
    det_cache = _cache(tmp_path, det)
    display = next(iter(full_cache._entries))
    digest = full_cache._entries[display]["digest"]
    assert det_cache.lookup(display, digest) is None

    det.check_paths([tree], cache=det_cache, reference_roots=[])
    det_cache.save()
    data = json.loads((tmp_path / "cache.json").read_text())
    assert len(data["configs"]) == 2


def test_corrupt_cache_degrades_to_empty(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    cache = LintCache(path, "k")
    assert cache.lookup("x.py", "digest") is None
    cache.store("x.py", "digest", {"findings": []})
    cache.save()
    data = json.loads(path.read_text())
    assert data["configs"]["k"]["x.py"]["digest"] == "digest"


def test_save_prunes_entries_for_deleted_files(tmp_path):
    tree = _tree(tmp_path)
    engine = Engine()
    cache = _cache(tmp_path, engine)
    engine.check_paths([tree], cache=cache, reference_roots=[])
    cache.save()

    target = tree / "repro" / "simcore" / "b.py"
    display = next(p for p in cache._entries if p.endswith("b.py"))
    target.unlink()

    fresh = _cache(tmp_path, engine)
    engine.check_paths([tree], cache=fresh, reference_roots=[])
    fresh.save()
    data = json.loads((tmp_path / "cache.json").read_text())
    assert display not in data["configs"][config_key(engine.rule_ids)]


def test_tool_version_bump_reanalyzes_everything(tmp_path, monkeypatch):
    """A TOOL_VERSION change must invalidate every cached record.

    Guards the PR contract that semantic changes to rules (like the
    CFG dataflow layer) ship with a version bump: a stale cache from
    the previous version must never satisfy a warm run.
    """
    import repro.analysis.cache as cache_mod

    tree = _tree(tmp_path)
    engine = Engine()
    cold_cache = _cache(tmp_path, engine)
    cold = engine.check_paths([tree], cache=cold_cache, reference_roots=[])
    cold_cache.save()

    monkeypatch.setattr(cache_mod, "TOOL_VERSION", "bumped-for-test")
    parsed = []
    real_parse = ast.parse
    monkeypatch.setattr(
        ast, "parse",
        lambda *a, **k: parsed.append(a) or real_parse(*a, **k),
    )
    bumped_cache = _cache(tmp_path, engine)
    bumped = engine.check_paths([tree], cache=bumped_cache, reference_roots=[])
    # Both files were re-parsed from scratch, and findings agree.
    assert len(parsed) == 2
    assert [f.render() for f in bumped.findings] == [
        f.render() for f in cold.findings
    ]
