"""``lint --explain`` and the RES rules through the CLI, end to end."""

from repro.analysis.rules import all_project_rules, all_rules
from repro.cli import main


def test_explain_prints_every_section(capsys):
    assert main(["lint", "--explain", "RES001"]) == 0
    out = capsys.readouterr().out
    assert "RES001" in out
    assert "rationale:" in out
    assert "example:" in out
    assert "fix:" in out


def test_explain_is_case_insensitive(capsys):
    assert main(["lint", "--explain", "res001"]) == 0
    assert "path-sensitive" in capsys.readouterr().out


def test_explain_unknown_rule_suggests_close_match(capsys):
    assert main(["lint", "--explain", "RES01"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err
    assert "did you mean RES001" in err


def test_explain_gibberish_has_no_suggestion(capsys):
    assert main(["lint", "--explain", "ZZZZZZZZ"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err
    assert "did you mean" not in err


def test_every_registered_rule_has_a_complete_entry(capsys):
    """The --explain contract: every rule class carries its own docs."""
    for rule_id in sorted({**all_rules(), **all_project_rules()}):
        assert main(["lint", "--explain", rule_id]) == 0
        out = capsys.readouterr().out
        for section in ("rationale:", "example:", "fix:"):
            assert section in out, f"{rule_id} is missing {section}"


# ---------------------------------------------------------------------------
# RES through the full pipeline


def _seed_res_tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "leaky.py").write_text(
        '"""Fixture."""\n\n\ndef work(tracer, cond):\n'
        '    span = tracer.begin("work")\n'
        "    if cond:\n"
        "        return 1\n"
        "    span.end()\n"
        "    return 0\n"
    )
    (pkg / "raising.py").write_text(
        '"""Fixture."""\n\n\ndef work(tracer, cond):\n'
        '    span = tracer.begin("work")\n'
        "    if cond:\n"
        '        raise ValueError("cond")\n'
        "    span.end()\n"
    )
    return tmp_path


def test_new_rules_are_jobs_deterministic(tmp_path, capsys):
    """Two serial runs over the RES001 tree print identical reports."""
    tree = _seed_res_tree(tmp_path)
    base = ["lint", str(tree), "--select", "RES001"]
    assert main(base) == 1
    first = capsys.readouterr().out
    assert main(base) == 1
    assert capsys.readouterr().out == first
    assert "leaky.py" in first and "raising.py" in first
