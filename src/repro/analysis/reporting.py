"""Finding renderers: human lines and machine JSON."""

from __future__ import annotations

import json
from typing import List

from repro.analysis.engine import AnalysisResult


def render_human(result: AnalysisResult) -> str:
    """One ``path:line:col: RULE message`` line per finding + summary."""
    lines: List[str] = [f.render() for f in result.findings]
    lines.append(
        f"{len(result.findings)} finding"
        f"{'s' if len(result.findings) != 1 else ''} "
        f"in {result.files_checked} file"
        f"{'s' if result.files_checked != 1 else ''}"
    )
    lines.extend(f"warning: {w}" for w in result.warnings)
    lines.extend(f"error: {err}" for err in result.errors)
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """The full run as a JSON document (stable key order)."""
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "warnings": list(result.warnings),
        "errors": list(result.errors),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
