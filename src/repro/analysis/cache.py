"""Content-hash incremental lint cache.

The engine's phase-one output for a file — its per-file findings, flow
summary, and noqa tables — is a pure function of the file's bytes and
the engine configuration (tool version + enabled rules).  The cache
persists those records in ``.repro-lint-cache.json`` keyed by content
hash, so a warm run over an unchanged tree re-reads bytes to hash them
but re-parses nothing; the whole-program phase then runs from cached
summaries alone.

Separate engine configurations (e.g. the full gate and a ``--select``
run) occupy separate sections of the same file and do not evict each
other.  A tool-version bump or a rule-set change
invalidates only the affected section.  The cache file is a disposable
artifact: it is git-ignored, and any read/parse problem degrades to an
empty cache, never to an error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Set

from repro.analysis.engine import TOOL_VERSION

CACHE_VERSION = 1

#: Default cache filename, resolved against the working directory.
DEFAULT_CACHE_NAME = ".repro-lint-cache.json"


def config_key(rule_ids: Sequence[str]) -> str:
    """Cache-section key for an engine configuration."""
    return f"{TOOL_VERSION}:{','.join(sorted(rule_ids))}"


class LintCache:
    """One cache section, bound to a file path and a configuration."""

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        self._configs: Dict[str, Dict[str, Any]] = {}
        self._touched: Set[str] = set()
        self._dirty = False
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            data = None
        if isinstance(data, dict) and data.get("version") == CACHE_VERSION:
            configs = data.get("configs")
            if isinstance(configs, dict):
                self._configs = configs
        self._entries: Dict[str, Any] = self._configs.setdefault(self.key, {})

    def lookup(self, display_path: str, digest: str) -> Optional[Dict[str, Any]]:
        """The cached phase-one record, if the content hash still matches."""
        entry = self._entries.get(display_path)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return None
        record = entry.get("record")
        if not isinstance(record, dict):
            return None
        self._touched.add(display_path)
        return record

    def store(
        self, display_path: str, digest: str, record: Dict[str, Any]
    ) -> None:
        """Record a freshly computed phase-one result."""
        self._entries[display_path] = {"digest": digest, "record": record}
        self._touched.add(display_path)
        self._dirty = True

    def save(self) -> None:
        """Persist if anything changed; drops entries for vanished files.

        Entries are pruned by file existence, not by whether this run
        touched them, so linting a single file does not evict the rest
        of the tree's warm entries.  Failures to write are swallowed —
        the cache is an optimisation, never a correctness dependency.
        """
        stale = [
            path for path in self._entries
            if path not in self._touched and not Path(path).exists()
        ]
        if stale:
            for path in stale:
                del self._entries[path]
            self._dirty = True
        if not self._dirty:
            return
        payload = {"version": CACHE_VERSION, "configs": self._configs}
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:
            pass
