"""Benchmark-suite fixtures.

``report`` prints through pytest's capture so the regenerated
tables/series reach the terminal (and any ``tee``) even without ``-s``.
``once`` runs a bench's experiment exactly one round.  Wall-time and
per-layer cost are measured by ``perfbench/``, not here.
"""

import pytest


@pytest.fixture
def report(request):
    """Print a block of text bypassing output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(text: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(f"\n{text}")
        else:  # pragma: no cover - capture plugin always present
            print(f"\n{text}")

    return _report


@pytest.fixture
def once(benchmark):
    """Run the target exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations, so repeated rounds
    only repeat identical work; one round keeps the suite fast while
    still recording wall-clock cost per figure/table.
    """

    def _once(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _once
