"""Every block-read stream sees only its block fills in a real run.

``block_reader`` keeps results byte-identical only while one
distribution owns the stream.  This census runs short paper scenarios
with every stream behind a recording proxy and checks each block-read
stream's calls, so a second distribution drawn from such a stream later
fails here instead of silently changing results.
"""

import dataclasses

import pytest

from repro.simcore.random import BLOCK_SIZE, RngRegistry
from repro.testbed.specs import load_scenario

#: Stream family -> (calls made before block reading, the block fill).
#: ``None`` as the fill's size argument stands for any pool size.
_BLOCK_READ = {
    "osc": ([("normal",)], ("standard_normal", BLOCK_SIZE)),
    "tn-osc": ([("normal",)], ("standard_normal", BLOCK_SIZE)),
    "server": ([], ("standard_exponential", BLOCK_SIZE)),
    "pooldns": ([], ("integers", 0, None, BLOCK_SIZE)),
    "ping-path": ([], ("standard_exponential", BLOCK_SIZE)),
    "crosstraffic": ([], ("standard_exponential", BLOCK_SIZE)),
}


class _Recorder:
    """A generator stand-in that logs each method call with its arguments."""

    def __init__(self, generator, log):
        self._generator = generator
        self._log = log

    def __getattr__(self, attr):
        method = getattr(self._generator, attr)

        def record(*args, **kwargs):
            assert not kwargs, (attr, kwargs)
            self._log.append((attr, *args))
            return method(*args, **kwargs)

        return record


def _census(monkeypatch, scenario, seconds):
    """Run ``scenario`` for ``seconds``; return {stream name: [calls]}."""
    calls = {}
    stream = RngRegistry.stream

    def recording_stream(self, name):
        return _Recorder(stream(self, name), calls.setdefault(name, []))

    monkeypatch.setattr(RngRegistry, "stream", recording_stream)
    spec = dataclasses.replace(load_scenario(scenario), duration_s=seconds)
    spec.build_runner(seed=1, instrument=False).run()
    return calls


def _shape(call):
    """``call`` without the arguments that differ per object: a pool's
    size and a skew draw's sigma."""
    if call[0] == "integers":
        return (call[0], call[1], None, call[3])
    return call[:1] if call[0] == "normal" else call


@pytest.mark.parametrize("scenario, families", [
    ("wired_corrected", {"osc", "tn-osc", "server", "pooldns"}),
    ("mntp_wireless_corrected",
     {"osc", "tn-osc", "server", "pooldns", "ping-path", "crosstraffic"}),
])
def test_block_read_streams_see_only_their_fills(monkeypatch, scenario, families):
    calls = _census(monkeypatch, scenario, seconds=900.0)
    seen = set()
    for name, log in calls.items():
        family = name.split(":")[0]
        if family not in _BLOCK_READ or not log:
            continue
        seen.add(family)
        prefix, fill = _BLOCK_READ[family]
        shapes = [_shape(call) for call in log]
        assert shapes[:len(prefix)] == prefix, name
        assert shapes[len(prefix):] == [fill] * (len(shapes) - len(prefix)), name
    assert seen == families
