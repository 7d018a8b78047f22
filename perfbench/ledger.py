"""Per-layer time ledger: wraps the program's layer entry points at run time.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
a fixed table of public entry points (plus a few counting hooks) with
wrappers that charge host time to the layer being executed, and
:func:`Ledger.take` hands back what accumulated since the last take.

Attribution is by *self time*: a wrapped call's duration minus the
wrapped calls nested inside it.  The ledger keeps one "current layer"
and charges the time since the last boundary to it at every entry and
exit, so the self times of all layers -- including the ``unattributed``
root, which is everything outside any wrapped call -- add up exactly to
the wall time between two takes.

Event callbacks are attributed to the package that defined them:
``Simulator.call_at``/``call_after`` tag every scheduled callable with
its ``__module__`` and run it inside that layer's frame.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "unattributed"

#: Rows of the layer table, in print order.  ``ntp.codec`` and
#: ``obs.snapshot`` are sub-layers: their time is not in the parent row.
#: The root row holds everything outside a wrapped entry point: the
#: benchmark's own code and any package without a row.
LAYERS = (
    "simcore", "clock", "net", "wireless", "ntp", "ntp.codec", "core",
    "tuner", "testbed", "obs", "obs.snapshot", ROOT,
)

#: Packages of ``repro`` that map onto a layer of their own name.
_PACKAGE_LAYERS = frozenset(
    ("simcore", "clock", "net", "wireless", "ntp", "core", "tuner", "testbed", "obs")
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a callable defined in ``module`` belongs to."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in _PACKAGE_LAYERS:
        return parts[1]
    return ROOT


@dataclass
class Window:
    """What the ledger accumulated between two :meth:`Ledger.take` calls.

    Attributes:
        wall_s: Host seconds the window covered.
        self_s: Self seconds per layer; sums to ``wall_s``.
        calls: Wrapped-call count per layer.
        counts: Named work counters (see :func:`install`).
        instances: Objects of registered classes built in the window.
    """

    wall_s: float
    self_s: Dict[str, float]
    calls: Counter
    counts: Counter
    instances: Dict[str, List[Any]]


class Ledger:
    """Self-time accumulator shared by every installed wrapper."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._layer = ROOT
        self._stack: List[str] = []
        self._last = clock()
        self._window_start = self._last
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.instances: Dict[str, List[Any]] = defaultdict(list)

    def enter(self, layer: str) -> None:
        """Charge elapsed time to the current layer and switch to ``layer``."""
        now = self._clock()
        self.self_s[self._layer] += now - self._last
        self._stack.append(self._layer)
        self._layer = layer
        self._last = now
        self.calls[layer] += 1

    def exit(self) -> None:
        """Charge elapsed time to the current layer and return to the caller's."""
        now = self._clock()
        self.self_s[self._layer] += now - self._last
        self._layer = self._stack.pop()
        self._last = now

    def take(self) -> Window:
        """Close the current window and start a new one.

        Call from outside any wrapped call (the benchmark's own code),
        so the window's time is fully settled.
        """
        now = self._clock()
        self.self_s[self._layer] += now - self._last
        self._last = now
        window = Window(
            wall_s=now - self._window_start,
            self_s=dict(self.self_s),
            calls=Counter(self.calls),
            counts=Counter(self.counts),
            instances={key: list(objs) for key, objs in self.instances.items()},
        )
        self._window_start = now
        # Cleared in place: the installed wrappers hold these objects.
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.instances.clear()
        return window


def _timed(ledger: Ledger, layer: str, fn: Callable,
           count: Optional[Callable[..., None]] = None) -> Callable:
    """``fn`` wrapped in a ``layer`` frame; ``count(ledger, result, *args)``
    runs after a successful call to bump work counters."""
    enter, leave = ledger.enter, ledger.exit

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if count is not None:
            count(ledger, result, *args)
        return result

    return wrapper


def _bump(name: str) -> Callable[..., None]:
    def count(ledger: Ledger, result: Any, *args: Any) -> None:
        ledger.counts[name] += 1
    return count


def _register(key: str) -> Callable[..., None]:
    def count(ledger: Ledger, result: Any, obj: Any, *args: Any) -> None:
        ledger.instances[key].append(obj)
    return count


def _effect_sample(ledger: Ledger, effect: Any, *args: Any) -> None:
    ledger.counts["wireless.effect_samples"] += 1
    ledger.counts["wireless.frames_lost"] += bool(effect.lost)


def _filter_offer(ledger: Ledger, outcome: Any, *args: Any) -> None:
    ledger.counts["core.filter_offers"] += 1
    ledger.counts["core.filter_accepted"] += bool(outcome.decision.accepted)


def _emulation(ledger: Ledger, result: Any, emulator: Any, *args: Any) -> None:
    ledger.counts["tuner.replayed_entries"] += len(emulator.trace)
    ledger.counts["core.deferrals"] += result.deferred


def _event_tagger(ledger: Ledger) -> Callable[[Callable[[], Any]], Callable[[], Any]]:
    """Wraps a scheduled callback so it runs in its defining package's frame."""
    enter, leave, counts = ledger.enter, ledger.exit, ledger.counts

    def tag(callback: Callable[[], Any]) -> Callable[[], Any]:
        layer = layer_of_module(getattr(callback, "__module__", None))

        def run() -> Any:
            counts["simcore.events"] += 1
            enter(layer)
            try:
                return callback()
            finally:
                leave()

        return run

    return tag


# (module, class or None, attribute, layer, counter) -- the entry points.
# A class of None means a module-level function; its other bindings
# (``from x import f``) in already-imported repro modules are patched too.
_ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, Any], ...] = (
    ("repro.simcore.simulator", "Simulator", "run_until", "simcore", None),
    ("repro.clock.simclock", "SimClock", "read", "clock", _bump("clock.reads")),
    ("repro.clock.simclock", "SimClock", "true_offset", "clock", None),
    ("repro.clock.simclock", "SimClock", "step", "clock", None),
    ("repro.clock.simclock", "SimClock", "slew", "clock", None),
    ("repro.clock.simclock", "SimClock", "adjust_frequency", "clock", None),
    ("repro.clock.simclock", "SimClock", "nudge_frequency", "clock", None),
    ("repro.net.link", "Link", "__init__", "net", _register("links")),
    ("repro.net.link", "Link", "send", "net", _bump("net.packets")),
    ("repro.net.path", "PathModel", "sample", "net", None),
    ("repro.wireless.effects", "ChannelEffects", "sample", "wireless", _effect_sample),
    ("repro.wireless.channel", "WirelessChannel", "read_hints", "wireless",
     _bump("wireless.hint_reads")),
    ("repro.wireless.hints", "StaticHintProvider", "read_hints", "wireless",
     _bump("wireless.hint_reads")),
    ("repro.wireless.crosstraffic", "CrossTrafficGenerator", "occupancy", "wireless", None),
    ("repro.ntp.sntp_client", "SntpClient", "__init__", "ntp", _register("sntp_clients")),
    ("repro.ntp.sntp_client", "SntpClient", "query", "ntp", None),
    ("repro.ntp.sntp_client", "SntpClient", "on_datagram", "ntp", None),
    ("repro.ntp.server", "NtpServer", "on_datagram", "ntp", None),
    ("repro.ntp.packet", "NtpPacket", "encode", "ntp.codec", _bump("ntp.codec.calls")),
    ("repro.ntp.packet", "NtpPacket", "decode", "ntp.codec", _bump("ntp.codec.calls")),
    ("repro.ntp.packet", "NtpPacket", "sntp_request", "ntp.codec",
     _bump("ntp.codec.calls")),
    ("repro.core.protocol", "Mntp", "__init__", "core", _register("mntp")),
    ("repro.core.filter", "OffsetFilter", "offer", "core", _filter_offer),
    ("repro.core.falsetickers", None, "reject_false_tickers", "core", None),
    ("repro.core.thresholds", None, "favorable_snr_condition", "core", None),
    ("repro.tuner.logger", "TraceLogger", "run", "tuner", None),
    ("repro.tuner.searcher", "ParameterSearcher", "evaluate", "tuner",
     _bump("tuner.configs")),
    ("repro.tuner.emulator", "MntpEmulator", "run", "tuner", _emulation),
    ("repro.testbed.experiment", "ExperimentRunner", "run", "testbed", None),
    ("repro.testbed.nodes", "Testbed", "__init__", "testbed", None),
    ("repro.testbed.nodes", "Testbed", "_ping_probe", "testbed",
     _bump("testbed.ping_probes")),
    ("repro.obs.telemetry", "Telemetry", "emit", "obs", _bump("obs.records")),
    ("repro.obs.telemetry", "Telemetry", "count", "obs", None),
    ("repro.obs.telemetry", "Telemetry", "flush", "obs", None),
    ("repro.obs.telemetry", "Telemetry", "snapshot", "obs.snapshot", None),
    ("repro.obs.spans", "SpanTracer", "begin", "obs", _bump("obs.spans")),
    ("repro.obs.spans", "Span", "end", "obs", None),
)


def _patch_method(cls: type, attr: str, wrap: Callable[[Callable], Callable],
                  undo: List[Callable[[], None]]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        new: Any = classmethod(wrap(raw.__func__))
    elif isinstance(raw, staticmethod):
        new = staticmethod(wrap(raw.__func__))
    else:
        new = wrap(raw)
    setattr(cls, attr, new)
    undo.append(lambda: setattr(cls, attr, raw))


def _patch_function(module: Any, attr: str, wrap: Callable[[Callable], Callable],
                    undo: List[Callable[[], None]]) -> None:
    original = getattr(module, attr)
    wrapped = wrap(original)
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)
            undo.append(functools.partial(setattr, mod, attr, original))


def install(ledger: Ledger) -> Callable[[], None]:
    """Wrap every entry point in :data:`_ENTRY_POINTS` and the scheduler.

    Imports the wrapped modules.  Objects built before this call keep
    bound references to unwrapped methods, so install before building
    the workload.  Returns a function that restores the originals.
    """
    import importlib

    undo: List[Callable[[], None]] = []
    # Import everything first, so that every ``from x import f`` binding
    # of a wrapped function exists when the function is patched.
    modules = [importlib.import_module(entry[0]) for entry in _ENTRY_POINTS]
    for module, (_, cls_name, attr, layer, count) in zip(modules, _ENTRY_POINTS):

        def wrap(fn: Callable, layer: str = layer, count: Any = count) -> Callable:
            return _timed(ledger, layer, fn, count)

        if cls_name is None:
            _patch_function(module, attr, wrap, undo)
        else:
            _patch_method(getattr(module, cls_name), attr, wrap, undo)

    from repro.core.trend import TrendLine
    from repro.simcore.simulator import Simulator

    tag = _event_tagger(ledger)

    def scheduling(fn: Callable) -> Callable:
        def schedule(self: Any, when: float, callback: Callable[[], Any],
                     label: str = "") -> Any:
            ledger.counts["simcore.events_scheduled"] += 1
            return fn(self, when, tag(callback), label)

        return _timed(ledger, "simcore", functools.wraps(fn)(schedule))

    def trend_fit(fn: Callable) -> Callable:
        def fit(self: Any) -> Any:
            # A fit is only computed when points changed since the last one.
            if self._dirty and len(self) >= 2:
                ledger.counts["core.trend_fits"] += 1
            return fn(self)

        return _timed(ledger, "core", functools.wraps(fn)(fit))

    _patch_method(Simulator, "call_at", scheduling, undo)
    _patch_method(Simulator, "call_after", scheduling, undo)
    _patch_method(TrendLine, "_fit", trend_fit, undo)

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Window, passes: List[Window]) -> Dict[str, float]:
    """Per-layer metrics of one set-up plus one average traced pass.

    Self times are the set-up's plus the mean over ``passes``, so they
    still add up to ``trace.wall_s``.  Counts are the set-up's plus the
    first pass's (every pass does the same simulated work).
    """
    self_s = {layer: seconds for layer, seconds, _ in layer_rows(setup, passes)}
    first = passes[0]
    counts = setup.counts + first.counts

    def objects(key: str) -> List[Any]:
        return setup.instances.get(key, []) + first.instances.get(key, [])

    links = objects("links")
    clients = objects("sntp_clients")
    events = counts["simcore.events"]
    queries = sum(c.queries_sent for c in clients)
    offers = counts["core.filter_offers"]
    return {
        "simcore.events": events,
        "simcore.events_scheduled": counts["simcore.events_scheduled"],
        "simcore.live_ratio": _ratio(events, counts["simcore.events_scheduled"]),
        "simcore.self_s": self_s["simcore"],
        "simcore.host_us_per_event": 1e6 * _ratio(self_s["simcore"], events),
        "clock.reads": counts["clock.reads"],
        "clock.self_s": self_s["clock"],
        "net.packets": counts["net.packets"],
        "net.delivered_ratio": _ratio(sum(link.delivered for link in links),
                                      sum(link.sent for link in links)),
        "net.self_s": self_s["net"],
        "wireless.effect_samples": counts["wireless.effect_samples"],
        "wireless.hint_reads": counts["wireless.hint_reads"],
        "wireless.frame_loss_ratio": _ratio(counts["wireless.frames_lost"],
                                            counts["wireless.effect_samples"]),
        "wireless.self_s": self_s["wireless"],
        "ntp.queries": queries,
        "ntp.response_ratio": _ratio(sum(c.responses_received for c in clients), queries),
        "ntp.timeouts": sum(c.timeouts for c in clients),
        "ntp.codec.calls": counts["ntp.codec.calls"],
        "ntp.codec.self_s": self_s["ntp.codec"],
        "ntp.self_s": self_s["ntp"],
        "core.filter_offers": offers,
        "core.accept_ratio": _ratio(counts["core.filter_accepted"], offers),
        "core.deferrals": counts["core.deferrals"]
        + sum(m.deferral_count for m in objects("mntp")),
        "core.trend_fits": counts["core.trend_fits"],
        "core.self_s": self_s["core"],
        "tuner.configs": counts["tuner.configs"],
        "tuner.replayed_entries": counts["tuner.replayed_entries"],
        "tuner.self_s": self_s["tuner"],
        "testbed.ping_probes": counts["testbed.ping_probes"],
        "testbed.self_s": self_s["testbed"],
        "obs.records": counts["obs.records"],
        "obs.spans": counts["obs.spans"],
        "obs.self_s": self_s["obs"],
        "obs.snapshot_s": self_s["obs.snapshot"],
        "trace.unattributed_s": self_s[ROOT],
        "trace.wall_s": setup.wall_s + sum(w.wall_s for w in passes) / len(passes),
    }


def layer_rows(setup: Window, passes: List[Window]) -> List[Tuple[str, float, int]]:
    """(layer, self seconds, wrapped calls) per table row, on the same
    basis as :func:`layer_metrics`."""
    calls = setup.calls + passes[0].calls
    return [
        (layer,
         setup.self_s.get(layer, 0.0)
         + sum(w.self_s.get(layer, 0.0) for w in passes) / len(passes),
         calls[layer])
        for layer in LAYERS
    ]
