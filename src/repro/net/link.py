"""Link: glues a pair of PathModels to the simulator event queue.

A :class:`Link` moves :class:`~repro.net.message.Datagram` objects from
one endpoint to another with sampled delay/loss, invoking the receiver
callback at the delivery instant.  Extra per-packet delay and loss
contributed by higher-level effects (e.g. the wireless channel state at
transmission time) is injected via optional hook callables, keeping the
wireless model decoupled from the transport plumbing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.net.message import Datagram
from repro.net.path import PathModel
from repro.simcore.simulator import Simulator

ReceiveFn = Callable[[Datagram], None]
ExtraEffectFn = Callable[[], "LinkEffect"]


class LinkEffect:
    """Additional (delay, loss) contributed by a dynamic effect source.

    ``retry_delay`` is the portion of ``extra_delay`` caused by 802.11
    retransmission backoff — the part attributable to interference /
    poor SNR rather than contention queueing.  The causal tracer uses
    the split to name the cause of a delayed packet.

    ``duplicate_extra``, when set, asks the link to deliver a second
    copy of the packet that many seconds after the first (duplication
    faults; see :mod:`repro.faults.injectors`).
    """

    __slots__ = ("extra_delay", "lost", "retry_delay", "duplicate_extra")

    def __init__(
        self,
        extra_delay: float = 0.0,
        lost: bool = False,
        retry_delay: float = 0.0,
        duplicate_extra: Optional[float] = None,
    ) -> None:
        self.extra_delay = extra_delay
        self.lost = lost
        self.retry_delay = retry_delay
        self.duplicate_extra = duplicate_extra


#: The effect of a link with no effect hook.  Shared by every such
#: packet: ``Link.send`` only reads it, so no packet can change it.
_NO_EFFECT = LinkEffect()


class Link:
    """Unidirectional datagram pipe with stochastic delay and loss.

    Args:
        sim: The simulation kernel (supplies time and scheduling).
        path: Base path delay/loss model for this direction.
        receive: Callback invoked with each delivered datagram.
        effect_hook: Optional callable sampled per packet for extra
            delay/loss (the wireless channel plugs in here).
        name: Label used in trace records.
    """

    def __init__(
        self,
        sim: Simulator,
        path: PathModel,
        receive: ReceiveFn,
        effect_hook: Optional[ExtraEffectFn] = None,
        name: str = "link",
    ) -> None:
        self._sim = sim
        self.path = path
        self._receive = receive
        self._effect_hook = effect_hook
        self.name = name
        self._deliver_label = f"{name}:deliver"
        self._duplicate_label = f"{name}:deliver-dup"
        self.sent = 0
        self.delivered = 0
        self.lost = 0

    def send(self, datagram: Datagram) -> None:
        """Inject ``datagram``; it is delivered (or dropped) later."""
        self.sent += 1
        datagram.sent_at = self._sim.now
        sample = self.path.sample()
        effect = self._effect_hook() if self._effect_hook else _NO_EFFECT
        if sample.lost or effect.lost:
            datagram.dropped = True
            self.lost += 1
            self._sim.telemetry.emit(
                self._sim.now, self.name, "drop", ident=datagram.ident,
                dst=datagram.dst, trace_id=datagram.trace_id,
            )
            return
        delay = sample.delay + effect.extra_delay
        # Per-hop causal span: the delay is recorded split into its
        # physical causes so obs.explain can attribute offset error.
        span = self._sim.telemetry.spans.begin(
            "link.transit",
            link=self.name,
            ident=datagram.ident,
            trace_id=datagram.trace_id,
            prop_s=sample.base,
            queue_s=sample.queue + sample.spike
            + (effect.extra_delay - effect.retry_delay),
            intf_s=effect.retry_delay,
        )

        def deliver() -> None:
            datagram.delivered_at = self._sim.now
            self.delivered += 1
            span.end()
            self._receive(datagram)

        self._sim.call_after(delay, deliver, self._deliver_label)
        if effect.duplicate_extra is not None:
            self._send_duplicate(datagram, delay + effect.duplicate_extra)

    def _send_duplicate(self, original: Datagram, delay: float) -> None:
        """Deliver a second copy of ``original`` after ``delay``.

        The copy keeps the payload and trace id (it *is* the same wire
        packet) but gets its own ident so trace consumers can tell the
        two deliveries apart.
        """
        duplicate = replace(original, ident=self._sim.datagram_ids.allocate())
        span = self._sim.telemetry.spans.begin(
            "link.transit",
            link=self.name,
            ident=duplicate.ident,
            trace_id=duplicate.trace_id,
            prop_s=0.0,
            queue_s=delay,
            intf_s=0.0,
            duplicate=1,
        )

        def deliver() -> None:
            duplicate.delivered_at = self._sim.now
            self.delivered += 1
            span.end()
            self._receive(duplicate)

        self._sim.call_after(delay, deliver, self._duplicate_label)
