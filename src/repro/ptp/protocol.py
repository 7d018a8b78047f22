"""PTP two-step master/slave over the simulated network.

The master periodically emits ``Sync`` (event message; its precise
transmit timestamp t1 travels in the ``Follow_Up`` general message) and
answers ``Delay_Req`` with ``Delay_Resp`` carrying the master-side
receive timestamp t4.  The slave combines (t1, t2, t3, t4) into offset
and mean-path-delay samples.

Hardware timestamping is what gives PTP its LAN-grade accuracy; the
simulator models it as zero-error capture of the link-entry/exit
instants, so residual error comes only from *path asymmetry* — which is
exactly why PTP, too, degrades over the paper's wireless hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clock.simclock import SimClock
from repro.net.message import Datagram
from repro.ptp.messages import (
    FLAG_TWO_STEP,
    PtpHeader,
    PtpMessageType,
    compute_ptp_offset,
)
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class PtpSample:
    """One completed two-step exchange.

    Attributes:
        offset: Slave clock minus master clock (seconds).
        mean_path_delay: One-way delay estimate (seconds).
        t1..t4: The exchange timestamps.
        sequence_id: Sync sequence this sample belongs to.
    """

    offset: float
    mean_path_delay: float
    t1: float
    t2: float
    t3: float
    t4: float
    sequence_id: int


class PtpMaster:
    """Grandmaster-side endpoint.

    Args:
        sim: Simulation kernel.
        clock: Master clock (the time source).
        send: Callable putting datagrams on the wire toward the slave.
        sync_interval: Seconds between Sync emissions.
        identity: 10-byte port identity.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: SimClock,
        send: Callable[[Datagram], None],
        sync_interval: float = 1.0,
        identity: bytes = b"MASTER0001",
    ) -> None:
        if sync_interval <= 0:
            raise ValueError("sync interval must be positive")
        self._sim = sim
        self.clock = clock
        self._send = send
        self.sync_interval = sync_interval
        self.identity = identity
        self._sequence = 0
        self.syncs_sent = 0
        self.delay_resps_sent = 0
        self._running = False

    def start(self) -> None:
        """Begin the Sync/Follow_Up cycle."""
        self._running = True
        self._sim.call_after(0.0, self._emit_sync, label="ptp:sync")

    def stop(self) -> None:
        """Halt Sync emission (Delay_Req are still answered)."""
        self._running = False

    def _emit_sync(self) -> None:
        if not self._running:
            return
        self._sequence = (self._sequence + 1) & 0xFFFF
        seq = self._sequence
        sync = PtpHeader(
            message_type=PtpMessageType.SYNC,
            sequence_id=seq,
            source_port_identity=self.identity,
            flags=FLAG_TWO_STEP,
            timestamp=None,  # two-step: precise t1 goes in Follow_Up
        )
        # Hardware timestamp captured as the frame leaves the port.
        t1 = self.clock.read()
        self._send(Datagram(payload=sync.encode(), src="ptp-master",
                            dst="ptp-slave", dst_port=319,
                            ident=self._sim.datagram_ids.allocate()))
        follow_up = PtpHeader(
            message_type=PtpMessageType.FOLLOW_UP,
            sequence_id=seq,
            source_port_identity=self.identity,
            timestamp=t1,
        )
        self._send(Datagram(payload=follow_up.encode(), src="ptp-master",
                            dst="ptp-slave", dst_port=320,
                            ident=self._sim.datagram_ids.allocate()))
        self.syncs_sent += 1
        self._sim.call_after(self.sync_interval, self._emit_sync, label="ptp:sync")

    def on_datagram(self, datagram: Datagram) -> None:
        """Handle slave messages (Delay_Req)."""
        try:
            message = PtpHeader.decode(datagram.payload)
        except ValueError:
            return
        if message.message_type != PtpMessageType.DELAY_REQ:
            return
        t4 = self.clock.read()  # hardware receive timestamp
        resp = PtpHeader(
            message_type=PtpMessageType.DELAY_RESP,
            sequence_id=message.sequence_id,
            source_port_identity=self.identity,
            timestamp=t4,
            requesting_port_identity=message.source_port_identity,
        )
        self.delay_resps_sent += 1
        self._send(Datagram(payload=resp.encode(), src="ptp-master",
                            dst=datagram.src, dst_port=320,
                            ident=self._sim.datagram_ids.allocate()))


class PtpSlave:
    """Slave-side endpoint collecting offset samples.

    Args:
        sim: Simulation kernel.
        clock: The slave's local clock.
        send: Callable putting datagrams on the wire toward the master.
        identity: 10-byte port identity.
        on_sample: Optional callback per completed exchange.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: SimClock,
        send: Callable[[Datagram], None],
        identity: bytes = b"SLAVE00001",
        on_sample: Optional[Callable[[PtpSample], None]] = None,
    ) -> None:
        self._sim = sim
        self.clock = clock
        self._send = send
        self.identity = identity
        self.on_sample = on_sample
        self.samples: List[PtpSample] = []
        #: Per-sequence partial state: t2 (sync arrival), t1 (follow-up).
        self._t2: Dict[int, float] = {}
        self._t1: Dict[int, float] = {}
        self._t3: Dict[int, float] = {}

    def on_datagram(self, datagram: Datagram) -> None:
        """Handle master messages (Sync / Follow_Up / Delay_Resp)."""
        try:
            message = PtpHeader.decode(datagram.payload)
        except ValueError:
            return
        seq = message.sequence_id
        if message.message_type == PtpMessageType.SYNC:
            self._t2[seq] = self.clock.read()
            self._maybe_send_delay_req(seq)
        elif message.message_type == PtpMessageType.FOLLOW_UP:
            if message.timestamp is None:
                return
            self._t1[seq] = message.timestamp
            self._maybe_send_delay_req(seq)
        elif message.message_type == PtpMessageType.DELAY_RESP:
            if message.requesting_port_identity != self.identity:
                return
            if message.timestamp is None:
                return
            self._complete(seq, message.timestamp)

    def _maybe_send_delay_req(self, seq: int) -> None:
        if seq in self._t1 and seq in self._t2 and seq not in self._t3:
            t3 = self.clock.read()
            self._t3[seq] = t3
            req = PtpHeader(
                message_type=PtpMessageType.DELAY_REQ,
                sequence_id=seq,
                source_port_identity=self.identity,
            )
            self._send(Datagram(payload=req.encode(), src="ptp-slave",
                                dst="ptp-master", dst_port=319,
                                ident=self._sim.datagram_ids.allocate()))

    def _complete(self, seq: int, t4: float) -> None:
        t1 = self._t1.pop(seq, None)
        t2 = self._t2.pop(seq, None)
        t3 = self._t3.pop(seq, None)
        if t1 is None or t2 is None or t3 is None:
            return
        offset, mean_delay = compute_ptp_offset(t1, t2, t3, t4)
        sample = PtpSample(
            offset=offset, mean_path_delay=mean_delay,
            t1=t1, t2=t2, t3=t3, t4=t4, sequence_id=seq,
        )
        self.samples.append(sample)
        self._sim.telemetry.emit(
            self._sim.now, "ptp", "sample",
            offset=offset, mean_delay=mean_delay, seq=seq,
        )
        if self.on_sample is not None:
            self.on_sample(sample)
