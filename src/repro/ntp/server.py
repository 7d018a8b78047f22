"""Simulated NTP server.

Each server owns a :class:`~repro.clock.simclock.SimClock` (high-grade
oscillator for honest servers) and answers client-mode packets with
server-mode responses carrying the four-timestamp exchange.  A
*persona* lets experiments include misbehaving servers:

* ``TRUECHIMER`` — honest, near-true clock;
* ``FALSETICKER`` — constant bias on its clock (the population MNTP's
  warm-up mean+1σ rejection must discard);
* ``NOISY`` — unbiased but high-variance timestamps (bad oscillator /
  load);
* ``UNRESPONSIVE`` — silently drops a fraction of requests;
* ``RATE_LIMITED`` — answers with kiss-of-death RATE packets once a
  client exceeds its request budget (pool servers do this to abusive
  SNTP clients);
* ``UNSYNCHRONIZED`` — answers, but advertises leap=ALARM / stratum 0
  style unsynchronized state (a server that lost its own upstream).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.clock.simclock import SimClock
from repro.net.message import Datagram
from repro.ntp.constants import LeapIndicator, Mode
from repro.ntp.packet import NtpPacket
from repro.obs.spans import Span
from repro.simcore.random import block_reader
from repro.simcore.simulator import Simulator


class ServerPersona(Enum):
    """Behavioural class of a simulated server."""

    TRUECHIMER = "truechimer"
    FALSETICKER = "falseticker"
    NOISY = "noisy"
    UNRESPONSIVE = "unresponsive"
    RATE_LIMITED = "rate_limited"
    UNSYNCHRONIZED = "unsynchronized"


@dataclass
class ServerFaultState:
    """Transient fault flags injected by :mod:`repro.faults.injectors`.

    Unlike a :class:`ServerPersona` — a *static* behavioural class — the
    fault state changes mid-run at episode boundaries.  The boolean-ish
    flags are depth counters so overlapping episodes nest: each episode
    increments its flag at start and decrements it at end, and the
    server misbehaves while any count is positive.

    Attributes:
        dead: Silently drop every request while positive.
        kod_storm: Answer every request with a kiss-of-death packet.
        unsynchronized: Answer with leap=ALARM / stratum 16.
        zero_transmit: Zero the transmit timestamp in responses.
        bias_step: Constant clock bias currently injected (seconds).
        bias_rate: Injected clock drift (seconds/second).
        bias_since: Time the current ``bias_rate`` took effect.
    """

    dead: int = 0
    kod_storm: int = 0
    unsynchronized: int = 0
    zero_transmit: int = 0
    bias_step: float = 0.0
    bias_rate: float = 0.0
    bias_since: float = 0.0

    def add_step(self, delta: float) -> None:
        """Add a constant bias component (negative delta reverts)."""
        self.bias_step += delta

    def add_rate(self, now: float, delta: float) -> None:
        """Change the drift rate at time ``now``.

        Bias accrued under the old rate is folded into ``bias_step``
        first, so rate changes compose and revert exactly.
        """
        self.bias_step += self.bias_rate * (now - self.bias_since)
        self.bias_since = now
        self.bias_rate += delta

    def bias(self, now: float) -> float:
        """Total injected clock bias at time ``now`` (seconds)."""
        return self.bias_step + self.bias_rate * (now - self.bias_since)


@dataclass
class ServerConfig:
    """Static server properties.

    Attributes:
        name: Address label ("0.pool.ntp.org" member, etc.).
        stratum: Advertised stratum (1 or 2 in the paper's dataset).
        persona: Behavioural class.
        processing_delay: Mean request-handling time (seconds).
        falseticker_bias: Clock bias applied when persona is FALSETICKER.
        noisy_sigma: Timestamp noise when persona is NOISY.
        drop_rate: Request drop probability when UNRESPONSIVE.
        rate_limit: Requests allowed per client before RATE_LIMITED
            servers start answering with kiss-of-death packets.
        ref_id: 4-byte reference identifier.
    """

    name: str
    stratum: int = 2
    persona: ServerPersona = ServerPersona.TRUECHIMER
    processing_delay: float = 0.0005
    falseticker_bias: float = 0.250
    noisy_sigma: float = 0.030
    drop_rate: float = 0.5
    rate_limit: int = 8
    ref_id: bytes = b"GPS\x00"

    def __post_init__(self) -> None:
        # The scale of the standard-form draw in ``NtpServer.on_datagram``.
        if not self.processing_delay >= 0.0:
            raise ValueError(
                f"processing_delay must be non-negative, got {self.processing_delay!r}"
            )


class NtpServer:
    """A responding NTP/SNTP server node.

    Args:
        sim: Simulation kernel.
        clock: The server's own clock (read for T2/T3).
        config: Static properties and persona.
        send_reply: Callable delivering a response datagram back toward
            the client; wired by the topology after construction.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: SimClock,
        config: ServerConfig,
        send_reply: Optional[Callable[[Datagram], None]] = None,
    ) -> None:
        self._sim = sim
        self.clock = clock
        self.config = config
        self.send_reply = send_reply
        self._rng = sim.rng.stream(f"server:{config.name}")
        # The processing delay is the stream's only draw unless the
        # persona also draws timestamp noise or drop decisions from it.
        if config.persona in (ServerPersona.NOISY, ServerPersona.UNRESPONSIVE):
            self._standard_exponential = self._rng.standard_exponential
        else:
            self._standard_exponential = block_reader(self._rng.standard_exponential)
        # Trace component name, precomputed: on_datagram is a hot root
        # and an f-string per ignored packet is per-event cost.
        self._component = f"server:{config.name}"
        self._respond_label = f"{self._component}:respond"
        #: Transient fault flags, mutated by the fault injector at
        #: episode boundaries (all-zero in benign runs).
        self.faults = ServerFaultState()
        self.requests_seen = 0
        self.responses_sent = 0
        self.kod_sent = 0
        self._per_client_requests: dict = {}

    # -- clock reads with persona applied ------------------------------------

    def _read_clock(self) -> float:
        value = self.clock.read()
        if self.config.persona is ServerPersona.FALSETICKER:
            value += self.config.falseticker_bias
        elif self.config.persona is ServerPersona.NOISY:
            value += float(self._rng.normal(0.0, self.config.noisy_sigma))
        return value + self.faults.bias(self._sim.now)

    # -- datagram handling ------------------------------------------------------

    def on_datagram(self, datagram: Datagram) -> None:
        """Receive-side entry point: parse, then schedule the reply."""
        self.requests_seen += 1
        if self.faults.dead:
            self._sim.telemetry.emit(
                self._sim.now, self._component, "ignored",
                cause="server_death", ident=datagram.ident,
                trace_id=datagram.trace_id,
            )
            return
        if self.config.persona is ServerPersona.UNRESPONSIVE:
            if self._rng.random() < self.config.drop_rate:
                self._sim.telemetry.emit(
                    self._sim.now, self._component, "ignored",
                    ident=datagram.ident, trace_id=datagram.trace_id,
                )
                return
        try:
            request = NtpPacket.decode(datagram.payload, pivot_unix=self._sim.now)
        except ValueError:
            return  # malformed; real servers drop these too
        if request.mode != Mode.CLIENT:
            return
        t2 = self._read_clock()
        # Turnaround span: request arrival through reply dispatch, tied
        # into the exchange's causal tree via the request's trace_id.
        span = self._sim.telemetry.spans.begin(
            "server.turnaround", server=self.config.name,
            ident=datagram.ident, trace_id=datagram.trace_id,
        )
        delay = self.config.processing_delay * self._standard_exponential()
        self._sim.call_after(
            delay,
            lambda: self._send_response(request, datagram, t2, span),
            self._respond_label,
        )

    def _send_response(
        self,
        request: NtpPacket,
        datagram: Datagram,
        t2: float,
        span: Optional["Span"] = None,
    ) -> None:
        if self.send_reply is None:
            raise RuntimeError(f"server {self.config.name} has no reply path wired")
        if self.faults.kod_storm:
            self._send_kiss_of_death(request, datagram, span)
            return
        if self.config.persona is ServerPersona.RATE_LIMITED:
            count = self._per_client_requests.get(datagram.src, 0) + 1
            self._per_client_requests[datagram.src] = count
            if count > self.config.rate_limit:
                self._send_kiss_of_death(request, datagram, span)
                return
        t3 = self._read_clock()
        if self.config.persona is ServerPersona.UNSYNCHRONIZED or self.faults.unsynchronized:
            response = NtpPacket(
                leap=LeapIndicator.ALARM,
                version=request.version,
                mode=Mode.SERVER,
                stratum=16,  # unsynchronized per RFC 5905 on the wire
                poll=request.poll,
                precision=-20,
                ref_id=b"INIT",
                origin_ts=request.transmit_ts,
                receive_ts=t2,
                transmit_ts=t3,
            )
            reply = Datagram(
                payload=response.encode(),
                src=self.config.name,
                dst=datagram.src,
                src_port=datagram.dst_port,
                dst_port=datagram.src_port,
                ident=self._sim.datagram_ids.allocate(),
                trace_id=datagram.trace_id,
            )
            self.responses_sent += 1
            if span is not None:
                span.end(outcome="unsynchronized")
            self.send_reply(reply)
            return
        response = NtpPacket(
            leap=LeapIndicator.NO_WARNING,
            version=request.version,
            mode=Mode.SERVER,
            stratum=self.config.stratum,
            poll=request.poll,
            precision=-20,
            root_delay=0.001 * self.config.stratum,
            root_dispersion=0.002 * self.config.stratum,
            ref_id=self.config.ref_id,
            reference_ts=t3 - 16.0,
            origin_ts=request.transmit_ts,
            receive_ts=t2,
            # A zero-transmit fault ships the RFC 4330 "you must
            # discard this" packet: transmit timestamp all zeros.
            transmit_ts=None if self.faults.zero_transmit else t3,
        )
        reply = Datagram(
            payload=response.encode(),
            src=self.config.name,
            dst=datagram.src,
            src_port=datagram.dst_port,
            dst_port=datagram.src_port,
            ident=self._sim.datagram_ids.allocate(),
            trace_id=datagram.trace_id,
        )
        self.responses_sent += 1
        if span is not None:
            span.end(outcome="ok")
        self.send_reply(reply)

    def _send_kiss_of_death(
        self,
        request: NtpPacket,
        datagram: Datagram,
        span: Optional["Span"] = None,
    ) -> None:
        """Stratum-0 RATE response telling the client to back off."""
        kod = NtpPacket(
            leap=LeapIndicator.ALARM,
            version=request.version,
            mode=Mode.SERVER,
            stratum=0,
            poll=request.poll,
            precision=-20,
            ref_id=b"RATE",
            origin_ts=request.transmit_ts,
            transmit_ts=self._sim.now,
        )
        reply = Datagram(
            payload=kod.encode(),
            src=self.config.name,
            dst=datagram.src,
            src_port=datagram.dst_port,
            dst_port=datagram.src_port,
            ident=self._sim.datagram_ids.allocate(),
            trace_id=datagram.trace_id,
        )
        self.kod_sent += 1
        if span is not None:
            span.end(outcome="kod")
        self.send_reply(reply)
