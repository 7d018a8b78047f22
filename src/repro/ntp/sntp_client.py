"""SNTP client (RFC 4330).

The client is transport-agnostic: the topology supplies a ``send``
callable and routes response datagrams back into :meth:`on_datagram`.
Each query is sent from its own ephemeral source port (as a real UDP
client socket would be), the server echoes the port, and the response
is matched to the outstanding query by that port; the origin timestamp
is additionally verified against the request's transmit timestamp, the
same sanity check real SNTP clients perform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.clock.simclock import SimClock
from repro.net.message import Datagram
from repro.ntp.constants import LeapIndicator, Mode
from repro.ntp.packet import NtpPacket
from repro.ntp.wire import OffsetSample, sample_from_exchange
from repro.obs.spans import Span
from repro.simcore.simulator import Event, Simulator


@dataclass
class SntpResult:
    """Outcome of one SNTP query.

    Attributes:
        sample: The derived offset/delay sample (None on timeout).
        server_name: Who was asked (post pool resolution, if known).
        timed_out: True if no response arrived within the timeout.
        kiss_of_death: True if the server answered with a KoD packet
            (e.g. RATE) — the client backs off from that server.
        unsynchronized: True if the server advertised it has no valid
            time (leap alarm / stratum 16).
        invalid: True if the response failed RFC 4330 sanity validation
            (e.g. a zeroed transmit timestamp) and was discarded.
        backed_off: True if the query never touched the wire because
            every eligible server was under a backoff window.
    """

    sample: Optional[OffsetSample]
    server_name: str
    timed_out: bool = False
    kiss_of_death: bool = False
    unsynchronized: bool = False
    invalid: bool = False
    backed_off: bool = False

    @property
    def ok(self) -> bool:
        """Whether a usable sample was obtained."""
        return self.sample is not None


@dataclass(frozen=True)
class HardeningPolicy:
    """Client-side robustness knobs (see docs/ROBUSTNESS.md).

    A client constructed with a policy keeps per-server health state,
    applies exponential backoff with deterministic jitter after
    failures, and — when ``failover`` is on and peers are registered —
    reroutes queries away from unhealthy servers.

    Attributes:
        backoff_base: Hold-off after the first consecutive failure (s).
        backoff_factor: Multiplier per further consecutive failure.
        backoff_max: Hold-off ceiling (seconds).
        jitter_frac: Backoff windows are scaled by a deterministic
            draw from ``1 ± jitter_frac`` so the fleet's retries do not
            synchronize.
        failover: Reroute to the healthiest eligible peer when the
            requested server is under backoff.
        health_decay: Exponential smoothing factor of the per-server
            health score (closer to 1.0 = longer memory).
    """

    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    jitter_frac: float = 0.1
    failover: bool = True
    health_decay: float = 0.8

    def __post_init__(self) -> None:
        """Validate knob ranges."""
        if self.backoff_base <= 0 or self.backoff_max <= 0:
            raise ValueError("backoff windows must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        if not 0.0 <= self.health_decay < 1.0:
            raise ValueError("health_decay must be in [0, 1)")


class ServerHealth:
    """Per-server score and backoff bookkeeping for a hardened client.

    The score is an exponentially smoothed success indicator in
    ``[0, 1]``; consecutive failures also open an exponentially growing
    hold-off window during which the server is not queried.
    """

    __slots__ = (
        "name", "score", "consecutive_failures", "backoff_until",
        "successes", "failures",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.score = 1.0
        self.consecutive_failures = 0
        self.backoff_until = 0.0
        self.successes = 0
        self.failures = 0

    def eligible(self, now: float) -> bool:
        """Whether the server may be queried at time ``now``."""
        return now >= self.backoff_until

    def record_success(self, policy: HardeningPolicy) -> None:
        """Fold a success in: score rises, backoff resets."""
        self.successes += 1
        self.consecutive_failures = 0
        self.backoff_until = 0.0
        self.score = policy.health_decay * self.score + (1.0 - policy.health_decay)

    def record_failure(self, now: float, policy: HardeningPolicy, jitter: float) -> None:
        """Fold a failure in: score decays, the hold-off window grows.

        Args:
            now: Current virtual time.
            policy: Backoff shape.
            jitter: Deterministic multiplier drawn from
                ``1 ± jitter_frac`` by the client.
        """
        self.failures += 1
        self.consecutive_failures += 1
        self.score = policy.health_decay * self.score
        window = min(
            policy.backoff_base
            * policy.backoff_factor ** (self.consecutive_failures - 1),
            policy.backoff_max,
        )
        self.backoff_until = now + window * jitter


class SntpClient:
    """Minimal one-shot SNTP querier bound to a local clock.

    Args:
        sim: Simulation kernel.
        clock: Local clock supplying T1/T4 readings.
        send: Callable that puts a request datagram on the wire.
        name: Source address label for datagrams.
        default_timeout: Seconds to wait before declaring a query lost.
        kod_backoff: Seconds to refuse querying a server after it sent
            a kiss-of-death packet (RFC 4330 demands clients stop);
            used when the KoD packet carries no usable poll hint.
        min_kod_holdoff: Floor on the KoD hold-off, applied even when
            the packet's poll field advertises a shorter retry hint.
        max_pending: Cap on the outstanding-query table; when full, the
            oldest in-flight query is failed early so a dead server
            cannot accumulate state.
        hardening: Optional robustness policy; None keeps the exact
            baseline behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: SimClock,
        send: Callable[[Datagram], None],
        name: str = "client",
        default_timeout: float = 2.0,
        kod_backoff: float = 900.0,
        min_kod_holdoff: float = 60.0,
        max_pending: int = 64,
        hardening: Optional[HardeningPolicy] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._sim = sim
        self.clock = clock
        self._send = send
        self.name = name
        self.default_timeout = default_timeout
        self.kod_backoff = kod_backoff
        self.min_kod_holdoff = min_kod_holdoff
        self.max_pending = max_pending
        self.hardening = hardening
        # Outstanding queries keyed by the ephemeral source port.
        self._pending: Dict[int, "_PendingQuery"] = {}
        self._next_port = 10_000
        # Per-client exchange sequence feeding causal trace ids.
        self._trace_seq = 0
        # Servers that sent kiss-of-death: name -> earliest retry time.
        self._kod_until: Dict[str, float] = {}
        self.queries_sent = 0
        self.responses_received = 0
        self.timeouts = 0
        self.kod_received = 0
        self.invalid_received = 0
        self.failovers = 0
        self.backed_off_queries = 0
        self.pending_evictions = 0
        # Hardened-only state, created lazily so plain clients keep the
        # exact RNG stream set of the baseline.
        self.health: Dict[str, ServerHealth] = {}
        self._peers: "list[str]" = []
        self._hardening_rng = (
            sim.rng.stream(f"sntp-hardening:{name}") if hardening else None
        )

    # -- hardening ---------------------------------------------------------

    def set_failover_peers(self, peers: "list[str]") -> None:
        """Register the server names failover may reroute to."""
        self._peers = [p for p in peers]

    def _health_of(self, server_name: str) -> ServerHealth:
        health = self.health.get(server_name)
        if health is None:
            health = self.health[server_name] = ServerHealth(server_name)
        return health

    def _jitter(self) -> float:
        assert self.hardening is not None and self._hardening_rng is not None
        frac = self.hardening.jitter_frac
        return 1.0 + float(self._hardening_rng.uniform(-frac, frac))

    def _note_outcome(self, server_name: str, result: SntpResult) -> None:
        """Fold a query outcome into the server's health state."""
        if self.hardening is None:
            return
        health = self._health_of(server_name)
        if result.ok:
            health.record_success(self.hardening)
        else:
            health.record_failure(self._sim.now, self.hardening, self._jitter())

    def _under_kod(self, server_name: str) -> bool:
        """Whether ``server_name`` is inside a KoD hold-off (pruning
        expired entries as a side effect)."""
        until = self._kod_until.get(server_name)
        if until is None:
            return False
        if self._sim.now < until:
            return True
        del self._kod_until[server_name]
        return False

    def _select_server(self, requested: str) -> Optional[str]:
        """Pick the server to actually query (hardened clients only).

        The requested server wins when eligible; otherwise the
        healthiest eligible registered peer (score descending, name as
        the deterministic tiebreak).  None when everything is under a
        backoff or KoD window.
        """
        assert self.hardening is not None

        def usable(name: str) -> bool:
            if self._under_kod(name):
                return False
            return self._health_of(name).eligible(self._sim.now)

        if usable(requested):
            return requested
        if not self.hardening.failover:
            return None
        candidates = [p for p in self._peers if p != requested and usable(p)]
        if not candidates:
            return None
        candidates.sort(key=lambda n: (-self._health_of(n).score, n))
        return candidates[0]

    def query(
        self,
        server_name: str,
        callback: Callable[[SntpResult], None],
        timeout: Optional[float] = None,
        version: int = 3,
    ) -> None:
        """Fire one SNTP request; ``callback`` runs on response/timeout.

        Queries to a server currently under kiss-of-death back-off fail
        immediately without touching the wire.  A hardened client
        additionally reroutes away from servers under failure backoff
        (see :class:`HardeningPolicy`) and fails fast with
        ``backed_off=True`` when no server is eligible.
        """
        if self.hardening is not None:
            chosen = self._select_server(server_name)
            if chosen is None:
                self.backed_off_queries += 1
                self._sim.call_after(
                    0.0,
                    lambda: callback(SntpResult(
                        sample=None, server_name=server_name,
                        backed_off=True,
                    )),
                    label="sntp:backed-off",
                )
                return
            if chosen != server_name:
                self.failovers += 1
            server_name = chosen
            inner_callback = callback

            def callback(result: SntpResult) -> None:
                self._note_outcome(chosen, result)
                inner_callback(result)

        elif self._under_kod(server_name):
            self._sim.call_after(
                0.0,
                lambda: callback(SntpResult(
                    sample=None, server_name=server_name,
                    kiss_of_death=True,
                )),
                label="sntp:kod-backoff",
            )
            return
        timeout = self.default_timeout if timeout is None else timeout
        if len(self._pending) >= self.max_pending:
            self._evict_oldest_pending()
        t1 = self.clock.read()
        request = NtpPacket.sntp_request(t1, version=version)
        payload = request.encode()
        port = self._next_port
        self._next_port = 10_000 + (self._next_port - 9_999) % 50_000
        self._trace_seq += 1
        trace_id = f"{self.name}/{self._trace_seq}"
        datagram = Datagram(
            payload=payload, src=self.name, dst=server_name, src_port=port,
            ident=self._sim.datagram_ids.allocate(), trace_id=trace_id,
        )
        # Root span of the exchange's causal tree; hop and server spans
        # link to it through the shared trace_id.
        span = self._sim.telemetry.spans.begin(
            "sntp.exchange", trace_id=trace_id, client=self.name,
            server=server_name,
        )

        pending = _PendingQuery(
            t1=t1,
            t1_wire=payload[40:48],  # echoes back as the origin timestamp
            server_name=server_name,
            callback=callback,
            timeout_event=None,
            trace_id=trace_id,
            span=span,
        )
        pending.timeout_event = self._sim.call_after(
            timeout, lambda: self._on_timeout(port), label="sntp:timeout"
        )
        self._pending[port] = pending
        self.queries_sent += 1
        self._send(datagram)

    def on_datagram(self, datagram: Datagram) -> None:
        """Receive-side entry point for server responses."""
        if len(datagram.payload) < 48:
            return
        pending = self._pending.get(datagram.dst_port)
        if pending is None:
            return  # late duplicate or stray packet
        if bytes(datagram.payload[24:32]) != pending.t1_wire:
            return  # origin mismatch: not a reply to our request
        del self._pending[datagram.dst_port]
        assert pending.timeout_event is not None
        pending.timeout_event.cancel()
        try:
            response = NtpPacket.decode(datagram.payload, pivot_unix=self._sim.now)
        except ValueError:
            pending.span.end(outcome="malformed", server=datagram.src)
            pending.callback(
                SntpResult(sample=None, server_name=pending.server_name, timed_out=False)
            )
            return
        if response.is_kiss_of_death():
            self.kod_received += 1
            holdoff = self._kod_holdoff(response)
            self._kod_until[datagram.src] = self._sim.now + holdoff
            # Back off from the asked name too (pool rotation hides the
            # member behind the hostname the caller uses).
            if pending.server_name != datagram.src:
                self._kod_until[pending.server_name] = self._sim.now + holdoff
            pending.span.end(outcome="kod", server=datagram.src)
            pending.callback(
                SntpResult(sample=None, server_name=datagram.src,
                           kiss_of_death=True)
            )
            return
        if response.mode != Mode.SERVER:
            pending.span.end(outcome="bad_mode", server=datagram.src)
            pending.callback(
                SntpResult(sample=None, server_name=pending.server_name, timed_out=False)
            )
            return
        if response.leap == LeapIndicator.ALARM or response.stratum >= 16:
            pending.span.end(outcome="unsynchronized", server=datagram.src)
            pending.callback(
                SntpResult(sample=None, server_name=datagram.src,
                           unsynchronized=True)
            )
            return
        if response.receive_ts is None or response.transmit_ts is None:
            # RFC 4330 §5: a zeroed transmit timestamp means the reply
            # carries no time and MUST be discarded.  Without this
            # guard sample_from_exchange would raise out of the event
            # loop and crash the run.
            self.invalid_received += 1
            pending.span.end(outcome="invalid", server=datagram.src)
            pending.callback(
                SntpResult(sample=None, server_name=datagram.src, invalid=True)
            )
            return
        t4 = self.clock.read()
        self.responses_received += 1
        sample = sample_from_exchange(pending.t1, response, t4)
        pending.span.end(
            outcome="ok", server=datagram.src,
            offset=sample.offset, delay=sample.delay,
        )
        pending.callback(
            SntpResult(sample=sample, server_name=datagram.src, timed_out=False)
        )

    def _kod_holdoff(self, response: NtpPacket) -> float:
        """Hold-off to apply after a kiss-of-death response.

        RFC 4330 lets the KoD packet's poll field hint at a retry
        interval (2^poll seconds); when the hint is absent or
        implausible the configured ``kod_backoff`` applies.  Either way
        the hold-off is floored at ``min_kod_holdoff`` so a mangled
        hint can never turn KoD into an invitation to hammer.
        """
        if 1 <= response.poll <= 17:
            hint = 2.0 ** response.poll
        else:
            hint = self.kod_backoff
        return max(hint, self.min_kod_holdoff)

    def _evict_oldest_pending(self) -> None:
        """Fail the oldest in-flight query to make room for a new one.

        Keeps the pending table bounded by ``max_pending`` even when a
        dead server swallows every request faster than timeouts fire.
        """
        port, pending = next(iter(self._pending.items()))
        del self._pending[port]
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        self.pending_evictions += 1
        pending.span.end(outcome="evicted")
        pending.callback(
            SntpResult(sample=None, server_name=pending.server_name, timed_out=True)
        )

    def _on_timeout(self, port: int) -> None:
        pending = self._pending.pop(port, None)
        if pending is None:
            return
        self.timeouts += 1
        pending.span.end(outcome="timeout")
        pending.callback(
            SntpResult(sample=None, server_name=pending.server_name, timed_out=True)
        )


class _PendingQuery:
    """Book-keeping for one in-flight query."""

    __slots__ = (
        "t1", "t1_wire", "server_name", "callback", "timeout_event",
        "trace_id", "span",
    )

    def __init__(
        self,
        t1: float,
        t1_wire: bytes,
        server_name: str,
        callback: Callable[[SntpResult], None],
        timeout_event: Optional[Event],
        trace_id: str,
        span: "Span",
    ) -> None:
        self.t1 = t1
        self.t1_wire = t1_wire
        self.server_name = server_name
        self.callback = callback
        self.timeout_event = timeout_event
        self.trace_id = trace_id
        self.span = span

