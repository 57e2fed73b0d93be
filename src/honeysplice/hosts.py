"""Hosts attached to the switch: the attacker, which plays a request
schedule, TCP servers (victim and honey alike), and the echo hosts that
send background load (one request per flow, which nothing answers),
returned by ``spawn_background_load`` for the caller to register; every
rep sends the same echo packets, built once per process.

Each host owns an uplink toward the switch; the switch owns the downlink
back. An echo host takes a port with no downlink: the switch forwards
nothing out of it, so a request that reaches it schedules no delivery
event. Servers can additionally be driven *out of band*, the seam the
controller uses to splice without touching the data plane: deliver_oob
processes a forged segment normally but returns its emissions instead of
transmitting them (handshakes, RSTs); replay_oob gives the app a recorded
window in one call and moves both positions past it, building no response.
"""

from __future__ import annotations

import functools
from ipaddress import IPv4Address
from typing import Optional, Sequence

from .endpoint import PAYLOAD_CACHE_SIZE, ConnState, IssPolicy, ServerApp, TcpEndpoint
from .netcore import HostAddr, TcpFlags, TcpSegment, seq_add
from .simnet import EchoPacket, Engine, Link, LinkModel
from .vswitch import Switch


class Host:
    """Base device: an address, an uplink, and a port on the switch."""

    def __init__(self, engine: Engine, name: str, addr: HostAddr):
        self.engine = engine
        self.name = name
        self.addr = addr
        self.uplink: Optional[Link] = None
        self.port: int = 0

    def attach(self, switch: Switch, model: LinkModel) -> None:
        """Wire host<->switch links (one per direction) and take a port."""
        self.uplink = Link(self.engine, f"{self.name}:up", model, switch.process)
        downlink = Link(self.engine, f"{self.name}:down", model, self.deliver)
        self.port = switch.attach(downlink)

    def transmit(self, pkt) -> None:
        self.uplink.send(pkt)

    def deliver(self, pkt) -> None:
        raise NotImplementedError


class ServerHost(Host):
    """TCP server host running one deterministic app on one listen port.

    The app (and its request log) lives on the *host*: it survives a
    connection being torn down and re-spliced, so replay only ever has to
    cover what the app has not yet seen.
    """

    def __init__(self, engine: Engine, name: str, addr: HostAddr,
                 listen_port: int, app: ServerApp, iss_policy: IssPolicy):
        super().__init__(engine, name, addr)
        self.listen_port = listen_port
        self.app = app
        self._iss_policy = iss_policy
        self.conns: dict[tuple[str, int], TcpEndpoint] = {}

    def _handle(self, seg: TcpSegment) -> list[TcpSegment]:
        if seg.dport != self.listen_port:
            return []
        key = (seg.src.ip, seg.sport)
        conn = self.conns.get(key)
        if conn is None or conn.state is ConnState.CLOSED_FINAL:
            # only a bare SYN opens an endpoint, or replaces a closed one
            if seg.flags & (TcpFlags.SYN | TcpFlags.ACK) == TcpFlags.SYN:
                conn = self.conns[key] = TcpEndpoint(
                    self.addr, self.listen_port, seg.src, seg.sport, self._iss_policy)
            elif conn is None:
                return []
        emitted, delivered = conn.on_segment(seg)
        if delivered:
            # the ack of delivered data is ours: one data segment == one
            # application request, whose response carries the ack
            if conn.state is ConnState.ESTABLISHED:
                return [conn.app_send(self.app.respond(delivered))]
            return [conn.ack_now()]
        return emitted

    def deliver(self, pkt: TcpSegment) -> None:
        for seg in self._handle(pkt):
            self.transmit(seg)

    def deliver_oob(self, seg: TcpSegment) -> list[TcpSegment]:
        """Process a forged segment; return emissions instead of sending."""
        return self._handle(seg)

    def replay_oob(self, peer: tuple[str, int], requests: list[bytes]) -> None:
        """Replay ``requests``, the next bytes from ``peer`` (ip, port), which
        has their responses: the app takes them and both positions move past."""
        conn = self.conns[peer]
        conn.rcv_nxt = seq_add(conn.rcv_nxt, sum(map(len, requests)))
        conn.snd_nxt = seq_add(conn.snd_nxt, self.app.replay(requests))


@functools.lru_cache(maxsize=PAYLOAD_CACHE_SIZE)
def make_request(index: int, size: int) -> bytes:
    """Deterministic request payload k of a session, exactly ``size`` bytes.

    A pure function of its arguments, cached: the payloads are immutable
    bytes, so every repetition of a run sends the same objects, and a
    server's ``ServerApp.respond`` finds their responses in its own cache.
    """
    stamp = b"r%06d-" % index
    reps = size // len(stamp) + 1
    return (stamp * reps)[:size]


class AttackerHost(Host):
    """Scripted client: the measurement instrument.

    Plays ``requests``, a schedule of ``(gap_us, size)`` pairs: request k
    (numbered from 1) is ``size`` bytes, sent ``gap_us`` after request
    k - 1 or, for the first, after the handshake completes (pipelined on a
    timer, not lockstep). It records per-request RTTs, and checks the
    stealth invariants on every inbound segment:

      * it never receives RST or FIN (it never closes, so any FIN is
        unsolicited);
      * every ack received equals its snd_nxt at that moment;
      * peer data always lands exactly at rcv_nxt (one gapless stream).

    Violations are collected, not raised, so a run can report all of them.
    It also records ``sent_requests``, ``send_ts``/``recv_ts`` and, in
    ``received``, each delivered payload in order, by reference: each is an
    immutable ``bytes``, so none can change, though a server's response
    cache shares it with every repetition that gets the same response.
    """

    def __init__(self, engine: Engine, name: str, addr: HostAddr,
                 server_addr: HostAddr, server_port: int, sport: int,
                 iss_policy: IssPolicy, requests: Sequence[tuple[int, int]]):
        super().__init__(engine, name, addr)
        self.conn = TcpEndpoint(addr, sport, server_addr, server_port, iss_policy)
        self.requests = requests
        self.send_ts: dict[int, int] = {}
        self.recv_ts: dict[int, int] = {}   # keyed by the request a response acks
        self.sent_requests: list[bytes] = []
        self.received: list[bytes] = []
        self._stream: Optional[bytearray] = None  # received, joined on read
        self._request_by_end: dict[int, int] = {}  # request end seq -> index
        self.violations: list[str] = []

    # -- script ------------------------------------------------------------

    def start(self, at: int) -> None:
        self.engine.schedule(self._open, at)

    def _open(self) -> None:
        self.transmit(self.conn.open())

    def _send_next(self) -> None:
        """Send the next request of the schedule and schedule the one after."""
        k = len(self.sent_requests) + 1  # requests are numbered from 1
        payload = make_request(k, self.requests[k - 1][1])
        seg = self.conn.app_send(payload)
        self.sent_requests.append(payload)
        self.send_ts[k] = self.engine.now
        self._request_by_end[seq_add(seg.seq, len(payload))] = k
        self.transmit(seg)
        if k < len(self.requests):
            self.engine.schedule(self._send_next, self.engine.now + self.requests[k][0])

    # -- inbound -----------------------------------------------------------

    def _check_stealth(self, seg: TcpSegment) -> None:
        if seg.flags & TcpFlags.RST:
            self.violations.append(f"t={self.engine.now} received RST")
        if seg.flags & TcpFlags.FIN:
            self.violations.append(f"t={self.engine.now} received unsolicited FIN")
        if self.conn.state is ConnState.ESTABLISHED:
            if (seg.flags & TcpFlags.ACK) and seg.ack != self.conn.snd_nxt:
                self.violations.append(
                    f"t={self.engine.now} ack discontinuity: got {seg.ack}, "
                    f"snd_nxt {self.conn.snd_nxt}")
            if seg.payload and seg.seq != self.conn.rcv_nxt:
                self.violations.append(
                    f"t={self.engine.now} peer seq gap: got {seg.seq}, "
                    f"expected {self.conn.rcv_nxt}")

    def deliver(self, pkt: TcpSegment) -> None:
        self._check_stealth(pkt)
        was_established = self.conn.state is ConnState.ESTABLISHED
        emitted, delivered = self.conn.on_segment(pkt)
        if delivered:
            self.received.append(delivered)
            self._stream = None
            # a server answers each request segment as it consumes it, so
            # the response acks exactly that request's end
            self.recv_ts[self._request_by_end[pkt.ack]] = self.engine.now
            self.transmit(self.conn.ack_now())  # the endpoint leaves it to us
        for seg in emitted:
            self.transmit(seg)
        if not was_established and self.conn.state is ConnState.ESTABLISHED:
            if self.requests:
                self.engine.schedule_in(self._send_next, self.requests[0][0])

    @property
    def received_stream(self) -> bytearray:
        """Every payload received so far, joined on the first read after a
        chunk arrives; an edit to it lasts until the next chunk."""
        if self._stream is None:
            self._stream = bytearray().join(self.received)
        return self._stream

    @property
    def complete(self) -> bool:
        return len(self.recv_ts) >= len(self.requests)


class EchoHost(Host):
    """Background-load host: sends echo requests and drops what it receives."""

    def attach(self, switch: Switch, model: LinkModel) -> None:
        """Wire the uplink only: the port has no link, so it is a sink."""
        self.uplink = Link(self.engine, f"{self.name}:up", model, switch.process)
        self.port = switch.attach(None)

    def deliver(self, pkt) -> None:
        """Never called: the port has no link, so nothing arrives here."""


class _EchoEmitter:
    """Sends flow k's request at k * 71 µs, then schedules itself for flow
    k + 1: one pending event for the whole load, and as a bound method of
    a slotted object it forms no cycle that outlives the last flow."""

    __slots__ = ("flows", "k")

    def __init__(self, flows: list[tuple[EchoHost, EchoPacket]]) -> None:
        self.flows, self.k = flows, 0

    def emit(self) -> None:
        k = self.k
        host, pkt = self.flows[k]
        host.transmit(pkt)
        self.k = k = k + 1
        if k < len(self.flows):
            host.engine.schedule(self.emit, k * 71)


@functools.lru_cache(maxsize=1)
def _background(n: int, procs: int) -> tuple[tuple[HostAddr, ...], tuple[tuple, ...]]:
    """Echo host j's address (j from 1: 10.1.0.0 + j, MAC 02:00:01:00:00:00 + j)
    and, per host, its flows' write-once ``EchoPacket``s: cached like ``make_request``."""
    addrs = tuple(HostAddr(str(IPv4Address(0x0A01_0000 + j)),
                           (0x0200_0100_0000 + j).to_bytes(6, "big").hex(":"))
                  for j in range(1, n + 1))
    return addrs, tuple(tuple(EchoPacket(addr, addrs[(i + 1 + p % max(n - 1, 1)) % n],
                                         10_000 + i * procs + p, 7) for p in range(procs))
                        for i, addr in enumerate(addrs))


def spawn_background_load(engine: Engine, switch: Switch, n: int, procs: int,
                          link_model: LinkModel) -> list[EchoHost]:
    """Create n x procs echo flows of one request each, from n echo hosts
    attached to ``switch``; returns the hosts. Addresses and requests come
    from ``_background``, built once per process for the last (n, procs).

    Every flow gets a unique source port, so its request misses the flow
    table and takes the controller's packet-in path. That is the only load
    a flow can put on anything: links and the switch model no capacity, so
    once its rule is installed further traffic would cost nothing that an
    output reads. Flow k's request leaves at k * 71 µs, a stagger that
    keeps the event order stable and the controller queue realistic.
    """
    addrs, packets = _background(n, procs)
    hosts = [EchoHost(engine, f"bg{i}", addr) for i, addr in enumerate(addrs)]
    for host in hosts:
        host.attach(switch, link_model)
    flows = [(host, pkt) for host, pkts in zip(hosts, packets) for pkt in pkts]
    if flows:
        engine.schedule(_EchoEmitter(flows).emit, 0)
    return hosts
