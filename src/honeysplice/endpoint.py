"""TCP-lite endpoint state machine and the deterministic server app.

The endpoint implements exactly the machinery the redirection mechanism
exercises: three-way handshake, in-order data with cumulative acks,
duplicate and overlap tolerance, FIN/RST teardown. No retransmission,
windows, congestion control or reassembly: a jittered ``simnet.Link`` may
reorder packets, and a segment beyond ``rcv_nxt`` is acked and dropped, so
one reordering stalls the stream for good.

Receiving uses header prediction (Jacobson, 1990): in ESTABLISHED, a pure ACK
returns at once and a data segment without FIN at ``rcv_nxt`` is delivered
whole; duplicates, gaps, overlaps and FIN take the full path. The ACK of
delivered data is the caller's: it sends ``ack_now()`` or piggybacks the ack
on its response (``app_send`` acks ``rcv_nxt``; RFC 1122 4.2.3.2).

States: CLOSED -> SYN_SENT | SYN_RCVD -> ESTABLISHED -> FIN_WAIT /
CLOSE_WAIT -> CLOSED_FINAL. RST jumps straight to CLOSED_FINAL.
"""

from __future__ import annotations

import random
from typing import Callable

from .netcore import (
    SEQ_MOD,
    HostAddr,
    TcpFlags,
    TcpSegment,
    seg_end,
    seq_add,
    seq_leq,
    seq_lt,
    seq_sub,
)


class InvalidState(Exception):
    """Operation not legal in the connection's current state."""


class EmptyPayload(Exception):
    """app_send called with zero bytes."""


class ConnState:
    """Connection states as plain strings, each its own name; not an Enum,
    like ``TcpFlags``, since every segment reads states and a member read
    costs about five class attribute reads."""

    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT = "FIN_WAIT"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSED_FINAL = "CLOSED_FINAL"


IssPolicy = Callable[[], int]
_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK


def fixed_iss(value: int) -> IssPolicy:
    """ISS policy that always returns ``value`` (exact unit tests)."""
    return lambda: value % SEQ_MOD


def random_iss(rng: random.Random) -> IssPolicy:
    """Seeded-random ISS policy; reproducible for a fixed stream."""
    return lambda: rng.randrange(SEQ_MOD)


class TcpEndpoint:
    """One side of a TCP-lite connection.

    Callers drive it with ``open`` / ``on_segment`` / ``app_send`` /
    ``close`` / ``abort`` and transmit whatever segments those return; it
    reads no clock, so it stays a pure state machine.
    """

    def __init__(self, local: HostAddr, lport: int, remote: HostAddr, rport: int,
                 iss_policy: IssPolicy):
        self.local = local
        self.lport = lport
        self.remote = remote
        self.rport = rport
        self._iss_policy = iss_policy
        self.state = ConnState.CLOSED
        self.iss = 0
        self.snd_nxt = 0
        self.rcv_nxt = 0

    # -- segment construction -------------------------------------------------

    def _make(self, flags: int, seq: int, payload: bytes = b"") -> TcpSegment:
        return TcpSegment(self.local, self.remote, self.lport, self.rport,
                          seq, self.rcv_nxt, flags, payload)

    def ack_now(self) -> TcpSegment:
        """A pure ACK of everything received so far."""
        return TcpSegment(self.local, self.remote, self.lport, self.rport,
                          self.snd_nxt, self.rcv_nxt, TcpFlags.ACK)

    # -- operations ------------------------------------------------------------

    def open(self) -> TcpSegment:
        """Active open: emit SYN with a fresh ISS, move to SYN_SENT."""
        if self.state is not ConnState.CLOSED:
            raise InvalidState(f"open in {self.state}")
        self.iss = self._iss_policy()
        seg = self._make(TcpFlags.SYN, self.iss)  # its ack, rcv_nxt, is still 0
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = ConnState.SYN_SENT
        return seg

    def app_send(self, data: bytes) -> TcpSegment:
        """Send application bytes as one PSH-ACK segment."""
        if self.state is not ConnState.ESTABLISHED:
            raise InvalidState(f"app_send in {self.state}")
        if not data:
            raise EmptyPayload("refusing to send empty payload")
        seg = TcpSegment(self.local, self.remote, self.lport, self.rport,
                         self.snd_nxt, self.rcv_nxt, _PSH_ACK, bytes(data))
        self.snd_nxt = seq_add(self.snd_nxt, len(data))
        return seg

    def close(self) -> TcpSegment:
        """Graceful close: FIN consumes one sequence unit."""
        if self.state is not ConnState.ESTABLISHED:
            raise InvalidState(f"close in {self.state}")
        seg = self._make(TcpFlags.FIN | TcpFlags.ACK, self.snd_nxt)
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.state = ConnState.FIN_WAIT
        return seg

    def abort(self) -> TcpSegment:
        """Hard reset toward the peer; terminates immediately."""
        if self.state in (ConnState.CLOSED, ConnState.CLOSED_FINAL):
            raise InvalidState(f"abort in {self.state}")
        seg = self._make(TcpFlags.RST | TcpFlags.ACK, self.snd_nxt)
        self.state = ConnState.CLOSED_FINAL
        return seg

    def on_segment(self, seg: TcpSegment) -> tuple[list[TcpSegment], bytes]:
        """Process one inbound segment.

        Returns (segments to emit, application bytes delivered). With
        delivered bytes it returns no segment: their ACK is the caller's.
        Protocol anomalies are states, not exceptions: out-of-window data
        is re-acked and dropped, RST silences the connection.
        """
        flags = seg.flags
        if flags & TcpFlags.RST:
            self.state = ConnState.CLOSED_FINAL
            return [], b""

        st = self.state
        if st is ConnState.ESTABLISHED:
            if not flags & TcpFlags.FIN:
                payload = seg.payload
                if not payload:  # a pure ACK: nothing to deliver or answer
                    return [], b""
                if seg.seq == self.rcv_nxt:
                    # header prediction: the next in-order segment
                    self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
                    return [], payload
            return self._on_established_segment(seg)

        if st is ConnState.CLOSED:
            if (seg.flags & TcpFlags.SYN) and not (seg.flags & TcpFlags.ACK):
                # passive open: answer SYN with SYN-ACK
                self.remote = seg.src
                self.rport = seg.sport
                self.iss = self._iss_policy()
                self.rcv_nxt = seq_add(seg.seq, 1)
                self.snd_nxt = seq_add(self.iss, 1)
                self.state = ConnState.SYN_RCVD
                synack = self._make(TcpFlags.SYN | TcpFlags.ACK, self.iss)
                return [synack], b""
            return [], b""

        if st is ConnState.SYN_SENT:
            if (seg.flags & TcpFlags.SYN) and (seg.flags & TcpFlags.ACK) \
                    and seg.ack == self.snd_nxt:
                self.rcv_nxt = seq_add(seg.seq, 1)
                self.state = ConnState.ESTABLISHED
                return [self.ack_now()], b""
            return [], b""

        if st is ConnState.SYN_RCVD:
            if (seg.flags & TcpFlags.ACK) and seg.ack == self.snd_nxt:
                self.state = ConnState.ESTABLISHED
                if seg.payload or (seg.flags & TcpFlags.FIN):
                    return self._on_established_segment(seg)
            return [], b""

        if st in (ConnState.FIN_WAIT, ConnState.CLOSE_WAIT):
            return self._on_established_segment(seg)

        return [], b""

    def _on_established_segment(self, seg: TcpSegment) -> tuple[list[TcpSegment], bytes]:
        delivered, advanced = b"", False

        if seg.payload:
            if seq_leq(seg_end(seg), self.rcv_nxt) or seq_lt(self.rcv_nxt, seg.seq):
                # a pure duplicate, or a gap ahead of us: ack what we have
                return [self.ack_now()], b""
            # in order (possibly overlapping the left edge)
            offset = seq_sub(self.rcv_nxt, seg.seq)
            delivered = seg.payload[offset:]
            self.rcv_nxt = seq_add(self.rcv_nxt, len(delivered))
            advanced = True

        if seg.flags & TcpFlags.FIN:
            fin_seq = seq_add(seg.seq, len(seg.payload))
            if fin_seq == self.rcv_nxt:
                self.rcv_nxt = seq_add(self.rcv_nxt, 1)
                advanced = True
                if self.state is ConnState.ESTABLISHED:
                    self.state = ConnState.CLOSE_WAIT
                elif self.state is ConnState.FIN_WAIT:
                    self.state = ConnState.CLOSED_FINAL

        if delivered:
            return [], delivered
        if advanced:
            return [self.ack_now()], b""
        return [], b""


# requests kept by hosts.make_request, responses by ServerApp.respond: above
# the shipped sessions' 120 requests, so every repetition shares them
PAYLOAD_CACHE_SIZE = 256
# (app_id, count, id(request)) -> (request, response), oldest first; holding
# the request keeps its id from being reused while the entry lives
_RESPONSES: dict[tuple[str, int, int], tuple[bytes, bytes]] = {}


class ServerApp:
    """Deterministic request/response application.

    Two instances with the same ``app_id`` fed the same request sequence
    produce byte-identical responses; that determinism is what makes a
    freshly instantiated clone behaviorally indistinguishable from the
    server it copies (once its request history has been replayed).

    ``respond`` returns each response from a process-wide cache keyed by
    ``(app_id, count, id(request))``, as every repetition sends the same
    request objects. The key names everything a response depends on: app
    state that a response comes to depend on must extend it.
    """

    _TAG = b"#%06d|"  # the running count each response carries

    def __init__(self, app_id: str):
        self.app_id = app_id
        self._prefix = app_id.encode("utf-8")
        self.request_count = 0
        self.request_log: list[bytes] = []

    def respond(self, request: bytes) -> bytes:
        """Echo the request tagged with the app id and a running count."""
        request = bytes(request)
        self.request_count += 1
        self.request_log.append(request)
        key = (self.app_id, self.request_count, id(request))
        hit = _RESPONSES.get(key)
        if hit is not None:
            return hit[1]
        response = self._prefix + self._TAG % self.request_count + request
        _RESPONSES[key] = request, response
        if len(_RESPONSES) > PAYLOAD_CACHE_SIZE:
            del _RESPONSES[next(iter(_RESPONSES))]
        return response

    def replay(self, requests: list[bytes]) -> int:
        """``respond`` to each of ``requests`` in turn without building the
        responses: return their total length."""
        count, total = self.request_count, len(self._prefix) * len(requests)
        self.request_count = last = count + len(requests)
        self.request_log.extend(requests)
        while count < last:  # the counts of one digit length share a tag width
            count, done = min(last, 10 ** len(str(count + 1)) - 1), count
            total += (count - done) * len(self._TAG % count)
        return total + sum(map(len, requests))
