"""Simulated TCP/IP primitives: host addresses, segments, TCP flags and
32-bit sequence arithmetic.

TCP flags are plain int bits (``TcpFlags.SYN`` is 1, ``ACK`` 2, ...): a
segment's ``flags`` is their ``|``, tested with ``&``. They are not enum
members, because an enum flag builds a new member on every ``|`` and ``&``,
and segments test their flags several times each on the way through.

Packets (``TcpSegment`` here, ``simnet.EchoPacket``) are slotted
dataclasses but not frozen: a frozen dataclass sets every field through
``object.__setattr__``, which made building a packet the largest single
cost on its way through the stack. Each class has a hand-written
``__init__`` that assigns every field exactly once instead. They are
write-once by contract: nothing assigns a field after construction (a
rewrite builds a new packet), and a test that runs the shipped scenarios
with a guard on ``__setattr__`` pins that.

Sequence numbers are plain ints carried modulo 2**32. All wrap-aware
arithmetic goes through ``seq_add`` / ``seq_sub`` / ``seq_lt`` so the rest
of the stack never has to think about wraparound.

Deliberately omitted: checksums (links are lossless, integrity is
structural) and TCP options (nothing here negotiates them, and an options
mismatch between a server and its clone would be fingerprintable).
"""

from __future__ import annotations

from dataclasses import dataclass

SEQ_MOD = 2**32
SEQ_HALF = 2**31


class TcpFlags:
    """TCP header flags as int bits. A segment carries any ``|`` of them;
    test one with ``&``."""

    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8
    PSH = 16


def seq_add(s: int, delta: int) -> int:
    """Advance sequence number ``s`` by ``delta``, wrapping modulo 2**32."""
    return (s + delta) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Distance from ``b`` forward to ``a``, modulo 2**32."""
    return (a - b) % SEQ_MOD


def seq_lt(a: int, b: int) -> bool:
    """True iff ``a`` precedes ``b`` in the 2**31-windowed circular order.

    Irreflexive; a strict total order on any window of fewer than 2**31
    consecutive values.
    """
    return a != b and (b - a) % SEQ_MOD < SEQ_HALF


def seq_leq(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


@dataclass(frozen=True, slots=True)
class HostAddr:
    """Network identity of a host: IPv4 address plus MAC.

    Two hosts present "the same" identity iff both fields match; a honey
    server configured to impersonate a victim must therefore carry the
    victim's exact ip *and* mac.
    """

    ip: str
    mac: str


_SYN_FIN = TcpFlags.SYN | TcpFlags.FIN


@dataclass(slots=True)
class TcpSegment:
    """One simulated TCP/IP segment.

    ``seq``/``ack`` are normalized modulo 2**32 on construction. A segment
    never carries both SYN and FIN.

    Not frozen, because freezing made construction the dearest step on the
    per-segment path. Write-once by contract: never assign a field of a
    built segment; build a new one (see ``vswitch.Rewrite.apply``).
    """

    src: HostAddr
    dst: HostAddr
    sport: int
    dport: int
    seq: int
    ack: int
    flags: int
    payload: bytes = b""

    def __init__(self, src: HostAddr, dst: HostAddr, sport: int, dport: int,
                 seq: int, ack: int, flags: int, payload: bytes = b"") -> None:
        if flags & _SYN_FIN == _SYN_FIN:
            raise ValueError("segment cannot carry both SYN and FIN")
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.seq = seq % SEQ_MOD
        self.ack = ack % SEQ_MOD
        self.flags = flags
        self.payload = payload


def seg_span(seg: TcpSegment) -> int:
    """Sequence units the segment consumes: payload bytes, +1 per SYN/FIN."""
    span = len(seg.payload)
    if seg.flags & TcpFlags.SYN:
        span += 1
    if seg.flags & TcpFlags.FIN:
        span += 1
    return span


def seg_end(seg: TcpSegment) -> int:
    """First sequence number *after* the segment's span."""
    return seq_add(seg.seq, seg_span(seg))


ConnKey = tuple[str, int, str, int]
"""A directed connection: (src ip, sport, dst ip, dport)."""
