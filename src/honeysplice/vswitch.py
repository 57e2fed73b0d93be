"""Software switch with an exact-connection-key match-action flow table.

The table maps a directed connection (``ConnKey``: src ip, sport, dst
ip, dport) to one action list; installing actions for a key replaces
whatever the key had. Processing order for every packet entering the
switch:

1. a TCP segment is handed, unmodified, to the mirror taps as
   ``tap(segment, key)`` (detection and connection bookkeeping live there;
   echo packets skip them) -- taps may install or remove rules, and the
   lookup after them sees the new table, so a tap decides the segment's fate;
2. lookup of ``key``, the packet's connection key;
3. the key's actions run in order: REWRITE transforms a TCP segment,
   OUTPUT forwards the current form out a port, BUFFER parks it in a
   named queue.

A port may have no link: it is a sink, and OUTPUT to it sends nothing.

On a table miss ``process`` holds the packet (no drop) and hands it to
the packet-in handler; the controller is expected to install rules and
release it. A hold expires
``MISS_HOLD_TIMEOUT_US`` (one simulated second) after its miss, and no
event watches it: as an OpenFlow controller learns that a buffer is gone
only when its packet-out names it, ``release_held`` or ``drop_held`` at
or after the deadline finds the hold expired (a release in the same µs
loses) and counts it in ``stats["hold_expired"]``. Every packet-in the
controller queues is resolved once, so the count is exact once all are.

A packet released by ``release_held`` or ``release_buffer`` re-enters
``process`` with its key: the taps saw it on first entry, so it goes
straight to the lookup and its actions. A hold keeps the key the packet
missed under, and the packet-in handler gets it with the packet, as Open
vSwitch hands a miss upcall the flow key it extracted, so no later step
builds it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, NamedTuple, Optional, Union

from .netcore import ConnKey, HostAddr, TcpSegment
from .simnet import Engine, Link


MISS_HOLD_TIMEOUT_US = 1_000_000


class UnknownRule(Exception):
    """remove_rule called for a connection key with no rule."""


class UnknownQueue(Exception):
    """release_buffer called for a queue that was never created."""


@dataclass(frozen=True, slots=True)
class Output:
    port: int


@dataclass(frozen=True, slots=True)
class Rewrite:
    """Shift a TCP segment's seq/ack modulo 2**32 and optionally rewrite
    its addresses. Only spliced connections carry one."""

    seq_delta: int = 0
    ack_delta: int = 0
    new_src: Optional[HostAddr] = None
    new_dst: Optional[HostAddr] = None

    def apply(self, seg: TcpSegment) -> TcpSegment:
        """The rewritten segment, always a new one."""
        src = seg.src if self.new_src is None else self.new_src
        dst = seg.dst if self.new_dst is None else self.new_dst
        # the constructor wraps seq and ack modulo 2**32
        return TcpSegment(src, dst, seg.sport, seg.dport, seg.seq + self.seq_delta,
                          seg.ack + self.ack_delta, seg.flags, seg.payload)


class Buffer(NamedTuple):
    queue: Hashable


FlowAction = Union[Output, Rewrite, Buffer]


class Switch:
    """Single software switch; one per simulation instance."""

    def __init__(self, engine: Engine):
        self._engine = engine
        self._ports: dict[int, Link] = {}
        self._next_port = 1
        self._table: dict[ConnKey, tuple[FlowAction, ...]] = {}
        self._rules = MappingProxyType(self._table)
        self._buffers: dict[Hashable, list] = {}
        # hold id -> (packet, key, deadline)
        self._held: dict[int, tuple[object, ConnKey, int]] = {}
        self._last_hold = 0
        self.mirror_taps: list[Callable[[TcpSegment, ConnKey], None]] = []
        self.packet_in_handler: Optional[Callable[[object, ConnKey, int], None]] = None
        self.stats = {"processed": 0, "miss": 0, "hold_expired": 0}

    # -- topology ----------------------------------------------------------

    def attach(self, link: Optional[Link]) -> int:
        """Attach a device via its switch-to-device link; returns the port.
        With no link the port is a sink: nothing is sent out of it."""
        port = self._next_port
        self._next_port += 1
        self._ports[port] = link
        return port

    # -- table management ----------------------------------------------------

    def install_rule(self, key: ConnKey,
                     actions: tuple[FlowAction, ...]) -> None:
        """Set the key's actions, replacing any it had."""
        self._table[key] = actions

    def remove_rule(self, key: ConnKey) -> None:
        if self._table.pop(key, None) is None:
            raise UnknownRule(f"no rule for {key}")

    def rules(self) -> Mapping[ConnKey, tuple[FlowAction, ...]]:
        """Read-only live view of the table."""
        return self._rules

    # -- buffering -------------------------------------------------------------

    def create_queue(self, queue_id: Hashable) -> None:
        self._buffers.setdefault(queue_id, [])

    def release_buffer(self, queue_id: Hashable) -> int:
        """Re-inject buffered packets in arrival order; returns the count."""
        if queue_id not in self._buffers:
            raise UnknownQueue(queue_id)
        pkts = self._buffers[queue_id]
        self._buffers[queue_id] = []
        for pkt in pkts:
            # its key as buffered, which a rewrite before the buffer may change
            self.process(pkt, (pkt.src.ip, pkt.sport, pkt.dst.ip, pkt.dport))
        return len(pkts)

    # -- data path ---------------------------------------------------------------

    def process(self, pkt, key: Optional[ConnKey] = None) -> None:
        """Run one packet through the switch. A packet off a link comes
        without ``key``: its key is built and the taps see it. A released
        one comes with its key and skips the taps."""
        self.stats["processed"] += 1
        if key is None:
            key = (pkt.src.ip, pkt.sport, pkt.dst.ip, pkt.dport)
            if isinstance(pkt, TcpSegment):
                for tap in self.mirror_taps:
                    tap(pkt, key)
        actions = self._table.get(key)
        if actions is None:
            self.stats["miss"] += 1
            self._last_hold = hold_id = self._last_hold + 1
            self._held[hold_id] = (pkt, key, self._engine.now + MISS_HOLD_TIMEOUT_US)
            if self.packet_in_handler is not None:
                self.packet_in_handler(pkt, key, hold_id)
            return
        for act in actions:
            if isinstance(act, Output):
                link = self._ports.get(act.port)
                if link is not None:
                    link.send(pkt)
            elif isinstance(act, Rewrite):
                pkt = act.apply(pkt)
            elif isinstance(act, Buffer):
                self._buffers.setdefault(act.queue, []).append(pkt)
                return

    def release_held(self, hold_id: int) -> bool:
        """Re-process a held miss packet (post rule install) under the key it
        missed with, skipping the taps; False when the hold is gone."""
        held = self._held.pop(hold_id, None)
        if held is None or self._engine.now >= held[2]:
            self.stats["hold_expired"] += held is not None
            return False
        self.process(held[0], held[1])
        return True

    def drop_held(self, hold_id: int) -> bool:
        """Discard a held miss packet; True exactly when ``release_held``
        would have released it."""
        held = self._held.pop(hold_id, None)
        if held is None or self._engine.now >= held[2]:
            self.stats["hold_expired"] += held is not None
            return False
        return True

    def send_out(self, port: int, pkt) -> None:
        """Direct transmit on a port (controller-originated packets)."""
        link = self._ports.get(port)
        if link is not None:
            link.send(pkt)
