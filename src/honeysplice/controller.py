"""The response controller: reactive forwarding plus stealthy redirection.

Reactive forwarding: a table miss goes to the controller, which installs
an OUTPUT rule for the flow, and for TCP one back (nothing answers an
echo), never over a rule a splice installed, and releases the held
packet. This path carries the background load, the only one here with a
modeled service time (a FIFO queue, ``service_us`` per packet-in). A
miss waits in it as (packet, the key the switch built, hold id), and each
completion is an ``on_packet_in_served`` event: completion times never
decrease and equal times run in insertion order, so it serves the oldest.

Redirection, on an alert for an established connection:

  1. clone -- a copy of the victim host is requested; a clone that cannot
     be built changes nothing (``clone_failed``): the victim keeps the
     connection and the record goes straight to RESTORED;
  2. contain -- the attacker direction's rule becomes a BUFFER that
     quietly swallows everything the attacker sends (nothing further
     reaches the victim), and a forged RST tears down the victim-side
     endpoint only, after it answers what reached it; the attacker-facing
     direction is never reset, so the attacker sees no change;
  3. splice -- once the clone is up, the controller forges a three-way
     handshake with it while impersonating the attacker, sets its endpoint
     to the end of the recorded pre-alert window and hands the app that
     window's requests in one call, so its state matches the victim's (the
     attacker already has the responses, never built), and computes the
     stream offset between what the attacker expects and the clone's snd_nxt;
  4. rewrite -- the attacker direction's rule and the new server's
     reverse rule translate seq/ack by that offset (and rewrite addresses
     when the honey server lives at a distinct internal address, whose
     replies carry another key: the previous server's reverse rule is
     removed), the buffered segments are released through them, and the
     attacker-visible byte stream continues without a seam.

Every move -- migration onto the clone, restore onto the victim, a later
re-migration -- is one operation: move the connection to server S. It
buffers the attacker's direction (or joins the buffer already there),
waits in the record's ``moves`` list until the connection is quiet,
resets the server it leaves and splices onto S. Quiet: the serving server
has consumed every attacker byte the switch let through, and the
attacker's latest ack at the switch covers its snd_nxt, so nothing is in
flight either way and ``last_ack`` is the attacker's rcv_nxt.
``ledger_tap`` runs the moves on the segment that quiets the connection.

Containment timing is configurable: "immediate" contains at alert time
(the victim never sees the triggering segment), "on_clone_ready" lets the
victim keep serving until the clone is operational (no request ever waits
on instantiation). With a pre-instantiated honey server both behave
identically: the clone manager returns it at once, so on a quiet
connection the whole redirect completes within the alert event.

A record's ``phase`` names where its last requested move goes: IDLE,
CLONING (to the honey: a clone booting or a move waiting), REDIRECTED,
RESTORING (back to the victim, from the restore trigger's seq) and
RESTORED. Neither entry point raises. An alert on no established
connection (the attacker's SYN, the server's direction) or on one on or
bound for the honey is logged as ``alert_ignored``; a restore on one
neither on nor bound for the honey as ``restore_ignored``. Neither changes
anything. So a restore while the clone boots queues behind the migration,
and an alert on a restored connection migrates it again.

The replay window is [S's consumed position, ``buffered_from``) in the
attacker's stream: S's consumed position is its old endpoint's rcv_nxt,
or ISS+1 if it has none; ``buffered_from`` is where the switch began
buffering, the triggering segment's seq when an entry point holds (that
segment, still mid-pipeline, never reaches the server left behind) or the
attacker's snd_nxt when an on-demand clone comes up. The forged handshake
ends at the window's start, and the recorded payloads must tile the
window exactly, or the splice raises ``RestoreFailed``.

Splice offsets are computed from stream *positions*, not ISNs: the
server-to-attacker delta is (attacker's expected next peer seq) minus
(the new server's snd_nxt), which reduces to (victim ISN - honey ISN)
for the initial migration and stays correct for restores, where the new
victim connection never sent the responses the honey server did.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import NamedTuple, Optional

from .clonemgr import CloneFailed, CloneManager
from .endpoint import ConnState
from .hosts import ServerHost
from .netcore import ConnKey, HostAddr, TcpFlags, TcpSegment, seg_span, seq_add, seq_sub
from .simnet import Engine
from .vswitch import Buffer, Output, Rewrite, Switch
from .ids import Alert


class RestoreFailed(Exception):
    """A splice cannot rebuild the connection: the server refused the
    forged handshake, or the record does not tile the replay window."""


PHASE_IDLE = "IDLE"
PHASE_CLONING = "CLONING"
PHASE_REDIRECTED = "REDIRECTED"
PHASE_RESTORING = "RESTORING"
PHASE_RESTORED = "RESTORED"


# each event kind's fields in CSV order; every kind carries the ConnKey ``conn``
EVENT_FIELDS = {
    **dict.fromkeys(("packet_in", "flow_rules", "packet_in_unroutable", "anomaly_drop",
                     "clone_requested", "buffer_installed", "victim_closed",
                     "splice_started", "restore_armed"), ("conn",)),
    "alert": ("conn", "sid", "ordinal"),
    "alert_ignored": ("conn", "phase", "sid"),
    "clone_failed": ("conn", "policy"),
    "clone_latency": ("us", "conn"),
    "replayed": ("count", "conn"),
    "rewrite_rules": ("conn", "seq_delta"),
    "redirected": ("conn", "released"),
    "restored": ("conn", "released"),
    "restore_ignored": ("conn", "phase"),
}


class ControllerEvent(NamedTuple):
    """One controller log record: ``rest`` holds the kind's fields other
    than ``conn``, in their ``EVENT_FIELDS`` order."""

    time_us: int
    kind: str
    conn: ConnKey
    rest: tuple = ()

    @property
    def fields(self) -> dict:
        """The record's fields by name, in CSV order."""
        names = EVENT_FIELDS[self.kind]
        at = names.index("conn")
        return dict(zip(names, (*self.rest[:at], self.conn, *self.rest[at:])))


class MigrationRecord:
    """Everything the controller knows about one tracked connection: what
    the mirrored segments show, and its migration state.

    ``payloads`` are the attacker's (seq, payload) segments in stream order,
    kept so by ``ledger_tap`` when the uplink reorders; ``last_ack`` is its
    latest ack (its rcv_nxt, in victim-anchored coordinates). ``seq_delta``
    is how far the serving endpoint's stream runs ahead of the attacker's
    view (honey ISN - victim ISN right after migration). Rules add it to
    attacker-to-server acks and subtract it from server-to-attacker seqs.
    """

    def __init__(self, key: ConnKey, attacker_addr: HostAddr, server_addr: HostAddr,
                 attacker_iss: int, attacker_snd_nxt: int,
                 serving: Optional[ServerHost]) -> None:
        self.key, self.attacker_addr, self.server_addr = key, attacker_addr, server_addr
        self.attacker_iss, self.attacker_snd_nxt = attacker_iss, attacker_snd_nxt
        self.last_ack, self.seq_delta, self.phase = 0, 0, PHASE_IDLE
        self.payloads: list[tuple[int, bytes]] = []
        # attacker stream position the switch buffers from; None while it forwards
        self.buffered_from: Optional[int] = None
        self.serving = serving  # the server the connection is on
        # [server, phase] moves waiting for a quiet connection, in request
        # order (see Controller._when_quiet); server is None while its clone boots
        self.moves: list[list] = []

    def offset(self, entry: tuple[int, bytes]) -> int:
        """The key that orders ``payloads``: an entry's offset from the ISS."""
        return seq_sub(entry[0], self.attacker_iss)


class Controller:
    """Single logical reactor: alert handling, packet-in handling and
    clone-ready callbacks are serialized events of one simulation."""

    def __init__(self, engine: Engine, switch: Switch, *,
                 containment: str = "immediate", service_us: int = 50):
        self.engine = engine
        self.switch = switch
        self.containment = containment
        self.service_us = service_us
        self.clonemgr: Optional[CloneManager] = None

        self.records: dict[ConnKey, MigrationRecord] = {}
        self.port_map: dict[str, int] = {}
        # port -> the flow rule forwarding out of it, shared by every flow
        self._forward: dict[int, tuple[Output]] = {}
        self.server_hosts: dict[str, ServerHost] = {}
        self._busy_until = 0
        # (packet, key, hold id) of each packet-in in service, in arrival order
        self._packet_ins: deque[tuple[object, ConnKey, int]] = deque()
        self.packet_in_count = 0
        self.events: list[ControllerEvent] = []
        self._rules = switch.rules()

        switch.packet_in_handler = self.on_packet_in

    # -- wiring ---------------------------------------------------------------

    def register_port(self, ip: str, port: int) -> None:
        self.port_map[ip] = port
        self._forward[port] = (Output(port),)

    def register_server(self, host: ServerHost) -> None:
        self.server_hosts[host.addr.ip] = host
        self.register_port(host.addr.ip, host.port)

    def log(self, kind: str, conn: ConnKey, *rest) -> None:
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        self.events.append(tuple.__new__(
            ControllerEvent, (self.engine.now, kind, conn, rest)))

    # -- connection bookkeeping (mirror tap; runs before rule lookup) ---------

    def ledger_tap(self, pkt: TcpSegment, key: ConnKey) -> None:
        if (pkt.flags & TcpFlags.SYN) and not (pkt.flags & TcpFlags.ACK):
            self.records[key] = MigrationRecord(
                key=key, attacker_addr=pkt.src, server_addr=pkt.dst,
                attacker_iss=pkt.seq, attacker_snd_nxt=seq_add(pkt.seq, 1),
                serving=self.server_hosts.get(pkt.dst.ip))
            return
        record = self.records.get(key)
        if record is not None:
            late = pkt.seq != record.attacker_snd_nxt  # a reordering uplink
            record.attacker_snd_nxt = seq_add(pkt.seq, seg_span(pkt))
            if pkt.flags & TcpFlags.ACK:
                record.last_ack = pkt.ack
            if pkt.payload and late:
                insort(record.payloads, (pkt.seq, pkt.payload), key=record.offset)
            elif pkt.payload:
                record.payloads.append((pkt.seq, pkt.payload))
            if record.moves:
                self._when_quiet(record)

    # -- reactive forwarding ---------------------------------------------------

    def on_packet_in(self, pkt, key: ConnKey, hold_id: int) -> None:
        self.packet_in_count += 1
        now, busy = self.engine.now, self._busy_until
        done = (busy if busy > now else now) + self.service_us
        self._busy_until = done
        self._packet_ins.append((pkt, key, hold_id))
        self.engine.schedule(self.on_packet_in_served, done)

    def on_packet_in_served(self) -> None:
        """Serve the oldest packet-in: its service time has passed. The
        benchmark bills this event to packet-in handling by the
        ``Controller.on_packet_in`` prefix of its name."""
        pkt, key, hold_id = self._packet_ins.popleft()
        src, sport, dst, dport = key
        record = self.records.get(key)
        if record is not None and record.phase != PHASE_IDLE:
            # a migrated flow should never miss; don't disturb the splice
            self.switch.drop_held(hold_id)
            self.log("anomaly_drop", key)
            return
        events, now = self.events, self.engine.now  # records built as in ``log``
        if key not in self._rules:
            dst_port = self.port_map.get(dst)
            src_port = self.port_map.get(src)
            if dst_port is None or src_port is None:
                self.switch.drop_held(hold_id)
                self.log("packet_in_unroutable", key)
                return
            self.switch.install_rule(key, self._forward[dst_port])
            if isinstance(pkt, TcpSegment):  # nothing answers an echo request
                self.switch.install_rule((dst, dport, src, sport),
                                         self._forward[src_port])
            events.append(tuple.__new__(ControllerEvent, (now, "flow_rules", key, ())))
        if self.switch.release_held(hold_id):  # not when the hold has expired
            events.append(tuple.__new__(ControllerEvent, (now, "packet_in", key, ())))

    # -- moving the connection -------------------------------------------------

    def on_alert(self, alert: Alert) -> None:
        """Move the alerted connection onto a clone of the victim. An alert on
        no established attacker connection (a SYN, the server's direction) or
        on one on or bound for the honey is logged as ``alert_ignored``; every
        attacker segment but the SYN carries ACK. A clone that cannot be built
        changes nothing: the victim keeps the connection."""
        key = alert.conn
        record = self.records.get(key)
        if record is None or not (alert.segment.flags & TcpFlags.ACK) \
                or record.phase in (PHASE_CLONING, PHASE_REDIRECTED):
            phase = record.phase if record is not None else PHASE_IDLE
            self.log("alert_ignored", key, phase, alert.sid)
            return
        self.log("alert", key, alert.sid, alert.ordinal)
        record.phase = PHASE_CLONING
        move = [None, PHASE_REDIRECTED]
        try:
            host = self.clonemgr.request_clone(
                self.server_hosts[record.server_addr.ip],
                lambda host, lat: self._on_clone_ready(record, move, host, lat))
        except CloneFailed:
            self.log("clone_failed", key, "open")
            # the victim keeps the connection, or a waiting restore takes it back
            record.phase = PHASE_RESTORING if record.moves else PHASE_RESTORED
            return
        record.moves.append(move)

        # This call is inside the triggering segment's mirror tap, so the
        # segment is still in flight through the switch. Holding now ("immediate",
        # or a pre-built clone in either mode) keeps it from the server left.
        if self.containment == "immediate" or host is not None:
            self._hold(record, alert.segment.seq, "buffer_installed")
        self.log("clone_requested", key)
        if host is not None:
            self._on_clone_ready(record, move, host, 0)

    def restore_original(self, alert: Alert) -> None:
        """Move the connection back onto the original server; like ``on_alert``,
        this runs inside the trigger's mirror tap. A connection neither on nor
        bound for the honey (IDLE, RESTORING, RESTORED, or a failed clone the
        victim kept) has nothing to restore: it is logged as ``restore_ignored``."""
        key = alert.conn
        record = self.records.get(key)
        if record is None or record.phase not in (PHASE_CLONING, PHASE_REDIRECTED):
            phase = record.phase if record is not None else PHASE_IDLE
            self.log("restore_ignored", key, phase)
            return
        record.phase = PHASE_RESTORING
        record.moves.append([self.server_hosts[record.server_addr.ip], PHASE_RESTORED])
        self._hold(record, alert.segment.seq, "restore_armed")

    def _on_clone_ready(self, record: MigrationRecord, move: list, host: ServerHost,
                        latency_us: int) -> None:
        self.log("clone_latency", record.key, latency_us)
        if record.buffered_from is None:  # an on-demand clone, under on_clone_ready
            self._hold(record, record.attacker_snd_nxt, "buffer_installed")
        self.log("splice_started", record.key)
        move[0] = host
        self._when_quiet(record)

    def _hold(self, record: MigrationRecord, pos: int, log_kind: str) -> None:
        """Buffer the attacker's direction from ``pos`` unless the switch already
        buffers it, log ``log_kind``, and run what a quiet connection allows."""
        if record.buffered_from is None:
            self.switch.create_queue(record.key)
            self.switch.install_rule(record.key, (Buffer(record.key),))
            record.buffered_from = pos
        self.log(log_kind, record.key)
        self._when_quiet(record)

    def _when_quiet(self, record: MigrationRecord) -> None:
        """While the connection is quiet (see the module docstring), reset the
        server it leaves, once, then run each head move whose server is up."""
        key, moves = record.key, record.moves
        while moves:
            serving = record.serving
            conn = serving.conns[(record.attacker_addr.ip, key[1])]
            if conn.rcv_nxt != record.buffered_from or \
                    conn.snd_nxt != seq_add(record.last_ack, record.seq_delta):
                return
            if conn.state is not ConnState.CLOSED_FINAL:
                # after it answers what reached it; the attacker is never reset
                serving.deliver_oob(TcpSegment(
                    record.attacker_addr, serving.addr, key[1], key[3],
                    record.attacker_snd_nxt, conn.snd_nxt, TcpFlags.RST | TcpFlags.ACK))
                self.log("victim_closed", key)
            if moves[0][0] is None:  # its clone still boots
                return
            self._splice(record, *moves.pop(0))

    # -- the splice (every move's) -------------------------------------------------

    def _splice(self, record: MigrationRecord, server: ServerHost, phase: str) -> None:
        """Forge a handshake with ``server`` as the attacker, replay the
        logged payloads that tile [server's consumed position,
        ``buffered_from``) (mod 2**32) and rewrite by the new stream offset;
        unless a move waits behind this one, forward to ``server``, release
        the buffer and enter ``phase``."""
        key, payloads, iss = record.key, record.payloads, record.attacker_iss
        old = server.conns.get(key[:2])
        replay_from = seq_add(iss, 1) if old is None else old.rcv_nxt
        replay_upto = record.buffered_from
        lo = bisect_left(payloads, seq_sub(replay_from, iss), key=record.offset)
        hi = bisect_left(payloads, seq_sub(replay_upto, iss), lo, key=record.offset)
        entries = payloads[lo:hi]
        # the entries tile the window: each starts where the one before ends
        if [seq for seq, _ in entries] + [replay_upto] != \
                [replay_from] + [seq_add(seq, len(payload)) for seq, payload in entries]:
            raise RestoreFailed(f"no recorded tiling of [{replay_from}, {replay_upto})")

        attacker = record.attacker_addr
        replies = server.deliver_oob(TcpSegment(attacker, server.addr, key[1], key[3],
                                                seq_add(replay_from, -1), 0, TcpFlags.SYN))
        if not replies or not (replies[0].flags & TcpFlags.SYN):
            raise RestoreFailed(f"server {server.name} refused forged handshake")
        conn = server.conns[key[:2]]
        server.deliver_oob(TcpSegment(attacker, server.addr, key[1], key[3],
                                      replay_from, conn.snd_nxt, TcpFlags.ACK))

        # the previous incumbent already delivered the responses to the
        # attacker, so the server only moves its positions past the window
        server.replay_oob(key[:2], [payload for _, payload in entries])
        self.log("replayed", key, len(entries))

        # stream-position offsets: last_ack is the attacker's rcv_nxt in its
        # own (victim-anchored) coordinates
        record.seq_delta = seq_sub(conn.snd_nxt, record.last_ack)

        rkey = (server.addr.ip, key[3], key[0], key[1])
        if server.addr != record.serving.addr:
            # distinct address mode: the server left behind replied from
            # another address, under another key
            self.switch.remove_rule((record.serving.addr.ip, key[3], key[0], key[1]))
        distinct = server.addr != record.server_addr
        self.switch.install_rule(rkey, (
            Rewrite(seq_delta=seq_sub(0, record.seq_delta),
                    new_src=record.server_addr if distinct else None),
            Output(self.port_map[record.attacker_addr.ip])))
        self.log("rewrite_rules", key, record.seq_delta)

        record.serving, released = server, 0
        if not record.moves:
            self.switch.install_rule(key, (
                Rewrite(ack_delta=record.seq_delta,
                        new_dst=server.addr if distinct else None),
                Output(server.port)))
            record.phase = phase
            record.buffered_from = None
            released = self.switch.release_buffer(key)
        self.log("redirected" if phase == PHASE_REDIRECTED else "restored", key, released)
