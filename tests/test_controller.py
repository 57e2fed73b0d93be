"""Controller behavior: reactive forwarding, migration, splice offsets,
replay accounting, clone failure, and restore.

These tests wire a miniature topology by hand so each endpoint can get
its own fixed ISN; delta expectations below were computed with the
modular-arithmetic oracle (plain bignum arithmetic mod 2**32).
"""

import json
import sys
from dataclasses import replace

import pytest

from honeysplice.clonemgr import CLONE_LATENCY_US, CloneManager
from honeysplice.controller import (
    Controller,
    PHASE_IDLE,
    PHASE_REDIRECTED,
    PHASE_RESTORED,
    RestoreFailed,
)
from honeysplice.endpoint import ServerApp, TcpEndpoint, fixed_iss
from honeysplice.harness import (
    builtin_scenario_path,
    load_scenario,
    run_experiment,
    run_single,
    scenario_from_dict,
)
from honeysplice.hosts import AttackerHost, ServerHost
from honeysplice.ids import Alert, Ids
from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment, seq_add, seq_sub
from honeysplice.simnet import Engine, LinkModel
from honeysplice.vswitch import Output, Rewrite, Switch

ATT = HostAddr("10.0.0.1", "02:00:00:00:00:01")
VIC = HostAddr("10.0.0.2", "02:00:00:00:00:02")
HONEY = HostAddr("10.0.0.9", "02:00:00:00:00:09")
CONN = (ATT.ip, 40001, VIC.ip, 9000)
VIC_REV = (VIC.ip, 9000, ATT.ip, 40001)
HONEY_REV = (HONEY.ip, 9000, ATT.ip, 40001)


class Mini:
    """Hand-wired topology with per-endpoint fixed ISNs; the honey server
    takes the victim's address unless ``honey_addr`` is given."""

    def __init__(self, attacker_iss=100, victim_iss=7000, honey_iss=9000,
                 trigger_n=None, restore_at=None, total=10, interval_us=10_000,
                 clone_latency_us=CLONE_LATENCY_US["VICTIM_IMAGE"],
                 pre_instantiated=True, failure_p=0.0, honey_addr=None, **ctl_kwargs):
        self.engine = Engine(5)
        self.switch = Switch(self.engine)
        self.ids = Ids(self.engine)
        self.controller = Controller(self.engine, self.switch, **ctl_kwargs)
        self.switch.mirror_taps = [self.controller.ledger_tap, self.ids.tap]
        link = LinkModel(1000)

        self.victim = ServerHost(self.engine, "victim", VIC, 9000,
                                 ServerApp("svc"), fixed_iss(victim_iss))
        self.victim.attach(self.switch, link)
        self.controller.register_server(self.victim)

        self.attacker = AttackerHost(self.engine, "attacker", ATT, VIC, 9000,
                                     40001, fixed_iss(attacker_iss),
                                     requests=[(interval_us, 32)] * total)
        self.attacker.attach(self.switch, link)
        self.controller.register_port(ATT.ip, self.attacker.port)

        self.honey = None

        def make_honey(victim):
            host = ServerHost(self.engine, "honey", honey_addr or victim.addr,
                              victim.listen_port, ServerApp(victim.app.app_id),
                              fixed_iss(honey_iss))
            host.attach(self.switch, link)
            self.honey = host
            return host

        pre = None
        if pre_instantiated:
            pre = make_honey(self.victim)
        self.controller.clonemgr = CloneManager(
            self.engine, clone_latency_us, make_honey, failure_p=failure_p,
            pre_instantiated=pre)

        if trigger_n is not None:
            self.ids.add_nth_packet_watch(trigger_n, sid=1, msg="MIGRATE",
                                          dst_ip=VIC.ip)
            self.ids.subscribe(1, self.controller.on_alert)
        if restore_at is not None:
            self.ids.add_nth_packet_watch(restore_at, sid=2, msg="RESTORE",
                                          dst_ip=VIC.ip)
            self.ids.subscribe(2, self.controller.restore_original)
        self.attacker.start(10_000)

    def run(self):
        """Dispatch until no event is pending, as ``Simulation.run`` does."""
        self.engine.run_until(sys.maxsize)

    def events(self, kind):
        return [ev for ev in self.controller.events if ev.kind == kind]

    def time_of(self, kind):
        """The time of the one event of ``kind``."""
        (event,) = self.events(kind)
        return event.time_us

    def reverse_delta(self):
        """The seq delta of the rule carrying the serving server's segments
        back to the attacker."""
        serving = self.controller.records[CONN].serving
        return self.switch.rules()[(serving.addr.ip, 9000, ATT.ip, 40001)][0].seq_delta


# -- reactive forwarding ----------------------------------------------------------


def test_first_syn_installs_two_rules_then_no_more_packet_ins():
    mini = Mini(trigger_n=None, total=5)
    mini.run()
    assert mini.attacker.complete
    assert mini.controller.packet_in_count == 1  # only the SYN missed
    assert len(mini.events("flow_rules")) == 1


def test_oracle_run_without_trigger_is_flat():
    mini = Mini(trigger_n=None, total=8)
    mini.run()
    rtts = {i: mini.attacker.recv_ts[i] - mini.attacker.send_ts[i]
            for i in mini.attacker.recv_ts}
    assert set(rtts.values()) == {4000}


def test_segment_from_unregistered_address_is_dropped():
    mini = Mini(trigger_n=None, total=2)
    mini.run()
    stranger = HostAddr("10.0.0.77", "02:00:00:00:00:77")
    key = (stranger.ip, 5555, VIC.ip, 9000)
    mini.switch.process(TcpSegment(stranger, VIC, 5555, 9000, seq=1, ack=0,
                                   flags=TcpFlags.SYN))
    mini.engine.run_until(mini.engine.now + 2_000_000)  # past the hold timeout
    assert [ev.fields for ev in mini.events("packet_in_unroutable")] == [{"conn": key}]
    assert key not in mini.switch.rules()
    assert (stranger.ip, 5555) not in mini.victim.conns
    assert mini.switch.stats["hold_expired"] == 0


def test_miss_on_a_migrated_connection_is_dropped():
    mini = Mini(trigger_n=5, total=10)
    mini.run()
    requests = mini.victim.app.request_count, mini.honey.app.request_count
    mini.switch.remove_rule(CONN)
    mini.switch.process(TcpSegment(ATT, VIC, 40001, 9000, seq=0, ack=0,
                                   flags=TcpFlags.ACK))
    mini.engine.run_until(mini.engine.now + 2_000_000)  # past the hold timeout
    assert [ev.fields for ev in mini.events("anomaly_drop")] == [{"conn": CONN}]
    assert CONN not in mini.switch.rules()  # no forwarding rule over the splice
    assert (mini.victim.app.request_count, mini.honey.app.request_count) == requests
    assert mini.switch.stats["hold_expired"] == 0


def test_rtts_keyed_by_the_request_each_response_acks():
    engine = Engine(5)
    attacker = AttackerHost(engine, "attacker", ATT, VIC, 9000, 40001,
                            fixed_iss(100), requests=[(10, 32)] * 3)
    sent = []
    attacker.transmit = sent.append
    attacker.start(0)
    engine.run_until(0)
    attacker.deliver(TcpSegment(VIC, ATT, 9000, 40001, seq=500, ack=101,
                                flags=TcpFlags.SYN | TcpFlags.ACK))
    engine.run_until(100)
    requests = [seg for seg in sent if seg.payload]
    assert len(requests) == 3
    # the response to request 2 is lost; those to 1 and 3 arrive
    for seq, request in ((501, requests[0]), (502, requests[2])):
        attacker.deliver(TcpSegment(VIC, ATT, 9000, 40001, seq=seq,
                                    ack=seq_add(request.seq, len(request.payload)),
                                    flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"r"))
    assert set(attacker.recv_ts) == {1, 3}
    assert not attacker.complete


# -- migration ---------------------------------------------------------------------


def test_victim_sees_exactly_pre_alert_segments():
    mini = Mini(trigger_n=5, total=10)
    mini.run()
    assert mini.victim.app.request_count == 4
    assert mini.honey.app.request_count == 10  # 4 replayed + 6 live
    assert not mini.attacker.violations


def test_alert_packet_reaches_honey_not_victim():
    mini = Mini(trigger_n=5, total=10)
    mini.run()
    # request 5 (the trigger) is served by the honey app with count 5
    assert mini.victim.app.request_log == mini.attacker.sent_requests[:4]
    assert mini.honey.app.request_log == mini.attacker.sent_requests


def test_splice_deltas_from_isns():
    # victim ISN 7000, honey ISN 9000: stream offset 2000
    mini = Mini(victim_iss=7000, honey_iss=9000, trigger_n=5, total=10)
    mini.run()
    record = mini.controller.records[CONN]
    assert mini.victim.conns[(ATT.ip, 40001)].iss == 7000
    assert mini.honey.conns[(ATT.ip, 40001)].iss == 9000
    assert record.seq_delta == 2000
    assert mini.reverse_delta() == (2**32 - 2000)
    # a honey segment at seq 9105 presents to the attacker as 7105
    assert seq_add(9105, mini.reverse_delta()) == 7105
    assert not mini.attacker.violations


def test_identity_rewrite_when_isns_equal():
    mini = Mini(attacker_iss=100, victim_iss=7000, honey_iss=7000,
                trigger_n=5, total=10)
    mini.run()
    record = mini.controller.records[CONN]
    assert record.seq_delta == 0 and mini.reverse_delta() == 0
    assert not mini.attacker.violations


def test_delta_composition_is_identity():
    mini = Mini(victim_iss=1234567, honey_iss=4045678901, trigger_n=3, total=6)
    mini.run()
    record = mini.controller.records[CONN]
    for value in (0, 1, 2**31, 2**32 - 1, 987654321):
        assert seq_add(seq_add(value, record.seq_delta), mini.reverse_delta()) == value
    assert not mini.attacker.violations


def test_migration_phases_and_timestamps():
    mini = Mini(trigger_n=5, total=10)
    mini.run()
    record = mini.controller.records[CONN]
    assert record.phase == PHASE_REDIRECTED
    moves = {"alert", "restore_armed", "redirected", "restored"}
    assert {ev.kind for ev in mini.controller.events} & moves == {"alert", "redirected"}
    assert mini.time_of("alert") <= mini.time_of("redirected")


def test_flow_rules_after_migration_and_restore_at_distinct_address():
    """Each splice leaves one rule per direction; the reverse rule of the
    server left behind goes, since its key names the other address."""
    mini = Mini(trigger_n=5, restore_at=8, total=12, honey_addr=HONEY)
    migrated = []

    def snapshot(alert):
        # subscribed after the controller: the migration has spliced
        migrated.append(dict(mini.switch.rules()))

    mini.ids.subscribe(1, snapshot)
    mini.run()
    att_port = mini.attacker.port
    (rules,) = migrated
    assert set(rules) == {CONN, HONEY_REV}
    assert rules[CONN][1:] == (Output(mini.honey.port),)
    assert rules[CONN][0].new_dst == HONEY
    assert rules[HONEY_REV][1:] == (Output(att_port),)
    assert rules[HONEY_REV][0].new_src == VIC

    record = mini.controller.records[CONN]
    assert record.phase == PHASE_RESTORED
    assert mini.switch.rules() == {
        CONN: (Rewrite(ack_delta=record.seq_delta), Output(mini.victim.port)),
        VIC_REV: (Rewrite(seq_delta=seq_sub(0, record.seq_delta)), Output(att_port)),
    }
    assert mini.victim.app.request_log == mini.attacker.sent_requests
    assert not mini.attacker.violations


def test_victim_segment_missing_after_distinct_splice_keeps_splice_rule():
    """Requests sent faster than the round trip: the splice waits until the
    attacker has acked every victim response, so none is in flight when it
    removes the victim's reverse rule, and only the SYN ever misses."""
    mini = Mini(trigger_n=5, total=10, interval_us=500, honey_addr=HONEY)
    mini.run()
    flow_rules = [ev.fields["conn"] for ev in mini.events("flow_rules")]
    assert flow_rules == [CONN]
    assert mini.switch.rules()[CONN][-1] == Output(mini.honey.port)
    assert mini.honey.app.request_log == mini.attacker.sent_requests


def test_alert_for_unknown_connection():
    mini = Mini(trigger_n=None, total=2)
    seg = TcpSegment(ATT, VIC, 1, 2, seq=0, ack=0, flags=TcpFlags.ACK)
    unknown = ("1.2.3.4", 1, "5.6.7.8", 2)
    alert = Alert(sid=1, msg="X", segment=seg, conn=unknown, ordinal=1)
    mini.controller.on_alert(alert)
    assert [ev.fields for ev in mini.controller.events] == [
        {"conn": unknown, "phase": PHASE_IDLE, "sid": 1}]
    assert mini.controller.records == {}
    mini.run()
    assert mini.attacker.complete and not mini.attacker.violations


def test_duplicate_alert_ignored():
    mini = Mini(trigger_n=5, total=10)
    mini.run()
    seg = TcpSegment(ATT, VIC, 40001, 9000, seq=0, ack=0, flags=TcpFlags.ACK)
    dup = Alert(sid=1, msg="MIGRATE", segment=seg, conn=CONN, ordinal=6)
    mini.controller.on_alert(dup)  # no exception
    assert len(mini.events("alert_ignored")) == 1
    assert mini.controller.records[CONN].phase == PHASE_REDIRECTED


# -- clone timing / containment modes ------------------------------------------------


def test_on_demand_clone_latency_accounting():
    mini = Mini(trigger_n=5, total=10, interval_us=50_000,
                clone_latency_us=30_000, pre_instantiated=False,
                containment="on_clone_ready")
    mini.run()
    requested, = mini.events("clone_requested")
    ready, = mini.events("clone_latency")
    assert ready.fields == {"us": 30_000, "conn": CONN}
    assert ready.time_us - requested.time_us == 30_000
    # victim kept serving through instantiation: it saw the trigger packet
    assert mini.victim.app.request_count == 5
    assert mini.honey.app.request_count == 10
    assert not mini.attacker.violations


def test_immediate_containment_buffers_during_instantiation():
    """Clone slower than the request interval: stealth-by-latency is lost
    (acks lag the pipelined sends) but stream integrity must survive."""
    mini = Mini(trigger_n=5, total=10, interval_us=10_000,
                clone_latency_us=35_000, pre_instantiated=False,
                containment="immediate")
    mini.run()
    assert mini.victim.app.request_count == 4
    assert mini.honey.app.request_count == 10
    assert mini.honey.app.request_log == mini.attacker.sent_requests
    assert mini.attacker.complete
    # buffered requests took the instantiation hit
    rtts = {i: mini.attacker.recv_ts[i] - mini.attacker.send_ts[i]
            for i in mini.attacker.recv_ts}
    assert rtts[5] > 30_000
    assert rtts[1] == 4000
    # delayed acks to pipelined sends are expected here; data stays gapless
    assert all("seq gap" not in v and "RST" not in v
               for v in mini.attacker.violations)


@pytest.mark.parametrize("pre_instantiated", (True, False), ids=("pre", "on_demand"))
@pytest.mark.parametrize("containment", ("immediate", "on_clone_ready"))
@pytest.mark.parametrize("interval_us", (1500, 3000, 10_000))
def test_failed_clone_changes_nothing(interval_us, containment, pre_instantiated):
    """The clone is requested before containment, so a failed one leaves
    the victim serving and the attacker's records those of a run without
    migration, requests closer than the round trip included."""
    oracle = Mini(trigger_n=None, total=10, interval_us=interval_us)
    oracle.run()
    mini = Mini(trigger_n=5, total=10, interval_us=interval_us, failure_p=1.0,
                containment=containment, pre_instantiated=pre_instantiated)
    mini.run()
    att, ref = mini.attacker, oracle.attacker
    assert (att.send_ts, att.recv_ts, att.violations) == \
        (ref.send_ts, ref.recv_ts, ref.violations)
    assert [ev.kind for ev in mini.controller.events
            if ev.kind not in ("packet_in", "flow_rules")] == ["alert", "clone_failed"]
    failed, = mini.events("clone_failed")
    assert failed.fields["policy"] == "open"
    assert mini.controller.records[CONN].phase == PHASE_RESTORED
    assert mini.victim.app.request_log == mini.attacker.sent_requests
    assert mini.attacker.complete


# -- restore -----------------------------------------------------------------------------


def test_restore_replays_unseen_then_goes_live():
    mini = Mini(trigger_n=5, restore_at=8, total=12)
    mini.run()
    record = mini.controller.records[CONN]
    assert record.phase == PHASE_RESTORED
    # victim: 4 live + replay 5..8 + live 9..12, in order, exactly once
    assert mini.victim.app.request_log == mini.attacker.sent_requests
    assert mini.victim.app.request_count == 12
    # honey saw 4 replayed + live 5..7; the restore trigger goes to the victim
    assert mini.honey.app.request_log == mini.attacker.sent_requests[:7]
    assert not mini.attacker.violations
    assert mini.attacker.complete


def test_restore_waits_for_a_quiet_honey():
    """Requests sent faster than the round trip: at the restore alert the
    honey's responses are still in flight, so the restore waits until the
    attacker has acked them, and the stream still equals the no-migration
    run's (whose pipelined acks lag snd_nxt just as often)."""
    oracle = Mini(trigger_n=None, total=12, interval_us=1500)
    oracle.run()
    for honey_addr in (None, HONEY):
        mini = Mini(trigger_n=5, restore_at=8, total=12, interval_us=1500,
                    honey_addr=honey_addr)
        mini.run()
        record = mini.controller.records[CONN]
        assert record.phase == PHASE_RESTORED
        assert mini.time_of("restored") > mini.time_of("restore_armed")
        assert mini.honey.app.request_log == mini.attacker.sent_requests[:7]
        assert mini.victim.app.request_log == mini.attacker.sent_requests
        assert bytes(mini.attacker.received_stream) == \
            bytes(oracle.attacker.received_stream)
        assert len(mini.attacker.violations) == len(oracle.attacker.violations)
        assert all("ack discontinuity" in v for v in mini.attacker.violations)


def test_restore_recomputes_deltas_against_new_isn():
    mini = Mini(victim_iss=7000, honey_iss=9000, trigger_n=5, restore_at=8,
                total=12)
    mini.run()
    record = mini.controller.records[CONN]
    # fixed_iss hands the restored victim connection the same ISN (7000),
    # but the offset is position-based: the restored server never sent the
    # pre-migration responses, so the delta is not honey-vs-victim anymore
    assert record.phase == PHASE_RESTORED
    for value in (0, 5, 2**32 - 1):
        assert seq_add(seq_add(value, record.seq_delta), mini.reverse_delta()) == value
    assert not mini.attacker.violations


@pytest.mark.parametrize("rep", (1, 2, 3))
@pytest.mark.parametrize("containment", ("immediate", "on_clone_ready"))
def test_a_restore_while_the_clone_boots_queues_behind_the_migration(containment, rep):
    """Requests 500 µs apart reach the restore trigger (request 8) while the
    on-demand clone still boots: the restore joins the buffer and queues
    behind the migration, which splices onto the clone and straight back."""
    scenario = scenario_from_dict({
        "name": "restore_while_cloning", "total_packets": 12, "seed": 3,
        "trigger": {"kind": "nth_packet", "n": 5}, "restore_at": 8,
        "request": {"interval_us": 500}, "clone": {"on_demand": True},
        "containment": containment})
    sim = run_single(scenario, rep)
    oracle = run_single(scenario, rep, migration=False)
    (record,) = sim.controller.records.values()
    assert record.phase == PHASE_RESTORED
    kinds = [ev.kind for ev in sim.controller.events]
    assert "restore_ignored" not in kinds
    assert [k for k in kinds if k in ("redirected", "restored")] == ["redirected", "restored"]
    assert bytes(sim.attacker.received_stream) == bytes(oracle.attacker.received_stream)
    # requests closer than the round trip: the no-migration run's own
    # pipelined acks lag snd_nxt just as often
    assert len(sim.attacker.violations) == len(oracle.attacker.violations)


@pytest.mark.parametrize("containment", ("immediate", "on_clone_ready"))
@pytest.mark.parametrize("on_demand", (False, True), ids=("pre", "on_demand"))
@pytest.mark.parametrize("mode", ("same", "distinct"))
def test_a_restored_connection_migrates_again(mode, on_demand, containment):
    """e1 with the shipped rule (every 5th data segment) restored at request
    50: the alert on request 55 moves the connection onto a clone again, a
    pre-built honey handed out again or a fresh on-demand clone."""
    path = builtin_scenario_path("e1_redirect")
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(trigger={"kind": "rule", "sid": 1000001}, ruleset="migrate.rules",
               restore_at=50, honey_addr_mode=mode, containment=containment,
               clone={"on_demand": on_demand})
    scenario = scenario_from_dict(doc, path.parent)
    sim = run_single(scenario, 1)
    oracle = run_single(scenario, 1, migration=False)
    events = sim.controller.events
    assert [ev.kind for ev in events if ev.kind in ("redirected", "restored")] == \
        ["redirected", "restored", "redirected"]
    assert not [ev for ev in events
                if ev.kind == "alert_ignored" and ev.fields["phase"] == PHASE_RESTORED]
    assert bytes(sim.attacker.received_stream) == bytes(oracle.attacker.received_stream)
    violations, expected = sim.attacker.violations, len(oracle.attacker.violations)
    if on_demand and containment == "immediate":
        # the pipelined requests wait in the buffer while each clone boots,
        # so the acks that follow lag the attacker's snd_nxt: 3 per migration
        expected += 2 * 3
    assert len(violations) == expected
    assert all("ack discontinuity" in v for v in violations)
    # the honey server (the fresh clone, when on demand) replays only what
    # it has not consumed: each request reaches its app once
    assert sim.honey.app.request_log == sim.attacker.sent_requests
    if containment == "immediate":
        # the victim serves up to the migration, from the restore trigger
        # up to the re-migration trigger, and never sees request 55
        assert sim.victim.app.request_log == sim.attacker.sent_requests[:54]


def restore_alert(seq=0):
    seg = TcpSegment(ATT, VIC, 40001, 9000, seq=seq, ack=0, flags=TcpFlags.ACK)
    return Alert(sid=2, msg="RESTORE", segment=seg, conn=CONN, ordinal=1)


def test_restore_in_idle_phase_invalid():
    mini = Mini(trigger_n=None, total=2)
    mini.controller.restore_original(restore_alert())
    assert [ev.fields for ev in mini.events("restore_ignored")] == [
        {"conn": CONN, "phase": PHASE_IDLE}]
    assert not mini.events("restore_armed")


def test_restore_twice_invalid():
    mini = Mini(trigger_n=3, total=10)
    mini.run()
    # the session is over, so the honey is quiet: the first restore splices
    # at once, and the second finds the connection RESTORED
    alert = restore_alert(mini.attacker.conn.snd_nxt)
    mini.controller.restore_original(alert)
    mini.controller.restore_original(alert)
    assert [ev.fields for ev in mini.events("restore_ignored")] == [
        {"conn": CONN, "phase": PHASE_RESTORED}]
    assert len(mini.events("restore_armed")) == 1
    record = mini.controller.records[CONN]
    assert record.phase == PHASE_RESTORED
    assert mini.time_of("restored") == mini.time_of("restore_armed")
    assert len(mini.events("restored")) == 1


# -- the replay window ---------------------------------------------------------------


def test_ledger_records_a_late_arrival_at_its_stream_position():
    """The attacker's uplink may reorder: the ledger keeps its payloads in
    stream order, here across the 2**32 wrap, whatever order they pass the
    switch in."""
    engine = Engine(5)
    controller = Controller(engine, Switch(engine))
    iss = 2**32 - 20
    controller.ledger_tap(TcpSegment(ATT, VIC, 40001, 9000, iss, 0, TcpFlags.SYN), CONN)
    chunks = [bytes([65 + k]) * 8 for k in range(5)]
    for k in (0, 2, 1, 4, 3):
        controller.ledger_tap(TcpSegment(ATT, VIC, 40001, 9000, seq_add(iss, 1 + 8 * k),
                                         0, TcpFlags.PSH | TcpFlags.ACK, chunks[k]), CONN)
    assert controller.records[CONN].payloads == \
        [(seq_add(iss, 1 + 8 * k), chunks[k]) for k in range(5)]


@pytest.mark.parametrize("fault", ["gap", "short", "overlap", "reorder"])
def test_a_window_that_does_not_tile_its_range_fails_the_splice(fault):
    """The replayed entries must cover [the server's consumed position,
    buffered_from) exactly, in order; otherwise nothing is forged and the
    splice raises."""
    mini = Mini(trigger_n=None, total=6)
    mini.run()
    record = mini.controller.records[CONN]
    payloads = record.payloads
    if fault == "gap":
        del payloads[2]
    elif fault == "short":
        del payloads[-1]
    elif fault == "overlap":
        payloads.insert(3, (seq_add(payloads[2][0], 1), payloads[2][1]))
    else:
        payloads[2], payloads[3] = payloads[3], payloads[2]
    # the honey has no endpoint for the connection: the window starts at ISS+1
    record.buffered_from = mini.attacker.conn.snd_nxt
    with pytest.raises(RestoreFailed):
        mini.controller._splice(record, mini.honey, PHASE_REDIRECTED)
    assert mini.honey.conns == {} and mini.honey.app.request_count == 0


def test_a_splice_costs_the_same_whatever_its_window(monkeypatch):
    """Segments built and processed inside each splice, leaving out the
    buffered segments ``release_buffer`` sends on: the forged handshake
    alone, however many requests the window holds."""
    costs, counting = [], [False]
    splice, release = Controller._splice, Switch.release_buffer
    init, on_segment = TcpSegment.__init__, TcpEndpoint.on_segment

    def counted_splice(controller, *args):
        costs[-1].append([0, 0])
        counting.append(True)
        try:
            splice(controller, *args)
        finally:
            counting.pop()

    def uncounted_release(switch, key):
        counting.append(False)
        try:
            return release(switch, key)
        finally:
            counting.pop()

    def counted_init(seg, *args, **kwargs):
        if counting[-1]:
            costs[-1][-1][0] += 1
        init(seg, *args, **kwargs)

    def counted_on_segment(conn, seg):
        if counting[-1]:
            costs[-1][-1][1] += 1
        return on_segment(conn, seg)

    monkeypatch.setattr(Controller, "_splice", counted_splice)
    monkeypatch.setattr(Switch, "release_buffer", uncounted_release)
    monkeypatch.setattr(TcpSegment, "__init__", counted_init)
    monkeypatch.setattr(TcpEndpoint, "on_segment", counted_on_segment)
    e1 = load_scenario(builtin_scenario_path("e1_redirect"))
    e4 = load_scenario(builtin_scenario_path("e4_restore"))
    for scenario in (replace(e1, trigger_n=10), e1, e4):
        costs.append([])
        run_experiment(replace(scenario, repetitions=1))
    # the forged SYN, the server's SYN-ACK and the forged ACK; e4 splices
    # twice, onto the honey and back onto the victim
    assert costs == [[[3, 2]], [[3, 2]], [[3, 2], [3, 2]]]
