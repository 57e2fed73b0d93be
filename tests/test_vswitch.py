"""Flow table semantics: one action list per exact connection key,
mirroring, packet-in holds, buffering, and seq/ack rewriting (checked
against the modular-arithmetic oracle)."""

import pytest
from hypothesis import given, settings, strategies as st

from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment
from honeysplice.simnet import EchoPacket, Engine, Link, LinkModel
from honeysplice.vswitch import (
    MISS_HOLD_TIMEOUT_US,
    Buffer,
    Output,
    Rewrite,
    Switch,
    UnknownQueue,
    UnknownRule,
)

from flow_key import five_tuple

A = HostAddr("10.0.0.1", "02:00:00:00:00:01")
B = HostAddr("10.0.0.2", "02:00:00:00:00:02")


def make_switch(n_ports=2):
    eng = Engine(1)
    sw = Switch(eng)
    sinks = []
    for i in range(n_ports):
        sink = []
        link = Link(eng, f"port{i}", LinkModel(base_delay_us=0), sink.append)
        sw.attach(link)
        sinks.append(sink)
    return eng, sw, sinks


def seg(payload=b"", flags=TcpFlags.PSH | TcpFlags.ACK, seq=1000, ack=9000,
        src=A, dst=B, sport=40001, dport=9000):
    return TcpSegment(src, dst, sport, dport, seq=seq, ack=ack,
                      flags=flags, payload=payload)


def exact_match(src=A, dst=B, sport=40001, dport=9000):
    return (src.ip, sport, dst.ip, dport)


# -- install / remove -------------------------------------------------------------


def test_install_then_match_applies_actions():
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(), (Output(1),))
    sw.process(seg(b"hi"))
    eng.run_until(10)
    assert len(sinks[0]) == 1
    assert sinks[0][0].payload == b"hi"


def test_remove_rule_once_then_unknown():
    _, sw, _ = make_switch()
    sw.install_rule(exact_match(), (Buffer("q"),))
    sw.remove_rule(exact_match())
    assert exact_match() not in sw.rules()
    with pytest.raises(UnknownRule):
        sw.remove_rule(exact_match())


def test_rules_is_one_live_read_only_view():
    _, sw, _ = make_switch()
    view = sw.rules()
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.rules() is view and view == {exact_match(): (Output(1),)}
    sw.remove_rule(exact_match())
    assert exact_match() not in view
    with pytest.raises(TypeError):
        view[exact_match()] = (Output(1),)


def test_install_replaces_the_keys_actions():
    eng, sw, sinks = make_switch(3)
    sw.install_rule(exact_match(), (Output(1),))
    sw.install_rule(exact_match(), (Output(2),))
    assert sw.rules() == {exact_match(): (Output(2),)}
    sw.process(seg())
    eng.run_until(10)
    assert len(sinks[1]) == 1 and len(sinks[0]) == 0


def test_at_most_one_rule_fires():
    eng, sw, sinks = make_switch(3)
    sw.install_rule(exact_match(), (Output(1),))
    # the reverse direction is another key: its rule never fires here
    sw.install_rule(exact_match(B, A, 9000, 40001), (Output(2),))
    sw.process(seg())
    eng.run_until(10)
    assert len(sinks[0]) == 1
    assert len(sinks[1]) == 0


# -- mirroring -----------------------------------------------------------------------


def test_mirror_sees_every_segment_exactly_once_pre_rewrite():
    eng, sw, sinks = make_switch()
    mirrored = []
    sw.mirror_taps.append(lambda pkt, key: mirrored.append((pkt, key)))
    sw.install_rule(exact_match(), (Rewrite(seq_delta=500), Output(1)))
    s = seg(seq=1000)
    sw.process(s)
    eng.run_until(10)
    assert mirrored == [(s, five_tuple(s))]  # the unmodified original, with its key
    assert mirrored[0][0].seq == 1000
    assert sinks[0][0].seq == 1500       # forwarded copy was rewritten


def test_mirror_taps_see_tcp_segments_only():
    # echo load is forwarded but never handed to the taps
    eng, sw, sinks = make_switch()
    mirrored = []
    sw.mirror_taps.append(lambda pkt, key: mirrored.append(pkt))
    echo = EchoPacket(src=A, dst=B, sport=40001, dport=9000)
    sw.install_rule(exact_match(), (Output(1),))
    sw.process(echo)
    sw.process(seg(b"x"))
    eng.run_until(10)
    assert sinks[0][0] is echo
    assert [type(p) for p in mirrored] == [TcpSegment]


def test_buffered_release_is_not_mirrored_again():
    eng, sw, _ = make_switch()
    mirrored = []
    sw.mirror_taps.append(lambda pkt, key: mirrored.append(pkt))
    sw.install_rule(exact_match(), (Buffer("q"),))
    sw.process(seg(b"a"))
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.release_buffer("q") == 1
    assert len(mirrored) == 1


def test_released_hold_is_not_mirrored_again_and_keeps_its_key():
    eng, sw, sinks = make_switch()
    mirrored, escalated = [], []
    sw.mirror_taps.append(lambda pkt, key: mirrored.append(key))
    sw.packet_in_handler = lambda pkt, key, hold: escalated.append((key, hold))
    sw.process(seg(b"a"))
    assert escalated == [(exact_match(), 1)] and mirrored == [exact_match()]
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.release_held(1) is True
    eng.run_until(10)
    assert [p.payload for p in sinks[0]] == [b"a"]
    assert len(mirrored) == 1
    assert sw.stats["processed"] == 2  # a release still counts as processed


def test_rewritten_then_buffered_packet_is_released_under_its_new_key():
    eng, sw, sinks = make_switch()
    C = HostAddr("10.0.0.3", "02:00:00:00:00:03")
    sw.install_rule(exact_match(), (Rewrite(new_dst=C), Buffer("q")))
    sw.process(seg(b"a"))
    # the original key would buffer it again; the rewritten one forwards it
    sw.install_rule(exact_match(dst=C), (Output(2),))
    assert sw.release_buffer("q") == 1
    eng.run_until(10)
    assert [(p.dst, p.payload) for p in sinks[1]] == [(C, b"a")]


def test_tap_rule_change_affects_same_packet():
    # a tap may mutate the table; the packet then sees the new table
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(), (Output(1),))

    def tap(pkt, key):
        if pkt.payload == b"trigger":
            sw.install_rule(exact_match(), (Buffer("held"),))

    sw.mirror_taps.append(tap)
    sw.process(seg(b"normal"))
    sw.process(seg(b"trigger"))
    eng.run_until(10)
    assert [p.payload for p in sinks[0]] == [b"normal"]
    assert sw.release_buffer("held") == 1


# -- rewrite --------------------------------------------------------------------------


def test_rewrite_deltas_match_seq_add_oracle():
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(),
                    (Rewrite(seq_delta=500, ack_delta=-500), Output(1)))
    sw.process(seg(seq=1000, ack=9000))
    eng.run_until(10)
    out = sinks[0][0]
    assert out.seq == 1500    # (1000 + 500) mod 2**32
    assert out.ack == 8500    # (9000 - 500) mod 2**32


def test_rewrite_wraps_modulo():
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(), (Rewrite(seq_delta=20), Output(1)))
    sw.process(seg(seq=2**32 - 10))
    eng.run_until(10)
    assert sinks[0][0].seq == 10


def test_rewrite_addresses():
    eng, sw, sinks = make_switch()
    honey = HostAddr("10.0.0.3", "02:00:00:00:00:03")
    sw.install_rule(exact_match(), (Rewrite(new_dst=honey), Output(1)))
    sw.process(seg())
    eng.run_until(10)
    assert sinks[0][0].dst == honey
    assert sinks[0][0].src == A


# -- packet-in / hold -------------------------------------------------------------------


def test_miss_escalates_and_holds_until_release():
    eng, sw, sinks = make_switch()
    escalated = []
    sw.packet_in_handler = lambda pkt, key, hold: escalated.append((pkt, hold))
    sw.process(seg(b"first"))
    assert len(escalated) == 1
    assert sinks[0] == []  # held, not forwarded
    pkt, hold = escalated[0]
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.release_held(hold) is True
    eng.run_until(10)
    assert [p.payload for p in sinks[0]] == [b"first"]


def test_hold_expires_after_timeout():
    eng = Engine(1)
    sw = Switch(eng)
    sink = []
    sw.attach(Link(eng, "p", LinkModel(0), sink.append))
    sw.process(seg())
    sw.install_rule(exact_match(), (Output(1),))
    eng.schedule(lambda: None, 2_000_000)
    eng.run_until(2_000_000)
    # no event watches the deadline: the hold expires when it is resolved
    assert sw.stats["hold_expired"] == 0
    # too late: the packet is gone, and counts once
    assert sw.release_held(1) is False
    assert sw.release_held(1) is False
    assert sw.stats["hold_expired"] == 1
    assert sink == []


def test_a_burst_of_holds_schedules_no_event():
    eng = Engine(1)
    sw = Switch(eng)
    for sport in range(50):
        sw.process(seg(sport=sport))
    # the marker is the first event the engine ever queued
    assert eng.schedule(lambda: None, MISS_HOLD_TIMEOUT_US) == 1
    assert eng.run_until(MISS_HOLD_TIMEOUT_US) == 1
    assert sw.stats["hold_expired"] == 0
    assert [sw.drop_held(hold) for hold in range(1, 51)] == [False] * 50
    assert sw.stats["hold_expired"] == 50


class OneEventPerHold(Switch):
    """Reference hold expiry: one timer event per miss, queued when
    ``process`` leaves a new hold, that drops the hold and counts it at its
    deadline; release and drop ignore the deadline the switch stores."""

    def process(self, pkt, key=None) -> None:
        last = self._last_hold
        super().process(pkt, key)
        if self._last_hold != last:
            hold_id = self._last_hold
            self._engine.schedule_in(lambda: self._expire_hold(hold_id),
                                     MISS_HOLD_TIMEOUT_US)

    def _expire_hold(self, hold_id: int) -> None:
        if self._held.pop(hold_id, None) is not None:
            self.stats["hold_expired"] += 1

    def release_held(self, hold_id: int) -> bool:
        held = self._held.pop(hold_id, None)
        if held is None:
            return False
        self.process(held[0], held[1])
        return True

    def drop_held(self, hold_id: int) -> bool:
        return self._held.pop(hold_id, None) is not None


class HoldBench:
    """One switch with one output port; every miss gets its forwarding
    rule at once, so a released packet is forwarded."""

    def __init__(self, switch_cls):
        self.engine = Engine(1)
        self.switch = switch_cls(self.engine)
        self.forwarded = []
        self.switch.attach(Link(self.engine, "out", LinkModel(0),
                                lambda p: self.forwarded.append(p.sport)))
        self.holds = []
        self.switch.packet_in_handler = lambda pkt, key, hold: self.holds.append(hold)
        self.timed = []  # (time, op, hold, result) of the timed calls

    def miss(self, sport):
        self.switch.process(seg(sport=sport))
        self.switch.install_rule(exact_match(sport=sport), (Output(1),))

    def advance(self, t):
        # the marker event puts both clocks at t, though the two switches
        # dispatch different numbers of events on the way
        self.engine.schedule(lambda: None, t)
        self.engine.run_until(t)

    def call_at(self, t, op, hold):
        def call():
            self.timed.append((self.engine.now, op, hold,
                               getattr(self.switch, op)(hold)))
        self.engine.schedule(call, t)

    def state(self):
        """All but ``hold_expired``, which the reference counts at each
        deadline and the switch when the expired hold is resolved."""
        stats = self.switch.stats
        return (self.engine.now, stats["processed"], stats["miss"], self.holds,
                self.forwarded, self.timed)


# A step names holds by a number taken modulo the holds so far, so steps
# are drawn independently of the state they run in. Times are at or after
# the clock: ``wait`` advances by an offset, the others go to a hold's
# deadline plus -1, 0 or 1 µs.
HOLD_STEPS = st.one_of(
    st.tuples(st.just("miss")),
    st.tuples(st.just("wait"), st.integers(0, MISS_HOLD_TIMEOUT_US // 2)),
    st.tuples(st.sampled_from(["release_held", "drop_held"]), st.integers(0, 63)),
    st.tuples(st.sampled_from(["to_deadline", "release_held at", "drop_held at"]),
              st.integers(0, 63), st.integers(-1, 1)),
)


@settings(max_examples=200)
@given(st.lists(HOLD_STEPS, max_size=40))
def test_holds_resolve_as_one_expiry_event_per_hold(steps):
    ref, new = HoldBench(OneEventPerHold), HoldBench(Switch)
    deadlines = []  # index: hold id - 1
    resolved = {}  # hold id -> time of its first release or drop

    def expired():
        for t, _, hold, _ in new.timed:
            resolved.setdefault(hold, t)
        return sum(t >= deadlines[hold - 1] for hold, t in resolved.items())

    for step in steps:
        now = new.engine.now
        kind = step[0]
        if kind == "miss":
            for bench in (ref, new):
                bench.miss(sport=len(deadlines))
            deadlines.append(now + MISS_HOLD_TIMEOUT_US)
        elif kind == "wait":
            for bench in (ref, new):
                bench.advance(now + step[1])
        elif kind in ("release_held", "drop_held"):
            # the id past the last miss is unknown to both
            hold = step[1] % (len(deadlines) + 1) + 1
            assert getattr(ref.switch, kind)(hold) == getattr(new.switch, kind)(hold)
            if hold <= len(deadlines):
                resolved.setdefault(hold, now)
        elif deadlines:
            hold = step[1] % len(deadlines) + 1
            t = max(now, deadlines[hold - 1] + step[2])
            for bench in (ref, new):
                if kind == "to_deadline":
                    bench.advance(t)
                else:
                    # a call from an event queued after the hold's miss, as
                    # every controller release is; at the deadline it loses
                    bench.call_at(t, kind.split()[0], hold)
        assert ref.state() == new.state()
        assert new.switch.stats["hold_expired"] == expired()
    end = max(deadlines, default=0) + 1
    for bench in (ref, new):
        bench.advance(max(end, bench.engine.now))
    assert ref.state() == new.state()
    assert new.switch.stats["hold_expired"] == expired()
    # resolve every hold: each one left is past its deadline
    for hold in range(1, len(deadlines) + 1):
        assert ref.switch.drop_held(hold) is new.switch.drop_held(hold) is False
        resolved.setdefault(hold, new.engine.now)
    assert ref.state() == new.state()
    assert new.switch.stats["hold_expired"] == expired() == \
        ref.switch.stats["hold_expired"]


def test_release_at_the_deadline_loses():
    """A release queued for a hold's deadline runs after the reference's
    timer, queued at the miss, and loses on both; one µs earlier it wins."""
    for switch_cls in (OneEventPerHold, Switch):
        bench = HoldBench(switch_cls)
        bench.miss(sport=1)
        bench.advance(10)
        bench.miss(sport=2)
        bench.miss(sport=3)
        deadline = 10 + MISS_HOLD_TIMEOUT_US
        bench.call_at(deadline - 1, "release_held", 3)
        bench.call_at(deadline, "release_held", 2)
        bench.call_at(deadline, "drop_held", 1)
        bench.advance(deadline)
        assert bench.timed == [(deadline - 1, "release_held", 3, True),
                               (deadline, "release_held", 2, False),
                               (deadline, "drop_held", 1, False)], switch_cls
        assert bench.switch.stats["hold_expired"] == 2, switch_cls
        assert bench.forwarded == [3], switch_cls


# -- buffering ------------------------------------------------------------------------------


def test_buffer_and_release_preserves_order():
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(), (Buffer("q"),))
    for tag in (b"1", b"2", b"3"):
        sw.process(seg(tag))
    eng.run_until(10)
    assert sinks[0] == []
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.release_buffer("q") == 3
    eng.run_until(20)
    assert [p.payload for p in sinks[0]] == [b"1", b"2", b"3"]


def test_release_empty_queue():
    _, sw, _ = make_switch()
    sw.create_queue("empty")
    assert sw.release_buffer("empty") == 0


def test_release_unknown_queue():
    _, sw, _ = make_switch()
    with pytest.raises(UnknownQueue):
        sw.release_buffer("nope")

