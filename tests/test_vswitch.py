"""Flow table semantics: one action list per exact connection key,
mirroring, packet-in holds, buffering, and seq/ack rewriting (checked
against the modular-arithmetic oracle)."""

import pytest

from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment
from honeysplice.simnet import Engine, Link, LinkModel
from honeysplice.vswitch import (
    Buffer,
    Output,
    Rewrite,
    Switch,
    UnknownQueue,
    UnknownRule,
)

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
    sw.mirror_taps.append(mirrored.append)
    sw.install_rule(exact_match(), (Rewrite(seq_delta=500), Output(1)))
    s = seg(seq=1000)
    sw.process(s)
    eng.run_until(10)
    assert mirrored == [s]               # the unmodified original
    assert mirrored[0].seq == 1000
    assert sinks[0][0].seq == 1500       # forwarded copy was rewritten


def test_buffered_release_is_not_mirrored_again():
    eng, sw, _ = make_switch()
    mirrored = []
    sw.mirror_taps.append(mirrored.append)
    sw.install_rule(exact_match(), (Buffer("q"),))
    sw.process(seg(b"a"))
    sw.install_rule(exact_match(), (Output(1),))
    assert sw.release_buffer("q") == 1
    assert len(mirrored) == 1


def test_tap_rule_change_affects_same_packet():
    # a tap may mutate the table; the packet then sees the new table
    eng, sw, sinks = make_switch()
    sw.install_rule(exact_match(), (Output(1),))

    def tap(pkt):
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
    sw.packet_in_handler = lambda pkt, hold: escalated.append((pkt, hold))
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
    eng.run_until(2_000_000)
    assert sw.stats["hold_expired"] == 1
    # too late: the packet is gone
    assert sw.release_held(1) is False


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

