"""Hosts around the endpoint: which endpoint a server hands a segment to,
who sends the ACK for the data an endpoint delivers, and the attacker's
stealth checks. The endpoint leaves the ACK to its caller, so a server
carries it on the response it builds and the attacker transmits a pure ACK."""

import pytest
from hypothesis import example, given, settings, strategies as st

from honeysplice.endpoint import ConnState, ServerApp, TcpEndpoint, fixed_iss
from honeysplice.hosts import AttackerHost, ServerHost
from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment, seq_add
from honeysplice.simnet import Engine

ATT = HostAddr("10.0.0.1", "02:00:00:00:00:01")
SRV = HostAddr("10.0.0.2", "02:00:00:00:00:02")


def connected_server():
    """A server host and a client endpoint past the handshake, driven out
    of band."""
    server = ServerHost(Engine(1), "srv", SRV, 9000, ServerApp("svc"), fixed_iss(7000))
    client = TcpEndpoint(ATT, 40001, SRV, 9000, fixed_iss(100))
    (synack,) = server.deliver_oob(client.open())
    (ack,), _ = client.on_segment(synack)
    assert server.deliver_oob(ack) == []
    return server, client


def test_segment_to_another_port_opens_no_endpoint():
    server = ServerHost(Engine(1), "srv", SRV, 9000, ServerApp("svc"), fixed_iss(7000))
    syn = TcpEndpoint(ATT, 40001, SRV, 9001, fixed_iss(100)).open()
    assert server.deliver_oob(syn) == []
    assert server.conns == {}


@pytest.mark.parametrize("flags", [
    TcpFlags.ACK, TcpFlags.PSH | TcpFlags.ACK, TcpFlags.SYN | TcpFlags.ACK,
    TcpFlags.FIN | TcpFlags.ACK, TcpFlags.RST,
], ids=["ack", "data", "synack", "fin", "rst"])
def test_non_syn_from_an_unknown_peer_opens_no_endpoint(flags):
    server = ServerHost(Engine(1), "srv", SRV, 9000, ServerApp("svc"), fixed_iss(7000))
    payload = b"hi" if flags & TcpFlags.PSH else b""
    seg = TcpSegment(ATT, SRV, 40001, 9000, 101, 7001, flags, payload)
    assert server.deliver_oob(seg) == []
    assert server.conns == {}


def test_syn_from_a_closed_peer_opens_a_fresh_endpoint():
    server, client = connected_server()
    closed = server.conns[(ATT.ip, 40001)]
    assert server.deliver_oob(client.abort()) == []
    assert closed.state is ConnState.CLOSED_FINAL
    # anything but a bare SYN still goes to the closed endpoint, which ignores it
    late = TcpSegment(ATT, SRV, 40001, 9000, client.snd_nxt, client.rcv_nxt,
                      TcpFlags.PSH | TcpFlags.ACK, b"late")
    assert server.deliver_oob(late) == []
    assert server.conns[(ATT.ip, 40001)] is closed
    # the same peer port opens again with a new ISS
    again = TcpEndpoint(ATT, 40001, SRV, 9000, fixed_iss(5000))
    (synack,) = server.deliver_oob(again.open())
    fresh = server.conns[(ATT.ip, 40001)]
    assert fresh is not closed and fresh.state is ConnState.SYN_RCVD
    assert (synack.flags, synack.seq, synack.ack) == \
        (TcpFlags.SYN | TcpFlags.ACK, 7000, 5001)
    assert server.app.request_count == 0


def test_server_answering_a_request_builds_one_segment(monkeypatch):
    server, client = connected_server()
    request = client.app_send(b"hello")
    built = []
    init = TcpSegment.__init__

    def counted(seg, *args, **kwargs):
        built.append(seg)
        init(seg, *args, **kwargs)

    monkeypatch.setattr(TcpSegment, "__init__", counted)
    (response,) = server.deliver_oob(request)
    assert built == [response]
    assert response.payload == b"svc#000001|hello"
    assert response.ack == seq_add(request.seq, 5)  # the request's ack rides on it


def test_server_sends_through_transmit():
    # the benchmark bills a host's sends by wrapping Host.transmit
    server, client = connected_server()
    sent = []
    server.transmit = sent.append
    server.deliver(client.app_send(b"hello"))
    assert [seg.payload for seg in sent] == [b"svc#000001|hello"]


def test_server_acks_data_that_ends_the_stream():
    # data with FIN moves to CLOSE_WAIT: no response, so a pure ACK
    server, client = connected_server()
    seg = TcpSegment(ATT, SRV, 40001, 9000, client.snd_nxt, client.rcv_nxt,
                     TcpFlags.PSH | TcpFlags.ACK | TcpFlags.FIN, b"bye")
    (ack,) = server.deliver_oob(seg)
    assert (ack.flags, ack.payload, ack.ack) == (TcpFlags.ACK, b"", seq_add(seg.seq, 4))
    assert server.conns[(ATT.ip, 40001)].state is ConnState.CLOSE_WAIT
    assert server.app.request_count == 0


def test_replay_builds_no_segment(monkeypatch):
    server, _ = connected_server()
    built = []
    monkeypatch.setattr(TcpSegment, "__init__", lambda seg, *a, **k: built.append(seg))
    server.replay_oob((ATT.ip, 40001), [b"hello"])
    assert built == []
    assert server.app.request_log == [b"hello"]
    assert server.conns[(ATT.ip, 40001)].snd_nxt == \
        seq_add(7001, len(b"svc#000001|hello"))


@settings(max_examples=40)
@given(sizes=st.lists(st.integers(1, 70_000), max_size=8),
       start=st.sampled_from([0, 999_998]))
@example(sizes=[5, 70_000, 9, 1], start=999_998)
@example(sizes=[1] * 3, start=9_999_998)
def test_replay_matches_delivery(sizes, start):
    """Replaying a window of requests in one call leaves a server where
    delivering each of them out of band does, across the widening of the
    response tag at request 1,000,000 (and 10,000,000) too."""
    delivered, replayed = connected_server()[0], connected_server()[0]
    for server in (delivered, replayed):
        server.app.request_count = start
    stream = bytes(range(251)) * (sum(sizes) // 251 + 1)
    requests, at = [], 0
    for size in sizes:
        requests.append(stream[at:at + size])
        delivered.deliver_oob(TcpSegment(ATT, SRV, 40001, 9000, seq_add(101, at), 0,
                                         TcpFlags.PSH | TcpFlags.ACK, requests[-1]))
        at += size
    replayed.replay_oob((ATT.ip, 40001), requests)
    d, r = ((s.app.request_count, s.app.request_log, s.conns[(ATT.ip, 40001)].rcv_nxt,
             s.conns[(ATT.ip, 40001)].snd_nxt) for s in (delivered, replayed))
    assert r == d


def test_attacker_acks_each_response_it_delivers():
    engine = Engine(5)
    attacker = AttackerHost(engine, "attacker", ATT, SRV, 9000, 40001,
                            fixed_iss(100), requests=[(10, 32)])
    sent = []
    attacker.transmit = sent.append
    attacker.start(0)
    engine.run_until(0)
    attacker.deliver(TcpSegment(SRV, ATT, 9000, 40001, seq=500, ack=101,
                                flags=TcpFlags.SYN | TcpFlags.ACK))
    engine.run_until(100)
    (request,) = sent[2:]
    attacker.deliver(TcpSegment(SRV, ATT, 9000, 40001, seq=501,
                                ack=seq_add(request.seq, len(request.payload)),
                                flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"resp"))
    (ack,) = sent[3:]
    assert (ack.flags, ack.payload, ack.seq, ack.ack) == \
        (TcpFlags.ACK, b"", attacker.conn.snd_nxt, 505)
    assert attacker.complete and attacker.violations == []


def established_attacker():
    """An attacker past its handshake (snd_nxt 101, rcv_nxt 501) that has
    sent no request yet. It has no uplink: what it sends is dropped."""
    engine = Engine(5)
    attacker = AttackerHost(engine, "attacker", ATT, SRV, 9000, 40001,
                            fixed_iss(100), requests=[(10, 32)])
    attacker.transmit = [].append
    attacker.start(0)
    engine.run_until(0)
    attacker.deliver(TcpSegment(SRV, ATT, 9000, 40001, seq=500, ack=101,
                                flags=TcpFlags.SYN | TcpFlags.ACK))
    assert attacker.conn.state is ConnState.ESTABLISHED
    return engine, attacker


@pytest.mark.parametrize("seq, ack, flags, payload, violation", [
    (501, 101, TcpFlags.RST | TcpFlags.ACK, b"", "received RST"),
    (501, 101, TcpFlags.FIN | TcpFlags.ACK, b"", "received unsolicited FIN"),
    (501, 105, TcpFlags.ACK, b"", "ack discontinuity: got 105, snd_nxt 101"),
    (509, 101, TcpFlags.PSH | TcpFlags.ACK, b"resp", "peer seq gap: got 509, expected 501"),
], ids=["rst", "fin", "ack", "gap"])
def test_attacker_reports_each_stealth_defect(seq, ack, flags, payload, violation):
    """A segment with one defect, delivered in ESTABLISHED, is one
    violation stamped with its delivery time."""
    engine, attacker = established_attacker()
    seg = TcpSegment(SRV, ATT, 9000, 40001, seq, ack, flags, payload)
    engine.schedule(lambda: attacker.deliver(seg), 7)
    engine.run_until(7)
    assert attacker.violations == [f"t=7 {violation}"]
