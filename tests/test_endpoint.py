"""Endpoint state machine: handshake, data transfer, duplicates, teardown.

The duplicate/reassembly behavior is checked against a byte-position
reference reassembler (written first, independent of the endpoint code):
it tracks a cursor into the peer's absolute byte stream and delivers
whatever portion of each segment lies at the cursor.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from honeysplice.endpoint import (
    ConnState,
    EmptyPayload,
    InvalidState,
    ServerApp,
    TcpEndpoint,
    fixed_iss,
    random_iss,
)
from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment, seq_add

A = HostAddr("10.0.0.1", "02:00:00:00:00:01")
B = HostAddr("10.0.0.2", "02:00:00:00:00:02")


def reference_reassembler(segments, isn):
    """Oracle: cursor over the absolute stream starting at isn+1.

    For each (seq, payload), deliver the suffix beyond the cursor when the
    segment starts at or before it and extends past it; ignore anything
    else (old duplicates, segments beyond the cursor).
    """
    cursor = (isn + 1) % 2**32
    out = bytearray()
    for seq, payload in segments:
        start = seq
        end = (seq + len(payload)) % 2**32
        behind = (cursor - start) % 2**32
        if behind < 2**31 and behind < len(payload):
            out.extend(payload[behind:])
            cursor = end
    return bytes(out)


def handshake(client_iss=100, server_iss=7000):
    client = TcpEndpoint(A, 40001, B, 9000, fixed_iss(client_iss))
    server = TcpEndpoint(B, 9000, A, 40001, fixed_iss(server_iss))
    syn = client.open()
    synack, _ = server.on_segment(syn)
    ack, _ = client.on_segment(synack[0])
    server.on_segment(ack[0])
    return client, server


# -- open ---------------------------------------------------------------------


def test_open_fixed_iss():
    ep = TcpEndpoint(A, 1, B, 2, fixed_iss(0))
    syn = ep.open()
    assert syn.seq == 0
    assert syn.flags & TcpFlags.SYN
    assert ep.state is ConnState.SYN_SENT


def test_open_seeded_random_iss_reproducible():
    iss1 = TcpEndpoint(A, 1, B, 2, random_iss(random.Random(99))).open().seq
    iss2 = TcpEndpoint(A, 1, B, 2, random_iss(random.Random(99))).open().seq
    assert iss1 == iss2


def test_open_twice_invalid():
    ep = TcpEndpoint(A, 1, B, 2, fixed_iss(0))
    ep.open()
    with pytest.raises(InvalidState):
        ep.open()


# -- handshake -----------------------------------------------------------------


def test_three_way_handshake():
    client = TcpEndpoint(A, 40001, B, 9000, fixed_iss(100))
    server = TcpEndpoint(B, 9000, A, 40001, fixed_iss(7000))
    syn = client.open()
    (synack,), _ = server.on_segment(syn)
    assert synack.seq == 7000 and synack.ack == 101
    assert server.state is ConnState.SYN_RCVD
    (ack,), _ = client.on_segment(synack)
    assert ack.seq == 101 and ack.ack == 7001
    assert client.state is ConnState.ESTABLISHED
    server.on_segment(ack)
    assert server.state is ConnState.ESTABLISHED


def test_no_established_without_full_exchange():
    # a stray ACK cannot establish a passive endpoint
    server = TcpEndpoint(B, 9000, A, 40001, fixed_iss(7000))
    stray = TcpSegment(A, B, 40001, 9000, seq=5, ack=9, flags=TcpFlags.ACK)
    server.on_segment(stray)
    assert server.state is ConnState.CLOSED
    # and a SYN alone leaves it in SYN_RCVD
    syn = TcpSegment(A, B, 40001, 9000, seq=100, ack=0, flags=TcpFlags.SYN)
    server.on_segment(syn)
    assert server.state is ConnState.SYN_RCVD


# -- data ---------------------------------------------------------------------------


def test_app_send_advances_snd_nxt():
    client, _ = handshake()
    assert client.snd_nxt == 101
    seg = client.app_send(b"abc")
    assert seg.seq == 101
    assert seg.payload == b"abc"
    assert seg.flags & TcpFlags.PSH and seg.flags & TcpFlags.ACK
    assert client.snd_nxt == 104


def test_app_send_sequencing():
    client, _ = handshake()
    s1 = client.app_send(b"a")
    s2 = client.app_send(b"b")
    assert s2.seq == seq_add(s1.seq, 1)


def test_app_send_empty_rejected():
    client, _ = handshake()
    with pytest.raises(EmptyPayload):
        client.app_send(b"")


def test_in_order_delivery_and_ack():
    client, server = handshake()
    seg = client.app_send(b"hello")
    (ack,), delivered = server.on_segment(seg)
    assert delivered == b"hello"
    assert ack.ack == seq_add(seg.seq, 5)


def test_duplicate_is_reacked_not_delivered():
    client, server = handshake()
    seg = client.app_send(b"hello")
    _, first = server.on_segment(seg)
    (ack,), delivered = server.on_segment(seg)  # exact duplicate
    assert first == b"hello"
    assert delivered == b""
    assert ack.ack == server.rcv_nxt == seq_add(seg.seq, 5)


def test_out_of_window_acked_not_delivered():
    client, server = handshake()
    ahead = TcpSegment(A, B, 40001, 9000, seq=seq_add(client.snd_nxt, 500),
                       ack=server.snd_nxt, flags=TcpFlags.PSH | TcpFlags.ACK,
                       payload=b"zz")
    rcv_nxt = server.rcv_nxt
    (ack,), delivered = server.on_segment(ahead)
    assert delivered == b""
    assert ack.ack == server.rcv_nxt == rcv_nxt


# -- close / abort ---------------------------------------------------------------------


def test_close_consumes_one_unit():
    client, server = handshake()
    fin = client.close()
    assert fin.seq == 101
    assert client.snd_nxt == 102
    assert client.state is ConnState.FIN_WAIT
    (ack,), _ = server.on_segment(fin)
    assert ack.ack == seq_add(fin.seq, 1)
    assert server.state is ConnState.CLOSE_WAIT


def test_close_seq_accounting():
    client, _ = handshake()
    client.app_send(b"x" * 99)  # snd_nxt = 200
    fin = client.close()
    assert fin.seq == 200
    assert client.snd_nxt == 201


def test_abort_emits_rst():
    client, server = handshake()
    rst = client.abort()
    assert rst.flags & TcpFlags.RST
    assert rst.seq == client.snd_nxt
    assert client.state is ConnState.CLOSED_FINAL
    _, delivered = server.on_segment(rst)
    assert delivered == b""
    assert server.state is ConnState.CLOSED_FINAL


def test_close_before_established_invalid():
    ep = TcpEndpoint(A, 1, B, 2, fixed_iss(0))
    ep.open()
    with pytest.raises(InvalidState):
        ep.close()


# -- stream integrity vs the reference reassembler --------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=50),
       st.data())
def test_stream_integrity_with_duplicates(payloads, data):
    """Randomized sessions of <= 50 segments, with random duplicate
    re-presentations interleaved, must deliver exactly the in-order
    stream the reference reassembler computes."""
    client, server = handshake(client_iss=data.draw(st.integers(0, 2**32 - 1)),
                               server_iss=7000)
    sent = []
    script = []
    for payload in payloads:
        seg = client.app_send(payload)
        sent.append(seg)
        script.append(seg)
        # maybe re-present an older segment (replay-style duplicate)
        if len(sent) > 1 and data.draw(st.booleans()):
            script.append(sent[data.draw(st.integers(0, len(sent) - 2))])

    stream = b"".join(server.on_segment(seg)[1] for seg in script)

    expected = reference_reassembler(
        [(seg.seq, seg.payload) for seg in script], client.iss)
    assert stream == expected == b"".join(payloads)


# -- server app / clone determinism ------------------------------------------------------


def test_clone_determinism():
    reqs = [b"alpha", b"beta", b"gamma"]
    a = ServerApp("svc-1")
    b = ServerApp("svc-1")
    assert [a.respond(r) for r in reqs] == [b.respond(r) for r in reqs]


@given(st.lists(st.binary(min_size=1, max_size=32), max_size=30))
def test_clone_determinism_property(reqs):
    a = ServerApp("svc-x")
    b = ServerApp("svc-x")
    assert [a.respond(r) for r in reqs] == [b.respond(r) for r in reqs]


def test_different_app_ids_differ():
    assert ServerApp("one").respond(b"q") != ServerApp("two").respond(b"q")


def test_respond_tags_app_id_and_count():
    app = ServerApp("svc")
    assert app.respond(b"req") == b"svc#000001|req"
    assert app.respond(b"req") == b"svc#000002|req"
    assert app.request_log == [b"req", b"req"]
