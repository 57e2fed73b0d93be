"""Endpoint state machine: handshake, data transfer, duplicates, teardown.

The duplicate/reassembly behavior is checked against a byte-position
reference reassembler (written first, independent of the endpoint code):
it tracks a cursor into the peer's absolute byte stream and delivers
whatever portion of each segment lies at the cursor.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from honeysplice import endpoint
from honeysplice.endpoint import (
    PAYLOAD_CACHE_SIZE,
    ConnState,
    EmptyPayload,
    InvalidState,
    ServerApp,
    TcpEndpoint,
    fixed_iss,
    random_iss,
)
from honeysplice.netcore import (
    HostAddr,
    TcpFlags,
    TcpSegment,
    seg_end,
    seq_add,
    seq_leq,
    seq_lt,
    seq_sub,
)

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
    emitted, delivered = server.on_segment(seg)
    assert delivered == b"hello"
    assert emitted == []  # the ack of delivered data is the caller's
    assert server.ack_now().ack == seq_add(seg.seq, 5)


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


@settings(max_examples=150)
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


# -- header prediction vs the full receive path ---------------------------------------------


class AcksItsOwnDeliveries(TcpEndpoint):
    """Reference receive path: every segment takes the full duplicate /
    gap / overlap / FIN logic, and the endpoint returns the ACK of the
    data it delivers itself, as it did before header prediction."""

    def on_segment(self, seg):
        if seg.flags & TcpFlags.RST:
            self.state = ConnState.CLOSED_FINAL
            return [], b""
        state = self.state
        if state is ConnState.CLOSED:
            if (seg.flags & TcpFlags.SYN) and not (seg.flags & TcpFlags.ACK):
                self.remote = seg.src
                self.rport = seg.sport
                self.iss = self._iss_policy()
                self.rcv_nxt = seq_add(seg.seq, 1)
                self.snd_nxt = seq_add(self.iss, 1)
                self.state = ConnState.SYN_RCVD
                return [self._make(TcpFlags.SYN | TcpFlags.ACK, self.iss)], b""
            return [], b""
        if state is ConnState.SYN_SENT:
            if (seg.flags & TcpFlags.SYN) and (seg.flags & TcpFlags.ACK) \
                    and seg.ack == self.snd_nxt:
                self.rcv_nxt = seq_add(seg.seq, 1)
                self.state = ConnState.ESTABLISHED
                return [self._make(TcpFlags.ACK, self.snd_nxt)], b""
            return [], b""
        if state is ConnState.SYN_RCVD:
            if (seg.flags & TcpFlags.ACK) and seg.ack == self.snd_nxt:
                self.state = ConnState.ESTABLISHED
                if len(seg.payload) > 0 or (seg.flags & TcpFlags.FIN):
                    return self._established(seg)
            return [], b""
        if state in (ConnState.ESTABLISHED, ConnState.FIN_WAIT, ConnState.CLOSE_WAIT):
            return self._established(seg)
        return [], b""

    def _established(self, seg):
        delivered = b""
        advanced = False
        if len(seg.payload) > 0:
            end = seg_end(seg)
            if seq_leq(end, self.rcv_nxt):
                return [self._make(TcpFlags.ACK, self.snd_nxt)], b""
            if seq_lt(self.rcv_nxt, seg.seq):
                return [self._make(TcpFlags.ACK, self.snd_nxt)], b""
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
        if advanced:
            return [self._make(TcpFlags.ACK, self.snd_nxt)], delivered
        return [], b""


PA = TcpFlags.PSH | TcpFlags.ACK
# mostly plain data, so most sessions stay ESTABLISHED for a while
FLAGS = [PA] * 8 + [TcpFlags.ACK, PA | TcpFlags.FIN, TcpFlags.ACK | TcpFlags.FIN,
                    PA | TcpFlags.SYN, TcpFlags.NONE, PA | TcpFlags.RST]

# one inbound segment: its seq relative to the receiver's rcv_nxt (0 most
# often: the predicted case), payload length, flags, and its ack relative
# to the receiver's snd_nxt (stale, current or advanced); flags "close"
# stand for the receiver's own FIN instead, "ack" for a pure ACK
SEGMENT = st.tuples(st.just(0) | st.integers(-12, 12), st.integers(0, 12),
                    st.sampled_from(FLAGS + ["close", "ack", "ack"]),
                    st.sampled_from([0, 0, -1, 1, -3000, 3000]))


@settings(max_examples=400)
@given(client_iss=st.integers(2**32 - 200, 2**32 - 1) | st.integers(0, 2**32 - 1),
       handshake_data=st.integers(0, 8),
       handshake_fin=st.sampled_from([False] * 4 + [True]),
       script=st.lists(SEGMENT, max_size=40))
@example(client_iss=2**32 - 1, handshake_data=0, handshake_fin=False,
         script=[(0, 0, "ack", -1), (0, 0, "ack", 0), (0, 0, "ack", 1),
                 (0, 4, PA, 0), (0, 0, "ack", -3000), (0, 0, "ack", 3000)])
def test_header_prediction_matches_the_full_receive_path(
        client_iss, handshake_data, handshake_fin, script):
    """Over a stream that crosses the 2**32 wrap, with exact and partial
    duplicates, gaps, FIN, data on the handshake ACK and pure ACKs with a
    stale, current or advanced ack, the endpoint plus the ACK its caller
    owes for delivered data gives the same segments, bytes, rcv_nxt and
    state as the full receive path."""
    ep = TcpEndpoint(B, 9000, A, 40001, fixed_iss(7000))
    ref = AcksItsOwnDeliveries(B, 9000, A, 40001, fixed_iss(7000))
    start = seq_add(client_iss, 1)

    def inbound(seq, length, flags, ack_offset=0):
        pos = seq_sub(seq, start)
        payload = bytes((pos + i) % 251 for i in range(length))
        return TcpSegment(A, B, 40001, 9000, seq, seq_add(ref.snd_nxt, ack_offset),
                          flags, payload)

    def step(seg):
        want = ref.on_segment(seg)
        emitted, delivered = ep.on_segment(seg)
        if delivered:
            assert emitted == []
            emitted = [ep.ack_now()]  # what the caller sends
        assert (emitted, delivered) == want
        assert (ep.rcv_nxt, ep.snd_nxt, ep.state) == (ref.rcv_nxt, ref.snd_nxt, ref.state)

    step(TcpSegment(A, B, 40001, 9000, client_iss, 0, TcpFlags.SYN))
    step(inbound(start, handshake_data,
                 TcpFlags.ACK | (TcpFlags.FIN if handshake_fin else 0)))
    for offset, length, flags, ack_offset in script:
        if flags == "ack":
            length, flags = 0, TcpFlags.ACK
        if flags != "close":
            step(inbound(seq_add(ref.rcv_nxt, offset), length, flags, ack_offset))
        elif ref.state is ConnState.ESTABLISHED:
            assert ep.close() == ref.close()


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


def test_respond_answers_content_not_identity():
    """A request equal in content to a cached one, but another object, gets
    equal bytes; so does a bytearray or memoryview, each read afresh."""
    request = b"abc" * 1000
    expected = b"cache#000001|" + request
    assert ServerApp("cache").respond(request) == expected
    assert ServerApp("cache").respond(bytes(bytearray(request))) == expected
    buf = bytearray(b"first")
    assert ServerApp("cache").respond(buf) == b"cache#000001|first"
    buf[:] = b"again"
    assert ServerApp("cache").respond(buf) == b"cache#000001|again"
    assert ServerApp("cache").respond(memoryview(buf)) == b"cache#000001|again"
    app = ServerApp("cache")
    app.respond(memoryview(b"one"))
    assert app.request_log == [b"one"] and type(app.request_log[0]) is bytes


def test_respond_cache_keys_app_id_and_count():
    request = b"same object"
    assert ServerApp("one").respond(request) == b"one#000001|same object"
    assert ServerApp("two").respond(request) == b"two#000001|same object"
    for _ in range(2):  # a miss, then hits, give the widened tag
        app = ServerApp("wide")
        app.request_count = 999_998
        assert app.respond(request) == b"wide#999999|same object"
        assert app.respond(request) == b"wide#1000000|same object"


def test_respond_cache_is_bounded_and_keys_hold_no_payload():
    app = ServerApp("bound")
    requests = [b"%d" % i * 50 for i in range(1000)]
    responses = [app.respond(r) for r in requests]
    assert len(endpoint._RESPONSES) <= PAYLOAD_CACHE_SIZE
    # oldest first out: the newest entries are the ones kept
    assert ("bound", 1000, id(requests[-1])) in endpoint._RESPONSES
    assert ("bound", 1, id(requests[0])) not in endpoint._RESPONSES
    for key in endpoint._RESPONSES:
        assert [type(part) for part in key] == [str, int, int]
    again = ServerApp("bound")
    again.request_count = 999
    assert again.respond(requests[-1]) is responses[-1]
