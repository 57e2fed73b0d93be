"""Sequence arithmetic and segment primitives.

Expected values for the wraparound cases were computed with unbounded
Python ints (the oracle below) before being frozen into the asserts.
"""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from honeysplice.endpoint import TcpEndpoint, fixed_iss
from honeysplice.harness import builtin_scenario_path, load_scenario, run_experiment
from honeysplice.ids import parse_rule
from honeysplice.netcore import (
    SEQ_MOD,
    HostAddr,
    TcpFlags,
    TcpSegment,
    seg_span,
    seq_add,
    seq_lt,
)
from honeysplice.simnet import EchoPacket
from honeysplice.vswitch import Rewrite

from flow_key import five_tuple

A = HostAddr("10.0.0.1", "02:00:00:00:00:01")
B = HostAddr("10.0.0.2", "02:00:00:00:00:02")


def big_add(s, d):
    # oracle: unbounded-int arithmetic reduced mod 2**32
    return (s + d) % (2**32)


def windowed_lt(a, b):
    # oracle: b is reachable from a by adding 1..2**31-1 (enumerated lazily)
    return a != b and ((b - a) % (2**32)) < 2**31


# -- seq_add -------------------------------------------------------------------


def test_seq_add_small():
    assert seq_add(1000, 500) == 1500


def test_seq_add_identity():
    assert seq_add(12345, 0) == 12345


def test_seq_add_wraps():
    # (2**32 - 10) + 20 == 4294967306, reduced: 10
    assert big_add(2**32 - 10, 20) == 10
    assert seq_add(2**32 - 10, 20) == 10


@given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1),
       st.integers(0, SEQ_MOD - 1))
def test_seq_add_associative(s, a, b):
    assert seq_add(seq_add(s, a), b) == seq_add(s, (a + b) % SEQ_MOD)


@given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
def test_seq_add_matches_bignum(s, d):
    assert seq_add(s, d) == big_add(s, d)


# -- seq_lt ----------------------------------------------------------------------


def test_seq_lt_simple():
    assert seq_lt(5, 10)
    assert not seq_lt(10, 5)


def test_seq_lt_irreflexive():
    assert not seq_lt(7, 7)


def test_seq_lt_across_wrap():
    # offset from 2**32-5 to 3 is 8 (< 2**31), so it precedes
    assert windowed_lt(2**32 - 5, 3)
    assert seq_lt(2**32 - 5, 3)
    assert not seq_lt(3, 2**32 - 5)


@given(st.integers(0, SEQ_MOD - 1),
       st.integers(1, 2**31 - 1), st.integers(1, 2**31 - 1))
def test_seq_lt_strict_order_on_window(start, i, j):
    # any window of < 2**31 consecutive values is strictly ordered
    a, b = seq_add(start, min(i, j)), seq_add(start, max(i, j))
    if i == j:
        assert not seq_lt(a, b) and not seq_lt(b, a)
    else:
        assert seq_lt(a, b)
        assert not seq_lt(b, a)


@given(st.integers(0, SEQ_MOD - 1), st.integers(0, SEQ_MOD - 1))
def test_seq_lt_matches_oracle(a, b):
    assert seq_lt(a, b) == windowed_lt(a, b)


# -- segments ------------------------------------------------------------------------


def test_seg_span_pure_ack():
    seg = TcpSegment(A, B, 1, 2, seq=0, ack=0, flags=TcpFlags.ACK)
    assert seg_span(seg) == 0


def test_seg_span_syn():
    seg = TcpSegment(A, B, 1, 2, seq=0, ack=0, flags=TcpFlags.SYN)
    assert seg_span(seg) == 1


def test_seg_span_data():
    seg = TcpSegment(A, B, 1, 2, seq=0, ack=0,
                     flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"1234567")
    assert seg_span(seg) == 7


def test_seg_span_fin():
    seg = TcpSegment(A, B, 1, 2, seq=0, ack=0,
                     flags=TcpFlags.FIN | TcpFlags.ACK, payload=b"ab")
    assert seg_span(seg) == 3


def test_segment_rejects_syn_fin():
    with pytest.raises(ValueError):
        TcpSegment(A, B, 1, 2, seq=0, ack=0, flags=TcpFlags.SYN | TcpFlags.FIN)


def test_segment_normalizes_seq():
    seg = TcpSegment(A, B, 1, 2, seq=SEQ_MOD + 5, ack=-1, flags=TcpFlags.ACK)
    assert seg.seq == 5
    assert seg.ack == SEQ_MOD - 1


# -- write-once packets ---------------------------------------------------------


def _write_once(obj, name, value):
    # a slot that already holds a value must not be assigned again
    try:
        getattr(obj, name)
    except AttributeError:
        object.__setattr__(obj, name, value)
    else:
        raise AttributeError(f"{type(obj).__name__}.{name} assigned after construction")


@pytest.fixture
def write_once(monkeypatch):
    monkeypatch.setattr(TcpSegment, "__setattr__", _write_once)
    monkeypatch.setattr(EchoPacket, "__setattr__", _write_once)


@pytest.mark.parametrize("name", ["e1_redirect", "e2_saturated",
                                  "e3_copy_on_demand", "e4_restore"])
def test_shipped_scenarios_never_reassign_packet_fields(write_once, name):
    scenario = replace(load_scenario(builtin_scenario_path(name)), repetitions=1)
    assert len(run_experiment(scenario)) == 1


def test_write_once_guard_catches_reassignment(write_once):
    seg = TcpSegment(A, B, 1, 2, seq=3, ack=4, flags=TcpFlags.ACK)
    with pytest.raises(AttributeError, match="seq assigned after construction"):
        seg.seq = 9
    assert seg.seq == 3
    pkt = EchoPacket(A, B, 1, 7)
    with pytest.raises(AttributeError, match="sport assigned after construction"):
        pkt.sport = 2


def test_rewrite_builds_a_new_segment_and_leaves_the_input():
    honey = HostAddr("10.0.0.9", "02:00:00:00:00:09")
    seg = TcpSegment(A, B, 40001, 9000, seq=SEQ_MOD - 2, ack=10,
                     flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"req")
    before = repr(seg)
    out = Rewrite(seq_delta=5, ack_delta=-20, new_dst=honey).apply(seg)
    assert out == TcpSegment(A, honey, 40001, 9000, seq=3, ack=SEQ_MOD - 10,
                             flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"req")
    assert repr(seg) == before
    assert Rewrite().apply(seg) == seg


# -- flag encoding ---------------------------------------------------------------


def test_flags_are_distinct_int_bits():
    bits = [TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN, TcpFlags.RST, TcpFlags.PSH]
    assert all(type(b) is int for b in bits)
    assert bits == [1, 2, 4, 8, 16]
    assert TcpFlags.NONE == 0


def test_endpoint_segments_carry_int_flags():
    client = TcpEndpoint(A, 40001, B, 9000, fixed_iss(100))
    server = TcpEndpoint(B, 9000, A, 40001, fixed_iss(7000))
    syn = client.open()
    synack, _ = server.on_segment(syn)
    ack, _ = client.on_segment(synack[0])
    server.on_segment(ack[0])
    data = client.app_send(b"x")
    for seg in (syn, synack[0], ack[0], data):
        assert type(seg.flags) is int
    assert data.flags == TcpFlags.PSH | TcpFlags.ACK


def test_ids_flags_option_parses_to_int_bits():
    rule = parse_rule('alert tcp any -> any any (msg:"X"; flags:P.A.; sid:1;)')
    assert rule.flags_req == TcpFlags.PSH | TcpFlags.ACK == 18
    assert type(rule.flags_req) is int


def test_host_addr_identity():
    # identical iff both ip and mac match
    assert HostAddr("10.0.0.2", "02:aa") == HostAddr("10.0.0.2", "02:aa")
    assert HostAddr("10.0.0.2", "02:aa") != HostAddr("10.0.0.2", "02:bb")
    assert HostAddr("10.0.0.2", "02:aa") != HostAddr("10.0.0.3", "02:aa")


def test_five_tuple():
    seg = TcpSegment(A, B, 40001, 9000, seq=1, ack=2, flags=TcpFlags.ACK)
    assert five_tuple(seg) == ("10.0.0.1", 40001, "10.0.0.2", 9000)
