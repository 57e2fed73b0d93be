"""Rule dialect parsing, threshold semantics, nth-packet watches.

Threshold behavior is validated against a deliberately naive reference
counter (recomputed from scratch at every event, no incremental state)
so the two implementations share no code path.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from honeysplice.ids import (
    Alert,
    Ids,
    IdsRule,
    ParseError,
    Threshold,
    load_ruleset,
    parse_rule,
)
from honeysplice.netcore import HostAddr, TcpFlags, TcpSegment
from honeysplice.simnet import Engine

from flow_key import five_tuple

A = HostAddr("10.0.0.1", "02:00:00:00:00:01")
B = HostAddr("10.0.0.2", "02:00:00:00:00:02")
C = HostAddr("10.0.0.9", "02:00:00:00:00:09")

# verbatim rule text for the shipped migration trigger (source-port-less
# header, dotted dst with trailing dot, '.'-separated flags, colon-less sid)
MIGRATE_RULE_TEXT = ('alert tcp any -> 10.0.0.2. any (msg: "MIGRATE"; flags: P.A.; '
                     'threshold: type threshold, track by_dst, count 5, '
                     'seconds 120; sid1000001;)')


def data_seg(dst=B, src=A, flags=TcpFlags.PSH | TcpFlags.ACK, payload=b"x",
             sport=40001, dport=9000):
    return TcpSegment(src, dst, sport, dport, seq=1, ack=1,
                      flags=flags, payload=payload)


def observe(ids, seg, now):
    """``ids.observe`` given the connection key the switch hands its taps."""
    return ids.observe(seg, now, five_tuple(seg))


def reference_threshold_alerts(events, count, window_s):
    """Oracle: for each event (t, key) decide 'alert?' by rescanning the
    full history. State per key is only the index of the last alert."""
    window_us = window_s * 1_000_000
    last_alert_idx = {}
    alerts = []
    for i, (t, key) in enumerate(events):
        since = last_alert_idx.get(key, -1)
        in_window = [j for j in range(since + 1, i + 1)
                     if events[j][1] == key and t - events[j][0] < window_us]
        if len(in_window) >= count:
            alerts.append(i)
            last_alert_idx[key] = i
    return alerts


# -- parsing ---------------------------------------------------------------------


def test_parse_migrate_rule_exact():
    rule = parse_rule(MIGRATE_RULE_TEXT)
    assert rule.src_ip is None and rule.src_port is None
    assert rule.dst_ip == "10.0.0.2"
    assert rule.dst_port is None
    assert rule.msg == "MIGRATE"
    assert rule.flags_req == TcpFlags.PSH | TcpFlags.ACK
    assert rule.threshold == Threshold(count=5, seconds=120)
    assert rule.sid == 1000001


def test_parse_minimal_rule():
    rule = parse_rule('alert tcp any -> any any (msg:"X"; sid:1;)')
    assert rule.threshold is None
    assert rule.flags_req is None
    assert rule.sid == 1
    assert rule.msg == "X"


def test_parse_with_source_port():
    rule = parse_rule('alert tcp any any -> any 9000 (msg:"Y"; sid:2;)')
    assert rule.src_port is None
    assert rule.dst_port == 9000


def test_parse_sid_both_spellings():
    assert parse_rule('alert tcp any -> any any (msg:"a"; sid:77;)').sid == 77
    assert parse_rule('alert tcp any -> any any (msg:"a"; sid77;)').sid == 77


def test_missing_sid_is_error():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any -> any any (msg:"X";)')


def test_parse_error_carries_offset():
    text = 'alert udp any -> any any (msg:"X"; sid:1;)'
    with pytest.raises(ParseError) as err:
        parse_rule(text)
    assert err.value.offset == text.index("udp")
    assert "udp" in err.value.reason


def test_unknown_option_rejected():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any -> any any (msg:"X"; content:"evil"; sid:1;)')


def test_bad_flag_char_rejected():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any -> any any (msg:"X"; flags:PZ; sid:1;)')


def test_threshold_validation():
    with pytest.raises(ParseError):
        parse_rule('alert tcp any -> any any (msg:"X"; '
                   'threshold:type limit, track by_dst, count 5, seconds 1; sid:1;)')
    with pytest.raises(ParseError):
        parse_rule('alert tcp any -> any any (msg:"X"; '
                   'threshold:type threshold, track by_dst, count 0, seconds 1; sid:1;)')
    # each of the four clauses exactly once, and no other
    for body in ("type threshold, track by_dst, count 5, seconds 1, count 6",
                 "type threshold, track by_dst, count 5, seconds 1, limit 2"):
        with pytest.raises(ParseError):
            parse_rule(f'alert tcp any -> any any (msg:"X"; threshold:{body}; sid:1;)')


def tcp_rule(msg, sid, src_ip=None, src_port=None, dst_ip=None, dst_port=None,
             flags_req=None, threshold=None):
    return IdsRule(src_ip=src_ip, src_port=src_port, dst_ip=dst_ip,
                   dst_port=dst_port, msg=msg, flags_req=flags_req,
                   threshold=threshold, sid=sid)


# rule text -> the rule it must parse to
RULE_CORPUS = {
    MIGRATE_RULE_TEXT:
        tcp_rule("MIGRATE", 1000001, dst_ip="10.0.0.2",
                 flags_req=TcpFlags.PSH | TcpFlags.ACK,
                 threshold=Threshold(count=5, seconds=120)),
    'alert tcp any -> any any (msg:"X"; sid:1;)':
        tcp_rule("X", 1),
    'alert tcp any any -> any 9000 (msg:"Y"; sid:2;)':
        tcp_rule("Y", 2, dst_port=9000),
    'alert tcp 10.0.0.1 -> 10.0.0.2 9000 (msg:"Z"; flags:S; sid:3;)':
        tcp_rule("Z", 3, src_ip="10.0.0.1", dst_ip="10.0.0.2", dst_port=9000,
                 flags_req=TcpFlags.SYN),
    'alert tcp any -> 10.0.0.2 any (msg:"W"; flags:P.A.; '
    'threshold:type threshold, track by_dst, count 2, seconds 60; sid:4;)':
        tcp_rule("W", 4, dst_ip="10.0.0.2", flags_req=TcpFlags.PSH | TcpFlags.ACK,
                 threshold=Threshold(count=2, seconds=60)),
}


@pytest.mark.parametrize("text,expected", RULE_CORPUS.items(), ids=list(RULE_CORPUS))
def test_parse_corpus_rule(text, expected):
    assert parse_rule(text) == expected


H = "alert tcp any -> any any "

# malformed rule text -> the byte offset its ParseError must carry; one
# case per way the grammar can reject a rule
MALFORMED = {
    'drop tcp any -> any any (msg:"X"; sid:1;)': 0,
    'alert udp any -> any any (msg:"X"; sid:1;)': 6,
    'alert tcp 10.0.0.256 -> any any (msg:"X"; sid:1;)': 10,
    'alert tcp any -> 10.0.0 any (msg:"X"; sid:1;)': 17,
    'alert tcp any 70000 -> any any (msg:"X"; sid:1;)': 14,
    'alert tcp any -> any 65536 (msg:"X"; sid:1;)': 21,
    'alert tcp any -> any http (msg:"X"; sid:1;)': 21,
    'alert tcp any any any any (msg:"X"; sid:1;)': 18,
    'alert tcp any -> any any msg:"X"; sid:1;)': 25,
    H + '(msg "X"; sid:1;)': 30,
    H + '(msg:X; sid:1;)': 30,
    H + '(msg:"X; sid:1;)': 31,
    H + '(msg:"X"; sid:1;': 41,
    H + '(msg:"X"; sid:1': 40,
    H + '(msg:"X" sid:1;)': 34,
    H + '(msg:"X";; sid:1;)': 34,
    H + '(msg:"X"; sid:1;) x': 43,
    H + '(sid:1;)': 33,
    H + '(msg:"X";)': 35,
    H + '(msg:"X"; content:"evil"; sid:1;)': 35,
    H + '(msg:"X"; flags:PZ; sid:1;)': 41,
    H + '(msg:"X"; flags: .; sid:1;)': 41,
    H + '(msg:"X"; threshold:type threshold, track, count 5, seconds 1; sid:1;)': 45,
    H + '(msg:"X"; threshold:type limit, track by_dst, count 5, seconds 1; sid:1;)': 45,
    H + '(msg:"X"; threshold:type threshold, track by_src, count 5, seconds 1; sid:1;)':
        45,
    H + '(msg:"X"; threshold:type threshold, track by_dst, count five, seconds 1; sid:1;)':
        45,
    H + '(msg:"X"; threshold:type threshold, track by_dst, count 5; sid:1;)': 45,
    H + '(msg:"X"; threshold: type threshold, track by_dst, count 0, seconds 1; sid:1;)':
        45,
    H + '(msg:"X"; sid:abc;)': 39,
    # offsets count from the start of the line, leading blanks included
    '   alert udp any -> any any (msg:"X"; sid:1;)': 9,
    '\t' + H + '(msg:"X"; sid:abc;)': 40,
    'alert tcp any -> any any (msg:"a"; sid:5;)\n'
    'alert tcp any -> any any (msg:"b"; sid:5;)\n': 0,
}


@pytest.mark.parametrize("text,offset", MALFORMED.items(), ids=list(MALFORMED))
def test_malformed_rule_offset(text, offset):
    with pytest.raises(ParseError) as err:
        load_ruleset(text)
    assert err.value.offset == offset


# well-formed spellings -> the rule each must parse to
ACCEPTED = {
    '  alert\ttcp  any  any  ->  10.0.0.2  9000  (  msg  :  "a"  ;  flags  :  S  ;  '
    'sid  :  5  ;  )  ': tcp_rule("a", 5, dst_ip="10.0.0.2", dst_port=9000,
                                  flags_req=TcpFlags.SYN),
    H + '(msg:"a; b"; sid:6;)': tcp_rule("a; b", 6),
    'alert tcp 10.0.0.1. 40001 -> any any (msg:"c"; sid:7;)':
        tcp_rule("c", 7, src_ip="10.0.0.1", src_port=40001),
    H + '(msg:"d"; sid 8;)': tcp_rule("d", 8),
    H + '(msg:"e"; sid9)': tcp_rule("e", 9),
    H + '(msg:"f"; threshold: seconds 3, count 2, track by_dst, type threshold; sid:10;)':
        tcp_rule("f", 10, threshold=Threshold(count=2, seconds=3)),
}


@pytest.mark.parametrize("text,expected", ACCEPTED.items(), ids=list(ACCEPTED))
def test_parse_accepted_spelling(text, expected):
    assert parse_rule(text) == expected


@pytest.mark.parametrize("text,offset", [
    (H + '(msg:"X"; sid:1; sid:2;)', 42),
    (H + '(msg:"X"; sid:1; sid2;)', 42),
    (H + '(msg:"X"; msg:"Y"; sid:1;)', 35),
    (H + '(msg:"X"; flags:S; flags:A; sid:1;)', 44),
])
def test_repeated_option_rejected_at_second(text, offset):
    with pytest.raises(ParseError) as err:
        parse_rule(text)
    assert err.value.offset == offset
    assert "repeated" in err.value.reason


def test_flags_or_threshold_may_end_the_option_list():
    assert parse_rule(H + '(msg:"X"; sid:1; flags:S)') == \
        tcp_rule("X", 1, flags_req=TcpFlags.SYN)
    assert parse_rule(H + '(msg:"X"; sid:1; threshold:type threshold, track by_dst, '
                      'count 2, seconds 3)') == \
        tcp_rule("X", 1, threshold=Threshold(count=2, seconds=3))


def test_load_ruleset_comments_and_duplicates():
    rules = load_ruleset("# comment\n\n" + MIGRATE_RULE_TEXT + "\n")
    assert len(rules) == 1
    with pytest.raises(ParseError):
        load_ruleset('alert tcp any -> any any (msg:"a"; sid:5;)\n'
                     'alert tcp any -> any any (msg:"b"; sid:5;)\n')


# -- threshold engine ----------------------------------------------------------------


def make_ids(rule_text=MIGRATE_RULE_TEXT):
    eng = Engine(1)
    ids = Ids(eng)
    ids.load_rules(load_ruleset(rule_text))
    return ids


def test_threshold_fires_on_fifth_match():
    ids = make_ids()
    alerts = []
    for i in range(5):
        alerts += observe(ids, data_seg(), now=i * 1_000_000)
    assert len(alerts) == 1
    assert alerts[0].ordinal == 5
    assert alerts[0].msg == "MIGRATE"


def test_threshold_resets_after_alert():
    ids = make_ids()
    fired = []
    for i in range(10):
        fired += observe(ids, data_seg(), now=i * 1_000_000)
    assert len(fired) == 2  # on the 5th and the 10th


def test_window_expiry_resets_count():
    # 4 matches, then the window passes, then 1 more: no alert
    ids = make_ids()
    fired = []
    for i in range(4):
        fired += observe(ids, data_seg(), now=i * 1_000_000)
    fired += observe(ids, data_seg(), now=500_000_000)  # 500 s later
    assert fired == []


def test_non_matching_segments_ignored():
    ids = make_ids()
    # wrong destination and missing PSH; a non-TCP packet never reaches
    # the tap (test_mirror_taps_see_tcp_segments_only in test_vswitch)
    assert observe(ids, data_seg(dst=C), 0) == []
    assert observe(ids, data_seg(flags=TcpFlags.ACK), 0) == []
    assert ids.alerts == []


def test_no_threshold_alerts_every_match():
    ids = make_ids('alert tcp any -> 10.0.0.2 any (msg:"ALL"; flags:P.A.; sid:9;)')
    fired = []
    for i in range(3):
        fired += observe(ids, data_seg(), now=i)
    assert len(fired) == 3
    assert [a.ordinal for a in fired] == [1, 2, 3]


def test_threshold_against_reference_counter():
    rng = random.Random(1234)
    ids = make_ids('alert tcp any -> any any (msg:"T"; '
                   'threshold:type threshold, track by_dst, count 3, seconds 2; sid:8;)')
    dsts = [B, C]
    events = []
    now = 0
    engine_alert_idx = []
    for i in range(400):
        now += rng.randrange(0, 1_500_000)
        dst = rng.choice(dsts)
        events.append((now, dst.ip))
        if observe(ids, data_seg(dst=dst), now):
            engine_alert_idx.append(i)
    assert engine_alert_idx == reference_threshold_alerts(events, 3, 2)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 3_000_000), st.sampled_from(["d1", "d2"])),
                min_size=1, max_size=60))
def test_interleaved_destinations_do_not_perturb_each_other(steps):
    """Per-key counting: interleaving a second destination must leave the
    first destination's alert positions unchanged."""
    rule = ('alert tcp any -> any any (msg:"T"; '
            'threshold:type threshold, track by_dst, count 3, seconds 5; sid:8;)')
    hosts = {"d1": B, "d2": C}

    def run(selected):
        ids = make_ids(rule)
        fired = []
        now = 0
        for delta, key in steps:
            now += delta
            if key not in selected:
                continue
            for alert in observe(ids, data_seg(dst=hosts[key]), now):
                fired.append((key, now, alert.ordinal))
        return [f for f in fired if f[0] == "d1"]

    assert run({"d1"}) == run({"d1", "d2"})


# -- nth-packet watch ------------------------------------------------------------------


def test_nth_packet_watch_fires_once_at_n():
    eng = Engine(1)
    ids = Ids(eng)
    ids.add_nth_packet_watch(100, sid=900, dst_ip=B.ip)
    fired = []
    for i in range(120):
        fired += observe(ids, data_seg(), now=i)
    assert len(fired) == 1
    assert fired[0].ordinal == 100
    assert fired[0].sid == 900


def test_nth_packet_watch_n1():
    eng = Engine(1)
    ids = Ids(eng)
    ids.add_nth_packet_watch(1, sid=901)
    assert len(observe(ids, data_seg(), 0)) == 1


def test_nth_packet_watch_requires_data():
    eng = Engine(1)
    ids = Ids(eng)
    ids.add_nth_packet_watch(1, sid=901)
    assert observe(ids, data_seg(payload=b"", flags=TcpFlags.ACK), 0) == []
    assert observe(ids, data_seg(flags=TcpFlags.PSH), 0) == []


def test_nth_packet_watch_per_connection():
    eng = Engine(1)
    ids = Ids(eng)
    ids.add_nth_packet_watch(2, sid=902)
    fired = []
    fired += observe(ids, data_seg(sport=1111), 0)
    fired += observe(ids, data_seg(sport=2222), 0)
    assert fired == []
    fired += observe(ids, data_seg(sport=1111), 0)
    assert len(fired) == 1


def test_nth5_matches_count5_threshold_on_uninterrupted_burst():
    """Cross-check: an n=5 watch and the count-5 threshold rule agree on
    the alert position for a single burst well inside the window."""
    eng = Engine(1)
    ids = Ids(eng)
    ids.load_rules(load_ruleset(MIGRATE_RULE_TEXT))
    ids.add_nth_packet_watch(5, sid=905, dst_ip=B.ip)
    by_sid = {}
    for i in range(8):
        for alert in observe(ids, data_seg(), now=i * 10_000):
            by_sid.setdefault(alert.sid, []).append(i)
    assert by_sid[1000001][0] == by_sid[905][0] == 4


def test_sink_subscription():
    """A sink gets the alerts of the sid it subscribed under, and only
    those; an alert of a sid with no sink is only recorded."""
    eng = Engine(1)
    ids = Ids(eng)
    ids.add_nth_packet_watch(1, sid=42)
    ids.add_nth_packet_watch(1, sid=43)
    got, other = [], []
    ids.subscribe(42, got.append)
    ids.subscribe(44, other.append)
    observe(ids, data_seg(), 0)
    assert len(got) == 1 and isinstance(got[0], Alert) and got[0].sid == 42
    assert got[0].conn == ("10.0.0.1", 40001, "10.0.0.2", 9000)
    assert other == []
    assert [alert.sid for alert in ids.alerts] == [42, 43]
