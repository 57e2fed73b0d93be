"""Detection rules and the alert engine feeding the controller.

The rule dialect is deliberately tiny: ``alert tcp`` rules with ip/port
specs (``any`` wildcards allowed, source port optional), a ``msg``, an
optional required-flags set, an optional ``threshold`` clause and a
mandatory ``sid``. Anything outside that grammar is a ParseError -- the
loader refuses to silently accept constructs it does not implement.

Flag specs like ``P.A.`` are read as a *required set* ({PSH, ACK} here):
a segment matches if it carries at least those flags. Dots and ``+`` are
separators/noise. ``sid:N`` and the colon-less ``sidN`` spelling are both
accepted.

Threshold semantics (``type threshold, track by_dst, count N, seconds S``):
per destination ip, an alert fires on every N-th match whose predecessors
all lie within the last S seconds (age < S), and the counter resets on
each alert. Matching is on mirrored copies only; the engine never touches
data-plane packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .netcore import ConnKey, TcpFlags, TcpSegment, five_tuple

_FLAG_CHARS = {
    "S": TcpFlags.SYN,
    "A": TcpFlags.ACK,
    "F": TcpFlags.FIN,
    "R": TcpFlags.RST,
    "P": TcpFlags.PSH,
}


class ParseError(Exception):
    """Rule text rejected; carries the byte offset of the problem."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"offset {offset}: {reason}")


@dataclass(frozen=True)
class Threshold:
    count: int
    seconds: int
    track: str = "by_dst"


@dataclass(frozen=True)
class IdsRule:
    """Parsed detection rule. ``None`` in an ip/port field means ``any``."""

    action: str
    proto: str
    src_ip: Optional[str]
    src_port: Optional[int]
    dst_ip: Optional[str]
    dst_port: Optional[int]
    msg: str
    flags_req: Optional[TcpFlags]
    threshold: Optional[Threshold]
    sid: int


@dataclass(frozen=True)
class Alert:
    """Event emitted to the controller; identifies the exact connection."""

    sid: int
    msg: str
    segment: TcpSegment
    conn: ConnKey
    ts_us: int
    ordinal: int


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, reason: str, at: Optional[int] = None) -> ParseError:
        return ParseError(self.pos if at is None else at, reason)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, lit: str) -> None:
        if not self.text.startswith(lit, self.pos):
            raise self.error(f"expected {lit!r}")
        self.pos += len(lit)

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "._-"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a token")
        return self.text[start:self.pos]

    def number(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])


def _parse_ip(sc: _Scanner) -> Optional[str]:
    start = sc.pos
    tok = sc.word()
    if tok == "any":
        return None
    ip = tok.rstrip(".")  # tolerate a trailing dot on dotted quads
    parts = ip.split(".")
    if len(parts) != 4 or not all(p.isdigit() and int(p) <= 255 for p in parts):
        raise sc.error(f"bad ip spec {tok!r}", at=start)
    return ip


def _parse_port(sc: _Scanner) -> Optional[int]:
    start = sc.pos
    if sc.text.startswith("any", sc.pos):
        sc.pos += 3
        return None
    port = sc.number()
    if port > 65535:
        raise sc.error(f"port {port} out of range", at=start)
    return port


def _parse_flags(value: str, sc: _Scanner, at: int) -> TcpFlags:
    flags = TcpFlags.NONE
    for ch in value:
        if ch in ".+ ":
            continue
        bit = _FLAG_CHARS.get(ch.upper())
        if bit is None:
            raise sc.error(f"unknown flag char {ch!r}", at=at)
        flags |= bit
    if flags is TcpFlags.NONE:
        raise sc.error("empty flags spec", at=at)
    return flags


def _parse_threshold(body: str, sc: _Scanner, at: int) -> Threshold:
    fields = [part.strip() for part in body.split(",")]
    seen: dict[str, str] = {}
    for part in fields:
        bits = part.split(None, 1)
        if len(bits) != 2:
            raise sc.error(f"bad threshold clause {part!r}", at=at)
        seen[bits[0]] = bits[1].strip()
    if seen.get("type") != "threshold":
        raise sc.error("only 'type threshold' is supported", at=at)
    if seen.get("track") != "by_dst":
        raise sc.error("only 'track by_dst' is supported", at=at)
    try:
        count = int(seen["count"])
        seconds = int(seen["seconds"])
    except (KeyError, ValueError):
        raise sc.error("threshold needs integer count and seconds", at=at)
    if count < 1 or seconds < 1:
        raise sc.error("threshold count and seconds must be >= 1", at=at)
    return Threshold(count=count, seconds=seconds)


def parse_rule(text: str) -> IdsRule:
    """Parse one rule line into an IdsRule; raises ParseError otherwise."""
    sc = _Scanner(text)
    sc.skip_ws()
    action = sc.word()
    if action != "alert":
        raise sc.error(f"unsupported action {action!r}", at=0)
    sc.skip_ws()
    proto_at = sc.pos
    proto = sc.word()
    if proto != "tcp":
        raise sc.error(f"unsupported proto {proto!r}", at=proto_at)
    sc.skip_ws()
    src_ip = _parse_ip(sc)
    sc.skip_ws()
    # source port is optional: "alert tcp any -> ..." and
    # "alert tcp any any -> ..." are both legal
    src_port: Optional[int] = None
    if not sc.text.startswith("->", sc.pos):
        src_port = _parse_port(sc)
        sc.skip_ws()
    sc.literal("->")
    sc.skip_ws()
    dst_ip = _parse_ip(sc)
    sc.skip_ws()
    dst_port = _parse_port(sc)
    sc.skip_ws()
    sc.literal("(")

    msg: Optional[str] = None
    flags_req: Optional[TcpFlags] = None
    threshold: Optional[Threshold] = None
    sid: Optional[int] = None

    while True:
        sc.skip_ws()
        if sc.peek() == ")":
            sc.pos += 1
            break
        if sc.at_end():
            raise sc.error("unterminated option list")
        key_at = sc.pos
        key = sc.word()
        sc.skip_ws()
        if key == "msg":
            sc.literal(":")
            sc.skip_ws()
            sc.literal('"')
            end = sc.text.find('"', sc.pos)
            if end < 0:
                raise sc.error("unterminated msg string")
            msg = sc.text[sc.pos:end]
            sc.pos = end + 1
        elif key == "flags":
            sc.literal(":")
            value_at = sc.pos
            end = sc.text.find(";", sc.pos)
            if end < 0:
                raise sc.error("missing ';' after flags")
            flags_req = _parse_flags(sc.text[sc.pos:end].strip(), sc, value_at)
            sc.pos = end
        elif key == "threshold":
            sc.literal(":")
            value_at = sc.pos
            end = sc.text.find(";", sc.pos)
            if end < 0:
                raise sc.error("missing ';' after threshold")
            threshold = _parse_threshold(sc.text[sc.pos:end], sc, value_at)
            sc.pos = end
        elif key == "sid":
            if sc.peek() == ":":
                sc.pos += 1
                sc.skip_ws()
            sid = sc.number()
        elif key.startswith("sid") and key[3:].isdigit():
            # colon-less spelling "sid1000001"
            sid = int(key[3:])
        else:
            raise sc.error(f"unsupported option {key!r}", at=key_at)
        sc.skip_ws()
        if sc.peek() == ";":
            sc.pos += 1
        elif sc.peek() != ")":
            raise sc.error("expected ';' or ')' after option")

    sc.skip_ws()
    if not sc.at_end():
        raise sc.error("trailing garbage after rule")
    if sid is None:
        raise ParseError(len(text), "rule is missing a sid")
    if msg is None:
        raise ParseError(len(text), "rule is missing a msg")
    return IdsRule(action=action, proto=proto, src_ip=src_ip, src_port=src_port,
                   dst_ip=dst_ip, dst_port=dst_port, msg=msg,
                   flags_req=flags_req, threshold=threshold, sid=sid)


def load_ruleset(text: str) -> list[IdsRule]:
    """Parse a ruleset: one rule per line, ``#`` comments, blank lines ok."""
    rules = []
    sids = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rule = parse_rule(stripped)
        except ParseError as exc:
            raise ParseError(exc.offset, f"line {lineno}: {exc.reason}") from None
        if rule.sid in sids:
            raise ParseError(0, f"line {lineno}: duplicate sid {rule.sid}")
        sids.add(rule.sid)
        rules.append(rule)
    return rules


def load_ruleset_file(path) -> list[IdsRule]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ruleset(fh.read())


def _rule_matches(rule: IdsRule, seg: TcpSegment) -> bool:
    if rule.src_ip is not None and seg.src.ip != rule.src_ip:
        return False
    if rule.src_port is not None and seg.sport != rule.src_port:
        return False
    if rule.dst_ip is not None and seg.dst.ip != rule.dst_ip:
        return False
    if rule.dst_port is not None and seg.dport != rule.dst_port:
        return False
    if rule.flags_req is not None and (seg.flags & rule.flags_req) != rule.flags_req:
        return False
    return True


@dataclass
class _NthWatch:
    """Fires once per directed connection on its n-th data segment."""

    n: int
    sid: int
    msg: str
    dst_ip: Optional[str]
    counts: dict = field(default_factory=dict)
    fired: set = field(default_factory=set)


class Ids:
    """Observes mirrored packets, emits alerts to subscribed sinks.

    Holds two kinds of detectors: parsed rules (with optional threshold
    tracking per destination) and nth-packet watches counting PSH-ACK data
    segments per directed connection.
    """

    def __init__(self, engine):
        self._engine = engine
        self.rules: list[IdsRule] = []
        self._watches: list[_NthWatch] = []
        self._sinks: list[Callable[[Alert], None]] = []
        # per (sid, dst ip): (cumulative match count, in-window match times)
        self._track: dict[tuple[int, str], list] = {}
        self._match_counts: dict[tuple[int, str], int] = {}
        self.alerts: list[Alert] = []

    def load_rules(self, rules: list[IdsRule]) -> None:
        self.rules.extend(rules)

    def add_nth_packet_watch(self, n: int, sid: int, msg: str = "NTH_PACKET",
                             dst_ip: Optional[str] = None) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self._watches.append(_NthWatch(n=n, sid=sid, msg=msg, dst_ip=dst_ip))

    def subscribe(self, sink: Callable[[Alert], None]) -> None:
        self._sinks.append(sink)

    def tap(self, pkt) -> None:
        """Mirror-tap entry point from the switch."""
        if isinstance(pkt, TcpSegment):
            self.observe(pkt, self._engine.now)

    def observe(self, seg: TcpSegment, now: int) -> list[Alert]:
        """Run all detectors against one segment; returns fired alerts."""
        fired: list[Alert] = []
        for rule in self.rules:
            if not _rule_matches(rule, seg):
                continue
            key = (rule.sid, seg.dst.ip)
            self._match_counts[key] = ordinal = self._match_counts.get(key, 0) + 1
            if rule.threshold is None:
                fired.append(Alert(rule.sid, rule.msg, seg, five_tuple(seg),
                                   now, ordinal))
                continue
            window_us = rule.threshold.seconds * 1_000_000
            times = self._track.setdefault(key, [])
            times[:] = [t for t in times if now - t < window_us]
            times.append(now)
            if len(times) >= rule.threshold.count:
                times.clear()
                fired.append(Alert(rule.sid, rule.msg, seg, five_tuple(seg),
                                   now, ordinal))

        if seg.is_data and (seg.flags & (TcpFlags.PSH | TcpFlags.ACK)) \
                == (TcpFlags.PSH | TcpFlags.ACK):
            conn = five_tuple(seg)
            for watch in self._watches:
                if watch.dst_ip is not None and seg.dst.ip != watch.dst_ip:
                    continue
                count = watch.counts.get(conn, 0) + 1
                watch.counts[conn] = count
                if count == watch.n and conn not in watch.fired:
                    watch.fired.add(conn)
                    fired.append(Alert(watch.sid, watch.msg, seg, conn, now, count))

        for alert in fired:
            self.alerts.append(alert)
            for sink in self._sinks:
                sink(alert)
        return fired
