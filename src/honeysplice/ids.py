"""Detection rules and the alert engine feeding the controller.

The rule dialect is deliberately tiny: ``alert tcp`` rules with ip/port
specs (``any`` wildcards allowed, source port optional), a ``msg``, an
optional required-flags set, an optional ``threshold`` clause and a
mandatory ``sid``, each option at most once and the last one's ``;``
optional. Three regular expressions are the grammar: the header, one option,
and the threshold body, compiled by the first parse (``_grammar``), so a run
without rules never compiles them. Anything outside the grammar is a
ParseError at the offset where the text stops fitting.

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

import functools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from .netcore import ConnKey, TcpFlags, TcpSegment

_FLAG_CHARS = {
    "S": TcpFlags.SYN,
    "A": TcpFlags.ACK,
    "F": TcpFlags.FIN,
    "R": TcpFlags.RST,
    "P": TcpFlags.PSH,
}

_OCTET = r"0*(?:25[0-5]|2[0-4]\d|1?\d?\d)"
_IP = rf"(?:any|(?:{_OCTET}\.){{3}}{_OCTET}\.*)(?![\w.-])"  # a trailing dot is tolerated
_PORT = r"any|0*(?:6553[0-5]|655[0-2]\d|65[0-4]\d\d|6[0-4]\d{3}|[1-5]?\d{1,4})(?!\d)"

# The header up to its '('. Each piece after the first is optional only so
# that a header which stops fitting still matches: the match then ends
# where the first missing piece belongs, and that is the error offset.
_HEADER = rf"""(?:[ \t]*(?P<action>alert)(?![\w.-])[ \t]*
    (?:(?P<proto>tcp)(?![\w.-])[ \t]*
    (?:(?P<src_ip>{_IP})[ \t]*(?:(?P<src_port>{_PORT})[ \t]*)?
    (?:(?P<arrow>->)[ \t]*
    (?:(?P<dst_ip>{_IP})[ \t]*
    (?:(?P<dst_port>{_PORT})[ \t]*
    (?P<open>\()?)?)?)?)?)?)?"""
_EXPECTED = {"action": "'alert'", "proto": "'tcp'", "src_ip": "an ip spec",
             "arrow": "a port or '->'", "dst_ip": "an ip spec",
             "dst_port": "a port", "open": "'('"}

# One option and the ';' after it (the last option may end at the ')'
# instead), or the ')' itself. Text that fits no option is <bad>, which
# goes as far as a known option's key, ':' and opening quote fit.
_OPTION = r"""[ \t]*(?:(?P<close>\))[ \t]*
    |(?P<option>msg[ \t]*:[ \t]*"(?P<msg>[^"]*)"
      |flags[ \t]*:(?P<flags>[^;)]*)
      |threshold[ \t]*:(?P<threshold>[^;)]*)
      |sid(?![^\W\d])[ \t]*(?::[ \t]*)?(?P<sid>\d+)  # also sid1000001
     )[ \t]*(?P<end>;|(?=\)))?
    |(?P<bad>(?P<key>(?:msg|flags|threshold|sid)(?![\w.-]))?[ \t]*(?::[ \t]*"?)?))"""

# the four comma-separated clauses of a threshold body, in any order
_THRESHOLD = r"""(?:\s*(?:type\s+(?P<type>threshold)|track\s+(?P<track>by_dst)
    |count\s+(?P<count>\d+)|seconds\s+(?P<seconds>\d+))\s*(?:,(?=\s*\S)|$)){4}"""


@functools.cache
def _grammar() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    return tuple(re.compile(pattern, re.X) for pattern in (_HEADER, _OPTION, _THRESHOLD))


class ParseError(Exception):
    """Rule text rejected; carries the byte offset of the problem."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"offset {offset}: {reason}")


class Threshold(NamedTuple):
    count: int
    seconds: int


@dataclass(frozen=True)
class IdsRule:
    """Parsed ``alert tcp`` rule. ``None`` in an ip/port field means ``any``."""

    src_ip: Optional[str]
    src_port: Optional[int]
    dst_ip: Optional[str]
    dst_port: Optional[int]
    msg: str
    flags_req: Optional[int]
    threshold: Optional[Threshold]
    sid: int


class Alert(NamedTuple):
    """Event emitted to the controller; identifies the exact connection."""

    sid: int
    msg: str
    segment: TcpSegment
    conn: ConnKey
    ordinal: int


def _found(text: str, at: int) -> str:
    """The word (or character) at ``at``, for an error message."""
    return repr(re.match(r"[\w.-]+|.?", text[at:])[0] or "end of rule")


def _flags(value: str, at: int) -> int:
    spec = value.strip()
    if not re.fullmatch(r"[.+ ]*(?:[SAFRP][.+ ]*)+", spec, re.I):
        raise ParseError(at, f"bad flags spec {spec!r}: want letters of SAFRP")
    return functools.reduce(operator.or_, (_FLAG_CHARS[ch] for ch in spec.upper()
                                           if ch in _FLAG_CHARS))


def _threshold(body: str, at: int) -> Threshold:
    clause = _grammar()[2].fullmatch(body)
    if clause is None or None in clause.groupdict().values() \
            or int(clause["count"]) < 1 or int(clause["seconds"]) < 1:
        raise ParseError(at, "want 'type threshold, track by_dst, count N, seconds S'"
                             " with N and S >= 1")
    return Threshold(count=int(clause["count"]), seconds=int(clause["seconds"]))


# an option's text -> its value; the offset locates errors in the text
_OPTION_VALUE = {"msg": lambda text, at: text, "flags": _flags,
                 "threshold": _threshold, "sid": lambda text, at: int(text)}


def parse_rule(text: str) -> IdsRule:
    """Parse one rule line into an IdsRule; raises ParseError otherwise."""
    header, option, _ = _grammar()
    head = header.match(text)
    missing = next((name for name in _EXPECTED if head[name] is None), None)
    if missing is not None:
        raise ParseError(head.end(), f"expected {_EXPECTED[missing]}, "
                                     f"found {_found(text, head.end())}")
    src_ip, dst_ip = (None if head[name] == "any" else head[name].rstrip(".")
                      for name in ("src_ip", "dst_ip"))
    src_port, dst_port = (None if head[name] in (None, "any") else int(head[name])
                          for name in ("src_port", "dst_port"))

    options = {}
    opt = option.match(text, head.end())
    while opt["close"] is None:
        if opt["key"] is not None:
            at = opt.end("bad")
            raise ParseError(at, f"bad {opt['key']} option, found {_found(text, at)}")
        if opt["bad"] is not None:
            at = opt.start("bad")
            raise ParseError(at, "unterminated option list" if at == len(text)
                             else f"unsupported option {_found(text, at)}")
        if opt["end"] is None:
            raise ParseError(opt.end(), "expected ';' or ')' after option")
        name = next(name for name in _OPTION_VALUE if opt[name] is not None)
        if name in options:
            raise ParseError(opt.start("option"), f"repeated option {name!r}")
        options[name] = _OPTION_VALUE[name](opt[name], opt.start(name))
        opt = option.match(text, opt.end())
    if opt.end() < len(text):
        raise ParseError(opt.end(), "trailing garbage after rule")
    for name in ("sid", "msg"):
        if name not in options:
            raise ParseError(len(text), f"rule is missing a {name}")
    return IdsRule(src_ip=src_ip, src_port=src_port, dst_ip=dst_ip,
                   dst_port=dst_port, msg=options["msg"],
                   flags_req=options.get("flags"), threshold=options.get("threshold"),
                   sid=options["sid"])


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
            # offsets count from the start of the line, leading blanks included
            indent = len(line) - len(line.lstrip())
            raise ParseError(indent + exc.offset, f"line {lineno}: {exc.reason}") from None
        if rule.sid in sids:
            raise ParseError(0, f"line {lineno}: duplicate sid {rule.sid}")
        sids.add(rule.sid)
        rules.append(rule)
    return rules


def load_ruleset_file(path) -> list[IdsRule]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_ruleset(fh.read())


def _rule_matches(rule: IdsRule, seg: TcpSegment) -> bool:
    return ((rule.src_ip is None or seg.src.ip == rule.src_ip)
            and (rule.src_port is None or seg.sport == rule.src_port)
            and (rule.dst_ip is None or seg.dst.ip == rule.dst_ip)
            and (rule.dst_port is None or seg.dport == rule.dst_port)
            and (rule.flags_req is None or (seg.flags & rule.flags_req) == rule.flags_req))


class _NthWatch:
    """Fires once per directed connection on its n-th data segment."""

    def __init__(self, n: int, sid: int, msg: str, dst_ip: Optional[str]) -> None:
        self.n, self.sid, self.msg, self.dst_ip = n, sid, msg, dst_ip
        self.counts: dict = {}


class Ids:
    """Observes mirrored packets and hands each alert to the sinks subscribed
    under its sid; an alert of a sid without sinks is only recorded (``alerts``).

    Holds two kinds of detectors: parsed rules (with optional threshold
    tracking per destination) and nth-packet watches counting PSH-ACK data
    segments per directed connection.
    """

    def __init__(self, engine):
        self._engine = engine
        self.rules: list[IdsRule] = []
        self._watches: list[_NthWatch] = []
        self._sinks: dict[int, list[Callable[[Alert], None]]] = {}
        # per (sid, dst ip): (cumulative match count, in-window match times)
        self._matches: dict[tuple[int, str], tuple[int, list[int]]] = {}
        self.alerts: list[Alert] = []

    def load_rules(self, rules: Iterable[IdsRule]) -> None:
        self.rules.extend(rules)

    def add_nth_packet_watch(self, n: int, sid: int, msg: str = "NTH_PACKET",
                             dst_ip: Optional[str] = None) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self._watches.append(_NthWatch(n=n, sid=sid, msg=msg, dst_ip=dst_ip))

    def subscribe(self, sid: int, sink: Callable[[Alert], None]) -> None:
        """Call ``sink`` with each alert of ``sid``, after its earlier sinks."""
        self._sinks.setdefault(sid, []).append(sink)

    def tap(self, seg: TcpSegment, conn: ConnKey) -> None:
        """Mirror-tap entry point from the switch."""
        self.observe(seg, self._engine.now, conn)

    def observe(self, seg: TcpSegment, now: int, conn: ConnKey) -> list[Alert]:
        """Run all detectors against one segment, whose directed connection
        key is ``conn``, as ``Switch.process`` builds it; returns fired alerts."""
        fired: list[Alert] = []
        for rule in self.rules:
            if not _rule_matches(rule, seg):
                continue
            key = (rule.sid, seg.dst.ip)
            count, times = self._matches.get(key, (0, []))
            fires = rule.threshold is None
            if not fires:
                window_us = rule.threshold.seconds * 1_000_000
                times = [t for t in times if now - t < window_us] + [now]
                fires = len(times) >= rule.threshold.count
            self._matches[key] = (count + 1, [] if fires else times)
            if fires:
                fired.append(Alert(rule.sid, rule.msg, seg, conn, count + 1))

        if seg.payload and (seg.flags & (TcpFlags.PSH | TcpFlags.ACK)) \
                == (TcpFlags.PSH | TcpFlags.ACK):
            for watch in self._watches:
                if watch.dst_ip is not None and seg.dst.ip != watch.dst_ip:
                    continue
                count = watch.counts.get(conn, 0) + 1
                watch.counts[conn] = count
                if count == watch.n:  # counts only grow: once per connection
                    fired.append(Alert(watch.sid, watch.msg, seg, conn, count))

        for alert in fired:
            self.alerts.append(alert)
            for sink in self._sinks.get(alert.sid, ()):
                sink(alert)
        return fired
