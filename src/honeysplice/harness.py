"""Scenario loading, experiment execution, and trace export.

A scenario file is a JSON document describing one experiment: topology
knobs (link delay/jitter, optional background load), the attack session
(request size/interval, total packets), the trigger that starts the
migration, clone strategy configuration, and repetition count plus root
seed. ``run_experiment`` executes the repetitions as fully independent
simulation instances with per-repetition derived seeds and returns one
latency trace each; the stealth invariants are asserted on every
repetition, not sampled.

CSV formats are pinned: attacker traces are
``rep,packet_index,send_us,recv_us,rtt_us`` and controller event logs are
``rep,event,time_us,detail`` (UTF-8, header row, LF endings), where
``detail`` renders an event's fields as ``k=v`` joined by ``;`` in its
kind's declared order (``controller.EVENT_FIELDS``), a connection as
``a:p->b:q``. Rows render a chunk (up to 256) per ``%`` call, from
per-kind templates built once from declared names, the rep written from
an int: a value's ``%`` or ``{`` is written as it is. No field is ever
quoted: one that would need it (comma, quote, CR, LF) raises ValueError,
as does an event whose kind, field count or conn matches no declaration.
Re-exporting the same data is byte-identical; a file is written whole (via
``<file>.tmp``) or not at all, and ``export_run`` renames its four only once
all are written. Importing the package loads neither ``csv`` nor
``statistics``: only the ``summarize`` command imports ``csv``, and
``pstdev`` loads with the first index whose RTTs spread.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from .clonemgr import CLONE_LATENCY_US, CloneManager
from .controller import EVENT_FIELDS, Controller, ControllerEvent
from .endpoint import ServerApp, random_iss
from .hosts import AttackerHost, ServerHost, spawn_background_load
from .ids import Ids, IdsRule, ParseError, load_ruleset_file
from .netcore import HostAddr
from .simnet import Engine, LinkModel, derive_seed
from .vswitch import Switch

ATTACKER_ADDR = HostAddr("10.0.0.1", "02:00:00:00:00:01")
VICTIM_ADDR = HostAddr("10.0.0.2", "02:00:00:00:00:02")
HONEY_DISTINCT_ADDR = HostAddr("10.0.0.3", "02:00:00:00:00:03")
SERVER_PORT = 9000
ATTACKER_SPORT = 40001
APP_ID = "tcp-echo-v1"

MIGRATE_WATCH_SID = 9_000_001
RESTORE_WATCH_SID = 9_000_002


class ConfigError(Exception):
    """Scenario document rejected; message names the offending field."""

    def __init__(self, field_path: str, reason: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {reason}")


class InvariantViolation(Exception):
    """A repetition violated a stealth or completeness invariant."""


_RULES = "rules"  # parser marker: a rules file, resolved against the scenario's directory


def _json(*types):
    """Parser for a key whose JSON value must be of one of ``types`` exactly:
    no ``true`` for 1, no ``1.5`` or ``"1"`` for an integer."""
    def parse(value):
        if type(value) not in types:
            raise TypeError(f"must be {' or '.join(t.__name__ for t in types)}, "
                            f"not {value!r}")
        return value
    return parse


_int, _num, _str, _flag = _json(int), _json(int, float), _json(str), _json(bool)


# Below, a negative delay schedules an event in the past or cuts the run
# short. Above, no event time reaches the drain bound, sys.maxsize (9.2e18):
# request gaps sum to <= 1e6 x 1e12 µs, the controller serves <= 1e6 echo
# misses and a few TCP ones at <= 1e12 each, and an event chain adds a few
# dozen crossings of <= 1e12 + 13.2e12 (a normal draw lies within 12.2
# sigma) and clones: ~2e18.
_MOST_US, _MOST_N = 10**12, 10**6


def _opt(key: str, default, parse, allowed=None):
    """A scenario field read from document key ``key`` (dotted for nested
    sections) through ``parse``; absent (or null, see ``_flatten``) keeps
    ``default``. ``Scenario.validate`` checks the value against ``allowed``:
    a tuple of choices or a ``(least, most)`` pair."""
    return field(default=default, metadata=dict(key=key, parse=parse, allowed=allowed))


@dataclass(frozen=True)
class Scenario:
    """Validated experiment configuration (see module docstring).

    The field declarations are the scenario file schema: each names its
    document key, its default, its parser and its allowed values, and
    ``scenario_from_dict`` reads nothing else. ``validate`` checks each
    value against its declaration, then the rules that relate two keys.
    """

    name: str = _opt("name", "unnamed", _str)
    total_packets: int = _opt("total_packets", 0, _int, (1, _MOST_N))
    trigger_kind: str = _opt("trigger.kind", "nth_packet", _str, ("nth_packet", "rule"))
    trigger_n: int = _opt("trigger.n", 0, _int)
    trigger_sid: int = _opt("trigger.sid", 0, _int)
    ruleset: Optional[tuple[IdsRule, ...]] = _opt("ruleset", None, _RULES)  # parsed at load
    request_size: int = _opt("request.size", 32, _int, (1, math.inf))
    request_size_random: bool = _opt("request.random_size", False, _flag)
    request_interval_us: int = _opt("request.interval_us", 10_000, _int, (1, _MOST_US))
    link_base_delay_us: int = _opt("link.base_delay_us", 1_000, _int, (0, _MOST_US))
    link_jitter_kind: str = _opt("link.jitter.kind", "none", _str, ("none", "uniform", "normal"))
    link_jitter_a: float = _opt("link.jitter.a", 0.0, _num, (-_MOST_US, _MOST_US))
    link_jitter_b: float = _opt("link.jitter.b", 0.0, _num, (-_MOST_US, _MOST_US))
    background_n_hosts: Optional[int] = _opt("background.n_hosts", None, _int, (0, _MOST_N))
    background_procs_per_host: Optional[int] = _opt("background.procs_per_host", None,
                                                    _int, (0, math.inf))
    clone_strategy: str = _opt("clone.strategy", "VICTIM_IMAGE", _str, tuple(CLONE_LATENCY_US))
    clone_on_demand: bool = _opt("clone.on_demand", False, _flag)
    clone_failure_p: float = _opt("clone.failure_p", 0.0, _num, (0, 1))
    containment: str = _opt("containment", "immediate", _str, ("immediate", "on_clone_ready"))
    restore_at: Optional[int] = _opt("restore_at", None, _int, (1, math.inf))
    honey_addr_mode: str = _opt("honey_addr_mode", "same", _str, ("same", "distinct"))
    repetitions: int = _opt("repetitions", 1, _int, (1, math.inf))
    seed: int = _opt("seed", 1, _int)
    controller_service_us: int = _opt("controller_service_us", 50, _int, (0, _MOST_US))

    @property
    def trigger_index(self) -> Optional[int]:
        """The packet index the migration triggers at, if the trigger names one."""
        return self.trigger_n if self.trigger_kind == "nth_packet" else None

    def validate(self) -> None:
        for f in fields(self):
            allowed, value = f.metadata["allowed"], getattr(self, f.name)
            if allowed is None or value is None:
                continue
            key = f.metadata["key"]
            if isinstance(allowed[0], str):
                if value not in allowed:
                    raise ConfigError(key, f"unknown value {value!r}, not one of {allowed}")
            # a (least, most) pair, tested so that NaN fails: no delay rounds it
            elif not value >= allowed[0]:
                raise ConfigError(key, f"must be >= {allowed[0]}")
            elif not value <= allowed[1]:
                raise ConfigError(key, f"must be <= {allowed[1]}")
        if self.total_packets * self.request_size > 2**30:
            raise ConfigError("request.size", "total_packets x size must be <= 2**30, "
                                              "so each stream fits a 2**31 seq window")
        if (self.background_n_hosts is None) != (self.background_procs_per_host is None):
            raise ConfigError("background", "n_hosts and procs_per_host are set together")
        if (self.background_n_hosts or 0) * (self.background_procs_per_host or 0) > _MOST_N:
            raise ConfigError("background", f"n_hosts x procs_per_host must be <= {_MOST_N}")
        rule, no_jitter = self.trigger_kind == "rule", self.link_jitter_kind == "none"
        for key, unread, reader in (  # the IDS loads the rules for a rule trigger only
                ("ruleset", self.ruleset is not None and not rule, "a rule trigger"),
                ("trigger.sid", self.trigger_sid and not rule, "a rule trigger"),
                ("trigger.n", self.trigger_n and rule, "an nth_packet trigger"),
                ("link.jitter.a", self.link_jitter_a and no_jitter, "a drawn jitter"),
                ("link.jitter.b", self.link_jitter_b and no_jitter, "a drawn jitter")):
            if unread:
                raise ConfigError(key, f"only read by {reader}")
        if not rule:
            if not 1 <= self.trigger_n <= self.total_packets:
                raise ConfigError("trigger.n",
                                  f"must be in 1..total_packets ({self.total_packets})")
            if self.restore_at is not None and self.restore_at <= self.trigger_n:
                raise ConfigError("restore_at", "must be > the migration trigger index")
        elif self.ruleset is None:
            raise ConfigError("ruleset", "required for a rule trigger")
        elif self.trigger_sid not in (sids := {rule.sid for rule in self.ruleset}):
            raise ConfigError("trigger.sid", f"no rule with sid {self.trigger_sid}")
        elif self.restore_at is not None and RESTORE_WATCH_SID in sids:
            raise ConfigError("ruleset", f"sid {RESTORE_WATCH_SID} is the restore_at watch's")


_FIELDS = {f.metadata["key"]: f for f in fields(Scenario)}
_SECTIONS = {key[:i] for key in _FIELDS for i, c in enumerate(key) if c == "."}


def _flatten(doc, prefix: str = "") -> dict:
    """Map dotted key -> value, descending into the declared sections and
    rejecting any key no Scenario field declares, an empty section and a
    null inside one: null keeps a default only outside every section."""
    if not isinstance(doc, dict):
        raise ConfigError(prefix.rstrip(".") or "document", "must be an object")
    if prefix and not doc:
        raise ConfigError(prefix[:-1], "sets no key")
    flat = {}
    for name, value in doc.items():
        key = prefix + name
        if key not in _FIELDS and key not in _SECTIONS:
            raise ConfigError(key, "unknown key")
        if value is None:
            if prefix:
                raise ConfigError(key, "is null: leave it out to keep its default")
        elif key in _FIELDS:
            flat[key] = value
        else:
            flat.update(_flatten(value, key + "."))
    return flat


def scenario_from_dict(doc: dict, base_dir: Optional[Path] = None) -> Scenario:
    """Build a Scenario from a parsed document, as declared by its fields.

    The ruleset file, relative to ``base_dir`` (default: the working
    directory), is read and parsed here, once. Unknown keys, malformed
    values, an unreadable ruleset and failed validation raise ConfigError
    naming the key.
    """
    base_dir = base_dir or Path.cwd()
    flat = _flatten(doc)
    values = {}
    for key, f in _FIELDS.items():
        raw = flat.get(key)
        if raw is None:
            continue
        parse = f.metadata["parse"]
        try:
            values[f.name] = (tuple(load_ruleset_file(str((base_dir / raw).resolve())))
                              if parse is _RULES else parse(raw))
        except (KeyError, TypeError, ValueError, AttributeError, OSError,
                ParseError) as exc:
            raise ConfigError(key, str(exc)) from None
    scenario = Scenario(**values)
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file; ConfigError names the bad field."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("path", f"cannot read scenario file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("document", f"invalid JSON: {exc}") from None
    return scenario_from_dict(doc, base_dir=path.parent)


def builtin_scenario_path(name: str) -> Path:
    """Path of a scenario shipped inside the package (e.g. 'e1_redirect')."""
    return Path(__file__).parent / "scenarios" / f"{name}.json"


@dataclass(slots=True)
class PacketRecord:
    index: int
    send_us: int
    recv_us: int
    rtt_us: int


class LatencyTrace(NamedTuple):
    """Per-repetition results: one record per packet index plus the
    controller's event series and any stealth violations. Every trace the
    package builds carries a ``violations`` list; the default is ``()``."""

    rep: int
    records: list[PacketRecord]
    controller_events: list[ControllerEvent]
    violations: Sequence[str] = ()


class Simulation:
    """One wired repetition: topology, detection, controller, attacker.
    It ends when its traffic does: ``run`` drains the event queue.

    Its wiring holds reference cycles: dropped unclosed, it lives until the
    cyclic collector runs; after ``close`` it is freed with its last
    reference. ``run_experiment`` closes each repetition after its trace.
    """

    def __init__(self, scenario: Scenario, seed: int, migration: bool = True):
        self.scenario = scenario
        self.engine = Engine(seed)
        link_model = LinkModel(scenario.link_base_delay_us, scenario.link_jitter_kind,
                               scenario.link_jitter_a, scenario.link_jitter_b)
        self.switch = Switch(self.engine)
        self.ids = Ids(self.engine)
        self.controller = Controller(
            self.engine, self.switch,
            containment=scenario.containment,
            service_us=scenario.controller_service_us)
        self.switch.mirror_taps = [self.controller.ledger_tap, self.ids.tap]

        def iss_policy(tag: str):
            return random_iss(self.engine.stream(f"iss:{tag}"))

        self.victim = ServerHost(self.engine, "victim", VICTIM_ADDR, SERVER_PORT,
                                 ServerApp(APP_ID), iss_policy("victim"))
        self.victim.attach(self.switch, link_model)
        self.controller.register_server(self.victim)

        # random sizes draw in request order from a stream only this reads
        sizes = [scenario.request_size] * scenario.total_packets
        if scenario.request_size_random:
            rng = self.engine.stream("attacker:size")
            sizes = [rng.randint(1, size) for size in sizes]
        self.attacker = AttackerHost(
            self.engine, "attacker", ATTACKER_ADDR,
            VICTIM_ADDR, SERVER_PORT, ATTACKER_SPORT, iss_policy("attacker"),
            requests=[(scenario.request_interval_us, size) for size in sizes])
        self.attacker.attach(self.switch, link_model)
        self.controller.register_port(ATTACKER_ADDR.ip, self.attacker.port)

        self.honey: Optional[ServerHost] = None

        def make_honey(victim: ServerHost) -> ServerHost:
            addr = victim.addr if scenario.honey_addr_mode == "same" \
                else HONEY_DISTINCT_ADDR
            host = ServerHost(self.engine, "honey", addr, victim.listen_port,
                              ServerApp(victim.app.app_id), iss_policy("honey"))
            host.attach(self.switch, link_model)
            self.honey = host
            return host

        latency_us = CLONE_LATENCY_US[scenario.clone_strategy]
        pre = None if scenario.clone_on_demand else make_honey(self.victim)
        self.controller.clonemgr = CloneManager(
            self.engine, latency_us, make_honey,
            failure_p=scenario.clone_failure_p, pre_instantiated=pre)

        if migration:
            if scenario.trigger_kind == "nth_packet":
                self.ids.add_nth_packet_watch(scenario.trigger_n,
                                              sid=MIGRATE_WATCH_SID, msg="MIGRATE",
                                              dst_ip=VICTIM_ADDR.ip)
                self.ids.subscribe(MIGRATE_WATCH_SID, self.controller.on_alert)
            else:
                self.ids.load_rules(scenario.ruleset)
                self.ids.subscribe(scenario.trigger_sid, self.controller.on_alert)
            if scenario.restore_at is not None:
                self.ids.add_nth_packet_watch(scenario.restore_at,
                                              sid=RESTORE_WATCH_SID, msg="RESTORE",
                                              dst_ip=VICTIM_ADDR.ip)
                self.ids.subscribe(RESTORE_WATCH_SID, self.controller.restore_original)

        if scenario.background_n_hosts is not None:
            for host in spawn_background_load(
                    self.engine, self.switch, scenario.background_n_hosts,
                    scenario.background_procs_per_host, link_model):
                self.controller.register_port(host.addr.ip, host.port)
        self.attacker.start(10_000 if scenario.background_n_hosts is None else 200_000)

    def run(self) -> None:
        """Dispatch until no event is pending. Every event source is finite:
        the attacker's timer stops, each background flow sends once, and
        nothing answers a pure ACK or sends a packet back into the switch."""
        self.engine.run_until(sys.maxsize)  # int, not math.inf: compares int to int

    def close(self) -> None:
        """Drop the wiring ``__init__`` built, each part of a reference
        cycle: pending events with the controller's queue of packet-ins
        they would serve, the switch's ports, taps and packet-in handler,
        and the clone manager (``make_honey`` holds the simulation). The
        simulation cannot run again; its hosts' and controller's records
        stay readable.
        """
        self.engine.clear()
        self.controller._packet_ins.clear()
        self.switch._ports.clear()
        self.switch.mirror_taps.clear()
        self.switch.packet_in_handler = None
        self.controller.clonemgr = None

    def trace(self, rep: int) -> LatencyTrace:
        records = []
        problems = list(self.attacker.violations)
        for i in range(1, self.scenario.total_packets + 1):
            send = self.attacker.send_ts.get(i)
            recv = self.attacker.recv_ts.get(i)
            if send is None or recv is None:
                problems.append(f"packet {i} incomplete (send={send}, recv={recv})")
                continue
            records.append(PacketRecord(i, send, recv, recv - send))
        return LatencyTrace(rep, records, list(self.controller.events), problems)


def run_single(scenario: Scenario, rep: int = 1, migration: bool = True) -> Simulation:
    """Build and run one repetition; returns the simulation for inspection."""
    sim = Simulation(scenario, derive_seed(scenario.seed, f"rep:{rep}"),
                     migration=migration)
    sim.run()
    return sim


def run_experiment(scenario: Scenario, strict: bool = True) -> list[LatencyTrace]:
    """Run all repetitions; stealth and completeness checked on every one.

    Each repetition is closed right after its trace, so it is freed before
    the next is built, on the strict raise too: a run holds only traces.
    """
    traces = []
    for rep in range(1, scenario.repetitions + 1):
        sim = run_single(scenario, rep)
        trace = sim.trace(rep)
        sim.close()
        del sim  # freed here, not when the next repetition rebinds it
        if strict and trace.violations:
            raise InvariantViolation(
                f"{scenario.name} rep {rep}: " + "; ".join(trace.violations[:5]))
        traces.append(trace)
    return traces


# -- aggregation -----------------------------------------------------------------


class IndexStats(NamedTuple):
    index: int
    mean: float
    min: int
    max: int
    stddev: float
    samples: int


class Summary(NamedTuple):
    per_index: list[IndexStats]
    pre_mean: Optional[float]
    post_mean: Optional[float]
    ratio: Optional[float]
    trigger_index: Optional[int]


def summarize(traces: list[LatencyTrace], trigger_index: Optional[int] = None) -> Summary:
    """Aggregate RTTs per packet index across repetitions.

    pre/post means pool all samples strictly below/above the trigger index
    (the trigger packet itself belongs to neither side).
    """
    if not traces:
        raise ValueError("summarize needs at least one trace")
    by_index: dict[int, list[int]] = {}
    for trace in traces:
        for rec in trace.records:
            by_index.setdefault(rec.index, []).append(rec.rtt_us)
    per_index = []
    for index in sorted(by_index):
        rtts = by_index[index]
        lo, hi = min(rtts), max(rtts)
        stddev = 0.0  # pstdev's exact rational arithmetic is the cost
        if lo != hi:
            from statistics import pstdev  # loaded by the first spread only
            stddev = pstdev(rtts)
        per_index.append(IndexStats(index, math.fsum(rtts) / len(rtts), lo, hi,
                                    stddev, len(rtts)))
    pre = post = ratio = None
    if trigger_index is not None:
        pre_samples = [r for i, rtts in by_index.items() if i < trigger_index for r in rtts]
        post_samples = [r for i, rtts in by_index.items() if i > trigger_index for r in rtts]
        pre, post = (math.fsum(xs) / len(xs) if xs else None
                     for xs in (pre_samples, post_samples))
        if pre is not None and pre > 0 and post is not None:
            ratio = post / pre
    return Summary(per_index, pre, post, ratio, trigger_index)


# -- export ------------------------------------------------------------------------


def _write_files(files: dict) -> None:
    """Write each ``path: chunks`` of ``files`` to ``<path>.tmp`` and, once
    every one is written, rename each onto its path. A failure while
    writing removes the staged files and renames none, so every path keeps
    what it held before."""
    staged = []
    try:
        for path, chunks in files.items():
            staged.append(Path(f"{path}.tmp"))
            with open(staged[-1], "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        for tmp, path in zip(staged, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise


def _csv(path, header: str, chunks):
    """``header``, then each ``(template, values)`` of ``chunks`` rendered by
    one ``template % values`` call and checked: a field holding a comma,
    quote, CR or LF raises ValueError naming the file."""
    commas = header.count(",")
    yield header + "\n"
    for template, values in chunks:
        chunk, n = template % tuple(values), template.count("\n")
        if (chunk.count(",") != commas * n or chunk.count("\n") != n
                or '"' in chunk or "\r" in chunk):
            raise ValueError(f"{path}: a field holds a comma, quote, CR or LF")
        yield chunk


def _batches(rows: list) -> list:
    """``rows`` in slices of 256: one ``%`` call renders each."""
    return [rows[i:i + 256] for i in range(0, len(rows), 256)]


def _attacker_csv(traces: list[LatencyTrace], path):
    return _csv(path, "rep,packet_index,send_us,recv_us,rtt_us", (
        (f"{int(t.rep)},%s,%s,%s,%s\n" * len(batch),
         [v for r in batch for v in (r.index, r.send_us, r.recv_us, r.rtt_us)])
        for t in traces for batch in _batches(t.records)))


def write_attacker_csv(traces: list[LatencyTrace], path) -> None:
    _write_files({path: _attacker_csv(traces, path)})


# kind -> (number of fields besides conn, number before it, its row after
# rep, which takes (time_us, *fields before conn, *conn, *fields after conn))
_ROWS = {kind: (len(names) - 1, names.index("conn"), f",{kind},%s," + ";".join(
    "conn=%s:%s->%s:%s" if name == "conn" else f"{name}=%s" for name in names) + "\n")
    for kind, names in EVENT_FIELDS.items()}


def _controller_csv(traces: list[LatencyTrace], path):
    def chunks():
        for trace in traces:
            rep = str(int(trace.rep))
            for batch in _batches(trace.controller_events):
                template, values = [], []
                for time_us, kind, conn, rest in batch:
                    n, at, row = _ROWS.get(kind, (None, 0, ""))  # None: no count matches
                    if len(rest) != n or len(conn) != 4:
                        raise ValueError(
                            f"{path}: controller event {kind!r} with {len(rest)} field(s) "
                            f"besides a {len(conn)}-part conn is not declared")
                    template.append(row)
                    values.append(time_us)
                    if at:  # the fields declared before conn
                        values += rest[:at]
                        rest = rest[at:]
                    values += conn
                    values += rest
                yield rep + rep.join(template), values  # the rep begins each row
    return _csv(path, "rep,event,time_us,detail", chunks())


def write_controller_csv(traces: list[LatencyTrace], path) -> None:
    _write_files({path: _controller_csv(traces, path)})


def _summary_csv(summary: Summary, path):
    return _csv(path, "packet_index,mean_rtt_us,min_rtt_us,max_rtt_us,stddev_rtt_us,samples",
                (("%s,%.3f,%s,%s,%.3f,%s\n" * len(batch), [v for s in batch for v in s])
                 for batch in _batches(summary.per_index)))


def write_summary_csv(summary: Summary, path) -> None:
    _write_files({path: _summary_csv(summary, path)})


def read_attacker_csv(path) -> list[LatencyTrace]:
    """Rebuild traces (records only) from an exported attacker CSV."""
    import csv  # only the summarize command reads a CSV
    by_rep: dict[int, list[PacketRecord]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rec = PacketRecord(int(row["packet_index"]), int(row["send_us"]),
                               int(row["recv_us"]), int(row["rtt_us"]))
            by_rep.setdefault(int(row["rep"]), []).append(rec)
    return [LatencyTrace(rep, records, [], []) for rep, records in sorted(by_rep.items())]


def export_run(scenario: Scenario, traces: list[LatencyTrace], out_dir,
               summary: Optional[Summary] = None) -> dict:
    """Write the full artifact set for one run, summarizing the traces
    unless ``summary`` is given; returns the file map. The four files are
    replaced together or, when one fails, not at all."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {"attacker": out / "attacker_trace.csv",
             "controller": out / "controller_events.csv",
             "summary": out / "summary.csv", "meta": out / "meta.json"}
    if summary is None:
        summary = summarize(traces, scenario.trigger_index)
    meta = {"scenario": scenario.name, "seed": scenario.seed,
            "repetitions": scenario.repetitions, "trigger_index": scenario.trigger_index,
            "restore_at": scenario.restore_at}
    _write_files({files["attacker"]: _attacker_csv(traces, files["attacker"]),
                  files["controller"]: _controller_csv(traces, files["controller"]),
                  files["summary"]: _summary_csv(summary, files["summary"]),
                  files["meta"]: [json.dumps(meta, indent=2, sort_keys=True) + "\n"]})
    return files

