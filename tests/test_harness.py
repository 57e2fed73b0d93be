"""Scenario loading/validation, aggregation, CSV export, CLI surface."""

import copy
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import re
import statistics
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from honeysplice import cli, harness, simnet
from honeysplice.harness import (
    ConfigError,
    InvariantViolation,
    LatencyTrace,
    PacketRecord,
    RESTORE_WATCH_SID,
    Scenario,
    Simulation,
    Summary,
    builtin_scenario_path,
    export_run,
    load_scenario,
    read_attacker_csv,
    run_experiment,
    run_single,
    scenario_from_dict,
    summarize,
    write_attacker_csv,
    write_controller_csv,
    write_summary_csv,
)
from honeysplice.cli import main as cli_main
from honeysplice.endpoint import PAYLOAD_CACHE_SIZE, ServerApp
from honeysplice.hosts import EchoHost, _background, make_request, spawn_background_load
from honeysplice.netcore import HostAddr
from honeysplice.vswitch import Switch

from random_scenarios import random_scenario
from honeysplice.controller import EVENT_FIELDS, ControllerEvent


def minimal_doc(**overrides):
    doc = {
        "name": "t",
        "total_packets": 10,
        "trigger": {"kind": "nth_packet", "n": 5},
        "repetitions": 1,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


# -- loading / validation ------------------------------------------------------


def test_shipped_scenarios_load():
    for name in ("e1_redirect", "e2_saturated", "e3_copy_on_demand", "e4_restore"):
        scenario = load_scenario(builtin_scenario_path(name))
        assert scenario.name == name


def test_e1_shape():
    sc = load_scenario(builtin_scenario_path("e1_redirect"))
    assert sc.trigger_n == 100
    assert sc.total_packets == 120
    assert sc.repetitions == 100
    assert sc.link_jitter_kind == "none"


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scenario.json")


def test_restore_before_trigger_rejected():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(minimal_doc(restore_at=4))
    assert "restore_at" in str(err.value)


def test_trigger_beyond_total_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_doc(trigger={"kind": "nth_packet", "n": 11}))


def test_rule_trigger_requires_ruleset():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(minimal_doc(trigger={"kind": "rule", "sid": 1}))
    assert "ruleset" in str(err.value)


def test_bad_jitter_kind_rejected():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_doc(link={"jitter": {"kind": "pareto"}}))


def test_symmetric_jitter_is_unbiased():
    """uniform(-100, 100) shortens a crossing as often as it lengthens one:
    some round trip of four 1,000 µs crossings takes less than 4,000 µs,
    and the mean stays near 4,000 µs."""
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       repetitions=3,
                       link_jitter_kind="uniform", link_jitter_a=-100, link_jitter_b=100)
    rtts = [r.rtt_us for trace in run_experiment(scenario) for r in trace.records]
    assert len(rtts) == 360 and min(rtts) < 4000
    assert abs(math.fsum(rtts) / len(rtts) - 4000) <= 40


RESTORE_DELAYS = [0, 1, 500, 1000, 1500]


@pytest.mark.parametrize("honey_addr_mode", ["same", "distinct"])
@pytest.mark.parametrize("interval", ["4d+1", "6d+2", 10_000])
@pytest.mark.parametrize("delay", RESTORE_DELAYS)
def test_derived_restore_grace_runs_clean_and_equals_oracle(delay, interval,
                                                            honey_addr_mode):
    """A restore splices once the honey server is quiet, which on a link
    without jitter is the restore alert's own µs, down to requests one
    round trip and 1 µs apart."""
    interval = {"4d+1": 4 * delay + 1, "6d+2": 6 * delay + 2}.get(interval, interval)
    scenario = scenario_from_dict(minimal_doc(
        restore_at=7, honey_addr_mode=honey_addr_mode,
        link={"base_delay_us": delay}, request={"interval_us": interval}))
    sim = run_single(scenario, 1)
    oracle = run_single(scenario, 1, migration=False)
    assert not sim.trace(1).violations
    assert bytes(sim.attacker.received_stream) == bytes(oracle.attacker.received_stream)
    (record,) = sim.controller.records.values()
    assert record.phase == "RESTORED"
    (armed,) = (ev.time_us for ev in sim.controller.events if ev.kind == "restore_armed")
    (restored,) = (ev.time_us for ev in sim.controller.events if ev.kind == "restored")
    assert restored == armed


@pytest.mark.parametrize("honey_addr_mode", ["same", "distinct"])
@pytest.mark.parametrize("restore_at", [8, 12])
@pytest.mark.parametrize("jitter", ["uniform 0 300", "uniform 0 1000", "normal 0 200"])
def test_restore_under_jitter_runs_clean_and_equals_oracle(jitter, restore_at,
                                                           honey_addr_mode):
    """A jittered link stretches round trips unevenly; the restore trigger
    goes to the victim and the splice waits for a quiet honey, so no honey
    response is in flight when the victim takes over."""
    kind, a, b = jitter.split()
    scenario = scenario_from_dict(minimal_doc(
        total_packets=20, restore_at=restore_at, honey_addr_mode=honey_addr_mode,
        link={"base_delay_us": 1000, "jitter": {"kind": kind, "a": int(a), "b": int(b)}},
        request={"interval_us": 20_000}))
    for rep in range(1, 11):
        sim = run_single(scenario, rep)
        oracle = run_single(scenario, rep, migration=False)
        assert not sim.trace(rep).violations, rep
        assert bytes(sim.attacker.received_stream) == \
            bytes(oracle.attacker.received_stream), rep
        (record,) = sim.controller.records.values()
        assert record.phase == "RESTORED", rep


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_scenario(path)


@pytest.mark.parametrize("overrides,key", [
    ({"total_packets": "abc"}, "total_packets"),
    ({"request": 5}, "request"),
    ({"clone": {"failure_p": "x"}}, "clone.failure_p"),
    ({"restore_at": "z"}, "restore_at"),
    ({"clone": {"on_demand": "false"}}, "clone.on_demand"),
    ({"background": {}}, "background"),
    ({"containmnet": "on_clone_ready"}, "containmnet"),
    ({"clone": {"cost_table": "c.json"}}, "clone.cost_table"),
    ({"link": {"base_delay_us": -5}}, "link.base_delay_us"),
    ({"controller_service_us": -100}, "controller_service_us"),
    ({"miss_hold_timeout_us": 1_000_000}, "miss_hold_timeout_us"),
    # the restore waits for a quiet honey server: there is no grace to set
    ({"restore_grace_us": 5000}, "restore_grace_us"),
    ({"background": {"n_hosts": -1, "procs_per_host": 1}}, "background.n_hosts"),
    ({"background": {"n_hosts": 1, "procs_per_host": -1}}, "background.procs_per_host"),
    # each flow sends one request: there is no interval to set, and a
    # document that still sets one is rejected, not read
    ({"background": {"n_hosts": 1, "procs_per_host": 1, "msg_interval_us": 1_000_000}},
     "background.msg_interval_us"),
    ({"background": {"msg_interval_us": 1_000_000, "n_hosts": 1, "procs_per_host": 1}},
     "background.msg_interval_us"),
    ({"iss_policy": {"kind": "random"}}, "iss_policy"),
    ({"total_packets": 0}, "total_packets"),
    ({"trigger": {"kind": "every_packet"}}, "trigger.kind"),
    ({"containment": "never"}, "containment"),
    ({"honey_addr_mode": "nat"}, "honey_addr_mode"),
    ({"clone": {"failure_p": 1.5}}, "clone.failure_p"),
    # an absolute path, so the rules parse and validate() is what rejects them
    ({"ruleset": str(builtin_scenario_path("e1_redirect").parent / "migrate.rules")},
     "ruleset"),
    # beside a rule trigger nothing else bounds restore_at from below
    *[({"ruleset": str(builtin_scenario_path("e1_redirect").parent / "migrate.rules"),
        "trigger": {"kind": "rule", "sid": 1000001}, "restore_at": n}, "restore_at")
      for n in (0, -3)],
    # a JSON value of another type is no value of the key's: no coercion
    ({"total_packets": "10"}, "total_packets"),
    ({"total_packets": 10.7}, "total_packets"),
    ({"link": {"base_delay_us": 999.9}}, "link.base_delay_us"),
    ({"seed": True}, "seed"),
    ({"name": 5}, "name"),
    ({"clone": {"failure_p": "0.5"}}, "clone.failure_p"),
    ({"background": {"n_hosts": 1.9, "procs_per_host": 1}}, "background.n_hosts"),
    ({"link": {"jitter": {"kind": "uniform", "a": "1", "b": 2}}}, "link.jitter.a"),
    # a stray key inside a section is named, with or without jitter
    ({"link": {"jitter": {"kind": "uniform", "a": 0, "b": 2, "sigma": 1}}},
     "link.jitter.sigma"),
    ({"link": {"jitter": {"kind": "none", "sigma": 1}}}, "link.jitter.sigma"),
    # JSON's NaN and Infinity literals load as floats, but no delay rounds them
    ({"link": {"jitter": {"kind": "uniform", "a": math.nan, "b": 1}}}, "link.jitter.a"),
    ({"link": {"jitter": {"kind": "normal", "a": 0, "b": math.inf}}}, "link.jitter.b"),
    # upper bounds: no event of an accepted run lands past the drain bound
    ({"link": {"base_delay_us": 10**19}}, "link.base_delay_us"),
    ({"total_packets": 10**6 + 1}, "total_packets"),
    ({"request": {"interval_us": 10**12 + 1}}, "request.interval_us"),
    ({"controller_service_us": 10**13}, "controller_service_us"),
    ({"link": {"jitter": {"kind": "uniform", "a": -10**13, "b": 0}}}, "link.jitter.a"),
    ({"background": {"n_hosts": 1001, "procs_per_host": 1000}}, "background"),
    # both directions' streams fit one 2**31 sequence window
    ({"request": {"size": 10**12}}, "request.size"),
    ({"total_packets": 10**6, "request": {"size": 2**11}}, "request.size"),
    # a section object sets a key, and sets each key it names
    *[({section: {}}, section) for section in ("trigger", "request", "link", "clone")],
    ({"link": {"jitter": {}}}, "link.jitter"),
    ({"background": {"n_hosts": None, "procs_per_host": None}}, "background.n_hosts"),
    ({"link": {"jitter": {"kind": "uniform", "a": None, "b": 1}}}, "link.jitter.a"),
    ({"request": {"size": None}}, "request.size"),
    ({"background": {"n_hosts": 1}}, "background"),
    # a and b are checked beside kind none too, though no draw reads them
    ({"link": {"jitter": {"kind": "none", "a": math.nan}}}, "link.jitter.a"),
    # a constant offset is link.base_delay_us: there is no fixed kind
    ({"link": {"jitter": {"kind": "fixed", "a": 5}}}, "link.jitter.kind"),
    # a nonzero value of a key that the chosen kind never reads
    ({"trigger": {"kind": "nth_packet", "n": 5, "sid": 7}}, "trigger.sid"),
    ({"ruleset": str(builtin_scenario_path("e1_redirect").parent / "migrate.rules"),
      "trigger": {"kind": "rule", "sid": 1000001, "n": 5}}, "trigger.n"),
    ({"link": {"jitter": {"kind": "none", "a": 500, "b": 900}}}, "link.jitter.a"),
    ({"link": {"jitter": {"kind": "none", "a": 0, "b": -0.5}}}, "link.jitter.b"),
])
def test_malformed_document_names_the_key(tmp_path, capsys, overrides, key):
    doc = minimal_doc(**overrides)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith(f"{key}: ")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


SHIPPED_RULES = str(builtin_scenario_path("e1_redirect").parent / "migrate.rules")
# valid documents that between them set every declared key
VALID_DOCS = [
    minimal_doc(restore_at=7, request={"size": 64, "random_size": True, "interval_us": 5000},
                link={"base_delay_us": 700, "jitter": {"kind": "uniform", "a": 0, "b": 300}},
                background={"n_hosts": 2, "procs_per_host": 3},
                clone={"strategy": "SUSPENDED", "on_demand": True, "failure_p": 0.5},
                containment="on_clone_ready", honey_addr_mode="distinct",
                controller_service_us=100),
    minimal_doc(trigger={"kind": "rule", "sid": 1000001}, ruleset=SHIPPED_RULES),
]
# a value of each JSON type, and the types each declared parser takes
JSON_VALUES = {bool: True, int: 7, float: 2.5, str: "7", list: [7], dict: {"k": 7}}
TAKES = {harness._int: (int,), harness._num: (int, float), harness._str: (str,),
         harness._flag: (bool,), harness._RULES: (str,)}


def invalid_values(f):
    """JSON values that the declaration of field ``f`` rejects: another JSON
    type, a number outside its ``(least, most)`` pair (NaN included) or a
    string outside its choices."""
    parse, allowed = f.metadata["parse"], f.metadata["allowed"]
    values = [st.sampled_from([v for t, v in JSON_VALUES.items() if t not in TAKES[parse]])]
    if allowed is not None and isinstance(allowed[0], str):
        values.append(st.text().filter(lambda v: v not in allowed))
    elif allowed is not None:
        least, most = allowed
        numbers = st.integers() if parse is harness._int else st.integers() | st.floats()
        values.append((st.sampled_from([least - 1, most + 1, math.nan]) | numbers).filter(
            lambda v: type(v) in TAKES[parse] and not least <= v <= most))
    return st.tuples(st.just(f), st.one_of(values))


def with_value(doc, key, value):
    doc = copy.deepcopy(doc)
    *sections, leaf = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return doc


@settings(max_examples=250)
@given(st.sampled_from(VALID_DOCS), st.sampled_from(fields(Scenario)).flatmap(invalid_values))
def test_declarations_hold_every_single_key_rule(doc, leaf):
    """One invalid value in a valid document is rejected naming exactly its
    key, by the loader and, for a value of the key's type, by validate()."""
    f, value = leaf
    key = f.metadata["key"]
    valid = scenario_from_dict(doc)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(with_value(doc, key, value))
    assert err.value.field_path == key
    if f.metadata["allowed"] is not None and type(value) in TAKES[f.metadata["parse"]]:
        with pytest.raises(ConfigError) as err:
            replace(valid, **{f.name: value}).validate()
        assert err.value.field_path == key


def test_numbers_load_as_their_json_type():
    scenario = scenario_from_dict(minimal_doc(
        clone={"failure_p": 0}, link={"jitter": {"kind": "uniform", "a": 0, "b": 2.5}}))
    assert scenario.clone_failure_p == 0
    assert (scenario.link_jitter_a, scenario.link_jitter_b) == (0.0, 2.5)


RULES = 'alert tcp any -> 10.0.0.2 any (msg:"MIGRATE"; sid:7;)\n'


@pytest.mark.parametrize("files,overrides,key", [
    ({}, {"ruleset": "absent.rules"}, "ruleset"),
    ({"m.rules": "alert tcp nonsense\n"}, {"ruleset": "m.rules"}, "ruleset"),
    ({"m.rules": RULES}, {"ruleset": "m.rules", "trigger": {"kind": "rule", "sid": 8}},
     "trigger.sid"),
    # sid 9,000,002 is the restore watch's once a restore is armed
    ({"m.rules": RULES + RULES.replace("sid:7", "sid:9000002")},
     {"ruleset": "m.rules", "trigger": {"kind": "rule", "sid": 7}, "restore_at": 8},
     "ruleset"),
])
def test_bad_referenced_file_names_the_key(tmp_path, files, overrides, key):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(minimal_doc(**overrides), base_dir=tmp_path)
    assert str(err.value).startswith(f"{key}: ")


@pytest.fixture
def rule_scenario(tmp_path):
    (tmp_path / "m.rules").write_text(RULES, encoding="utf-8")
    doc = minimal_doc(trigger={"kind": "rule", "sid": 7}, ruleset="m.rules")
    return scenario_from_dict(doc, base_dir=tmp_path)


def test_rule_trigger_sid_is_checked_by_validate(rule_scenario):
    rule_scenario.validate()
    with pytest.raises(ConfigError) as err:
        replace(rule_scenario, trigger_sid=8).validate()
    assert str(err.value) == "trigger.sid: no rule with sid 8"


@pytest.mark.parametrize("edit", ["deleted", "rewritten"])
def test_ruleset_is_parsed_once_at_load(tmp_path, rule_scenario, edit):
    rules = tmp_path / "m.rules"
    if edit == "deleted":
        rules.unlink()
    else:
        rules.write_text("alert tcp nonsense\n", encoding="utf-8")
    for rep in (1, 2):
        sim = run_single(rule_scenario, rep)
        # the loaded rule matches every segment toward the victim, so the
        # handshake's last ACK migrates: the victim never serves a request
        assert sim.victim.app.request_count == 0
        assert sim.honey.app.request_count == 10
        assert not sim.trace(rep).violations


def test_readme_documents_every_scenario_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    for f in fields(Scenario):
        *sections, leaf = f.metadata["key"].split(".")
        pattern = "".join(f'"{s}": {{[^\n]*' for s in sections) + f'"{leaf}":'
        assert re.search(pattern, section), f.metadata["key"]
    # and the other way: the example declares no key the schema lacks
    example = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", example))
    scenario_from_dict(doc, base_dir=builtin_scenario_path("e1_redirect").parent)


# -- rule-triggered migration ----------------------------------------------------------


def test_rule_trigger_migrates_on_fifth_packet(tmp_path):
    rules = tmp_path / "m.rules"
    rules.write_text(
        'alert tcp any -> 10.0.0.2 any (msg:"MIGRATE"; flags:P.A.; '
        'threshold:type threshold, track by_dst, count 5, seconds 120; '
        'sid:1000001;)\n', encoding="utf-8")
    doc = minimal_doc(trigger={"kind": "rule", "sid": 1000001},
                      ruleset="m.rules")
    scenario = scenario_from_dict(doc, base_dir=tmp_path)
    sim = run_single(scenario, 1)
    assert sim.victim.app.request_count == 4
    assert sim.honey.app.request_count == 10
    assert not sim.trace(1).violations


@pytest.mark.parametrize("other_sid", [7, RESTORE_WATCH_SID])
def test_only_the_trigger_sid_migrates(tmp_path, other_sid):
    shipped = builtin_scenario_path("e1_redirect").parent / "migrate.rules"
    rules = tmp_path / "m.rules"
    rules.write_text(
        shipped.read_text(encoding="utf-8")
        + 'alert tcp any -> 10.0.0.2 any (msg:"OTHER"; flags:P.A.; '
          'threshold:type threshold, track by_dst, count 3, seconds 120; '
          f'sid:{other_sid};)\n',
        encoding="utf-8")
    doc = minimal_doc(trigger={"kind": "rule", "sid": 1000001}, ruleset="m.rules")
    sim = run_single(scenario_from_dict(doc, base_dir=tmp_path), 1)
    # the other sid fires at ordinal 3 but only sid 1000001 (ordinal 5)
    # migrates; without restore_at, the restore watch's sid restores nothing
    assert sim.victim.app.request_count == 4
    assert other_sid in {alert.sid for alert in sim.ids.alerts}
    assert not [ev for ev in sim.controller.events if ev.kind == "restore_armed"]
    assert not sim.trace(1).violations


# -- containment and restore corner cases ------------------------------------------------


def test_on_clone_ready_with_preinstantiated_clone_matches_immediate(tmp_path):
    """A pre-built clone is up at the alert, so either containment buffers
    and splices inside the alert event: both modes export the same
    attacker and controller CSVs."""
    for name in ("e1_redirect", "e2_saturated", "e4_restore"):
        scenario = replace(load_scenario(builtin_scenario_path(name)), repetitions=5)
        exports = []
        for containment in ("immediate", "on_clone_ready"):
            run = replace(scenario, containment=containment)
            files = export_run(run, run_experiment(run), tmp_path / name / containment)
            exports.append([files[key].read_bytes() for key in ("attacker", "controller")])
        assert exports[0] == exports[1], name


def test_restore_alert_after_fail_open_is_ignored():
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       clone_failure_p=1.0, restore_at=110)
    for rep in (1, 2):
        sim = run_single(scenario, rep)
        oracle = run_single(scenario, rep, migration=False)
        ignored = [ev.fields for ev in sim.controller.events
                   if ev.kind == "restore_ignored"]
        assert ignored == [{"conn": ("10.0.0.1", 40001, "10.0.0.2", 9000),
                            "phase": "RESTORED"}]
        assert not sim.trace(rep).violations
        assert bytes(sim.attacker.received_stream) == \
            bytes(oracle.attacker.received_stream)


KNOB_THRESHOLD = ('alert tcp any -> 10.0.0.2 any (msg:"MIGRATE"; flags:{}; '
                  'threshold:type threshold, track by_dst, count 3, seconds 120; '
                  'sid:7;)\n')
# rules that also match segments the controller cannot act on -- the
# attacker's SYN, the server's direction -- whose alerts it must ignore
IGNORED_ALERT_RULES = {
    "flags:S": 'alert tcp any -> 10.0.0.2 any (msg:"M"; flags:S; sid:7;)\n',
    "server-dir": 'alert tcp 10.0.0.2 any -> any any (msg:"M"; sid:7;)\n',
    "any-any": 'alert tcp any -> any any (msg:"M"; sid:7;)\n',
}
KNOB_RULES = {"flags:A": KNOB_THRESHOLD.format("A"),
              "flags:P.A.": KNOB_THRESHOLD.format("P.A."), **IGNORED_ALERT_RULES}


# (request.interval_us, link.jitter): requests one round trip and 1 µs
# apart, and jitter that reorders a link's deliveries
KNOB_LINKS = [(10_000, {"kind": "none"}), (4_001, {"kind": "none"}),
              (10_000, {"kind": "uniform", "a": 0, "b": 900}),
              (10_000, {"kind": "normal", "a": 0, "b": 300})]


@pytest.mark.parametrize("restore_at", [None, 9])
@pytest.mark.parametrize("failure_p", [0, 1])
@pytest.mark.parametrize("containment", ["immediate", "on_clone_ready"])
@pytest.mark.parametrize("trigger", ["nth 4", *KNOB_RULES])
def test_knob_space_runs_clean_and_equals_oracle(tmp_path, trigger, containment,
                                                 failure_p, restore_at):
    # a payload-less trigger (the 3rd flags:A match is a pure ACK) must
    # still replay every pre-alert request
    if trigger != "nth 4":
        (tmp_path / "m.rules").write_text(KNOB_RULES[trigger], encoding="utf-8")
    for honey_addr_mode, (interval, jitter) in itertools.product(
            ("same", "distinct"), KNOB_LINKS):
        doc = minimal_doc(total_packets=12, seed=5, containment=containment,
                          clone={"on_demand": False, "failure_p": failure_p},
                          restore_at=restore_at, honey_addr_mode=honey_addr_mode,
                          request={"interval_us": interval}, link={"jitter": jitter})
        if trigger == "nth 4":
            doc["trigger"] = {"kind": "nth_packet", "n": 4}
        else:
            doc.update(trigger={"kind": "rule", "sid": 7}, ruleset="m.rules")
        scenario = scenario_from_dict(doc, base_dir=tmp_path)
        sim = run_single(scenario, 1)
        oracle = run_single(scenario, 1, migration=False)
        assert not sim.trace(1).violations
        assert bytes(sim.attacker.received_stream) == \
            bytes(oracle.attacker.received_stream)
        ignored = {ev.fields["phase"] for ev in sim.controller.events
                   if ev.kind == "alert_ignored"}
        assert ("IDLE" in ignored) == (trigger in IGNORED_ALERT_RULES)


def test_on_demand_clone_ready_beside_an_ack_splices_at_a_current_offset(tmp_path):
    """The clone comes up (59,050 µs) in the µs an attacker ACK reaches the
    switch, but before it: the splice waits for that ACK, so its offset
    counts the response the ACK acknowledges."""
    (tmp_path / "m.rules").write_text(KNOB_RULES["flags:A"], encoding="utf-8")
    scenario = scenario_from_dict(minimal_doc(
        total_packets=12, seed=5, containment="on_clone_ready",
        clone={"on_demand": True}, trigger={"kind": "rule", "sid": 7},
        ruleset="m.rules", request={"interval_us": 10_000}), base_dir=tmp_path)
    sim = run_single(scenario, 1)
    oracle = run_single(scenario, 1, migration=False)
    assert [ev.time_us for ev in sim.controller.events
            if ev.kind == "clone_latency"] == [59_050]
    assert not sim.trace(1).violations
    assert bytes(sim.attacker.received_stream) == bytes(oracle.attacker.received_stream)


def test_request_payloads_are_cached_and_shared_across_reps():
    assert make_request(7, 64) is make_request(7, 64)
    assert make_request.cache_info().maxsize == PAYLOAD_CACHE_SIZE > 0
    # random sizes: each rep draws other (index, size) keys from one cache
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       request_size_random=True)
    for rep in (1, 2, 3):
        sim = run_single(scenario, rep)
        oracle = run_single(scenario, rep, migration=False)
        assert not sim.trace(rep).violations
        assert [make_request.__wrapped__(i, len(p))
                for i, p in enumerate(sim.attacker.sent_requests, 1)] == \
            sim.attacker.sent_requests
        assert bytes(sim.attacker.received_stream) == \
            bytes(oracle.attacker.received_stream)


# SHA-256 of the requests the attacker sends in rep 1 of random scenarios
# 0..4, joined in that order. No export holds a payload or its size, so
# this is what pins the order of the ``attacker:size`` draws.
RANDOM_SIZE_REQUESTS_SHA256 = \
    "a6c3d2e9eb1b7b59846560688962e8783b8cc0ae30caf17fb8534ef72dd78f9c"


def test_random_request_sizes_match_recorded_hash():
    sent = b"".join(b"".join(run_single(random_scenario(i), 1).attacker.sent_requests)
                    for i in range(5))
    assert hashlib.sha256(sent).hexdigest() == RANDOM_SIZE_REQUESTS_SHA256


@pytest.mark.parametrize("delay", [40_000, 100_000])
@pytest.mark.parametrize("migration", [True, False])
def test_long_links_run_until_every_response_arrives(delay, migration):
    """The horizon leaves out the handshake's and the last response's round
    trips; the run goes on until the attacker has every response."""
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       link_base_delay_us=delay)
    scenario.validate()
    trace = run_single(scenario, 1, migration=migration).trace(1)
    assert len(trace.records) == 120
    assert not [v for v in trace.violations if "incomplete" in v]


def test_a_packet_in_past_its_hold_logs_rules_but_no_release():
    """The controller answers the SYN's miss after the switch has let its
    hold expire: the rules are installed, but no packet is released."""
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       controller_service_us=2_000_000)
    sim = run_single(scenario, 1)
    assert [(ev.time_us, ev.kind) for ev in sim.controller.events] == \
        [(2_011_000, "flow_rules")]
    assert sim.switch.stats["hold_expired"] == 1


def test_bulk_view_is_held_by_reference_and_joined_on_read():
    """At 64 KiB requests the attacker keeps each delivered payload as the
    endpoint handed it over; the joined view equals the oracle and the
    no-migration twin, is never stale mid-run, and keeps an edit until the
    next payload arrives."""
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       request_size=65_536, repetitions=2)
    for rep in (1, 2):
        sim = run_single(scenario, rep)
        twin = run_single(scenario, rep, migration=False)
        attacker = sim.attacker
        assert not sim.trace(rep).violations
        app = ServerApp(harness.APP_ID)
        expected = b"".join(app.respond(req) for req in attacker.sent_requests)
        assert len(expected) > 120 * 65_536
        assert bytes(attacker.received_stream) == expected
        assert bytes(attacker.received_stream) == bytes(twin.attacker.received_stream)
        assert all(type(chunk) is bytes for chunk in attacker.received)

    sim = Simulation(scenario, simnet.derive_seed(scenario.seed, "rep:1"))
    attacker = sim.attacker
    t = 700_000  # mid-session: requests go out from 10 ms to 1.2 s
    sim.engine.run_until(t)
    assert 0 < len(attacker.received) < 120
    view = attacker.received_stream
    assert bytes(view) == b"".join(attacker.received)
    view[-1:] = b"?"
    assert attacker.received_stream is view and view.endswith(b"?")
    count = len(attacker.received)
    while len(attacker.received) == count:  # stop in the µs the next one arrives
        t += 1
        sim.engine.run_until(t)
    assert bytes(attacker.received_stream) == b"".join(attacker.received)
    assert not attacker.received_stream.endswith(b"?")
    sim.run()
    assert bytes(attacker.received_stream) == expected


@pytest.mark.parametrize("size", [32, 65_536])
def test_migrated_stream_equals_the_literal_formats(size):
    """The attacker's stream, with migration, equals responses built from
    the literal request and response formats alone; rep 2 gets the responses
    rep 1 built."""
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       request_size=size)
    expected = b"".join(b"tcp-echo-v1#%06d|" % k + (b"r%06d-" % k * (size // 8 + 1))[:size]
                        for k in range(1, scenario.total_packets + 1))
    for rep in (1, 2):
        sim = run_single(scenario, rep)
        assert not sim.trace(rep).violations
        assert [e.kind for e in sim.controller.events].count("replayed") == 1
        assert bytes(sim.attacker.received_stream) == expected


def test_a_repetition_gets_the_response_objects_of_the_last():
    scenario = load_scenario(builtin_scenario_path("e1_redirect"))
    first, second = (run_single(scenario, rep).attacker.received for rep in (1, 2))
    assert len(first) == len(second) == scenario.total_packets
    assert all(a is b for a, b in zip(first, second))


@pytest.mark.parametrize("name, size, victim, honey, replayed", [
    # migration replays requests 1-99 into the honey server, which then
    # serves 100-120 live
    ("e1_redirect", 65_536, (99, 99), (21, 120), [99]),
    # the restore replays the honey server's live requests 100-109 into
    # the victim, which then serves 110-120 live
    ("e4_restore", 32, (110, 120), (10, 109), [99, 10]),
])
def test_splice_replay_builds_no_response(monkeypatch, name, size, victim, honey,
                                          replayed):
    """A server builds a response only for the requests it serves live: a
    replayed request counts in the app, but its response is never built."""
    calls = {}
    respond = ServerApp.respond

    def counted(app, request):
        calls[app] = calls.get(app, 0) + 1
        return respond(app, request)

    monkeypatch.setattr(ServerApp, "respond", counted)
    scenario = replace(load_scenario(builtin_scenario_path(name)), request_size=size)
    sim = run_single(scenario, 1)
    assert sim.trace(1).violations == []
    assert (calls[sim.victim.app], sim.victim.app.request_count) == victim
    assert (calls[sim.honey.app], sim.honey.app.request_count) == honey
    assert [e.rest[0] for e in sim.controller.events if e.kind == "replayed"] == replayed


# -- background load ---------------------------------------------------------------------


def test_background_small_scale():
    scenario = scenario_from_dict(minimal_doc(
        background={"n_hosts": 3, "procs_per_host": 4}))
    sim = run_single(scenario, 1)
    assert echo_flows(sim) == 12
    packet_ins = sum(1 for ev in sim.controller.events if ev.kind == "packet_in")
    assert packet_ins >= 12 + 1  # every flow misses once, plus the attacker SYN
    assert not sim.trace(1).violations


def test_each_background_flow_sends_one_request(monkeypatch):
    echoes = []
    process = Switch.process

    def recording(switch, pkt, key=None):
        if key is None and isinstance(pkt, simnet.EchoPacket):  # off a link, not released
            echoes.append((switch._engine.now, pkt))
        process(switch, pkt, key)
    monkeypatch.setattr(Switch, "process", recording)
    scenario = scenario_from_dict(minimal_doc(
        background={"n_hosts": 3, "procs_per_host": 4}))
    sim = run_single(scenario, 1)
    # one request per flow, from its own source port to the echo port, at
    # its staggered start plus one link delay; nothing answers it
    assert [(t, pkt.sport, pkt.dport) for t, pkt in echoes] == \
        [(71 * i + 1000, 10_000 + i, 7) for i in range(12)]
    assert {pkt.src.ip for _, pkt in echoes} == {"10.1.0.1", "10.1.0.2", "10.1.0.3"}
    assert all(pkt.src != pkt.dst for _, pkt in echoes)
    assert not sim.trace(1).violations


def test_echo_hosts_are_sinks_that_cost_no_delivery_event(monkeypatch):
    scheduled = []
    schedule = simnet.Engine.schedule

    def recording(engine, fn, at):
        scheduled.append(fn)
        return schedule(engine, fn, at)
    monkeypatch.setattr(simnet.Engine, "schedule", recording)
    sim = run_single(scenario_from_dict(minimal_doc(
        background={"n_hosts": 3, "procs_per_host": 4})), 1)
    targets = [getattr(fn.func, "__self__", None) for fn in scheduled
               if isinstance(fn, simnet._Delivery)]
    assert sim.switch in targets and sim.attacker in targets
    assert not [host for host in targets if isinstance(host, EchoHost)]
    # each echo host's port exists but holds no link
    echo_ports = [port for ip, port in sim.controller.port_map.items()
                  if ip.startswith("10.1.0.")]
    assert len(echo_ports) == 3
    assert [sim.switch._ports[port] for port in echo_ports] == [None] * 3
    assert not sim.trace(1).violations


def test_background_load_keeps_one_event_pending():
    scenario = load_scenario(builtin_scenario_path("e2_saturated"))
    sim = Simulation(scenario, simnet.derive_seed(scenario.seed, "rep:1"))
    # the echo emitter and the attacker's open, not one event per flow
    assert len(sim.engine._queue) + len(sim.engine._lane) <= 2
    sim.close()


def test_echo_flows_get_one_rule_and_tcp_both_directions():
    sim = run_single(load_scenario(builtin_scenario_path("e2_saturated")), 1)
    rules = sim.switch.rules()
    assert len(rules) == 1_402
    echo = [key for key in rules if key[3] == 7]
    assert len(echo) == 1_400
    assert not [key for key in echo if (key[2], 7, key[0], key[1]) in rules]
    (key,) = sim.controller.records
    assert key in rules and (key[2], key[3], key[0], key[1]) in rules
    assert not sim.trace(1).violations


def echo_flows(sim):
    """Distinct echo request keys (dport 7) that reached the controller."""
    return len({ev.fields["conn"] for ev in sim.controller.events
                if ev.kind == "packet_in" and ev.fields["conn"][3] == 7})


@pytest.mark.parametrize("n_hosts,procs,expected", [(1, 1, 1), (0, 70, 0)])
def test_background_degenerate_counts(n_hosts, procs, expected):
    doc = minimal_doc(background={"n_hosts": n_hosts, "procs_per_host": procs})
    sim = run_single(scenario_from_dict(doc), 1)
    assert echo_flows(sim) == expected


def test_every_rep_sends_the_same_echo_packets(monkeypatch):
    sent = []
    process = Switch.process

    def recording(switch, pkt, key=None):
        if key is None and isinstance(pkt, simnet.EchoPacket):  # off a link, not released
            sent[-1].append(pkt)
        process(switch, pkt, key)
    monkeypatch.setattr(Switch, "process", recording)
    scenario = load_scenario(builtin_scenario_path("e2_saturated"))
    for rep in (1, 2):
        sent.append([])
        run_single(scenario, rep)
    first, second = sent
    assert len(first) == len(second) == 1_400
    assert all(a is b for a, b in zip(first, second))


def test_another_background_replaces_the_cached_one():
    for n_hosts, procs in ((3, 4), (2, 3)):
        run_single(scenario_from_dict(minimal_doc(
            background={"n_hosts": n_hosts, "procs_per_host": procs})), 1)
    assert _background.cache_info().currsize == 1
    gc.collect()
    # only the 2 x 3 background is alive: the 3 x 4 one was evicted
    assert sum(isinstance(obj, simnet.EchoPacket) for obj in gc.get_objects()) == 6


def test_echo_hosts_past_255_get_valid_unique_addresses():
    engine = simnet.Engine(1)
    addrs = [host.addr for host in spawn_background_load(
        engine, Switch(engine), 300, 1, simnet.LinkModel())]
    assert addrs[0] == HostAddr("10.1.0.1", "02:00:01:00:00:01")
    assert addrs[254] == HostAddr("10.1.0.255", "02:00:01:00:00:ff")
    assert addrs[255] == HostAddr("10.1.1.0", "02:00:01:00:01:00")
    for addr in addrs:
        octets = addr.ip.split(".")
        assert len(octets) == 4 and all(0 <= int(o) <= 255 for o in octets), addr
        assert re.fullmatch(r"([0-9a-f]{2}:){5}[0-9a-f]{2}", addr.mac), addr
    assert len({a.ip for a in addrs}) == len({a.mac for a in addrs}) == 300


# -- summarize ----------------------------------------------------------------------------


def trace_of(rep, rtts, start_index=1):
    records = [PacketRecord(start_index + i, 1000 * i, 1000 * i + r, r)
               for i, r in enumerate(rtts)]
    return LatencyTrace(rep=rep, records=records, controller_events=[])


def test_summarize_single_trace_verbatim():
    summary = summarize([trace_of(1, [4000, 4200, 3900])])
    assert [(s.index, s.mean, s.min, s.max, s.stddev) for s in summary.per_index] == [
        (1, 4000.0, 4000, 4000, 0.0),
        (2, 4200.0, 4200, 4200, 0.0),
        (3, 3900.0, 3900, 3900, 0.0),
    ]


def test_summarize_pre_post_ratio():
    traces = [trace_of(1, [100, 100, 300, 200, 200]),
              trace_of(2, [100, 100, 100, 200, 200])]
    summary = summarize(traces, trigger_index=3)
    assert summary.pre_mean == 100.0
    assert summary.post_mean == 200.0
    assert summary.ratio == 2.0


def test_summarize_needs_traces():
    with pytest.raises(ValueError):
        summarize([])


def reference_summary(by_index, trigger_index):
    """summarize's contract, written with statistics' own functions."""
    per_index = [harness.IndexStats(i, statistics.fmean(r), min(r), max(r),
                                    statistics.pstdev(r), len(r))
                 for i, r in sorted(by_index.items())]
    pre = post = ratio = None
    if trigger_index is not None:
        below = [x for i, r in by_index.items() if i < trigger_index for x in r]
        above = [x for i, r in by_index.items() if i > trigger_index for x in r]
        pre = statistics.fmean(below) if below else None
        post = statistics.fmean(above) if above else None
        if pre is not None and pre > 0 and post is not None:
            ratio = post / pre
    return Summary(per_index, pre, post, ratio, trigger_index)


# per-index samples: spread ones, and equal ones as every shipped scenario has
INDEX_SAMPLES = st.one_of(
    st.lists(st.integers(0, 10**7), min_size=1, max_size=8),
    st.builds(lambda v, n: [v] * n, st.integers(0, 10**7), st.integers(1, 8)))


@settings(max_examples=300)
@given(st.lists(INDEX_SAMPLES, min_size=1, max_size=12),
       st.none() | st.integers(0, 13))
def test_summarize_equals_statistics_exactly(samples, trigger_index):
    by_index = dict(enumerate(samples, 1))
    by_rep: dict[int, list[PacketRecord]] = {}
    for index, rtts in by_index.items():
        for rep, rtt in enumerate(rtts, 1):
            by_rep.setdefault(rep, []).append(PacketRecord(index, 0, rtt, rtt))
    traces = [LatencyTrace(rep, records, []) for rep, records in by_rep.items()]
    assert summarize(traces, trigger_index) == reference_summary(by_index, trigger_index)


# -- export -------------------------------------------------------------------------------


def test_attacker_csv_format(tmp_path):
    path = tmp_path / "a.csv"
    write_attacker_csv([trace_of(1, [4000, 4100])], path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "rep,packet_index,send_us,recv_us,rtt_us"
    assert lines[1] == "1,1,0,4000,4000"
    assert lines[2] == "1,2,1000,5100,4100"
    assert text.endswith("\n") and "\r" not in text


def test_controller_csv_format(tmp_path):
    path = tmp_path / "c.csv"
    conn = ("10.0.0.1", 40001, "10.0.0.2", 9000)
    trace = LatencyTrace(rep=1, records=[], controller_events=[
        ControllerEvent(50, "alert", conn, (1, 7)),
        ControllerEvent(80, "clone_latency", conn, (30000,)),
    ])
    write_controller_csv([trace], path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "rep,event,time_us,detail"
    assert lines[1] == "1,alert,50,conn=10.0.0.1:40001->10.0.0.2:9000;sid=1;ordinal=7"
    # fields in their kind's declared order, whatever the field names
    assert lines[2] == "1,clone_latency,80,us=30000;conn=10.0.0.1:40001->10.0.0.2:9000"


def test_empty_trace_list_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_attacker_csv([], path)
    assert path.read_text(encoding="utf-8") == \
        "rep,packet_index,send_us,recv_us,rtt_us\n"


def test_reexport_is_byte_identical(tmp_path):
    traces = [trace_of(1, [4000, 4100]), trace_of(2, [3900, 4050])]
    p1, p2 = tmp_path / "x1.csv", tmp_path / "x2.csv"
    write_attacker_csv(traces, p1)
    write_attacker_csv(traces, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_attacker_csv_roundtrip(tmp_path):
    traces = [trace_of(1, [4000, 4100]), trace_of(2, [3900, 4050])]
    path = tmp_path / "t.csv"
    write_attacker_csv(traces, path)
    back = read_attacker_csv(path)
    assert [(t.rep, [(r.index, r.rtt_us) for r in t.records]) for t in back] == \
        [(t.rep, [(r.index, r.rtt_us) for r in t.records]) for t in traces]


# every event kind Controller.log writes
CONTROLLER_EVENT_KINDS = {
    "packet_in", "flow_rules", "packet_in_unroutable", "anomaly_drop",
    "alert", "alert_ignored", "clone_requested", "clone_failed",
    "buffer_installed", "victim_closed", "clone_latency", "splice_started",
    "replayed", "rewrite_rules", "redirected", "restored", "restore_armed",
    "restore_ignored"}
CONN = ("10.0.0.1", 40001, "10.0.0.2", 9000)


def csv_module_exports(traces, summary):
    """The attacker, controller and summary files as ``csv.writer`` writes
    them, in the shipped row layout."""
    def detail(event_fields):
        return ";".join(f"conn={v[0]}:{v[1]}->{v[2]}:{v[3]}" if k == "conn"
                        else f"{k}={v}" for k, v in event_fields.items())
    tables = [
        (["rep", "packet_index", "send_us", "recv_us", "rtt_us"],
         [[t.rep, r.index, r.send_us, r.recv_us, r.rtt_us]
          for t in traces for r in t.records]),
        (["rep", "event", "time_us", "detail"],
         [[t.rep, ev.kind, ev.time_us, detail(ev.fields)]
          for t in traces for ev in t.controller_events]),
        (["packet_index", "mean_rtt_us", "min_rtt_us", "max_rtt_us", "stddev_rtt_us",
          "samples"],
         [[s.index, f"{s.mean:.3f}", s.min, s.max, f"{s.stddev:.3f}", s.samples]
          for s in summary.per_index]),
    ]
    out = []
    for header, rows in tables:
        fh = io.StringIO()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        out.append(fh.getvalue().encode("utf-8"))
    return out


@pytest.fixture(scope="module")
def export_inputs(tmp_path_factory):
    """Trace lists that between them hold every controller event kind."""
    inputs = {}
    for name in ("e1_redirect", "e2_saturated", "e3_copy_on_demand", "e4_restore"):
        scenario = replace(load_scenario(builtin_scenario_path(name)), repetitions=2)
        inputs[name] = run_experiment(scenario)
    for i in range(40):
        inputs[f"rand-{i}"] = run_experiment(random_scenario(i), strict=False)
    inputs["clone_fails"] = run_experiment(scenario_from_dict(minimal_doc(
        repetitions=2, clone={"failure_p": 1}, restore_at=8)))
    rules_dir = tmp_path_factory.mktemp("rules")
    (rules_dir / "m.rules").write_text(IGNORED_ALERT_RULES["any-any"], encoding="utf-8")
    inputs["rule_any_any"] = run_experiment(scenario_from_dict(minimal_doc(
        repetitions=2, trigger={"kind": "rule", "sid": 7}, ruleset="m.rules"),
        base_dir=rules_dir))
    inputs["hand_built"] = [LatencyTrace(rep=3, records=[], controller_events=[
        ControllerEvent(10, "anomaly_drop", CONN),
        ControllerEvent(20, "packet_in_unroutable", CONN),
        ControllerEvent(30, "restore_ignored", CONN, ("IDLE",)),
    ])]
    inputs["empty"] = []
    return inputs


def test_exports_equal_the_csv_module_byte_for_byte(tmp_path, export_inputs):
    kinds = set()
    for name, traces in export_inputs.items():
        summary = summarize(traces) if traces else Summary([], None, None, None, None)
        paths = [tmp_path / f"{name}.{part}.csv" for part in ("a", "c", "s")]
        write_attacker_csv(traces, paths[0])
        write_controller_csv(traces, paths[1])
        write_summary_csv(summary, paths[2])
        assert [p.read_bytes() for p in paths] == csv_module_exports(traces, summary), name
        kinds |= {ev.kind for t in traces for ev in t.controller_events}
    assert kinds == CONTROLLER_EVENT_KINDS


# format syntax of both %-templates and str.format, as a value may hold it
FORMAT_SYNTAX = ("%", "%s", "%%", "%d", "%(x)s", "{0}", "{", "}", "{rep}")


def test_values_holding_format_syntax_are_written_literally(tmp_path):
    # a value is only ever an argument of a row template, never its text;
    # rep 10's 300 events span two chunks, and reps 10 and 123 take the
    # rep's digits into the template
    events = [ControllerEvent(i, "packet_in", CONN) for i in range(300)]
    for i, value in enumerate(FORMAT_SYNTAX):
        events[10 * i] = ControllerEvent(10 * i, "clone_failed", CONN, (value,))
        events[270 + i] = ControllerEvent(270 + i, "alert_ignored", CONN, (value, 1000001))
    events[290] = ControllerEvent(290, "clone_latency", CONN, ("{0}%s",))
    events[291] = ControllerEvent(291, "packet_in", ("%s", "{1}", "%", "}"))
    records = [PacketRecord(i, v, f"{v}{v}", v) for i, v in enumerate(FORMAT_SYNTAX)]
    traces = [LatencyTrace(10, records, events),
              LatencyTrace(123, records[:2], [ControllerEvent(5, "restore_ignored",
                                                              CONN, ("%s{0}",))])]
    summary = Summary([harness.IndexStats(v, 4000.5, v, v, 0.25, v) for v in FORMAT_SYNTAX],
                      None, None, None, None)
    paths = [tmp_path / f"{part}.csv" for part in ("a", "c", "s")]
    write_attacker_csv(traces, paths[0])
    write_controller_csv(traces, paths[1])
    write_summary_csv(summary, paths[2])
    written = [p.read_bytes() for p in paths]
    assert written == csv_module_exports(traces, summary)
    controller = written[1].decode()
    assert "\n10,clone_failed,0,conn=10.0.0.1:40001->10.0.0.2:9000;policy=%\n" in controller
    assert "\n10,alert_ignored,278,conn=10.0.0.1:40001->10.0.0.2:9000;phase={rep};" \
           "sid=1000001\n" in controller
    assert "\n10,packet_in,291,conn=%s:{1}->%:}\n" in controller
    assert controller.endswith("\n123,restore_ignored,5,conn=10.0.0.1:40001->"
                               "10.0.0.2:9000;phase=%s{0}\n")


def test_an_undeclared_field_count_in_a_later_chunk_of_a_later_rep_leaves_no_file(tmp_path):
    # rep 2's event 300 lies in its second 256-row chunk, after rep 1's
    # chunks and rep 2's first have passed; alert declares two fields besides conn
    events = [ControllerEvent(i, "packet_in", CONN) for i in range(600)]
    failing = list(events)
    failing[300] = ControllerEvent(300, "alert", CONN, (1000001,))
    path = tmp_path / "controller_events.csv"
    with pytest.raises(ValueError, match=re.escape("'alert' with 1 field(s)")):
        write_controller_csv([LatencyTrace(1, [], events), LatencyTrace(2, [], failing)],
                             path)
    assert list(tmp_path.iterdir()) == []


def test_a_conn_of_other_than_four_parts_raises_naming_the_kind(tmp_path):
    # in one chunk, a 5-part conn and a 3-part one give the template its
    # total count of values, each in the wrong field after the first
    events = [ControllerEvent(1, "packet_in", (*CONN, "x")),
              ControllerEvent(2, "flow_rules", CONN[:3])]
    with pytest.raises(ValueError,
                       match=re.escape("'packet_in' with 0 field(s) besides a 5-part conn")):
        write_controller_csv([LatencyTrace(1, [], events)], tmp_path / "c.csv")
    assert list(tmp_path.iterdir()) == []


def test_the_kind_table_declares_every_logged_kind():
    assert set(EVENT_FIELDS) == CONTROLLER_EVENT_KINDS
    assert all(names.count("conn") == 1 for names in EVENT_FIELDS.values())


@pytest.mark.parametrize("kind, rest", [
    ("no_such_kind", ()), ("alert", (1,)), ("packet_in", ("x",)),
    ("clone_latency", ()), ("clone_failed", ("open", "extra"))])
def test_an_undeclared_kind_or_arity_raises_naming_the_kind(tmp_path, kind, rest):
    events = [ControllerEvent(1, "packet_in", CONN), ControllerEvent(2, kind, CONN, rest)]
    with pytest.raises(ValueError, match=re.escape(repr(kind))):
        write_controller_csv([LatencyTrace(rep=1, records=[], controller_events=events)],
                             tmp_path / "c.csv")


def test_readme_tables_every_event_kind_and_its_fields():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Output formats", 1)[1].split("\n## ", 1)[0]
    table = {kind: tuple(names.split(";")) for kind, names in
             re.findall(r"^\| `(\w+)` \| `([\w;]+)` \|", section, re.M)}
    assert table == EVENT_FIELDS


@pytest.mark.parametrize("char", [",", '"', "\n", "\r"])
@pytest.mark.parametrize("position", [0, 1500])
def test_a_field_that_needs_quoting_raises_naming_the_file(tmp_path, char, position):
    # the second position lies in a later chunk than the first
    events = [ControllerEvent(i, "packet_in", CONN) for i in range(2000)]
    events[position] = ControllerEvent(position, "clone_failed", CONN, (f"a{char}b",))
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_controller_csv([LatencyTrace(rep=1, records=[], controller_events=events)], path)
    records = [PacketRecord(1, 0, f"4{char}000", 4000)]
    path = tmp_path / "a.csv"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        write_attacker_csv([LatencyTrace(rep=1, records=records, controller_events=[])], path)


def test_a_failed_export_leaves_no_partial_file_and_keeps_an_earlier_one(tmp_path):
    # index 500 lies in the second 256-row chunk: the first one has passed
    events = [ControllerEvent(i, "packet_in", CONN) for i in range(600)]
    events[500] = ControllerEvent(500, "no_such_kind", CONN)
    failing = [LatencyTrace(rep=1, records=[], controller_events=events)]
    path = tmp_path / "controller_events.csv"
    with pytest.raises(ValueError, match="no_such_kind"):
        write_controller_csv(failing, path)
    assert list(tmp_path.iterdir()) == []
    write_controller_csv([LatencyTrace(rep=1, records=[], controller_events=events[:500])],
                         path)
    earlier = path.read_bytes()
    assert earlier.count(b"\n") == 501
    with pytest.raises(ValueError, match="no_such_kind"):
        write_controller_csv(failing, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == earlier


def test_a_failed_export_run_keeps_the_earlier_file_set(tmp_path):
    e1 = load_scenario(builtin_scenario_path("e1_redirect"))
    e1 = replace(e1, seed=7, repetitions=1)
    files = export_run(e1, run_experiment(e1), tmp_path)
    earlier = {key: path.read_bytes() for key, path in files.items()}
    later = replace(e1, total_packets=110, seed=2)
    traces = run_experiment(later)
    traces[0].controller_events.append(ControllerEvent(1, "no_such_kind", CONN))
    with pytest.raises(ValueError, match="no_such_kind"):
        export_run(later, traces, tmp_path)
    # the attacker CSV staged before the failure is removed, not renamed
    assert sorted(tmp_path.iterdir()) == sorted(files.values())
    assert {key: path.read_bytes() for key, path in files.items()} == earlier


# SHA-256 of the shipped scenarios' four exports (attacker, controller,
# summary, meta) at 3 repetitions. A change that alters any exported byte
# changes behaviour and must update these openly.
SUMMARY_SHA256 = "5da8ca13c1c8c94b48d10e17d824053afed5bba1df9fb43c5bebb8df8c42755c"
EXPORT_SHA256 = {
    "e1_redirect": (
        "871b77c16f6d51b62a68bdebd125fd3cd8bf830b0d438bdddce1ca23bd542cc4",
        "c8e07f9e757dde430bf5a8b5cc03abb81693b2c18f9ff0a2e7281c13c1efff14",
        SUMMARY_SHA256,
        "c10e31721a45046174dfc6d3327bc303365de79fa1c1ab0ba9aa088f8b40af3c"),
    "e2_saturated": (
        "53178cc8b354d99f26f29b5d95db569d42e0d2a9c49fc7fd827e4bf9d352a6ec",
        "7e00eb18ed7bb83b7d9fd43258df048d8ad2846378b465b3f8940594d54f22b9",
        SUMMARY_SHA256,
        "6c0026c9c467dab5e9a8dc33b26991edb02fb431ee12b22cbf973c890b16a652"),
    "e3_copy_on_demand": (
        "c8af85aed1a4f8389822c3638a7b828f51a533a10c1c8c6dba21d6ac08248136",
        "dfb376256be85f24bcad727862e06dd7ece56b68579fc9ec48a716f53e8c7ca5",
        SUMMARY_SHA256,
        "fcc878ecbefb710dd8101e5d8db4605709ed9c2ec81c204f690f514145f4e44b"),
    "e4_restore": (
        "871b77c16f6d51b62a68bdebd125fd3cd8bf830b0d438bdddce1ca23bd542cc4",
        "ea1645e45a70aee9ef52c9fa6b1e8ad6f53a366d3914fb0329f289471b1f76f7",
        SUMMARY_SHA256,
        "b753fc8e676c4d6b0f1d7f70d790f73557b78f3be2cdcd3b0ae1fce0702880cc"),
}


# Each case: a shipped scenario and the fields it overrides. The exports
# hold no payload byte, so e1 at 64 KiB requests keeps e1's four digests:
# they cannot tell how the attacker keeps what it receives.
EXPORT_CASES = {**{name: (name, {}) for name in EXPORT_SHA256},
                "e1_redirect_bulk": ("e1_redirect", {"request_size": 65_536})}


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_shipped_exports_match_recorded_hashes(tmp_path, case):
    name, overrides = EXPORT_CASES[case]
    scenario = replace(load_scenario(builtin_scenario_path(name)),
                       repetitions=3, **overrides)
    files = export_run(scenario, run_experiment(scenario), tmp_path)
    digests = tuple(hashlib.sha256(files[key].read_bytes()).hexdigest()
                    for key in ("attacker", "controller", "summary", "meta"))
    assert digests == EXPORT_SHA256[name]


# SHA-256 of e2's four exports at 3 repetitions, seed 11, on links jittered
# by uniform(0, 300) µs. Each jittered link draws from its own stream, so a
# link that is never built moves no other link's draws.
JITTERED_E2_SHA256 = (
    "69c63d4ffe12f97733bbe4bf0e41312fd9fd0c8899923d4c55f2480a4a6d91f6",
    "1b9fca048c3210e24e7b6ace40ecd56f646d862cdd1c0889eec567f8951d579d",
    "ff74bb1c74f78fe63ec6600b6f1925e05c494fe361b9f1737782de8d7c0d5e97",
    "6c0026c9c467dab5e9a8dc33b26991edb02fb431ee12b22cbf973c890b16a652")


def test_jittered_e2_exports_match_recorded_hashes(tmp_path):
    scenario = replace(load_scenario(builtin_scenario_path("e2_saturated")),
                       repetitions=3, seed=11,
                       link_jitter_kind="uniform", link_jitter_a=0, link_jitter_b=300)
    files = export_run(scenario, run_experiment(scenario), tmp_path)
    digests = tuple(hashlib.sha256(files[key].read_bytes()).hexdigest()
                    for key in ("attacker", "controller", "summary", "meta"))
    assert digests == JITTERED_E2_SHA256


# SHA-256 of the four exports of small background documents (3 x 5 flows,
# 2 repetitions) on 710 µs links: emissions, 71 µs apart, tie with link
# deliveries, and the packet-in FIFO waits (and at 710 µs of service its
# events tie with both). Keyed by controller service time and link jitter.
TIED_BACKGROUND_SHA256 = {
    (100, "none"): (
        "70706301214117afe8a310c0e635c589c1886674667df741beda6a091fe177cb",
        "e7e76a9229fa81a3002db82432c52d021ecde4a27a0d838ffa6c7d27fcef8f04",
        "ca6519c4b89b609eaad0a2da6192f23d07cc5482d7b82cfeb57c5e2804f42d40",
        "d146f5fd1d9f7268eeadb53c8cc8082fb95d6e5a10d59e102e7c0922c9d56de2"),
    (100, "uniform"): (
        "18786f2f00874722abbe3eb88128adc3e481999076e6f56ffa7493929e98eedb",
        "dc8112d6dc9330e2f17a4106dbedf7f671efde73e435a15bbecbcba3e418c3c6",
        "3b189318cbe804801ca2f2c2e5e8d68832250c3695bfd7b4874a052b022bfad5",
        "d146f5fd1d9f7268eeadb53c8cc8082fb95d6e5a10d59e102e7c0922c9d56de2"),
    (710, "none"): (
        "8fc7dabac0f2b78235c31061661e91bcf5e440c55a0616851b3c6bd4e702bd4b",
        "1984de0d0ec6faaedc31ec96b38f897816551b5eba9fe5acc4de73fbc4714d00",
        "ca6519c4b89b609eaad0a2da6192f23d07cc5482d7b82cfeb57c5e2804f42d40",
        "d146f5fd1d9f7268eeadb53c8cc8082fb95d6e5a10d59e102e7c0922c9d56de2"),
    (710, "uniform"): (
        "8577fc88ab036135744ff883b08ef1b61018c17fcc65bb7ab4bc19dd79954ee2",
        "2a1b9c19112055a9546fc665a7d012ca30101d17908c2a3b241d90e04b7f206c",
        "3b189318cbe804801ca2f2c2e5e8d68832250c3695bfd7b4874a052b022bfad5",
        "d146f5fd1d9f7268eeadb53c8cc8082fb95d6e5a10d59e102e7c0922c9d56de2"),
}


@pytest.mark.parametrize("service,jitter", sorted(TIED_BACKGROUND_SHA256))
def test_tied_background_exports_match_recorded_hashes(tmp_path, service, jitter):
    scenario = scenario_from_dict(minimal_doc(
        repetitions=2, controller_service_us=service,
        link={"base_delay_us": 710,
              "jitter": {"kind": "uniform", "a": 0, "b": 300} if jitter == "uniform"
              else {"kind": "none"}},
        background={"n_hosts": 3, "procs_per_host": 5}))
    files = export_run(scenario, run_experiment(scenario), tmp_path)
    digests = tuple(hashlib.sha256(files[key].read_bytes()).hexdigest()
                    for key in ("attacker", "controller", "summary", "meta"))
    assert digests == TIED_BACKGROUND_SHA256[(service, jitter)]


# SHA-256 of the attacker and controller exports of e1 restored at request
# 110, 2 repetitions, seed 7, under on_clone_ready on links jittered by
# uniform(-900, 900) µs: every repetition replays both the migration window
# and the restore window on a reordering link (at 5,000 µs with pipelining
# violations, hence not strict). The exports name no address, so both honey
# modes share a digest. Every move resets the server it leaves, so each
# restore logs a victim_closed for the honey server. Keyed by request
# interval and clone.on_demand.
JITTERED_SPLICE_SHA256 = {
    (5_000, False): (
        "261319d7aceaf5332059341e11407abad7cebb8f81730efbe3f580952108cc42",
        "75c6c2ddb42c8bca50c79c0da9585783a26a80c2644785e0ff3220903fb88570"),
    (5_000, True): (
        "d375872ed18c223bed158816e5dc4a053e8579e057c9ec550ece22b40fd47d2a",
        "37ab0cd139ef4d0b0b9dbadba106991ef60a937d0357a71797522a7d9de0e928"),
    (10_000, False): (
        "a3207ee50648f4db32f3dce803b98eb9a8e62aed8747abd8a7b8250947f93203",
        "279b82ee90c29ead5a079abc3da4482389ce5a1f34fdd3292fbb4eaa741959b3"),
    (10_000, True): (
        "4ebf164aedde48069db89f7bcbd42e8996c2ebe301fa8824dbeb6e61dd694520",
        "68d5720cf6598ec1816fc20cf766b0a57eb8b4427e0f4666417df1fad29e46ec"),
}


@pytest.mark.parametrize("mode", ["same", "distinct"])
@pytest.mark.parametrize("interval,on_demand", sorted(JITTERED_SPLICE_SHA256))
def test_jittered_splice_exports_match_recorded_hashes(tmp_path, interval, on_demand, mode):
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       repetitions=2, seed=7, restore_at=110,
                       request_interval_us=interval, honey_addr_mode=mode,
                       clone_on_demand=on_demand, containment="on_clone_ready",
                       link_jitter_kind="uniform", link_jitter_a=-900, link_jitter_b=900)
    traces = run_experiment(scenario, strict=False)
    for trace in traces:
        assert {"redirected", "restored"} <= {e.kind for e in trace.controller_events}
    files = export_run(scenario, traces, tmp_path)
    digests = tuple(hashlib.sha256(files[key].read_bytes()).hexdigest()
                    for key in ("attacker", "controller"))
    assert digests == JITTERED_SPLICE_SHA256[(interval, on_demand)]


def test_export_run_writes_file_set(tmp_path):
    scenario = scenario_from_dict(minimal_doc(repetitions=2))
    traces = run_experiment(scenario)
    files = export_run(scenario, traces, tmp_path / "out")
    for key in ("attacker", "controller", "summary", "meta"):
        assert files[key].exists()
    meta = json.loads(files["meta"].read_text(encoding="utf-8"))
    assert meta["trigger_index"] == 5
    assert meta["repetitions"] == 2


# -- randomized scenario generator -----------------------------------------------------------


def test_random_scenarios_are_stable_and_valid():
    a = random_scenario(17)
    b = random_scenario(17)
    assert a == b
    for i in range(25):
        sc = random_scenario(i)
        sc.validate()
        assert 1 <= sc.trigger_n <= sc.total_packets <= 50
        if sc.restore_at is not None:
            assert sc.restore_at > sc.trigger_n


# -- CLI ---------------------------------------------------------------------------------------


def test_cli_run_and_summarize(tmp_path, capsys):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(minimal_doc(repetitions=2)),
                             encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", str(scenario_path), "--out", str(out_dir)]) == 0
    captured = capsys.readouterr().out
    assert "post/pre ratio" in captured
    assert (out_dir / "attacker_trace.csv").exists()

    assert cli_main(["summarize", str(out_dir)]) == 0
    assert (out_dir / "summary.csv").exists()


def test_cli_run_seed_overrides_the_scenario(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert cli_main(["run", "e1_redirect", "--seed", "5", "--reps", "2",
                     "--out", str(out_dir)]) == 0
    assert "seed 5" in capsys.readouterr().out
    assert json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))["seed"] == 5
    scenario = replace(load_scenario(builtin_scenario_path("e1_redirect")),
                       seed=5, repetitions=2)
    files = export_run(scenario, run_experiment(scenario), tmp_path / "api")
    assert (out_dir / "attacker_trace.csv").read_bytes() == files["attacker"].read_bytes()


@pytest.mark.parametrize("csv_text, meta, message", [
    (None, None, "no attacker_trace.csv under"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n", None, "holds no records"),
    ("rep,packet_index,send_us,recv_us\n1,1,0,4000\n", None, "no column 'rtt_us'"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n1,1,0,4000,x\n", None,
     "attacker_trace.csv: invalid literal"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n1,1,0,4000,4000\n",
     '{"trigger_index": "100"}', "trigger_index must be an integer or null"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n1,1,0,4000,4000\n",
     '{"trigger_index": true}', "trigger_index must be an integer or null"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n1,1,0,4000,4000\n",
     '{"trigger_index": 1', "meta.json is not JSON"),
    ("rep,packet_index,send_us,recv_us,rtt_us\n1,1,0,4000,4000\n",
     "[100]", "meta.json is not a JSON object"),
], ids=["no-trace-csv", "header-only", "missing-column", "non-integer-cell", "string-trigger",
        "bool-trigger", "meta-not-json", "meta-not-object"])
def test_cli_summarize_unreadable_trace_dir_is_config_error(tmp_path, capsys, csv_text,
                                                            meta, message):
    if csv_text is not None:
        (tmp_path / "attacker_trace.csv").write_text(csv_text, encoding="utf-8")
    if meta is not None:
        (tmp_path / "meta.json").write_text(meta, encoding="utf-8")
    assert cli_main(["summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: trace-dir: ")
    assert message in err
    assert not (tmp_path / "summary.csv").exists()


@pytest.fixture
def lost_response(monkeypatch):
    """Every repetition ends without the attacker's record of response 3."""
    run = Simulation.run

    def losing_run(sim):
        run(sim)
        del sim.attacker.recv_ts[3]

    monkeypatch.setattr(Simulation, "run", losing_run)


def test_incomplete_packet_is_a_violation(lost_response):
    scenario = scenario_from_dict(minimal_doc(repetitions=2))
    with pytest.raises(InvariantViolation,
                       match=r"^t rep 1: packet 3 incomplete \(send=\d+, recv=None\)$"):
        run_experiment(scenario)
    traces = run_experiment(scenario, strict=False)
    assert [t.rep for t in traces] == [1, 2]
    for trace in traces:
        (violation,) = trace.violations
        assert violation.startswith("packet 3 incomplete")
        assert [r.index for r in trace.records] == [1, 2, *range(4, 11)]


# -- reclamation -------------------------------------------------------------------


@pytest.fixture
def rep_refs(monkeypatch):
    """Weak references to each repetition's simulation, engine, switch and
    controller, taken with the cyclic collector off for the whole test."""
    refs = []
    run = harness.run_single

    def recording_run_single(*args, **kwargs):
        # every earlier repetition is freed before the next one is built
        assert [ref() for ref in refs] == [None] * len(refs)
        sim = run(*args, **kwargs)
        refs.extend(weakref.ref(obj)
                    for obj in (sim, sim.engine, sim.switch, sim.controller))
        return sim

    monkeypatch.setattr(harness, "run_single", recording_run_single)
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


RECLAIM_CASES = {
    "background": {"background": {"n_hosts": 2, "procs_per_host": 2}},
    # long links and a long interval: the attacker's last ack lands 150 ms
    # after its last response
    "in-flight": {"link": {"base_delay_us": 150_000},
                  "request": {"interval_us": 610_000}},
    "on-demand": {"clone": {"on_demand": True}, "containment": "on_clone_ready"},
    "restore": {"restore_at": 8},
    "rule-trigger": {"trigger": {"kind": "rule", "sid": 7}, "ruleset": "m.rules"},
    "fail-open": {"clone": {"failure_p": 1}},
    "distinct": {"honey_addr_mode": "distinct"},
}


@pytest.mark.parametrize("overrides", RECLAIM_CASES.values(), ids=RECLAIM_CASES)
def test_run_experiment_frees_each_repetition(tmp_path, rep_refs, overrides):
    (tmp_path / "m.rules").write_text(RULES, encoding="utf-8")
    doc = minimal_doc(repetitions=2, **overrides)
    traces = run_experiment(scenario_from_dict(doc, base_dir=tmp_path))
    assert [t.rep for t in traces] == [1, 2]
    assert len(rep_refs) == 8
    assert [ref() for ref in rep_refs] == [None] * 8


# Each case: a shipped scenario and the fields it overrides, or (None, the
# overrides of minimal_doc).
DRAIN_CASES = {
    **{name: (name, {}) for name in EXPORT_SHA256},
    **{f"link-{delay}": ("e1_redirect", {"link_base_delay_us": delay})
       for delay in (40_000, 100_000)},
    **{f"reclaim-{case}": (None, doc) for case, doc in RECLAIM_CASES.items()},
}


@pytest.mark.parametrize("case", DRAIN_CASES)
def test_a_repetition_runs_until_no_event_is_pending(tmp_path, case):
    """``run`` dispatches until the heap and the lane are both empty, and
    by then the attacker has every response."""
    name, overrides = DRAIN_CASES[case]
    if name is None:
        (tmp_path / "m.rules").write_text(RULES, encoding="utf-8")
        scenario = scenario_from_dict(minimal_doc(**overrides), base_dir=tmp_path)
    else:
        scenario = replace(load_scenario(builtin_scenario_path(name)), **overrides)
    sim = run_single(scenario, 1)
    assert not sim.engine._queue and not sim.engine._lane
    assert not [v for v in sim.trace(1).violations if "incomplete" in v]


def test_strict_raise_frees_the_failing_repetition(rep_refs, lost_response):
    with pytest.raises(InvariantViolation):
        run_experiment(scenario_from_dict(minimal_doc(repetitions=2)))
    assert len(rep_refs) == 4
    assert [ref() for ref in rep_refs] == [None] * 4


def test_cli_check_reports_violations(tmp_path, capsys, lost_response):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(minimal_doc(repetitions=2)),
                             encoding="utf-8")
    assert cli_main(["check", str(scenario_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines[1:]] == [
        "rep 1: VIOLATION packet 3 incomplete",
        "rep 2: VIOLATION packet 3 incomplete",
        "FAIL: 2 violation(s)"]


def test_cli_run_violation_exit_code(tmp_path, capsys, lost_response):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(minimal_doc()), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", str(scenario_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith(
        "invariant violation: t rep 1: packet 3 incomplete")
    # the failing run is still exported, without the lost response
    for name in ("attacker_trace.csv", "controller_events.csv", "summary.csv",
                 "meta.json"):
        assert (out_dir / name).exists()
    rows = read_attacker_csv(out_dir / "attacker_trace.csv")
    assert [r.index for r in rows[0].records] == [1, 2, *range(4, 11)]


def test_cli_run_summarizes_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, _summarize=summarize):
        calls.append(args[1:])
        return _summarize(*args)
    monkeypatch.setattr(harness, "summarize", counted)
    monkeypatch.setattr(cli, "summarize", counted)
    out_dir = tmp_path / "out"
    assert cli_main(["run", "e1_redirect", "--reps", "2", "--out", str(out_dir)]) == 0
    assert calls == [(100,)]
    assert "post/pre ratio" in capsys.readouterr().out
    meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["trigger_index"] == 100


def test_cli_check_ok(tmp_path):
    scenario_path = tmp_path / "mini.json"
    scenario_path.write_text(json.dumps(minimal_doc(repetitions=2)),
                             encoding="utf-8")
    assert cli_main(["check", str(scenario_path)]) == 0


def test_cli_config_error_exit_code(tmp_path):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(minimal_doc(restore_at=1)),
                             encoding="utf-8")
    assert cli_main(["run", str(scenario_path)]) == 2


def test_cli_unknown_scenario_exit_code():
    assert cli_main(["run", "no_such_scenario"]) == 2


def test_cli_check_of_a_directory_is_config_error(tmp_path, capsys):
    assert cli_main(["check", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: path: ")


def test_cli_check_of_a_file_not_in_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(minimal_doc(name="caf\u00e9"), ensure_ascii=False)
                     .encode("latin-1"))
    assert cli_main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: path: ")


@pytest.mark.parametrize("out", ["file", "file/x"])
def test_cli_run_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, out):
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert cli_main(["run", "e1_redirect", "--reps", "1",
                     "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: out: ")
    assert captured.out == ""  # refused before any repetition runs


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_zero_reps_is_config_error(command, capsys):
    assert cli_main([command, "e1_redirect", "--reps", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error: repetitions: ")


def test_cli_builtin_scenario_name(tmp_path):
    # shipped scenario by bare name, reps overridden to keep it quick
    assert cli_main(["check", "e1_redirect", "--reps", "2"]) == 0


def test_cli_entry_point_installed():
    result = subprocess.run([sys.executable, "-m", "honeysplice.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "run" in result.stdout and "summarize" in result.stdout
