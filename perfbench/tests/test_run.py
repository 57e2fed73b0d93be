"""Percentile support rule and the tracer's neutrality on program output."""

from dataclasses import replace

import pytest

import run
import tracer as tr
from workloads import build_scenario, load_program


def test_samples_beyond_p90():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(250, 90) == 25


def test_min_samples_leaves_ten_beyond():
    assert run.min_samples(90) == 100
    assert run.min_samples(50) == 20
    assert run.min_samples(99) == 1000
    for pct in (50, 90, 95, 99):
        n = run.min_samples(pct)
        assert run.samples_beyond(n, pct) >= run.MIN_BEYOND
        assert run.samples_beyond(n - 1, pct) < run.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([5], 90) == 5


@pytest.fixture(scope="module")
def hs():
    return load_program()


def test_tracer_leaves_session_digest_unchanged(hs, tmp_path):
    scenario = replace(build_scenario("session", 5), repetitions=3)
    plain, plain_error = run.run_pass(hs, scenario, tmp_path / "plain")
    tracer = tr.Tracer()
    with tr.installed(tracer):
        traced, traced_error = run.run_pass(hs, scenario, tmp_path / "traced")
    assert plain_error is None and traced_error is None
    assert traced == plain
    assert len(tracer.serials("")) == 1 + scenario.repetitions
    assert hs.vswitch.Switch.process.__name__ == "process"


def test_rep_gate_accepts_a_clean_rep_and_rejects_a_tampered_stream(hs):
    scenario = build_scenario("session", 5)
    sim = hs.harness.run_single(scenario, 1)
    trace = sim.trace(1)
    assert run.rep_problem(hs, sim, trace) is None
    sim.attacker.received_stream[-1:] = b"?"
    assert "oracle" in run.rep_problem(hs, sim, trace)


def test_record_compares_only_runs_of_the_same_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    problems = []
    run.check_record("session seed=1 src=a", "d1", {"simnet.events": 849}, problems)
    run.check_record("session seed=1 src=b", "d2", {"simnet.events": 700}, problems)
    assert problems == []
    run.check_record("session seed=1 src=a", "d1", {"simnet.events": 848}, problems)
    assert problems == ["simnet.events = 848, an earlier run saw 849"]
