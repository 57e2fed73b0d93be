"""Strategy table invariants, cost arithmetic, selection, instantiation.

select_strategy expectations are verified by exhaustively evaluating the
scoring formula over all four strategies (the oracle below) rather than
trusting the implementation's argmin.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from honeysplice.clonemgr import (
    CloneFailed,
    CloneManager,
    StrategyKind,
    StrategyProfile,
    VictimSpec,
    default_cost_table,
    load_cost_table,
    select_strategy,
    strategy_cost,
)
from honeysplice.netcore import HostAddr
from honeysplice.simnet import Distribution, Engine

VIC = HostAddr("10.0.0.2", "02:00:00:00:00:02")
SPEC = VictimSpec(addr=VIC, app_id="svc", open_ports=(9000,))


def exhaustive_argmin(table, w_latency, w_cost):
    # oracle: literal scan over every strategy in declaration order, in exact
    # rational arithmetic so that no product underflows
    scores = []
    for kind in StrategyKind:
        p = table[kind]
        scores.append((Fraction(w_latency) * Fraction(p.latency.mean()) / 10**6
                       + Fraction(w_cost) * Fraction(p.steady_cost),
                       list(StrategyKind).index(kind), kind))
    return min(scores)[2]


# -- table invariants ---------------------------------------------------------


def test_default_table_idle_cost_shape():
    table = default_cost_table()
    assert table[StrategyKind.SUSPENDED].steady_cost > 0
    assert table[StrategyKind.INFO_CONFIG].steady_cost > 0
    assert table[StrategyKind.VICTIM_IMAGE].steady_cost == 0
    assert table[StrategyKind.DISK_COPY].steady_cost == 0


def test_default_table_latency_ordering():
    table = default_cost_table()
    lat = {k: table[k].latency.mean() for k in StrategyKind}
    assert lat[StrategyKind.SUSPENDED] < lat[StrategyKind.VICTIM_IMAGE]
    assert lat[StrategyKind.VICTIM_IMAGE] < lat[StrategyKind.INFO_CONFIG]
    assert lat[StrategyKind.INFO_CONFIG] < lat[StrategyKind.DISK_COPY]


def test_profile_validation():
    with pytest.raises(ValueError):
        StrategyProfile(StrategyKind.SUSPENDED, Distribution("fixed", 1),
                        steady_cost=0.0, per_clone_cost=1.0, staleness_risk="low")
    with pytest.raises(ValueError):
        StrategyProfile(StrategyKind.VICTIM_IMAGE, Distribution("fixed", 1),
                        steady_cost=1.0, per_clone_cost=1.0, staleness_risk="low")


def test_latency_samples_nonnegative():
    rng = Engine(3).stream("t")
    profile = StrategyProfile(StrategyKind.DISK_COPY,
                              Distribution("normal", 1000, 5000),
                              steady_cost=0.0, per_clone_cost=1.0,
                              staleness_risk="low")
    assert all(profile.latency.sample(rng) >= 0 for _ in range(200))


def test_cost_table_file_roundtrip(tmp_path):
    doc = {"strategies": [
        {"kind": "VICTIM_IMAGE", "latency": {"kind": "fixed", "a": 12000},
         "steady_cost": 0.0, "per_clone_cost": 2.5, "staleness_risk": "medium"},
        {"kind": "SUSPENDED", "latency": {"kind": "uniform", "a": 100, "b": 300},
         "steady_cost": 4.0, "per_clone_cost": 1.0, "staleness_risk": "low"},
    ]}
    path = tmp_path / "costs.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    table = load_cost_table(path)
    assert table[StrategyKind.VICTIM_IMAGE].latency.mean() == 12000
    assert table[StrategyKind.SUSPENDED].latency.mean() == 200


# -- cost arithmetic --------------------------------------------------------------


def test_cost_zero_horizon_no_clones():
    table = default_cost_table()
    for kind in StrategyKind:
        assert strategy_cost(table[kind], 0.0, clones=0) == 0.0


def test_cost_suspended_dominates_victim_image_over_100s():
    table = default_cost_table()
    suspended = strategy_cost(table[StrategyKind.SUSPENDED], 100.0, clones=0)
    image = strategy_cost(table[StrategyKind.VICTIM_IMAGE], 100.0, clones=1)
    # 5.0 units/s * 100 s = 500 vs 0 + one clone at 2.0
    assert suspended == 500.0
    assert image == 2.0
    assert suspended > image


def test_cost_idle_component_linear():
    profile = default_cost_table()[StrategyKind.INFO_CONFIG]
    assert strategy_cost(profile, 200.0) == 2 * strategy_cost(profile, 100.0)


def test_cost_negative_horizon_rejected():
    with pytest.raises(ValueError):
        strategy_cost(default_cost_table()[StrategyKind.DISK_COPY], -1.0)


# -- selection -------------------------------------------------------------------------


def test_select_default_weights_picks_victim_image():
    table = default_cost_table()
    assert exhaustive_argmin(table, 1.0, 1.0) is StrategyKind.VICTIM_IMAGE
    assert select_strategy((1.0, 1.0), table) is StrategyKind.VICTIM_IMAGE


def test_select_latency_only_picks_suspended():
    table = default_cost_table()
    assert exhaustive_argmin(table, 1.0, 0.0) is StrategyKind.SUSPENDED
    assert select_strategy((1.0, 0.0), table) is StrategyKind.SUSPENDED


def test_select_single_strategy_table():
    table = {StrategyKind.DISK_COPY: default_cost_table()[StrategyKind.DISK_COPY]}
    assert select_strategy((1.0, 1.0), table) is StrategyKind.DISK_COPY


def test_select_bad_weights():
    with pytest.raises(ValueError):
        select_strategy((0.0, 0.0))
    with pytest.raises(ValueError):
        select_strategy((-1.0, 1.0))


@given(st.floats(min_value=0.001, max_value=1000.0),
       st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
       .filter(lambda w: w[0] + w[1] > 0))
@example(2.0, (0.0, 5e-324))
def test_select_invariant_under_rescaling(factor, weights):
    table = default_cost_table()
    scaled = (weights[0] * factor, weights[1] * factor)
    assume(sum(scaled) > 0)  # both weights zero is rejected by contract
    assert select_strategy(weights, table) is select_strategy(scaled, table)


@given(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
       .filter(lambda w: w[0] + w[1] > 0))
@example((0.0, 5e-324))
def test_select_matches_exhaustive_oracle(weights):
    table = default_cost_table()
    assert select_strategy(weights, table) is exhaustive_argmin(table, *weights)


# -- instantiation ------------------------------------------------------------------------


def make_manager(latency_us=30_000, failure_p=0.0, pre=None):
    engine = Engine(7)
    profile = StrategyProfile(StrategyKind.VICTIM_IMAGE,
                              Distribution("fixed", latency_us),
                              steady_cost=0.0, per_clone_cost=2.0,
                              staleness_risk="medium")
    made = []

    def make_host(spec):
        made.append(spec)
        return f"honey-{len(made)}"

    mgr = CloneManager(engine, profile, make_host, failure_p=failure_p,
                       pre_instantiated=pre)
    return engine, mgr, made


def test_clone_ready_after_exact_latency():
    engine, mgr, made = make_manager(latency_us=30_000)
    ready = []
    engine.schedule(lambda: mgr.request_clone(
        SPEC, lambda host, lat: ready.append((engine.now, host, lat))), 1000)
    engine.run_until(100_000)
    assert ready == [(31_000, "honey-1", 30_000)]
    assert mgr.clones_created == 1


def test_zero_latency_clone_same_tick():
    engine, mgr, _ = make_manager(latency_us=0)
    ready = []
    engine.schedule(lambda: mgr.request_clone(
        SPEC, lambda host, lat: ready.append(engine.now)), 500)
    engine.run_until(1_000)
    assert ready == [500]


def test_pre_instantiated_is_synchronous():
    engine, mgr, made = make_manager(pre="prebuilt")
    ready = []
    mgr.request_clone(SPEC, lambda host, lat: ready.append((host, lat)))
    assert ready == [("prebuilt", 0)]
    assert made == []  # factory never invoked


def test_failure_probability_one():
    engine, mgr, _ = make_manager(failure_p=1.0)
    with pytest.raises(CloneFailed):
        mgr.request_clone(SPEC, lambda host, lat: None)
