"""Numbers a run must reproduce from a closed form worked out by hand, and
relations between a run and a transformed run where no closed form
exists (metamorphic relations)."""

import math
import statistics
from dataclasses import replace

import pytest

from honeysplice.clonemgr import CLONE_LATENCY_US
from honeysplice.harness import (ATTACKER_SPORT, builtin_scenario_path, load_scenario,
                                 run_single)


# -- the controller's packet-in queue --------------------------------------------------


def lindley(arrivals: list[int], service_us: int) -> tuple[list[int], list[int]]:
    """Completion times and waits of a FIFO single server with a constant
    service time: done_k = max(done_{k-1}, arrival_k) + service."""
    done, completions, waits = 0, [], []
    for arrival in arrivals:
        start = max(done, arrival)
        waits.append(start - arrival)
        done = start + service_us
        completions.append(done)
    return completions, waits


# (controller_service_us, link base delay, largest wait, completions due one
# link delay after their arrival). The last count is of completions that go on
# the engine's constant-delay lane; the others go on its heap. At (150, 100) the
# completions stay on the heap while the deliveries take a 100 µs lane, so
# dispatch merges the two.
PACKET_IN_CASES = [
    (0, 1000, 0, 0),
    (50, 1000, 0, 0),  # as shipped
    (100, 1000, 40_571, 0),
    (100, 100, 40_571, 2),  # the first echo and the SYN find the controller idle
    (150, 100, 110_521, 0),
]


@pytest.mark.parametrize("service_us, link_us, max_wait, on_lane", PACKET_IN_CASES)
def test_e2_packet_ins_complete_as_a_fifo_queue(service_us, link_us, max_wait, on_lane):
    scenario = replace(load_scenario(builtin_scenario_path("e2_saturated")),
                       controller_service_us=service_us, link_base_delay_us=link_us)
    sim = run_single(scenario, 1)
    rows = [ev for ev in sim.controller.events if ev.kind == "packet_in"]
    # echo flow k's request reaches the switch one link delay after it
    # leaves at 71k µs; the attacker's SYN leaves at 200 ms, after them all
    n_flows = scenario.background_n_hosts * scenario.background_procs_per_host
    arrivals = [71 * k + link_us for k in range(n_flows)] + [200_000 + link_us]
    completions, waits = lindley(arrivals, service_us)
    assert [ev.time_us for ev in rows] == completions
    # the k-th completion serves the k-th miss; echo flow k sends from port 10,000 + k
    assert [ev.conn[1] for ev in rows] == \
        [10_000 + k for k in range(n_flows)] + [ATTACKER_SPORT]
    assert max(waits) == max_wait
    assert sum(w + service_us == link_us for w in waits) == on_lane
    assert not sim.trace(1).violations
    sim.close()


def test_shipped_e2_packet_ins_never_wait():
    scenario = load_scenario(builtin_scenario_path("e2_saturated"))
    shipped = (scenario.controller_service_us, scenario.link_base_delay_us)
    assert [case[2] for case in PACKET_IN_CASES if case[:2] == shipped] == [0]


# -- round-trip times without jitter ---------------------------------------------------


@pytest.mark.parametrize("name", ["e1_redirect", "e3_copy_on_demand", "e4_restore"])
@pytest.mark.parametrize("link_us", [500, 1000, 2000])
def test_unjittered_rtts_are_four_link_delays_in_either_address_mode(name, link_us):
    """A request and its response each cross two links, before and after the
    redirect; the honey server's address changes neither the attacker's
    stream nor one RTT."""
    scenario = replace(load_scenario(builtin_scenario_path(name)),
                       link_base_delay_us=link_us)
    assert scenario.link_jitter_kind == "none"
    for rep in (1, 2):
        views = []
        for mode in ("same", "distinct"):
            sim = run_single(replace(scenario, honey_addr_mode=mode), rep)
            trace = sim.trace(rep)
            assert not trace.violations
            assert len(trace.records) == scenario.total_packets
            # the relation says nothing unless the connection moved
            assert any(ev.kind == "redirected" for ev in trace.controller_events)
            rtts = [record.rtt_us for record in trace.records]
            assert set(rtts) == {4 * link_us}
            views.append((bytes(sim.attacker.received_stream), rtts))
            sim.close()
        assert views[0] == views[1]


# -- round-trip times under jitter -----------------------------------------------------

# (kind, a, b): narrow and wide jitter symmetric about 0, and a one-sided one
JITTERS = [("uniform", -100, 100), ("normal", 0, 300), ("uniform", 0, 900)]


def jittered(name: str, kind: str, a: float, b: float):
    return replace(load_scenario(builtin_scenario_path(name)),
                   link_jitter_kind=kind, link_jitter_a=a, link_jitter_b=b)


@pytest.mark.parametrize("name", ["e1_redirect", "e3_copy_on_demand", "e4_restore"])
@pytest.mark.parametrize("kind, a, b", JITTERS)
def test_jittered_address_modes_give_the_attacker_one_view(name, kind, a, b):
    """On jittered links too, the honey server's address changes neither
    the attacker's stream nor when any request leaves or its response
    arrives."""
    scenario = jittered(name, kind, a, b)
    for rep in (1, 2, 3):
        views = []
        for mode in ("same", "distinct"):
            sim = run_single(replace(scenario, honey_addr_mode=mode), rep)
            # the relation says nothing unless the connection moved
            assert any(ev.kind == "redirected" for ev in sim.controller.events)
            attacker = sim.attacker
            assert len(attacker.recv_ts) == scenario.total_packets
            views.append((bytes(attacker.received_stream), attacker.send_ts, attacker.recv_ts))
            sim.close()
        assert views[0] == views[1]


# (kind, a, b, the draw's mean, the draw's variance)
JITTER_MOMENTS = [("uniform", -100, 100, 0, 200**2 / 12), ("normal", 0, 300, 0, 300**2),
                  ("uniform", 0, 900, 450, 900**2 / 12)]


@pytest.mark.parametrize("kind, a, b, jitter_mean, jitter_var", JITTER_MOMENTS)
def test_pre_trigger_rtts_are_four_jittered_link_crossings(kind, a, b, jitter_mean,
                                                           jitter_var):
    """Before the trigger a request and its response cross four links, each
    taking base + round(draw) µs. The RTTs' mean is four times base plus the
    draw's mean, and their variance four times the draw's plus the
    rounding's 1/12: the mean within four standard errors, the sample
    variance within four of its relative standard errors."""
    scenario = jittered("e1_redirect", kind, a, b)
    rtts = []
    for rep in (1, 2, 3):
        sim = run_single(scenario, rep)
        rtts += [record.rtt_us for record in sim.trace(rep).records
                 if record.index < scenario.trigger_n]
        sim.close()
    n = len(rtts)
    assert n == 3 * (scenario.trigger_n - 1)
    want_mean = 4 * (scenario.link_base_delay_us + jitter_mean)
    want_var = 4 * (jitter_var + 1 / 12)
    assert abs(statistics.fmean(rtts) - want_mean) <= 4 * math.sqrt(want_var / n)
    assert abs(statistics.variance(rtts) / want_var - 1) <= 4 * math.sqrt(2 / (n - 1))


# -- an on-demand clone's latency ------------------------------------------------------

# (request interval, link base delay) pairs whose interval exceeds four base
# delays: each request's round trip ends before the next request leaves
CLONE_GRID = [(interval, delay) for interval in (4_500, 10_000, 50_000)
              for delay in (500, 1_000, 2_000) if interval > 4 * delay]


@pytest.mark.parametrize("containment", ["on_clone_ready", "immediate"])
@pytest.mark.parametrize("strategy", list(CLONE_LATENCY_US))
@pytest.mark.parametrize("interval, delay", CLONE_GRID)
def test_e3_exposure_and_wait_follow_the_clone_latency(interval, delay, strategy,
                                                        containment):
    """With L the clone latency, N requests and the trigger n, exposure is
    the requests from n on that the victim serves. Under on_clone_ready it
    serves each one sent while the clone boots, the trigger included:
    min(ceil(L / interval), N - n + 1). Under immediate it serves none, and
    the trigger's request waits out the boot: the largest RTT is
    L + 4 base delays."""
    scenario = replace(load_scenario(builtin_scenario_path("e3_copy_on_demand")),
                       request_interval_us=interval, link_base_delay_us=delay,
                       clone_strategy=strategy, containment=containment)
    latency, n, total = CLONE_LATENCY_US[strategy], scenario.trigger_n, scenario.total_packets
    sim = run_single(scenario, 1)
    trace = sim.trace(1)
    exposure = sim.victim.app.request_count - (n - 1)
    if containment == "on_clone_ready":
        assert not trace.violations
        assert exposure == min(math.ceil(latency / interval), total - n + 1)
    else:
        # violations unchecked: the acks of the requests that piled up
        # during the boot reach the attacker as ack discontinuities
        assert exposure == 0
        assert max(record.rtt_us for record in trace.records) == latency + 4 * delay
    sim.close()


# -- seeds and time scales -------------------------------------------------------------


@pytest.mark.parametrize("name", ["e1_redirect", "e2_saturated", "e3_copy_on_demand",
                                  "e4_restore"])
def test_another_seed_moves_the_isn_but_no_rtt(name):
    """The root seed reaches the attacker's ISN, but no link of a shipped
    scenario draws: every RTT and the violation count are seed-free."""
    scenario = load_scenario(builtin_scenario_path(name))
    isns, views = set(), []
    for seed in (7, 8, 123):
        sim = run_single(replace(scenario, seed=seed), 1)
        trace = sim.trace(1)
        isns.add(sim.attacker.conn.iss)
        views.append(([record.rtt_us for record in trace.records], len(trace.violations)))
        sim.close()
    assert len(isns) == 3
    assert views[0] == views[1] == views[2]
    assert len(views[0][0]) == scenario.total_packets


@pytest.mark.parametrize("name", ["e1_redirect", "e4_restore"])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_scaling_link_delay_and_interval_scales_every_rtt(name, k):
    """With a pre-built clone the redirect costs no time of its own, so a
    run whose link delay and request interval are k times longer is the
    same run on a k times slower clock: each RTT is k times as long."""
    scenario = load_scenario(builtin_scenario_path(name))
    assert not scenario.clone_on_demand
    scaled = replace(scenario, link_base_delay_us=k * scenario.link_base_delay_us,
                     request_interval_us=k * scenario.request_interval_us)
    rtts = []
    for case in (scenario, scaled):
        sim = run_single(case, 1)
        trace = sim.trace(1)
        # the relation says nothing unless the connection moved
        assert any(ev.kind == "redirected" for ev in trace.controller_events)
        rtts.append([record.rtt_us for record in trace.records])
        sim.close()
    assert len(rtts[0]) == scenario.total_packets
    assert rtts[1] == [k * rtt for rtt in rtts[0]]
