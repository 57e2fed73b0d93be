"""Event engine determinism, link delay exactness, RNG stream splitting."""

import random

import pytest

from honeysplice import simnet
from honeysplice.simnet import (
    BackgroundLoadSpec,
    Distribution,
    Engine,
    Link,
    LinkModel,
    SchedulingInPast,
    derive_seed,
)


def test_schedule_and_run():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(lambda: fired.append("a"), 10)
    eng.schedule(lambda: fired.append("b"), 5)
    assert eng.run_until(100) == 2
    assert fired == ["b", "a"]
    assert eng.now == 10


def test_equal_time_ties_break_by_insertion():
    eng = Engine(seed=1)
    fired = []
    for name in ("first", "second", "third"):
        eng.schedule(lambda n=name: fired.append(n), 50)
    eng.run_until(50)
    assert fired == ["first", "second", "third"]


def test_schedule_in_past_rejected():
    eng = Engine(seed=1)
    eng.schedule(lambda: None, 5)
    eng.run_until(5)
    with pytest.raises(SchedulingInPast):
        eng.schedule(lambda: None, 4)


def test_schedule_at_now_ok():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(lambda: eng.schedule(lambda: fired.append(1), eng.now), 7)
    eng.run_until(7)
    assert fired == [1]


def test_run_until_counts_and_stops():
    eng = Engine(seed=1)
    for t in (1, 2, 3, 10):
        eng.schedule(lambda: None, t)
    assert eng.run_until(5) == 3
    assert eng.now == 3  # clock stays at the last dispatched event
    assert eng.run_until(20) == 1
    assert eng.now == 10


def test_run_until_empty_queue():
    eng = Engine(seed=1)
    assert eng.run_until(1000) == 0
    assert eng.now == 0


def test_events_scheduled_during_run_fire_in_order():
    eng = Engine(seed=1)
    fired = []

    def outer():
        fired.append("outer")
        eng.schedule(lambda: fired.append("inner"), eng.now + 1)

    eng.schedule(outer, 10)
    eng.schedule(lambda: fired.append("later"), 12)
    eng.run_until(20)
    assert fired == ["outer", "inner", "later"]


def test_determinism_same_seed_same_draw_sequence():
    def draws(seed):
        eng = Engine(seed)
        rng = eng.stream("x")
        return [rng.random() for _ in range(20)]

    assert draws(42) == draws(42)
    assert draws(42) != draws(43)


def test_streams_are_independent():
    # consuming stream "a" must not change what stream "b" produces
    eng1 = Engine(9)
    _ = [eng1.stream("a").random() for _ in range(100)]
    b1 = [eng1.stream("b").random() for _ in range(5)]

    eng2 = Engine(9)
    b2 = [eng2.stream("b").random() for _ in range(5)]
    assert b1 == b2


def test_derive_seed_stable():
    assert derive_seed(7, "rep:1") == derive_seed(7, "rep:1")
    assert derive_seed(7, "rep:1") != derive_seed(7, "rep:2")


def test_distribution_fixed_and_clamp():
    rng = Engine(1).stream("d")
    assert Distribution("fixed", 30_000).sample(rng) == 30_000
    assert Distribution("fixed", -5).sample(rng) == 0


def test_distribution_uniform_bounds():
    rng = Engine(1).stream("d")
    dist = Distribution("uniform", -100, 100)
    samples = [dist.sample(rng) for _ in range(200)]
    assert all(-100 <= s <= 100 for s in samples)


def test_latency_samples_nonnegative():
    rng = Engine(3).stream("t")
    dist = Distribution("normal", 1000, 5000)
    assert all(dist.sample(rng) >= 0 for _ in range(200))


def test_distribution_unknown_kind():
    with pytest.raises(ValueError):
        Distribution("exponential", 1.0)


def test_link_exact_delay_without_jitter():
    eng = Engine(1)
    deliveries = []
    link = Link(eng, "l0", LinkModel(base_delay_us=1000),
                lambda p: deliveries.append((p, eng.now)))
    sent_at = {}

    def send(tag):
        sent_at[tag] = eng.now
        link.send(tag)

    eng.schedule(lambda: send("p1"), 0)
    eng.schedule(lambda: send("p2"), 400)
    eng.run_until(10_000)
    assert deliveries == [("p1", 1000), ("p2", 1400)]
    # delivered_time - sent_time == base_delay, exactly, for every packet
    for tag, t in deliveries:
        assert t - sent_at[tag] == 1000


def test_link_send_queues_one_delivery_through_schedule(monkeypatch):
    # what the benchmark tracer relies on to bill deliveries to simnet
    queued = []
    schedule = Engine.schedule

    def spy(engine, fn, at):
        queued.append((fn, at))
        return schedule(engine, fn, at)

    monkeypatch.setattr(Engine, "schedule", spy)
    eng = Engine(1)
    delivered = []
    link = Link(eng, "l0", LinkModel(base_delay_us=250), delivered.append)
    link.send("pkt")
    assert len(queued) == 1
    fn, at = queued[0]
    assert isinstance(fn, simnet._Delivery)
    assert at == 250
    fn()
    assert delivered == ["pkt"]


def test_jittered_link_draws_from_its_named_stream():
    model = LinkModel(1000, Distribution("uniform", -300, 300))
    eng = Engine(7)
    arrivals = []
    link = Link(eng, "l0", model, lambda p: arrivals.append((eng.now, p)))
    for i in range(6):
        link.send(i)
    eng.run_until(10_000)
    ref = random.Random(derive_seed(7, "link:l0"))
    assert sorted(arrivals) == sorted(
        (max(0, 1000 + model.jitter.sample(ref)), i) for i in range(6))
    # the link consumed exactly those draws from the engine's stream
    assert eng.stream("link:l0").random() == ref.random()


def test_background_spec_flow_count():
    assert BackgroundLoadSpec(20, 70).total_flows == 1400
    assert BackgroundLoadSpec(0, 70).total_flows == 0
    assert BackgroundLoadSpec(1, 1).total_flows == 1
