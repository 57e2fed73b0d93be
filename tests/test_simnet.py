"""Event engine determinism, link delay exactness, RNG stream splitting."""

import itertools
import random
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings, strategies as st

from honeysplice import simnet
from honeysplice.simnet import (
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


def test_lane_and_heap_events_at_one_time_run_in_insertion_order():
    eng = Engine(seed=1)
    fired = []
    eng.schedule(lambda: fired.append("heap 1"), 100)  # before the lane exists
    link = Link(eng, "l0", LinkModel(base_delay_us=100), fired.append)
    link.send("lane 2")
    eng.schedule(lambda: fired.append("lane 3"), 100)
    eng.schedule(lambda: eng.schedule(lambda: fired.append("heap 4"), 100), 50)
    assert (len(eng._queue), len(eng._lane)) == (2, 2)
    assert eng.run_until(100) == 5
    assert fired == ["heap 1", "lane 2", "lane 3", "heap 4"]


class HeapOnlyEngine(Engine):
    """Reference: every event on one heap, dispatched by (time, order)."""

    def schedule(self, fn, at):
        if at < self.now:
            raise SchedulingInPast(f"schedule at {at} < now {self.now}")
        self._order += 1
        heappush(self._queue, (at, self._order, fn))
        return self._order

    def run_until(self, t_end):
        dispatched = 0
        while self._queue and self._queue[0][0] <= t_end:
            self.now, _, fn = heappop(self._queue)
            fn()
            dispatched += 1
        return dispatched


def drive(engine_cls, links, starts, reactions, chunks):
    """Run one drawn world; returns each dispatch as (event, time) and each
    ``run_until`` chunk's count and clock."""
    eng = engine_cls(seed=3)
    log, labels = [], itertools.count(1)
    lane_delay = next((delay for delay, jitter in links if not jitter), 0)

    def fire(label):
        log.append((label, eng.now))
        if len(log) <= 200:  # bounds the world's growth
            for action in reactions[len(log) % len(reactions)]:
                act(*action)

    def act(kind, arg):
        label = next(labels)
        if kind == "send":
            wires[arg % len(wires)].send(label)
        else:
            delay = {"now": 0, "lane": lane_delay}.get(kind, arg)
            eng.schedule(lambda: fire(label), eng.now + delay)

    wires = []
    for i, (delay, jitter) in enumerate(links):
        wires.append(Link(eng, f"l{i}", LinkModel(
            delay, "uniform" if jitter else "none", -30, 30), fire))
        act(*starts[i % len(starts)])  # events queued while links are built
    for action in starts:
        act(*action)
    chunk_results, t_end = [], 0
    for step in chunks + [10**6]:
        t_end += step
        chunk_results.append((eng.run_until(t_end), eng.now))
    return log, chunk_results


ACTION = st.tuples(st.sampled_from(["send", "send", "now", "lane", "at"]),
                   st.integers(0, 60))


@settings(max_examples=300)
@given(links=st.lists(st.tuples(st.sampled_from([0, 10, 25, 40]), st.booleans()),
                      min_size=1, max_size=4),
       starts=st.lists(ACTION, min_size=1, max_size=6),
       reactions=st.lists(st.lists(ACTION, max_size=2), min_size=1, max_size=6),
       chunks=st.lists(st.integers(0, 60), max_size=8))
@example(links=[(25, False), (10, False), (40, True)],
         starts=[("send", 0), ("send", 1), ("send", 2), ("lane", 0), ("at", 15)],
         reactions=[[("send", 1), ("lane", 0)], [("now", 0), ("send", 0)], [("at", 15)]],
         chunks=[10, 15, 0, 33])
@example(links=[(0, False), (25, False)],
         starts=[("send", 0), ("send", 1), ("now", 0), ("at", 25)],
         reactions=[[("send", 0), ("send", 1)], [("lane", 0), ("at", 7)], []],
         chunks=[0, 25, 1])
def test_engine_dispatches_like_a_single_heap(links, starts, reactions, chunks):
    """Links with and without jitter (the first one without claims the lane;
    another constant delay uses the heap), callbacks that schedule at now, one
    lane delay ahead and elsewhere, and ``run_until`` stopping partway: the
    dispatch order and every chunk's count equal a heap-only engine's."""
    got = drive(Engine, links, starts, reactions, chunks)
    want = drive(HeapOnlyEngine, links, starts, reactions, chunks)
    assert got == want


def test_clear_drops_heap_and_lane_events():
    eng = Engine(seed=1)
    link = Link(eng, "l0", LinkModel(base_delay_us=10), lambda p: None)
    link.send("pkt")
    eng.schedule(lambda: None, 5)
    eng.clear()
    assert eng.run_until(10**6) == 0


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


def test_link_clamps_a_negative_draw_at_zero():
    # uniform(a, a) is the constant offset a, negative ones too: the link
    # clamps only the sum with its base delay at zero
    eng = Engine(1)
    arrivals = []

    def deliver(tag):
        arrivals.append((eng.now, tag))

    far = Link(eng, "far", LinkModel(0, "uniform", 30_000, 30_000), deliver)
    near = Link(eng, "near", LinkModel(3, "uniform", -5, -5), deliver)
    eng.schedule(lambda: (far.send("far"), near.send("near")), 100)
    eng.run_until(10**6)
    assert arrivals == [(100, "near"), (30_100, "far")]


def test_uniform_jitter_stays_in_bounds():
    eng = Engine(1)
    delays = []
    link = Link(eng, "l0", LinkModel(1000, "uniform", -100, 100),
                lambda sent: delays.append(eng.now - sent))
    for t in range(0, 2_000_000, 10_000):
        eng.schedule(lambda: link.send(eng.now), t)
    eng.run_until(10**9)
    assert len(delays) == 200 and all(900 <= d <= 1100 for d in delays)


def test_latency_samples_nonnegative():
    # draws from normal(1000, 5000) are often negative, but no link delivers
    # a packet before it was sent
    ref = random.Random(derive_seed(3, "link:l0"))
    draws = [round(ref.normalvariate(1000, 5000)) for _ in range(200)]
    assert min(draws) < 0
    eng = Engine(3)
    delays = []
    link = Link(eng, "l0", LinkModel(0, "normal", 1000, 5000),
                lambda sent: delays.append(eng.now - sent))
    for t in range(0, 20_000_000, 100_000):
        eng.schedule(lambda: link.send(eng.now), t)
    eng.run_until(10**9)
    assert delays == [max(0, d) for d in draws]


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
    model = LinkModel(1000, "uniform", -300, 300)
    eng = Engine(7)
    arrivals = []
    link = Link(eng, "l0", model, lambda p: arrivals.append((eng.now, p)))
    for i in range(6):
        link.send(i)
    eng.run_until(10_000)
    ref = random.Random(derive_seed(7, "link:l0"))
    assert sorted(arrivals) == sorted(
        (max(0, 1000 + round(ref.uniform(-300, 300))), i) for i in range(6))
    # the link consumed exactly those draws from the engine's stream
    assert eng.stream("link:l0").random() == ref.random()
