"""Deterministic discrete-event engine.

Time is integer microseconds (float time would make event ordering
platform-dependent). Events fire in (time, insertion order), so a run is
a pure function of the scenario and the root seed.

Pending events sit on a heap or, when due exactly the base delay of the first
link without jitter ahead, in a FIFO lane (a one-bucket calendar queue; Brown,
1988). As the clock never goes back and insertion order grows, the lane stays
in (time, insertion order); dispatch merges its head with the heap's top.

Randomness is split into named sub-streams derived from the root seed
(crc32 of the stream tag xor the seed, the usual trick), so adding one
entity to a scenario never perturbs another entity's draws.
"""

from __future__ import annotations

import functools
import random
import zlib
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional

from .netcore import HostAddr


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current clock."""


def derive_seed(root: int, tag: str) -> int:
    """Stable 32-bit sub-seed for ``tag``. Never uses builtin hash()."""
    return (zlib.crc32(tag.encode("utf-8")) ^ root) & 0xFFFFFFFF


class LinkModel(NamedTuple):
    """Delivery delay model for one link: the ``link.*`` scenario leaves.

    Kind ``none`` delays every delivery by exactly ``base_delay_us``;
    ``uniform`` and ``normal`` add ``round`` of a ``uniform(a, b)`` or
    ``normalvariate(a, b)`` draw, negative ones too.
    """

    base_delay_us: int = 1000
    jitter_kind: str = "none"
    jitter_a: float = 0.0
    jitter_b: float = 0.0


@dataclass(slots=True)
class EchoPacket:
    """ICMP-echo-like request; carries no TCP state, and nothing answers it.

    ``sport`` doubles as the echo identifier so each background flow has a
    distinct match key at the switch. Write-once by contract, like
    ``netcore.TcpSegment`` (see the ``netcore`` docstring).
    """

    src: HostAddr
    dst: HostAddr
    sport: int
    dport: int

    def __init__(self, src: HostAddr, dst: HostAddr, sport: int, dport: int) -> None:
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport


class Engine:
    """Single-threaded event loop with a monotone integer-µs clock.

    Pending events wait on a heap or in the constant-delay lane. One Engine
    per simulation instance; instances (one per repetition) share nothing.
    """

    def __init__(self, seed: int = 0):
        self.now: int = 0
        self._seed = seed & 0xFFFFFFFF
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._lane: deque[tuple[int, int, Callable[[], None]]] = deque()
        self._lane_delay: Optional[int] = None  # set by the first Link without jitter
        self._order = 0
        self._streams: dict[str, random.Random] = {}

    def stream(self, tag: str) -> random.Random:
        """Per-entity RNG stream, created lazily and cached."""
        rng = self._streams.get(tag)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, tag))
            self._streams[tag] = rng
        return rng

    def schedule(self, fn: Callable[[], None], at: int) -> int:
        """Queue ``fn`` to run at simulated time ``at``; returns an event id.

        Equal-time events run in insertion order.
        """
        if at < self.now:
            raise SchedulingInPast(f"schedule at {at} < now {self.now}")
        self._order = order = self._order + 1
        if at - self.now == self._lane_delay:
            self._lane.append((at, order, fn))
        else:
            heappush(self._queue, (at, order, fn))
        return order

    def schedule_in(self, fn: Callable[[], None], delay: int) -> int:
        return self.schedule(fn, self.now + delay)

    def run_until(self, t_end: int) -> int:
        """Dispatch every event with time <= t_end; returns the count.

        The clock only advances to dispatched event times (never jumps to
        ``t_end`` when the queue drains early).
        """
        queue = self._queue
        lane = self._lane
        dispatched = 0
        while True:
            if lane and (not queue or lane[0] < queue[0]):
                if lane[0][0] > t_end:
                    break
                t, _, fn = lane.popleft()
            elif queue and queue[0][0] <= t_end:
                t, _, fn = heappop(queue)
            else:
                break
            self.now = t
            fn()
            dispatched += 1
        return dispatched

    def clear(self) -> None:
        """Drop every pending event, from the heap and the lane alike."""
        self._queue.clear()
        self._lane.clear()


class Link:
    """Unidirectional delay line delivering packets to a fixed target.

    Without jitter every delivery takes exactly ``base_delay_us``, so the
    link is FIFO: equal-time events run in insertion order, and the first
    such link sets the delay of the engine's lane. With jitter each send
    draws its own delay from the link's stream ``link:<name>``, and packets
    on the link may reorder.
    """

    __slots__ = ("_engine", "_base", "_a", "_b", "_draw", "_deliver", "_delay", "name")

    def __init__(self, engine: Engine, name: str, model: LinkModel,
                 deliver: Callable[[object], None]):
        self._engine = engine
        # copied into slots: a jittered send reads them, not the model
        self._base, self._a, self._b = model.base_delay_us, model.jitter_a, model.jitter_b
        self._deliver = deliver
        # None when every delivery takes the base delay; a link without
        # jitter makes no draws, so it needs no stream
        self._delay: Optional[int] = None
        if model.jitter_kind == "none":
            self._delay = model.base_delay_us
            if engine._lane_delay is None:
                engine._lane_delay = model.base_delay_us
        else:
            rng = engine.stream(f"link:{name}")
            self._draw = {"uniform": rng.uniform, "normal": rng.normalvariate}[model.jitter_kind]
        self.name = name

    def send(self, pkt) -> None:
        engine = self._engine
        delay = self._delay
        if delay is None:
            delay = max(0, self._base + round(self._draw(self._a, self._b)))
        engine.schedule(_Delivery(self._deliver, pkt), engine.now + delay)


class _Delivery(functools.partial):
    """One link delivery as an engine event: calling it with no arguments
    runs ``deliver(pkt)``. A ``partial`` subclass, so building and calling
    one runs no Python frame."""

    __slots__ = ()
