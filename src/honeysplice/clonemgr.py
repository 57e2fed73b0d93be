"""On-demand honey-server creation: the clone strategies and how long each
takes to bring a clone up.

  INFO_CONFIG   build a fresh machine from continuously scanned service /
                version info: slow to instantiate.
  VICTIM_IMAGE  boot from a maintained image of the protected machine.
  SUSPENDED     wake a suspended copy kept warm: the fastest.
  DISK_COPY     snapshot the live disk on demand: the slowest.

The latencies in ``CLONE_LATENCY_US`` are configuration, not measurement:
only their ordering is contractual. Its keys are the values the scenario
key ``clone.strategy`` accepts.
"""

from __future__ import annotations

from typing import Callable, Optional

from .hosts import ServerHost
from .simnet import Engine


class CloneFailed(Exception):
    """Clone instantiation failed (injected via failure_p, default off)."""


CLONE_LATENCY_US: dict[str, int] = {
    "INFO_CONFIG": 120_000,
    "VICTIM_IMAGE": 30_000,
    "SUSPENDED": 5_000,
    "DISK_COPY": 300_000,
}


class CloneManager:
    """Instantiates honey servers on demand (or hands out a pre-built one).

    ``make_host`` is supplied by the topology layer: it builds a copy of
    the victim host it is handed and attaches it to the switch. Each
    request (each migration, re-migrations too) builds a fresh clone; a
    pre-built honey server is handed out again every time.
    """

    def __init__(self, engine: Engine, latency_us: int,
                 make_host: Callable[[ServerHost], ServerHost],
                 failure_p: float = 0.0,
                 pre_instantiated: Optional[ServerHost] = None):
        self._engine = engine
        self.latency_us = latency_us
        self._make_host = make_host
        self._failure_p = failure_p
        self._pre = pre_instantiated
        # only a manager that can fail draws, so only it needs a stream
        self._rng = engine.stream("clonemgr") if failure_p > 0 else None

    def request_clone(self, victim: ServerHost,
                      on_ready: Callable[[ServerHost, int], None]) -> Optional[ServerHost]:
        """Start cloning ``victim``; ``on_ready(host, latency_us)`` fires when
        the clone is operational.

        A pre-instantiated honey server is returned instead, ready at once
        (the redirection-only deployments), and ``on_ready`` never fires.
        """
        if self._failure_p > 0 and self._rng.random() < self._failure_p:
            raise CloneFailed(f"instantiation failed for {victim.app.app_id}")
        if self._pre is None:
            self._engine.schedule_in(
                lambda: on_ready(self._make_host(victim), self.latency_us), self.latency_us)
        return self._pre
