"""On-demand honey-server creation: strategies, their cost/latency models,
and strategy selection.

Four cloning mechanisms are modeled, each scored on two axes: how long a
clone takes to become operational, and what it costs while idle.

  INFO_CONFIG   build a fresh machine from continuously scanned service /
                version info; slow to instantiate, pays a steady scanning
                cost, and clones services but not data (high staleness).
  VICTIM_IMAGE  boot from a maintained image of the protected machine;
                low latency, nothing running while idle.
  SUSPENDED     keep a suspended copy warm; fastest wake-up but burns
                resources the whole time it sits idle.
  DISK_COPY     snapshot the live disk on demand; slowest, idle-free.

The numeric table shipped in ``scenarios/default_costs.json`` is
configuration, not measurement: only the qualitative ordering above is
contractual, and deployments are expected to substitute their own numbers
via a cost-table file.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .netcore import HostAddr
from .simnet import Distribution, Engine


class CloneFailed(Exception):
    """Clone instantiation failed (injected via failure_p, default off)."""


class StrategyKind(enum.Enum):
    INFO_CONFIG = "INFO_CONFIG"
    VICTIM_IMAGE = "VICTIM_IMAGE"
    SUSPENDED = "SUSPENDED"
    DISK_COPY = "DISK_COPY"


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy's knobs: instantiation latency distribution, idle cost
    rate (units/second), per-clone cost, and a staleness tag."""

    kind: StrategyKind
    latency: Distribution
    steady_cost: float
    per_clone_cost: float
    staleness_risk: str

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.SUSPENDED and self.steady_cost <= 0:
            raise ValueError("SUSPENDED must have nonzero idle cost")
        if self.kind is StrategyKind.INFO_CONFIG and self.steady_cost <= 0:
            raise ValueError("INFO_CONFIG must pay for periodic scanning")
        if self.kind in (StrategyKind.VICTIM_IMAGE, StrategyKind.DISK_COPY) \
                and self.steady_cost != 0:
            raise ValueError(f"{self.kind.value} must be idle-free")


def default_cost_table() -> dict[StrategyKind, StrategyProfile]:
    """The shipped table, ``scenarios/default_costs.json``, as a fresh dict.

    The file is read once per process.
    """
    return dict(_shipped_table())


def load_cost_table(path) -> dict[StrategyKind, StrategyProfile]:
    """Cost table file: {"strategies": [{kind, latency:{kind,a,b}, ...}]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    table = {}
    for entry in doc["strategies"]:
        kind = StrategyKind(entry["kind"])
        lat = entry["latency"]
        table[kind] = StrategyProfile(
            kind=kind,
            latency=Distribution(lat["kind"], lat.get("a", 0.0), lat.get("b", 0.0)),
            steady_cost=float(entry["steady_cost"]),
            per_clone_cost=float(entry.get("per_clone_cost", 0.0)),
            staleness_risk=entry.get("staleness_risk", "unknown"),
        )
    return table


@functools.cache
def _shipped_table() -> dict[StrategyKind, StrategyProfile]:
    return load_cost_table(Path(__file__).parent / "scenarios" / "default_costs.json")


def strategy_cost(profile: StrategyProfile, horizon_s: float, clones: int = 0) -> float:
    """Resource units over a horizon: idle rate x time + per-clone costs."""
    if horizon_s < 0:
        raise ValueError("horizon must be >= 0")
    return profile.steady_cost * horizon_s + profile.per_clone_cost * clones


def _score(profile: StrategyProfile, w_latency: float, w_cost: float) -> float:
    # latency enters in seconds so the two axes are commensurable
    return w_latency * (profile.latency.mean() / 1e6) + w_cost * profile.steady_cost


def select_strategy(weights: tuple[float, float],
                    table: Optional[dict[StrategyKind, StrategyProfile]] = None
                    ) -> StrategyKind:
    """argmin of w_latency * E[latency_s] + w_cost * idle_rate.

    Ties break in StrategyKind declaration order.
    """
    w_latency, w_cost = weights
    if w_latency < 0 or w_cost < 0 or (w_latency == 0 and w_cost == 0):
        raise ValueError("weights must be >= 0 and not both zero")
    # scoring weights scaled to a maximum of 1 cannot underflow into a false tie
    top = max(weights)
    w_latency, w_cost = w_latency / top, w_cost / top
    if table is None:
        table = default_cost_table()
    if not table:
        raise ValueError("empty strategy table")
    best_kind, best_score = None, None
    for kind in StrategyKind:  # enum order is the tie-break
        profile = table.get(kind)
        if profile is None:
            continue
        score = _score(profile, w_latency, w_cost)
        if best_score is None or score < best_score:
            best_kind, best_score = kind, score
    return best_kind


@dataclass(frozen=True)
class VictimSpec:
    """What a clone must replicate: presented identity, app, open ports."""

    addr: HostAddr
    app_id: str
    open_ports: tuple[int, ...]


class CloneManager:
    """Instantiates honey servers on demand (or hands out a pre-built one).

    ``make_host`` is supplied by the topology layer and must attach the
    new honey host to the switch. At most one clone is in flight per
    connection; the controller's phase machine enforces that.
    """

    def __init__(self, engine: Engine, profile: StrategyProfile,
                 make_host: Callable[[VictimSpec], object],
                 failure_p: float = 0.0,
                 pre_instantiated: Optional[object] = None):
        self._engine = engine
        self.profile = profile
        self._make_host = make_host
        self._failure_p = failure_p
        self._pre = pre_instantiated
        self._rng = engine.stream("clonemgr")
        self.clones_created = 0

    def request_clone(self, spec: VictimSpec,
                      on_ready: Callable[[object, int], None]) -> int:
        """Start instantiation; ``on_ready(host, latency_us)`` fires when the
        clone is operational. Returns the sampled latency in µs.

        A pre-instantiated honey server is handed over synchronously with
        zero latency (the redirection-only deployments).
        """
        if self._failure_p > 0 and self._rng.random() < self._failure_p:
            raise CloneFailed(f"instantiation failed for {spec.app_id}")
        if self._pre is not None:
            host = self._pre
            on_ready(host, 0)
            return 0
        latency = self.profile.latency.sample(self._rng)
        self.clones_created += 1

        def ready() -> None:
            host = self._make_host(spec)
            on_ready(host, latency)

        self._engine.schedule_in(ready, latency)
        return latency
