"""Clone strategy latencies and instantiation."""

import pytest

from honeysplice.clonemgr import (
    CLONE_LATENCY_US,
    CloneFailed,
    CloneManager,
)
from honeysplice.endpoint import ServerApp, fixed_iss
from honeysplice.hosts import ServerHost
from honeysplice.netcore import HostAddr
from honeysplice.simnet import Engine

VIC = HostAddr("10.0.0.2", "02:00:00:00:00:02")
VICTIM = ServerHost(Engine(0), "victim", VIC, 9000, ServerApp("svc"), fixed_iss(1))


def test_default_table_latency_ordering():
    lat = CLONE_LATENCY_US
    assert lat.keys() == {"INFO_CONFIG", "VICTIM_IMAGE", "SUSPENDED", "DISK_COPY"}
    assert lat["SUSPENDED"] < lat["VICTIM_IMAGE"] < lat["INFO_CONFIG"] < lat["DISK_COPY"]


# -- instantiation ------------------------------------------------------------------------


def make_manager(latency_us=30_000, failure_p=0.0, pre=None):
    engine = Engine(7)
    made = []

    def make_host(victim):
        made.append(victim)
        return f"honey-{len(made)}"

    mgr = CloneManager(engine, latency_us, make_host, failure_p=failure_p,
                       pre_instantiated=pre)
    return engine, mgr, made


def test_clone_ready_after_exact_latency():
    engine, mgr, made = make_manager(latency_us=30_000)
    ready, returned = [], []
    engine.schedule(lambda: returned.append(mgr.request_clone(
        VICTIM, lambda host, lat: ready.append((engine.now, host, lat)))), 1000)
    engine.run_until(100_000)
    assert returned == [None]  # an on-demand clone comes only through on_ready
    assert ready == [(31_000, "honey-1", 30_000)]
    assert made == [VICTIM]  # make_host is handed the victim host itself


def test_zero_latency_clone_same_tick():
    engine, mgr, _ = make_manager(latency_us=0)
    ready = []
    engine.schedule(lambda: mgr.request_clone(
        VICTIM, lambda host, lat: ready.append(engine.now)), 500)
    engine.run_until(1_000)
    assert ready == [500]


def test_pre_instantiated_is_synchronous():
    engine, mgr, made = make_manager(pre="prebuilt")
    ready = []
    # the pre-built server is the call's result; on_ready never fires
    assert mgr.request_clone(VICTIM, lambda host, lat: ready.append((host, lat))) \
        == "prebuilt"
    engine.run_until(1_000_000)
    assert ready == []
    assert made == []  # factory never invoked


def test_failure_probability_one():
    engine, mgr, _ = make_manager(failure_p=1.0)
    with pytest.raises(CloneFailed):
        mgr.request_clone(VICTIM, lambda host, lat: None)
