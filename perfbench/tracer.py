"""Outside-in span tracing of the honeysplice layers.

The tracer wraps public functions of each layer's module on their class
or module attributes, so nothing under ``src/`` changes. Wrappers must be
installed before any ``Simulation`` is built: mirror taps, link targets
and packet-in handlers are bound methods captured at construction.

Every span records its name, start, end, parent span and rep serial.
Spans are kept in compact arrays and written once, when the benchmark
ends. A span's self time is its duration minus the time its child spans
cover (``self_times``).

Attribution rules:

* a callable handed to ``Engine.schedule`` is wrapped in an event span
  billed to the layer whose module defined it (the controller's queued
  packet-in handling, the attacker and echo timers, hold expiry); link
  deliveries are billed to ``simnet``;
* the ``on_ready`` callback passed to ``CloneManager.request_clone`` is a
  ``controller`` span: with a pre-instantiated clone the whole splice runs
  synchronously inside that call and would otherwise be billed to
  ``clonemgr``;
* ``TcpSegment`` and ``EchoPacket`` constructions (``dataclasses.replace``
  copies included) are counted per rep, without a span.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("simnet", "vswitch", "ids", "controller", "endpoint", "hosts",
          "clonemgr", "harness")
# The spans a timed rep is made of. Time in them but in no span below
# them is time the tracer did not attribute to a layer function.
ENTRY_SPANS = ("harness:run_single", "harness:trace")


class Tracer:
    """In-memory span store. One per traced pass; not thread-safe (the
    simulator is single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        # rep serial -> (pass label, rep id); serial 0 is "outside any rep"
        self.rep_info: list[tuple[str, int]] = [("", 0)]
        self.objs = array("q", [0])   # packet constructions per rep serial
        self.pass_label = ""

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_rep(self, rep: int) -> None:
        self.rep_info.append((self.pass_label, rep))
        self.objs.append(0)

    def serials(self, pass_label: str) -> list[int]:
        return [s for s, (label, _) in enumerate(self.rep_info) if label == pass_label]

    def traced(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self.name_id(name)
        names, parents, reps = self.name, self.parent, self.rep
        starts, ends, stack, rep_info = self.start, self.end, self.stack, self.rep_info
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reps.append(len(rep_info) - 1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def write(self, out_dir) -> None:
        """Write every span: ``spans.bin`` holds the five arrays back to back
        (name, parent, rep as int32; start, end as int64 ns, native byte
        order); ``spans.json`` holds the layout, span names and rep table."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "spans.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.rep, self.start, self.end):
                arr.tofile(fh)
        layout = {"count": len(self.start),
                  "arrays": ["name:i32", "parent:i32", "rep:i32",
                             "start_ns:i64", "end_ns:i64"],
                  "names": self.names,
                  "reps": self.rep_info}
        (out / "spans.json").write_text(json.dumps(layout) + "\n", encoding="utf-8")


def self_times(parent, start, end) -> list[int]:
    """Self time of each span: its duration minus its children's durations.

    Spans nest strictly (one thread), so children of one parent never
    overlap and their summed durations are exactly the time they cover.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def aggregate(tracer: Tracer, serials) -> dict[str, tuple[int, int, int]]:
    """Per span name over the given rep serials: (count, self ns, total ns)."""
    keep = set(serials)
    own = self_times(tracer.parent, tracer.start, tracer.end)
    count = [0] * len(tracer.names)
    self_ns = [0] * len(tracer.names)
    total_ns = [0] * len(tracer.names)
    for i, (nid, rep) in enumerate(zip(tracer.name, tracer.rep)):
        if rep in keep:
            count[nid] += 1
            self_ns[nid] += own[i]
            total_ns[nid] += tracer.end[i] - tracer.start[i]
    return {name: (count[n], self_ns[n], total_ns[n])
            for n, name in enumerate(tracer.names)}


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def is_event(span_name: str) -> bool:
    """True for spans of dispatched engine events."""
    return span_name == "simnet:delivery" or span_name.split(":", 1)[1].startswith("event ")


# -- installation ---------------------------------------------------------------


def _module_layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions for the duration of the block.

    Originals are restored on exit, so objects built afterwards are
    untraced again.
    """
    from honeysplice import (clonemgr, controller, endpoint, harness, hosts,
                             ids, netcore, simnet, vswitch)

    spans = [
        (simnet.Engine, "run_until", "simnet:dispatch"),
        (simnet.Link, "send", "simnet:link"),
        (vswitch.Switch, "process", "vswitch:process"),
        (vswitch.Switch, "install_rule", "vswitch:install_rule"),
        (vswitch.Switch, "remove_rule", "vswitch:remove_rule"),
        (vswitch.Switch, "release_buffer", "vswitch:release_buffer"),
        (vswitch.Switch, "release_held", "vswitch:release_held"),
        (vswitch.Switch, "drop_held", "vswitch:drop_held"),
        (vswitch.Switch, "create_queue", "vswitch:create_queue"),
        (vswitch.Switch, "send_out", "vswitch:send_out"),
        (controller.Controller, "ledger_tap", "controller:ledger"),
        (controller.Controller, "on_packet_in", "controller:packet_in"),
        (controller.Controller, "on_alert", "controller:splice"),
        (controller.Controller, "restore_original", "controller:splice"),
        (ids.Ids, "tap", "ids:tap"),
        (ids.Ids, "observe", "ids:observe"),
        (endpoint.TcpEndpoint, "on_segment", "endpoint:on_segment"),
        (endpoint.TcpEndpoint, "open", "endpoint:open"),
        (endpoint.TcpEndpoint, "app_send", "endpoint:app_send"),
        (endpoint.TcpEndpoint, "close", "endpoint:close"),
        (endpoint.TcpEndpoint, "abort", "endpoint:abort"),
        (endpoint.ServerApp, "respond", "endpoint:respond"),
        (hosts.Host, "transmit", "hosts:transmit"),
        (hosts.Host, "attach", "hosts:attach"),
        (hosts.ServerHost, "deliver", "hosts:deliver"),
        (hosts.ServerHost, "deliver_oob", "hosts:deliver_oob"),
        (hosts.AttackerHost, "deliver", "hosts:deliver"),
        (hosts.EchoHost, "deliver", "hosts:deliver"),
        (harness.Simulation, "__init__", "harness:build"),
        (harness.Simulation, "run", "harness:run"),
        (harness.Simulation, "trace", "harness:trace"),
        # module-level functions, looked up by name at call time
        (harness, "spawn_background_load", "hosts:bg_spawn"),
        (harness, "run_experiment", "harness:run_experiment"),
        (harness, "summarize", "harness:summarize"),
        (harness, "export_run", "harness:export"),
    ]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner, attr, name in spans:
        patch(owner, attr, tracer.traced(name, owner.__dict__[attr]))

    # scheduled callables: an event span billed to the defining layer
    event_names: dict[object, int] = {}
    delivery = simnet._Delivery
    orig_schedule = simnet.Engine.schedule

    def event_name(fn) -> str:
        if isinstance(fn, delivery):
            return "simnet:delivery"
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        module = getattr(fn, "__module__", None) or type(fn).__module__
        label = code.co_qualname if code is not None else type(fn).__qualname__
        return f"{_module_layer(module)}:event {label}"

    def schedule(engine, fn, at):
        key = type(fn) if isinstance(fn, delivery) else \
            getattr(getattr(fn, "__func__", fn), "__code__", type(fn))
        name = event_names.get(key)
        if name is None:
            name = event_names[key] = event_name(fn)
        return orig_schedule(engine, tracer.traced(name, fn), at)

    patch(simnet.Engine, "schedule", tracer.traced("simnet:schedule", schedule))

    orig_request = clonemgr.CloneManager.request_clone

    def request_clone(mgr, spec, on_ready):
        return orig_request(mgr, spec, tracer.traced("controller:splice", on_ready))

    patch(clonemgr.CloneManager, "request_clone",
          tracer.traced("clonemgr:request_clone", request_clone))

    orig_run_single = harness.run_single
    traced_run_single = tracer.traced("harness:run_single", orig_run_single)

    def run_single(scenario, rep=1, migration=True):
        tracer.begin_rep(rep)
        return traced_run_single(scenario, rep, migration=migration)

    patch(harness, "run_single", run_single)

    objs = tracer.objs
    for cls in (netcore.TcpSegment, simnet.EchoPacket):
        def counted(*args, _init=cls.__dict__["__init__"], **kwargs):
            objs[-1] += 1
            _init(*args, **kwargs)
        patch(cls, "__init__", counted)

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
