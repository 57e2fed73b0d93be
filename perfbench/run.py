"""honeysplice benchmark.

    python3 perfbench/run.py --workload session --seed 7 --seconds 30 --trace 0

Load model: batch simulator in a closed loop. One client in one process,
with no threads, runs repetitions ("reps") back to back; every workload
gets its own process. The workload seed replaces the scenario's seed and
the program receives only the resulting ``Scenario``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median, over several probe processes, of spawn until the
  scenario is loaded and validated (the first rep could begin);
* ``run_s``: median wall time of the ``honeysplice run`` path, i.e.
  ``run_experiment`` plus ``export_run`` over the workload's reps per pass,
  over the passes that fit in 35% of ``--seconds`` (at least 5);
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the run passes; each
  pass starts from a collected heap, so their number does not move it;
* ``rep_ms_p50`` / ``rep_ms_p90``: one rep of the ``honeysplice check``
  path (``run_single`` plus ``.trace``), repeated until ``--seconds`` is
  used up and at least 100 reps have passed, so 10 lie beyond the p90;
* ``ok_rep_ratio``: reps that passed the correctness gate / reps attempted
  (``failed_rep_ratio`` is printed as well).

Times are host wall times scaled to a reference host speed: the host's
slowness is measured with a fixed calibration loop next to every rep (see
``hostspeed.py``), because shared hosts change speed by half within a
second. Unscaled medians are printed too.

``--trace 1`` wraps the layers' public functions (see ``tracer.py``) and
reports per-layer counts and self times per rep, the tracing overhead and
span coverage, and a cProfile cross-check.

Every rep passes a correctness gate: it must not raise, must report no
stealth or completeness violation, and the attacker's received stream
must equal a fresh ``ServerApp`` fed the attacker's requests. Exported
attacker and controller CSVs are hashed; the digest must agree between
passes, between traced and untraced runs, and with earlier runs of the
same workload and seed on the same sources (program and benchmark) in
this checkout.

The last line of stdout is the JSON result; outputs go to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import cProfile
import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import tracer as tr
from hostspeed import LapTimer, scale
from workloads import ROOT, SRC, WORKLOADS, ProgramMissing, build_scenario, load_program

OUT = ROOT / ".bench_build" / "perfbench"
HIGH_PCT = 90
MIN_BEYOND = 10        # samples that must lie beyond a reported percentile
MIN_RUN_PASSES = 5     # `honeysplice run` passes, at least, per run
RUN_SHARE = 0.35       # share of --seconds spent on `run` passes
SETUP_PROBES = 15
WARMUP_REPS = 2
TRACED_MIN_REPS = 10
HARD_LIMIT_S = 150     # stop timed loops this long after start, whatever --seconds asks
M_TRIM_THRESHOLD = -1  # glibc mallopt parameter


# -- statistics ------------------------------------------------------------------


def samples_beyond(n: int, pct: int) -> int:
    """Samples ranked above the nearest-rank ``pct``-th percentile of ``n``."""
    return n - (-(-n * pct // 100))


def min_samples(pct: int, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above the percentile."""
    n = beyond
    while samples_beyond(n, pct) < beyond:
        n += 1
    return n


def percentile(values, pct: int):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


# -- correctness and determinism gates --------------------------------------------


def rep_problem(hs, sim, trace):
    """Why a finished rep fails the correctness gate, or None."""
    if trace.violations:
        return "; ".join(trace.violations[:3])
    oracle = hs.ServerApp(hs.harness.APP_ID)
    expected = b"".join(oracle.respond(req) for req in sim.attacker.sent_requests)
    if bytes(sim.attacker.received_stream) != expected:
        return "attacker stream differs from the no-migration oracle"
    return None


def state_counts(sim) -> dict[str, int]:
    """Counts the program keeps itself, readable with tracing on or off."""
    stats = sim.switch.stats
    return {"vswitch.packets": stats["processed"],
            "vswitch.misses": stats["miss"],
            "vswitch.hold_expired": stats["hold_expired"],
            "vswitch.rules_at_end": len(sim.switch.rules()),
            "controller.packet_ins": sim.controller.packet_in_count,
            "controller.log_records": len(sim.controller.events),
            "ids.alerts": len(sim.ids.alerts)}


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def traces_digest(hs, traces, out_dir) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    attacker, controller = out_dir / "attacker_trace.csv", out_dir / "controller_events.csv"
    hs.harness.write_attacker_csv(traces, attacker)
    hs.harness.write_controller_csv(traces, controller)
    return file_digest(attacker, controller)


def check_record(key: str, digest, counts: dict, problems: list) -> None:
    """Compare with, then extend, what earlier runs of this checkout saw.

    ``key`` names the workload, the seed and the digests of the program's
    and the benchmark's sources, so runs of other code never compare.
    """
    path = OUT / "record.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    seen = record.setdefault(key, {"digest": None, "counts": {}})
    if digest is not None:
        if seen["digest"] not in (None, digest):
            problems.append(f"digest {digest} differs from an earlier run's {seen['digest']}")
        seen["digest"] = digest
    for name, value in counts.items():
        if seen["counts"].get(name, value) != value:
            problems.append(f"{name} = {value}, an earlier run saw {seen['counts'][name]}")
        seen["counts"][name] = value
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


# -- passes -----------------------------------------------------------------------


@contextmanager
def untimed(tracer):
    """Bill spans of untimed checks to a rep serial of their own."""
    if tracer is None:
        yield
        return
    label = tracer.pass_label
    tracer.pass_label = "untimed"
    tracer.begin_rep(0)
    try:
        yield
    finally:
        tracer.pass_label = label


def keep_heap() -> None:
    """Stop glibc from handing freed heap back to the OS, for the rest of
    the process. Called only before the check path's timed reps, after the
    `run` passes and the peak RSS reading, so those see the allocator as
    `honeysplice run` does.

    After the check path's per-rep collection frees a rep's garbage, glibc
    would trim the heap and the next rep would page it back in: about
    17,700 page faults per `bulk` rep, doubling its time with kernel work
    that varies with the host unlike the calibration loop. A process
    running reps back to back without collections keeps that memory, so
    this restores it. Elsewhere than glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, 2**30)


class CheckPass:
    """Reps of the `honeysplice check` path, timed one by one.

    The heap is collected before every rep, untimed. Otherwise a gen-2
    collection of earlier reps' cyclic garbage lands in about every other
    `saturated` rep, the samples split into two clusters a quarter apart,
    and the median flips between them. That garbage's cost stays measured
    in `run_s`, which collects only before a whole pass, and in
    `peak_rss_mb`. See ``keep_heap`` for why freed memory stays mapped.
    """

    def __init__(self):
        self.samples_ns: list[int] = []
        self.scaled: list[float] = []     # the samples scaled by LapTimer
        self.kept: list = []          # traces of reps 1..keep, for the digest
        self.counts: list[dict] = []  # state counts of reps 1..keep
        self.attempted = 0
        self.problems: list[str] = []

    def slowness(self) -> float:
        return sum(self.samples_ns) / sum(self.scaled)


def check_pass(hs, scenario, budget_s: float, need: int, keep: int, deadline: float,
               tracer=None) -> CheckPass:
    harness = hs.harness
    result = CheckPass()
    begin = time.perf_counter()
    timer = LapTimer()
    rep = 0
    while True:
        rep += 1
        sim = trace = None
        gc.collect()
        timer.restart()
        try:
            sim = harness.run_single(scenario, rep)
            trace = sim.trace(rep)
        except Exception as exc:  # a raising rep is a failed rep, not a crash
            problem = f"raised {exc!r}"
        t1 = time.perf_counter_ns()
        if trace is not None:
            with untimed(tracer):
                problem = rep_problem(hs, sim, trace)
            if rep <= keep:
                result.kept.append(trace)
                result.counts.append(state_counts(sim))
        raw, scaled = timer.lap(t1)
        if problem is None:
            result.samples_ns.append(raw)
            result.scaled.append(scaled)
        else:
            result.problems.append(f"rep {rep}: {problem}")
        del sim, trace
        elapsed = time.perf_counter() - begin
        if time.perf_counter() >= deadline or (elapsed >= budget_s and rep >= keep
                                               and len(result.samples_ns) >= need):
            break
    result.attempted = rep
    return result


def scaled_run_pass(hs, scenario, out_dir):
    """``run_pass`` timed by a LapTimer with a lap per rep; returns
    (scaled seconds, raw seconds, digest) or (None, None, error).

    The heap is collected first, untimed: `honeysplice run` starts in a
    fresh process, not amid an earlier pass's cyclic garbage.
    """
    harness = hs.harness
    original = harness.run_single
    timer = LapTimer()

    def run_single(*args, **kwargs):
        timer.lap()
        return original(*args, **kwargs)

    harness.run_single = run_single
    try:
        gc.collect()
        timer.restart()
        digest, error = run_pass(hs, scenario, out_dir)
        timer.lap()
    finally:
        harness.run_single = original
    if error is not None:
        return None, None, error
    return timer.scaled_ns / 1e9, timer.raw_ns / 1e9, digest


def run_pass(hs, scenario, out_dir):
    """One `honeysplice run` pass; returns (digest, None) or (None, error)."""
    harness = hs.harness
    try:
        traces = harness.run_experiment(scenario)
        files = harness.export_run(scenario, traces, out_dir)
    except Exception as exc:  # counted against the pass's reps
        return None, f"run pass raised {exc!r}"
    return file_digest(files["attacker"], files["controller"]), None


def setup_times(workload: str, seed: int) -> list[float]:
    """Spawn-to-ready seconds of fresh set-up probe processes.

    Each probe calibrates right after its interpreter starts and again once
    ready; the calibrations are taken out and the rest is scaled by them.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, str(probe), workload, str(seed)],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter_ns()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, *cals = line.split() or [""]
        if word != "ready" or code != 0 or len(cals) != 2:
            raise ProgramMissing(f"set-up probe exited {code} without getting ready")
        before, after = map(int, cals)
        raw = t1 - t0 - before - after
        times.append(scale(raw, before, after) / 1e9)
    return times


def warm_up(hs, scenario) -> None:
    for _ in range(WARMUP_REPS):
        hs.harness.run_single(scenario, 0).trace(0)


# -- cProfile cross-check ----------------------------------------------------------


def profile_shares(hs, scenario) -> dict[str, float]:
    """Share of one rep's profiled time per layer module.

    Time of functions outside the layer modules (builtins, the standard
    library, ``netcore`` helpers) is passed up to their callers in
    proportion to each caller's cumulative time, as the tracer bills it.
    """
    prof = cProfile.Profile()
    prof.enable()
    hs.harness.run_single(scenario, 1).trace(1)
    prof.disable()
    stats = pstats.Stats(prof).stats
    prefix = str(SRC / "honeysplice") + os.sep

    def layer(func):
        if func[0].startswith(prefix):
            name = Path(func[0]).stem
            return name if name in tr.LAYERS else None
        return None

    owned: dict[str, float] = defaultdict(float)
    pending: dict = defaultdict(float)
    total = 0.0
    for func, (_, _, tottime, _, _) in stats.items():
        total += tottime
        if layer(func):
            owned[layer(func)] += tottime
        else:
            pending[func] += tottime
    for _ in range(8):
        passed: dict = defaultdict(float)
        for func, amount in pending.items():
            callers = stats[func][4] if func in stats else {}
            weight = sum(edge[3] for edge in callers.values())
            if weight <= 0:
                continue
            for caller, edge in callers.items():
                share = amount * edge[3] / weight
                if layer(caller):
                    owned[layer(caller)] += share
                else:
                    passed[caller] += share
        pending = passed
    return {name: owned[name] / total for name in tr.LAYERS}


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(tracer, check: CheckPass, keep: int, untraced_p50_ns: float,
                  prof: dict[str, float]):
    """Per-layer metrics, per-rep counts (for the record), problems, and
    each layer's traced and profiled share of self time."""
    serials = tracer.serials("check")
    count_serials = serials[:keep]
    spans = tr.aggregate(tracer, serials)
    counted = tr.aggregate(tracer, count_serials)
    run_pass_spans = tr.aggregate(tracer, tracer.serials("run"))
    reps = len(serials)
    to_ref = 1 / check.slowness()   # host time to reference-speed time

    def per_rep_count(pred) -> float:
        return sum(c for name, (c, _, _) in counted.items() if pred(name)) / keep

    def self_ms(pred) -> float:
        return sum(s for name, (_, s, _) in spans.items() if pred(name)) / reps / 1e6 * to_ref

    def total_ms(name, pool=spans, runs=reps) -> float:
        return pool.get(name, (0, 0, 0))[2] / runs / 1e6 * to_ref

    def named(*names):
        return lambda n: n in names

    def starts(*prefixes):
        return lambda n: n.startswith(prefixes)

    def in_layer(layer):
        return lambda n: tr.layer_of(n) == layer

    state = {k: sum(c[k] for c in check.counts) / keep for k in check.counts[0]}
    counts = {
        "simnet.events": per_rep_count(tr.is_event),
        "simnet.schedules": per_rep_count(named("simnet:schedule")),
        "simnet.link_sends": per_rep_count(named("simnet:link")),
        "vswitch.packets": per_rep_count(named("vswitch:process")),
        "vswitch.misses": state["vswitch.misses"],
        "vswitch.rule_installs": per_rep_count(named("vswitch:install_rule")),
        "vswitch.rule_removes": per_rep_count(named("vswitch:remove_rule")),
        "vswitch.rules_at_end": state["vswitch.rules_at_end"],
        "vswitch.hold_expired": state["vswitch.hold_expired"],
        "controller.packet_ins": per_rep_count(named("controller:packet_in")),
        "controller.log_records": state["controller.log_records"],
        "ids.segments": per_rep_count(named("ids:observe")),
        "ids.alerts": state["ids.alerts"],
        "endpoint.segments": per_rep_count(named("endpoint:on_segment")),
        "hosts.deliveries": per_rep_count(named("hosts:deliver", "hosts:deliver_oob")),
        "clonemgr.requests": per_rep_count(named("clonemgr:request_clone")),
        "netcore.objs": sum(tracer.objs[s] for s in count_serials) / keep,
    }
    problems = [f"traced {name} = {counts[name]} but the program counted {state[name]}"
                for name in ("vswitch.packets", "controller.packet_ins")
                if counts[name] != state[name]]

    layer_self = {layer: self_ms(in_layer(layer)) for layer in tr.LAYERS}
    entry_self = self_ms(named(*tr.ENTRY_SPANS))
    wall_ms = statistics.fmean(check.samples_ns) / 1e6 * to_ref
    traced_p50 = statistics.median(check.scaled)
    total_self = sum(layer_self.values())
    trace_share = {layer: layer_self[layer] / total_self for layer in tr.LAYERS}

    metrics = {
        "simnet.events": (counts["simnet.events"], "count"),
        "simnet.schedules": (counts["simnet.schedules"], "count"),
        "simnet.link_sends": (counts["simnet.link_sends"], "count"),
        "simnet.dispatch_self_ms": (self_ms(named("simnet:dispatch", "simnet:schedule")), "ms"),
        "simnet.link_self_ms": (self_ms(named("simnet:link", "simnet:delivery")), "ms"),
        "simnet.us_per_event": (untraced_p50_ns / 1e3 / counts["simnet.events"], "us"),
        "vswitch.packets": (counts["vswitch.packets"], "count"),
        "vswitch.misses": (counts["vswitch.misses"], "count"),
        "vswitch.miss_ratio": (counts["vswitch.misses"] / counts["vswitch.packets"], "ratio"),
        "vswitch.rule_installs": (counts["vswitch.rule_installs"], "count"),
        "vswitch.rule_removes": (counts["vswitch.rule_removes"], "count"),
        "vswitch.rules_at_end": (counts["vswitch.rules_at_end"], "count"),
        "vswitch.hold_expired": (counts["vswitch.hold_expired"], "count"),
        "controller.ledger_self_ms": (self_ms(named("controller:ledger")), "ms"),
        "controller.packet_ins": (counts["controller.packet_ins"], "count"),
        "controller.packet_in_self_ms": (self_ms(starts(
            "controller:packet_in", "controller:event Controller.on_packet_in")), "ms"),
        "controller.splice_self_ms": (self_ms(starts(
            "controller:splice", "controller:event Controller.restore_original")), "ms"),
        "controller.log_records": (counts["controller.log_records"], "count"),
        "ids.segments": (counts["ids.segments"], "count"),
        "ids.alerts": (counts["ids.alerts"], "count"),
        "endpoint.segments": (counts["endpoint.segments"], "count"),
        "hosts.deliveries": (counts["hosts.deliveries"], "count"),
        "hosts.setup_ms": (total_ms("hosts:attach") + self_ms(named("hosts:bg_spawn")),
                           "ms"),
        "netcore.objs_per_packet": (counts["netcore.objs"] / counts["vswitch.packets"],
                                    "ratio"),
        "clonemgr.requests": (counts["clonemgr.requests"], "count"),
        "harness.build_ms": (total_ms("harness:build"), "ms"),
        "harness.trace_ms": (total_ms("harness:trace"), "ms"),
        "harness.export_ms": (total_ms("harness:export", run_pass_spans, 1), "ms"),
        "harness.summarize_ms": (total_ms("harness:summarize", run_pass_spans, 1), "ms"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50_ns, "ratio"),
        "trace.coverage": ((total_self - entry_self) / wall_ms, "ratio"),
        "trace.profile_gap": (max(abs(prof[layer] - trace_share[layer])
                                  for layer in tr.LAYERS), "ratio"),
    }
    for layer in tr.LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_self[layer], "ms")
    shares = {layer: (trace_share[layer], prof[layer]) for layer in tr.LAYERS}
    return metrics, counts, problems, shares


# -- modes -------------------------------------------------------------------------


def end_to_end(hs, args, scenario, workload, deadline, record_key):
    out = OUT / args.workload
    problems: list[str] = []
    probes = setup_times(args.workload, args.seed)
    warm_up(hs, scenario)
    begin = time.perf_counter()
    run_times, raw_run_times, digests, failed_passes = [], [], set(), 0
    while True:
        seconds, raw, digest = scaled_run_pass(hs, scenario, out / "run")
        if seconds is None:
            problems.append(digest)
            failed_passes += 1
        else:
            raw_run_times.append(raw)
            run_times.append(seconds)
            digests.add(digest)
        elapsed = time.perf_counter() - begin
        passes = len(run_times) + failed_passes
        if time.perf_counter() >= deadline or (passes >= MIN_RUN_PASSES
                                               and elapsed >= RUN_SHARE * args.seconds):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    keep_heap()
    need = min_samples(HIGH_PCT)
    check = check_pass(hs, scenario, args.seconds - (time.perf_counter() - begin),
                       need, workload.reps_per_pass, deadline)
    digests.add(traces_digest(hs, check.kept, out / "check"))
    attempted = check.attempted + passes * workload.reps_per_pass
    failed = len(check.problems) + failed_passes * workload.reps_per_pass
    samples = check.scaled
    metrics = {
        "rep_ms_p50": (statistics.median(samples) / 1e6, "ms"),
        "rep_ms_p90": (percentile(samples, HIGH_PCT) / 1e6, "ms"),
        "run_s": (statistics.median(run_times) if run_times else 0.0, "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_rep_ratio": (1 - failed / attempted, "ratio"),
    }
    extra = {"failed_rep_ratio": (failed / attempted, "ratio"),
             "rep_ms_p50_unscaled": (statistics.median(check.samples_ns) / 1e6, "ms"),
             "run_s_unscaled": (statistics.median(raw_run_times) if raw_run_times else 0.0,
                                "s"),
             "host_slowness": (check.slowness(), "ratio")}
    samples_meta = {"rep_ms": len(samples), "run_s": len(run_times), "setup_s": len(probes),
                    "beyond_p90": samples_beyond(len(samples), HIGH_PCT)}
    if samples_beyond(len(samples), HIGH_PCT) < MIN_BEYOND:
        problems.append(f"only {len(samples)} rep samples: p{HIGH_PCT} is unsupported")
    digest = digests.pop() if len(digests) == 1 else None
    if digest is None:
        problems.append(f"passes disagree: digests {sorted(digests)}")
    counts = {k: sum(c[k] for c in check.counts) / len(check.counts) for k in check.counts[0]}
    check_record(record_key, digest, counts, problems)
    return (metrics | extra, attempted, failed, check.problems + problems, digest,
            samples_meta)


def traced(hs, args, scenario, workload, deadline, record_key):
    out = OUT / args.workload
    keep = workload.reps_per_pass
    need = max(TRACED_MIN_REPS, keep)
    problems: list[str] = []
    warm_up(hs, scenario)
    prof = profile_shares(hs, scenario)
    tracer = tr.Tracer()
    with tr.installed(tracer):
        tracer.pass_label = "run"
        tracer.begin_rep(0)
        gc.collect()
        run_digest, run_error = run_pass(hs, scenario, out / "run")
    keep_heap()
    base = check_pass(hs, scenario, 0.3 * args.seconds, need, keep, deadline)
    base_digest = traces_digest(hs, base.kept, out / "check")
    with tr.installed(tracer):
        tracer.pass_label = "check"
        check = check_pass(hs, scenario, 0.5 * args.seconds, need, keep, deadline, tracer)
    tracer.write(out)
    if run_error is not None:
        problems.append(run_error)
    check_digest = traces_digest(hs, check.kept, out / "check")
    digests = {base_digest, check_digest, run_digest}
    if len(digests) != 1:
        problems.append(f"traced and untraced runs disagree: {sorted(digests)}")
    for before, after in zip(base.counts, check.counts):
        if before != after:
            problems.append(f"tracing changed the program's counts: {before} != {after}")
            break
    metrics, counts, layer_problems, shares = layer_metrics(
        tracer, check, keep, statistics.median(base.scaled), prof)
    problems += layer_problems
    check_record(record_key, base_digest if len(digests) == 1 else None, counts, problems)
    attempted = base.attempted + check.attempted + keep
    failed = len(base.problems) + len(check.problems) + (keep if run_error else 0)
    samples_meta = {"untraced_reps": len(base.samples_ns),
                    "traced_reps": len(check.samples_ns), "count_reps": keep}
    return (metrics, attempted, failed, base.problems + check.problems + problems,
            base_digest, samples_meta, shares)


# -- entry point ------------------------------------------------------------------


def git_head() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def tree_digest(top: Path) -> str:
    """SHA-256 over the paths and contents of the files under ``top``."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    try:
        hs = load_program()
        scenario = build_scenario(args.workload, args.seed)
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    src_sha = tree_digest(SRC / "honeysplice")
    bench_sha = tree_digest(Path(__file__).resolve().parent)
    record_key = f"{args.workload} seed={args.seed} src={src_sha} bench={bench_sha}"
    shares = None
    if args.trace:
        metrics, attempted, failed, problems, digest, samples, shares = \
            traced(hs, args, scenario, workload, deadline, record_key)
    else:
        metrics, attempted, failed, problems, digest, samples = \
            end_to_end(hs, args, scenario, workload, deadline, record_key)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "git_head": git_head(), "src_sha256": src_sha,
            "bench_sha256": bench_sha,
            "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "reps_per_pass": workload.reps_per_pass,
            "samples": samples, "digest": digest}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"digest {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6f} {unit}")
    if shares:
        print("  layer self-time share: traced vs cProfile (one untraced rep)")
        for layer, (traced_share, prof_share) in shares.items():
            print(f"    {layer:<11} traced {traced_share:7.2%}  cProfile {prof_share:7.2%}"
                  f"  gap {prof_share - traced_share:+7.2%}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")

    wanted = ("per_layer" if args.trace else "end_to_end")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[wanted]
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": metrics[m["name"]][1]} for m in spec}}
    (OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result, "problems": problems}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
