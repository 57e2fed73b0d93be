"""Host-speed calibration.

Shared hosts switch speed by half or more within a second, with other
load on the machine. Times taken right next to a fixed calibration loop
and divided by its slowness lose most of that noise. Interpreter-bound,
copy-bound and allocation-bound code slow by different factors, so the
loop does all three in about equal parts. Over six processes per
workload, an interpreter-only loop left `bulk` (large payload copies)
spreading up to 19-23% between processes, and a copy-only loop left
`session` (mostly interpreter) up to 18%. Interpreter and copy work alone
still left `session` and `saturated` reading about 15% slower in the
host's slow phases than in its fast ones, so their medians flipped with
the mix of phases a run met. Adding the building and freeing of small
objects took the quartile spread of ten seeds' `rep_ms_p50` from 10.4% to
4.3% on `session` and from 8.3% to 4.4% on `saturated`; `bulk` went from
4.2% to 5.7%.

Reported times are scaled to a host on which one calibration loop takes
``CAL_REF_NS``: its fast-phase time on the 2-core x86-64 VM the benchmark
was defined on.
"""

import gc
import time

CAL_REF_NS = 2_590_000

_CAL_KEYS = tuple((k, "k") for k in range(16))
_CAL_BLOCK = bytes(range(256)) * 256   # 64 KiB


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibration_ns() -> int:
    """Wall time of one fixed loop: dict, tuple-key, int and str work, then
    64 KiB byte-string slicing and concatenation, then building and freeing
    2,000 small objects holding a dict and another object each. The
    collector is off while they live and they are freed before it returns,
    so the loop runs no collection of its own, and it leaves the
    collector's allocation count about 80 objects (the dict free list)
    above where it was."""
    t0 = time.perf_counter_ns()
    table, total = {}, 0
    for i in range(3000):
        key = _CAL_KEYS[i & 15]
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    for i in range(100):
        total += len((_CAL_BLOCK[i:] + _CAL_BLOCK[:i])[1000:])
    enabled = gc.isenabled()
    gc.disable()
    try:
        keep = [_Obj(i, {"k": i}, _Obj(i, i, None)) for i in range(2000)]
        del keep
    finally:
        if enabled:
            gc.enable()
    return time.perf_counter_ns() - t0


def scale(raw_ns, cal_before_ns: int, cal_after_ns: int) -> float:
    """``raw_ns`` at reference speed, given the calibrations on either side.

    Divides by their mean. Over six processes per workload, that and the
    equal interpreter/copy mix gave the steadiest medians and 90th
    percentiles of the variants tried: the slower or the faster of the two
    calibrations, interpreter shares from 0 to 1, and keeping only laps in
    the host's fastest phases.
    """
    return raw_ns * 2 * CAL_REF_NS / (cal_before_ns + cal_after_ns)


class LapTimer:
    """Wall time cut into laps, each scaled by the calibrations at its two
    ends (``scale``); the calibrations themselves are not counted."""

    def __init__(self):
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self._cal = calibration_ns()
        self._t = time.perf_counter_ns()

    def lap(self, end_ns=None) -> tuple[int, float]:
        """Close the lap at ``end_ns`` (default now); return (raw, scaled) ns."""
        raw = (end_ns or time.perf_counter_ns()) - self._t
        cal = calibration_ns()
        scaled = scale(raw, self._cal, cal)
        self.raw_ns += raw
        self.scaled_ns += scaled
        self._cal = cal
        self._t = time.perf_counter_ns()
        return raw, scaled

    def restart(self) -> None:
        """Start the next lap now, dropping the time since the last one."""
        self._t = time.perf_counter_ns()
