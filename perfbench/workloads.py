"""Workload definitions and program loading, shared by the benchmark and
its set-up probe.

The program is always imported from ``src/`` of the checkout the
benchmark lives in; an installed copy elsewhere would measure other code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    """The checkout holds no importable honeysplice source tree."""


@dataclass(frozen=True)
class Workload:
    scenario: str           # shipped scenario the workload starts from
    reps_per_pass: int      # repetitions of one `honeysplice run` pass
    overrides: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Reps per pass keep one `run` pass near a second on a 2-core host, so a
# run holds several passes; they also fix the rep set behind the digests.
WORKLOADS = {
    "session": Workload("e1_redirect", 30),
    "saturated": Workload("e2_saturated", 5),
    "bulk": Workload("e1_redirect", 12, {"request_size": 65_536}),
}


def load_program():
    """Import honeysplice from this checkout's ``src/``."""
    if not (SRC / "honeysplice" / "__init__.py").is_file():
        raise ProgramMissing(f"no honeysplice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import honeysplice
    if Path(honeysplice.__file__).resolve().parent != SRC / "honeysplice":
        raise ProgramMissing(f"honeysplice imported from {honeysplice.__file__}")
    return honeysplice


def build_scenario(name: str, seed: int):
    """The workload's validated Scenario with ``seed`` substituted."""
    from honeysplice import harness
    workload = WORKLOADS[name]
    scenario = harness.load_scenario(harness.builtin_scenario_path(workload.scenario))
    scenario = replace(scenario, seed=seed, repetitions=workload.reps_per_pass,
                       **workload.overrides)
    scenario.validate()
    return scenario
