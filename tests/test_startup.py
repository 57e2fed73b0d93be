"""What importing the package costs: the modules it loads and the types
it builds. Each check runs in a fresh interpreter, since this test
session has long since loaded everything."""

import dataclasses
import enum
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import honeysplice
from honeysplice.endpoint import ConnState
from honeysplice.netcore import TcpFlags

SRC = Path(honeysplice.__file__).resolve().parent.parent

# The dataclasses that stay: Scenario's fields are the scenario schema and
# callers replace() it; the per-packet types are read slot by slot on every
# packet; IdsRule is read on every mirrored segment; PacketRecord is built
# 120 times a rep.
KEPT_DATACLASSES = {
    "harness.Scenario", "harness.PacketRecord", "ids.IdsRule",
    "netcore.HostAddr", "netcore.TcpSegment", "simnet.EchoPacket",
    "vswitch.Output", "vswitch.Rewrite",
}


def fresh(code: str) -> list:
    """Run ``code`` in a new interpreter importing from this ``src/``; each
    line it prints is read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_import_loads_no_csv_or_statistics_and_compiles_no_rule_grammar():
    loaded, before, after_load, after_parse = fresh(
        "import json, sys\n"
        "import honeysplice\n"
        "from honeysplice import harness, ids\n"
        "size = lambda: ids._grammar.cache_info().currsize\n"
        "print(json.dumps(sorted({'csv', 'statistics'} & set(sys.modules))))\n"
        "print(size())\n"
        "path = harness.builtin_scenario_path('e1_redirect')\n"
        "harness.load_scenario(path)\n"
        "print(size())\n"
        "lines = (path.parent / 'migrate.rules').read_text('utf-8').splitlines()\n"
        "ids.parse_rule(next(x for x in lines if x and not x.startswith('#')))\n"
        "print(size())\n")
    assert loaded == [] and before == 0
    assert after_load == 0  # a scenario without rules never compiles the grammar
    assert after_parse == 1


def test_a_shipped_run_and_its_export_load_no_csv_or_statistics(tmp_path):
    # e1's RTTs have no spread across repetitions, so pstdev is never needed
    [loaded] = fresh(
        "import json, sys\n"
        "from dataclasses import replace\n"
        "from honeysplice import harness\n"
        "s = harness.load_scenario(harness.builtin_scenario_path('e1_redirect'))\n"
        "s = replace(s, repetitions=2)\n"
        f"harness.export_run(s, harness.run_experiment(s), {str(tmp_path)!r})\n"
        "print(json.dumps(sorted({'csv', 'statistics'} & set(sys.modules))))\n")
    assert loaded == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "attacker_trace.csv", "controller_events.csv", "meta.json", "summary.csv"]


def test_the_dataclasses_are_exactly_the_kept_ones():
    found = set()
    for info in pkgutil.iter_modules(honeysplice.__path__):
        module = importlib.import_module(f"honeysplice.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == KEPT_DATACLASSES


def test_per_packet_constants_are_not_enum_members():
    # states and flags are read several times per segment, and an Enum
    # member read costs about five plain class attribute reads
    for cls in (ConnState, TcpFlags):
        assert not issubclass(cls, enum.Enum)
