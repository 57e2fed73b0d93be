"""honeysplice: a deterministic discrete-event network simulator for
stealthy mid-connection TCP redirection to on-demand honey servers.

The data plane is a software switch with a programmable flow table; a
detection engine watches mirrored traffic and alerts a controller, which
silently tears down the victim side of a suspicious connection, clones
the victim into a honey server, and splices the attacker's live TCP
session onto the clone with sequence-offset rewriting -- invisibly to the
attacker. Experiments measure exactly that invisibility.
"""

from .netcore import HostAddr, TcpFlags, TcpSegment, seg_span, seq_add, seq_lt
from .simnet import Engine, LinkModel
from .endpoint import ConnState, ServerApp, TcpEndpoint
from .vswitch import Switch
from .ids import Ids, IdsRule, parse_rule
from .clonemgr import CloneManager
from .controller import Controller, MigrationRecord
from .harness import (
    Scenario,
    load_scenario,
    run_experiment,
    run_single,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "HostAddr", "TcpFlags", "TcpSegment", "seg_span", "seq_add", "seq_lt",
    "Engine", "LinkModel",
    "ConnState", "ServerApp", "TcpEndpoint",
    "Switch",
    "Ids", "IdsRule", "parse_rule",
    "CloneManager",
    "Controller", "MigrationRecord",
    "Scenario", "load_scenario", "run_experiment", "run_single", "summarize",
    "__version__",
]
