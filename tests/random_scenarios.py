"""The randomized stealth corpus: a deterministic generator of small
scenarios, shared by the acceptance sweep and the harness tests."""

import random

from honeysplice.harness import Scenario
from honeysplice.simnet import derive_seed


def random_scenario(index: int, master_seed: int = 0xC0FFEE) -> Scenario:
    """Deterministic random scenario #index for the stealth sweep: random
    ISS, random trigger in 1..total, random payload sizes <= 64 B, sessions
    of at most 50 segments, both honey address deployments."""
    rng = random.Random(derive_seed(master_seed, f"rand:{index}"))
    total = rng.randint(1, 50)
    trigger = rng.randint(1, total)
    restore_at = None
    if trigger < total and rng.random() < 0.5:
        restore_at = rng.randint(trigger + 1, total)
    return Scenario(
        name=f"rand-{index}",
        total_packets=total,
        trigger_n=trigger,
        request_size=64,
        request_size_random=True,
        restore_at=restore_at,
        honey_addr_mode=rng.choice(["same", "distinct"]),
        seed=rng.randrange(2**32),
    )
