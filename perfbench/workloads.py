"""The benchmark's named workloads and the inputs each one draws from a seed.

A workload turns a seed into a fedledger ``Scenario``; the simulator
receives nothing else. One benchmark run simulates ``samples`` sub-seeds
of its seed: the first is the seed itself, so a run at a workload's
default seed reproduces the pinned event log, and the rest come from
``random.Random(seed)``. Several sub-seeds per run average over work
that depends on the seed, such as block discovery on the inter-ledger.

Every load generator is open-loop in virtual time: submissions follow a
fixed schedule whatever the ledgers do. Link delays are the scenario
defaults: uniform 10-200 ms inside a zone, lognormal (median 200 ms,
sigma 1) across zones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fedledger.scenario import (
    DomainSpec,
    InterSpec,
    ProtocolSpec,
    Scenario,
    WorkloadSpec,
    load_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# inter-throughput is cut from the scenario file's 1500 s to 150 s of
# virtual time so that one run of the benchmark stays within its time
# budget; at full length one simulation alone takes 30 s and 819 MB.
INTER_DURATION_MS = 150_000


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    samples: int  # sub-seeds simulated per run (the virtual metrics pool over these)
    ledger: str  # ledger whose throughput (and, without sessions, latency) is reported
    make: Callable[[int], Scenario]


def sub_seed(seed: int, i: int) -> int:
    """The scenario seed of sub-seed ``i`` of a run at ``seed``."""
    rng = random.Random(seed)
    for _ in range(i):
        seed = rng.randrange(1, 2**31)
    return seed


def _intra_throughput(seed: int) -> Scenario:
    scn = load_scenario(str(SCENARIOS / "intra-throughput.json"))
    scn.seed = seed
    return scn


def _inter_throughput(seed: int) -> Scenario:
    scn = load_scenario(str(SCENARIOS / "inter-throughput.json"))
    scn.seed = seed
    scn.duration_ms = INTER_DURATION_MS
    return scn


def _sessions_50(seed: int) -> Scenario:
    # Run 0 of acceptance criterion c07: seed 7100 draws its delegate
    # crashes from Random(7000); at least one delegate per zone survives.
    rnd = random.Random(seed - 100)
    faults = []
    for zone in (1, 2):
        for i in range(rnd.randint(0, 2)):
            faults.append({"at_ms": rnd.uniform(5_000, 90_000),
                           "fault": "crash", "node": f"dlg:{zone}:{i}"})
    return Scenario(
        name="sessions-50", seed=seed, duration_ms=600_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=3),
                 DomainSpec(zone_id=2, validators=4, delegates=3)],
        inter=InterSpec(miners=3, mean_block_interval_ms=2500, confirmation_depth=4,
                        contracts=110),
        workload=WorkloadSpec(sessions=50, deposit_units=10_000, payload_bytes=64,
                              session_interval_ms=300),
        protocol=ProtocolSpec(op_timeout_ms=40_000),
        faults=faults,
        log_payloads=False,
    )


def _committee_64(seed: int) -> Scenario:
    return Scenario(
        name="committee-64", seed=seed, duration_ms=30_000,
        domains=[DomainSpec(zone_id=1, validators=64, delegates=1)],
        inter=InterSpec(miners=1, contracts=1),
        workload=WorkloadSpec(intra_rate_per_s=50, intra_payload_bytes=64),
        log_payloads=False,
    )


WORKLOADS = {w.name: w for w in (
    Workload("intra-throughput", 101, 3, "zone:1", _intra_throughput),
    Workload("inter-throughput", 202, 8, "inter", _inter_throughput),
    Workload("sessions-50", 7100, 8, "inter", _sessions_50),
    Workload("committee-64", 6400, 3, "zone:1", _committee_64),
)}
