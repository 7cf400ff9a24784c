"""Event-log digests of the example scenarios, each at its own seed.

The mapping from (seed, scenario) to event-log bytes is the behavioural
contract: a change that alters any of these digests changes behaviour and
must update the pin and say why.
"""

from pathlib import Path

import pytest

from fedledger.runner import run
from fedledger.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PINS = {
    "byzantine-safety": "3ce81c27395be3945b7d3cddf028731618629f2e607640ca1a2497a1b0810a1b",
    "demo": "f2ea0a683ab1f6fe674ce323e64da6f90cc02212156b3c4a02420e9276bccbde",
    "intra-throughput": "4e987afeca82e14d307170ccb4dd62ca06d0997459271f4675fa4b9c40492cef",
    "latency-inter": "1bb251fa30748dcf43349e5d9e0534d1ab5cac5557f671dd519086c68150c048",
    "latency-intra": "f28c67edaff5fc0b3b812116fac4d27dcece1cab8a63c7fdf4d5f2839124305b",
}

# Too large to run here at full length (about 34 s and 819 MB); the same
# scenario with an integer duration is pinned by test_c01 as "c1-inter".
NOT_RUN = {"inter-throughput"}


def test_every_scenario_file_is_pinned():
    stems = {p.stem for p in SCENARIOS.glob("*.json")}
    assert stems == set(PINS) | NOT_RUN


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_log_digest(name):
    scn = load_scenario(str(SCENARIOS / f"{name}.json"))
    report, _ = run(scn)
    assert report.event_log_digest == PINS[name]
