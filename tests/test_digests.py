"""Event-log digests of the example scenarios, each at its own seed.

The mapping from (seed, scenario) to event-log bytes is the behavioural
contract: a change that alters any of these digests changes behaviour and
must update the pin and say why.
"""

import functools
import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fedledger.runner import run
from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

PINS = {
    "byzantine-safety": "3ce81c27395be3945b7d3cddf028731618629f2e607640ca1a2497a1b0810a1b",
    "demo": "f2ea0a683ab1f6fe674ce323e64da6f90cc02212156b3c4a02420e9276bccbde",
    "failover": "1e9164cb67aaccf6af2b8f16afee09513ae6f56e153f82060c27cb3e59cc57f7",
    "intra-throughput": "4e987afeca82e14d307170ccb4dd62ca06d0997459271f4675fa4b9c40492cef",
    "latency-inter": "1bb251fa30748dcf43349e5d9e0534d1ab5cac5557f671dd519086c68150c048",
    "latency-intra": "f28c67edaff5fc0b3b812116fac4d27dcece1cab8a63c7fdf4d5f2839124305b",
    # Pins today's behaviour, in which val:1:2 stays behind after each
    # recover (there is no block sync yet); block sync will move this pin.
    "validator-crash": "051032ee8ee78bd80c8c6b126915b5a64ab5839adc297b3a439349f0ef744497",
}

# The report's ledgers section of the same runs, one row per ledger:
# (submitted, committed, block_count, tx_throughput), then the latency
# stats in seconds (count, mean, std, median, min, max). Equal under
# Python 3.10, 3.11, 3.12 and 3.13.
LEDGER_PINS = {
    "byzantine-safety": {
        "inter": ((0, 0, 7, 0.0),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((1000, 234, 4, 7.8),
                   (234, 1.532928, 0.595811, 1.52203, 0.388582, 2.879753)),
    },
    "demo": {
        "inter": ((0, 14, 166, 0.077778),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((4, 4, 113, 0.022222),
                   (4, 1.568821, 0.260706, 1.553427, 1.275875, 1.892557)),
        "zone:2": ((4, 4, 113, 0.022222),
                   (4, 1.470626, 0.223622, 1.427919, 1.203052, 1.823612)),
    },
    "failover": {
        "inter": ((0, 14, 187, 0.093333),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((4, 4, 94, 0.026667),
                   (4, 1.447417, 0.59321, 1.74372, 0.434922, 1.867306)),
        "zone:2": ((4, 4, 94, 0.026667),
                   (4, 1.516741, 0.292367, 1.582632, 1.107839, 1.793861)),
    },
    "intra-throughput": {
        "inter": ((0, 0, 6, 0.0),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((48000, 37000, 38, 616.666667),
                   (37000, 7.588821, 3.757304, 7.683262, 0.627706, 14.556359)),
    },
    "latency-inter": {
        "inter": ((1, 1, 16, 0.011111),
                  (1, 1.513626, 0.0, 1.513626, 1.513626, 1.513626)),
        "zone:1": ((0, 0, 57, 0.0),
                   (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
    },
    "latency-intra": {
        "inter": ((0, 0, 2, 0.0),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((1, 1, 5, 0.125),
                   (1, 1.486183, 0.0, 1.486183, 1.486183, 1.486183)),
    },
    "validator-crash": {
        "inter": ((0, 0, 2, 0.0),
                  (0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "zone:1": ((1800, 1454, 6, 161.555556),
                   (1454, 1.550815, 0.682568, 1.507334, 0.297613, 3.272893)),
    },
}

# Simulator.processed at the end of each pinned run: every delivery,
# timer and fault the loop handled. A delivery handled twice, or one to a
# crashed node that is counted, moves these while the log stays the same.
EVENT_COUNTS = {
    "byzantine-safety": 5773,
    "demo": 16649,
    "failover": 13075,
    "intra-throughput": 241870,
    "latency-inter": 3423,
    "latency-intra": 272,
    "validator-crash": 8606,
}

# Not run here at full length (measured: 5.3-5.5 s in run_until plus 0.5 s
# to finalize, 136 MB peak RSS, on a 2-CPU Xeon VM under Python 3.11); the same
# scenario with an integer duration is pinned by test_c01 as "c1-inter",
# and its first 150 s by test_inter_throughput_cut_digest.
NOT_RUN = {"inter-throughput"}

# The benchmark's inter-throughput workload at its default seed (the file's
# seed, 202): the scenario cut to 150 s of virtual time. Equal to its digest
# in perfbench/pins.json.
INTER_CUT_MS = 150_000
INTER_CUT_PIN = "1f91b8f25335a142f7b2fbb826516538b65eaf15ac336de6f47a9d7c25d39dac"
INTER_CUT_EVENTS = 86611


# Fault kinds no scenario file has: a `delay` or `silent` validator, and a
# partition that heals. Each is a small one-zone run (4 validators, one
# delegate, 30 tx/s of 16-byte payloads, 8 s, seed 1). The delay pin
# guards the hold a delayed sender adds to each send (the order of that
# float sum is checked in test_sim.py); the partition pin guards the drop
# of traffic across the split.
FAULT_RUNS = {
    "delay": [{"at_ms": 0, "fault": "byzantine", "node": "val:1:1", "behavior": "delay"}],
    "silent": [{"at_ms": 0, "fault": "byzantine", "node": "val:1:1", "behavior": "silent"}],
    "partition-heal": [{"at_ms": 1500, "fault": "partition",
                        "groups": [["val:1:1", "val:1:2"], ["val:1:0", "val:1:3"]]},
                       {"at_ms": 4000, "fault": "heal"}],
}
FAULT_PINS = {
    "delay": "30ec64ad8f21ff6d5a05b8f3094125e048c078d63a66718aa1059e92876b1762",
    "silent": "289ab8f95eaa93bd1bf05350f3c1203c9902430b70c7376975a191c00f3d9d19",
    "partition-heal": "67008da68a2f6278543a9674550e760776c3b2f9adf919ba9423a992f3fc76fd",
}
FAULT_EVENTS = {"delay": 1579, "silent": 1539, "partition-heal": 1599}


@pytest.mark.parametrize("kind", sorted(FAULT_PINS))
def test_fault_run_digest(kind):
    scn = Scenario(
        name=f"fault-{kind}", seed=1, duration_ms=8_000,
        domains=[DomainSpec(zone_id=1, validators=4, byzantine=1, delegates=1)],
        inter=InterSpec(miners=1, contracts=1),
        workload=WorkloadSpec(intra_rate_per_s=30, intra_payload_bytes=16),
        faults=FAULT_RUNS[kind],
        log_payloads=False,
    )
    report, h = run(scn)
    assert report.event_log_digest == FAULT_PINS[kind]
    assert h.sim.processed == FAULT_EVENTS[kind]


def test_every_scenario_file_is_pinned():
    stems = {p.stem for p in SCENARIOS.glob("*.json")}
    assert stems == set(PINS) | NOT_RUN


def run_without_collector(scn):
    """``run(scn)`` with the cyclic collector off throughout, and the number
    of unreachable objects a full collection then finds: 0 when the run
    made no reference cycle. That is what lets ``Simulator.run_until``
    pause the collector at no cost but time: a change that made a cycle
    per event would raise peak RSS silently, and fails here instead."""
    gc.collect()
    gc.disable()
    try:
        report, h = run(scn)
    finally:
        gc.enable()
    return report, h, gc.collect()


@functools.cache
def run_of(name):
    """The report of a scenario file's run, as a dict, its event count and
    the unreachable objects it left (see ``run_without_collector``)."""
    report, h, unreachable = run_without_collector(load_scenario(str(SCENARIOS / f"{name}.json")))
    return report.to_dict(), h.sim.processed, unreachable


def ledger_row(m):
    lat = m["commit_latency"]
    return ((m["submitted"], m["committed"], m["block_count"], m["tx_throughput"]),
            (lat["count"], lat["mean"], lat["std"], lat["median"], lat["min"], lat["max"]))


@pytest.mark.parametrize("name", sorted(PINS))
def test_event_log_digest(name):
    report, processed, _ = run_of(name)
    assert report["event_log_digest"] == PINS[name]
    assert processed == EVENT_COUNTS[name]


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_makes_no_reference_cycle(name):
    assert run_of(name)[2] == 0


def test_inter_throughput_cut_digest():
    scn = load_scenario(str(SCENARIOS / "inter-throughput.json"))
    scn.duration_ms = INTER_CUT_MS
    report, h, unreachable = run_without_collector(scn)
    assert report.event_log_digest == INTER_CUT_PIN
    assert h.sim.processed == INTER_CUT_EVENTS
    assert unreachable == 0


@pytest.mark.parametrize("name", sorted(PINS))
def test_report_ledgers(name):
    ledgers = run_of(name)[0]["ledgers"]
    assert {k: ledger_row(m) for k, m in ledgers.items()} == LEDGER_PINS[name]


# Runs the demo under the benchmark's tracer, which wraps simulator names
# from outside: a renamed attribute or function fails here.
TRACED_DEMO = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracing import Tracer
from fedledger.runner import run
from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec, load_scenario
tracer = Tracer()
tracer.install()
report, h = run(load_scenario(sys.argv[1] + "/scenarios/demo.json"))
print(json.dumps({"digest": report.event_log_digest, "layers": sorted(tracer.layer_metrics(h))}))
"""


def test_traced_demo_emits_every_layer_metric():
    proc = subprocess.run([sys.executable, "-c", TRACED_DEMO, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # trace.overhead_s is a difference of two runs, made by perfbench/run.py.
    assert declared - {"trace.overhead_s"} <= set(out["layers"])
    assert out["digest"] == PINS["demo"]
