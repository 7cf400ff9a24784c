"""Event-log digests of the example scenarios, each at its own seed.

The mapping from (seed, scenario) to event-log bytes is the behavioural
contract: a change that alters any of these digests changes behaviour and
must update the pin and say why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fedledger.runner import run
from fedledger.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

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


# Runs the demo under the benchmark's tracer, which wraps simulator names
# from outside: a renamed attribute or function fails here.
TRACED_DEMO = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
from tracing import Tracer
from fedledger.runner import run
from fedledger.scenario import load_scenario
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
