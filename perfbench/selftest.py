"""Self-tests of the benchmark: python3 -m pytest -q perfbench/selftest.py

Not named ``test_*.py``, so the repository's tier-1 run does not collect
it; it takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from fedledger import runner  # noqa: E402
from hostspeed import REF_CHUNK_S, Meter  # noqa: E402
from workloads import WORKLOADS, sub_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def sample_digest(workload: str, seed: int) -> str:
    out = subprocess.run([sys.executable, str(HERE / "sample.py"), "--workload", workload,
                          "--seed", str(seed)], capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])["digest"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    wl = WORKLOADS[workload]
    assert wl.make(wl.default_seed) == wl.make(wl.default_seed)
    assert wl.make(1) != wl.make(2)


def test_sub_seeds_are_fixed_by_the_seed():
    assert sub_seed(5, 0) == 5
    assert [sub_seed(5, i) for i in range(4)] == [sub_seed(5, i) for i in range(4)]
    assert len({sub_seed(5, i) for i in range(4)}) == 4


def test_same_seed_gives_same_digest():
    wl = WORKLOADS["sessions-50"]
    pinned = PINS[wl.name]["digest"]
    report, _ = runner.run(wl.make(wl.default_seed))
    assert report.event_log_digest == pinned
    assert sample_digest(wl.name, wl.default_seed) == pinned
    other = sub_seed(wl.default_seed, 1)
    assert sample_digest(wl.name, other) == sample_digest(wl.name, other) != pinned


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, kind):
    result = result_of(bench("--workload", "sessions-50", "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_at_default_seed_is_correct(workload):
    result = result_of(bench("--workload", workload, "--seconds", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sessions-50", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rescaling_divides_out_host_speed():
    meter = Meter()
    meter.chunks = [2 * REF_CHUNK_S] * 3 + [4 * REF_CHUNK_S] * 3
    meter.host_s = [1.0, 2.0, 6.0, 8.0, 8.0]  # the third segment straddles the change
    assert meter.rescaled() == pytest.approx([0.5, 1.0, 2.0, 2.0, 2.0])
