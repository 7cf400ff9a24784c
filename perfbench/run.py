"""fedledger benchmark: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each sample is one simulation in a
fresh process (``sample.py``), run one after another. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count samples and those whose output check failed, and
``metrics`` holds the medians of every metric that ``BENCHMARK.json``
names for the mode, with its unit. The lines before it give each median
with its sample count, and ``perfbench/out/`` receives the run's detail
file (every sample, digests, and in traced mode the aggregated spans).

--trace 0: the run simulates the workload's ``samples`` sub-seeds of
``--seed`` (see ``workloads.py``), then cycles through them again while
``--seconds`` allows, so its inputs depend on the seed alone. Host-time
metrics are medians over every sample; the virtual metrics pool one
simulation of each sub-seed.

--trace 1: the run alternates an untraced and a traced simulation of
``--seed`` itself while ``--seconds`` allows (one pair at least). The
per-layer metrics are (low) medians over the traced samples, and
``trace.overhead_s`` is the traced median ``wall_host_s`` minus the
untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

from stats import tail  # noqa: E402
from workloads import WORKLOADS, sub_seed  # noqa: E402

SETUP_REPS = 15  # set-up takes milliseconds; its median over fresh copies is steadier
DEADLINE_S = 170.0  # a run ends within 180 s even if a sample hangs
STAGES = ("wall", "setup", "sim", "finalize")
HOST = (tuple(f"{s}_s" for s in STAGES) + tuple(f"{s}_host_s" for s in STAGES)
        + ("events_per_s", "peak_rss_mb"))
# Printed and recorded but not named in BENCHMARK.json. The *_host_s
# times follow the shared host's speed, which drifts by tens of percent
# within seconds; the *_s times rescaled to a reference speed gate
# instead (see hostspeed.py). The virtual metrics are exact per seed and
# pinned at the default seeds: on inter-throughput their spread across
# seeds is wider than any allowed bound, and sim_tx_per_s is the same on
# every seed of a capacity-bound workload. failed_share is 0 on a correct
# run; the result line carries it as ``failed`` and ``attempted``.
EXTRA_UNITS = {"finalize_s": "s", "events_per_s": "1/s",
               **{f"{s}_host_s": "s" for s in STAGES},
               "sim_tx_per_s": "tx/s", "sim_latency_p50_s": "s", "sim_latency_tail_s": "s",
               "failed_share": "ratio"}


def run_sample(workload: str, seed: int, traced: bool, started: float) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if traced else ["--setup-reps", str(SETUP_REPS)]
    budget = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, budget))
    if proc.returncode != 0:
        raise RuntimeError(f"sample {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    sample = json.loads(proc.stdout.splitlines()[-1])
    if not traced:
        sample["events_per_s"] = sample["events"] / sample["sim_s"]
    return sample


def sample_until(seconds: float, started: float, next_sample, minimum: int) -> list[dict]:
    """Run ``next_sample(i)`` at least ``minimum`` times, then while the
    median sample still fits in ``seconds``."""
    samples, durations = [], []
    while True:
        elapsed = time.perf_counter() - started
        if len(samples) >= minimum and elapsed + statistics.median(durations) > seconds:
            return samples
        t0 = time.perf_counter()
        samples.append(next_sample(len(samples)))
        durations.append(time.perf_counter() - t0)


def measure(wl, seed: int, seconds: float, started: float) -> tuple[list[dict], dict, dict]:
    samples = sample_until(seconds, started, minimum=wl.samples,
                           next_sample=lambda i: run_sample(wl.name, sub_seed(seed, i % wl.samples),
                                                            False, started))
    pooled = [x for s in samples[:wl.samples] for x in s["latencies_s"]]
    tail_pct, tail_value, tail_beyond = tail(pooled)
    metrics = {name: statistics.median(s[name] for s in samples) for name in HOST}
    metrics["sim_latency_p50_s"] = statistics.median(pooled)
    metrics["sim_latency_tail_s"] = tail_value
    counts = {name: len(samples) for name in HOST}
    counts.update(sim_latency_p50_s=len(pooled), sim_latency_tail_s=len(pooled))
    metrics["sim_tx_per_s"] = statistics.median(s["sim_tx_per_s"] for s in samples[:wl.samples])
    counts["sim_tx_per_s"] = wl.samples
    notes = {"sim_latency_tail_s": f"p{tail_pct:g}, {tail_beyond} samples beyond it"}
    return samples, metrics, {"counts": counts, "notes": notes}


def measure_traced(wl, seed: int, seconds: float, started: float) -> tuple[list[dict], dict, dict]:
    samples = sample_until(seconds, started, minimum=2,
                           next_sample=lambda i: run_sample(wl.name, seed, i % 2 == 1, started))
    if len(samples) % 2:
        samples.pop()  # keep whole pairs
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    # median_low keeps each value one that was measured, so counts stay whole
    metrics = {name: statistics.median_low(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(s["wall_host_s"] for s in traced)
                                   - statistics.median(s["wall_host_s"] for s in plain))
    if len({s["digest"] for s in samples}) != 1:
        traced[0]["failures"].append("tracing changed the event log")
    counts = {name: len(traced) for name in metrics}
    return samples, metrics, {"counts": counts, "notes": {}}


def main() -> int:
    ap = argparse.ArgumentParser(description="fedledger benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="defaults to the workload's own")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        samples, metrics, info = measure_traced(wl, seed, args.seconds, started)
    else:
        samples, metrics, info = measure(wl, seed, args.seconds, started)
    failed = sum(1 for s in samples if s["failures"])
    metrics["failed_share"] = failed / len(samples)
    info["counts"]["failed_share"] = len(samples)

    units = {m["name"]: m["unit"] for m in wanted} | ({} if args.trace else EXTRA_UNITS)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json but not measured: {missing}")
    for name, unit in units.items():
        note = info["notes"].get(name, "")
        value = metrics[name]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:<34} {shown} {unit:<7} n={info['counts'][name]:<6} {note}")
    for s in samples:
        for failure in s["failures"]:
            print(f"FAILED {wl.name} seed {s['seed']}: {failure}")

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": wl.name, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "counts": info["counts"], "notes": info["notes"],
        "samples": [{k: v for k, v in s.items() if k not in ("latencies_s", "spans")} for s in samples],
        "spans": next((s["spans"] for s in samples if s["traced"]), None),
    }
    (OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
