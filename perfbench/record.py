"""Record a baseline: python3 perfbench/record.py --label NAME [--seconds S]

Runs every workload at its default seed, untraced and then traced, prints
each run's metric table, and writes ``perfbench/results/BENCH_<label>.json``
with the metrics, their sample counts and the machine they were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


def machine() -> dict:
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                 "unknown")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": model, "platform": platform.platform()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=int, default=None, help="defaults to BENCHMARK.json run_seconds")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    record = {"label": args.label, "machine": machine(), "command": spec["command"],
              "seconds": seconds, "workloads": {}}
    for wl in WORKLOADS.values():
        entry = {"seed": wl.default_seed}
        for trace in (0, 1):
            print(f"== {wl.name} seed {wl.default_seed} trace {trace}", flush=True)
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl.name,
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, check=True)
            print(proc.stdout, end="", flush=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            detail = json.loads((HERE / "out" / f"{wl.name}-seed{wl.default_seed}-trace{trace}.json")
                                .read_text())
            entry["trace" if trace else "untraced"] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": detail["metrics"],
                "counts": detail["counts"], "notes": detail["notes"],
                "digests": sorted({(s["seed"], s["digest"]) for s in detail["samples"]}),
            }
        record["workloads"][wl.name] = entry

    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
