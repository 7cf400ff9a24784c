"""Rewrite perfbench/pins.json: python3 perfbench/pin.py

Simulates every workload once at its default seed and pins the event-log
SHA-256 and the three virtual metrics. A change that keeps behaviour must
leave the pins as they are; one that changes behaviour on purpose re-pins
and says why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sample import PINS, VIRTUAL  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    pins = {}
    for wl in WORKLOADS.values():
        out = subprocess.run([sys.executable, str(HERE / "sample.py"), "--workload", wl.name,
                              "--seed", str(wl.default_seed)],
                             capture_output=True, text=True, check=True).stdout
        sample = json.loads(out.splitlines()[-1])
        pins[wl.name] = {"seed": wl.default_seed, "digest": sample["digest"],
                         **{key: sample[key] for key in VIRTUAL}}
        print(wl.name, json.dumps(pins[wl.name]))
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
