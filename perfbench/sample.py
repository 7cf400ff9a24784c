"""One simulation of one workload in a fresh process: python3 perfbench/sample.py
--workload NAME --seed N [--setup-reps R] [--trace]

Prints one JSON line with the host times, the peak RSS of this process
(``ru_maxrss`` is a per-process high-water mark, hence one process per
simulation), the event-log digest, the virtual metrics and every output
check that failed. ``run.py`` starts one of these per sample.

The stages are those of ``runner.run``: ``validate`` -> ``build`` -> node
``start`` hooks (together ``setup_s``) -> ``run_until`` (``sim_s``) ->
``finalize`` (``finalize_s``). Set-up takes milliseconds, so it is
repeated ``--setup-reps`` times on fresh copies of the scenario and the
median is reported; the last copy is the one simulated.

Untraced, ``run_until`` advances in ``SLICES`` equal steps of virtual
time (the event order, and so the log, is the same as in one step), and
a calibration chunk runs between every two timed segments: the set-up
copies, the steps, and ``finalize``. ``setup_s``, ``sim_s``,
``finalize_s`` and ``wall_s`` are those segments rescaled to a reference
host speed (``hostspeed.py``); ``*_host_s`` are the same as timed.
Traced, the simulation runs in one step without chunks and reports host
times only.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's own source, never an installed copy

import fedledger  # noqa: E402
from fedledger import protocol, runner  # noqa: E402
from hostspeed import Meter  # noqa: E402
from stats import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = HERE / "pins.json"
VIRTUAL = ("sim_tx_per_s", "sim_latency_p50_s", "sim_latency_tail_s")
SLICES = 100


def setup(scn):
    scn.validate()
    h = runner.build(scn)
    for node in list(h.sim.nodes.values()):
        start = getattr(node, "start", None)
        if start is not None:
            start(h.sim)
    return h


def latencies(h, ledger: str) -> list[float]:
    """Per-tx commit or confirmation latency on ``ledger``, in virtual seconds;
    with sessions, each session side's start -> SETTLED instead."""
    if h.scenario.workload.sessions:
        return [(c.phase_times[protocol.SETTLED] - c.cfg.start_ms) / 1000.0
                for c in h.clients.values() if c.phase == protocol.SETTLED]
    return runner.raw_latencies(h)[ledger]


def output_failures(h, report) -> list[str]:
    failures = list(report.violations)
    if report.conservation_delta != 0:
        failures.append(f"conservation delta {report.conservation_delta}")
    for (sid, side), c in sorted(h.clients.items()):
        if c.phase != protocol.SETTLED:
            failures.append(f"session {sid} {side} ended {c.phase} ({c.fail_reason})")
    return failures


def pin_failures(workload: str, seed: int, out: dict) -> list[str]:
    pin = json.loads(PINS.read_text()).get(workload)
    if pin is None or pin["seed"] != seed:
        return []
    return [f"{key} {out[key]!r} differs from its pin {pin[key]!r}"
            for key in ("digest",) + VIRTUAL if out[key] != pin[key]]


def stage_times(setup_s: list[float], sim_s: list[float], finalize_s: float, suffix: str) -> dict:
    return {f"setup{suffix}": statistics.median(setup_s), f"sim{suffix}": sum(sim_s),
            f"finalize{suffix}": finalize_s, f"wall{suffix}": setup_s[-1] + sum(sim_s) + finalize_s}


def metered_run(scn, setup_reps: int):
    meter = Meter()
    for _ in range(setup_reps):
        h = meter.time(setup, copy.deepcopy(scn))
    # The last step ends at duration_ms itself: the run's final clock value
    # is logged, and an int and the float of equal value serialize apart.
    for k in range(1, SLICES):
        meter.time(h.sim.run_until, scn.duration_ms * k / SLICES)
    meter.time(h.sim.run_until, scn.duration_ms)
    report = meter.time(runner.finalize, h)
    times = {}
    for suffix, segments in (("_s", meter.rescaled()), ("_host_s", meter.host_s)):
        times |= stage_times(segments[:setup_reps], segments[setup_reps:-1], segments[-1], suffix)
    return h, report, times


def traced_run(tracer, scn, setup_reps: int):
    setup_s = []
    for _ in range(setup_reps):
        fresh = copy.deepcopy(scn)
        t0 = time.perf_counter()
        h = tracer.call("setup", setup, fresh)
        setup_s.append(time.perf_counter() - t0)
    t1 = time.perf_counter()
    tracer.call("sim", h.sim.run_until, scn.duration_ms)
    t2 = time.perf_counter()
    report = tracer.call("finalize", runner.finalize, h)
    return h, report, stage_times(setup_s, [t2 - t1], time.perf_counter() - t2, "_host_s")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-reps", type=int, default=1, choices=range(1, 101), metavar="R")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if not Path(fedledger.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fedledger imported from {fedledger.__file__}, not from {ROOT / 'src'}")

    wl = WORKLOADS[args.workload]
    scn = wl.make(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        h, report, times = traced_run(tracer, scn, args.setup_reps)
    else:
        h, report, times = metered_run(scn, args.setup_reps)
    lat = latencies(h, wl.ledger)
    tail_pct, tail_value, tail_beyond = tail(lat)
    out = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": args.trace,
        "digest": report.event_log_digest,
        **times,
        "events": h.sim.processed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tx_per_s": report.ledgers[wl.ledger].tx_throughput,
        "sim_latency_p50_s": statistics.median(lat),
        "sim_latency_tail_s": tail_value,
        "tail_pct": tail_pct,
        "tail_beyond": tail_beyond,
        "latencies_s": lat,
    }
    out["failures"] = output_failures(h, report) + pin_failures(wl.name, args.seed, out)
    if tracer:
        out["layers"] = tracer.layer_metrics(h)
        out["spans"] = tracer.span_table()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
