"""High-level entry points behind the CLI: single runs, Monte-Carlo
batches with cross-run aggregation, and offline log verification."""

from __future__ import annotations

import copy
import hashlib
import json
import statistics

from .eventlog import parse_events, run_all_checkers
from .metrics import LatencyStats, MetricsReport, load_report
from .runner import raw_latencies, run
from .scenario import ParseError, Scenario, load_scenario


def run_scenario(scn: Scenario, seed: int | None = None,
                 report_path: str | None = None, log_path: str | None = None,
                 csv_path: str | None = None) -> MetricsReport:
    scn = copy.deepcopy(scn)
    if seed is not None:
        scn.seed = seed
    report, _ = run(scn, log_path)
    if report_path:
        report.write(report_path)
    if csv_path:
        with open(csv_path, "w") as f:
            f.write(report.to_csv())
    return report


def batch(scn: Scenario, runs: int, report_path: str | None = None) -> dict:
    """Monte-Carlo batch: seeds seed, seed+1, ... with pooled aggregation.

    Latencies are pooled across runs per ledger (each run contributes its
    per-transaction values), matching repeated single-probe experiments;
    per-run mean/throughput spreads are reported alongside. When the
    scenario declares a ``reference`` block, the matching measured values
    are emitted next to it for comparison.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    pooled: dict[str, list[float]] = {}
    run_means: dict[str, list[float]] = {}
    throughputs: dict[str, list[float]] = {}
    violations_total = 0
    sessions_total = 0
    sessions_failed = 0
    seeds = []
    for i in range(runs):
        s = copy.deepcopy(scn)
        s.seed = scn.seed + i
        seeds.append(s.seed)
        report, h = run(s)
        violations_total += report.safety_violations
        for sess in report.sessions:
            sessions_total += 1
            if sess["outcome"].startswith("FAILED"):
                sessions_failed += 1
        for name, vals in raw_latencies(h).items():
            pooled.setdefault(name, []).extend(vals)
            if vals:
                run_means.setdefault(name, []).append(statistics.fmean(vals))
        for name, lm in report.ledgers.items():
            throughputs.setdefault(name, []).append(lm.tx_throughput)

    def spread(values: list[float]) -> dict:
        if not values:
            return {"mean": 0.0, "std": 0.0, "count": 0}
        return {"mean": round(statistics.fmean(values), 6),
                "std": round(statistics.pstdev(values), 6),
                "count": len(values)}

    agg = {
        "scenario": scn.name,
        "runs": runs,
        "seeds": seeds,
        "per_ledger": {
            name: {
                "pooled_latency": LatencyStats.from_values(vals).to_dict(),
                "run_mean_latency": spread(run_means.get(name, [])),
                "throughput": spread(throughputs.get(name, [])),
            }
            for name, vals in sorted(pooled.items())
        },
        "sessions_total": sessions_total,
        "sessions_failed": sessions_failed,
        "violations_total": violations_total,
    }
    if scn.reference:
        agg["reference"] = scn.reference
    if report_path:
        with open(report_path, "w") as f:
            json.dump(agg, f, sort_keys=True, indent=2)
            f.write("\n")
    return agg


def verify_log(report_path: str, log_path: str) -> tuple[bool, list[str]]:
    """Replay a stored event log through the invariant checkers and pin
    the report's digest; returns (ok, failures). A file that is not a
    report or an event log raises ParseError."""
    failures = []
    try:
        report = load_report(report_path)
    except ValueError as e:
        raise ParseError(f"{report_path}: not a JSON report: {e}") from None
    if not isinstance(report, dict):
        raise ParseError(f"{report_path}: a report must be a JSON object")
    with open(log_path, "rb") as f:
        data = f.read()
    # Compare before parsing: an edit can also break the JSON.
    if report.get("event_log_digest") != hashlib.sha256(data).hexdigest():
        return False, ["TamperedLog: event log digest does not match the report"]
    try:
        events = parse_events(data)
    except ValueError as e:
        raise ParseError(f"{log_path}: not a JSON-lines event log: {e}") from None
    if not (events and all(isinstance(e, dict) for e in events)
            and events[0].get("kind") == "genesis"):
        raise ParseError(f"{log_path}: an event log is JSON objects, the first a genesis record")
    delta, violations = run_all_checkers(events)
    failures.extend(violations)
    if delta != int(report.get("conservation_delta", 0)):
        failures.append(
            f"Conservation: replayed delta {delta} != reported {report.get('conservation_delta')}")
    return not failures, failures


__all__ = ["run_scenario", "batch", "verify_log", "load_scenario", "Scenario"]
