"""Metrics report: per-ledger throughput and latency, session outcomes,
invariant results, and deterministic JSON/CSV emission."""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field


@dataclass(frozen=True)
class LatencyStats:
    mean: float = 0.0
    std: float = 0.0
    median: float = 0.0
    min: float = 0.0
    max: float = 0.0
    count: int = 0

    @staticmethod
    def from_values(values_s: list[float]) -> "LatencyStats":
        if not values_s:
            return LatencyStats()
        return LatencyStats(
            mean=round(statistics.fmean(values_s), 6),
            std=round(statistics.pstdev(values_s), 6),
            median=round(statistics.median(values_s), 6),
            min=round(min(values_s), 6),
            max=round(max(values_s), 6),
            count=len(values_s),
        )

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "median": self.median,
                "min": self.min, "max": self.max, "count": self.count}


@dataclass
class LedgerMetrics:
    tx_throughput: float = 0.0  # committed tx / virtual second
    commit_latency: LatencyStats = field(default_factory=LatencyStats)
    block_count: int = 0
    submitted: int = 0
    committed: int = 0

    def to_dict(self) -> dict:
        return {"tx_throughput": round(self.tx_throughput, 6),
                "commit_latency": self.commit_latency.to_dict(),
                "block_count": self.block_count,
                "submitted": self.submitted,
                "committed": self.committed}


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    duration_ms: float
    ledgers: dict = field(default_factory=dict)  # "zone:1" / "inter" -> LedgerMetrics
    sessions: list = field(default_factory=list)
    safety_violations: int = 0
    violations: list = field(default_factory=list)
    conservation_delta: int = 0
    event_log_digest: str = ""

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "ledgers": {k: v.to_dict() for k, v in sorted(self.ledgers.items())},
            "sessions": self.sessions,
            "safety_violations": self.safety_violations,
            "violations": self.violations,
            "conservation_delta": self.conservation_delta,
            "event_log_digest": self.event_log_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["ledger", "tx_throughput", "latency_mean_s", "latency_std_s",
                    "latency_median_s", "latency_min_s", "latency_max_s",
                    "block_count", "submitted", "committed"])
        for name in sorted(self.ledgers):
            m = self.ledgers[name]
            ls = m.commit_latency
            w.writerow([name, m.tx_throughput, ls.mean, ls.std, ls.median,
                        ls.min, ls.max, m.block_count, m.submitted, m.committed])
        return out.getvalue()


def load_report(path: str) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except RecursionError:
            raise ValueError("nested too deeply to parse") from None
