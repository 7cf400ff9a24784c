"""Deterministic discrete-event network simulator.

Virtual clock in milliseconds, seeded randomness, per-link delay models,
and fault injection. Events are processed in (time, sequence) order; the
sequence number is assigned at schedule time, which removes all
nondeterminism from simultaneous events. A (seed, scenario) pair fully
determines the event trace.

Link classes:
  INTRA  same-zone traffic, uniform delay in [d_min, d_max]; the upper
         bound is the synchrony bound used by the consensus timeouts.
  INTER  cross-zone and inter-ledger traffic, lognormal delay with a
         configured median and sigma (no upper bound).

Faults: CRASH stops delivery to and from a node until RECOVER; BYZANTINE
installs a behavior adapter on the node (equivocate / silent / delay);
PARTITION drops traffic between the named groups until HEAL.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field


class ConfigError(Exception):
    pass


@dataclass
class LinkModel:
    intra_min_ms: float = 10.0
    intra_max_ms: float = 200.0  # synchrony bound for same-zone links
    inter_median_ms: float = 200.0
    inter_sigma: float = 1.0
    intra_drop: float = 0.0
    inter_drop: float = 0.0
    zone_ranges: dict = field(default_factory=dict)  # zone -> (min_ms, max_ms)

    def sample(self, rng: random.Random, zone: int | None) -> float | None:
        """Sampled one-way delay (zone set for same-zone links), None on drop."""
        if zone is not None:
            if self.intra_drop and rng.random() < self.intra_drop:
                return None
            lo, hi = self.zone_ranges.get(zone, (self.intra_min_ms, self.intra_max_ms))
            return rng.uniform(lo, hi)
        if self.inter_drop and rng.random() < self.inter_drop:
            return None
        return math.exp(rng.gauss(math.log(self.inter_median_ms), self.inter_sigma))


@dataclass(frozen=True)
class FaultEntry:
    at_ms: float
    node: str  # node id; empty for partition/heal
    fault: str  # crash | recover | byzantine | partition | heal
    behavior: str = ""  # equivocate | silent | delay (byzantine only)
    groups: tuple = ()  # ((node ids...), (node ids...)) for partition


class Node:
    """Base class for simulated nodes. Subclasses override the hooks."""

    def __init__(self, node_id: str, zone_id: int | None):
        self.node_id = node_id
        self.zone_id = zone_id  # None for inter-ledger-only nodes
        self.behavior: str = ""  # byzantine behavior, "" when honest

    def on_message(self, sim: "Simulator", src: str, msg) -> None:
        pass

    def on_timer(self, sim: "Simulator", key) -> None:
        pass


class Simulator:
    def __init__(self, seed: int, link: LinkModel | None = None, transcript: bool = False):
        self.seed = seed
        self.link = link or LinkModel()
        self.now: float = 0.0
        self._seq = 0
        self._queue: list = []
        self.nodes: dict[str, Node] = {}
        self.crashed: set[str] = set()
        self._partition: list[frozenset] = []
        self.rng_net = random.Random(seed ^ 0x6E65745F)
        self.processed = 0
        # Cross-domain / inter-ledger message transcript for the privacy
        # scan: (src, dst, wire bytes). Only filled when enabled.
        self.record_transcript = transcript
        self.transcript: list[tuple[str, str, bytes]] = []

    # -- node registry ----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ConfigError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        return node

    # -- scheduling --------------------------------------------------------

    def _push(self, at: float, kind: str, target: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, kind, target, payload))

    def set_timer(self, node_id: str, at: float, key) -> None:
        if at < self.now:
            at = self.now
        self._push(at, "timer", node_id, key)

    def send(self, src: str, dst: str, msg) -> None:
        """Send msg from src to dst with a sampled link delay."""
        if src in self.crashed:
            return
        if self._partitioned(src, dst):
            return
        a = self.nodes[src]
        b = self.nodes[dst]
        zone = a.zone_id if (a.zone_id is not None and a.zone_id == b.zone_id) else None
        extra = 0.0
        if a.behavior == "delay":
            # Holds traffic to just under the synchrony bound.
            extra = 0.9 * self.link.intra_max_ms
        delay = self.link.sample(self.rng_net, zone)
        if delay is None:
            return
        if self.record_transcript and zone is None:
            wire = getattr(msg, "wire_bytes", None)
            if wire is not None:
                self.transcript.append((src, dst, wire()))
        self._push(self.now + delay + extra, "msg", dst, (src, msg))

    # -- faults -------------------------------------------------------------

    def inject_fault(self, entry: FaultEntry) -> None:
        """Schedule a fault entry for application at its virtual time."""
        if entry.fault in ("crash", "recover", "byzantine") and entry.node not in self.nodes:
            raise ConfigError(f"unknown node {entry.node!r}")
        self._push(entry.at_ms, "fault", "", entry)

    def _apply_fault(self, entry: FaultEntry) -> None:
        if entry.fault == "crash":
            self.crashed.add(entry.node)
        elif entry.fault == "recover":
            self.crashed.discard(entry.node)
        elif entry.fault == "byzantine":
            self.nodes[entry.node].behavior = entry.behavior
        elif entry.fault == "partition":
            self._partition = [frozenset(g) for g in entry.groups]
        elif entry.fault == "heal":
            self._partition = []
        else:
            raise ConfigError(f"unknown fault {entry.fault!r}")

    def _partitioned(self, src: str, dst: str) -> bool:
        if not self._partition:
            return False
        ga = gb = None
        for i, g in enumerate(self._partition):
            if src in g:
                ga = i
            if dst in g:
                gb = i
        return ga is not None and gb is not None and ga != gb

    # -- main loop -----------------------------------------------------------

    def run_until(self, t: float) -> int:
        """Process all events with time <= t; returns the processed count.

        An exception escaping a node handler is an internal invariant
        breach: it aborts the run with a diagnostic naming the offending
        event index, virtual time, and target.
        """
        if t < self.now:
            raise ValueError("cannot run backwards")
        count = 0
        while self._queue and self._queue[0][0] <= t:
            at, seq, kind, target, payload = heapq.heappop(self._queue)
            self.now = at
            if kind == "fault":
                self._apply_fault(payload)
                count += 1
                continue
            if target in self.crashed:
                continue  # crash semantics: silently dropped
            node = self.nodes.get(target)
            if node is None:
                continue
            try:
                if kind == "msg":
                    src, msg = payload
                    node.on_message(self, src, msg)
                else:
                    node.on_timer(self, payload)
            except Exception as e:
                raise RuntimeError(
                    f"invariant breach at event #{seq} (t={at:.3f} ms, "
                    f"{kind} -> {target}): {e}") from e
            count += 1
        self.now = t
        self.processed += count
        return count
