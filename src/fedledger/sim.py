"""Deterministic discrete-event network simulator.

Virtual clock in milliseconds, seeded randomness, per-link delay models,
and fault injection. Events are processed in (time, sequence) order; the
sequence number is assigned at schedule time, which removes all
nondeterminism from simultaneous events. A (seed, scenario) pair fully
determines the event trace.

Link classes (the same in every run):
  INTRA  same-zone traffic, uniform delay in [INTRA_MIN_MS, INTRA_MAX_MS];
         the upper bound is the synchrony bound used by the consensus
         timeouts.
  INTER  cross-zone and inter-ledger traffic, lognormal delay with median
         INTER_MEDIAN_MS and sigma INTER_SIGMA (no upper bound). The normal
         draw is the body of random.gauss, inlined: same draws, same value.

A node receives messages only if it has an on_message handler. A message
to a node without one is still drawn and transcribed like any other, so
every later delay and the privacy transcript are unchanged, but it is
never queued: it costs no event.

Faults: CRASH stops delivery to and from a node until RECOVER; BYZANTINE
installs a behavior adapter on the node (equivocate / silent / delay);
PARTITION drops traffic between the named groups until HEAL.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt, tau as _TWOPI


class ConfigError(Exception):
    pass


INTRA_MIN_MS = 10.0
INTRA_MAX_MS = 200.0  # the synchrony bound of every zone
INTER_MEDIAN_MS = 200.0
INTER_SIGMA = 1.0


class LinkModel:
    # The lognormal's mu, taken once rather than at every inter draw.
    _inter_mu = _log(INTER_MEDIAN_MS)

    def sample(self, rng: random.Random, zone: int | None) -> float:
        """Sampled one-way delay (zone set for same-zone links)."""
        if zone is not None:
            lo, hi = INTRA_MIN_MS, INTRA_MAX_MS
            # The body of rng.uniform(lo, hi) on CPython 3.10-3.13
            # (Lib/random.py, Random.uniform), inlined: same draw, same value.
            return lo + (hi - lo) * rng.random()
        # The body of rng.gauss(mu, sigma) on CPython 3.10-3.13 (Lib/random.py,
        # Random.gauss), inlined the same way: each call uses one of the pair
        # of normals that two uniforms give, keeping the other in gauss_next.
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = rng.random() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
            z = _cos(x2pi) * g2rad
            rng.gauss_next = _sin(x2pi) * g2rad
        return _exp(self._inter_mu + z * INTER_SIGMA)


@dataclass(frozen=True)
class FaultEntry:
    at_ms: float
    node: str  # node id; empty for partition/heal
    fault: str  # crash | recover | byzantine | partition | heal
    behavior: str = ""  # equivocate | silent | delay (byzantine only)
    groups: tuple = ()  # ((node ids...), (node ids...)) for partition


class Node:
    """Base class for simulated nodes. Subclasses override on_timer and may
    define on_message(sim, src, msg); a node without it receives no messages."""

    def __init__(self, node_id: str, zone_id: int | None):
        self.node_id = node_id
        self.zone_id = zone_id  # None for inter-ledger-only nodes
        self.behavior: str = ""  # byzantine behavior, "" when honest

    def on_timer(self, sim: "Simulator", key) -> None:
        pass


class Simulator:
    def __init__(self, seed: int, transcript: bool = False):
        self.link = LinkModel()
        self.now: float = 0.0
        self._seq = 0
        self._queue: list = []
        self.nodes: dict[str, Node] = {}
        # Ids of the nodes without on_message: messages to them are not queued.
        self._deaf: set[str] = set()
        self.crashed: set[str] = set()
        # node id -> index of its partition group; a node named in several
        # groups belongs to the last of them. Empty when healed.
        self._group_of: dict[str, int] = {}
        self.rng_net = random.Random(seed ^ 0x6E65745F)
        self.processed = 0
        # Cross-domain / inter-ledger message transcript for the privacy
        # scan: (src, dst, wire bytes); None when not enabled.
        self.transcript: list[tuple[str, str, bytes]] | None = [] if transcript else None

    # -- node registry ----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.node_id in self.nodes:
            raise ConfigError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        if not hasattr(node, "on_message"):
            self._deaf.add(node.node_id)
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
        self.multicast(src, (dst,), msg)

    def multicast(self, src: str, dsts, msg) -> None:
        """Send one msg from src to each of dsts, in order, each with its own link delay.

        The link rules live here alone. The sender's crash, behaviour and
        partition group are looked up once per call; each destination gets
        its own partition test, zone test, delay draw and queue entry, so
        a fan-out draws, numbers and times its messages exactly as that
        many single sends would. A destination without on_message is drawn
        and transcribed but gets no queue entry.
        """
        if src in self.crashed:
            return
        nodes = self.nodes
        a = nodes[src]
        zone_id = a.zone_id
        # Holds traffic to just under the synchrony bound.
        extra = 0.9 * INTRA_MAX_MS if a.behavior == "delay" else 0.0
        group_of = self._group_of
        deaf = self._deaf
        src_group = group_of.get(src) if group_of else None
        transcript = self.transcript
        if transcript is not None and getattr(msg, "wire_bytes", None) is None:
            transcript = None  # a message without wire bytes is not recorded
        wire = None  # encoded at the first inter link, then shared
        payload = (src, msg)
        for dst in dsts:
            if src_group is not None:
                dst_group = group_of.get(dst)
                if dst_group is not None and dst_group != src_group:
                    continue  # across the partition
            # Same-zone links are intra; any other link is inter.
            zone = zone_id if nodes[dst].zone_id == zone_id else None
            delay = self.link.sample(self.rng_net, zone)
            if transcript is not None and zone is None:
                if wire is None:
                    wire = msg.wire_bytes()
                transcript.append((src, dst, wire))
            if dst not in deaf:
                self._push(self.now + delay + extra, "msg", dst, payload)

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
            self._group_of = {n: i for i, g in enumerate(entry.groups) for n in g}
        elif entry.fault == "heal":
            self._group_of = {}
        else:
            raise ConfigError(f"unknown fault {entry.fault!r}")

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
        # Bound once: handlers and faults change these in place, never rebind them.
        queue, crashed, nodes, pop = self._queue, self.crashed, self.nodes, heapq.heappop
        while queue and queue[0][0] <= t:
            at, seq, kind, target, payload = pop(queue)
            self.now = at
            if kind == "fault":
                self._apply_fault(payload)
                count += 1
                continue
            if target in crashed:
                continue  # crash semantics: silently dropped
            node = nodes.get(target)
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
