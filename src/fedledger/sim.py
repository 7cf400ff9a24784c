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

Local deliveries: a message of a ``LocalMessage`` class (today only
``nodes.TxSubmit``, which pools a tx) goes to a receiver's ``absorb(msg)``,
which changes that node's own state alone: it gets no Simulator, so it
cannot send, arm a timer, draw or read the clock, and a local message to a
node without absorb raises ConfigError. Sending one runs the whole link
rule and takes a sequence number from the same counter, but the entry
(at, seq, msg) is appended to the receiver's inbox list, off the global
queue. An inbox is drained in (time, seq) order, by one sort, before any
later event dispatched to its node (its earliest due time, lowered at each
append, says when), before a crash of that node applies, and at the end of
each run_until for every live node, so each node sees what one global
queue would show it. These are 79% of intra-throughput's events, about 98
per drain: an append and a share of one sort cost less than a heap push
and pop. At a recover, what fell due while the node
was down is dropped. An absorbed delivery counts in ``processed`` as an
event; a dropped one does not.

Transcript: when enabled, every message sent on an inter link is recorded
as (src, dst, msg.wire_bytes()) for the privacy scan. Only messages that
cross a zone need a wire form; sending one without it across a zone
raises, so no message type crosses unscanned.

Faults: CRASH stops delivery to and from a node until RECOVER; BYZANTINE
installs a behavior adapter on the node (equivocate / silent / delay);
PARTITION drops traffic between the named groups until HEAL.
"""

from __future__ import annotations

import gc
import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import cos as _cos, exp as _exp, inf as _INF, log as _log, sin as _sin, sqrt as _sqrt, tau as _TWOPI


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


class LocalMessage:
    """Base of the local message classes: a receiver takes one in with
    ``absorb(msg)``, which only changes that node's own state (see the
    module docstring)."""

    __slots__ = ()


class Node:
    """Base class for simulated nodes. Subclasses override on_timer and may
    define on_message(sim, src, msg); a node without it receives no messages.
    A node that takes local messages defines absorb(msg)."""

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
        # node id -> list of (at, seq, msg), the local deliveries not yet
        # absorbed, in send order, for every node with absorb, in add_node
        # order; and its earliest due time (inf when empty).
        self._inbox: dict[str, list] = {}
        self._due: dict[str, float] = {}
        self._held = 0  # how many local deliveries the inboxes hold
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
        if hasattr(node, "absorb"):
            self._inbox[node.node_id] = []
            self._due[node.node_id] = _INF
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
        """Send msg from src to dst with a sampled link delay.

        The link rule of one destination, in this order: a crashed sender
        sends nothing, a partition between the two drops the message, a
        same-zone link is intra and any other is inter, ``LinkModel.sample``
        draws the delay, and with the transcript on an inter-link message
        is transcribed (it must have ``wire_bytes``). A destination without
        on_message is drawn and transcribed but gets no queue entry; any
        other gets one due at ``now + delay + extra``, summed in that order.
        A local message gets that entry in the destination's inbox instead,
        and raises ``ConfigError`` at a destination without absorb.
        ``multicast`` applies the same rule to each of its destinations;
        this straight-line body is the cheaper one for a single send, and
        tests hold both to one written-out reference.
        """
        if src in self.crashed:
            return
        group_of = self._group_of
        if group_of:
            src_group = group_of.get(src)
            if src_group is not None:
                dst_group = group_of.get(dst)
                if dst_group is not None and dst_group != src_group:
                    return  # across the partition
        a = self.nodes[src]
        zone = a.zone_id if self.nodes[dst].zone_id == a.zone_id else None
        delay = self.link.sample(self.rng_net, zone)
        if zone is None and self.transcript is not None:
            self.transcript.append((src, dst, msg.wire_bytes()))
        if isinstance(msg, LocalMessage):
            box = self._inbox.get(dst)
            if box is None:
                raise ConfigError(f"{dst!r} has no absorb for local {type(msg).__name__}")
        elif dst in self._deaf:
            return
        else:
            box = None
        # Holds traffic to just under the synchrony bound.
        extra = 0.9 * INTRA_MAX_MS if a.behavior == "delay" else 0.0
        self._seq = seq = self._seq + 1
        # In this order: (now + extra) + delay rounds differently.
        if box is None:
            heapq.heappush(self._queue, (self.now + delay + extra, seq, "msg", dst, (src, msg)))
        else:
            box.append((at := self.now + delay + extra, seq, msg))
            if at < self._due[dst]:
                self._due[dst] = at
            self._held += 1

    def multicast(self, src: str, dsts, msg) -> None:
        """Send one msg from src to each of dsts, in order, each with its own link delay.

        Applies ``send``'s link rule to each destination, with what does
        not depend on the destination bound once per call: the sender's
        crash, behaviour and partition group are looked up once, and each
        destination gets its own partition test, zone test, delay draw and
        queue entry, so a fan-out draws, numbers and times its messages
        exactly as that many single sends would. The message's wire form
        is encoded once, at the first inter link. A local message goes to
        each destination's inbox, as in ``send``.
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
        inbox = self._inbox if isinstance(msg, LocalMessage) else None
        due = self._due
        src_group = group_of.get(src) if group_of else None
        transcript = self.transcript
        wire = None  # encoded at the first inter link, then shared
        payload = (src, msg)
        # Bound once per call: what _push and the delay draw read per
        # destination. The sequence counter is kept in a local.
        queue = self._queue
        push = heapq.heappush
        now = self.now
        rng = self.rng_net
        sample = self.link.sample
        seq = self._seq
        try:
            for dst in dsts:
                if src_group is not None:
                    dst_group = group_of.get(dst)
                    if dst_group is not None and dst_group != src_group:
                        continue  # across the partition
                # Same-zone links are intra; any other link is inter.
                zone = zone_id if nodes[dst].zone_id == zone_id else None
                delay = sample(rng, zone)
                if transcript is not None and zone is None:
                    if wire is None:
                        wire = msg.wire_bytes()
                    transcript.append((src, dst, wire))
                if inbox is not None:
                    box = inbox.get(dst)
                    if box is None:
                        raise ConfigError(f"{dst!r} has no absorb for local {type(msg).__name__}")
                    seq += 1
                    box.append((at := now + delay + extra, seq, msg))
                    if at < due[dst]:
                        due[dst] = at
                elif dst not in deaf:
                    seq += 1
                    # In this order: (now + extra) + delay rounds differently.
                    push(queue, (now + delay + extra, seq, "msg", dst, payload))
        finally:
            if inbox is not None:
                self._held += seq - self._seq  # every number this call took went to an inbox
            self._seq = seq  # also when a send without wire_bytes raises

    # -- faults -------------------------------------------------------------

    def inject_fault(self, entry: FaultEntry) -> None:
        """Schedule a fault entry for application at its virtual time."""
        if entry.fault in ("crash", "recover", "byzantine") and entry.node not in self.nodes:
            raise ConfigError(f"unknown node {entry.node!r}")
        self._push(entry.at_ms, "fault", "", entry)

    def _apply_fault(self, entry: FaultEntry, at: float, seq: int) -> int:
        """Apply a fault due at ``(at, seq)``; returns the local deliveries
        it had absorbed first (a crash takes in what fell due before it)."""
        node = entry.node
        if entry.fault == "crash":
            box = self._inbox.get(node)
            absorbed = 0
            if box and node not in self.crashed:
                absorbed = self._absorb(node, box, at, seq)
            self.crashed.add(node)
            return absorbed
        if entry.fault == "recover":
            box = self._inbox.get(node)
            if box and node in self.crashed:
                # What fell due while the node was down is dropped, uncounted.
                self._take(node, box, at, seq)
            self.crashed.discard(node)
        elif entry.fault == "byzantine":
            self.nodes[node].behavior = entry.behavior
        elif entry.fault == "partition":
            self._group_of = {n: i for i, g in enumerate(entry.groups) for n in g}
        elif entry.fault == "heal":
            self._group_of = {}
        else:
            raise ConfigError(f"unknown fault {entry.fault!r}")
        return 0

    def _take(self, target: str, box: list, at: float, seq: int) -> list:
        """Remove and return the deliveries of ``target``'s inbox ``box`` due
        before ``(at, seq)``, in (time, seq) order: seq is unique, so the sort
        compares no message and gives a heap's pop order."""
        box.sort()
        n = bisect_left(box, (at, seq))
        taken = box[:n]
        del box[:n]
        self._held -= n
        self._due[target] = box[0][0] if box else _INF
        return taken

    def _absorb(self, target: str, box: list, at: float, seq: int) -> int:
        """Hand ``target`` every delivery of its inbox ``box`` due before
        ``(at, seq)``, in (time, seq) order; returns how many. absorb gets
        no Simulator, so nothing appends to the inbox while it runs."""
        absorb = self.nodes[target].absorb
        taken = self._take(target, box, at, seq)
        try:
            for entry in taken:
                absorb(entry[2])
        except Exception as e:
            raise RuntimeError(
                f"invariant breach at event #{entry[1]} (t={entry[0]:.3f} ms, "
                f"msg -> {target}): {e}") from e
        return len(taken)

    # -- main loop -----------------------------------------------------------

    def run_until(self, t: float) -> int:
        """Process all events with time <= t; returns the processed count.

        An exception escaping a node handler is an internal invariant
        breach: it aborts the run with a diagnostic naming the offending
        event index, virtual time, and target. Local deliveries are
        absorbed when their node's next event is due and, at the end,
        every live node's deliveries due by ``t``: they count as events.

        The cyclic garbage collector is paused for the loop, and the
        caller's setting is given back on every exit. A run makes no
        reference cycle (``tests/test_digests.py`` holds every scenario
        file to that), so reference counting frees all it drops, and the
        collector's passes would only walk the live state again and again.
        If the collector was on, one young-generation pass then runs
        inside the call, so what is left of its work is paid here.
        """
        if t < self.now:
            raise ValueError("cannot run backwards")
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(t)
        finally:
            if enabled:
                gc.enable()
                gc.collect(0)

    def _run(self, t: float) -> int:
        count = 0
        # Bound once: handlers and faults change these in place, never rebind them.
        queue, crashed, nodes, pop = self._queue, self.crashed, self.nodes, heapq.heappop
        inbox, due = self._inbox, self._due
        while queue and queue[0][0] <= t:
            at, seq, kind, target, payload = pop(queue)
            self.now = at
            if kind == "fault":
                count += 1 + self._apply_fault(payload, at, seq)
                continue
            if target in crashed:
                continue  # crash semantics: silently dropped
            # A node with absorb first takes in what fell due before this event.
            if self._held and target in due and due[target] <= at:
                count += self._absorb(target, inbox[target], at, seq)
            node = nodes[target]
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
        for target, box in inbox.items():
            if due[target] <= t and target not in crashed:
                count += self._absorb(target, box, t, _INF)
        self.processed += count
        return count
