"""Simulator node wrappers for validators, miners, and workload injectors.

These adapt the pure state machines (bft.Validator, powchain.InterNode)
to the event loop: they translate effects into sends and timers, fan
broadcasts out to the right peer sets, and host the byzantine behavior
adapters (equivocate / silent / delay — delay itself is applied by the
link layer).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

from .bft import DECISION, PROPOSAL, Broadcast, Committed, ConsensusMsg, Deadline, ProposeAt, Validator
from .chain import Block, IntraTx, signed_intra_tx
from .crypto import enc_u64
from .powchain import FEE, M_NOOP, InterNode, signed_inter_tx
from .sim import LocalMessage, Node, Simulator


# Message envelopes are slotted but not frozen: no handler writes to one,
# and a frozen dataclass pays an object.__setattr__ per field to build.

# Zone traffic: a tx to the zone committee, and a commit notice back. A
# TxSubmit only pools its tx at the receiver: it is a local message.

@dataclass(slots=True)
class TxSubmit(LocalMessage):
    tx: IntraTx


@dataclass(slots=True)
class CommitNotice:
    height: int
    block_digest: bytes
    tx_digest: bytes


# Inter-ledger traffic, which crosses a zone: each message has its wire
# form (docs/serialization.md), transcribed for the privacy scan.

@dataclass(slots=True)
class BlockMsg:
    block: Block

    def wire_bytes(self) -> bytes:
        return self.block.serialize()


@dataclass(slots=True)
class InterSubmit:
    tx: object  # InterTx

    def wire_bytes(self) -> bytes:
        return b"intersub" + self.tx.serialize()


@dataclass(slots=True)
class InterSubmitAck:
    tx_digest: bytes
    accepted: bool
    reason: str = ""

    def wire_bytes(self) -> bytes:
        return b"interack" + self.tx_digest + (b"\x01" if self.accepted else b"\x00") + self.reason.encode()


def submit_intra(sim: Simulator, node: Node, validators: list[str], payload: bytes,
                 nonce: int) -> IntraTx:
    """Sign an intra tx with ``node.key``, log it, and send it to every zone validator."""
    tx = signed_intra_tx(node.key, node.zone_id, payload, nonce)
    node.collector.intra_submit(node.zone_id, tx, sim.now)
    sim.multicast(node.node_id, validators, TxSubmit(tx))
    return tx


class ValidatorNode(Node):
    """Hosts one consensus validator and routes its effects."""

    def __init__(self, node_id: str, core: Validator, collector,
                 committee_nodes: list[str], fullnode_targets: list[str]):
        super().__init__(node_id, core.zone_id)
        self.core = core
        # committee_nodes: the zone's validators in committee order, this one included.
        i = committee_nodes.index(node_id)
        self.peers = committee_nodes[:i] + committee_nodes[i + 1:]
        # DECISIONs go to the peers and to the zone full nodes.
        self.decision_targets = self.peers + fullnode_targets
        self.subscribers: dict[bytes, str] = {}  # address -> node id for commit notices
        self.collector = collector
        self._alternates: dict[tuple, tuple] = {}  # equivocation bookkeeping

    def start(self, sim: Simulator) -> None:
        self._apply(sim, self.core.start(sim.now))

    def absorb(self, msg: TxSubmit) -> None:
        self.core.submit_tx(msg.tx)

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if type(msg) is ConsensusMsg:  # no message type is subclassed
            effects = self.core.on_msg(sim.now, msg)
            if effects:  # most votes change nothing
                self._apply(sim, effects)

    def on_timer(self, sim: Simulator, key) -> None:
        kind = key[0]
        if kind == "deadline":
            self._apply(sim, self.core.on_deadline(sim.now, key[1]))
        elif kind == "propose":
            self._apply(sim, self.core.on_propose_timer(sim.now, key[1]))

    def _apply(self, sim: Simulator, effects) -> None:
        for e in effects:
            if isinstance(e, Broadcast):
                self._fanout(sim, e.msg)
            elif isinstance(e, Deadline):
                sim.set_timer(self.node_id, e.at, ("deadline", e.epoch))
            elif isinstance(e, ProposeAt):
                sim.set_timer(self.node_id, e.at, ("propose", e.height))
            elif isinstance(e, Committed):
                self._committed(sim, e.block)

    def _committed(self, sim: Simulator, block: Block) -> None:
        self.collector.intra_commit(self.zone_id, self.core.validator_id, block, sim.now)
        subscribers = self.subscribers
        if not subscribers:
            return
        recipients = {id(tx): to for tx, to, _amount, _memo in block.transfers()}
        for tx in block.txs:
            # The sender's subscriber first, then the recipient's, each once.
            targets = []
            sub = subscribers.get(tx.sender)
            if sub:
                targets.append(sub)
            rcpt = subscribers.get(recipients.get(id(tx)))
            if rcpt and rcpt != sub:
                targets.append(rcpt)
            if targets:
                sim.multicast(self.node_id, targets,
                              CommitNotice(block.height, block.digest(), tx.digest()))

    def _fanout(self, sim: Simulator, msg: ConsensusMsg) -> None:
        if self.behavior == "silent":
            return
        if msg.kind is DECISION:
            sim.multicast(self.node_id, self.decision_targets, msg)
            return
        peers = self.peers
        if self.behavior == "equivocate" and msg.block_digest is not None:
            alt = self._equivocate(msg)
            half = len(peers) // 2
            sim.multicast(self.node_id, peers[:half], msg)
            sim.multicast(self.node_id, peers[half:], alt)
            return
        sim.multicast(self.node_id, peers, msg)

    def _equivocate(self, msg: ConsensusMsg) -> ConsensusMsg:
        """Conflicting variant of a proposal or vote for the other subset."""
        key = (msg.height, msg.round)
        if msg.kind is PROPOSAL:
            alt_block = replace(msg.block, timestamp=msg.block.timestamp + 1)
            self._alternates[key] = (msg.block_digest, alt_block.digest())
            alt = ConsensusMsg(msg.kind, msg.height, msg.round, alt_block.digest(),
                               msg.sender, block=alt_block)
        else:
            pair = self._alternates.get(key)
            alt_digest = pair[1] if pair and pair[0] == msg.block_digest else None
            alt = ConsensusMsg(msg.kind, msg.height, msg.round, alt_digest, msg.sender)
        return self.core._sign(alt)


class MinerNode(Node):
    """Inter-ledger participant that mines with a share of the hash power."""

    def __init__(self, node_id: str, inter: InterNode, rng,
                 mean_interval_ms: float, share: float, collector=None):
        super().__init__(node_id, None)
        self.inter = inter
        self.rng = rng
        self.mean_interval_ms = mean_interval_ms
        self.share = share
        self.peers: list[str] = []  # every other inter-ledger node
        self.collector = collector  # set on the observer miner alone
        self._epoch = 0
        self._nonce = 0

    def start(self, sim: Simulator) -> None:
        self._reschedule(sim)

    def _reschedule(self, sim: Simulator) -> None:
        self._epoch += 1
        delay = self.inter.sample_block_delay(self.rng, self.mean_interval_ms, self.share)
        sim.set_timer(self.node_id, sim.now + delay, self._epoch)

    def on_timer(self, sim: Simulator, key) -> None:
        if key != self._epoch:
            return  # a win scheduled before the tip last changed
        block = self.inter.build_block(sim.now, nonce=self._nonce)
        self._nonce += 1
        self._publish(sim, block)
        self._reschedule(sim)

    def _publish(self, sim: Simulator, block: Block) -> None:
        res = self.inter.on_block(block)
        if self.collector is not None:
            self.collector.inter_block(res, sim.now)
        sim.multicast(self.node_id, self.peers, BlockMsg(block))

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        # Exact types, the commonest first: no message type is subclassed.
        kind = type(msg)
        if kind is InterSubmit:
            ok, reason = self.inter.submit_tx(msg.tx)
            sim.send(self.node_id, src, InterSubmitAck(msg.tx.digest(), ok, reason))
        elif kind is BlockMsg:
            res = self.inter.on_block(msg.block)
            if res.adopted_blocks and self.collector is not None:
                self.collector.inter_block(res, sim.now)
            if res.tip_changed:
                self._reschedule(sim)


def _spaced_times(spacing_ms: float, until_ms: float) -> Iterator[float]:
    """0, spacing, 2*spacing, ... below ``until_ms``, each the running sum
    of the one before and ``spacing_ms``: not i*spacing, which rounds
    differently; the float times (and so every event-log digest) depend on it."""
    t = 0.0
    while t < until_ms:
        yield t
        t += spacing_ms


class ScheduledLoad(Node):
    """Workload generator: ``submit(sim, i)`` at each of its scheduled times.

    Explicit times are sorted; otherwise times start at 0 ms and are
    spaced 1000/rate ms apart while below ``until_ms``, each computed when
    the one before it fires.
    """

    def __init__(self, node_id: str, zone_id: int | None, rate_per_s: float,
                 until_ms: float, times: list[float] | None):
        super().__init__(node_id, zone_id)
        if times is not None:
            self._times = iter(sorted(times))
        elif rate_per_s > 0:
            self._times = _spaced_times(1000.0 / rate_per_s, until_ms)
        else:
            self._times = iter(())

    def start(self, sim: Simulator) -> None:
        self._schedule(sim, 0)

    def on_timer(self, sim: Simulator, key) -> None:
        i = key[1]
        self.submit(sim, i)
        self._schedule(sim, i + 1)

    def _schedule(self, sim: Simulator, i: int) -> None:
        at = next(self._times, None)
        if at is not None:
            sim.set_timer(self.node_id, at, ("tx", i))


class IntraLoadNode(ScheduledLoad):
    """Deterministic intra-ledger workload: evenly spaced signed submissions."""

    def __init__(self, node_id: str, zone_id: int, key, rng, validators: list[str],
                 rate_per_s: float, until_ms: float,
                 collector, payload_bytes: int, times: list[float] | None):
        super().__init__(node_id, zone_id, rate_per_s, until_ms, times)
        self.key = key
        self.rng = rng
        self.validators = validators
        self.payload_bytes = payload_bytes
        self.collector = collector

    def submit(self, sim: Simulator, i: int) -> None:
        submit_intra(sim, self, self.validators, self.rng.randbytes(self.payload_bytes), i)


class InterLoadNode(ScheduledLoad):
    """Deterministic inter-ledger workload: salted no-op calls at a fixed rate."""

    def __init__(self, node_id: str, key, miners: list[str],
                 rate_per_s: float, until_ms: float,
                 collector, times: list[float] | None):
        super().__init__(node_id, None, rate_per_s, until_ms, times)
        self.key = key
        self.miners = miners
        self.collector = collector

    def submit(self, sim: Simulator, i: int) -> None:
        tx = signed_inter_tx(self.key, 0, M_NOOP, args=enc_u64(i), fee=FEE)
        self.collector.inter_submit(tx, sim.now)
        sim.multicast(self.node_id, self.miners, InterSubmit(tx))
