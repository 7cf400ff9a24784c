"""Simulator node wrappers for validators, miners, and workload injectors.

These adapt the pure state machines (bft.Validator, powchain.InterNode)
to the event loop: they translate effects into sends and timers, fan
broadcasts out to the right peer sets, and host the byzantine behavior
adapters (equivocate / silent / delay — delay itself is applied by the
link layer).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bft import Broadcast, Committed, ConsensusMsg, Deadline, MsgKind, ProposeAt, Validator
from .chain import Block, IntraTx, parse_transfer, signed_intra_tx
from .crypto import enc_u64
from .powchain import M_NOOP, InterNode, signed_inter_tx
from .sim import Node, Simulator


@dataclass(frozen=True)
class TxSubmit:
    tx: IntraTx

    def wire_bytes(self) -> bytes:
        return b"txsub" + self.tx.serialize()


@dataclass(frozen=True)
class CommitNotice:
    zone_id: int
    height: int
    block_digest: bytes
    tx_digest: bytes

    def wire_bytes(self) -> bytes:
        return b"notice" + self.block_digest + self.tx_digest


@dataclass(frozen=True)
class BlockMsg:
    block: Block

    def wire_bytes(self) -> bytes:
        return self.block.serialize()


@dataclass(frozen=True)
class InterSubmit:
    tx: object  # InterTx

    def wire_bytes(self) -> bytes:
        return b"intersub" + self.tx.serialize()


@dataclass(frozen=True)
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
    if node.collector is not None:
        node.collector.intra_submit(node.zone_id, tx, sim.now)
    for v in validators:
        sim.send(node.node_id, v, TxSubmit(tx))
    return tx


class ValidatorNode(Node):
    """Hosts one consensus validator and routes its effects."""

    def __init__(self, node_id: str, core: Validator, collector=None):
        super().__init__(node_id, core.zone_id)
        self.core = core
        self.committee_nodes: list[str] = []  # committee order, includes self
        self.fullnode_targets: list[str] = []  # zone full nodes fed DECISIONs
        self.subscribers: dict[bytes, str] = {}  # address -> node id for commit notices
        self.collector = collector
        self._alternates: dict[tuple, tuple] = {}  # equivocation bookkeeping

    def start(self, sim: Simulator) -> None:
        self._apply(sim, self.core.start(sim.now))

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if isinstance(msg, TxSubmit):
            self.core.submit_tx(msg.tx)
        elif isinstance(msg, ConsensusMsg):
            self._apply(sim, self.core.on_msg(sim.now, msg))

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
        if self.collector is not None:
            self.collector.intra_commit(self.zone_id, self.core.validator_id, block, sim.now)
        for tx in block.txs:
            targets = set()
            sub = self.subscribers.get(tx.sender)
            if sub:
                targets.add(sub)
            parsed = parse_transfer(tx.payload)
            if parsed:
                rcpt = self.subscribers.get(parsed[0])
                if rcpt:
                    targets.add(rcpt)
            for t in targets:
                sim.send(self.node_id, t,
                         CommitNotice(self.zone_id, block.height, block.digest(), tx.digest()))

    def _fanout(self, sim: Simulator, msg: ConsensusMsg) -> None:
        if self.behavior == "silent":
            return
        peers = [n for n in self.committee_nodes if n != self.node_id]
        if msg.kind == MsgKind.DECISION:
            for t in peers + self.fullnode_targets:
                sim.send(self.node_id, t, msg)
            return
        if self.behavior == "equivocate" and msg.block_digest is not None:
            alt = self._equivocate(msg)
            half = len(peers) // 2
            for t in peers[:half]:
                sim.send(self.node_id, t, msg)
            for t in peers[half:]:
                sim.send(self.node_id, t, alt)
            return
        for t in peers:
            sim.send(self.node_id, t, msg)

    def _equivocate(self, msg: ConsensusMsg) -> ConsensusMsg:
        """Conflicting variant of a proposal or vote for the other subset."""
        key = (msg.height, msg.round)
        if msg.kind == MsgKind.PROPOSAL:
            alt_block = replace(msg.block, timestamp=msg.block.timestamp + 1)
            self._alternates[key] = (msg.block_digest, alt_block.digest())
            alt = ConsensusMsg(msg.kind, msg.height, msg.round, alt_block.digest(),
                               msg.sender, block=alt_block)
        else:
            pair = self._alternates.get(key)
            alt_digest = pair[1] if pair and pair[0] == msg.block_digest else None
            alt = ConsensusMsg(msg.kind, msg.height, msg.round, alt_digest, msg.sender)
        return self.core._sign(alt)


# Puzzle mode: nonces ground per timer tick, and the virtual time between ticks.
PUZZLE_BATCH = 512
PUZZLE_POLL_MS = 50.0


class MinerNode(Node):
    """Inter-ledger participant; mines when it holds hash power."""

    def __init__(self, node_id: str, inter: InterNode, rng, mode: str = "virtual",
                 mean_interval_ms: float = 4500.0, share: float = 0.0, collector=None):
        super().__init__(node_id, None)
        self.inter = inter
        self.rng = rng
        self.mode = mode
        self.mean_interval_ms = mean_interval_ms
        self.share = share
        self.peers: list[str] = []  # every other inter-ledger node
        self.collector = collector
        self._epoch = 0
        self._nonce = 0

    def start(self, sim: Simulator) -> None:
        if self.share <= 0:
            return
        if self.mode == "virtual":
            self._reschedule(sim)
        else:
            sim.set_timer(self.node_id, sim.now + PUZZLE_POLL_MS, ("batch",))

    def _reschedule(self, sim: Simulator) -> None:
        self._epoch += 1
        delay = self.inter.sample_block_delay(self.rng, self.mean_interval_ms, self.share)
        sim.set_timer(self.node_id, sim.now + delay, ("win", self._epoch))

    def on_timer(self, sim: Simulator, key) -> None:
        if key[0] == "win":
            if key[1] != self._epoch:
                return
            block = self.inter.build_block(sim.now, nonce=self._nonce)
            self._nonce += 1
            self._publish(sim, block)
            self._reschedule(sim)
        elif key[0] == "batch":
            block = self.inter.mine_step(sim.now, start_nonce=self._nonce, batch=PUZZLE_BATCH)
            self._nonce += PUZZLE_BATCH
            if block is not None:
                self._publish(sim, block)
            sim.set_timer(self.node_id, sim.now + PUZZLE_POLL_MS, ("batch",))

    def _publish(self, sim: Simulator, block: Block) -> None:
        res = self.inter.on_block(block, sim.now)
        if not res.adopted:
            return
        if self.collector is not None:
            self.collector.inter_block(self.node_id, block, res, sim.now)
        for t in self.peers:
            sim.send(self.node_id, t, BlockMsg(block))

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if isinstance(msg, BlockMsg):
            res = self.inter.on_block(msg.block, sim.now)
            if res.adopted and self.collector is not None:
                self.collector.inter_block(self.node_id, msg.block, res, sim.now)
            if res.tip_changed and self.mode == "virtual" and self.share > 0:
                self._reschedule(sim)
        elif isinstance(msg, InterSubmit):
            ok, reason = self.inter.submit_tx(msg.tx)
            sim.send(self.node_id, src, InterSubmitAck(msg.tx.digest(), ok, reason))


class ScheduledLoad(Node):
    """Workload generator: ``submit(sim, i)`` at each of its scheduled times.

    Explicit times are sorted; otherwise times start at ``offset_ms`` and
    are spaced 1000/rate ms apart while below ``until_ms``.
    """

    def __init__(self, node_id: str, zone_id: int | None, rate_per_s: float,
                 offset_ms: float, until_ms: float, times: list[float] | None):
        super().__init__(node_id, zone_id)
        if times is not None:
            self.times = sorted(times)
        else:
            self.times = []
            if rate_per_s > 0:
                spacing = 1000.0 / rate_per_s
                # Accumulated, not offset + i*spacing: the float times (and
                # so every event-log digest) depend on it.
                t = offset_ms
                while t < until_ms:
                    self.times.append(t)
                    t += spacing

    def start(self, sim: Simulator) -> None:
        if self.times:
            sim.set_timer(self.node_id, self.times[0], ("tx", 0))

    def on_timer(self, sim: Simulator, key) -> None:
        i = key[1]
        self.submit(sim, i)
        if i + 1 < len(self.times):
            sim.set_timer(self.node_id, self.times[i + 1], ("tx", i + 1))


class IntraLoadNode(ScheduledLoad):
    """Deterministic intra-ledger workload: evenly spaced signed submissions."""

    def __init__(self, node_id: str, zone_id: int, key, rng, validators: list[str],
                 rate_per_s: float, offset_ms: float, until_ms: float,
                 payload_bytes: int = 64, collector=None, times: list[float] | None = None):
        super().__init__(node_id, zone_id, rate_per_s, offset_ms, until_ms, times)
        self.key = key
        self.rng = rng
        self.validators = validators
        self.payload_bytes = payload_bytes
        self.collector = collector

    def submit(self, sim: Simulator, i: int) -> None:
        submit_intra(sim, self, self.validators, self.rng.randbytes(self.payload_bytes), i)


class InterLoadNode(ScheduledLoad):
    """Deterministic inter-ledger workload: salted no-op calls at a fixed rate."""

    def __init__(self, node_id: str, key, miners: list[str], fee: int,
                 rate_per_s: float, offset_ms: float, until_ms: float,
                 collector=None, times: list[float] | None = None):
        super().__init__(node_id, None, rate_per_s, offset_ms, until_ms, times)
        self.key = key
        self.miners = miners
        self.fee = fee
        self.collector = collector

    def submit(self, sim: Simulator, i: int) -> None:
        tx = signed_inter_tx(self.key, 0, M_NOOP, args=enc_u64(i), fee=self.fee)
        if self.collector is not None:
            self.collector.inter_submit(tx, sim.now)
        for m in self.miners:
            sim.send(self.node_id, m, InterSubmit(tx))
