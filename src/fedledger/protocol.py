"""Role actors and the four-round cross-domain exchange protocol.

Both ends of a session climb one ladder, ``Phase``: IDLE < DELEGATED <
CONFIGURED < COMMITTED < SETTLED, or end in FAILED. Sellers and buyers
are light clients of their own zone: record the service requirements on
the private zone ledger, build a checkpoint once committed, delegate to
the first broker in the zone's delegation list, then ask that broker for
each further rung (its ``goal``) and take the rung it reports as the
``phase``, failing over to the next delegate whenever a request times
out (crash-fault model).

Brokers (publisher side for sellers, subscriber side for buyers) are
zone full nodes with inter-ledger accounts. A broker serves sessions
with a reconciliation loop: every chain update re-evaluates what the
confirmed and tip states say about the session's contract, reports each
rung reached once, and takes the single next action — pick/join a
contract, ask the admin to rebind a crashed predecessor, submit the
commit or settlement call, or forward the intra-ledger payment. The loop
is idempotent, which is what makes takeover after a predecessor crash
safe at any point in the protocol.

Privacy: nothing that crosses a zone boundary carries payload bytes —
only digests, checkpoints, and contract metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .bft import ConsensusMsg, MsgKind, ZoneFollower, committee_bounds
from .chain import Checkpoint, IntraTx, transfer_payload, verify_checkpoint
from .contract import BrokerInfo, BrokerStatus
from .crypto import enc_address, enc_u32, enc_u64, sha256
from .nodes import BlockMsg, CommitNotice, InterSubmit, InterSubmitAck, submit_intra
from .powchain import (
    FEE,
    M_COMMIT,
    M_CONFIG_PUB,
    M_CONFIG_SUB,
    M_REPLACE,
    M_SETTLE,
    InterNode,
    InterTx,
    signed_inter_tx,
)
from .sim import INTER_MEDIAN_MS, INTER_SIGMA, Node, Simulator

PUB = "pub"
SUB = "sub"
OTHER_SIDE = {PUB: SUB, SUB: PUB}


class Phase(str, Enum):
    """A session's progress. Members rank in definition order (terminal
    FAILED last) and equal the name they are logged under; ``verb`` is
    the word PhaseReq and PhaseDone put on the wire."""

    IDLE = ("IDLE", "")
    DELEGATED = ("DELEGATED", "")
    CONFIGURED = ("CONFIGURED", "configure")
    COMMITTED = ("COMMITTED", "commit")
    SETTLED = ("SETTLED", "settle")
    FAILED = ("FAILED", "")

    def __new__(cls, name: str, verb: str):
        phase = str.__new__(cls, name)
        phase._value_ = name
        phase.verb = verb
        phase.rank = len(cls.__members__)
        return phase

    __str__ = str.__str__  # the bare name on every Python version


IDLE, DELEGATED, CONFIGURED, COMMITTED, SETTLED, FAILED = Phase


class SideView(NamedTuple):
    """One side of a contract record."""
    delegate: bytes  # the broker bound there
    status: int  # 1 once configured
    service: bytes
    committed: bool


def side_view(info: BrokerInfo, side: str) -> SideView:
    if side == PUB:
        return SideView(info.publisher_id, info.pub_status, info.pub_service, info.pub_committed)
    return SideView(info.subscriber_id, info.sub_status, info.sub_service, info.sub_committed)


# -- protocol messages -------------------------------------------------------

@dataclass(frozen=True)
class DelegationReq:
    session_id: int
    side: str
    zone_id: int
    requester: bytes
    checkpoint: Checkpoint
    service: bytes  # digest of the requirements payload
    deposit: int

    def wire_bytes(self) -> bytes:
        return (
            b"dreq" + enc_u64(self.session_id) + self.side.encode()
            + enc_u32(self.zone_id) + enc_address(self.requester)
            + self.checkpoint.serialize() + self.service + enc_u64(self.deposit)
        )


@dataclass(frozen=True)
class DelegationAck:
    session_id: int
    delegate: bytes

    def wire_bytes(self) -> bytes:
        return b"dack" + enc_u64(self.session_id) + enc_address(self.delegate)


@dataclass(frozen=True)
class DelegationDeny:
    session_id: int
    reason: str

    def wire_bytes(self) -> bytes:
        return b"dnak" + enc_u64(self.session_id) + self.reason.encode()


@dataclass(frozen=True)
class PhaseReq:
    """A client asks its delegate to take the session to ``phase``."""

    session_id: int
    phase: Phase  # CONFIGURED | COMMITTED | SETTLED

    def wire_bytes(self) -> bytes:
        return b"preq" + enc_u64(self.session_id) + self.phase.verb.encode()


@dataclass(frozen=True)
class PhaseDone:
    session_id: int
    phase: Phase
    contract_id: int = 0

    def wire_bytes(self) -> bytes:
        return b"pdon" + enc_u64(self.session_id) + self.phase.verb.encode() + enc_u64(self.contract_id)


@dataclass(frozen=True)
class SessionFail:
    session_id: int
    reason: str

    def wire_bytes(self) -> bytes:
        return b"sfail" + enc_u64(self.session_id) + self.reason.encode()


@dataclass(frozen=True)
class ReplaceReq:
    contract_id: int
    side: str  # which binding to move
    old: bytes
    new: bytes

    def wire_bytes(self) -> bytes:
        return (b"rreq" + enc_u64(self.contract_id) + self.side.encode()
                + enc_address(self.old) + enc_address(self.new))


@dataclass(frozen=True)
class ReplaceDone:
    contract_id: int
    old: bytes
    new: bytes
    ok: bool

    def wire_bytes(self) -> bytes:
        return b"rdon" + enc_u64(self.contract_id) + enc_address(self.old) + enc_address(self.new) + (
            b"\x01" if self.ok else b"\x00")


@dataclass(frozen=True)
class Ping:
    """Delegate liveness probe; a missed reply triggers failover."""

    session_id: int
    seq: int

    def wire_bytes(self) -> bytes:
        return b"ping" + enc_u64(self.session_id) + enc_u64(self.seq)


@dataclass(frozen=True)
class Pong:
    session_id: int
    seq: int

    def wire_bytes(self) -> bytes:
        return b"pong" + enc_u64(self.session_id) + enc_u64(self.seq)


@dataclass(frozen=True)
class CrossVerifyReq:
    query_id: int
    checkpoint: Checkpoint

    def wire_bytes(self) -> bytes:
        return b"xvq" + enc_u64(self.query_id) + self.checkpoint.serialize()


@dataclass(frozen=True)
class CrossVerifyResp:
    query_id: int
    found: bool

    def wire_bytes(self) -> bytes:
        return b"xvr" + enc_u64(self.query_id) + (b"\x01" if self.found else b"\x00")


# -- inter-ledger participation shared by delegates and the admin ---------------

class InterParticipant(Node):
    """Node with an inter-ledger view: submits txs and tracks their fate."""

    def __init__(self, node_id: str, zone_id: int | None, key, inter: InterNode, miners: list[str]):
        super().__init__(node_id, zone_id)
        self.key = key
        self.inter = inter
        self.miners = miners
        self._rejections: dict[bytes, list[str]] = {}

    def submit_inter(self, sim: Simulator, tx) -> None:
        self._rejections[tx.digest()] = []
        sim.multicast(self.node_id, self.miners, InterSubmit(tx))

    def _handle_ack(self, ack: InterSubmitAck) -> str | None:
        """Returns a rejection reason once every miner has rejected the tx."""
        lst = self._rejections.get(ack.tx_digest)
        if lst is None:
            return None
        if ack.accepted:
            self._rejections.pop(ack.tx_digest, None)
            return None
        lst.append(ack.reason)
        if len(lst) >= len(self.miners):
            self._rejections.pop(ack.tx_digest, None)
            return lst[0]
        return None

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if isinstance(msg, BlockMsg):
            res = self.inter.on_block(msg.block)
            if res.tip_changed:
                self.on_chain_update(sim)
        elif isinstance(msg, InterSubmitAck):
            reason = self._handle_ack(msg)
            if reason is not None:
                self.on_submit_failed(sim, msg.tx_digest, reason)

    def on_chain_update(self, sim: Simulator) -> None:
        pass

    def on_submit_failed(self, sim: Simulator, tx_digest: bytes, reason: str) -> None:
        pass


# -- broker delegate -------------------------------------------------------------

@dataclass
class DelegateSession:
    session_id: int
    side: str
    client_node: str
    client_addr: bytes
    checkpoint: Checkpoint
    service: bytes
    deposit: int
    goal: Phase = DELEGATED  # the highest rung the client asked for
    reported: Phase = DELEGATED  # the highest rung reported to the client
    contract_id: int | None = None
    inflight: InterTx | None = None  # submitted, not yet confirmed
    replacing: bool = False
    payment_submitted: bool = False
    config_retries: int = 0
    salt: int = 0  # failed commit/settle receipts; varies the bytes of the retry
    abandoned: set = field(default_factory=set)  # half-bindings left behind


MAX_CONFIG_RETRIES = 25


class DelegateNode(InterParticipant):
    """Data publisher / subscriber broker serving delegated sessions."""

    def __init__(self, node_id: str, zone_id: int, key, follower: ZoneFollower,
                 inter: InterNode, miners: list[str], admin_node: str,
                 registry: set, collector):
        super().__init__(node_id, zone_id, key, inter, miners)
        self.follower = follower
        self.admin_node = admin_node
        self.registry = registry
        self.collector = collector
        self.sessions: dict[int, DelegateSession] = {}
        self.zone_validators: list[str] = []  # wired by the runner
        self._pending_delegations: list[tuple[str, DelegationReq]] = []
        self._intra_nonce = 0

    # -- membership / checkpoint verification ------------------------------

    def _verify_request(self, m: DelegationReq) -> str | None:
        if m.zone_id != self.zone_id or m.requester not in self.registry:
            return "UnknownIdentity"
        if not verify_checkpoint(m.checkpoint, self.follower.ledger):
            return "BadCheckpoint"
        return None

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if isinstance(msg, ConsensusMsg) and msg.kind == MsgKind.DECISION:
            appended = self.follower.on_decision(msg.block)
            if appended:
                self._retry_pending_delegations(sim)
                self._advance_all(sim)
            return
        if isinstance(msg, DelegationReq):
            self._on_delegation(sim, src, msg)
            return
        if isinstance(msg, PhaseReq):
            s = self.sessions.get(msg.session_id)
            if s is None:
                return
            if msg.phase.rank > s.goal.rank:
                s.goal = msg.phase
            self._advance(sim, s)
            return
        if isinstance(msg, Ping):
            sim.send(self.node_id, src, Pong(msg.session_id, msg.seq))
            s = self.sessions.get(msg.session_id)
            if s is not None:
                self._advance(sim, s)
            return
        if isinstance(msg, ReplaceDone):
            for s in self.sessions.values():
                if s.contract_id == msg.contract_id and s.replacing:
                    s.replacing = False
                    self._advance(sim, s)
            return
        if isinstance(msg, CrossVerifyReq):
            found = self.inter.find_checkpoint(msg.checkpoint)
            sim.send(self.node_id, src, CrossVerifyResp(msg.query_id, found))
            return
        super().on_message(sim, src, msg)

    def _on_delegation(self, sim: Simulator, src: str, m: DelegationReq) -> None:
        if m.checkpoint.block_height > self.follower.ledger.height:
            # Our replica may simply lag the client's commit notices.
            self._pending_delegations.append((src, m))
            return
        err = self._verify_request(m)
        if err is not None:
            sim.send(self.node_id, src, DelegationDeny(m.session_id, err))
            return
        s = self.sessions.get(m.session_id)
        if s is None:
            s = DelegateSession(m.session_id, m.side, src, m.requester,
                                m.checkpoint, m.service, m.deposit)
            self.sessions[m.session_id] = s
        else:
            s.client_node = src
        sim.send(self.node_id, src, DelegationAck(m.session_id, self.key.address))

    def _retry_pending_delegations(self, sim: Simulator) -> None:
        still = []
        for src, m in self._pending_delegations:
            if m.checkpoint.block_height > self.follower.ledger.height:
                still.append((src, m))
            else:
                self._on_delegation(sim, src, m)
        self._pending_delegations = still

    # -- chain-driven reconciliation ------------------------------------------

    def on_chain_update(self, sim: Simulator) -> None:
        self._advance_all(sim)

    def on_submit_failed(self, sim: Simulator, tx_digest: bytes, reason: str) -> None:
        for s in self.sessions.values():
            if s.inflight is not None and s.inflight.digest() == tx_digest:
                s.inflight = None
                if reason != "Duplicate":  # a duplicate is already known to the network
                    self._report(sim, s, FAILED, reason=reason)
                return

    def _advance_all(self, sim: Simulator) -> None:
        for s in self.sessions.values():
            self._advance(sim, s)

    def _report(self, sim: Simulator, s: DelegateSession, phase: Phase,
                cid: int = 0, reason: str = "") -> None:
        """Tell the client the session reached ``phase``, once per rung:
        PhaseDone, or SessionFail with ``reason`` for FAILED."""
        if phase.rank <= s.reported.rank:
            return
        s.reported = phase
        msg = SessionFail(s.session_id, reason) if phase == FAILED else PhaseDone(s.session_id, phase, cid)
        sim.send(self.node_id, s.client_node, msg)

    def _find_bound(self, state, s: DelegateSession):
        """Contract whose our-side service digest matches this session."""
        if s.contract_id is not None:
            info = state.contracts.get(s.contract_id)
            if info is not None and self._side_bound(info, s):
                return s.contract_id, info
        for cid in sorted(state.contracts):
            if cid in s.abandoned:
                continue
            info = state.contracts[cid]
            if self._side_bound(info, s):
                return cid, info
        return None, None

    def _side_bound(self, info, s: DelegateSession) -> bool:
        mine = side_view(info, s.side)
        return mine.status == 1 and mine.service == s.service

    def _counterpart_match(self, state, s: DelegateSession) -> int | None:
        other = OTHER_SIDE[s.side]
        for cid in sorted(state.contracts):
            info = state.contracts[cid]
            theirs = side_view(info, other)
            if theirs.status == 1 and theirs.service == s.service and side_view(info, s.side).status == 0:
                return cid
        return None

    def _pick_target(self, state, s: DelegateSession) -> int | None:
        """Matching rule: counterpart with equal service digest, else an
        unused record chosen by rendezvous hash.

        Hashing (service, contract id) spreads concurrent sessions across
        the pool and makes both sides of one session prefer the same
        record even while each other's configuration is still in flight.
        """
        match = self._counterpart_match(state, s)
        if match is not None:
            return match
        best, best_rank = None, None
        for cid, info in state.contracts.items():
            if info.is_unused():
                rank = sha256(s.service + cid.to_bytes(8, "big"))
                if best_rank is None or rank < best_rank:
                    best, best_rank = cid, rank
        return best

    def _resolve_inflight(self, s: DelegateSession) -> bool:
        """True when the session has no unresolved submitted transaction."""
        if s.inflight is None:
            return True
        receipt = self.inter.canonical_receipts.get(s.inflight.digest())
        if receipt is None:
            return False  # still pending somewhere, or racing a reorg
        height, status = receipt
        if height > self.inter.confirmed_height:
            return False  # included but not yet confirmed
        if status != "ok":
            if s.inflight.method in (M_CONFIG_PUB, M_CONFIG_SUB):
                s.config_retries += 1
            else:
                s.salt += 1
        s.inflight = None
        return True

    def _submit(self, sim: Simulator, s: DelegateSession, cid: int, method: str, **call) -> None:
        s.inflight = signed_inter_tx(self.key, cid, method, fee=FEE, **call)
        self.submit_inter(sim, s.inflight)

    def _call(self, sim: Simulator, s: DelegateSession, cid: int, method: str) -> None:
        """Submit a commit or settle call. A retry after a failed receipt
        carries a salt the contract ignores: the same bytes again would be
        refused by every miner as a duplicate."""
        self._submit(sim, s, cid, method, args=enc_u64(s.salt) if s.salt else b"")

    def _advance(self, sim: Simulator, s: DelegateSession) -> None:
        if s.reported == FAILED or s.goal == DELEGATED:
            return
        if not self._resolve_inflight(s):
            return
        tip = self.inter.tip_state()
        conf = self.inter.confirmed_state()

        cid, info_tip = self._find_bound(tip, s)
        if cid is not None and s.side == PUB and side_view(info_tip, SUB).status == 0:
            # Split session: our half landed on one record while the
            # counterparty visibly settled on another. The publisher side
            # (which holds no escrow) abandons its half and rejoins.
            elsewhere = self._counterpart_match(tip, s)
            if elsewhere is not None and elsewhere != cid:
                s.abandoned.add(cid)
                s.contract_id = None
                cid, info_tip = None, None
        if cid is None:
            # Nothing bound for this session yet: pick a contract and configure.
            target = None if s.config_retries > MAX_CONFIG_RETRIES else self._pick_target(tip, s)
            if target is None:
                self._report(sim, s, FAILED, reason="NoContract")
                return
            method, attached = (M_CONFIG_PUB, 0) if s.side == PUB else (M_CONFIG_SUB, s.deposit)
            self._submit(sim, s, target, method, args=s.service, attached=attached,
                         checkpoint=s.checkpoint)
            return

        s.contract_id = cid

        # Milestones report on-chain facts from the confirmed state; they do
        # not depend on who holds the binding (a crashed predecessor's
        # progress still counts).
        info_conf = conf.contracts.get(cid)
        conf_side = info_conf is not None and self._side_bound(info_conf, s)
        if conf_side:
            self._report(sim, s, CONFIGURED, cid)
            if s.goal.rank >= COMMITTED.rank and info_conf.broker_status >= BrokerStatus.COMMITTED:
                self._report(sim, s, COMMITTED, cid)
            if s.goal == SETTLED and info_conf.broker_status == BrokerStatus.PAID:
                # Fully settled on chain: forwarding the payment needs no
                # binding, so a successor can finish even when the sequential
                # rebind chain is moot.
                self._finish_payment(sim, s, cid)
                return

        mine = side_view(info_tip, s.side)
        if mine.delegate != self.key.address:
            if info_tip.broker_status == BrokerStatus.PAID:
                return  # wait for the payout to confirm; payment path above
            # A crashed predecessor holds the binding: ask the admin to rebind.
            if not s.replacing:
                s.replacing = True
                sim.send(self.node_id, self.admin_node,
                         ReplaceReq(cid, s.side, mine.delegate, self.key.address))
            return

        if not conf_side:
            return
        if s.goal.rank >= COMMITTED.rank and not mine.committed \
                and side_view(info_tip, OTHER_SIDE[s.side]).status == 1:
            self._call(sim, s, cid, M_COMMIT)
            return
        if s.goal == SETTLED and info_tip.broker_status == BrokerStatus.COMMITTED:
            self._call(sim, s, cid, M_SETTLE)

    def _finish_payment(self, sim: Simulator, s: DelegateSession, cid: int) -> None:
        # Buyer side: the confirmed PAID status is the service receipt.
        # Publisher side: the seller is paid once some delegate (maybe a
        # crashed predecessor) has forwarded the escrowed value in-zone.
        if s.side == SUB or (s.client_addr, cid) in self.follower.book.paid:
            self._report(sim, s, SETTLED, cid)
            return
        if not s.payment_submitted:
            s.payment_submitted = True
            payload = transfer_payload(s.client_addr, s.deposit, memo=cid)
            submit_intra(sim, self, self.zone_validators, payload, self._intra_nonce)
            self._intra_nonce += 1


# -- system admin -----------------------------------------------------------------

class AdminNode(InterParticipant):
    """Holds the contract admin account; serves delegate rebind requests.

    The contract only accepts next-in-list replacements, so reaching a
    delegate past one or more dead intermediates takes a chain of
    sequential rebinds: the admin drives them one step at a time, waiting
    for each to reach the chain tip before submitting the next.
    """

    def __init__(self, node_id: str, key, inter: InterNode, miners: list[str]):
        super().__init__(node_id, None, key, inter, miners)
        self._watches: dict[tuple, list[str]] = {}  # (cid, side, new) -> requesting node ids
        self._step_sent: dict[tuple, tuple] = {}  # (cid, side) -> (frm, to) awaiting tip
        self._salt = 0

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if isinstance(msg, ReplaceReq):
            key = (msg.contract_id, msg.side, msg.new)
            self._watches.setdefault(key, []).append(src)
            self._drive(sim)
            return
        super().on_message(sim, src, msg)

    def on_chain_update(self, sim: Simulator) -> None:
        if self._watches:
            self._drive(sim)

    def _drive(self, sim: Simulator) -> None:
        conf = self.inter.confirmed_state()
        tip = self.inter.tip_state()
        done = []
        for (cid, side, new), requesters in self._watches.items():
            info_conf = conf.contracts.get(cid)
            if info_conf is not None and side_view(info_conf, side).delegate == new:
                sim.multicast(self.node_id, requesters, ReplaceDone(cid, bytes(20), new, True))
                done.append((cid, side, new))
                continue
            info = tip.contracts.get(cid)
            if info is None:
                continue
            cur = side_view(info, side).delegate
            if cur == new:
                self._step_sent.pop((cid, side), None)
                continue  # at tip; wait for confirmation
            lst = info.delegation_list
            if cur not in lst or new not in lst or lst.index(new) <= lst.index(cur):
                sim.multicast(self.node_id, requesters, ReplaceDone(cid, cur, new, False))
                done.append((cid, side, new))
                continue
            step = (cur, lst[lst.index(cur) + 1])
            sent = self._step_sent.get((cid, side))
            if sent is not None and sent[0] == step:
                # Already submitted; resubmit (fresh salt) only if the tx
                # resolved as failed while the binding still lags, e.g.
                # after an unlucky reorg replay.
                receipt = self.inter.canonical_receipts.get(sent[1])
                if receipt is None or receipt[1] == "ok":
                    continue
            self._salt += 1
            tx = signed_inter_tx(self.key, cid, M_REPLACE,
                                 args=step[0] + step[1] + self._salt.to_bytes(8, "big"),
                                 fee=FEE)
            self._step_sent[(cid, side)] = (step, tx.digest())
            self.submit_inter(sim, tx)
        for key in done:
            self._watches.pop(key, None)
            self._step_sent.pop((key[0], key[1]), None)


# -- session clients ------------------------------------------------------------------

# How long a client waits for its own intra tx to commit before it fails
# the session with IntraTimeout.
INTRA_TIMEOUT_MS = 20_000.0
# A client's ack and ping timeout: 5x the mean one-way inter-domain delay
# (the mean of the lognormal link delay).
ACK_TIMEOUT_MS = 5.0 * (INTER_MEDIAN_MS * math.exp(INTER_SIGMA ** 2 / 2.0))


@dataclass
class SessionConfig:
    session_id: int
    side: str  # PUB for seller, SUB for buyer
    zone_id: int
    start_ms: float
    payload: bytes  # shared requirements payload (rendezvous key = its digest)
    deposit: int
    op_timeout_ms: float
    deliver_after_ms: float = 0.0  # data delivery / payment readiness flag delay


class ClientNode(Node):
    """Seller or buyer: light client driving one exchange session."""

    def __init__(self, node_id: str, key, cfg: SessionConfig, validators: list[str],
                 delegates: list[tuple[str, bytes]], collector):
        super().__init__(node_id, cfg.zone_id)
        self.key = key
        self.cfg = cfg
        self.validators = validators  # the zone committee, in committee order
        self.delegates = delegates  # zone delegation list: (node id, address)
        # Matching commit notices required: f+1 include at least one honest validator.
        self.need = committee_bounds(len(validators))[0] + 1
        self.collector = collector
        self.phase = IDLE
        self.phase_times: dict[str, float] = {}
        self.fail_reason: str | None = None
        self.epoch = 0
        self.goal: Phase | None = None  # the rung last requested from the delegate
        self.contract_id: int | None = None
        self.checkpoint: Checkpoint | None = None
        self.funded = False
        self.failovers = 0  # also the index of the current delegate
        self._notice_tally: dict[bytes, dict[tuple, set]] = {}
        self._req_tx: IntraTx | None = None
        self._fund_tx: IntraTx | None = None
        self._nonce = 0
        self._ping_seq = 0
        self._pong_pending = False
        self.service = sha256(cfg.payload)

    # -- helpers ----------------------------------------------------------

    def _set_phase(self, sim: Simulator, phase: Phase) -> None:
        if phase.rank <= self.phase.rank:
            return  # phases never regress
        self.phase = phase
        self.phase_times[phase] = sim.now
        self.collector.session_phase(self.cfg.session_id, self.cfg.side, phase, sim.now,
                                     self.contract_id, self.fail_reason)

    def _fail(self, sim: Simulator, reason: str) -> None:
        if self.phase in (SETTLED, FAILED):
            return
        self.fail_reason = reason
        self.epoch += 1
        self._set_phase(sim, FAILED)

    def _arm(self, sim: Simulator, kind: str, delay: float) -> None:
        self.epoch += 1
        sim.set_timer(self.node_id, sim.now + delay, (kind, self.epoch))

    def _rearm(self, sim: Simulator, kind: str, delay: float) -> None:
        sim.set_timer(self.node_id, sim.now + delay, (kind, self.epoch))

    def _start_watch(self, sim: Simulator) -> None:
        """Liveness pings toward the current delegate; a missed reply within
        the detection timeout (the ack timeout: 5x mean one-way inter-domain
        delay) triggers failover. Progress resets the cycle via the epoch."""
        self._pong_pending = False
        self._rearm(sim, "ping", ACK_TIMEOUT_MS)

    def _submit_intra(self, sim: Simulator, payload: bytes) -> IntraTx:
        tx = submit_intra(sim, self, self.validators, payload, self._nonce)
        self._nonce += 1
        return tx

    def _current_delegate(self) -> tuple[str, bytes]:
        return self.delegates[self.failovers]

    def _send_delegation(self, sim: Simulator) -> None:
        node, _addr = self._current_delegate()
        req = DelegationReq(self.cfg.session_id, self.cfg.side, self.cfg.zone_id,
                            self.key.address, self.checkpoint, self.service,
                            self.cfg.deposit)
        sim.send(self.node_id, node, req)
        self._arm(sim, "ack", ACK_TIMEOUT_MS)

    def _request(self, sim: Simulator, phase: Phase) -> None:
        if self.goal is None or phase.rank > self.goal.rank:
            self.goal = phase  # a late timer never lowers it
        node, _ = self._current_delegate()
        sim.send(self.node_id, node, PhaseReq(self.cfg.session_id, self.goal))
        # Completion can legitimately take many block intervals (it may wait
        # on the counterparty), so the request deadline only re-nudges the
        # delegate; crash detection is the ping cycle's job.
        self._arm(sim, "op", self.cfg.op_timeout_ms)
        self._start_watch(sim)

    def _failover(self, sim: Simulator) -> None:
        self.failovers += 1
        self._pong_pending = False
        if self.failovers >= len(self.delegates):
            self._fail(sim, "NoDelegates")
            return
        self.collector.session_failover(self.cfg.session_id, self.cfg.side,
                                        self.failovers, sim.now)
        self._send_delegation(sim)

    # -- event hooks -------------------------------------------------------------

    def start(self, sim: Simulator) -> None:
        sim.set_timer(self.node_id, self.cfg.start_ms, ("begin", 0))

    def on_timer(self, sim: Simulator, key) -> None:
        kind, epoch = key
        if kind == "begin":
            self._req_tx = self._submit_intra(sim, self.cfg.payload)
            self._arm(sim, "intra", INTRA_TIMEOUT_MS)
            return
        if kind == "deliver":
            # Scenario flag: data delivered / payment ready.
            self._request(sim, COMMITTED)
            return
        if epoch != self.epoch:
            return  # progress already happened
        if self.phase in (SETTLED, FAILED):
            return
        if kind == "intra":
            self._fail(sim, "IntraTimeout")
        elif kind == "ack":
            self._failover(sim)
        elif kind == "ping":
            if self._pong_pending:
                self._failover(sim)
                return
            node, _ = self._current_delegate()
            self._ping_seq += 1
            sim.send(self.node_id, node, Ping(self.cfg.session_id, self._ping_seq))
            self._pong_pending = True
            self._rearm(sim, "ping", ACK_TIMEOUT_MS)
        elif kind == "op":
            node, _ = self._current_delegate()
            sim.send(self.node_id, node, PhaseReq(self.cfg.session_id, self.goal))
            self._rearm(sim, "op", self.cfg.op_timeout_ms)

    def on_message(self, sim: Simulator, src: str, msg) -> None:
        if self.phase in (SETTLED, FAILED):
            return
        if isinstance(msg, CommitNotice):
            self._on_notice(sim, src, msg)
        elif isinstance(msg, DelegationAck):
            if msg.session_id != self.cfg.session_id:
                return
            self._set_phase(sim, DELEGATED)
            if self.cfg.side == SUB and not self.funded:
                # Compensate the broker in-zone before it fronts the escrow.
                # Memo 0: only seller payments carry a contract id memo.
                _node, addr = self._current_delegate()
                self._fund_tx = self._submit_intra(
                    sim, transfer_payload(addr, self.cfg.deposit, memo=0))
                self._arm(sim, "intra", INTRA_TIMEOUT_MS)
                return
            self._request(sim, self.goal or CONFIGURED)
        elif isinstance(msg, Pong):
            if msg.session_id == self.cfg.session_id and src == self._current_delegate()[0]:
                self._pong_pending = False
        elif isinstance(msg, DelegationDeny):
            if msg.session_id == self.cfg.session_id:
                self._fail(sim, msg.reason)
        elif isinstance(msg, SessionFail):
            if msg.session_id == self.cfg.session_id:
                self._fail(sim, msg.reason)
        elif isinstance(msg, PhaseDone):
            if msg.session_id != self.cfg.session_id:
                return
            if msg.phase == CONFIGURED:
                self.contract_id = msg.contract_id
                self._set_phase(sim, CONFIGURED)
                self.epoch += 1  # cancel the op watchdog
                sim.set_timer(self.node_id, sim.now + self.cfg.deliver_after_ms, ("deliver", 0))
            elif msg.phase == COMMITTED:
                self._set_phase(sim, COMMITTED)
                self._request(sim, SETTLED)
            elif msg.phase == SETTLED:
                self.epoch += 1
                self._set_phase(sim, SETTLED)

    def _on_notice(self, sim: Simulator, src: str, m: CommitNotice) -> None:
        if src not in self.validators:
            return  # only the zone committee vouches for a commit
        tally = self._notice_tally.setdefault(m.tx_digest, {})
        voters = tally.setdefault((m.height, m.block_digest), set())
        voters.add(src)
        if len(voters) < self.need:
            return
        if self._req_tx is not None and m.tx_digest == self._req_tx.digest() and self.checkpoint is None:
            self.checkpoint = Checkpoint(self.cfg.zone_id, m.tx_digest, m.height, m.block_digest)
            self._send_delegation(sim)
        elif self._fund_tx is not None and m.tx_digest == self._fund_tx.digest() and not self.funded:
            self.funded = True
            self._request(sim, self.goal or CONFIGURED)
