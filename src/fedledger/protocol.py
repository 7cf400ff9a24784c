"""Role actors and the four-round cross-domain exchange protocol.

Sellers and buyers are light clients of their own zone. Each runs the
same session state machine: record the service requirements on the
private zone ledger, build a checkpoint once committed, delegate to the
first broker in the zone's delegation list, then drive configuration,
commitment, and payment through that broker, failing over to the next
delegate whenever a request times out (crash-fault model).

Brokers (publisher side for sellers, subscriber side for buyers) are
zone full nodes with inter-ledger accounts. A broker serves sessions
with a reconciliation loop: every chain update re-evaluates what the
confirmed and tip states say about the session's contract and takes the
single next action — pick/join a contract, ask the admin to rebind a
crashed predecessor, submit the commit or settlement call, or forward
the intra-ledger payment. The loop is idempotent, which is what makes
takeover after a predecessor crash safe at any point in the protocol.

Privacy: nothing that crosses a zone boundary carries payload bytes —
only digests, checkpoints, and contract metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bft import ConsensusMsg, MsgKind, ZoneFollower, committee_bounds
from .chain import Checkpoint, IntraTx, transfer_payload, verify_checkpoint
from .contract import BrokerStatus
from .crypto import enc_address, enc_u32, enc_u64, sha256
from .nodes import BlockMsg, CommitNotice, InterSubmit, InterSubmitAck, submit_intra
from .powchain import (
    M_COMMIT,
    M_CONFIG_PUB,
    M_CONFIG_SUB,
    M_REPLACE,
    M_SETTLE,
    InterNode,
    signed_inter_tx,
)
from .sim import Node, Simulator

PUB = "pub"
SUB = "sub"

# Client phases.
IDLE = "IDLE"
DELEGATED = "DELEGATED"
CONFIGURED = "CONFIGURED"
COMMITTED = "COMMITTED"
SETTLED = "SETTLED"
FAILED = "FAILED"

PHASE_ORDER = {IDLE: 0, DELEGATED: 1, CONFIGURED: 2, COMMITTED: 3, SETTLED: 4}


def bound_delegate(info, side: str) -> bytes:
    """The delegate a contract record binds on one side."""
    return info.publisher_id if side == PUB else info.subscriber_id


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
    reply_to: str

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
    """Configure / commit / settle request from a client to its delegate."""

    session_id: int
    goal: str  # "configure" | "commit" | "settle"

    def wire_bytes(self) -> bytes:
        return b"preq" + enc_u64(self.session_id) + self.goal.encode()


@dataclass(frozen=True)
class PhaseDone:
    session_id: int
    goal: str
    contract_id: int = 0

    def wire_bytes(self) -> bytes:
        return b"pdon" + enc_u64(self.session_id) + self.goal.encode() + enc_u64(self.contract_id)


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
    reply_to: str

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
    reply_to: str

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
    reply_to: str

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

    def submit_inter(self, sim: Simulator, tx) -> bytes:
        d = tx.digest()
        self._rejections[d] = []
        for m in self.miners:
            sim.send(self.node_id, m, InterSubmit(tx))
        return d

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
            res = self.inter.on_block(msg.block, sim.now)
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
    goal: str = "delegate"  # delegate -> configure -> commit -> settle
    contract_id: int | None = None
    inflight: bytes | None = None
    inflight_kind: str = ""
    replacing: bool = False
    payment_submitted: bool = False
    notified: set = field(default_factory=set)
    failed: str | None = None
    config_retries: int = 0
    abandoned: set = field(default_factory=set)  # half-bindings left behind


GOAL_ORDER = {"delegate": 0, "configure": 1, "commit": 2, "settle": 3}
MAX_CONFIG_RETRIES = 25


class DelegateNode(InterParticipant):
    """Data publisher / subscriber broker serving delegated sessions."""

    def __init__(self, node_id: str, zone_id: int, key, follower: ZoneFollower,
                 inter: InterNode, miners: list[str], admin_node: str,
                 registry: set, collector=None):
        super().__init__(node_id, zone_id, key, inter, miners)
        self.follower = follower
        self.admin_node = admin_node
        self.registry = registry
        self.collector = collector
        self.sessions: dict[int, DelegateSession] = {}
        self.zone_validators: list[str] = []  # wired by the runner
        self._pending_delegations: list[tuple[str, DelegationReq]] = []
        self._payments_seen: set = set()  # (to, memo) pairs from committed zone transfers
        self._book_idx = 0
        self._intra_nonce = 0
        self._watch_to_session: dict[bytes, int] = {}

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
                self._scan_payments()
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
            if GOAL_ORDER[msg.goal] > GOAL_ORDER[s.goal]:
                s.goal = msg.goal
            self._advance(sim, s)
            return
        if isinstance(msg, Ping):
            sim.send(self.node_id, msg.reply_to, Pong(msg.session_id, msg.seq))
            s = self.sessions.get(msg.session_id)
            if s is not None and s.failed is None:
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
            sim.send(self.node_id, msg.reply_to, CrossVerifyResp(msg.query_id, found))
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
            s = DelegateSession(m.session_id, m.side, m.reply_to, m.requester,
                                m.checkpoint, m.service, m.deposit)
            self.sessions[m.session_id] = s
        else:
            s.client_node = m.reply_to
        sim.send(self.node_id, src, DelegationAck(m.session_id, self.key.address))

    def _retry_pending_delegations(self, sim: Simulator) -> None:
        if not self._pending_delegations:
            return
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
        sid = self._watch_to_session.pop(tx_digest, None)
        if sid is None:
            return
        s = self.sessions.get(sid)
        if s is None or s.inflight != tx_digest:
            return
        s.inflight = None
        if reason == "InsufficientFunds":
            self._fail(sim, s, "InsufficientFunds")
        elif reason == "Duplicate":
            pass  # already known to the network; the chain watch will resolve it
        else:
            self._fail(sim, s, reason)

    def _advance_all(self, sim: Simulator) -> None:
        for s in self.sessions.values():
            if s.failed is None:
                self._advance(sim, s)

    def _fail(self, sim: Simulator, s: DelegateSession, reason: str) -> None:
        s.failed = reason
        sim.send(self.node_id, s.client_node, SessionFail(s.session_id, reason))

    def _find_bound(self, state, s: DelegateSession):
        """Contract whose our-side service digest matches this session."""
        if s.contract_id is not None and s.contract_id not in s.abandoned:
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
        if s.side == PUB:
            return info.pub_status == 1 and info.pub_service == s.service
        return info.sub_status == 1 and info.sub_service == s.service

    def _counterpart_match(self, state, s: DelegateSession) -> int | None:
        for cid in sorted(state.contracts):
            info = state.contracts[cid]
            if s.side == PUB:
                if info.sub_status == 1 and info.sub_service == s.service and info.pub_status == 0:
                    return cid
            else:
                if info.pub_status == 1 and info.pub_service == s.service and info.sub_status == 0:
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
        receipt = self.inter.canonical_receipts.get(s.inflight)
        if receipt is None:
            return False  # still pending somewhere, or racing a reorg
        height, status = receipt
        if height > self.inter.tip_height - self.inter.k + 1:
            return False  # included but not yet confirmed
        self._watch_to_session.pop(s.inflight, None)
        s.inflight = None
        if status != "ok" and s.inflight_kind == "configure":
            s.config_retries += 1
        return True

    def _submit(self, sim: Simulator, s: DelegateSession, tx, kind: str) -> None:
        d = self.submit_inter(sim, tx)
        s.inflight = d
        s.inflight_kind = kind
        self._watch_to_session[d] = s.session_id

    def _advance(self, sim: Simulator, s: DelegateSession) -> None:
        if s.failed is not None or s.goal == "delegate":
            return
        if not self._resolve_inflight(s):
            return
        tip = self.inter.tip_state()
        conf = self.inter.confirmed_state()

        cid, info_tip = self._find_bound(tip, s)
        if cid is not None and s.side == PUB and info_tip.sub_status == 0:
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
            if s.config_retries > MAX_CONFIG_RETRIES:
                self._fail(sim, s, "NoContract")
                return
            target = self._pick_target(tip, s)
            if target is None:
                self._fail(sim, s, "NoContract")
                return
            if s.side == PUB:
                tx = signed_inter_tx(self.key, target, M_CONFIG_PUB, args=s.service,
                                     fee=self.inter.fee, checkpoint=s.checkpoint)
            else:
                tx = signed_inter_tx(self.key, target, M_CONFIG_SUB, args=s.service,
                                     attached=s.deposit, fee=self.inter.fee, checkpoint=s.checkpoint)
            self._submit(sim, s, tx, "configure")
            return

        s.contract_id = cid

        # Milestones report on-chain facts from the confirmed state; they do
        # not depend on who holds the binding (a crashed predecessor's
        # progress still counts).
        info_conf = conf.contracts.get(cid)
        conf_side = info_conf is not None and self._side_bound(info_conf, s)
        if conf_side and "configure" not in s.notified:
            s.notified.add("configure")
            sim.send(self.node_id, s.client_node, PhaseDone(s.session_id, "configure", cid))
        if conf_side and GOAL_ORDER[s.goal] >= GOAL_ORDER["commit"] \
                and info_conf.broker_status in (BrokerStatus.COMMITTED, BrokerStatus.PAID) \
                and "commit" not in s.notified:
            s.notified.add("commit")
            sim.send(self.node_id, s.client_node, PhaseDone(s.session_id, "commit", cid))
        if conf_side and GOAL_ORDER[s.goal] >= GOAL_ORDER["settle"] \
                and info_conf.broker_status == BrokerStatus.PAID:
            # Fully settled on chain: forwarding the payment needs no
            # binding, so a successor can finish even when the sequential
            # rebind chain is moot.
            self._finish_payment(sim, s, cid)
            return

        bound = bound_delegate(info_tip, s.side)
        if bound != self.key.address:
            if info_tip.broker_status == BrokerStatus.PAID:
                return  # wait for the payout to confirm; payment path above
            # A crashed predecessor holds the binding: ask the admin to rebind.
            if not s.replacing:
                s.replacing = True
                sim.send(self.node_id, self.admin_node,
                         ReplaceReq(cid, s.side, bound, self.key.address, self.node_id))
            return

        if GOAL_ORDER[s.goal] >= GOAL_ORDER["commit"] and conf_side:
            my_flag = info_tip.pub_committed if s.side == PUB else info_tip.sub_committed
            if not my_flag and info_tip.pub_status == 1 and info_tip.sub_status == 1:
                self._submit(sim, s, signed_inter_tx(self.key, cid, M_COMMIT, fee=self.inter.fee), "commit")
                return
        if GOAL_ORDER[s.goal] >= GOAL_ORDER["settle"] and conf_side:
            if info_tip.broker_status == BrokerStatus.COMMITTED:
                self._submit(sim, s, signed_inter_tx(self.key, cid, M_SETTLE, fee=self.inter.fee), "settle")

    def _finish_payment(self, sim: Simulator, s: DelegateSession, cid: int) -> None:
        if s.side == SUB:
            # Buyer side: the confirmed PAID status is the service receipt.
            if "settle" not in s.notified:
                s.notified.add("settle")
                sim.send(self.node_id, s.client_node, PhaseDone(s.session_id, "settle", cid))
            return
        # Publisher side: forward the escrowed value to the seller in-zone,
        # unless some delegate (a crashed predecessor) already did.
        if (s.client_addr, cid) in self._payments_seen:
            if "settle" not in s.notified:
                s.notified.add("settle")
                sim.send(self.node_id, s.client_node, PhaseDone(s.session_id, "settle", cid))
            return
        if not s.payment_submitted:
            s.payment_submitted = True
            payload = transfer_payload(s.client_addr, s.deposit, memo=cid)
            submit_intra(sim, self, self.zone_validators, payload, self._intra_nonce)
            self._intra_nonce += 1

    def _scan_payments(self) -> None:
        transfers = self.follower.book.transfers
        while self._book_idx < len(transfers):
            _frm, to, _amount, memo, _d = transfers[self._book_idx]
            self._payments_seen.add((to, memo))
            self._book_idx += 1


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
        self._watches: dict[tuple, list[str]] = {}  # (cid, side, new) -> reply node ids
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
        for (cid, side, new), reply_tos in self._watches.items():
            info_conf = conf.contracts.get(cid)
            if info_conf is not None and bound_delegate(info_conf, side) == new:
                for t in reply_tos:
                    sim.send(self.node_id, t, ReplaceDone(cid, bytes(20), new, True))
                done.append((cid, side, new))
                continue
            info = tip.contracts.get(cid)
            if info is None:
                continue
            cur = bound_delegate(info, side)
            if cur == new:
                self._step_sent.pop((cid, side), None)
                continue  # at tip; wait for confirmation
            lst = info.delegation_list
            if cur not in lst or new not in lst or lst.index(new) <= lst.index(cur):
                for t in reply_tos:
                    sim.send(self.node_id, t, ReplaceDone(cid, cur, new, False))
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
                                 fee=self.inter.fee)
            self._step_sent[(cid, side)] = (step, tx.digest())
            self.submit_inter(sim, tx)
        for key in done:
            self._watches.pop(key, None)
            self._step_sent.pop((key[0], key[1]), None)


# -- session clients ------------------------------------------------------------------

@dataclass
class SessionConfig:
    session_id: int
    side: str  # PUB for seller, SUB for buyer
    zone_id: int
    start_ms: float
    payload: bytes  # shared requirements payload (rendezvous key = its digest)
    deposit: int
    deliver_after_ms: float = 0.0  # data delivery / payment readiness flag delay
    intra_timeout_ms: float = 20_000.0
    ack_timeout_ms: float = 1_650.0
    op_timeout_ms: float = 120_000.0


class ClientNode(Node):
    """Seller or buyer: light client driving one exchange session."""

    def __init__(self, node_id: str, key, cfg: SessionConfig, validators: list[str],
                 delegates: list[tuple[str, bytes]], collector=None):
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
        self.delegate_idx = 0
        self.epoch = 0
        self.goal: str | None = None
        self.contract_id: int | None = None
        self.checkpoint: Checkpoint | None = None
        self.funded = False
        self.failovers = 0
        self._notice_tally: dict[bytes, dict[tuple, set]] = {}
        self._req_tx: IntraTx | None = None
        self._fund_tx: IntraTx | None = None
        self._nonce = 0
        self._ping_seq = 0
        self._pong_pending = False
        self.service = sha256(cfg.payload)

    # -- helpers ----------------------------------------------------------

    def _set_phase(self, sim: Simulator, phase: str) -> None:
        if phase == self.phase:
            return
        if phase != FAILED and PHASE_ORDER.get(phase, -1) < PHASE_ORDER.get(self.phase, -1):
            return  # phases never regress
        self.phase = phase
        self.phase_times[phase] = sim.now
        if self.collector is not None:
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
        self._rearm(sim, "ping", self.cfg.ack_timeout_ms)

    def _submit_intra(self, sim: Simulator, payload: bytes) -> IntraTx:
        tx = submit_intra(sim, self, self.validators, payload, self._nonce)
        self._nonce += 1
        return tx

    def _current_delegate(self) -> tuple[str, bytes]:
        return self.delegates[self.delegate_idx]

    def _send_delegation(self, sim: Simulator) -> None:
        node, _addr = self._current_delegate()
        req = DelegationReq(self.cfg.session_id, self.cfg.side, self.cfg.zone_id,
                            self.key.address, self.checkpoint, self.service,
                            self.cfg.deposit, self.node_id)
        sim.send(self.node_id, node, req)
        self._arm(sim, "ack", self.cfg.ack_timeout_ms)

    def _send_goal(self, sim: Simulator) -> None:
        if self.goal is None:
            return
        node, _ = self._current_delegate()
        sim.send(self.node_id, node, PhaseReq(self.cfg.session_id, self.goal))
        # Completion can legitimately take many block intervals (it may wait
        # on the counterparty), so the request deadline only re-nudges the
        # delegate; crash detection is the ping cycle's job.
        self._arm(sim, "op", self.cfg.op_timeout_ms)
        self._start_watch(sim)

    def _failover(self, sim: Simulator) -> None:
        self.delegate_idx += 1
        self.failovers += 1
        self._pong_pending = False
        if self.delegate_idx >= len(self.delegates):
            self._fail(sim, "NoDelegates")
            return
        if self.collector is not None:
            self.collector.session_failover(self.cfg.session_id, self.cfg.side,
                                            self.delegate_idx, sim.now)
        self._send_delegation(sim)

    # -- event hooks -------------------------------------------------------------

    def start(self, sim: Simulator) -> None:
        sim.set_timer(self.node_id, self.cfg.start_ms, ("begin", 0))

    def on_timer(self, sim: Simulator, key) -> None:
        kind, epoch = key
        if kind == "begin":
            self._req_tx = self._submit_intra(sim, self.cfg.payload)
            self._arm(sim, "intra", self.cfg.intra_timeout_ms)
            return
        if kind == "deliver":
            # Scenario flag: data delivered / payment ready.
            self.goal = "commit"
            self._send_goal(sim)
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
            sim.send(self.node_id, node, Ping(self.cfg.session_id, self._ping_seq, self.node_id))
            self._pong_pending = True
            self._rearm(sim, "ping", self.cfg.ack_timeout_ms)
        elif kind == "op":
            node, _ = self._current_delegate()
            if self.goal is not None:
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
                self._arm(sim, "intra", self.cfg.intra_timeout_ms)
                return
            if self.goal is None:
                self.goal = "configure"
            self._send_goal(sim)
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
            if msg.goal == "configure":
                self.contract_id = msg.contract_id
                self._set_phase(sim, CONFIGURED)
                self.epoch += 1  # cancel the op watchdog
                sim.set_timer(self.node_id, sim.now + self.cfg.deliver_after_ms, ("deliver", 0))
            elif msg.goal == "commit":
                self._set_phase(sim, COMMITTED)
                self.goal = "settle"
                self._send_goal(sim)
            elif msg.goal == "settle":
                self.epoch += 1
                self._set_phase(sim, SETTLED)

    def _on_notice(self, sim: Simulator, src: str, m: CommitNotice) -> None:
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
            if self.goal is None:
                self.goal = "configure"
            self._send_goal(sim)
