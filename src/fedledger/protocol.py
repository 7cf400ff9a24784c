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
zone full nodes with inter-ledger accounts. A broker serves a session
with one transition table, ``ROWS``. Each chain update, client request
and rebind reply evaluates the session once: it reads a ``Facts``
snapshot, reports each rung the confirmed record shows (once), then runs
the action of the one row whose facts hold. The facts come in stages,
each stage read only once a row needs it: the rungs ``reported`` and
``goal``; the ``receipt`` of the tx in flight (none, pending, ok,
failed); whether a record on the tip is ``bound`` to the session (none,
split, tip); a ``target`` record to configure; the rung the
``confirmed`` record backs; the record on the ``tip``, seen from our
side (alone, joined, ours, committed, paid); whether a ``rebind`` is
needed or asked; and the seller's ``payout`` (none, submitted, paid).
``failed`` and ``settled`` are terminal. Every other row acts, or waits
for its exit: a receipt or every miner's refusal, confirmation depth,
the admin's ``ReplaceDone``, or a client request. ``await-payout`` and
``await-counterpart`` wait for exits that may never come (ROADMAP item
1): a payout the zone book refused, and a counterpart whose side
failed. An evaluation is idempotent, which is what makes takeover after
a predecessor crash safe at any point in the protocol.

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
from .contract import OTHER_SIDE, PUB, SUB, BrokerStatus
from .crypto import enc_address, enc_u64, sha256
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


class Phase(str, Enum):
    """A session's progress. Members rank in definition order (terminal
    FAILED last) and equal the name they are logged under."""

    IDLE = "IDLE"
    DELEGATED = "DELEGATED"
    CONFIGURED = "CONFIGURED"
    COMMITTED = "COMMITTED"
    SETTLED = "SETTLED"
    FAILED = "FAILED"

    def __new__(cls, name: str):
        phase = str.__new__(cls, name)
        phase._value_ = name
        phase.rank = len(cls.__members__)
        return phase

    __str__ = str.__str__  # the bare name on every Python version


IDLE, DELEGATED, CONFIGURED, COMMITTED, SETTLED, FAILED = Phase


# -- protocol messages -------------------------------------------------------
# A client talks only to brokers of its own zone: only the rebind messages
# between a broker and the admin cross a zone, so only they have a wire form.

@dataclass(frozen=True)
class DelegationReq:
    session_id: int
    side: str
    zone_id: int
    requester: bytes
    checkpoint: Checkpoint
    service: bytes  # digest of the requirements payload
    deposit: int


@dataclass(frozen=True)
class PhaseReq:
    """A client asks its delegate to take the session to ``phase``."""

    session_id: int
    phase: Phase  # CONFIGURED | COMMITTED | SETTLED


@dataclass(frozen=True)
class PhaseDone:
    """The delegate reports a rung reached: DELEGATED acks a delegation."""

    session_id: int
    phase: Phase
    contract_id: int = 0


@dataclass(frozen=True)
class SessionFail:
    """The delegate denies a delegation or fails the session."""

    session_id: int
    reason: str


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


@dataclass(frozen=True)
class Pong:
    session_id: int


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
    req: DelegationReq  # the first delegation: client, checkpoint, service, deposit
    client_node: str  # where reports go; a repeated delegation moves it
    goal: Phase = DELEGATED  # the highest rung the client asked for
    reported: Phase = DELEGATED  # the highest rung reported to the client
    contract_id: int | None = None
    inflight: InterTx | None = None  # submitted, not yet confirmed
    replacing: bool = False  # a ReplaceReq is unanswered
    payment_submitted: bool = False
    config_retries: int = 0
    salt: int = 0  # failed commit/settle receipts; varies the bytes of the retry
    abandoned: set = field(default_factory=set)  # half-bindings left behind


MAX_CONFIG_RETRIES = 25
OPEN = (DELEGATED, CONFIGURED, COMMITTED)  # the rungs below SETTLED
# The rung a record backs for the side bound there, indexed by its BrokerStatus.
BACKED = (CONFIGURED, CONFIGURED, COMMITTED, SETTLED)


def _serves(info, side: str, service: bytes) -> bool:
    mine = getattr(info, side)
    return mine.status == 1 and mine.service == service


class Facts(dict):
    """The facts one evaluation of a session reads (the module docstring
    lists them). The session's ``reported``, ``goal`` and ``replacing``
    are read as they stand; every other fact is computed on its first
    read, by the method named after it. ``receipt`` and ``bound`` update
    the session as every evaluation always has, and ``bound`` fills in the
    chain facts; ``due``, ``owed`` and ``rebind`` derive from other facts,
    so ``Facts(**known)``, with no session, derives them from given ones."""

    __slots__ = ("node", "s", "state", "info", "target_id")

    def __init__(self, node: "DelegateNode | None" = None, s: DelegateSession | None = None,
                 **known):
        super().__init__(known if s is None else
                         {"reported": s.reported, "goal": s.goal, "replacing": s.replacing})
        self.node, self.s = node, s

    def __missing__(self, name: str):
        value = self[name] = getattr(self, "_" + name)()
        return value

    def _receipt(self) -> str:
        s = self.s
        if s.inflight is None:
            return "none"
        status = self.node.inter.confirmed_receipt(s.inflight.digest())
        if status is None:
            return "pending"  # in a pool, racing a reorg, or included but not yet confirmed
        if status != "ok":
            if s.inflight.method in (M_CONFIG_PUB, M_CONFIG_SUB):
                s.config_retries += 1
            else:
                s.salt += 1
        s.inflight = None
        return "ok" if status == "ok" else "failed"

    def _bound(self) -> str:
        s, node, side = self.s, self.node, self.s.req.side
        self.state = node.inter.tip_state()
        cid, info = self._find()
        bound = "none" if cid is None else "tip"
        if bound == "tip" and side == PUB and info.sub.status == 0:
            # Split session: our half landed on one record while the
            # counterparty visibly settled on another. The publisher side
            # (which holds no escrow) abandons its half and rejoins.
            elsewhere = self._counterpart_match()
            if elsewhere is not None and elsewhere != cid:
                s.abandoned.add(cid)
                s.contract_id, bound = None, "split"
        if bound != "tip":
            self.target_id = self._pick_target()
            self["target"] = self.target_id is not None
            return bound
        s.contract_id, self.info = cid, info
        # Milestones report on-chain facts from the confirmed state; they do
        # not depend on who holds the binding (a crashed predecessor's
        # progress still counts).
        conf = node.inter.confirmed_state().contracts.get(cid)
        served = conf is not None and _serves(conf, side, s.req.service)
        self["confirmed"] = BACKED[conf.broker_status] if served else DELEGATED
        mine, status = getattr(info, side), info.broker_status
        if status >= BrokerStatus.COMMITTED:
            self["tip"] = "paid" if status == BrokerStatus.PAID else "committed"
        else:
            self["tip"] = ("ours" if mine.committed else
                           "joined" if getattr(info, OTHER_SIDE[side]).status == 1 else "alone")
        self["holder"] = mine.delegate == node.key.address
        # Buyer side: the confirmed PAID status is the service receipt.
        # Publisher side: the seller is paid once some delegate (maybe a
        # crashed predecessor) has forwarded the escrowed value in-zone.
        paid = side == SUB or (s.req.requester, cid) in node.follower.book.paid
        self["payout"] = "paid" if paid else "submitted" if s.payment_submitted else "none"
        return "tip"

    def _due(self) -> Phase:
        """The rung the confirmed record backs, up to the client's goal."""
        goal, backed = self["goal"], self["confirmed"]
        return goal if goal.rank <= backed.rank else backed

    def _owed(self) -> bool:
        return self["due"] is not self["goal"]

    def _rebind(self) -> str:
        """Needed while a crashed predecessor holds our binding, unless the
        record is PAID on the tip (paying out needs no binding)."""
        if self["holder"] or self["tip"] == "paid":
            return "none"
        return "asked" if self["replacing"] else "needed"

    # The scans walk ``state.contracts`` as stored: its keys are fixed at
    # genesis in id order and execution only rewrites existing keys, so
    # the first match is the lowest id.

    def _find(self):
        """The record whose our-side service digest matches the session's."""
        s, contracts = self.s, self.state.contracts
        info = contracts.get(s.contract_id)  # None while the session has no record
        if info is not None and _serves(info, s.req.side, s.req.service):
            return s.contract_id, info
        for cid, info in contracts.items():
            if cid not in s.abandoned and _serves(info, s.req.side, s.req.service):
                return cid, info
        return None, None

    def _counterpart_match(self) -> int | None:
        side, service = self.s.req.side, self.s.req.service
        for cid, info in self.state.contracts.items():
            if _serves(info, OTHER_SIDE[side], service) and getattr(info, side).status == 0:
                return cid
        return None

    def _pick_target(self) -> int | None:
        """Matching rule: counterpart with equal service digest, else an
        unused record chosen by rendezvous hash; none once the config
        retries are exhausted.

        Hashing (service, contract id) spreads concurrent sessions across
        the pool and makes both sides of one session prefer the same
        record even while each other's configuration is still in flight.
        """
        if self.s.config_retries > MAX_CONFIG_RETRIES:
            return None
        match = self._counterpart_match()
        if match is not None:
            return match
        best, best_rank = None, None
        for cid, info in self.state.contracts.items():
            if info.is_unused():
                rank = sha256(self.s.req.service + cid.to_bytes(8, "big"))
                if best_rank is None or rank < best_rank:
                    best, best_rank = cid, rank
        return best


# Exits, the events that end a waiting row.
CLIENT, RECEIPT, DEPTH = "a client request", "a receipt or every miner's refusal", "confirmation depth"
REPLACED = "the admin's ReplaceDone"
PAYOUT = "the payout in the zone book"  # never comes if the book refuses it
COUNTERPART = "the counterpart's configure or commit"  # never comes if that side failed


class Row(NamedTuple):
    """A row of the broker's table: the values each fact it reads must
    take, in the order it reads them; its action, a ``DelegateNode``
    method and its arguments (none for a row that waits); and the event
    that ends a waiting row."""

    name: str
    when: dict
    action: tuple = ()
    exit: str | None = None


# Every row reads ``reported`` and ``goal`` before ``receipt``, and
# ``receipt`` before ``bound`` and the chain facts, so a session that has
# ended, is idle or waits on a receipt reads no chain state. Rows are
# tried in table order, the commonest first.
YES, NO, SHOWN = (True,), (False,), (CONFIGURED, COMMITTED)
LIVE = {"reported": OPEN, "goal": (CONFIGURED, COMMITTED, SETTLED), "receipt": ("none", "ok", "failed")}
BOUND = {**LIVE, "bound": ("tip",)}
FREE = {**BOUND, "rebind": ("none",)}  # bound, and no other broker holds the binding we need

ROWS = (
    Row("await-receipt", {**LIVE, "receipt": ("pending",)}, exit=RECEIPT),
    Row("failed", {"reported": (FAILED,)}),
    Row("settled", {"reported": (SETTLED,)}),
    Row("idle", {"reported": OPEN, "goal": (DELEGATED,)}, exit=CLIENT),
    Row("configure", {**LIVE, "bound": ("none",), "target": YES}, ("_configure",)),
    Row("abandon-split", {**LIVE, "bound": ("split",), "target": YES}, ("_configure",)),
    Row("no-contract", {**LIVE, "bound": ("none", "split"), "target": NO}, ("_end", FAILED, "NoContract")),
    Row("report-settled", {**BOUND, "due": (SETTLED,), "payout": ("paid",)}, ("_end", SETTLED)),
    Row("pay", {**BOUND, "due": (SETTLED,), "payout": ("none",)}, ("_pay",)),
    Row("await-payout", {**BOUND, "due": (SETTLED,), "payout": ("submitted",)}, exit=PAYOUT),
    Row("rebind", {**BOUND, "due": OPEN, "rebind": ("needed",)}, ("_ask_rebind",)),
    Row("await-rebind", {**BOUND, "due": OPEN, "rebind": ("asked",)}, exit=REPLACED),
    Row("await-configure-confirm", {**FREE, "due": (DELEGATED,)}, exit=DEPTH),
    Row("await-goal", {**FREE, "due": SHOWN, "owed": NO}, exit=CLIENT),
    Row("commit", {**FREE, "due": SHOWN, "owed": YES, "tip": ("joined",)}, ("_call", M_COMMIT)),
    Row("await-counterpart", {**FREE, "due": SHOWN, "owed": YES, "tip": ("alone", "ours")},
        exit=COUNTERPART),
    Row("settle", {**FREE, "goal": (SETTLED,), "due": SHOWN, "tip": ("committed",)}, ("_call", M_SETTLE)),
    Row("await-paid-confirm", {**FREE, "goal": (SETTLED,), "due": SHOWN, "tip": ("paid",)}, exit=DEPTH),
    Row("await-commit-confirm", {**FREE, "goal": (COMMITTED,), "due": (CONFIGURED,),
                                 "tip": ("committed", "paid")}, exit=DEPTH),
)


def match(facts: Facts) -> Row:
    """The one row whose facts hold: the table tests show that exactly one
    does for every combination of facts."""
    for row in ROWS:
        for fact, allowed in row.when.items():
            if facts[fact] not in allowed:
                break
        else:
            return row


class DelegateNode(InterParticipant):
    """Data publisher / subscriber broker serving delegated sessions."""

    def __init__(self, node_id: str, zone_id: int, key, follower: ZoneFollower,
                 inter: InterNode, miners: list[str], admin_node: str,
                 registry: set, zone_validators: list[str], collector):
        super().__init__(node_id, zone_id, key, inter, miners)
        self.follower = follower
        self.admin_node = admin_node
        self.registry = registry
        self.zone_validators = zone_validators
        self.collector = collector  # submit_intra logs each payout through it
        self.sessions: dict[int, DelegateSession] = {}
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
        if isinstance(msg, (PhaseReq, Ping)):
            if isinstance(msg, Ping):
                sim.send(self.node_id, src, Pong(msg.session_id))
            s = self.sessions.get(msg.session_id)
            if s is not None and s.reported in OPEN:
                if isinstance(msg, PhaseReq) and msg.phase.rank > s.goal.rank:
                    s.goal = msg.phase
                self._advance(sim, s)
            return
        if isinstance(msg, ReplaceDone):
            for s in self.sessions.values():
                if s.contract_id == msg.contract_id and s.replacing and s.reported in OPEN:
                    s.replacing = False
                    self._advance(sim, s)
            return
        super().on_message(sim, src, msg)

    def _on_delegation(self, sim: Simulator, src: str, m: DelegationReq) -> None:
        if m.checkpoint.block_height > self.follower.ledger.height:
            # Our replica may simply lag the client's commit notices.
            self._pending_delegations.append((src, m))
            return
        err = self._verify_request(m)
        if err is not None:
            sim.send(self.node_id, src, SessionFail(m.session_id, err))
            return
        s = self.sessions.get(m.session_id)
        if s is None:
            self.sessions[m.session_id] = DelegateSession(m, src)
        else:
            s.client_node = src
        # Sent directly, not through _report: a repeated delegation is acked again.
        sim.send(self.node_id, src, PhaseDone(m.session_id, DELEGATED))

    def _retry_pending_delegations(self, sim: Simulator) -> None:
        pending, self._pending_delegations = self._pending_delegations, []
        for src, m in pending:
            self._on_delegation(sim, src, m)  # queued again while the replica still lags

    # -- chain-driven reconciliation ------------------------------------------

    def on_chain_update(self, sim: Simulator) -> None:
        self._advance_all(sim)

    def on_submit_failed(self, sim: Simulator, tx_digest: bytes, reason: str) -> None:
        for s in self.sessions.values():
            if s.inflight is not None and s.inflight.digest() == tx_digest:
                s.inflight = None
                if reason != "Duplicate":  # a duplicate is already known to the network
                    self._report(sim, s, FAILED, reason)
                return

    def _advance_all(self, sim: Simulator) -> None:
        for s in self.sessions.values():
            if s.reported in OPEN:  # the failed and settled rows are terminal
                self._advance(sim, s)

    def _advance(self, sim: Simulator, s: DelegateSession) -> None:
        """Match the session's row over one facts snapshot, report each rung
        its confirmed record shows, then run the row's action."""
        facts = Facts(self, s)
        row = match(facts)
        if facts.get("bound") == "tip":
            for rung in (CONFIGURED, COMMITTED):
                if facts["due"].rank >= rung.rank:
                    self._report(sim, s, rung)
        if row.action:
            getattr(self, row.action[0])(sim, s, facts, *row.action[1:])

    def _report(self, sim: Simulator, s: DelegateSession, phase: Phase, reason: str = "") -> None:
        """Tell the client the session reached ``phase``, once per rung:
        PhaseDone, or SessionFail with ``reason`` for FAILED."""
        if phase.rank <= s.reported.rank:
            return
        s.reported = phase
        sid = s.req.session_id
        msg = SessionFail(sid, reason) if phase == FAILED else PhaseDone(sid, phase, s.contract_id)
        sim.send(self.node_id, s.client_node, msg)

    # -- row actions: each takes the session and its facts --------------------------

    def _submit(self, sim: Simulator, s: DelegateSession, cid: int, method: str, **call) -> None:
        s.inflight = signed_inter_tx(self.key, cid, method, fee=FEE, **call)
        self.submit_inter(sim, s.inflight)

    def _configure(self, sim: Simulator, s: DelegateSession, facts: Facts) -> None:
        req = s.req
        method, attached = (M_CONFIG_PUB, 0) if req.side == PUB else (M_CONFIG_SUB, req.deposit)
        self._submit(sim, s, facts.target_id, method, args=req.service, attached=attached,
                     checkpoint=req.checkpoint)

    def _call(self, sim: Simulator, s: DelegateSession, facts: Facts, method: str) -> None:
        """Submit a commit or settle call. A retry after a failed receipt
        carries a salt the contract ignores: the same bytes again would be
        refused by every miner as a duplicate."""
        self._submit(sim, s, s.contract_id, method, args=enc_u64(s.salt) if s.salt else b"")

    def _ask_rebind(self, sim: Simulator, s: DelegateSession, facts: Facts) -> None:
        # A crashed predecessor holds the binding: ask the admin to rebind.
        s.replacing = True
        holder = getattr(facts.info, s.req.side).delegate
        sim.send(self.node_id, self.admin_node,
                 ReplaceReq(s.contract_id, s.req.side, holder, self.key.address))

    def _pay(self, sim: Simulator, s: DelegateSession, facts: Facts) -> None:
        # Fully settled on chain: forwarding the payment needs no binding,
        # so a successor can finish even when the sequential rebind chain is moot.
        s.payment_submitted = True
        payload = transfer_payload(s.req.requester, s.req.deposit, memo=s.contract_id)
        submit_intra(sim, self, self.zone_validators, payload, self._intra_nonce)
        self._intra_nonce += 1

    def _end(self, sim: Simulator, s: DelegateSession, facts: Facts, phase: Phase,
             reason: str = "") -> None:
        self._report(sim, s, phase, reason)


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

    def on_submit_failed(self, sim: Simulator, tx_digest: bytes, reason: str) -> None:
        # A rebind step that every miner refused never gets a receipt:
        # forget it, so _drive submits the step again with a fresh salt.
        for key, (_step, digest) in self._step_sent.items():
            if digest == tx_digest:
                del self._step_sent[key]
                self._drive(sim)
                return

    def _drive(self, sim: Simulator) -> None:
        conf = self.inter.confirmed_state()
        tip = self.inter.tip_state()
        done = []
        for (cid, side, new), requesters in self._watches.items():
            info_conf = conf.contracts.get(cid)
            if info_conf is not None and getattr(info_conf, side).delegate == new:
                sim.multicast(self.node_id, requesters, ReplaceDone(cid, bytes(20), new, True))
                done.append((cid, side, new))
                continue
            info = tip.contracts.get(cid)
            if info is None:
                continue
            cur = getattr(info, side).delegate
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
            # Data delivered / payment ready: armed once CONFIGURED is reported.
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
            sim.send(self.node_id, node, Ping(self.cfg.session_id))
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
        elif isinstance(msg, Pong):
            if msg.session_id == self.cfg.session_id and src == self._current_delegate()[0]:
                self._pong_pending = False
        elif isinstance(msg, SessionFail):
            if msg.session_id == self.cfg.session_id:
                self._fail(sim, msg.reason)
        elif isinstance(msg, PhaseDone):
            if msg.session_id != self.cfg.session_id:
                return
            if msg.phase == DELEGATED:
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
            elif msg.phase == CONFIGURED:
                self.contract_id = msg.contract_id
                self._set_phase(sim, CONFIGURED)
                self.epoch += 1  # cancel the op watchdog
                sim.set_timer(self.node_id, sim.now, ("deliver", 0))
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
