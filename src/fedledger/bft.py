"""Quorum-based replicated state machine for one domain's private ledger.

Three-phase single-lock protocol with round-robin proposers: the round-r
proposer (committee[(height + round) mod n]) broadcasts a PROPOSAL; on a
valid proposal validators emit PREVOTE; on a quorum of matching PREVOTEs
they lock the block and emit PRECOMMIT; on a quorum of matching
PRECOMMITs the block is committed with the collected signatures as its
quorum seal and a self-certifying DECISION carrying the sealed block is
broadcast so lagging replicas and zone full nodes can adopt it.

A committee of n tolerates f = (n-1)//3 byzantine members, the largest
f with n >= 3f+1, and its quorum is 2f+1 (``committee_bounds``).
Equivocating messages (same sender, height, round, and step but a
different digest) are recorded as byzantine evidence and the later one
is ignored.

Each phase of round r times out Delta_base*(r+1) after it starts; on
timeout the validator emits the nil vote for the phase it is stuck in
and finally advances the round, preserving liveness under synchrony.

Round-0 proposals follow a global cadence: the proposal for height h is
scheduled at (h-1)*block_interval_ms (or immediately if the previous
height committed late), which pins the mean commit interval to the
configured block interval.

The class is a pure state machine: ``on_msg``, ``on_deadline``,
``on_propose_timer``, and ``submit_tx`` are the only mutators and every
entry point returns the effects (broadcasts, timer requests, committed
block) for the event loop to act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chain import BalanceBook, BftSeal, Block, IntraTx, Ledger, build_block
from .crypto import ZERO_DIGEST, Keyring, SigningKey, enc_address, enc_blob, enc_digest, enc_u32, enc_u64, enc_u8


class MsgKind(Enum):
    PROPOSAL = 1
    PREVOTE = 2
    PRECOMMIT = 3
    DECISION = 4


class Step(Enum):
    PROPOSE = 1
    PREVOTE = 2
    PRECOMMIT = 3


@dataclass(frozen=True)
class ConsensusMsg:
    kind: MsgKind
    height: int
    round: int
    block_digest: bytes | None  # None encodes the nil vote
    sender: bytes
    signature: bytes = b""
    block: Block | None = None  # body, carried by PROPOSAL and DECISION

    def signing_bytes(self) -> bytes:
        return (
            enc_u8(self.kind.value)
            + enc_u64(self.height)
            + enc_u32(self.round)
            + enc_digest(self.block_digest or ZERO_DIGEST)
            + enc_address(self.sender)
        )

    def wire_bytes(self) -> bytes:
        body = self.block.serialize() if self.block is not None else b""
        return self.signing_bytes() + enc_blob(self.signature) + enc_blob(body)


# Effects returned to the driving event loop.

@dataclass(frozen=True)
class Broadcast:
    msg: ConsensusMsg


@dataclass(frozen=True)
class Deadline:
    at: float
    epoch: int


@dataclass(frozen=True)
class ProposeAt:
    at: float
    height: int


@dataclass(frozen=True)
class Committed:
    block: Block


@dataclass(frozen=True)
class Evidence:
    sender: bytes
    height: int
    round: int
    step: str
    digests: tuple


def committee_bounds(n: int) -> tuple[int, int]:
    """Byzantine members f a committee of n tolerates (n >= 3f+1), and its 2f+1 quorum."""
    f = (n - 1) // 3
    return f, 2 * f + 1


class CommitteeReplica:
    """A replica of one zone ledger: accepts blocks sealed by a quorum of its committee."""

    def __init__(self, committee: list[bytes], keyring: Keyring):
        self.committee = list(committee)
        self.keyring = keyring
        _f, self.quorum = committee_bounds(len(self.committee))

    def verify_sealed(self, block: Block) -> bool:
        """Check a quorum seal: enough distinct committee precommit signatures."""
        seal = block.seal
        if not isinstance(seal, BftSeal):
            return False
        digest = block.digest()
        seen = set()
        good = 0
        for addr, sig in seal.quorum_signatures:
            if addr in seen or addr not in self.committee:
                continue
            seen.add(addr)
            probe = ConsensusMsg(MsgKind.PRECOMMIT, block.height, seal.round, digest, addr)
            if self.keyring.verify(addr, probe.signing_bytes(), sig):
                good += 1
        return good >= self.quorum


class Validator(CommitteeReplica):
    def __init__(
        self,
        key: SigningKey,
        committee: list[bytes],
        zone_id: int,
        keyring: Keyring,
        block_capacity: int = 1000,
        round_timeout_ms: float = 200.0,
        block_interval_ms: float = 1600.0,
        balances: dict[bytes, int] | None = None,
    ):
        super().__init__(committee, keyring)
        self.key = key
        self.validator_id = key.address
        self.zone_id = zone_id
        self.block_capacity = block_capacity
        self.round_timeout_ms = round_timeout_ms
        self.block_interval_ms = block_interval_ms

        self.ledger = Ledger()
        self.book = BalanceBook(balances)
        self.mempool: dict[bytes, IntraTx] = {}
        self.height = 1
        self.round = 0
        self.step = Step.PROPOSE
        self.deadline_epoch = 0
        self.locked_digest: bytes | None = None
        self.locked_block: Block | None = None
        self.locked_round = -1
        # Per-height vote state, cleared on commit.
        self.proposals: dict[int, Block] = {}
        self.prevotes: dict[int, dict[bytes, bytes | None]] = {}
        self.precommits: dict[int, dict[bytes, tuple]] = {}  # round -> sender -> (digest, sig)
        self.prevoted: set[int] = set()
        self.precommitted: set[int] = set()
        self.future_decisions: dict[int, Block] = {}
        self.evidence: list[Evidence] = []

    # -- helpers ---------------------------------------------------------

    def proposer(self, height: int, round_: int) -> bytes:
        return self.committee[(height + round_) % len(self.committee)]

    def _delta(self, round_: int) -> float:
        return self.round_timeout_ms * (round_ + 1)

    def _height_start(self, height: int) -> float:
        return (height - 1) * self.block_interval_ms

    def _sign(self, msg: ConsensusMsg) -> ConsensusMsg:
        sig = Keyring.sign(self.key, msg.signing_bytes())
        return ConsensusMsg(msg.kind, msg.height, msg.round, msg.block_digest, msg.sender, sig, msg.block)

    def _vote(self, kind: MsgKind, digest: bytes | None) -> ConsensusMsg:
        # Own votes count toward quorums immediately.
        msg = self._sign(ConsensusMsg(kind, self.height, self.round, digest, self.validator_id))
        if kind == MsgKind.PREVOTE:
            self._record_vote(self.prevotes, msg, "prevote", msg.block_digest)
        else:
            self._record_vote(self.precommits, msg, "precommit", (msg.block_digest, msg.signature))
        return msg

    def _bump(self, effects: list, now: float) -> None:
        self.deadline_epoch += 1
        effects.append(Deadline(now + self._delta(self.round), self.deadline_epoch))

    # -- mempool ------------------------------------------------------------

    def submit_tx(self, tx: IntraTx) -> bool:
        """Validate and pool a transaction; False when rejected."""
        if tx.zone_id != self.zone_id:
            return False
        d = tx.digest()
        if d in self.mempool or self.ledger.contains_tx(d):
            return False
        if not self.keyring.verify(tx.sender, tx.signing_bytes(), tx.signature):
            return False
        self.mempool[d] = tx
        return True

    # -- entry points ----------------------------------------------------------

    def start(self, now: float) -> list:
        effects: list = []
        start = max(now, self._height_start(self.height))
        if self.proposer(self.height, 0) == self.validator_id:
            effects.append(ProposeAt(start, self.height))
        self.deadline_epoch += 1
        effects.append(Deadline(start + self._delta(0), self.deadline_epoch))
        return effects

    def on_propose_timer(self, now: float, height: int) -> list:
        if height != self.height or self.round != 0 or Step.PROPOSE != self.step:
            return []
        if self.proposer(self.height, self.round) != self.validator_id:
            return []
        return self._propose(now)

    def on_deadline(self, now: float, epoch: int) -> list:
        if epoch != self.deadline_epoch:
            return []  # stale: state advanced since this was scheduled
        effects: list = []
        if self.step == Step.PROPOSE:
            if self.round not in self.prevoted:
                self.prevoted.add(self.round)
                effects.append(Broadcast(self._vote(MsgKind.PREVOTE, None)))
            self.step = Step.PREVOTE
            self._bump(effects, now)
        elif self.step == Step.PREVOTE:
            if self.round not in self.precommitted:
                self.precommitted.add(self.round)
                effects.append(Broadcast(self._vote(MsgKind.PRECOMMIT, None)))
            self.step = Step.PRECOMMIT
            self._bump(effects, now)
        else:
            self._enter_round(self.round + 1, now, effects)
        return effects

    def on_msg(self, now: float, msg: ConsensusMsg) -> list:
        """Validate, record, and react to a consensus message."""
        if msg.sender not in self.committee:
            return []
        if not self.keyring.verify(msg.sender, msg.signing_bytes(), msg.signature):
            return []
        if msg.kind == MsgKind.DECISION:
            return self._on_decision(now, msg)
        if msg.height != self.height:
            return []  # stale or future height; DECISION sync covers gaps
        effects: list = []
        if msg.kind == MsgKind.PROPOSAL:
            self._record_proposal(msg)
        elif msg.kind == MsgKind.PREVOTE:
            self._record_vote(self.prevotes, msg, "prevote", msg.block_digest)
        elif msg.kind == MsgKind.PRECOMMIT:
            self._record_vote(self.precommits, msg, "precommit", (msg.block_digest, msg.signature))
        self._maybe_progress(now, effects)
        return effects

    # -- recording ----------------------------------------------------------

    def _record_proposal(self, msg: ConsensusMsg) -> None:
        if msg.block is None or msg.sender != self.proposer(msg.height, msg.round):
            return
        block = msg.block
        if block.height != self.height or block.parent != self.ledger.head_digest():
            return
        if msg.block_digest != block.digest():
            return
        seen = self.proposals.get(msg.round)
        if seen is not None:
            if seen.digest() != block.digest():
                self.evidence.append(
                    Evidence(msg.sender, msg.height, msg.round, "proposal", (seen.digest(), block.digest()))
                )
            return
        self.proposals[msg.round] = block

    def _record_vote(self, table: dict, msg: ConsensusMsg, step: str, value) -> None:
        votes = table.setdefault(msg.round, {})
        prior = votes.get(msg.sender)
        if prior is not None:
            prior_digest = prior if step == "prevote" else prior[0]
            if prior_digest != msg.block_digest:
                self.evidence.append(
                    Evidence(msg.sender, msg.height, msg.round, step, (prior_digest, msg.block_digest))
                )
            return
        votes[msg.sender] = value

    # -- state transitions ------------------------------------------------------

    def _propose(self, now: float) -> list:
        if self.locked_block is not None:
            block = self.locked_block
        else:
            txs = []
            for d, tx in self.mempool.items():
                txs.append(tx)
                if len(txs) >= self.block_capacity:
                    break
            block = build_block(
                self.ledger.head_digest(),
                self.height,
                txs,
                int(now),
                BftSeal(proposer=self.validator_id, round=self.round),
            )
        msg = self._sign(
            ConsensusMsg(MsgKind.PROPOSAL, self.height, self.round, block.digest(), self.validator_id, block=block)
        )
        effects = [Broadcast(msg)]
        # A proposal is also processed locally, which triggers our own prevote.
        self._record_proposal(msg)
        self._maybe_progress(now, effects)
        return effects

    def _enter_round(self, round_: int, now: float, effects: list) -> None:
        self.round = round_
        self.step = Step.PROPOSE
        self._bump(effects, now)
        if self.proposer(self.height, round_) == self.validator_id:
            # Rounds after 0 propose immediately; pacing applies to round 0 only.
            sub = self._propose(now)
            effects.extend(sub)
        else:
            self._maybe_progress(now, effects)

    def _maybe_progress(self, now: float, effects: list) -> None:
        changed = True
        while changed:
            changed = False
            # Prevote on the current round's proposal.
            if self.step == Step.PROPOSE and self.round not in self.prevoted:
                block = self.proposals.get(self.round)
                if block is not None:
                    d = block.digest()
                    vote = d if (self.locked_digest is None or self.locked_digest == d) else None
                    self.prevoted.add(self.round)
                    effects.append(Broadcast(self._vote(MsgKind.PREVOTE, vote)))
                    self.step = Step.PREVOTE
                    self._bump(effects, now)
                    changed = True
            # Prevote quorums: lock and precommit, or unlock on a later polka.
            for r, votes in list(self.prevotes.items()):
                counts: dict = {}
                for d in votes.values():
                    counts[d] = counts.get(d, 0) + 1
                for d, c in counts.items():
                    if c < self.quorum:
                        continue
                    if d is None:
                        if r == self.round and self.step == Step.PREVOTE and r not in self.precommitted:
                            self.precommitted.add(r)
                            effects.append(Broadcast(self._vote(MsgKind.PRECOMMIT, None)))
                            self.step = Step.PRECOMMIT
                            self._bump(effects, now)
                            changed = True
                        continue
                    if self.locked_digest is not None and d != self.locked_digest and r > self.locked_round:
                        self.locked_digest = None
                        self.locked_block = None
                        self.locked_round = -1
                        changed = True
                    block = self.proposals.get(r)
                    if (
                        r == self.round
                        and self.round not in self.precommitted
                        and block is not None
                        and block.digest() == d
                        and self.step in (Step.PROPOSE, Step.PREVOTE)
                    ):
                        self.locked_digest = d
                        self.locked_block = block
                        self.locked_round = r
                        self.precommitted.add(r)
                        self.prevoted.add(r)
                        effects.append(Broadcast(self._vote(MsgKind.PRECOMMIT, d)))
                        self.step = Step.PRECOMMIT
                        self._bump(effects, now)
                        changed = True
            # Precommit quorums: commit (any round), or advance on a nil quorum.
            for r, votes in list(self.precommits.items()):
                counts = {}
                for d, _sig in votes.values():
                    counts[d] = counts.get(d, 0) + 1
                for d, c in counts.items():
                    if c < self.quorum:
                        continue
                    if d is None:
                        if r == self.round:
                            self._enter_round(self.round + 1, now, effects)
                            changed = True
                        continue
                    block = self.proposals.get(r)
                    if block is not None and block.digest() == d:
                        sigs = tuple(
                            sorted(
                                (addr, sig)
                                for addr, (vd, sig) in votes.items()
                                if vd == d
                            )
                        )
                        sealed = block.with_seal(BftSeal(block.seal.proposer, r, sigs))
                        self._commit(sealed, now, effects)
                        changed = True
                        break
                if changed:
                    break

    def _commit(self, sealed: Block, now: float, effects: list) -> None:
        self.ledger.append(sealed)
        self.book.apply_block(sealed)
        for tx in sealed.txs:
            self.mempool.pop(tx.digest(), None)
        decision = self._sign(
            ConsensusMsg(MsgKind.DECISION, sealed.height, sealed.seal.round, sealed.digest(), self.validator_id, block=sealed)
        )
        effects.append(Broadcast(decision))
        effects.append(Committed(sealed))
        self._enter_height(now, effects)

    def _enter_height(self, now: float, effects: list) -> None:
        self.height = self.ledger.height + 1
        self.round = 0
        self.step = Step.PROPOSE
        self.locked_digest = None
        self.locked_block = None
        self.locked_round = -1
        self.proposals = {}
        self.prevotes = {}
        self.precommits = {}
        self.prevoted = set()
        self.precommitted = set()
        start = max(now, self._height_start(self.height))
        if self.proposer(self.height, 0) == self.validator_id:
            effects.append(ProposeAt(start, self.height))
        self.deadline_epoch += 1
        effects.append(Deadline(start + self._delta(0), self.deadline_epoch))
        # Apply any buffered decision for the new height.
        buffered = self.future_decisions.pop(self.height, None)
        if buffered is not None and buffered.parent == self.ledger.head_digest():
            self._commit(buffered, now, effects)

    # -- decision sync ------------------------------------------------------------

    def _on_decision(self, now: float, msg: ConsensusMsg) -> list:
        block = msg.block
        if block is None or block.height < self.height or not self.verify_sealed(block):
            return []
        if block.height > self.height:
            self.future_decisions[block.height] = block
            return []
        if block.parent != self.ledger.head_digest():
            return []
        effects: list = []
        self._commit(block, now, effects)
        # Committing via a received decision: drop the redundant rebroadcast.
        effects = [e for e in effects if not (isinstance(e, Broadcast) and e.msg.kind == MsgKind.DECISION)]
        return effects


class ZoneFollower(CommitteeReplica):
    """Full-node replica of a zone ledger, fed by DECISION broadcasts.

    Delegates run one of these next to their inter-ledger node; it gives
    them the local intra-ledger view used for checkpoint verification and
    for the duplicate-payment guard.
    """

    def __init__(self, zone_id: int, committee: list[bytes], keyring: Keyring,
                 balances: dict[bytes, int] | None = None):
        super().__init__(committee, keyring)
        self.zone_id = zone_id
        self.ledger = Ledger()
        self.book = BalanceBook(balances)
        self._buffer: dict[int, Block] = {}

    def on_decision(self, block: Block) -> list[Block]:
        """Feed a sealed block; returns the blocks appended (in order)."""
        if block.height <= self.ledger.height or not self.verify_sealed(block):
            return []
        self._buffer[block.height] = block
        appended = []
        while True:
            nxt = self._buffer.get(self.ledger.height + 1)
            if nxt is None or nxt.parent != self.ledger.head_digest():
                break
            del self._buffer[nxt.height]
            self.ledger.append(nxt)
            self.book.apply_block(nxt)
            appended.append(nxt)
        return appended
