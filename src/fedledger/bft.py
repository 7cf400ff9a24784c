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

``CommitteeReplica``, the base of the validator and of the zone full node
(``ZoneFollower``), owns the committed state: ledger, balance book, and
sealed blocks that came early. Its ``on_decision`` is the one way into
the ledger, for a block sealed in the validator's own round or received.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

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
        cached = self.__dict__.get("_signing")
        if cached is None:
            cached = (
                enc_u8(self.kind.value)
                + enc_u64(self.height)
                + enc_u32(self.round)
                + enc_digest(self.block_digest or ZERO_DIGEST)
                + enc_address(self.sender)
            )
            object.__setattr__(self, "_signing", cached)
        return cached

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
    """A replica of one zone ledger: adopts blocks sealed by a quorum of its committee."""

    def __init__(self, committee: list[bytes], keyring: Keyring,
                 balances: dict[bytes, int] | None = None):
        self.committee = list(committee)
        self.keyring = keyring
        _f, self.quorum = committee_bounds(len(self.committee))
        self.ledger = Ledger()
        self.book = BalanceBook(balances)
        self._buffer: dict[int, Block] = {}  # sealed blocks above the head, by height

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

    def on_decision(self, block: Block, seal_checked: bool = False) -> list[Block]:
        """Adopt a sealed block: check its seal (unless the caller sealed it
        from checked precommits), buffer it, then append and apply every
        buffered block that extends the head. Returns those, in height order."""
        if block.height <= self.ledger.height:
            return []
        if not seal_checked and not self.verify_sealed(block):
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
        super().__init__(committee, keyring, balances)
        self.key = key
        self.validator_id = key.address
        self.zone_id = zone_id
        self.block_capacity = block_capacity
        self.round_timeout_ms = round_timeout_ms
        self.block_interval_ms = block_interval_ms

        self.mempool: dict[bytes, IntraTx] = {}
        self.deadline_epoch = 0
        self.evidence: list[Evidence] = []
        self._new_height()

    def _new_height(self) -> None:
        """Fresh state for the height above the ledger head, round 0."""
        self.height = self.ledger.height + 1
        self.round = 0
        self.step = Step.PROPOSE
        self.locked_block: Block | None = None
        self.locked_round = -1
        # Vote state of this height. Own votes are entered too, so the
        # tables say whether this validator voted (_voted).
        self.proposals: dict[int, Block] = {}
        self.prevotes: dict[int, dict[bytes, bytes | None]] = {}
        self.precommits: dict[int, dict[bytes, tuple]] = {}  # round -> sender -> (digest, sig)
        # Votes per round and digest (None: nil), kept by _record_vote in
        # first-seen order: rounds as first voted in, digests as first voted for.
        self.prevote_tally: dict[int, dict[bytes | None, int]] = {}
        self.precommit_tally: dict[int, dict[bytes | None, int]] = {}

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

    def _voted(self, table: dict, round_: int) -> bool:
        return self.validator_id in table.get(round_, ())

    def _vote(self, kind: MsgKind, digest: bytes | None) -> ConsensusMsg:
        # Own votes count toward quorums immediately.
        msg = self._sign(ConsensusMsg(kind, self.height, self.round, digest, self.validator_id))
        self._record_vote(msg)
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
        if not self.keyring.verify_signed(tx):
            return False
        self.mempool[d] = tx
        return True

    # -- entry points ----------------------------------------------------------

    def start(self, now: float) -> list:
        effects: list = []
        self._schedule_height(self.height, now, effects)
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
            if not self._voted(self.prevotes, self.round):
                effects.append(Broadcast(self._vote(MsgKind.PREVOTE, None)))
            self.step = Step.PREVOTE
            self._bump(effects, now)
        elif self.step == Step.PREVOTE:
            if not self._voted(self.precommits, self.round):
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
        if not self.keyring.verify_signed(msg):
            return []
        effects: list = []
        if msg.kind == MsgKind.DECISION:
            if msg.block is not None:
                # Adopted, not announced: the sender has broadcast it already.
                self._commit(self.on_decision(msg.block), now, effects, announce=False)
            return effects
        if msg.height != self.height:
            return []  # stale or future height; DECISION sync covers gaps
        if msg.kind == MsgKind.PROPOSAL:
            self._record_proposal(msg)
        else:
            self._record_vote(msg)
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

    def _record_vote(self, msg: ConsensusMsg) -> None:
        """Enter a PREVOTE or PRECOMMIT into its table and tally, once per sender and round."""
        if msg.kind == MsgKind.PREVOTE:
            table, tally, step, value = self.prevotes, self.prevote_tally, "prevote", msg.block_digest
        else:
            table, tally, step = self.precommits, self.precommit_tally, "precommit"
            value = (msg.block_digest, msg.signature)
        votes = table.setdefault(msg.round, {})
        if msg.sender in votes:
            prior = votes[msg.sender]
            prior_digest = prior if step == "prevote" else prior[0]
            if prior_digest != msg.block_digest:
                self.evidence.append(
                    Evidence(msg.sender, msg.height, msg.round, step, (prior_digest, msg.block_digest))
                )
            return
        votes[msg.sender] = value
        counts = tally.setdefault(msg.round, {})
        counts[msg.block_digest] = counts.get(msg.block_digest, 0) + 1

    # -- state transitions ------------------------------------------------------

    def _propose(self, now: float) -> list:
        if self.locked_block is not None:
            block = self.locked_block
        else:
            txs = list(islice(self.mempool.values(), self.block_capacity))
            block = build_block(self.ledger.head_digest(), self.height, txs, int(now),
                                BftSeal(proposer=self.validator_id, round=self.round))
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
            if self.step == Step.PROPOSE and not self._voted(self.prevotes, self.round):
                block = self.proposals.get(self.round)
                if block is not None:
                    d = block.digest()
                    vote = d if (self.locked_block is None or self.locked_block.digest() == d) else None
                    effects.append(Broadcast(self._vote(MsgKind.PREVOTE, vote)))
                    self.step = Step.PREVOTE
                    self._bump(effects, now)
                    changed = True
            # Prevote quorums: lock and precommit, or unlock on a later polka.
            # Snapshots, as _enter_round and _commit can re-enter this method.
            for r, counts in list(self.prevote_tally.items()):
                for d, c in list(counts.items()):
                    if c < self.quorum:
                        continue
                    if d is None:
                        if r == self.round and self.step == Step.PREVOTE and not self._voted(self.precommits, r):
                            effects.append(Broadcast(self._vote(MsgKind.PRECOMMIT, None)))
                            self.step = Step.PRECOMMIT
                            self._bump(effects, now)
                            changed = True
                        continue
                    if self.locked_block is not None and d != self.locked_block.digest() and r > self.locked_round:
                        self.locked_block = None
                        self.locked_round = -1
                        changed = True
                    block = self.proposals.get(r)
                    if (
                        r == self.round
                        and not self._voted(self.precommits, r)
                        and block is not None
                        and block.digest() == d
                        and self.step in (Step.PROPOSE, Step.PREVOTE)
                    ):
                        self.locked_block = block
                        self.locked_round = r
                        effects.append(Broadcast(self._vote(MsgKind.PRECOMMIT, d)))
                        self.step = Step.PRECOMMIT
                        self._bump(effects, now)
                        changed = True
            # Precommit quorums: commit (any round), or advance on a nil quorum.
            # The tables of this height: _new_height replaces both maps.
            precommits = self.precommits
            for r, counts in list(self.precommit_tally.items()):
                for d, c in list(counts.items()):
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
                                for addr, (vd, sig) in precommits[r].items()
                                if vd == d
                            )
                        )
                        sealed = block.with_seal(BftSeal(block.seal.proposer, r, sigs))
                        self._commit(self.on_decision(sealed, seal_checked=True), now, effects,
                                     announce=True)
                        changed = True
                        break
                if changed:
                    break

    def _commit(self, blocks: list[Block], now: float, effects: list, announce: bool) -> None:
        """Effects of blocks just appended, each with the timers of the height
        it opens, then fresh state above the last. ``announce`` broadcasts a
        DECISION per block: a commit of the validator's own round announces
        (drained buffered blocks too), adopting a received DECISION does not."""
        if not blocks:
            return
        for block in blocks:
            for tx in block.txs:
                self.mempool.pop(tx.digest(), None)
            if announce:
                decision = ConsensusMsg(MsgKind.DECISION, block.height, block.seal.round, block.digest(),
                                        self.validator_id, block=block)
                effects.append(Broadcast(self._sign(decision)))
            effects.append(Committed(block))
            self._schedule_height(block.height + 1, now, effects)
        self._new_height()

    def _schedule_height(self, height: int, now: float, effects: list) -> None:
        start = max(now, self._height_start(height))
        if self.proposer(height, 0) == self.validator_id:
            effects.append(ProposeAt(start, height))
        self.deadline_epoch += 1
        effects.append(Deadline(start + self._delta(0), self.deadline_epoch))


class ZoneFollower(CommitteeReplica):
    """Full-node replica of a zone ledger, fed by DECISION broadcasts.

    Delegates run one of these next to their inter-ledger node; it gives
    them the local intra-ledger view used for checkpoint verification and
    for the duplicate-payment guard.
    """
