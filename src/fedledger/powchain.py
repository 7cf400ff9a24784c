"""Public inter-ledger: work-sealed blocks, longest-chain fork choice,
probabilistic depth-k finality, a flat per-transaction fee, and
deterministic contract execution.

Amounts are integers in millitokens (1 token = 1000 units) so the fixed
0.001-token fee is exactly 1 unit and conservation checks are exact.

Every inter-ledger participant runs an ``InterNode``: a block tree with
per-block executed states (structurally shared immutable values), the
canonical chain under the longest-chain rule (ties keep the incumbent),
a pending pool ordered by (fee desc, arrival), an orphan buffer, and
depth-k confirmation tracking. Mining nodes additionally hold hash
power; in virtual-time mode the next win is sampled from an exponential
with mean interval/share, in puzzle mode nonces are ground until the
header digest falls below the target.

Reorganizations re-execute nothing: the state of every stored block is
computed exactly once when the block arrives, so switching branches is a
pointer move plus pending-pool reconciliation, and replaying the winning
chain from genesis reproduces identical state digests by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import contract as sc
from .chain import Block, Checkpoint, PowSeal, build_block, genesis_block
from .crypto import (
    Keyring,
    Reader,
    enc_address,
    enc_blob,
    enc_u64,
    enc_u8,
    sha256,
)

DEFAULT_FEE = 1  # 0.001 token
INTER_BLOCK_CAPACITY = 571
ORPHAN_CAP = 64

# Contract method names, used in InterTx.call.
M_TRANSFER = "transfer"
M_NOOP = "noop"
M_CONFIG_PUB = "configure_publisher"
M_CONFIG_SUB = "configure_subscriber"
M_COMMIT = "commit_service"
M_SETTLE = "settle_payment"
M_REPLACE = "replace_delegate"


@dataclass(frozen=True)
class InterTx:
    sender: bytes
    contract_id: int
    method: str
    args: bytes
    attached_value: int
    fee: int
    checkpoint: Checkpoint | None = None
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        cached = self.__dict__.get("_signing")
        if cached is None:
            cp = b"\x01" + self.checkpoint.serialize() if self.checkpoint else b"\x00"
            cached = (
                enc_address(self.sender)
                + enc_u64(self.contract_id)
                + enc_blob(self.method.encode())
                + enc_blob(self.args)
                + enc_u64(self.attached_value)
                + enc_u64(self.fee)
                + cp
            )
            object.__setattr__(self, "_signing", cached)
        return cached

    def serialize(self) -> bytes:
        return self.signing_bytes() + enc_blob(self.signature)

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = sha256(self.serialize())
            object.__setattr__(self, "_digest", cached)
        return cached


def signed_inter_tx(key, contract_id: int, method: str, args: bytes = b"",
                    attached: int = 0, fee: int = DEFAULT_FEE,
                    checkpoint: Checkpoint | None = None) -> InterTx:
    unsigned = InterTx(key.address, contract_id, method, args, attached, fee, checkpoint)
    return InterTx(key.address, contract_id, method, args, attached, fee, checkpoint,
                   Keyring.sign(key, unsigned.signing_bytes()))


class ChainState:
    """Executed ledger state: account balances and contract records."""

    __slots__ = ("balances", "contracts", "fees_total", "minted_total")

    def __init__(self, balances=None, contracts=None, fees_total=0, minted_total=0):
        self.balances: dict[bytes, int] = balances if balances is not None else {}
        self.contracts: dict[int, sc.BrokerInfo] = contracts if contracts is not None else {}
        self.fees_total = fees_total
        self.minted_total = minted_total  # cumulative block subsidies

    def copy(self) -> "ChainState":
        # Broker records are immutable, so shallow dict copies suffice.
        return ChainState(dict(self.balances), dict(self.contracts),
                          self.fees_total, self.minted_total)

    def balance(self, addr: bytes) -> int:
        return self.balances.get(addr, 0)

    def total_supply(self) -> int:
        return sum(self.balances.values()) + sum(c.escrow for c in self.contracts.values())

    def digest(self) -> bytes:
        out = bytearray()
        out += enc_u64(self.minted_total)
        for addr in sorted(self.balances):
            out += addr + enc_u64(self.balances[addr])
        for cid in sorted(self.contracts):
            c = self.contracts[cid]
            out += enc_u64(cid)
            out += c.publisher_id + c.subscriber_id
            out += enc_u64(c.pub_zid) + enc_u64(c.sub_zid)
            out += enc_u8(c.pub_status) + enc_u8(c.sub_status)
            out += c.pub_service + c.sub_service
            out += enc_u8(int(c.pub_committed)) + enc_u8(int(c.sub_committed))
            out += enc_u8(int(c.broker_status)) + enc_u64(c.escrow)
            for cp in c.tx_refs:
                out += cp.serialize()
        return sha256(bytes(out))


@dataclass(frozen=True)
class Receipt:
    tx_digest: bytes
    status: str  # "ok" | error code
    method: str
    sender: bytes
    contract_id: int
    attached_value: int
    fee: int
    payout_to: bytes | None = None
    payout_amount: int = 0


def execute_tx(state: ChainState, tx: InterTx, miner: bytes, keyring: Keyring) -> Receipt:
    """Apply one transaction to ``state`` in place; returns its receipt.

    Failed calls keep the fee and refund the attached value; a sender who
    cannot cover fee + attached value has no effect at all.
    """
    d = tx.digest()
    if not keyring.verify(tx.sender, tx.signing_bytes(), tx.signature):
        return Receipt(d, "BadSignature", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)
    cost = tx.fee + tx.attached_value
    if state.balance(tx.sender) < cost:
        return Receipt(d, "InsufficientFunds", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)
    state.balances[tx.sender] = state.balance(tx.sender) - cost
    state.balances[miner] = state.balance(miner) + tx.fee
    state.fees_total += tx.fee

    def refund():
        state.balances[tx.sender] = state.balance(tx.sender) + tx.attached_value

    try:
        if tx.method == M_TRANSFER:
            r = Reader(tx.args)
            to = r.address()
            state.balances[to] = state.balance(to) + tx.attached_value
        elif tx.method == M_NOOP:
            refund()
        elif tx.method in (M_CONFIG_PUB, M_CONFIG_SUB, M_COMMIT, M_SETTLE, M_REPLACE):
            info = state.contracts.get(tx.contract_id)
            if info is None:
                refund()
                return Receipt(d, "UnknownContract", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)
            if tx.method == M_CONFIG_PUB:
                if tx.checkpoint is None:
                    raise sc.InvalidState("configuration requires a checkpoint")
                state.contracts[tx.contract_id] = sc.configure_publisher(info, tx.sender, tx.checkpoint, tx.args)
                refund()
            elif tx.method == M_CONFIG_SUB:
                if tx.checkpoint is None:
                    raise sc.InvalidState("configuration requires a checkpoint")
                state.contracts[tx.contract_id] = sc.configure_subscriber(
                    info, tx.sender, tx.checkpoint, tx.args, tx.attached_value
                )
            elif tx.method == M_COMMIT:
                state.contracts[tx.contract_id] = sc.commit_service(info, tx.sender)
                refund()
            elif tx.method == M_SETTLE:
                new, payee, amount = sc.settle_payment(info, tx.sender)
                state.contracts[tx.contract_id] = new
                state.balances[payee] = state.balance(payee) + amount
                refund()
                return Receipt(d, "ok", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee,
                               payout_to=payee, payout_amount=amount)
            else:  # M_REPLACE
                r = Reader(tx.args)
                old, new_addr = r.address(), r.address()
                state.contracts[tx.contract_id] = sc.replace_delegate(info, tx.sender, old, new_addr)
                refund()
        else:
            refund()
            return Receipt(d, "UnknownMethod", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)
    except sc.ContractError as e:
        refund()
        return Receipt(d, e.code, tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)
    return Receipt(d, "ok", tx.method, tx.sender, tx.contract_id, tx.attached_value, tx.fee)


def execute_block(parent_state: ChainState, block: Block, keyring: Keyring,
                  block_reward: int = 0) -> tuple[ChainState, tuple]:
    state = parent_state.copy()
    miner = block.seal.miner
    if block_reward:
        # Subsidy mints new supply; off by default so conservation is exact.
        state.balances[miner] = state.balance(miner) + block_reward
        state.minted_total += block_reward
    receipts = tuple(execute_tx(state, tx, miner, keyring) for tx in block.txs)
    return state, receipts


@dataclass
class AdoptResult:
    adopted: bool
    reason: str = ""
    reorged: bool = False
    reorg_depth: int = 0
    newly_confirmed: tuple = ()
    reverted_confirmed: tuple = ()
    tip_changed: bool = False
    adopted_blocks: tuple = ()  # every block stored by this call (incl. reattached orphans)


class InterNode:
    """Block tree, fork choice, pool, and confirmation tracking for one node."""

    def __init__(
        self,
        address: bytes,
        keyring: Keyring,
        genesis_state: ChainState,
        target: int,
        confirmation_depth: int = 6,
        block_capacity: int = INTER_BLOCK_CAPACITY,
        fee: int = DEFAULT_FEE,
        block_reward: int = 0,
    ):
        self.address = address
        self.keyring = keyring
        self.target = target
        self.k = confirmation_depth
        self.block_capacity = block_capacity
        self.fee = fee
        self.block_reward = block_reward
        g = genesis_block("pow")
        gd = g.digest()
        self.genesis_digest = gd
        self.blocks: dict[bytes, Block] = {gd: g}
        self.states: dict[bytes, ChainState] = {gd: genesis_state.copy()}
        self.block_receipts: dict[bytes, tuple] = {gd: ()}
        self.canonical: list[bytes] = [gd]
        self.pending: dict[bytes, InterTx] = {}
        self._arrival: dict[bytes, int] = {}
        self._arrival_seq = 0
        self._fee_values: set[int] = set()
        self.seen: set[bytes] = set()
        self.orphans: dict[bytes, Block] = {}
        self.confirm_times: dict[bytes, float] = {}
        self.confirmed: set[bytes] = set()
        self.canonical_txs: set[bytes] = set()
        self.canonical_receipts: dict[bytes, Receipt] = {}
        self.tx_heights: dict[bytes, int] = {}
        self._confirm_frontier = 0  # highest canonical height already scanned

    # -- views -------------------------------------------------------------

    @property
    def tip(self) -> bytes:
        return self.canonical[-1]

    @property
    def tip_height(self) -> int:
        return len(self.canonical) - 1

    def tip_state(self) -> ChainState:
        return self.states[self.tip]

    def confirmed_state(self) -> ChainState:
        """State as of the deepest block with depth >= k (genesis if none)."""
        h = max(0, self.tip_height - self.k + 1)
        return self.states[self.canonical[h]]

    def find_checkpoint(self, cp: Checkpoint) -> bool:
        """True iff a confirmed canonical transaction carries exactly this checkpoint."""
        limit = self.tip_height - self.k + 1
        for h in range(1, limit + 1):
            for tx in self.blocks[self.canonical[h]].txs:
                if tx.checkpoint == cp:
                    return True
        return False

    # -- pool -----------------------------------------------------------------

    def submit_tx(self, tx: InterTx) -> tuple[bool, str]:
        d = tx.digest()
        if d in self.seen:
            return False, "Duplicate"
        if not self.keyring.verify(tx.sender, tx.signing_bytes(), tx.signature):
            return False, "BadSignature"
        if tx.fee != self.fee:
            return False, "BadFee"
        state = self.tip_state()
        if state.balance(tx.sender) < tx.attached_value + tx.fee:
            return False, "InsufficientFunds"
        if tx.method == M_REPLACE:
            info = state.contracts.get(tx.contract_id)
            if info is None or tx.sender != info.admin:
                return False, "Unauthorized"
        self.seen.add(d)
        self.pending[d] = tx
        self._arrival_seq += 1
        self._arrival[d] = self._arrival_seq
        self._fee_values.add(tx.fee)
        return True, ""

    def _select_txs(self) -> list[InterTx]:
        # Highest fee first, arrival order breaking ties. Admission pins
        # fees to one value, so the common case is plain insertion order.
        if len(self._fee_values) > 1:
            order = sorted(self.pending, key=lambda d: (-self.pending[d].fee, self._arrival[d]))
            return [self.pending[d] for d in order[: self.block_capacity]]
        out = []
        for tx in self.pending.values():
            out.append(tx)
            if len(out) >= self.block_capacity:
                break
        return out

    # -- mining ------------------------------------------------------------------

    def build_block(self, now: float, nonce: int = 0) -> Block:
        txs = self._select_txs()
        return build_block(
            self.tip,
            self.tip_height + 1,
            txs,
            int(now),
            PowSeal(miner=self.address, nonce=nonce, target=self.target),
        )

    def mine_step(self, now: float, start_nonce: int = 0, batch: int = 1024) -> Block | None:
        """Puzzle mode: try a batch of nonces; a winning block if one qualifies."""
        txs = self._select_txs()
        for nonce in range(start_nonce, start_nonce + batch):
            block = build_block(
                self.tip, self.tip_height + 1, txs, int(now),
                PowSeal(miner=self.address, nonce=nonce, target=self.target),
            )
            if int.from_bytes(block.digest(), "big") < self.target:
                return block
        return None

    @staticmethod
    def sample_block_delay(rng, mean_interval_ms: float, share: float) -> float:
        """Virtual-time mode: exponential wait for this miner's next win."""
        return rng.expovariate(share / mean_interval_ms)

    # -- fork choice -----------------------------------------------------------------

    def on_block(self, block: Block, now: float) -> AdoptResult:
        d = block.digest()
        if d in self.blocks:
            return AdoptResult(False, "known")
        seal = block.seal
        if not isinstance(seal, PowSeal):
            return AdoptResult(False, "BadSeal")
        if int.from_bytes(d, "big") >= seal.target:
            return AdoptResult(False, "BadSeal")
        if block.parent not in self.blocks:
            if len(self.orphans) >= ORPHAN_CAP:
                self.orphans.pop(next(iter(self.orphans)))
            self.orphans[d] = block
            return AdoptResult(False, "orphan")
        parent = self.blocks[block.parent]
        if block.height != parent.height + 1:
            return AdoptResult(False, "BadHeight")
        state, receipts = execute_block(self.states[block.parent], block, self.keyring,
                                        self.block_reward)
        self.blocks[d] = block
        self.states[d] = state
        self.block_receipts[d] = receipts
        for tx in block.txs:
            self.seen.add(tx.digest())

        result = AdoptResult(True, adopted_blocks=(block,))
        if block.height > self.tip_height:
            result.tip_changed = True
            displaced_txs: list[bytes] = []
            if block.parent == self.tip:
                self._extend(d, block)
            else:
                result.reorged = True
                result.reorg_depth = self._reorg(d, block, displaced_txs)
            confirmed, reverted = self._update_confirmations(now, displaced_txs)
            result.newly_confirmed = tuple(confirmed)
            result.reverted_confirmed = tuple(reverted)

        # Re-attach any orphans waiting on this block.
        waiting = [o for o in self.orphans.values() if o.parent == d]
        for o in waiting:
            self.orphans.pop(o.digest(), None)
            sub = self.on_block(o, now)
            result.adopted_blocks += sub.adopted_blocks
            if sub.tip_changed:
                result.tip_changed = True
                result.reorged = result.reorged or sub.reorged
                result.reorg_depth = max(result.reorg_depth, sub.reorg_depth)
                result.newly_confirmed += sub.newly_confirmed
                result.reverted_confirmed += sub.reverted_confirmed
        return result

    def _extend(self, d: bytes, block: Block) -> None:
        self.canonical.append(d)
        for pos, tx in enumerate(block.txs):
            td = tx.digest()
            self.pending.pop(td, None)
            self.canonical_txs.add(td)
            self.tx_heights[td] = block.height
        for r in self.block_receipts[d]:
            self.canonical_receipts[r.tx_digest] = r

    def _reorg(self, new_tip: bytes, block: Block, displaced_txs: list) -> int:
        # Walk the new branch back to the first block already canonical.
        path = []
        cursor_d, cursor = new_tip, block
        while not (cursor.height <= self.tip_height and self.canonical[cursor.height] == cursor_d):
            path.append(cursor_d)
            cursor_d = cursor.parent
            cursor = self.blocks[cursor_d]
        fork_height = cursor.height
        displaced = self.canonical[fork_height + 1:]
        depth = len(displaced)
        # Displaced transactions go back to the pool.
        for bd in displaced:
            for tx in self.blocks[bd].txs:
                td = tx.digest()
                displaced_txs.append(td)
                self.canonical_txs.discard(td)
                self.canonical_receipts.pop(td, None)
                self.tx_heights.pop(td, None)
                if td not in self.pending:
                    self.pending[td] = tx
                    self._arrival_seq += 1
                    self._arrival[td] = self._arrival_seq
                    self._fee_values.add(tx.fee)
        self.canonical = self.canonical[: fork_height + 1]
        self._confirm_frontier = min(self._confirm_frontier, fork_height)
        for bd in reversed(path):
            self._extend(bd, self.blocks[bd])
        return depth

    def _update_confirmations(self, now: float, displaced_txs: list):
        newly, reverted = [], []
        # Only a reorg can drop a confirmed tx out of the canonical chain;
        # displaced txs may have been re-included by the new branch.
        for td in displaced_txs:
            if td in self.confirmed and td not in self.canonical_txs:
                reverted.append(td)
                self.confirmed.discard(td)
        limit = self.tip_height - self.k + 1
        for h in range(self._confirm_frontier + 1, limit + 1):
            bd = self.canonical[h]
            for tx in self.blocks[bd].txs:
                td = tx.digest()
                if td not in self.confirmed:
                    self.confirmed.add(td)
                    if td not in self.confirm_times:
                        self.confirm_times[td] = now
                    newly.append(td)
        if limit > self._confirm_frontier:
            self._confirm_frontier = limit
        return newly, reverted
