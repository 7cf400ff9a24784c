"""Public inter-ledger: work-sealed blocks, longest-chain fork choice,
probabilistic depth-k finality, a flat per-transaction fee, and
deterministic contract execution.

Amounts are integers in millitokens (1 token = 1000 units) so the fixed
0.001-token fee is exactly 1 unit (``FEE``) and conservation checks are
exact. No block mints new supply.

Every inter-ledger participant runs an ``InterNode``: a block tree with
per-block executed states (structurally shared immutable values), the
canonical chain under the longest-chain rule (ties keep the incumbent),
a pending pool in arrival order (admission takes only ``FEE``, so fees
never reorder it), an orphan buffer, and depth-k confirmation
tracking (the rule is ``confirmed_height``; ``on_block`` returns the txs
it confirmed). Mining nodes additionally hold hash power, and mining
runs in virtual time: a miner's next win is sampled from an exponential
with mean interval/share. Blocks are sealed with ``MAX_TARGET``, so any
nonce wins; ``on_block`` still checks each digest against the target
its seal declares.

A receipt is the status a transaction ended with: ``"ok"`` or the error
code of a failed call. Each node keeps the receipts of every stored
block in tx order and one ``(height, status)`` entry per canonical
transaction.

Reorganizations re-execute nothing: the state of every stored block is
computed exactly once per simulation, when the block first arrives at any
node, so switching branches is a pointer move plus pending-pool
reconciliation, and replaying the winning chain from genesis reproduces
identical state digests by construction. The nodes of one simulation
share an execution memo keyed by block digest, which covers the parent
digest and so the whole branch; a stored state is never written to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import contract as sc
from .chain import MAX_TARGET, Block, Checkpoint, PowSeal, build_block, genesis_block
from .crypto import (
    Keyring,
    Reader,
    enc_address,
    enc_blob,
    enc_u64,
    enc_u8,
    sha256,
)

ORPHAN_CAP = 64
FEE = 1  # the flat per-transaction fee, in millitokens

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
            cached = _inter_signing_bytes(self.sender, self.contract_id, self.method, self.args,
                                          self.attached_value, self.fee, self.checkpoint)
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


def _inter_signing_bytes(sender: bytes, contract_id: int, method: str, args: bytes,
                         attached: int, fee: int, checkpoint: Checkpoint | None) -> bytes:
    cp = b"\x01" + checkpoint.serialize() if checkpoint else b"\x00"
    return (enc_address(sender) + enc_u64(contract_id) + enc_blob(method.encode())
            + enc_blob(args) + enc_u64(attached) + enc_u64(fee) + cp)


def signed_inter_tx(key, contract_id: int, method: str, args: bytes = b"",
                    attached: int = 0, *, fee: int,
                    checkpoint: Checkpoint | None = None) -> InterTx:
    signing = _inter_signing_bytes(key.address, contract_id, method, args, attached, fee, checkpoint)
    tx = InterTx(key.address, contract_id, method, args, attached, fee, checkpoint,
                 Keyring.sign(key, signing))
    object.__setattr__(tx, "_signing", signing)
    return tx


class ChainState:
    """Executed ledger state: account balances and contract records."""

    __slots__ = ("balances", "contracts")

    def __init__(self, balances=None, contracts=None):
        self.balances: dict[bytes, int] = balances if balances is not None else {}
        self.contracts: dict[int, sc.BrokerInfo] = contracts if contracts is not None else {}

    def copy(self) -> "ChainState":
        # Broker records are immutable, so shallow dict copies suffice.
        return ChainState(dict(self.balances), dict(self.contracts))

    def balance(self, addr: bytes) -> int:
        return self.balances.get(addr, 0)

    def total_supply(self) -> int:
        return sum(self.balances.values()) + sum(c.escrow for c in self.contracts.values())

    def digest(self) -> bytes:
        out = bytearray()
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


def execute_tx(state: ChainState, tx: InterTx, miner: bytes, keyring: Keyring) -> str:
    """Apply one transaction to ``state`` in place; returns its receipt, the
    status ``"ok"`` or an error code.

    Failed calls keep the fee and refund the attached value; a sender who
    cannot cover fee + attached value has no effect at all. A call whose
    args do not decode fails with ``BadArgs``.
    """
    if not keyring.verify_signed(tx):
        return "BadSignature"
    cost = tx.fee + tx.attached_value
    if state.balance(tx.sender) < cost:
        return "InsufficientFunds"
    state.balances[tx.sender] = state.balance(tx.sender) - cost
    state.balances[miner] = state.balance(miner) + tx.fee

    def refund():
        state.balances[tx.sender] = state.balance(tx.sender) + tx.attached_value

    try:
        if tx.method == M_TRANSFER:
            (to,) = _addresses(tx.args, 1)
            state.balances[to] = state.balance(to) + tx.attached_value
        elif tx.method == M_NOOP:
            refund()
        elif tx.method in (M_CONFIG_PUB, M_CONFIG_SUB, M_COMMIT, M_SETTLE, M_REPLACE):
            info = state.contracts.get(tx.contract_id)
            if info is None:
                refund()
                return "UnknownContract"
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
            else:  # M_REPLACE
                old, new_addr = _addresses(tx.args, 2)
                state.contracts[tx.contract_id] = sc.replace_delegate(info, tx.sender, old, new_addr)
                refund()
        else:
            refund()
            return "UnknownMethod"
    except sc.ContractError as e:
        refund()
        return e.code
    return "ok"


def _addresses(args: bytes, n: int) -> list[bytes]:
    """The first ``n`` addresses of a call's args; BadArgs if args are shorter."""
    r = Reader(args)
    try:
        return [r.address() for _ in range(n)]
    except ValueError:
        raise sc.BadArgs("truncated call arguments") from None


def execute_block(parent_state: ChainState, block: Block,
                  keyring: Keyring) -> tuple[ChainState, tuple]:
    state = parent_state.copy()
    miner = block.seal.miner
    receipts = tuple(execute_tx(state, tx, miner, keyring) for tx in block.txs)
    return state, receipts


@dataclass
class AdoptResult:
    reason: str = ""  # why nothing was stored
    reorg_depth: int = 0  # blocks displaced from the canonical chain; 0 if none
    confirmed: tuple = ()  # txs this call added to InterNode.confirmed
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
        confirmation_depth: int,
        block_capacity: int,
        executions: dict | None = None,
    ):
        self.address = address
        self.keyring = keyring
        self.k = confirmation_depth
        self.block_capacity = block_capacity
        g = genesis_block("pow")
        gd = g.digest()
        self.blocks: dict[bytes, Block] = {gd: g}
        self.states: dict[bytes, ChainState] = {gd: genesis_state.copy()}
        self.block_receipts: dict[bytes, tuple] = {gd: ()}  # block -> statuses in tx order
        # Block digest -> executed (state, receipts). Shared only among nodes
        # with the same keyring and genesis state; private if None.
        self.executions: dict[bytes, tuple] = executions if executions is not None else {}
        self.canonical: list[bytes] = [gd]
        self.pending: dict[bytes, InterTx] = {}  # insertion order is arrival order
        self.seen: set[bytes] = set()
        self.orphans: dict[bytes, Block] = {}
        self.confirmed: set[bytes] = set()
        # Every canonical tx: digest -> (height, status).
        self.canonical_receipts: dict[bytes, tuple[int, str]] = {}
        self._confirm_frontier = 0  # highest canonical height already scanned

    # -- views -------------------------------------------------------------

    @property
    def tip(self) -> bytes:
        return self.canonical[-1]

    @property
    def tip_height(self) -> int:
        return len(self.canonical) - 1

    @property
    def confirmed_height(self) -> int:
        """Height of the deepest canonical block with depth >= k (< 1 if none)."""
        return self.tip_height - self.k + 1

    def tip_state(self) -> ChainState:
        return self.states[self.tip]

    def confirmed_state(self) -> ChainState:
        """State as of the deepest block with depth >= k (genesis if none)."""
        return self.states[self.canonical[max(0, self.confirmed_height)]]

    def find_checkpoint(self, cp: Checkpoint) -> bool:
        """True iff a confirmed canonical transaction carries exactly this checkpoint."""
        for h in range(1, self.confirmed_height + 1):
            for tx in self.blocks[self.canonical[h]].txs:
                if tx.checkpoint == cp:
                    return True
        return False

    # -- pool -----------------------------------------------------------------

    def submit_tx(self, tx: InterTx) -> tuple[bool, str]:
        d = tx.digest()
        if d in self.seen:
            return False, "Duplicate"
        if not self.keyring.verify_signed(tx):
            return False, "BadSignature"
        if tx.fee != FEE:
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
        return True, ""

    def _select_txs(self) -> list[InterTx]:
        # Every pooled tx pays FEE (admission refuses any other), so the
        # oldest come first.
        return list(islice(self.pending.values(), self.block_capacity))

    # -- mining ------------------------------------------------------------------

    def build_block(self, now: float, nonce: int = 0) -> Block:
        txs = self._select_txs()
        return build_block(
            self.tip,
            self.tip_height + 1,
            txs,
            int(now),
            PowSeal(miner=self.address, nonce=nonce, target=MAX_TARGET),
        )

    @staticmethod
    def sample_block_delay(rng, mean_interval_ms: float, share: float) -> float:
        """Exponential wait for this miner's next win."""
        return rng.expovariate(share / mean_interval_ms)

    # -- fork choice -----------------------------------------------------------------

    def on_block(self, block: Block) -> AdoptResult:
        d = block.digest()
        if d in self.blocks:
            return AdoptResult("known")
        seal = block.seal
        if not isinstance(seal, PowSeal):
            return AdoptResult("BadSeal")
        if int.from_bytes(d, "big") >= seal.target:
            return AdoptResult("BadSeal")
        if block.parent not in self.blocks:
            if len(self.orphans) >= ORPHAN_CAP:
                self.orphans.pop(next(iter(self.orphans)))
            self.orphans[d] = block
            return AdoptResult("orphan")
        parent = self.blocks[block.parent]
        if block.height != parent.height + 1:
            return AdoptResult("BadHeight")
        executed = self.executions.get(d)
        if executed is None:
            executed = self.executions[d] = execute_block(self.states[block.parent], block,
                                                          self.keyring)
        state, receipts = executed
        self.blocks[d] = block
        self.states[d] = state
        self.block_receipts[d] = receipts
        for tx in block.txs:
            self.seen.add(tx.digest())

        result = AdoptResult(adopted_blocks=(block,))
        if block.height > self.tip_height:
            result.tip_changed = True
            displaced_txs: list[bytes] = []
            if block.parent == self.tip:
                self._extend(d, block)
            else:
                result.reorg_depth = self._reorg(d, block, displaced_txs)
            result.confirmed, result.reverted_confirmed = self._update_confirmations(displaced_txs)

        # Re-attach any orphans waiting on this block.
        waiting = [o for o in self.orphans.values() if o.parent == d]
        for o in waiting:
            self.orphans.pop(o.digest(), None)
            sub = self.on_block(o)
            result.adopted_blocks += sub.adopted_blocks
            if sub.tip_changed:
                result.tip_changed = True
                result.reorg_depth = max(result.reorg_depth, sub.reorg_depth)
                result.confirmed += sub.confirmed
                result.reverted_confirmed += sub.reverted_confirmed
        return result

    def _extend(self, d: bytes, block: Block) -> None:
        self.canonical.append(d)
        for tx, status in zip(block.txs, self.block_receipts[d]):
            td = tx.digest()
            self.pending.pop(td, None)
            self.canonical_receipts[td] = (block.height, status)

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
                self.canonical_receipts.pop(td, None)
                if td not in self.pending:
                    self.pending[td] = tx
        self.canonical = self.canonical[: fork_height + 1]
        self._confirm_frontier = min(self._confirm_frontier, fork_height)
        for bd in reversed(path):
            self._extend(bd, self.blocks[bd])
        return depth

    def _update_confirmations(self, displaced_txs: list) -> tuple[tuple, tuple]:
        """Confirm txs that reached depth k; returns them, and the confirmed
        txs that a reorg dropped from the canonical chain."""
        confirmed, reverted = [], []
        # Only a reorg can drop a confirmed tx out of the canonical chain;
        # displaced txs may have been re-included by the new branch.
        for td in displaced_txs:
            if td in self.confirmed and td not in self.canonical_receipts:
                reverted.append(td)
                self.confirmed.discard(td)
        limit = self.confirmed_height
        for h in range(self._confirm_frontier + 1, limit + 1):
            bd = self.canonical[h]
            for tx in self.blocks[bd].txs:
                td = tx.digest()
                if td not in self.confirmed:
                    self.confirmed.add(td)
                    confirmed.append(td)
        if limit > self._confirm_frontier:
            self._confirm_frontier = limit
        return tuple(confirmed), tuple(reverted)
