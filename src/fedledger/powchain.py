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
never reorder it), an orphan buffer, and depth-k confirmation: one rule,
``confirmed_receipt``, from which ``on_block`` derives the txs it
confirmed and reverted; no set of confirmed txs. Mining nodes
additionally hold hash power, and mining runs in virtual time: a miner's
next win is sampled from an exponential with mean interval/share. Blocks
are sealed with ``MAX_TARGET``, so any nonce wins; ``on_block`` still
checks each digest against the target its seal declares.

A receipt is the status a transaction ended with: ``"ok"`` or the error
code of a failed call. Each node keeps the receipts of every stored
block in tx order. The nodes of one simulation share one tx index
(``chain.TxIndex``) that lists every executed block holding each tx,
side branches included; a node's ``canonical_receipts`` is a read-only
view that maps a tx to ``(height, status)`` of its last occurrence on
that node's canonical chain. The index also answers pool admission: a
tx is a duplicate if it is pending or in a block the node stores.

Reorganizations re-execute nothing: the state of every stored block is
computed exactly once per simulation, when the block first arrives at any
node, so switching branches is a pointer move plus pending-pool
reconciliation, and replaying the winning chain from genesis reproduces
identical states by construction. The nodes of one simulation
share an execution memo keyed by block digest, which covers the parent
digest and so the whole branch; a stored state is never written to.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice

from . import contract as sc
from .chain import MAX_TARGET, Block, Checkpoint, PowSeal, TxIndex, build_block, genesis_block
from .crypto import (
    Keyring,
    Reader,
    SignedTx,
    enc_address,
    enc_blob,
    enc_u64,
    set_digest,
    set_signing_hash,
    set_verified_by,
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


@dataclass(frozen=True, slots=True, init=False)
class InterTx(SignedTx):
    """A signed contract call on the inter-ledger. Its caches, digest, wire
    bytes and signing are ``crypto.SignedTx``'s, as ``chain.IntraTx``'s are."""

    sender: bytes
    contract_id: int
    method: str
    args: bytes
    attached_value: int
    fee: int
    checkpoint: Checkpoint | None = None
    signature: bytes = b""

    def __init__(self, sender: bytes, contract_id: int, method: str, args: bytes,
                 attached_value: int, fee: int, checkpoint: Checkpoint | None = None,
                 signature: bytes = b""):
        _set_sender(self, sender)
        _set_contract_id(self, contract_id)
        _set_method(self, method)
        _set_args(self, args)
        _set_attached_value(self, attached_value)
        _set_fee(self, fee)
        _set_checkpoint(self, checkpoint)
        _set_signature(self, signature)
        set_digest(self, None)
        set_verified_by(self, None)
        set_signing_hash(self, None)

    def signing_bytes(self) -> bytes:
        cp = self.checkpoint
        return (enc_address(self.sender) + enc_u64(self.contract_id) + enc_blob(self.method.encode())
                + enc_blob(self.args) + enc_u64(self.attached_value) + enc_u64(self.fee)
                + (b"\x01" + cp.serialize() if cp else b"\x00"))


# The slot setters, bound once: the frozen class's own __setattr__ refuses.
(_set_sender, _set_contract_id, _set_method, _set_args, _set_attached_value, _set_fee,
 _set_checkpoint, _set_signature) = (InterTx.__dict__[name].__set__ for name in InterTx.__slots__)
InterTx._set_signature = _set_signature


def signed_inter_tx(key, contract_id: int, method: str, args: bytes = b"",
                    attached: int = 0, *, fee: int,
                    checkpoint: Checkpoint | None = None) -> InterTx:
    return InterTx(key.address, contract_id, method, args, attached, fee, checkpoint)._sign(key)


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


def execute_tx(state: ChainState, tx: InterTx, miner: bytes, keyring: Keyring) -> str:
    """``apply_tx`` for a tx whose signature verifies; otherwise no effect
    and the receipt ``BadSignature``."""
    if not keyring.verify_signed(tx):
        return "BadSignature"
    return apply_tx(state, tx, miner)


def apply_tx(state: ChainState, tx: InterTx, miner: bytes) -> str:
    """Apply one transaction, taken as signed, to ``state`` in place; returns
    its receipt, the status ``"ok"`` or an error code.

    Failed calls keep the fee and refund the attached value; a sender who
    cannot cover fee + attached value has no effect at all. A call whose
    args do not decode fails with ``BadArgs``.
    """
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


class CanonicalReceipts(Mapping):
    """Read-only view of one node's canonical txs: digest -> (height, status).

    Backed by the shared ``TxIndex``: a tx maps to its last occurrence on
    the node's canonical chain. Iteration walks the canonical blocks, and
    ``len`` counts their txs less the index's repeats; nothing is stored
    per tx.
    """

    __slots__ = ("_node",)

    def __init__(self, node: "InterNode"):
        self._node = node

    def _entry(self, tx_digest: bytes):
        node = self._node
        return node.index.last(tx_digest, node._canonical_at)

    def get(self, tx_digest: bytes, default=None):
        entry = self._entry(tx_digest)
        if entry is None:
            return default
        height, pos, bd = entry
        return height, self._node.block_receipts[bd][pos]

    def __getitem__(self, tx_digest: bytes) -> tuple[int, str]:
        receipt = self.get(tx_digest)
        if receipt is None:
            raise KeyError(tx_digest)
        return receipt

    def __contains__(self, tx_digest) -> bool:
        return self._entry(tx_digest) is not None

    def __iter__(self):
        # A tx is yielded at its last canonical occurrence only.
        node = self._node
        for h, bd in enumerate(node.canonical[1:], start=1):
            for pos, tx in enumerate(node.blocks[bd].txs):
                d = tx.digest()
                if self._entry(d) == (h, pos, bd):
                    yield d

    def __len__(self) -> int:
        node = self._node
        return node.index.count_distinct(sum(len(node.blocks[bd].txs) for bd in node.canonical),
                                         node._canonical_at)


@dataclass
class AdoptResult:
    reason: str = ""  # why nothing was stored
    reorg_depth: int = 0  # blocks displaced from the canonical chain; 0 if none
    confirmed: tuple = ()  # txs of the blocks that reached depth k, in canonical order
    reverted_confirmed: tuple = ()  # reported txs that confirmed_receipt stopped confirming
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
        index: TxIndex | None = None,
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
        # Every stored block's txs, shared like the memo; private if None.
        self.index = index if index is not None else TxIndex()
        self.canonical: list[bytes] = [gd]
        self.pending: dict[bytes, InterTx] = {}  # insertion order is arrival order
        self.orphans: dict[bytes, Block] = {}

    # -- views -------------------------------------------------------------

    @property
    def tip(self) -> bytes:
        return self.canonical[-1]

    @property
    def tip_height(self) -> int:
        return len(self.canonical) - 1

    @property
    def canonical_receipts(self) -> CanonicalReceipts:
        """Every canonical tx: digest -> (height, status)."""
        return CanonicalReceipts(self)

    def _canonical_at(self, height: int) -> bytes | None:
        canonical = self.canonical
        return canonical[height] if height < len(canonical) else None

    @property
    def confirmed_height(self) -> int:
        """Height of the deepest canonical block with depth >= k (< 1 if none)."""
        return self.tip_height - self.k + 1

    def confirmed_receipt(self, tx_digest: bytes) -> str | None:
        """The status of a confirmed tx, None for any other tx: a tx is
        confirmed iff its canonical receipt is at or below ``confirmed_height``."""
        receipt = self.canonical_receipts.get(tx_digest)
        return receipt[1] if receipt and receipt[0] <= self.confirmed_height else None

    def tip_state(self) -> ChainState:
        return self.states[self.tip]

    def confirmed_state(self) -> ChainState:
        """State as of the deepest block with depth >= k (genesis if none)."""
        return self.states[self.canonical[max(0, self.confirmed_height)]]

    # -- pool -----------------------------------------------------------------

    def submit_tx(self, tx: InterTx) -> tuple[bool, str]:
        # The digest cache and the keyring's mark are read without a call,
        # as Validator.submit_tx reads them.
        d = tx._digest
        if d is None:
            d = tx.digest()
        # The generator only for a digest the shared index holds: most are new.
        if d in self.pending or (d in self.index.txs
                                 and any(bd in self.blocks for _, _, bd in self.index.occurrences(d))):
            return False, "Duplicate"
        if tx._verified_by is not self.keyring and not self.keyring.verify_signed(tx):
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
        self.index.add(block, d)

        result = AdoptResult(adopted_blocks=(block,))
        if block.height > self.tip_height:
            result.tip_changed = True
            if block.parent == self.tip:
                fork, displaced = self.tip_height, []
                self._extend(d, block)
            else:
                fork, displaced = self._reorg(d, block)
                result.reorg_depth = len(displaced)
            result.confirmed, result.reverted_confirmed = self._update_confirmations(fork, displaced)

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
        for tx in block.txs:
            self.pending.pop(tx.digest(), None)

    def _reorg(self, new_tip: bytes, block: Block) -> tuple[int, list]:
        # Walk the new branch back to the first block already canonical.
        path = []
        cursor_d, cursor = new_tip, block
        while not (cursor.height <= self.tip_height and self.canonical[cursor.height] == cursor_d):
            path.append(cursor_d)
            cursor_d = cursor.parent
            cursor = self.blocks[cursor_d]
        fork_height = cursor.height
        displaced = self.canonical[fork_height + 1:]
        # Displaced transactions go back to the pool.
        for bd in displaced:
            for tx in self.blocks[bd].txs:
                self.pending.setdefault(tx.digest(), tx)
        self.canonical = self.canonical[: fork_height + 1]
        for bd in reversed(path):
            self._extend(bd, self.blocks[bd])
        return fork_height, displaced

    def _update_confirmations(self, fork: int, displaced: list) -> tuple[tuple, tuple]:
        """What the rule of ``confirmed_receipt`` changed since the last report, made at
        the old tip's confirmed height, now that the chain above ``fork`` lost ``displaced``."""
        blocks, canonical, index, txs = self.blocks, self.canonical, self.index, self.index.txs
        reported = max(0, fork + len(displaced) - self.k + 1)
        kept = min(reported, fork)  # the reported blocks still canonical
        limit = max(kept, self.confirmed_height)
        confirmed = [tx.digest() for bd in canonical[kept + 1:limit + 1] for tx in blocks[bd].txs]
        reverted = [tx.digest() for bd in displaced[:reported - kept] for tx in blocks[bd].txs]
        # A receipt is a tx's last canonical copy, and only a tx the index lists twice has
        # copies: a displaced copy can uncover a reported one, and a new copy can cover it.
        confirmed += [td for bd in displaced[reported - kept:] for td in map(InterTx.digest, blocks[bd].txs)
                      if type(txs[td]) is list and (e := index.last(td, self._canonical_at)) and e[0] <= kept]
        reverted += [td for bd in canonical[max(fork, limit) + 1:] for td in map(InterTx.digest, blocks[bd].txs)
                     if type(txs[td]) is list
                     and any(h <= kept and canonical[h] == b for h, _, b in index.occurrences(td))]
        return tuple(confirmed), tuple(td for td in dict.fromkeys(reverted)
                                       if self.confirmed_receipt(td) is None)
