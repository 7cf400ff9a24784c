"""Transaction, checkpoint, and block data model plus hash-linked ledger storage.

Shared by both consensus tiers. A block's identity digest covers the
header (parent, height, tx_root, timestamp) and the seal essence
(proposer for the quorum-sealed variant, miner/nonce/target for the
work-sealed variant) but never the quorum signature set, so all
replicas of a committed chain agree on block digests regardless of
which vote subset each one collected. The header's tx_root is computed
from the block's transactions, never stored, so a block whose root
disagrees with its transactions cannot be built.

Checkpoints are the public proof of a private transaction: a digest
reference plus zone id, block height, and the digest of the containing
block. They carry no payload bytes.

The replicas of one zone share one committed-tx index (``TxIndex``):
each distinct block is indexed once, keyed by its digest, and a replica
sees an index entry only if the block at that height of its own chain
has the entry's block digest. A divergent replica therefore answers
from its own chain, as a private index would. The inter-ledger nodes of
a simulation share one ``TxIndex`` in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .crypto import (
    ADDRESS_LEN,
    ZERO_ADDRESS,
    ZERO_DIGEST,
    Reader,
    SignedTx,
    enc_address,
    enc_blob,
    enc_digest,
    enc_u8,
    enc_u32,
    enc_u64,
    enc_u256,
    set_digest,
    set_signing_hash,
    set_verified_by,
    sha256,
)

MAX_INTRA_PAYLOAD = 1024  # bytes per intra transaction

MAX_TARGET = 2 ** 256 - 1


class NotCommitted(Exception):
    """Raised when a checkpoint is requested for an uncommitted transaction."""


@dataclass(frozen=True, slots=True, init=False)
class IntraTx(SignedTx):
    """Raw domain transaction carrying the private payload. Its caches, digest,
    wire bytes and signing are ``crypto.SignedTx``'s."""

    sender: bytes
    zone_id: int
    payload: bytes
    nonce: int
    signature: bytes = b""

    def __init__(self, sender: bytes, zone_id: int, payload: bytes, nonce: int,
                 signature: bytes = b""):
        if len(payload) > MAX_INTRA_PAYLOAD:
            raise ValueError(f"payload exceeds {MAX_INTRA_PAYLOAD} bytes")
        _set_sender(self, sender)
        _set_zone_id(self, zone_id)
        _set_payload(self, payload)
        _set_nonce(self, nonce)
        _set_signature(self, signature)
        set_digest(self, None)
        set_verified_by(self, None)
        set_signing_hash(self, None)

    def signing_bytes(self) -> bytes:
        return (enc_address(self.sender) + enc_u32(self.zone_id) + enc_blob(self.payload)
                + enc_u64(self.nonce))


# The slot setters, bound once: the frozen class's own __setattr__ refuses.
_set_sender, _set_zone_id, _set_payload, _set_nonce, _set_signature = (
    IntraTx.__dict__[name].__set__ for name in IntraTx.__slots__)
IntraTx._set_signature = _set_signature


def signed_intra_tx(key, zone_id: int, payload: bytes, nonce: int) -> IntraTx:
    return IntraTx(key.address, zone_id, payload, nonce)._sign(key)


# Typed payloads inside the opaque payload field. Tag 0x01 marks a value
# transfer; anything else is an uninterpreted blob. A transfer encoding is
# exactly 37 bytes, so requirement blobs (at least MIN_REQUIREMENT_PAYLOAD
# bytes, which Scenario.validate enforces) can never collide with it.
TRANSFER_TAG = 0x01
MIN_REQUIREMENT_PAYLOAD = 64
_TRANSFER_LEN = 1 + ADDRESS_LEN + 8 + 8


def transfer_payload(to: bytes, amount: int, memo: int = 0) -> bytes:
    return enc_u8(TRANSFER_TAG) + enc_address(to) + enc_u64(amount) + enc_u64(memo)


def parse_transfer(payload: bytes):
    """Return (to, amount, memo) if payload encodes a transfer, else None."""
    if len(payload) != _TRANSFER_LEN or payload[0] != TRANSFER_TAG:
        return None
    r = Reader(payload)
    r.u8()
    return (r.address(), r.u64(), r.u64())


@dataclass(frozen=True)
class Checkpoint:
    """Public proof that an intra transaction is committed in its zone ledger."""

    zone_id: int
    tx_ref: bytes
    block_height: int
    ledger_head: bytes

    def serialize(self) -> bytes:
        return (
            enc_u32(self.zone_id)
            + enc_digest(self.tx_ref)
            + enc_u64(self.block_height)
            + enc_digest(self.ledger_head)
        )

    @staticmethod
    def deserialize(r: Reader) -> "Checkpoint":
        return Checkpoint(r.u32(), r.digest(), r.u64(), r.digest())


@dataclass(frozen=True)
class BftSeal:
    """Quorum certificate: proposer, commit round, and >= 2f+1 validator signatures."""

    proposer: bytes
    round: int
    quorum_signatures: tuple = ()  # ((address, signature), ...)

    def essence(self) -> bytes:
        # Neither signatures nor round are part of the block identity: the
        # vote subset differs per replica, and a locked block re-proposed at
        # a later round must keep its digest so earlier votes stay valid.
        # The round is still signature-covered via each precommit message.
        return b"bft" + enc_address(self.proposer)

    def serialize(self) -> bytes:
        out = self.essence() + enc_u32(len(self.quorum_signatures))
        for addr, sig in self.quorum_signatures:
            out += enc_address(addr) + enc_blob(sig)
        return out


@dataclass(frozen=True)
class PowSeal:
    """Work seal: the header digest with this nonce must be below target."""

    miner: bytes
    nonce: int
    target: int

    def essence(self) -> bytes:
        return b"pow" + enc_address(self.miner) + enc_u64(self.nonce) + enc_u256(self.target)

    def serialize(self) -> bytes:
        return self.essence()


@dataclass(frozen=True)
class Block:
    parent: bytes
    height: int
    timestamp: int  # virtual-clock milliseconds
    seal: object  # BftSeal | PowSeal
    txs: tuple = ()

    def header_bytes(self) -> bytes:
        return (
            enc_digest(self.parent)
            + enc_u64(self.height)
            + enc_digest(tx_root(self.txs))
            + enc_u64(self.timestamp)
            + self.seal.essence()
        )

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = sha256(self.header_bytes())
            object.__setattr__(self, "_digest", cached)
        return cached

    def serialize(self) -> bytes:
        out = self.header_bytes() + self.seal.serialize() + enc_u32(len(self.txs))
        for tx in self.txs:
            out += enc_blob(tx.serialize())
        return out

    def transfers(self) -> tuple:
        """``(tx, to, amount, memo)`` of each transfer tx, in block order.
        Parsed on first use and kept on the block; ``with_seal`` carries
        it to the sealed copy."""
        cached = self.__dict__.get("_transfers")
        if cached is None:
            cached = tuple((tx, *parsed) for tx in self.txs
                           if (parsed := parse_transfer(tx.payload)) is not None)
            object.__setattr__(self, "_transfers", cached)
        return cached

    def with_seal(self, seal) -> "Block":
        """This block under another seal. A seal with the same essence (a
        BFT seal with the same proposer) keeps the digest, so a cached
        one is carried over instead of re-hashing the tx root. The
        transfers are filled on this block and shared: every replica
        seals its own copy of one proposal, which is parsed once."""
        sealed = replace(self, seal=seal)
        cached = self.__dict__.get("_digest")
        if cached is not None and seal.essence() == self.seal.essence():
            object.__setattr__(sealed, "_digest", cached)
        object.__setattr__(sealed, "_transfers", self.transfers())
        return sealed


def tx_root(txs) -> bytes:
    """Digest over the ordered transaction digests; zero for an empty block."""
    if not txs:
        return ZERO_DIGEST
    return sha256(b"".join(tx.digest() for tx in txs))


def build_block(parent_digest: bytes, height: int, txs, timestamp: int, seal) -> Block:
    return Block(parent=parent_digest, height=height, timestamp=timestamp, seal=seal, txs=tuple(txs))


def genesis_block(kind: str = "bft") -> Block:
    """Genesis: all-zero parent, no transactions, timestamp 0."""
    if kind == "bft":
        seal = BftSeal(proposer=ZERO_ADDRESS, round=0)
    else:
        seal = PowSeal(miner=ZERO_ADDRESS, nonce=0, target=MAX_TARGET)
    return Block(parent=ZERO_DIGEST, height=0, timestamp=0, seal=seal)


class TxIndex:
    """Tx index of one chain's blocks, shared by the replicas of that chain.

    ``txs`` maps a tx digest to its occurrences, in indexing order: one
    int, or a list of them when the tx occurs more than once (divergent
    replicas, forks, or a tx included twice). An occurrence is the int
    ``serial << 32 | pos``, where ``serial`` numbers the indexed blocks
    and ``_blocks[serial]`` is that block's ``(height, block digest)``,
    so a tx costs one int, not a tuple of three. ``occurrences`` and
    ``last`` decode them into ``(height, pos, block digest)``. ``blocks``
    holds the digest of every block indexed so far.

    A block is indexed before any descendant, so the occurrences on one
    chain are listed in (height, pos) order.
    """

    def __init__(self):
        self.txs: dict[bytes, int | list] = {}
        self.blocks: set[bytes] = set()
        self._blocks: list[tuple[int, bytes]] = []  # serial -> (height, block digest)

    def add(self, block: Block, bd: bytes) -> None:
        """Enter the first replica's copy of a block; later copies are no-ops."""
        if bd in self.blocks:
            return
        self.blocks.add(bd)
        txs = self.txs
        first = len(self._blocks) << 32
        self._blocks.append((block.height, bd))
        for pos, tx in enumerate(block.txs):
            d = tx.digest()
            entry = txs.get(d)
            if entry is None:
                txs[d] = first | pos
            elif type(entry) is int:
                txs[d] = [entry, first | pos]
            else:
                entry.append(first | pos)

    def occurrences(self, tx_digest: bytes) -> list:
        """Every ``(height, pos, block digest)`` of a tx, in indexing order."""
        entry = self.txs.get(tx_digest)
        if entry is None:
            return []
        blocks = self._blocks
        return [(height, e & 0xFFFFFFFF, bd) for e in (entry if type(entry) is list else (entry,))
                for height, bd in (blocks[e >> 32],)]

    def last(self, tx_digest: bytes, digest_at) -> tuple[int, int, bytes] | None:
        """The latest occurrence of a tx on one chain: the last entry whose
        block is ``digest_at(height)``, the chain's block digest at that
        height (None above its tip). None if the chain lacks the tx."""
        for entry in reversed(self.occurrences(tx_digest)):
            if digest_at(entry[0]) == entry[2]:
                return entry
        return None

    def count_distinct(self, tx_count: int, digest_at) -> int:
        """The number of distinct txs on one chain (see ``last``) that holds
        ``tx_count`` txs: only a tx listed more than once can repeat there,
        so each such tx's extra copies on the chain are subtracted."""
        blocks = self._blocks
        for entry in self.txs.values():
            if type(entry) is list:
                copies = sum(digest_at(height) == bd for height, bd in (blocks[e >> 32] for e in entry))
                tx_count -= max(0, copies - 1)
        return tx_count


class Ledger:
    """Append-only hash-linked block sequence over a committed-tx index.

    A bare ``Ledger()`` gets a private index; the replicas of a zone pass
    in the zone's one ``TxIndex``.
    """

    def __init__(self, index: TxIndex | None = None):
        self.blocks: list[Block] = [genesis_block()]
        self.index = index if index is not None else TxIndex()

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def head_digest(self) -> bytes:
        return self.blocks[-1].digest()

    def append(self, block: Block) -> None:
        if block.height != len(self.blocks):
            raise ValueError(f"expected height {len(self.blocks)}, got {block.height}")
        if block.parent != self.head_digest():
            raise ValueError("block does not link to current head")
        self.blocks.append(block)
        self.index.add(block, block.digest())

    def _digest_at(self, height: int) -> bytes | None:
        return self.blocks[height].digest() if height < len(self.blocks) else None

    def locate(self, tx_digest: bytes) -> tuple[int, int] | None:
        """(height, pos) of the last occurrence of a tx in this chain, or None."""
        if tx_digest not in self.index.txs:  # the mempool's usual case, without a call
            return None
        entry = self.index.last(tx_digest, self._digest_at)
        return None if entry is None else entry[:2]

    def contains_tx(self, tx_digest: bytes) -> bool:
        return self.locate(tx_digest) is not None

    def distinct_txs(self) -> int:
        """The number of distinct txs on this chain, counted without a set."""
        return self.index.count_distinct(sum(len(b.txs) for b in self.blocks), self._digest_at)


def make_checkpoint(tx: IntraTx, ledger: Ledger) -> Checkpoint:
    """Checkpoint for a committed tx; raises NotCommitted otherwise."""
    ref = tx.digest()
    entry = ledger.locate(ref)
    if entry is None:
        raise NotCommitted(ref.hex())
    height, _ = entry
    return Checkpoint(
        zone_id=tx.zone_id,
        tx_ref=ref,
        block_height=height,
        ledger_head=ledger.blocks[height].digest(),
    )


def verify_checkpoint(cp: Checkpoint, ledger: Ledger) -> bool:
    """True iff the ledger commits cp.tx_ref at cp.block_height under cp.ledger_head."""
    if cp.block_height > ledger.height:
        return False
    entry = ledger.locate(cp.tx_ref)
    if entry is None or entry[0] != cp.block_height:
        return False
    return ledger.blocks[cp.block_height].digest() == cp.ledger_head


class BalanceBook:
    """Per-zone account balances, updated by committed transfer payloads.

    ``transfer`` is the zone's one value rule: block application and the
    event-log replay both call it. A transfer whose sender (a missing
    account holds 0) cannot cover it is refused and leaves balances
    untouched; ``apply_block`` records each refused tx as failed, and
    opaque payloads have no value effect. ``paid`` holds the (to, memo)
    of every applied transfer: a broker asks it whether a seller's payout
    for a contract is on the zone ledger. A payout (memo != 0, the
    contract id) whose (to, memo) is already there is refused too, so a
    broker that takes over a session with its predecessor's payout still
    in flight cannot pay twice; memo-0 funding transfers may repeat.
    """

    def __init__(self, initial: dict[bytes, int] | None = None):
        self.balances: dict[bytes, int] = dict(initial or {})
        self.paid: set[tuple[bytes, int]] = set()
        self.failed: list[bytes] = []

    def total(self) -> int:
        return sum(self.balances.values())

    def transfer(self, frm, to, amount: int, memo: int) -> bool:
        """Move ``amount`` from ``frm`` to ``to``; False if refused."""
        held = self.balances.get(frm, 0)
        if held < amount or (memo and (to, memo) in self.paid):
            return False
        self.balances[frm] = held - amount
        self.balances[to] = self.balances.get(to, 0) + amount
        self.paid.add((to, memo))
        return True

    def apply_block(self, block: Block) -> None:
        for tx, to, amount, memo in block.transfers():
            if not self.transfer(tx.sender, to, amount, memo):
                self.failed.append(tx.digest())
