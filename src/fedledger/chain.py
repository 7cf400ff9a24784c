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
from its own chain, as a private index would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .crypto import (
    ADDRESS_LEN,
    ZERO_ADDRESS,
    ZERO_DIGEST,
    Keyring,
    Reader,
    enc_address,
    enc_blob,
    enc_digest,
    enc_u8,
    enc_u32,
    enc_u64,
    enc_u256,
    sha256,
)

MAX_INTRA_PAYLOAD = 1024  # bytes per intra transaction

MAX_TARGET = 2 ** 256 - 1


class NotCommitted(Exception):
    """Raised when a checkpoint is requested for an uncommitted transaction."""


@dataclass(frozen=True)
class IntraTx:
    """Raw domain transaction carrying the private payload."""

    sender: bytes
    zone_id: int
    payload: bytes
    nonce: int
    signature: bytes = b""

    def __post_init__(self):
        if len(self.payload) > MAX_INTRA_PAYLOAD:
            raise ValueError(f"payload exceeds {MAX_INTRA_PAYLOAD} bytes")

    def signing_bytes(self) -> bytes:
        # Not cached: a tx is signature-checked once per keyring, and a cache
        # would keep a second copy of the payload alive for every tx.
        return _intra_signing_bytes(self.sender, self.zone_id, self.payload, self.nonce)

    def serialize(self) -> bytes:
        return self.signing_bytes() + enc_blob(self.signature)

    def digest(self) -> bytes:
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = sha256(self.serialize())
            object.__setattr__(self, "_digest", cached)
        return cached


def _intra_signing_bytes(sender: bytes, zone_id: int, payload: bytes, nonce: int) -> bytes:
    return enc_address(sender) + enc_u32(zone_id) + enc_blob(payload) + enc_u64(nonce)


def signed_intra_tx(key, zone_id: int, payload: bytes, nonce: int) -> IntraTx:
    signing = _intra_signing_bytes(key.address, zone_id, payload, nonce)
    sig = Keyring.sign(key, signing)
    tx = IntraTx(key.address, zone_id, payload, nonce, sig)
    # The digest of serialize(), from the signing bytes already in hand.
    object.__setattr__(tx, "_digest", sha256(signing + enc_blob(sig)))
    return tx


# Typed payloads inside the opaque payload field. Tag 0x01 marks a value
# transfer; anything else is an uninterpreted blob. A transfer encoding is
# exactly 37 bytes, so requirement blobs (>= 64 bytes by convention) can
# never collide with it.
TRANSFER_TAG = 0x01
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

    def with_seal(self, seal) -> "Block":
        return replace(self, seal=seal)


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
    """Committed-tx index of one zone, shared by the zone's replicas.

    ``txs`` maps a tx digest to ``(height, pos, block digest)``, or to a
    list of those, in indexing order, when the tx occurs in more than one
    distinct block (divergent replicas, or a tx committed twice).
    ``blocks`` holds the digest of every block indexed so far.
    """

    def __init__(self):
        self.txs: dict[bytes, tuple | list] = {}
        self.blocks: set[bytes] = set()


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
        bd = block.digest()
        if bd not in self.index.blocks:
            self._index_block(block, bd)

    def _index_block(self, block: Block, bd: bytes) -> None:
        """Enter the first replica's copy of a block."""
        self.index.blocks.add(bd)
        txs = self.index.txs
        height = block.height
        for pos, tx in enumerate(block.txs):
            d = tx.digest()
            entry = txs.get(d)
            if entry is None:
                txs[d] = (height, pos, bd)
            elif type(entry) is tuple:
                txs[d] = [entry, (height, pos, bd)]
            else:
                entry.append((height, pos, bd))

    def locate(self, tx_digest: bytes) -> tuple[int, int] | None:
        """(height, pos) of the last occurrence of a tx in this chain, or None."""
        entry = self.index.txs.get(tx_digest)
        if entry is None:
            return None
        blocks = self.blocks
        if type(entry) is tuple:
            height, pos, bd = entry
            if height < len(blocks) and blocks[height].digest() == bd:
                return height, pos
            return None
        # A block is indexed before any descendant, so the occurrences on one
        # chain are listed in (height, pos) order: the last match is the latest.
        for height, pos, bd in reversed(entry):
            if height < len(blocks) and blocks[height].digest() == bd:
                return height, pos
        return None

    def contains_tx(self, tx_digest: bytes) -> bool:
        return self.locate(tx_digest) is not None


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

    Transfers with insufficient sender funds are recorded as failed and
    leave balances untouched; opaque payloads have no value effect.
    ``paid`` holds the (to, memo) of every applied transfer: a broker asks
    it whether a seller's payout for a contract is on the zone ledger.
    """

    def __init__(self, initial: dict[bytes, int] | None = None):
        self.balances: dict[bytes, int] = dict(initial or {})
        self.paid: set[tuple[bytes, int]] = set()
        self.failed: list[bytes] = []

    def balance(self, addr: bytes) -> int:
        return self.balances.get(addr, 0)

    def total(self) -> int:
        return sum(self.balances.values())

    def apply_block(self, block: Block) -> None:
        for tx in block.txs:
            parsed = parse_transfer(tx.payload)
            if parsed is None:
                continue
            to, amount, memo = parsed
            if self.balances.get(tx.sender, 0) < amount:
                self.failed.append(tx.digest())
                continue
            self.balances[tx.sender] -= amount
            self.balances[to] = self.balances.get(to, 0) + amount
            self.paid.add((to, memo))
