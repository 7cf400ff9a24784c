"""Hashing, signatures, serialization, checkpoints, and ledger storage."""

import random
from dataclasses import replace

import pytest

from fedledger.chain import (
    BalanceBook,
    BftSeal,
    Checkpoint,
    IntraTx,
    Ledger,
    NotCommitted,
    build_block,
    genesis_block,
    make_checkpoint,
    parse_transfer,
    signed_intra_tx,
    transfer_payload,
    tx_root,
    verify_checkpoint,
)
from fedledger.crypto import ZERO_DIGEST, Keyring, Reader, sha256


def signed_tx(keyring, key, zone=1, payload=b"hello", nonce=0):
    return signed_intra_tx(key, zone, payload, nonce)


class TestHash:
    def test_empty_input_vector(self):
        assert sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_abc_vector(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_deterministic_across_runs(self, rng):
        k1 = Keyring(random.Random(99)).new_account()
        k2 = Keyring(random.Random(99)).new_account()
        t1 = signed_tx(None, k1)
        t2 = signed_tx(None, k2)
        assert t1.digest() == t2.digest()


class TestSignatures:
    def test_round_trip(self, keyring):
        k = keyring.new_account()
        sig = Keyring.sign(k, b"data")
        assert keyring.verify(k.address, b"data", sig)

    def test_flipped_bit_fails(self, keyring):
        k = keyring.new_account()
        sig = Keyring.sign(k, b"data")
        assert not keyring.verify(k.address, b"dat\x61\x00", sig)
        assert not keyring.verify(k.address, b"Data", sig)

    def test_wrong_signer_fails(self, keyring):
        a, b = keyring.new_account(), keyring.new_account()
        sig = Keyring.sign(a, b"data")
        assert not keyring.verify(b.address, b"data", sig)

    def test_unknown_address_is_false_not_crash(self, keyring):
        k = keyring.new_account()
        sig = Keyring.sign(k, b"data")
        assert keyring.verify(b"\x42" * 20, b"data", sig) is False


class TestSerialization:
    def test_intra_tx_layout(self, keyring):
        k = keyring.new_account()
        tx = signed_tx(keyring, k, zone=7, payload=b"abc", nonce=3)
        raw = tx.serialize()
        r = Reader(raw)
        assert r.address() == k.address
        assert r.u32() == 7
        assert r.blob() == b"abc"
        assert r.u64() == 3
        assert r.blob() == tx.signature
        assert r.done()

    def test_payload_cap(self, keyring):
        k = keyring.new_account()
        with pytest.raises(ValueError):
            IntraTx(k.address, 1, b"x" * 1025, 0)
        IntraTx(k.address, 1, b"x" * 1024, 0)  # exactly at the cap

    def test_transfer_payload_round_trip(self, keyring):
        k = keyring.new_account()
        p = transfer_payload(k.address, 1234, memo=9)
        assert parse_transfer(p) == (k.address, 1234, 9)
        assert parse_transfer(b"\x00" * 37) is None
        assert parse_transfer(b"\x01" + b"\x00" * 64) is None

    def test_checkpoint_round_trip(self):
        cp = Checkpoint(3, sha256(b"t"), 17, sha256(b"h"))
        assert Checkpoint.deserialize(Reader(cp.serialize())) == cp

    def test_block_digest_ignores_quorum_signatures(self, keyring):
        k = keyring.new_account()
        b1 = build_block(ZERO_DIGEST, 1, [], 5, BftSeal(k.address, 0))
        b2 = b1.with_seal(BftSeal(k.address, 0, ((k.address, b"s" * 32),)))
        assert b1.digest() == b2.digest()
        # ...but the round does not change identity either (locked re-proposals).
        b3 = b1.with_seal(BftSeal(k.address, 2))
        assert b1.digest() == b3.digest()


class TestLedger:
    def make_chain(self, keyring, n_blocks=3, txs_per_block=2, zone=1):
        ledger = Ledger()
        key = keyring.new_account()
        nonce = 0
        all_txs = []
        for h in range(1, n_blocks + 1):
            txs = []
            for _ in range(txs_per_block):
                txs.append(signed_tx(keyring, key, zone=zone, payload=b"p%d" % nonce, nonce=nonce))
                nonce += 1
            block = build_block(ledger.head_digest(), h, txs, h * 1000, BftSeal(key.address, 0))
            ledger.append(block)
            all_txs.extend(txs)
        return ledger, all_txs

    def test_genesis_shape(self):
        g = genesis_block()
        assert g.parent == ZERO_DIGEST and g.height == 0
        assert g.txs == () and g.timestamp == 0
        assert g.header_bytes()[40:72] == tx_root(()) == ZERO_DIGEST

    def test_hash_linking_and_index(self, keyring):
        ledger, txs = self.make_chain(keyring)
        for i in range(1, len(ledger.blocks)):
            assert ledger.blocks[i].parent == ledger.blocks[i - 1].digest()
        for tx in txs:
            h, pos = ledger.tx_index[tx.digest()]
            assert ledger.blocks[h].txs[pos] == tx

    def test_append_rejects_bad_links(self, keyring):
        ledger, _ = self.make_chain(keyring)
        k = keyring.new_account()
        with pytest.raises(ValueError):
            ledger.append(build_block(ZERO_DIGEST, ledger.height + 1, [], 0, BftSeal(k.address, 0)))
        with pytest.raises(ValueError):
            ledger.append(build_block(ledger.head_digest(), ledger.height + 2, [], 0, BftSeal(k.address, 0)))

    def test_tx_root_follows_transactions(self, keyring):
        # The header's tx_root is computed from the block's transactions, so
        # no block carries a root that disagrees with them: replacing the
        # transactions moves the root and with it the block digest.
        ledger, _ = self.make_chain(keyring)
        k = keyring.new_account()
        tx, other = signed_tx(keyring, k), signed_tx(keyring, k, payload=b"other")
        block = build_block(ledger.head_digest(), ledger.height + 1, [tx], 0, BftSeal(k.address, 0))
        assert block.header_bytes()[40:72] == tx_root([tx])
        digests = {block.digest()}
        for txs in ((other,), (), (tx, other), (other, tx)):
            swapped = replace(block, txs=txs)
            assert swapped.header_bytes()[40:72] == tx_root(txs)
            digests.add(swapped.digest())
        assert len(digests) == 5
        # The ledger checks links only; what it indexes is what the digest covers.
        ledger.append(replace(block, txs=(other,)))
        assert ledger.tx_index[other.digest()] == (ledger.height, 0)
        assert not ledger.contains_tx(tx.digest())


class TestCheckpoints:
    def test_make_and_verify_round_trip(self, keyring):
        ledger, txs = TestLedger().make_chain(keyring)
        for tx in txs:
            cp = make_checkpoint(tx, ledger)
            assert cp.tx_ref == sha256(tx.serialize())
            assert cp.zone_id == tx.zone_id
            assert cp.ledger_head == ledger.blocks[cp.block_height].digest()
            assert verify_checkpoint(cp, ledger)

    def test_not_committed(self, keyring):
        ledger, _ = TestLedger().make_chain(keyring)
        stray = signed_tx(keyring, keyring.new_account(), payload=b"never")
        with pytest.raises(NotCommitted):
            make_checkpoint(stray, ledger)

    def test_mutated_ref_fails(self, keyring):
        ledger, txs = TestLedger().make_chain(keyring)
        cp = make_checkpoint(txs[0], ledger)
        bad = replace(cp, tx_ref=bytes([cp.tx_ref[0] ^ 1]) + cp.tx_ref[1:])
        assert not verify_checkpoint(bad, ledger)

    def test_height_beyond_tip_is_false(self, keyring):
        ledger, txs = TestLedger().make_chain(keyring)
        cp = make_checkpoint(txs[0], ledger)
        assert not verify_checkpoint(replace(cp, block_height=ledger.height + 5), ledger)

    def test_stale_head_from_fork_fails(self, keyring):
        # Two histories sharing genesis; checkpoint from branch A must not
        # verify against branch B even when the tx is replayed there.
        key = keyring.new_account()
        tx = signed_tx(keyring, key, payload=b"forked")
        branch_a, branch_b = Ledger(), Ledger()
        block_a = build_block(branch_a.head_digest(), 1, [tx], 1000, BftSeal(key.address, 0))
        block_b = build_block(branch_b.head_digest(), 1, [tx], 2000, BftSeal(key.address, 1))
        branch_a.append(block_a)
        branch_b.append(block_b)
        cp = make_checkpoint(tx, branch_a)
        assert verify_checkpoint(cp, branch_a)
        assert not verify_checkpoint(cp, branch_b)

    def test_distinct_refs_over_brute_force_batch(self, keyring):
        # Oracle: 10^4 random transactions, all reference digests distinct.
        rnd = random.Random(17)
        key = keyring.new_account()
        refs = set()
        for i in range(10_000):
            tx = IntraTx(key.address, 1, rnd.randbytes(24), i)
            refs.add(tx.digest())
        assert len(refs) == 10_000

    def test_checkpoint_binding_random_mutations(self, keyring):
        ledger, txs = TestLedger().make_chain(keyring, n_blocks=2)
        cp = make_checkpoint(txs[0], ledger)
        rnd = random.Random(5)
        for _ in range(200):
            field = rnd.choice(["tx_ref", "block_height", "ledger_head"])
            if field == "block_height":
                mutated = replace(cp, block_height=cp.block_height + rnd.randint(1, 4))
            else:
                val = bytearray(getattr(cp, field))
                val[rnd.randrange(len(val))] ^= 1 << rnd.randrange(8)
                mutated = replace(cp, **{field: bytes(val)})
            assert not verify_checkpoint(mutated, ledger)

    def test_checkpoint_carries_no_payload_bytes(self, keyring):
        # High-entropy payload: no 8-byte window may appear in the checkpoint.
        rnd = random.Random(23)
        key = keyring.new_account()
        payload = rnd.randbytes(1024)
        tx = signed_tx(keyring, key, payload=payload)
        ledger = Ledger()
        ledger.append(build_block(ledger.head_digest(), 1, [tx], 0, BftSeal(key.address, 0)))
        blob = make_checkpoint(tx, ledger).serialize()
        windows = {payload[i:i + 8] for i in range(len(payload) - 7)}
        assert not any(blob[i:i + 8] in windows for i in range(len(blob) - 7))


class TestBalanceBook:
    def test_transfers_apply_and_conserve(self, keyring):
        a, b = keyring.new_account(), keyring.new_account()
        book = BalanceBook({a.address: 100, b.address: 0})
        tx = signed_tx(keyring, a, payload=transfer_payload(b.address, 60, memo=4))
        block = build_block(ZERO_DIGEST, 1, [tx], 0, BftSeal(a.address, 0))
        book.apply_block(block)
        assert book.balance(a.address) == 40
        assert book.balance(b.address) == 60
        assert book.total() == 100
        assert book.transfers[0][:4] == (a.address, b.address, 60, 4)

    def test_insufficient_funds_is_noop(self, keyring):
        a, b = keyring.new_account(), keyring.new_account()
        book = BalanceBook({a.address: 10})
        tx = signed_tx(keyring, a, payload=transfer_payload(b.address, 60))
        book.apply_block(build_block(ZERO_DIGEST, 1, [tx], 0, BftSeal(a.address, 0)))
        assert book.balance(a.address) == 10
        assert book.failed == [tx.digest()]
