"""Hashing, signatures, serialization, checkpoints, and ledger storage."""

import inspect
import pickle
import random
from copy import copy as shallow_copy, deepcopy
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger import chain
from fedledger.chain import (
    MAX_INTRA_PAYLOAD,
    BalanceBook,
    BftSeal,
    Checkpoint,
    IntraTx,
    Ledger,
    NotCommitted,
    TxIndex,
    build_block,
    genesis_block,
    make_checkpoint,
    parse_transfer,
    signed_intra_tx,
    transfer_payload,
    tx_root,
    verify_checkpoint,
)
from fedledger.crypto import ZERO_DIGEST, Keyring, Reader, SignedTx, sha256
from fedledger.powchain import M_CONFIG_PUB, InterTx, signed_inter_tx


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

    def test_reseal_keeps_a_cached_digest_only_for_the_same_essence(self, keyring):
        k, other = keyring.new_account(), keyring.new_account()
        txs = [signed_tx(keyring, k, nonce=i) for i in range(3)]
        b1 = build_block(ZERO_DIGEST, 1, txs, 5, BftSeal(k.address, 0))
        d = b1.digest()
        sealed = b1.with_seal(BftSeal(k.address, 1, ((k.address, b"s" * 32),)))
        assert sealed.__dict__["_digest"] is d
        moved = b1.with_seal(BftSeal(other.address, 0))
        assert "_digest" not in moved.__dict__
        assert moved.digest() != d
        assert moved.with_seal(BftSeal(k.address, 0)).digest() == d


def _tx_pair(keyring, kind):
    """A signed tx of ``kind`` and an equal one built field by field, so
    with every cache empty; and the field a changed copy alters."""
    k = keyring.new_account()
    if kind == "intra":
        tx = signed_intra_tx(k, 1, b"hello", 4)
        return tx, IntraTx(tx.sender, tx.zone_id, tx.payload, tx.nonce, tx.signature), "nonce"
    tx = signed_inter_tx(k, 3, M_CONFIG_PUB, b"args", 5, fee=1,
                         checkpoint=Checkpoint(1, sha256(b"t"), 2, sha256(b"h")))
    bare = InterTx(tx.sender, tx.contract_id, tx.method, tx.args, tx.attached_value, tx.fee,
                   tx.checkpoint, tx.signature)
    return tx, bare, "attached_value"


CACHES = ("_digest", "_verified_by", "_signing_hash")


def _slots_along_mro(cls):
    """(name, declaring class) of every slot of ``cls``, its bases' included."""
    return [(name, klass) for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ())]


@pytest.mark.parametrize("kind", ["intra", "inter"])
class TestTxCaches:
    def test_a_tx_has_no_instance_dict(self, keyring, kind):
        tx, bare, _ = _tx_pair(keyring, kind)
        assert keyring.verify_signed(tx) and tx.digest()
        for t in (tx, bare):
            assert not hasattr(t, "__dict__")
        assert all("__slots__" in klass.__dict__ for klass in type(tx).__mro__[:-1])

    def test_the_caches_are_the_slots_of_the_one_base(self, keyring, kind):
        tx, _, _ = _tx_pair(keyring, kind)
        slots = _slots_along_mro(type(tx))
        assert [(name, klass) for name, klass in slots if klass is not type(tx)] == [
            (name, SignedTx) for name in CACHES]
        assert [name for name, klass in slots if klass is type(tx)] == [f.name for f in fields(tx)]

    def test_a_copy_starts_with_empty_caches(self, keyring, kind):
        tx, _, _ = _tx_pair(keyring, kind)
        assert keyring.verify_signed(tx)
        for copied in (shallow_copy(tx), deepcopy(tx), pickle.loads(pickle.dumps(tx))):
            assert type(copied) is type(tx) and copied == tx and repr(copied) == repr(tx)
            assert all(getattr(copied, name) is None for name in CACHES)
            assert copied.digest() == tx.digest() and keyring.verify_signed(copied)

    def test_equality_and_hash_ignore_the_caches(self, keyring, kind):
        tx, bare, _ = _tx_pair(keyring, kind)
        assert tx == bare and hash(tx) == hash(bare) and repr(tx) == repr(bare)
        assert bare._digest is None and bare._verified_by is None
        assert bare.digest() == tx.digest()
        assert keyring.verify_signed(bare)
        assert bare._verified_by is keyring and tx._verified_by is None
        assert tx == bare and hash(tx) == hash(bare) and repr(tx) == repr(bare)

    def test_a_changed_copy_starts_with_empty_caches(self, keyring, kind):
        tx, _, name = _tx_pair(keyring, kind)
        assert keyring.verify_signed(tx)
        d = tx.digest()
        copy = replace(tx, **{name: getattr(tx, name) + 1})
        assert copy._digest is None and copy._verified_by is None
        fresh = type(tx)(*(getattr(copy, f.name) for f in fields(copy) if f.init))
        assert copy.signing_bytes() == fresh.signing_bytes() != tx.signing_bytes()
        assert not keyring.verify_signed(copy)
        assert copy.digest() != d

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_signed_tx_caches_its_digest_and_no_signing_bytes(self, kind, data):
        keyring = Keyring(random.Random(0xFED))
        key = keyring.new_account()
        if kind == "intra":
            tx = signed_intra_tx(key, *data.draw(SIGNED_INTRA_ARGS))
        else:
            *args, fee, checkpoint = data.draw(SIGNED_INTER_ARGS)
            tx = signed_inter_tx(key, *args, fee=fee, checkpoint=checkpoint)
        signing = tx.signing_bytes()
        assert tx._digest == sha256(tx.serialize())
        assert tx._signing_hash == sha256(signing)
        assert tx.signature == Keyring.sign(key, signing)
        slots = [name for name, _ in _slots_along_mro(type(tx))]
        assert all(getattr(tx, name) != signing for name in slots)
        assert keyring.verify_signed(tx)
        assert tx._signing_hash is None
        assert all(getattr(tx, name) != signing for name in slots)


ADDRESSES = st.binary(min_size=20, max_size=20)
CHECKPOINTS = st.builds(Checkpoint, st.integers(0, 2 ** 32 - 1), st.binary(min_size=32, max_size=32),
                        st.integers(0, 2 ** 64 - 1), st.binary(min_size=32, max_size=32))
U64 = st.integers(0, 2 ** 64 - 1)
# signed_intra_tx's (zone_id, payload, nonce), the empty and the largest payload among them.
SIGNED_INTRA_ARGS = st.tuples(
    st.integers(0, 2 ** 32 - 1),
    st.just(b"") | st.binary(min_size=MAX_INTRA_PAYLOAD, max_size=MAX_INTRA_PAYLOAD)
    | st.binary(max_size=MAX_INTRA_PAYLOAD),
    U64)
# signed_inter_tx's (contract_id, method, args, attached, fee, checkpoint).
SIGNED_INTER_ARGS = st.tuples(U64, st.text(max_size=8), st.binary(max_size=64), U64, U64,
                              st.none() | CHECKPOINTS)
CONSTRUCTOR_ARGS = {
    IntraTx: st.fixed_dictionaries({
        "sender": ADDRESSES, "zone_id": st.integers(0, 2 ** 32 - 1),
        "payload": st.binary(max_size=MAX_INTRA_PAYLOAD), "nonce": st.integers(0, 2 ** 64 - 1),
        "signature": st.binary(max_size=32)}),
    InterTx: st.fixed_dictionaries({
        "sender": ADDRESSES, "contract_id": st.integers(0, 2 ** 64 - 1), "method": st.text(max_size=8),
        "args": st.binary(max_size=64), "attached_value": st.integers(0, 2 ** 64 - 1),
        "fee": st.integers(0, 2 ** 64 - 1),
        "checkpoint": st.none() | CHECKPOINTS,
        "signature": st.binary(max_size=32)}),
}


@pytest.mark.parametrize("cls", [IntraTx, InterTx], ids=["intra", "inter"])
class TestTxConstructor:
    def test_parameters_are_the_init_fields(self, cls):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        init = [f for f in fields(cls) if f.init]
        assert [p.name for p in params] == [f.name for f in init]
        assert [p.default for p in params] == [
            inspect.Parameter.empty if f.default is MISSING else f.default for f in init]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fields_caches_and_frozen_semantics(self, cls, data):
        args = data.draw(CONSTRUCTOR_ARGS[cls])
        by_position = cls(*(args[f.name] for f in fields(cls) if f.init))
        tx = cls(**args)
        for t in (tx, by_position):
            for f in fields(cls):
                assert getattr(t, f.name) is args[f.name]
            assert all(getattr(t, name) is None for name in CACHES)
        copy = replace(tx)
        assert copy is not tx
        assert tx == copy == by_position
        assert hash(tx) == hash(copy) and repr(tx) == repr(copy)
        assert not hasattr(tx, "__dict__")
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(tx, f.name, getattr(tx, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(tx, f.name)
        # The frozen guard refuses a cache too, with a TypeError: for a name
        # that is not a field it calls super() on the class before slots.
        for name in CACHES:
            with pytest.raises((FrozenInstanceError, TypeError)):
                setattr(tx, name, None)
            with pytest.raises((FrozenInstanceError, TypeError)):
                delattr(tx, name)
            assert getattr(tx, name) is None


def test_intra_tx_payload_cap():
    assert IntraTx(bytes(20), 1, bytes(MAX_INTRA_PAYLOAD), 0).payload == bytes(MAX_INTRA_PAYLOAD)
    with pytest.raises(ValueError, match="payload exceeds"):
        IntraTx(bytes(20), 1, bytes(MAX_INTRA_PAYLOAD + 1), 0)
    with pytest.raises(ValueError, match="payload exceeds"):
        replace(IntraTx(bytes(20), 1, b"", 0), payload=bytes(MAX_INTRA_PAYLOAD + 1))


@pytest.mark.parametrize("kind", ["intra", "inter"])
class TestSigningHash:
    def test_dropped_by_a_successful_check(self, keyring, kind):
        tx, _, _ = _tx_pair(keyring, kind)
        assert tx._signing_hash == sha256(tx.signing_bytes())
        assert keyring.verify_signed(tx)
        assert tx._signing_hash is None and tx._verified_by is keyring
        assert keyring.verify_signed(tx)

    def test_kept_by_a_failed_check(self, keyring, kind):
        tx, _, _ = _tx_pair(keyring, kind)
        assert not Keyring(random.Random(7)).verify_signed(tx)  # does not know the signer
        assert tx._signing_hash == sha256(tx.signing_bytes()) and tx._verified_by is None
        assert keyring.verify_signed(tx) and tx._signing_hash is None

    @pytest.mark.parametrize("original_verified", [False, True])
    def test_a_changed_copy_fails(self, keyring, kind, original_verified):
        tx, _, name = _tx_pair(keyring, kind)
        if original_verified:
            assert keyring.verify_signed(tx)
        for copy in (replace(tx, **{name: getattr(tx, name) + 1}),
                     replace(tx, signature=bytes(32))):
            assert copy._signing_hash is None
            assert not keyring.verify_signed(copy)
            assert not keyring.verify_signed(copy)  # a failure is not remembered
        assert keyring.verify_signed(tx)

    def test_a_signature_over_other_bytes_fails(self, keyring, kind):
        tx, _, name = _tx_pair(keyring, kind)
        other = replace(tx, **{name: getattr(tx, name) + 1})
        forged = replace(other, signature=tx.signature)  # built by the constructor: no signing hash
        assert forged._signing_hash is None
        assert not keyring.verify_signed(forged)
        assert keyring.verify_signed(tx)
        assert not keyring.verify_signed(forged)


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
            h, pos = ledger.locate(tx.digest())
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
        assert ledger.locate(other.digest()) == (ledger.height, 0)
        assert not ledger.contains_tx(tx.digest())


class TestSharedIndex:
    """Ledgers over one TxIndex against a from-scratch index of each chain."""

    @staticmethod
    def private_index(ledger):
        index = {}
        for h, block in enumerate(ledger.blocks[1:], start=1):
            for pos, tx in enumerate(block.txs):
                index[tx.digest()] = (h, pos)  # a later occurrence wins
        return index

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_locate_matches_a_private_index(self, data):
        keyring = Keyring(random.Random(data.draw(st.integers(0, 2**16), label="keys")))
        key = keyring.new_account()
        pool = [signed_tx(keyring, key, payload=b"p%d" % i, nonce=i) for i in range(6)]
        index = TxIndex()
        ledgers = [Ledger(index=index) for _ in range(data.draw(st.integers(2, 4), label="replicas"))]
        children: dict[bytes, list] = {}  # parent digest -> blocks made so far
        for step in range(data.draw(st.integers(1, 14), label="steps")):
            ledger = data.draw(st.sampled_from(ledgers), label="replica")
            known = children.get(ledger.head_digest(), [])
            if known and data.draw(st.booleans(), label="adopt"):
                # Another replica's block: indexed already, counted from the index.
                block = data.draw(st.sampled_from(known), label="block")
            else:
                # A new block diverges from every other child of this head;
                # a tx may repeat within it and across its ancestors.
                picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=4), label="txs")
                block = build_block(ledger.head_digest(), ledger.height + 1,
                                    [pool[i] for i in picks], step, BftSeal(key.address, 0))
                known.append(block)
                children[ledger.head_digest()] = known
            ledger.append(block)
            for replica in ledgers:
                expect = self.private_index(replica)
                for tx in pool:
                    d = tx.digest()
                    assert replica.locate(d) == expect.get(d)
                    assert replica.contains_tx(d) == (d in expect)
                    if d not in expect:
                        continue
                    cp = make_checkpoint(tx, replica)
                    for other in ledgers:
                        at = other.locate(d)
                        same = (at is not None and at[0] == cp.block_height
                                and other.blocks[at[0]].digest() == cp.ledger_head)
                        assert verify_checkpoint(cp, other) == same
                assert replica.distinct_txs() == len(expect)
        # Each distinct appended block is indexed once: one entry per occurrence.
        appended = {b.digest(): b for ledger in ledgers for b in ledger.blocks[1:]}
        assert index.blocks == appended.keys()
        occurrences = sum(len(index.occurrences(d)) for d in index.txs)
        assert occurrences == sum(len(b.txs) for b in appended.values())

    def test_distinct_count_subtracts_the_copies_on_its_own_chain(self, keyring):
        # The leader's chain holds T at heights 1 and 2 (twice at 2); the
        # lagging replica, over the same index, holds heights 0-1 only.
        key = keyring.new_account()
        t, u = (signed_tx(keyring, key, payload=b"p%d" % i, nonce=i) for i in range(2))
        index = TxIndex()
        leader, lagging, divergent = Ledger(index=index), Ledger(index=index), Ledger(index=index)
        for txs in ([t, u], [t, t]):
            leader.append(build_block(leader.head_digest(), leader.height + 1, txs, 0,
                                      BftSeal(key.address, 0)))
        lagging.append(leader.blocks[1])
        divergent.append(build_block(divergent.head_digest(), 1, [u, u, u], 1, BftSeal(key.address, 0)))
        for ledger, distinct in ((leader, 2), (lagging, 2), (divergent, 1), (Ledger(index=index), 0)):
            assert ledger.distinct_txs() == distinct == len({tx.digest() for b in ledger.blocks
                                                             for tx in b.txs})
        assert len(index.occurrences(t.digest())) == 3 and len(index.occurrences(u.digest())) == 4

    def test_divergent_replica_does_not_see_the_other_branch(self, keyring):
        key = keyring.new_account()
        tx = signed_tx(keyring, key, payload=b"forked")
        index = TxIndex()
        branch_a, branch_b = Ledger(index=index), Ledger(index=index)
        branch_a.append(build_block(branch_a.head_digest(), 1, [tx], 1000, BftSeal(key.address, 0)))
        branch_b.append(build_block(branch_b.head_digest(), 1, [], 2000, BftSeal(key.address, 0)))
        assert branch_a.locate(tx.digest()) == (1, 0)
        assert branch_b.locate(tx.digest()) is None
        assert not branch_b.contains_tx(tx.digest())
        assert index.blocks == {branch_a.head_digest(), branch_b.head_digest()}


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
        assert book.balances == {a.address: 40, b.address: 60}
        assert book.total() == 100
        assert book.paid == {(b.address, 4)}

    def test_insufficient_funds_is_noop(self, keyring):
        a, b = keyring.new_account(), keyring.new_account()
        book = BalanceBook({a.address: 10})
        tx = signed_tx(keyring, a, payload=transfer_payload(b.address, 60))
        book.apply_block(build_block(ZERO_DIGEST, 1, [tx], 0, BftSeal(a.address, 0)))
        assert book.balances == {a.address: 10}
        assert book.failed == [tx.digest()]

    def test_an_account_the_book_lacks_holds_zero(self, keyring):
        # The one transfer rule, which the log replay also calls: a
        # zero-amount transfer from an account the book lacks applies, and
        # any larger amount from it is refused.
        a, b = keyring.new_account(), keyring.new_account()
        book = BalanceBook()
        zero, one = (signed_tx(keyring, a, payload=transfer_payload(b.address, n), nonce=n)
                     for n in (0, 1))
        book.apply_block(build_block(ZERO_DIGEST, 1, [zero, one], 0, BftSeal(a.address, 0)))
        assert book.balances == {a.address: 0, b.address: 0}
        assert book.failed == [one.digest()]

    def test_second_payout_for_a_contract_is_refused_and_funding_repeats(self, keyring):
        # A payout carries its contract id as memo: a second one to the same
        # seller for the same contract is refused, in the same block or a
        # later one. Memo-0 funding transfers and another contract's payout
        # to that seller still apply.
        a, b = keyring.new_account(), keyring.new_account()
        book = BalanceBook({a.address: 100})
        fund = [signed_tx(keyring, a, payload=transfer_payload(b.address, 5), nonce=n)
                for n in range(2)]
        pay = [signed_tx(keyring, a, payload=transfer_payload(b.address, 10, memo=7), nonce=n)
               for n in range(2, 5)]
        other = signed_tx(keyring, a, payload=transfer_payload(b.address, 10, memo=8), nonce=5)
        book.apply_block(build_block(ZERO_DIGEST, 1, [fund[0], pay[0], pay[1], fund[1]], 0,
                                     BftSeal(a.address, 0)))
        book.apply_block(build_block(ZERO_DIGEST, 2, [pay[2], other], 0, BftSeal(a.address, 0)))
        assert book.balances == {a.address: 70, b.address: 30}
        assert book.failed == [pay[1].digest(), pay[2].digest()]
        assert book.paid == {(b.address, 0), (b.address, 7), (b.address, 8)}


def reference_apply(balances, block):
    """BalanceBook's rules written out, parsing each tx's payload itself."""
    balances, paid, failed = dict(balances), set(), []
    for tx in block.txs:
        parsed = parse_transfer(tx.payload)
        if parsed is None:
            continue
        to, amount, memo = parsed
        if balances.get(tx.sender, 0) < amount or (memo and (to, memo) in paid):
            failed.append(tx.digest())
            continue
        balances[tx.sender] -= amount
        balances[to] = balances.get(to, 0) + amount
        paid.add((to, memo))
    return balances, paid, failed


class TestTransferMemo:
    def test_replicas_sealing_one_proposal_parse_its_payloads_once(self, keyring, monkeypatch):
        a, b, c = (keyring.new_account() for _ in range(3))
        txs = [
            signed_tx(keyring, a, payload=transfer_payload(b.address, 30), nonce=0),
            signed_tx(keyring, a, payload=transfer_payload(c.address, 10, memo=7), nonce=1),
            signed_tx(keyring, a, payload=transfer_payload(c.address, 10, memo=7), nonce=2),
            signed_tx(keyring, b, payload=b"opaque service data", nonce=3),
        ]
        initial = {a.address: 100, b.address: 5}
        expected = reference_apply(initial, build_block(ZERO_DIGEST, 1, txs, 0, BftSeal(a.address, 0)))
        assert expected[2] == [txs[2].digest()]  # the repeated payout is refused

        calls = []
        parse = chain.parse_transfer
        monkeypatch.setattr(chain, "parse_transfer", lambda p: calls.append(p) or parse(p))
        proposal = build_block(ZERO_DIGEST, 1, txs, 0, BftSeal(a.address, 0))
        # Each validator seals its own copy, with the precommits it collected.
        sealed = [proposal.with_seal(BftSeal(a.address, 0, ((v.address, bytes([i]) * 32),)))
                  for i, v in enumerate((a, b))]
        books = [BalanceBook(initial) for _ in sealed]
        for book, block in zip(books, sealed):
            book.apply_block(block)
            assert (book.balances, book.paid, book.failed) == expected
        assert sorted(calls) == sorted(tx.payload for tx in txs)  # each payload once
        assert [t[0] for t in sealed[0].transfers()] == txs[:3]
