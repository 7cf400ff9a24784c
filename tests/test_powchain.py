"""Inter-ledger: mining, pool admission, fork choice, reorgs,
execution determinism, conservation, and the statistical block model."""

import random
import statistics
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger import powchain
from fedledger.analysis import ks_exponential
from fedledger.chain import MAX_TARGET, Checkpoint, PowSeal, build_block, genesis_block
from fedledger.contract import BrokerInfo
from fedledger.crypto import Keyring, sha256
from fedledger.eventlog import EventLog, check_safety
from fedledger.powchain import (
    M_COMMIT,
    M_CONFIG_PUB,
    M_CONFIG_SUB,
    M_NOOP,
    M_REPLACE,
    M_SETTLE,
    M_TRANSFER,
    FEE,
    ChainState,
    InterNode,
    execute_block,
    signed_inter_tx,
)
from fedledger.runner import Collector
from fedledger.scenario import InterSpec


def inter_node(keyring, address, state, **kw):
    """An InterNode with the scenario's inter-ledger defaults, ``kw`` overriding them."""
    spec = InterSpec()
    kw = {"confirmation_depth": spec.confirmation_depth, "block_capacity": spec.block_capacity, **kw}
    return InterNode(address, keyring, state, **kw)


def make_node(keyring, balances=None, contracts=None, k=2):
    key = keyring.new_account()
    state = ChainState(dict(balances or {}), dict(contracts or {}))
    return key, inter_node(keyring, key.address, state, confirmation_depth=k)


def noop(keyring, key, salt, fee=1):
    return signed_inter_tx(key, 0, M_NOOP, args=salt.to_bytes(8, "big"), fee=fee)


class TestMining:
    def test_degenerate_target_first_nonce_wins(self, keyring):
        _, node = make_node(keyring)
        block = node.build_block(0.0, nonce=0)
        assert block.seal.target == MAX_TARGET
        assert int.from_bytes(block.digest(), "big") < MAX_TARGET
        assert node.on_block(block).adopted_blocks

    def test_block_under_declared_target_accepted(self, keyring):
        # A seal may declare a tighter target than the miners use; the
        # digest is checked against the declared one.
        target = 1 << 248  # ~1/256 per nonce
        _, node = make_node(keyring)
        blocks = [build_block(node.tip, 1, [], 0, PowSeal(node.address, nonce, target))
                  for nonce in range(4096)]
        under = [int.from_bytes(b.digest(), "big") < target for b in blocks]
        assert node.on_block(blocks[under.index(False)]).reason == "BadSeal"
        assert node.on_block(blocks[under.index(True)]).adopted_blocks

    def test_block_capacity_cap(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 10_000})
        for i in range(node.block_capacity + 1):
            ok, reason = node.submit_tx(noop(keyring, sender, i))
            assert ok, reason
        block = node.build_block(0.0)
        assert len(block.txs) == node.block_capacity

    def test_virtual_time_fair_share(self, keyring):
        # Six equal miners: per-block winner = argmin of six exponential
        # draws. Over 10^4 blocks each count stays within a 3-sigma
        # binomial band around 1/6.
        rnd = random.Random(6060)
        n, blocks = 6, 10_000
        wins = [0] * n
        for _ in range(blocks):
            delays = [InterNode.sample_block_delay(rnd, 4500.0, 1.0 / n) for _ in range(n)]
            wins[delays.index(min(delays))] += 1
        expect = blocks / n
        sigma = (blocks * (1 / n) * (1 - 1 / n)) ** 0.5
        for w in wins:
            assert abs(w - expect) <= 3 * sigma, wins

    def test_intervals_exponential_ks(self, keyring):
        # Kolmogorov-Smirnov at alpha=0.01 over 10^4 sampled intervals.
        rnd = random.Random(777)
        mean = 4500.0
        samples = [InterNode.sample_block_delay(rnd, mean, 1.0) for _ in range(10_000)]
        d, crit = ks_exponential(samples, mean)
        assert d < crit, (d, crit)
        assert statistics.fmean(samples) == pytest.approx(mean, rel=0.05)


class TestPoolAdmission:
    def test_accept_and_balance_guard(self, keyring):
        sender = keyring.new_account()
        to = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})
        ok, _ = node.submit_tx(signed_inter_tx(sender, 0, M_TRANSFER,
                                               args=to.address + b"\x00" * 8,
                                               attached=500, fee=1))
        assert ok
        ok, reason = node.submit_tx(signed_inter_tx(sender, 0, M_TRANSFER,
                                                    args=to.address + b"\x01" * 8,
                                                    attached=1200, fee=1))
        assert not ok and reason == "InsufficientFunds"

    def test_bad_signature_rejected(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})
        tx = noop(keyring, sender, 1)
        from dataclasses import replace
        forged = replace(tx, signature=b"\x00" * 32)
        ok, reason = node.submit_tx(forged)
        assert not ok and reason == "BadSignature"

    def test_duplicate_rejected(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})
        tx = noop(keyring, sender, 1)
        assert node.submit_tx(tx)[0]
        ok, reason = node.submit_tx(tx)
        assert not ok and reason == "Duplicate"

    def test_wrong_fee_rejected(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})
        ok, reason = node.submit_tx(noop(keyring, sender, 1, fee=3))
        assert not ok and reason == "BadFee"

    def test_admin_gate_on_replace(self, keyring):
        admin = keyring.new_account()
        mallory = keyring.new_account()
        d0, d1 = keyring.new_account(), keyring.new_account()
        info = BrokerInfo(contract_id=1, admin=admin.address,
                          delegation_list=(d0.address, d1.address))
        _, node = make_node(keyring, balances={mallory.address: 100, admin.address: 100},
                            contracts={1: info})
        bad = signed_inter_tx(mallory, 1, M_REPLACE, args=d0.address + d1.address, fee=1)
        ok, reason = node.submit_tx(bad)
        assert not ok and reason == "Unauthorized"
        good = signed_inter_tx(admin, 1, M_REPLACE, args=d0.address + d1.address, fee=1)
        assert node.submit_tx(good)[0]

    def test_fee_credited_to_miner(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})
        node.submit_tx(noop(keyring, sender, 1))
        block = node.build_block(0.0)
        node.on_block(block)
        st = node.tip_state()
        assert st.balance(node.address) == 1
        assert st.balance(sender.address) == 999


class TestForkChoice:
    def competing_pair(self, keyring):
        """Three replicas, two competing height-1 blocks a and b."""
        shared = {}
        k1, n1 = make_node(keyring, balances=shared)
        k2, n2 = make_node(keyring, balances=shared)
        k3, n3 = make_node(keyring, balances=shared)
        a = n1.build_block(10.0, nonce=1)
        b = n2.build_block(20.0, nonce=2)
        return (n1, n2, n3), a, b

    def test_longest_chain_convergence(self, keyring):
        nodes, a, b = self.competing_pair(keyring)
        # Nodes see the two siblings in different orders.
        for node, order in zip(nodes, ((a, b), (b, a), (a, b))):
            for blk in order:
                node.on_block(blk)
        tips = {n.tip for n in nodes}
        assert len(tips) == 2  # first-seen tie-break, no agreement yet
        # An extension of branch b forces convergence everywhere.
        ext_parent = b.digest()
        child = nodes[1].build_block(30.0, nonce=3)
        assert child.parent == ext_parent
        for n in nodes:
            n.on_block(child)
        assert {n.tip for n in nodes} == {child.digest()}

    def test_reorg_returns_displaced_txs(self, keyring):
        sender = keyring.new_account()
        key, node = make_node(keyring, balances={sender.address: 1000})
        tx = noop(keyring, sender, 9)
        node.submit_tx(tx)
        mine = node.build_block(5.0, nonce=1)  # includes tx
        node.on_block(mine)
        assert tx.digest() not in node.pending
        # A competing branch without the tx overtakes.
        other = inter_node(keyring, keyring.new_account().address,
                           ChainState({sender.address: 1000}), confirmation_depth=2)
        b1 = other.build_block(6.0, nonce=2)
        other.on_block(b1)
        b2 = other.build_block(7.0, nonce=3)
        res1 = node.on_block(b1)
        res2 = node.on_block(b2)
        assert res2.reorg_depth == 1
        assert tx.digest() in node.pending  # displaced tx back in the pool
        assert node.tip == b2.digest()

    def test_displaced_txs_queue_behind_earlier_arrivals(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000})

        def submit(salt):
            tx = noop(keyring, sender, salt)
            assert node.submit_tx(tx)[0]
            return tx

        a, a2 = submit(1), submit(2)
        mine = node.build_block(1.0, nonce=1)
        assert [t.digest() for t in mine.txs] == [a.digest(), a2.digest()]
        node.on_block(mine)
        b, c, d = submit(3), submit(4), submit(5)
        # An empty two-block branch from genesis displaces a and a2.
        other = inter_node(keyring, keyring.new_account().address,
                           ChainState({sender.address: 1000}), confirmation_depth=2)
        for i in range(2):
            blk = other.build_block(2.0 + i, nonce=10 + i)
            other.on_block(blk)
            res = node.on_block(blk)
        assert res.reorg_depth == 1
        order = [t.digest() for t in node.build_block(5.0).txs]
        # Arrival order; the re-pooled txs arrive last, in their block order.
        assert order == [t.digest() for t in (b, c, d, a, a2)]

    def test_orphan_buffered_until_parent(self, keyring):
        _, node = make_node(keyring)
        _, other = make_node(keyring)
        b1 = other.build_block(1.0, nonce=1)
        other.on_block(b1)
        b2 = other.build_block(2.0, nonce=2)
        res = node.on_block(b2)  # child first
        assert not res.adopted_blocks and res.reason == "orphan"
        res = node.on_block(b1)
        assert res.adopted_blocks and node.tip == b2.digest()
        assert b2 in res.adopted_blocks  # reattached orphan reported to callers

    def test_orphan_buffer_evicts_oldest_at_cap(self, keyring):
        from fedledger.chain import ZERO_DIGEST  # unknown parent for all
        _, node = make_node(keyring)
        _, other = make_node(keyring)
        fake_parent = sha256(b"nowhere")
        orphans = []
        for i in range(70):
            b = build_block(fake_parent, 5, [], i, PowSeal(other.address, i, MAX_TARGET))
            orphans.append(b)
            node.on_block(b)
        assert len(node.orphans) == 64
        assert orphans[0].digest() not in node.orphans  # oldest evicted
        assert orphans[-1].digest() in node.orphans

    def test_invalid_seal_rejected(self, keyring):
        _, node = make_node(keyring)
        _, other = make_node(keyring)
        block = other.build_block(0.0, nonce=0)  # wins trivially under MAX_TARGET
        # Seal verification is against the block's declared target:
        forged = block.with_seal(PowSeal(other.address, 0, 1))  # target 1: impossible
        assert node.on_block(forged).reason == "BadSeal"

    def test_confirmation_depth_reporting(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000}, k=3)
        tx = noop(keyring, sender, 1)
        node.submit_tx(tx)
        confirmed_at = None
        for i in range(4):
            block = node.build_block(float(i), nonce=i)
            node.on_block(block)
            if tx.digest() in node.confirmed and confirmed_at is None:
                confirmed_at = node.tip_height
        assert confirmed_at == 3  # depth k=3: tx in block 1, confirmed at tip 3


class TestRevertOracle:
    """A confirmed inter tx that a reorg drops is reported, and the safety
    checker flags the report; k = 2 throughout."""

    @staticmethod
    def confirmed_at_height_1(keyring):
        """A node whose tx T sits in block 1 of a 3-block chain (confirmed)."""
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000}, k=2)
        tx = noop(keyring, sender, 1)
        assert node.submit_tx(tx)[0]
        for i in range(3):
            node.on_block(node.build_block(float(i), nonce=i))
        assert node.tip_height == 3 and tx.digest() in node.confirmed
        return node, tx

    @staticmethod
    def branch(node, parent, height, count, txs_at=None):
        """Feed ``count`` blocks of a new miner on ``parent`` (at ``height``);
        ``txs_at`` maps a height to the txs its block carries. Returns the
        last result."""
        miner = node.keyring.new_account().address
        for h in range(height + 1, height + count + 1):
            txs = (txs_at or {}).get(h, [])
            block = build_block(parent, h, txs, h, PowSeal(miner, h, MAX_TARGET))
            res = node.on_block(block)
            assert res.adopted_blocks
            parent = block.digest()
        return res

    @staticmethod
    def reported(res):
        """Safety violations of the log a collector writes for ``res``."""
        log = EventLog()
        Collector(log, log_payloads=False).inter_block(res, 100.0)
        return check_safety(log.events)

    def test_reverted_confirmed_tx_reported(self, keyring):
        node, tx = self.confirmed_at_height_1(keyring)
        t = tx.digest()
        res = self.branch(node, node.canonical[0], 0, 4)
        assert res.reorg_depth == 3
        assert res.reverted_confirmed == (t,)
        assert t not in node.confirmed
        violations = self.reported(res)
        assert len(violations) == 1
        assert "confirmed inter tx reverted" in violations[0] and t.hex() in violations[0]

    def test_reincluded_above_frontier_then_dropped_reported(self, keyring):
        # A deep reorg that puts T back above the new confirmed height (3)
        # reverts nothing, and node.confirmed still holds T; so a later
        # shallow reorg that drops T is reported.
        node, tx = self.confirmed_at_height_1(keyring)
        t = tx.digest()
        res = self.branch(node, node.canonical[0], 0, 4, txs_at={4: [tx]})
        assert res.reorg_depth == 3 and node.confirmed_height == 3
        assert node.canonical_receipts[t][0] == 4
        assert res.reverted_confirmed == () and self.reported(res) == []
        assert t in node.confirmed
        res = self.branch(node, node.canonical[3], 3, 2)
        assert res.reorg_depth == 1
        assert res.reverted_confirmed == (t,)
        assert len(self.reported(res)) == 1


class TestCanonicalReceipts:
    """The canonical-tx index against a from-scratch walk of the chain."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_index_matches_canonical_chain(self, data):
        keyring = Keyring(random.Random(data.draw(st.integers(0, 2**16), label="keys")))
        sender, miner = keyring.new_account(), keyring.new_account()
        # Three fees' worth of funds: a branch's fourth noop fails, so a
        # tx's status depends on the branch it lands in.
        pool = [noop(keyring, sender, i) for i in range(5)]
        pool.append(signed_inter_tx(sender, 9, M_SETTLE, fee=1))  # UnknownContract
        _, node = make_node(keyring, balances={sender.address: 3}, k=2)
        blocks, paths = [], [frozenset()]  # paths[i]: txs on the path to block i (0 = genesis)
        for i in range(data.draw(st.integers(1, 8), label="blocks")):
            p = data.draw(st.integers(0, i), label="parent")
            parent = blocks[p - 1] if p else None
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), unique=True, max_size=4),
                              label="txs")
            txs = [pool[j] for j in picks if j not in paths[p]]  # a tx once per branch
            blocks.append(build_block(parent.digest() if parent else node.canonical[0],
                                      parent.height + 1 if parent else 1, txs, i,
                                      PowSeal(miner.address, i, MAX_TARGET)))
            paths.append(paths[p] | {pool.index(tx) for tx in txs})
        for j in data.draw(st.permutations(range(len(blocks))), label="order"):
            before = set(node.confirmed)
            res = node.on_block(blocks[j])
            # A tx is reported confirmed by the call that confirms it (and
            # also reverted if a later orphan of the same call reorgs it out).
            gained = node.confirmed - before
            assert gained <= set(res.confirmed) <= gained | set(res.reverted_confirmed)
            expect = {}
            for h, bd in enumerate(node.canonical[1:], start=1):
                for pos, tx in enumerate(node.blocks[bd].txs):
                    expect[tx.digest()] = (h, node.block_receipts[bd][pos])
            assert node.canonical_receipts == expect
            assert node.confirmed <= node.canonical_receipts.keys()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_shared_memo_matches_private_memos(self, data):
        keyring = Keyring(random.Random(data.draw(st.integers(0, 2**16), label="keys")))
        sender, miner = keyring.new_account(), keyring.new_account()
        pool = [noop(keyring, sender, i) for i in range(5)]
        pool.append(signed_inter_tx(sender, 9, M_SETTLE, fee=1))  # UnknownContract
        genesis = ChainState({sender.address: 3})
        blocks = []
        for i in range(data.draw(st.integers(1, 8), label="blocks")):
            p = data.draw(st.integers(0, i), label="parent")
            parent = blocks[p - 1] if p else None
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), unique=True, max_size=4),
                              label="txs")
            blocks.append(build_block(parent.digest() if parent else genesis_block("pow").digest(),
                                      parent.height + 1 if parent else 1,
                                      [pool[j] for j in picks], i,
                                      PowSeal(miner.address, i, MAX_TARGET)))
        memo: dict = {}
        executed = []

        def counted(*args):
            executed.append(args[1].digest())
            return execute_block(*args)

        pairs = []
        with patch.object(powchain, "execute_block", counted):
            for _ in range(data.draw(st.integers(1, 3), label="nodes")):
                shared = inter_node(keyring, keyring.new_account().address, genesis,
                                    confirmation_depth=2, executions=memo)
                private = inter_node(keyring, keyring.new_account().address, genesis,
                                     confirmation_depth=2)
                # Random delivery order (children before parents wait as orphans),
                # and a random subset: nodes see different parts of the tree.
                order = data.draw(st.permutations(range(len(blocks))), label="order")
                order = order[:data.draw(st.integers(0, len(order)), label="delivered")]
                for j in order:
                    shared.on_block(blocks[j])
                    private.on_block(blocks[j])
                pairs.append((shared, private))
        for shared, private in pairs:
            assert shared.blocks.keys() == private.blocks.keys()
            assert {d: st_.digest() for d, st_ in shared.states.items()} == \
                {d: st_.digest() for d, st_ in private.states.items()}
            assert shared.block_receipts == private.block_receipts
            assert shared.canonical == private.canonical
            assert shared.canonical_receipts == private.canonical_receipts
            assert shared.confirmed == private.confirmed
            assert shared.orphans.keys() == private.orphans.keys()
            for d, st_ in shared.states.items():
                if d != shared.canonical[0]:
                    assert st_ is memo[d][0]  # one shared object per block
        # Private memos execute per node; the shared one once per distinct block.
        stored = {d for shared, _ in pairs for d in shared.blocks if d != shared.canonical[0]}
        assert memo.keys() == stored
        assert len(executed) == len(stored) + sum(len(p.blocks) - 1 for _, p in pairs)


class TestConvergence:
    def test_honest_miners_agree_on_deep_prefix(self):
        # All-honest virtual-time run: after quiescence every inter node
        # agrees on the canonical prefix up to tip - k.
        from fedledger.runner import run as run_scn
        from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec
        scn = Scenario(
            name="converge", seed=55, duration_ms=120_000, log_payloads=False,
            domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
            inter=InterSpec(miners=4, mean_block_interval_ms=600, confirmation_depth=6,
                            contracts=1),
            workload=WorkloadSpec(inter_rate_per_s=20),
        )
        _, h = run_scn(scn)
        nodes = [m.inter for m in h.miners] + [h.delegates[1][0].inter, h.admin.inter]
        k = scn.inter.confirmation_depth
        shortest = min(n.tip_height for n in nodes)
        assert shortest > k
        cut = shortest - k
        prefixes = {tuple(n.canonical[: cut + 1]) for n in nodes}
        assert len(prefixes) == 1
        # Identical prefix means identical executed state digest there.
        digests = {n.states[n.canonical[cut]].digest() for n in nodes}
        assert len(digests) == 1


class TestExecution:
    def full_protocol_chain(self, keyring):
        admin = keyring.new_account()
        dp, ds = keyring.new_account(), keyring.new_account()
        info = BrokerInfo(contract_id=1, admin=admin.address,
                          delegation_list=(dp.address, ds.address))
        balances = {dp.address: 10_000, ds.address: 50_000, admin.address: 1_000}
        key, node = make_node(keyring, balances=balances, contracts={1: info})
        cp_a = Checkpoint(1, sha256(b"a"), 2, sha256(b"ha"))
        cp_b = Checkpoint(2, sha256(b"b"), 2, sha256(b"hb"))
        svc = sha256(b"svc")
        txs = [
            signed_inter_tx(dp, 1, M_CONFIG_PUB, args=svc, checkpoint=cp_a, fee=1),
            signed_inter_tx(ds, 1, M_CONFIG_SUB, args=svc, attached=10_000, checkpoint=cp_b, fee=1),
            signed_inter_tx(dp, 1, M_COMMIT, fee=1),
            signed_inter_tx(ds, 1, M_COMMIT, fee=1),
            signed_inter_tx(dp, 1, M_SETTLE, fee=1),
        ]
        for tx in txs:
            ok, reason = node.submit_tx(tx)
            assert ok, reason
        block = node.build_block(0.0, nonce=0)
        node.on_block(block)
        return node, dp, ds, balances

    def test_in_block_order_and_payout(self, keyring):
        node, dp, ds, initial = self.full_protocol_chain(keyring)
        st = node.tip_state()
        info = st.contracts[1]
        assert info.broker_status.name == "PAID"
        assert info.escrow == 0
        # dp paid 3 fees (configure, commit, settle), received the escrow.
        assert st.balance(dp.address) == 10_000 - 3 + 10_000
        # ds paid 2 fees and fronted the 10_000 deposit.
        assert st.balance(ds.address) == 50_000 - 2 - 10_000
        # miner collected all 5 fees.
        assert st.balance(node.address) == 5

    def test_conservation_at_every_height(self, keyring):
        node, *_ = self.full_protocol_chain(keyring)
        totals = {d: s.total_supply() for d, s in node.states.items()}
        assert len(set(totals.values())) == 1  # constant across all blocks

    @staticmethod
    def replay(node, keyring):
        """The canonical chain re-executed from genesis."""
        state = node.states[node.canonical[0]].copy()
        for bd in node.canonical[1:]:
            state, _ = execute_block(state, node.blocks[bd], keyring)
        return state

    def test_deterministic_reexecution(self, keyring):
        node, *_ = self.full_protocol_chain(keyring)
        assert self.replay(node, keyring).digest() == node.tip_state().digest()

    def test_failed_call_refunds_attached_keeps_fee(self, keyring):
        dp = keyring.new_account()
        admin = keyring.new_account()
        info = BrokerInfo(contract_id=1, admin=admin.address, delegation_list=(dp.address,))
        key, node = make_node(keyring, balances={dp.address: 1_000}, contracts={1: info})
        # settle before anything is configured: InvalidState, fee burned to miner.
        tx = signed_inter_tx(dp, 1, M_SETTLE, fee=1)
        node.submit_tx(tx)
        node.on_block(node.build_block(0.0))
        # Included at height 1; nothing is bound yet.
        assert node.canonical_receipts[tx.digest()] == (1, "Unauthorized")
        st = node.tip_state()
        assert st.balance(dp.address) == 999
        assert st.total_supply() == 1_000

    @pytest.mark.parametrize("method, args", [(M_TRANSFER, b"\x01\x02"), (M_REPLACE, b"\x01" * 30)],
                             ids=["transfer", "replace"])
    def test_undecodable_args_fail_with_bad_args(self, keyring, method, args):
        # A call whose args hold too few addresses fails like any failed
        # call: the fee is kept and the attached value comes back.
        admin = keyring.new_account()
        info = BrokerInfo(contract_id=1, admin=admin.address, delegation_list=())
        key, node = make_node(keyring, balances={admin.address: 1_000}, contracts={1: info})
        tx = signed_inter_tx(admin, 1, method, args=args, attached=500, fee=FEE)
        assert node.submit_tx(tx) == (True, "")
        node.on_block(node.build_block(0.0))
        assert node.canonical_receipts[tx.digest()] == (1, "BadArgs")
        st = node.tip_state()
        assert st.balance(admin.address) == 1_000 - FEE
        assert st.balance(key.address) == FEE
        assert st.total_supply() == 1_000
