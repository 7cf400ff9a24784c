"""Inter-ledger: mining modes, pool admission, fork choice, reorgs,
execution determinism, conservation, and the statistical block model."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger.analysis import ks_exponential
from fedledger.chain import MAX_TARGET, Checkpoint, PowSeal, build_block
from fedledger.contract import BrokerInfo
from fedledger.crypto import Keyring, sha256
from fedledger.powchain import (
    M_COMMIT,
    M_CONFIG_PUB,
    M_CONFIG_SUB,
    M_NOOP,
    M_REPLACE,
    M_SETTLE,
    M_TRANSFER,
    ChainState,
    InterNode,
    execute_block,
    signed_inter_tx,
)


def make_node(keyring, balances=None, contracts=None, target=MAX_TARGET, k=2, capacity=571):
    key = keyring.new_account()
    state = ChainState(dict(balances or {}), dict(contracts or {}))
    node = InterNode(key.address, keyring, state, target, confirmation_depth=k,
                     block_capacity=capacity)
    return key, node


def noop(keyring, key, salt, fee=1):
    return signed_inter_tx(key, 0, M_NOOP, args=salt.to_bytes(8, "big"), fee=fee)


class TestMining:
    def test_degenerate_target_first_nonce_wins(self, keyring):
        _, node = make_node(keyring)
        block = node.mine_step(0.0, batch=1)
        assert block is not None
        assert int.from_bytes(block.digest(), "big") < MAX_TARGET

    def test_puzzle_target_requires_grinding(self, keyring):
        target = 1 << 248  # ~1/256 per nonce
        _, node = make_node(keyring, target=target)
        block = node.mine_step(0.0, batch=4096)
        assert block is not None
        assert int.from_bytes(block.digest(), "big") < target
        assert node.on_block(block, 1.0).adopted

    def test_block_capacity_cap(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 10_000})
        for i in range(600):
            ok, reason = node.submit_tx(noop(keyring, sender, i))
            assert ok, reason
        block = node.build_block(0.0)
        assert len(block.txs) == 571

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
        node.on_block(block, 1.0)
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
                node.on_block(blk, 1.0)
        tips = {n.tip for n in nodes}
        assert len(tips) == 2  # first-seen tie-break, no agreement yet
        # An extension of branch b forces convergence everywhere.
        ext_parent = b.digest()
        child = nodes[1].build_block(30.0, nonce=3)
        assert child.parent == ext_parent
        for n in nodes:
            n.on_block(child, 2.0)
        assert {n.tip for n in nodes} == {child.digest()}

    def test_reorg_returns_displaced_txs(self, keyring):
        sender = keyring.new_account()
        key, node = make_node(keyring, balances={sender.address: 1000})
        tx = noop(keyring, sender, 9)
        node.submit_tx(tx)
        mine = node.build_block(5.0, nonce=1)  # includes tx
        node.on_block(mine, 5.0)
        assert tx.digest() not in node.pending
        # A competing branch without the tx overtakes.
        other = InterNode(keyring.new_account().address, keyring,
                          ChainState({sender.address: 1000}), MAX_TARGET, 2)
        b1 = other.build_block(6.0, nonce=2)
        other.on_block(b1, 6.0)
        b2 = other.build_block(7.0, nonce=3)
        res1 = node.on_block(b1, 8.0)
        res2 = node.on_block(b2, 8.5)
        assert res2.reorged and res2.reorg_depth == 1
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
        node.on_block(mine, 1.0)
        b, c, d = submit(3), submit(4), submit(5)
        # An empty two-block branch from genesis displaces a and a2.
        other = InterNode(keyring.new_account().address, keyring,
                          ChainState({sender.address: 1000}), MAX_TARGET, 2)
        for i in range(2):
            blk = other.build_block(2.0 + i, nonce=10 + i)
            other.on_block(blk, 2.0 + i)
            res = node.on_block(blk, 2.0 + i)
        assert res.reorged and res.reorg_depth == 1
        order = [t.digest() for t in node.build_block(5.0).txs]
        # Arrival order; the re-pooled txs arrive last, in their block order.
        assert order == [t.digest() for t in (b, c, d, a, a2)]

    def test_orphan_buffered_until_parent(self, keyring):
        _, node = make_node(keyring)
        _, other = make_node(keyring)
        b1 = other.build_block(1.0, nonce=1)
        other.on_block(b1, 1.0)
        b2 = other.build_block(2.0, nonce=2)
        res = node.on_block(b2, 3.0)  # child first
        assert not res.adopted and res.reason == "orphan"
        res = node.on_block(b1, 4.0)
        assert res.adopted and node.tip == b2.digest()
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
            node.on_block(b, float(i))
        assert len(node.orphans) == 64
        assert orphans[0].digest() not in node.orphans  # oldest evicted
        assert orphans[-1].digest() in node.orphans

    def test_invalid_seal_rejected(self, keyring):
        target = 1 << 200
        _, node = make_node(keyring, target=target)
        _, loose = make_node(keyring, target=MAX_TARGET)
        bad = loose.build_block(0.0, nonce=0)  # wins trivially under MAX_TARGET
        res = node.on_block(bad, 1.0)
        # Block claims MAX_TARGET seal; digest will almost surely exceed
        # this node's own target but seal verification is against the
        # block's declared target, so check an actually-invalid seal:
        forged = bad.with_seal(PowSeal(loose.address, 0, 1))  # target 1: impossible
        assert not node.on_block(forged, 1.0).adopted

    def test_confirmation_depth_reporting(self, keyring):
        sender = keyring.new_account()
        _, node = make_node(keyring, balances={sender.address: 1000}, k=3)
        tx = noop(keyring, sender, 1)
        node.submit_tx(tx)
        confirmed_at = None
        for i in range(4):
            block = node.build_block(float(i), nonce=i)
            node.on_block(block, float(i))
            if tx.digest() in node.confirmed and confirmed_at is None:
                confirmed_at = node.tip_height
        assert confirmed_at == 3  # depth k=3: tx in block 1, confirmed at tip 3


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
            blocks.append(build_block(parent.digest() if parent else node.genesis_digest,
                                      parent.height + 1 if parent else 1, txs, i,
                                      PowSeal(miner.address, i, MAX_TARGET)))
            paths.append(paths[p] | {pool.index(tx) for tx in txs})
        for j in data.draw(st.permutations(range(len(blocks))), label="order"):
            node.on_block(blocks[j], float(j))
            expect = {}
            for h, bd in enumerate(node.canonical[1:], start=1):
                for pos, tx in enumerate(node.blocks[bd].txs):
                    expect[tx.digest()] = (h, node.block_receipts[bd][pos])
            assert node.canonical_receipts == expect
            assert node.confirmed <= node.canonical_receipts.keys()


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

    def test_puzzle_mode_end_to_end(self):
        # Real nonce grinding through the event loop: blocks land and the
        # chain converges across miners.
        from fedledger.runner import run as run_scn
        from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec
        scn = Scenario(
            name="puzzle", seed=77, duration_ms=30_000, log_payloads=False,
            domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
            inter=InterSpec(miners=2, mode="puzzle", target_bits=244, contracts=1),
            workload=WorkloadSpec(inter_rate_per_s=5, inter_until_ms=20_000),
        )
        report, h = run_scn(scn)
        tips = {m.inter.tip for m in h.miners}
        assert report.ledgers["inter"].block_count >= 3
        assert len(tips) == 1
        for m in h.miners:
            for bd in m.inter.canonical[1:]:
                block = m.inter.blocks[bd]
                assert int.from_bytes(block.digest(), "big") < block.seal.target


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
        node.on_block(block, 0.0)
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

    def test_deterministic_reexecution(self, keyring):
        node, *_ = self.full_protocol_chain(keyring)
        # Replay the canonical chain from genesis; digests must match.
        state = node.states[node.genesis_digest].copy()
        for bd in node.canonical[1:]:
            state, _ = execute_block(state, node.blocks[bd], keyring)
        assert state.digest() == node.tip_state().digest()

    def test_block_reward_mints_subsidy(self, keyring):
        sender = keyring.new_account()
        key = keyring.new_account()
        state = ChainState({sender.address: 1000})
        node = InterNode(key.address, keyring, state, MAX_TARGET,
                         confirmation_depth=2, block_reward=50)
        node.submit_tx(noop(keyring, sender, 1))
        node.on_block(node.build_block(0.0), 0.0)
        node.on_block(node.build_block(1.0), 1.0)
        st = node.tip_state()
        assert st.minted_total == 100
        assert st.balance(node.address) == 100 + 1  # two subsidies plus the fee
        assert st.total_supply() == 1000 + st.minted_total

    def test_failed_call_refunds_attached_keeps_fee(self, keyring):
        dp = keyring.new_account()
        admin = keyring.new_account()
        info = BrokerInfo(contract_id=1, admin=admin.address, delegation_list=(dp.address,))
        key, node = make_node(keyring, balances={dp.address: 1_000}, contracts={1: info})
        # settle before anything is configured: InvalidState, fee burned to miner.
        tx = signed_inter_tx(dp, 1, M_SETTLE, fee=1)
        node.submit_tx(tx)
        node.on_block(node.build_block(0.0), 0.0)
        # Included at height 1; nothing is bound yet.
        assert node.canonical_receipts[tx.digest()] == (1, "Unauthorized")
        st = node.tip_state()
        assert st.balance(dp.address) == 999
        assert st.total_supply() == 1_000
