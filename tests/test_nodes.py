"""Workload generators: the shared submission schedule of both load nodes;
validators: the commit notices of a committed block; miners: the ack of a
submission to a load node, which has no handler."""

import random

import pytest

from fedledger.bft import Committee, Validator
from fedledger.chain import BftSeal, build_block, signed_intra_tx, transfer_payload
from fedledger.crypto import Keyring
from fedledger.nodes import (CommitNotice, InterLoadNode, IntraLoadNode, MinerNode, ScheduledLoad,
                             ValidatorNode)
from fedledger.powchain import ChainState, InterNode
from fedledger.scenario import DomainSpec, InterSpec, WorkloadSpec
from fedledger.sim import LinkModel, Node, Simulator


class SubmitLog:
    def __init__(self):
        self.at = []

    def intra_submit(self, zone, tx, at):
        self.at.append(at)

    def inter_submit(self, tx, at):
        self.at.append(at)


def intra_load(key, collector, rate, until, times=None):
    return IntraLoadNode("load:1", 1, key, random.Random(1), [], rate, until,
                         collector=collector, payload_bytes=WorkloadSpec().intra_payload_bytes,
                         times=times)


def inter_load(key, collector, rate, until, times=None):
    return InterLoadNode("load:inter", key, [], 1, rate, until,
                         collector=collector, times=times)


def run_load(make, **kw):
    """The times at which a load node submits over 10 s."""
    key = Keyring(random.Random(2)).new_account()
    collector = SubmitLog()
    node = make(key, collector, **kw)
    inter = InterSpec()  # the loads send to no one: the link is never sampled
    sim = Simulator(0, LinkModel(inter.median_delay_ms, inter.sigma, zone_ranges={}))
    sim.add_node(node)
    node.start(sim)
    sim.run_until(10_000)
    return collector.at


@pytest.mark.parametrize("make", [intra_load, inter_load], ids=["intra", "inter"])
class TestLoadSchedule:
    def test_rate_times_accumulate(self, make):
        submitted = run_load(make, rate=3, until=5_000.0)
        expected, t = [], 0.0
        while t < 5_000.0:
            expected.append(t)
            t += 1000.0 / 3
        # i*spacing rounds differently; the digests pin the sums.
        assert expected != [i * (1000.0 / 3) for i in range(len(expected))]
        assert submitted == expected

    def test_probe_times_sorted(self, make):
        submitted = run_load(make, rate=0, until=0.0, times=[900.0, 100.0, 500.0])
        assert submitted == [100.0, 500.0, 900.0]

    def test_zero_rate_submits_nothing(self, make):
        assert run_load(make, rate=0, until=5_000.0) == []


class FireLog(ScheduledLoad):
    """A schedule whose submissions only record when they fire."""

    def __init__(self, *args):
        super().__init__(*args)
        self.fired = []

    def submit(self, sim, i):
        self.fired.append((i, sim.now))


@pytest.mark.parametrize("rate, count, exact", [(800, 48_000, True), (700, 42_000, False)])
def test_lazy_schedule_equals_the_precomputed_running_sum(rate, count, exact):
    # The list the schedule was once built as, up front, over 60 s: at
    # intra-throughput's 800 tx/s, and at a rate whose spacing is not exact
    # in binary, so the running sum drifts from i*spacing.
    spacing, until = 1000.0 / rate, 60_000.0
    expected, t = [], 0.0
    while t < until:
        expected.append(t)
        t += spacing
    assert len(expected) == count
    assert (expected == [i * spacing for i in range(count)]) is exact
    node = FireLog("load:1", 1, rate, until, None)
    sim = Simulator(0, LinkModel(100.0, 1.0, zone_ranges={}))
    sim.add_node(node)
    node.start(sim)
    sim.run_until(until + 1_000.0)
    assert node.fired == list(enumerate(expected))


class CommitLog:
    def intra_commit(self, zone, validator, block, at):
        pass


class Subscriber(Node):
    """A notice recipient: a node without on_message would be sent nothing."""

    def on_message(self, sim, src, msg):
        pass


class TestCommitNotices:
    def committed_transfer(self, sender_sub, recipient_sub):
        """Queue the notices of one committed transfer; returns the notified node ids."""
        keyring = Keyring(random.Random(3))
        vkey, sender, recipient = (keyring.new_account() for _ in range(3))
        spec = DomainSpec(zone_id=1)
        core = Validator(vkey, Committee.of([vkey.address]), 1, keyring,
                         block_capacity=spec.block_capacity, round_timeout_ms=spec.round_timeout_ms,
                         block_interval_ms=spec.block_interval_ms)
        sim = Simulator(0, LinkModel(100.0, 1.0, zone_ranges={1: (10, 200)}))
        vnode = sim.add_node(ValidatorNode("val:1:0", core, CommitLog(), ["val:1:0"], []))
        for name in {sender_sub, recipient_sub}:
            sim.add_node(Subscriber(name, 1))
        vnode.subscribers[sender.address] = sender_sub
        vnode.subscribers[recipient.address] = recipient_sub
        tx = signed_intra_tx(sender, 1, transfer_payload(recipient.address, 5), 0)
        block = build_block(core.ledger.head_digest(), 1, [tx], 0, BftSeal(vkey.address, 0))
        vnode._committed(sim, block)
        queued = sorted(sim._queue, key=lambda entry: entry[1])  # schedule order
        expected = CommitNotice(1, block.digest(), tx.digest())
        assert all(payload == ("val:1:0", expected) for *_, payload in queued)
        return [target for _, _, _, target, _ in queued]

    def test_sender_then_recipient(self):
        # Named against their sorted order: the order is the roles', not the names'.
        assert self.committed_transfer("z-seller", "a-buyer") == ["z-seller", "a-buyer"]
        assert self.committed_transfer("a-seller", "z-buyer") == ["a-seller", "z-buyer"]

    def test_shared_subscriber_notified_once(self):
        assert self.committed_transfer("client", "client") == ["client"]


class TimedMiner(MinerNode):
    """A miner that records when and from whom each message reaches it."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.arrivals = []

    def on_message(self, sim, src, msg):
        self.arrivals.append((sim.now, src))
        super().on_message(sim, src, msg)


class AckedLoad(InterLoadNode):
    """The inter-ledger load with a handler that records each ack's arrival."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.acks = []

    def on_message(self, sim, src, msg):
        self.acks.append(sim.now)


def ack_run(load_cls):
    """One load submits at 0 and 5 s to one miner, which acks each; no block is mined."""
    keyring = Keyring(random.Random(4))
    mkey, lkey = keyring.new_account(), keyring.new_account()
    spec = InterSpec()
    inter = InterNode(mkey.address, keyring, ChainState({lkey.address: 10}),
                      confirmation_depth=spec.confirmation_depth, block_capacity=spec.block_capacity,
                      fee=spec.fee_units, block_reward=spec.block_reward_units)
    sim = Simulator(0, LinkModel(spec.median_delay_ms, spec.sigma, zone_ranges={}))
    miner = sim.add_node(TimedMiner("miner:0", inter, random.Random(5),
                                    mean_interval_ms=spec.mean_block_interval_ms, share=1.0))
    load = sim.add_node(load_cls("load:inter", lkey, ["miner:0"], spec.fee_units, 0, 0.0,
                                 collector=SubmitLog(), times=[0.0, 5_000.0]))
    load.start(sim)
    sim.run_until(20_000)
    return sim, miner, load


class TestUnheardAck:
    def test_ack_is_drawn_but_not_delivered(self):
        sim, miner, _ = ack_run(InterLoadNode)
        heard_sim, heard_miner, heard_load = ack_run(AckedLoad)
        # With a handler, the first ack is drawn and lands before the second submission.
        assert len(heard_load.acks) == 2 and heard_load.acks[0] < 5_000.0
        # Two timers and two submissions; the acks are not events without a handler.
        assert sim.processed == 4 and heard_sim.processed == 6
        # The second submission's delay is drawn after the first ack's either way.
        assert [src for _, src in miner.arrivals] == ["load:inter"] * 2
        assert miner.arrivals == heard_miner.arrivals
        assert sim.rng_net.getstate() == heard_sim.rng_net.getstate()
