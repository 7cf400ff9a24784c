"""Workload generators: the shared submission schedule of both load nodes."""

import random

import pytest

from fedledger.crypto import Keyring
from fedledger.nodes import InterLoadNode, IntraLoadNode
from fedledger.scenario import InterSpec, WorkloadSpec
from fedledger.sim import LinkModel, Simulator


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
    key = Keyring(random.Random(2)).new_account()
    collector = SubmitLog()
    node = make(key, collector, **kw)
    inter = InterSpec()  # the loads send to no one: the link is never sampled
    sim = Simulator(0, LinkModel(inter.median_delay_ms, inter.sigma, zone_ranges={}))
    sim.add_node(node)
    node.start(sim)
    sim.run_until(10_000)
    return node, collector.at


@pytest.mark.parametrize("make", [intra_load, inter_load], ids=["intra", "inter"])
class TestLoadSchedule:
    def test_rate_times_accumulate(self, make):
        node, submitted = run_load(make, rate=3, until=5_000.0)
        expected, t = [], 0.0
        while t < 5_000.0:
            expected.append(t)
            t += 1000.0 / 3
        assert node.times == expected
        # i*spacing rounds differently; the digests pin the sums.
        assert expected != [i * (1000.0 / 3) for i in range(len(expected))]
        assert submitted == expected

    def test_probe_times_sorted(self, make):
        node, submitted = run_load(make, rate=0, until=0.0,
                                   times=[900.0, 100.0, 500.0])
        assert node.times == [100.0, 500.0, 900.0]
        assert submitted == [100.0, 500.0, 900.0]

    def test_zero_rate_submits_nothing(self, make):
        node, submitted = run_load(make, rate=0, until=5_000.0)
        assert node.times == [] and submitted == []
