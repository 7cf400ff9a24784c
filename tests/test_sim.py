"""Event loop: ordering, determinism, link models, faults."""

import random

import pytest

from fedledger.sim import ConfigError, FaultEntry, LinkModel, Node, Simulator


class Recorder(Node):
    def __init__(self, node_id, zone_id=1):
        super().__init__(node_id, zone_id)
        self.seen = []

    def on_message(self, sim, src, msg):
        self.seen.append((round(sim.now, 6), src, msg))

    def on_timer(self, sim, key):
        self.seen.append((round(sim.now, 6), "timer", key))


def two_node_sim(seed=1, zone_b=1):
    sim = Simulator(seed)
    a = sim.add_node(Recorder("a"))
    b = sim.add_node(Recorder("b", zone_b))
    return sim, a, b


class TestLoop:
    def test_empty_queue(self):
        sim = Simulator(0)
        assert sim.run_until(1_000_000) == 0
        assert sim.now == 1_000_000

    def test_clock_monotone_and_delay_respected(self):
        sim, a, b = two_node_sim()
        for i in range(50):
            sim.send("a", "b", i)
        sim.run_until(10_000)
        times = [t for t, _, _ in b.seen]
        assert times == sorted(times)
        assert all(t >= sim.link.intra_min_ms for t in times)

    def test_same_seed_identical_traces(self):
        def trace(seed):
            sim, a, b = two_node_sim(seed)
            for i in range(200):
                sim.send("a", "b", i)
                sim.set_timer("a", i * 3.0, ("t", i))
            sim.run_until(5_000)
            return a.seen + b.seen

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)

    def test_tie_break_by_schedule_order(self):
        sim = Simulator(0)
        r = sim.add_node(Recorder("r"))
        sim.set_timer("r", 10.0, "first")
        sim.set_timer("r", 10.0, "second")
        sim.run_until(20)
        assert [k for _, _, k in r.seen] == ["first", "second"]

    def test_run_backwards_rejected(self):
        sim = Simulator(0)
        sim.run_until(100)
        with pytest.raises(ValueError):
            sim.run_until(50)


class TestLinkModel:
    def test_intra_bounded_by_synchrony(self):
        link = LinkModel(intra_min_ms=10, intra_max_ms=200)
        rnd = random.Random(7)
        for _ in range(100_000):
            d = link.sample(rnd, zone=1)
            assert 10 <= d <= 200

    def test_inter_unbounded_tail(self):
        link = LinkModel(inter_median_ms=200, inter_sigma=1.0)
        rnd = random.Random(7)
        samples = [link.sample(rnd, zone=None) for _ in range(20_000)]
        assert max(samples) > 200 * 5  # heavy tail reaches well past the median
        med = sorted(samples)[len(samples) // 2]
        assert 180 < med < 220

    def test_per_zone_ranges(self):
        link = LinkModel(zone_ranges={2: (500, 600)})
        rnd = random.Random(7)
        assert all(500 <= link.sample(rnd, zone=2) <= 600 for _ in range(1000))

    def test_drop_probability(self):
        link = LinkModel(intra_drop=1.0)
        assert link.sample(random.Random(1), zone=1) is None


class TestFaults:
    def test_crash_silences_node_until_recover(self):
        sim, a, b = two_node_sim()
        sim.inject_fault(FaultEntry(100.0, "b", "crash"))
        sim.inject_fault(FaultEntry(5_000.0, "b", "recover"))
        sim.run_until(150)
        sim.send("a", "b", "while-down")  # delivery lands before recover
        sim.run_until(5_100)
        assert b.seen == []
        sim.send("a", "b", "after-up")
        sim.run_until(10_000)
        assert [m for _, _, m in b.seen] == ["after-up"]

    def test_crashed_sender_emits_nothing(self):
        sim, a, b = two_node_sim()
        sim.inject_fault(FaultEntry(0.0, "a", "crash"))
        sim.run_until(10)
        sim.send("a", "b", "x")
        sim.run_until(1_000)
        assert b.seen == []

    def test_inflight_to_crashed_node_dropped(self):
        sim, a, b = two_node_sim()
        sim.send("a", "b", "x")  # in flight, delivery within [10, 200]
        sim.inject_fault(FaultEntry(1.0, "b", "crash"))
        sim.run_until(1_000)
        assert b.seen == []

    def test_partition_and_heal(self):
        sim, a, b = two_node_sim()
        sim.inject_fault(FaultEntry(0.0, "", "partition", groups=(("a",), ("b",))))
        sim.run_until(10)
        sim.send("a", "b", "blocked")
        sim.run_until(1_000)
        assert b.seen == []
        sim.inject_fault(FaultEntry(1_001.0, "", "heal"))
        sim.run_until(1_100)
        sim.send("a", "b", "open")
        sim.run_until(2_000)
        assert [m for _, _, m in b.seen] == ["open"]

    def test_byzantine_sets_behavior(self):
        sim, a, b = two_node_sim()
        sim.inject_fault(FaultEntry(5.0, "a", "byzantine", behavior="silent"))
        sim.run_until(10)
        assert a.behavior == "silent"

    def test_delay_behavior_holds_messages_near_timeout(self):
        sim, a, b = two_node_sim()
        a.behavior = "delay"
        for i in range(50):
            sim.send("a", "b", i)
        sim.run_until(5_000)
        # 0.9x the synchrony bound on top of the sampled link delay.
        assert all(t >= 0.9 * sim.link.intra_max_ms + sim.link.intra_min_ms
                   for t, _, _ in b.seen)

    def test_delay_behavior_uses_sender_zone_bound(self):
        link = LinkModel(intra_min_ms=10, intra_max_ms=200,
                         zone_ranges={1: (10, 200), 2: (10, 1_000)})
        sim = Simulator(1, link)
        for node_id, zone in (("a1", 1), ("b1", 1), ("a2", 2), ("b2", 2)):
            sim.add_node(Recorder(node_id, zone)).behavior = "delay" if node_id[0] == "a" else ""
        for i in range(50):
            sim.send("a1", "b1", i)
            sim.send("a2", "b2", i)
        sim.run_until(5_000)
        times1 = [t for t, _, _ in sim.nodes["b1"].seen]
        times2 = [t for t, _, _ in sim.nodes["b2"].seen]
        assert len(times1) == len(times2) == 50
        assert all(180 + 10 <= t <= 180 + 200 for t in times1)
        assert all(900 + 10 <= t <= 900 + 1_000 for t in times2)

    def test_unknown_node_rejected(self):
        sim, _, _ = two_node_sim()
        with pytest.raises(ConfigError):
            sim.inject_fault(FaultEntry(0.0, "ghost", "crash"))

    def test_crashed_timers_dropped(self):
        sim, a, b = two_node_sim()
        sim.set_timer("a", 50.0, "tick")
        sim.inject_fault(FaultEntry(10.0, "a", "crash"))
        sim.run_until(100)
        assert a.seen == []


class TestAbortDiagnostics:
    def test_handler_exception_names_event(self):
        class Broken(Node):
            def on_timer(self, sim, key):
                raise KeyError("boom")

        sim = Simulator(0)
        sim.add_node(Broken("bad", 1))
        sim.set_timer("bad", 5.0, "x")
        with pytest.raises(RuntimeError, match=r"invariant breach at event #\d+.*bad"):
            sim.run_until(10)
