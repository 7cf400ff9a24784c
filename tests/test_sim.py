"""Event loop: ordering, determinism, link models, faults, fan-outs."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger.sim import (INTER_MEDIAN_MS, INTER_SIGMA, INTRA_MAX_MS, INTRA_MIN_MS, ConfigError,
                           FaultEntry, LinkModel, Node, Simulator)


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
        assert all(t >= INTRA_MIN_MS for t in times)

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
        model = LinkModel()
        rnd = random.Random(7)
        for zone in (1, 2):
            for _ in range(50_000):
                d = model.sample(rnd, zone=zone)
                assert 10 <= d <= 200

    def test_inter_unbounded_tail(self):
        model = LinkModel()
        rnd = random.Random(7)
        samples = [model.sample(rnd, zone=None) for _ in range(20_000)]
        assert max(samples) > 200 * 5  # heavy tail reaches well past the median
        med = sorted(samples)[len(samples) // 2]
        assert 180 < med < 220

    # sample inlines the bodies of Random.gauss and Random.uniform; these
    # compare it with the library calls on each Python the tests run on.
    def test_inter_draw_equals_lognormal_of_gauss(self):
        model = LinkModel()
        assert (INTER_MEDIAN_MS, INTER_SIGMA) == (200, 1.0)
        rng, ref, stray = random.Random(11), random.Random(11), random.Random(12)
        pending = []  # whether a second normal was kept before each draw
        for _ in range(10_000):
            pending.append(rng.gauss_next is not None)
            assert model.sample(rng, None) == math.exp(math.log(200) + ref.gauss() * 1.0)
            if stray.random() < 0.3:
                assert rng.random() == ref.random()
        assert True in pending and False in pending
        assert rng.getstate() == ref.getstate()

    def test_zone_draw_equals_uniform(self):
        model = LinkModel()
        assert (INTRA_MIN_MS, INTRA_MAX_MS) == (10, 200)
        rng, ref = random.Random(13), random.Random(13)
        for _ in range(10_000):
            assert model.sample(rng, 1) == ref.uniform(10.0, 200.0)
        assert rng.getstate() == ref.getstate()


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
        assert len(b.seen) == 50
        assert all(180 + 10 <= t <= 180 + 200 for t, _, _ in b.seen)

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


# -- one fan-out against the per-destination link formula -------------------------

# Same-zone, cross-zone and zoneless links.
# The MUTE nodes have no on_message: messages to them are drawn, not queued.
ZONES = {"a1": 1, "b1": 1, "a2": 2, "b2": 2, "x": None, "y": None, "m1": 1, "m": None}
MUTE = {"m1", "m"}
IDS = sorted(ZONES)


class Wired:
    """A message that appears on the transcript."""

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Wired) and other.tag == self.tag

    def wire_bytes(self):
        return b"wired" + bytes([self.tag])


def unicast_reference(sim, groups, src, dst, msg):
    """The link rules of one unicast send under partition ``groups``, written out."""
    if src in sim.crashed:
        return
    ga = gb = None
    for i, g in enumerate(groups or ()):
        if src in g:
            ga = i
        if dst in g:
            gb = i
    if ga is not None and gb is not None and ga != gb:
        return
    a, b = sim.nodes[src], sim.nodes[dst]
    zone = a.zone_id if (a.zone_id is not None and a.zone_id == b.zone_id) else None
    extra = 0.0
    if a.behavior == "delay":
        extra = 0.9 * INTRA_MAX_MS
    delay = sim.link.sample(sim.rng_net, zone)
    if sim.transcript is not None and zone is None:
        wire = getattr(msg, "wire_bytes", None)
        if wire is not None:
            sim.transcript.append((src, dst, wire()))
    if dst not in MUTE:
        sim._push(sim.now + delay + extra, "msg", dst, (src, msg))


def faulted_sim(seed, now, transcript, delayer, crashed, groups):
    sim = Simulator(seed, transcript=transcript)
    for node_id in IDS:
        sim.add_node((Node if node_id in MUTE else Recorder)(node_id, ZONES[node_id]))
    if delayer is not None:
        sim.inject_fault(FaultEntry(0.0, delayer, "byzantine", behavior="delay"))
    if crashed is not None:
        sim.inject_fault(FaultEntry(0.0, crashed, "crash"))
    if groups is not None:
        sim.inject_fault(FaultEntry(0.0, "", "partition", groups=groups))
    sim.run_until(now)
    return sim


class TestMulticast:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           now=st.floats(0.0, 1e6),
           transcript=st.booleans(),
           delayer=st.sampled_from([None, "a1", "b2"]),
           crashed=st.sampled_from([None, *IDS]),
           groups=st.none() | st.lists(st.lists(st.sampled_from(IDS), unique=True).map(tuple),
                                       min_size=1, max_size=3).map(tuple),
           fanouts=st.lists(st.tuples(st.sampled_from(IDS),
                                      st.lists(st.sampled_from(IDS), max_size=8),
                                      st.integers(0, 255) | st.integers(0, 255).map(Wired)),
                            min_size=1, max_size=4))
    def test_equals_one_send_per_destination(self, seed, now, transcript, delayer, crashed,
                                             groups, fanouts):
        sims = [faulted_sim(seed, now, transcript, delayer, crashed, groups) for _ in range(2)]
        for src, dsts, msg in fanouts:
            sims[0].multicast(src, dsts, msg)
            for dst in dsts:
                unicast_reference(sims[1], groups, src, dst, msg)
        fan, ref = sims
        assert fan._queue == ref._queue
        assert fan.transcript == ref.transcript
        assert fan.rng_net.getstate() == ref.rng_net.getstate()
