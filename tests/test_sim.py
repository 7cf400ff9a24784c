"""Event loop: ordering, determinism, link models, faults, fan-outs,
local deliveries."""

import gc
import heapq
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger.sim import (INTER_MEDIAN_MS, INTER_SIGMA, INTRA_MAX_MS, INTRA_MIN_MS, ConfigError,
                           FaultEntry, LinkModel, LocalMessage, Node, Simulator)


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


class CollectorWatch(Node):
    """A node whose handlers note whether the cyclic collector is on."""

    def __init__(self, node_id):
        super().__init__(node_id, 1)
        self.seen = []

    def on_timer(self, sim, key):
        self.seen.append(gc.isenabled())
        if key == "raise":
            raise KeyError("boom")


class TestCollectorPause:
    """run_until pauses the cyclic collector and gives the caller's setting back."""

    @pytest.fixture
    def passes(self):
        """The generation of each collector pass while the test runs; the
        caller's collector setting is restored after it."""
        enabled = gc.isenabled()
        seen = []

        def watch(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.callbacks.append(watch)
        yield seen
        gc.callbacks.remove(watch)
        (gc.enable if enabled else gc.disable)()

    def sim_with(self, *keys):
        sim = Simulator(0)
        node = sim.add_node(CollectorWatch("w"))
        for i, key in enumerate(keys):
            sim.set_timer("w", 5.0 * (i + 1), key)
        return sim, node

    def test_paused_in_the_loop_and_on_again_after_one_young_pass(self, passes):
        gc.enable()
        sim, node = self.sim_with("a", "b")
        gc.collect()  # no automatic pass falls due before the call
        passes.clear()
        assert sim.run_until(100) == 2
        assert node.seen == [False, False]
        assert gc.isenabled()
        assert passes == [0]

    def test_on_again_after_an_invariant_breach(self, passes):
        gc.enable()
        sim, node = self.sim_with("raise")
        with pytest.raises(RuntimeError, match="invariant breach"):
            sim.run_until(100)
        assert node.seen == [False]
        assert gc.isenabled()

    def test_on_again_after_running_backwards(self, passes):
        gc.enable()
        sim, _ = self.sim_with()
        sim.run_until(100)
        with pytest.raises(ValueError):
            sim.run_until(50)
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off_without_a_pass(self, passes):
        gc.disable()
        sim, node = self.sim_with("a", "raise")
        sim.run_until(6)
        with pytest.raises(RuntimeError, match="invariant breach"):
            sim.run_until(100)
        assert node.seen == [False, False]
        assert not gc.isenabled()
        assert passes == []


# -- one fan-out against the per-destination link formula -------------------------

# Same-zone, cross-zone and zoneless links.
# The MUTE nodes have no on_message: messages to them are drawn, not queued.
ZONES = {"a1": 1, "b1": 1, "a2": 2, "b2": 2, "x": None, "y": None, "m1": 1, "m": None}
MUTE = {"m1", "m"}
IDS = sorted(ZONES)


class Wired:
    """A message with a wire form, which the transcript records."""

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
        sim.transcript.append((src, dst, msg.wire_bytes()))
    # A node without on_message is sent only local messages.
    if hasattr(b, "on_message") or isinstance(msg, LocalMessage):
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
    """``send`` and ``multicast`` are two bodies of one link rule: each is
    held to ``unicast_reference``, a fan-out once per destination."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           now=st.floats(0.0, 1e6),
           transcript=st.booleans(),
           delayer=st.sampled_from([None, "a1", "b2"]),
           crashed=st.sampled_from([None, *IDS]),
           groups=st.none() | st.lists(st.lists(st.sampled_from(IDS), unique=True).map(tuple),
                                       min_size=1, max_size=3).map(tuple),
           # A destination list is a multicast; a single id is a send.
           fanouts=st.lists(st.tuples(st.sampled_from(IDS),
                                      st.lists(st.sampled_from(IDS), max_size=8) | st.sampled_from(IDS),
                                      st.integers(0, 255).map(Wired)),
                            min_size=1, max_size=6))
    def test_equals_one_send_per_destination(self, seed, now, transcript, delayer, crashed,
                                             groups, fanouts):
        sims = [faulted_sim(seed, now, transcript, delayer, crashed, groups) for _ in range(2)]
        for src, dsts, msg in fanouts:
            if isinstance(dsts, str):
                sims[0].send(src, dsts, msg)
                dsts = (dsts,)
            else:
                sims[0].multicast(src, dsts, msg)
            for dst in dsts:
                unicast_reference(sims[1], groups, src, dst, msg)
        fan, ref = sims
        assert fan._queue == ref._queue
        assert fan.transcript == ref.transcript
        assert fan.rng_net.getstate() == ref.rng_net.getstate()
        assert fan._seq == ref._seq  # multicast keeps the counter in a local

    def test_a_delayed_send_is_held_after_its_delay_is_added(self):
        # now + delay + extra, in that order: (now + extra) + delay rounds
        # differently at some of these times.
        extra = 0.9 * INTRA_MAX_MS
        for via in ("send", "multicast"):
            sim = faulted_sim(1, 0.0, False, "a1", None, None)
            times = random.Random(0)
            rounded_apart = 0
            for _ in range(1000):
                now = sim.now = times.uniform(0, 30_000)
                probe = random.Random()
                probe.setstate(sim.rng_net.getstate())
                delay = sim.link.sample(probe, ZONES["a1"])
                sim._queue.clear()
                if via == "send":
                    sim.send("a1", "b1", "m")
                else:
                    sim.multicast("a1", ("b1",), "m")
                assert sim._queue[0][0] == now + delay + extra, via
                rounded_apart += now + delay + extra != now + extra + delay
            assert rounded_apart


class TestStrictTranscript:
    """With the transcript on, a message without a wire form cannot cross a
    zone unrecorded: the send raises."""

    @staticmethod
    def sim_of(transcript):
        sim = Simulator(1, transcript=transcript)
        for node_id in ("a1", "b1", "a2"):
            sim.add_node(Recorder(node_id, ZONES[node_id]))
        return sim

    def test_a_message_without_wire_bytes_raises_across_a_zone(self):
        sim = self.sim_of(transcript=True)
        with pytest.raises(AttributeError, match="wire_bytes"):
            sim.send("a1", "a2", 7)
        assert sim.transcript == []

    def test_the_same_send_within_a_zone_or_untranscribed_does_not_raise(self):
        sim = self.sim_of(transcript=True)
        sim.send("a1", "b1", 7)
        untranscribed = self.sim_of(transcript=False)
        untranscribed.send("a1", "a2", 7)
        assert sim.transcript == [] and untranscribed.transcript is None
        sim.run_until(1e4)
        untranscribed.run_until(1e4)
        assert [m for _t, _s, m in sim.nodes["b1"].seen] == [7]
        assert [m for _t, _s, m in untranscribed.nodes["a2"].seen] == [7]


# -- local deliveries against one global queue --------------------------------------

class Pooled(LocalMessage):
    """A local message, with a wire form for the zones it crosses."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        return isinstance(other, Pooled) and other.tag == self.tag

    def wire_bytes(self):
        return b"pooled" + bytes([self.tag])


class Absorber(Recorder):
    """Records its absorbs in the same sequence as its messages and timers."""

    def absorb(self, msg):
        self.seen.append(("absorb", msg))


class Pool(Node):
    """Absorbs local messages and keeps timers, but has no on_message."""

    def __init__(self, node_id, zone_id):
        super().__init__(node_id, zone_id)
        self.seen = []

    def absorb(self, msg):
        self.seen.append(("absorb", msg))

    def on_timer(self, sim, key):
        self.seen.append((round(sim.now, 6), "timer", key))


LOCAL_NODES = {"p1": (Absorber, 1), "p2": (Absorber, 1), "p3": (Absorber, 2), "q": (Pool, None),
               "r1": (Recorder, 1), "m": (Node, None)}
LOCAL_IDS = sorted(LOCAL_NODES)
ABSORBERS = ["p1", "p2", "p3", "q"]
TIMED = ["p1", "p2", "p3", "q", "r1"]


def local_sim(seed, transcript, faults):
    sim = Simulator(seed, transcript=transcript)
    for node_id in LOCAL_IDS:
        cls, zone = LOCAL_NODES[node_id]
        sim.add_node(cls(node_id, zone))
    for entry in faults:
        sim.inject_fault(entry)
    return sim


class ReferenceLoop:
    """The event loop with every message on the one global queue, written
    out: a local message is handed to ``absorb`` at its own dispatch, and
    one that falls due while its node is down is dropped like any other."""

    def __init__(self, sim):
        self.sim = sim
        self.groups = None  # the partition in force

    def send(self, src, dsts, msg):
        for dst in dsts:
            unicast_reference(self.sim, self.groups, src, dst, msg)

    def run_until(self, t):
        sim = self.sim
        while sim._queue and sim._queue[0][0] <= t:
            at, _seq, kind, target, payload = heapq.heappop(sim._queue)
            sim.now = at
            if kind == "fault":
                if payload.fault == "crash":
                    sim.crashed.add(payload.node)
                elif payload.fault == "recover":
                    sim.crashed.discard(payload.node)
                elif payload.fault == "byzantine":
                    sim.nodes[payload.node].behavior = payload.behavior
                elif payload.fault == "partition":
                    self.groups = payload.groups
                else:
                    self.groups = None
            elif target in sim.crashed:
                continue
            elif kind == "timer":
                sim.nodes[target].on_timer(sim, payload)
            elif isinstance(payload[1], LocalMessage):
                sim.nodes[target].absorb(payload[1])
            else:
                sim.nodes[target].on_message(sim, *payload)
            sim.processed += 1
        sim.now = t

    def next_local_due(self, k):
        """The due time of the k-th (mod their number) local delivery still queued."""
        due = sorted(e[0] for e in self.sim._queue
                     if e[2] == "msg" and isinstance(e[4][1], LocalMessage))
        return due[k % len(due)] if due else self.sim.now


def _fault(at, kind, node, groups):
    if kind == "partition":
        return FaultEntry(at, "", "partition", groups=groups)
    if kind == "heal":
        return FaultEntry(at, "", "heal")
    if kind == "delay":
        return FaultEntry(at, node, "byzantine", behavior="delay")
    return FaultEntry(at, node, kind)


_groups = st.lists(st.lists(st.sampled_from(LOCAL_IDS), unique=True, min_size=1).map(tuple),
                   min_size=2, max_size=3).map(tuple)
_faults = st.lists(st.builds(_fault, st.floats(0.0, 3_000.0),
                             st.sampled_from(["crash", "crash", "recover", "recover",
                                              "partition", "heal", "delay"]),
                             st.sampled_from(LOCAL_IDS), _groups), max_size=10)
_tags = st.integers(0, 255)
_steps = st.lists(st.one_of(
    # A destination list is a multicast; a single id is a send. Local
    # messages go to the absorbers, the others anywhere.
    st.tuples(st.just("local"), st.sampled_from(LOCAL_IDS),
              st.lists(st.sampled_from(ABSORBERS), max_size=5) | st.sampled_from(ABSORBERS),
              _tags.map(Pooled)),
    st.tuples(st.just("wired"), st.sampled_from(LOCAL_IDS),
              st.lists(st.sampled_from(LOCAL_IDS), max_size=5) | st.sampled_from(LOCAL_IDS),
              _tags.map(Wired)),
    st.tuples(st.just("timer"), st.sampled_from(TIMED), st.floats(0.0, 400.0), _tags),
    st.tuples(st.just("run"), st.floats(0.0, 600.0)),
    # Exactly at a local delivery's due time.
    st.tuples(st.just("due"), st.integers(0, 50)),
), min_size=1, max_size=30)


def assert_inboxes_consistent(sim):
    """Each node's earliest due is the least due time in its inbox (inf
    when empty), and the held count is the inboxes' total length."""
    for node_id, box in sim._inbox.items():
        assert sim._due[node_id] == min((at for at, _seq, _msg in box), default=math.inf)
    assert sim._held == sum(map(len, sim._inbox.values()))


class TestLocalDelivery:
    """A local message waits in its receiver's inbox, off the global queue,
    and is absorbed before that node's next later event, before its crash,
    and at the end of each ``run_until``: every node sees what it would
    with every message on the one queue, and the loop counts, draws,
    numbers and transcribes the same."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), transcript=st.booleans(), faults=_faults, steps=_steps)
    def test_equals_one_global_queue(self, seed, transcript, faults, steps):
        sim = local_sim(seed, transcript, faults)
        ref = ReferenceLoop(local_sim(seed, transcript, faults))
        for step in steps + [("run", 10_000.0)]:
            if step[0] in ("local", "wired"):
                _, src, dsts, msg = step
                if isinstance(dsts, str):
                    sim.send(src, dsts, msg)
                    dsts = (dsts,)
                else:
                    sim.multicast(src, dsts, msg)
                ref.send(src, dsts, msg)
                assert_inboxes_consistent(sim)
                continue
            if step[0] == "timer":
                _, node_id, dt, key = step
                sim.set_timer(node_id, sim.now + dt, key)
                ref.sim.set_timer(node_id, sim.now + dt, key)
                continue
            t = sim.now + step[1] if step[0] == "run" else ref.next_local_due(step[1])
            sim.run_until(t)
            ref.run_until(t)
            r = ref.sim
            for node_id in LOCAL_IDS:
                assert getattr(sim.nodes[node_id], "seen", None) == getattr(r.nodes[node_id], "seen", None)
            assert sim.processed == r.processed
            assert sim.rng_net.getstate() == r.rng_net.getstate()
            assert sim.transcript == r.transcript
            assert sim._seq == r._seq
            assert_inboxes_consistent(sim)
            # The global queue holds the same entries but the local ones.
            assert sorted(sim._queue) == sorted(
                e for e in r._queue if not (e[2] == "msg" and isinstance(e[4][1], LocalMessage)))

    def test_double_crash_and_lone_recover(self):
        # p1 is down from 100 ms to 1000 ms (crashed twice); p2 gets a
        # recover that ends no crash. Deliveries to p1 due while it is down
        # are dropped and not counted; p2 absorbs all of its own.
        faults = [FaultEntry(100.0, "p1", "crash"), FaultEntry(300.0, "p1", "crash"),
                  FaultEntry(1_000.0, "p1", "recover"), FaultEntry(150.0, "p2", "recover")]
        sim = local_sim(5, False, faults)
        ref = ReferenceLoop(local_sim(5, False, faults))
        for i, now in enumerate((0.0, 50.0, 200.0, 900.0, 950.0)):
            sim.run_until(now)
            ref.run_until(now)
            sim.multicast("r1", ["p1", "p2"], Pooled(i))
            ref.send("r1", ["p1", "p2"], Pooled(i))
        sim.run_until(5_000)
        ref.run_until(5_000)
        assert sim.nodes["p1"].seen == ref.sim.nodes["p1"].seen
        assert sim.nodes["p2"].seen == ref.sim.nodes["p2"].seen
        assert sorted(msg.tag for _kind, msg in sim.nodes["p2"].seen) == list(range(5))
        assert sim.processed == ref.sim.processed
        assert len(sim.nodes["p1"].seen) < 5

    def test_a_long_inbox_drained_in_slices(self):
        # p1 is sent 240 deliveries by three senders: r1's are held by the
        # delay behaviour and p3's cross a zone, so entries are appended out
        # of due order. p1's own timers drain it inside a slice, it is down
        # from 300 ms to 420 ms, and the run advances in 100 equal slices,
        # as the benchmark's untraced samples do.
        faults = [FaultEntry(0.0, "r1", "byzantine", behavior="delay"),
                  FaultEntry(300.0, "p1", "crash"), FaultEntry(420.0, "p1", "recover")]
        sim = local_sim(11, False, faults)
        ref = ReferenceLoop(local_sim(11, False, faults))
        unsorted = longest = 0
        for k in range(100):
            if k < 40:
                for i in range(2):
                    for j, src in enumerate(("r1", "p3", "p2")):
                        msg = Pooled(6 * k + 3 * i + j)  # each tag once
                        if src == "p2":
                            sim.multicast(src, ["p1"], msg)
                        else:
                            sim.send(src, "p1", msg)
                        ref.send(src, ["p1"], msg)
                sim.set_timer("p1", sim.now + 3.0 + k % 11, k)
                ref.sim.set_timer("p1", sim.now + 3.0 + k % 11, k)
            box = sim._inbox["p1"]
            unsorted += box != sorted(box)
            longest = max(longest, len(box))
            assert_inboxes_consistent(sim)
            t = 5_000.0 * (k + 1) / 100
            sim.run_until(t)
            ref.run_until(t)
            assert sim.nodes["p1"].seen == ref.sim.nodes["p1"].seen
            assert sim.processed == ref.sim.processed
            assert sim.rng_net.getstate() == ref.sim.rng_net.getstate()
            assert sim._seq == ref.sim._seq
            assert_inboxes_consistent(sim)
        absorbed = sum(1 for e in sim.nodes["p1"].seen if e[0] == "absorb")
        assert sim._inbox["p1"] == [] and sim._held == 0
        assert unsorted > 0 and longest >= 20
        assert 200 <= absorbed < 240  # the crash dropped some

    def test_delivery_due_at_the_bound_is_absorbed_by_it(self):
        sim = local_sim(1, False, [])
        sim.send("r1", "p1", Pooled(1))
        (due, _seq, _msg), = sim._inbox["p1"]
        assert sim.run_until(due) == 1
        assert sim.nodes["p1"].seen == [("absorb", Pooled(1))]
        assert sim._inbox["p1"] == [] and sim._queue == []

    @pytest.mark.parametrize("first", ["timer", "crash"])
    def test_a_delivery_tied_with_an_earlier_event_comes_after_it(self, first):
        # A delivery due at the same time as an event scheduled before it
        # comes after that event: after p1's timer, and dropped by its crash.
        sims = [local_sim(3, False, []), local_sim(3, False, [])]
        for sim in sims:
            sim.run_until(100.0)
            probe = random.Random()
            probe.setstate(sim.rng_net.getstate())
            due = sim.now + sim.link.sample(probe, 1)
            if first == "timer":
                sim.set_timer("p1", due, "tied")
            else:
                sim.inject_fault(FaultEntry(due, "p1", "crash"))
        sim, ref = sims[0], ReferenceLoop(sims[1])
        sim.send("r1", "p1", Pooled(7))
        ref.send("r1", ["p1"], Pooled(7))
        sim.run_until(1_000)
        ref.run_until(1_000)
        expected = [(round(due, 6), "timer", "tied"), ("absorb", Pooled(7))] if first == "timer" else []
        assert sim.nodes["p1"].seen == ref.sim.nodes["p1"].seen == expected
        assert sim.processed == ref.sim.processed

    def test_local_message_to_a_node_without_absorb_raises(self):
        for dst in ("r1", "m"):
            sim = local_sim(1, False, [])
            with pytest.raises(ConfigError, match="absorb"):
                sim.send("p1", dst, Pooled(1))
            with pytest.raises(ConfigError, match="absorb"):
                sim.multicast("p1", ["p2", dst], Pooled(1))

    def test_absorb_exception_names_the_delivery(self):
        class Broken(Node):
            def absorb(self, msg):
                raise KeyError("boom")

        sim = Simulator(0)
        sim.add_node(Node("src", 1))
        sim.add_node(Broken("bad", 1))
        sim.set_timer("src", 1.0, "x")
        sim.send("src", "bad", Pooled(1))
        (due, seq, _msg), = sim._inbox["bad"]
        with pytest.raises(RuntimeError, match=rf"invariant breach at event #{seq} "
                                               rf"\(t={due:.3f} ms, msg -> bad\): 'boom'"):
            sim.run_until(1_000)
