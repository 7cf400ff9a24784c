"""End-to-end protocol sessions: happy path, delegation checks, failover,
contract races, cross-domain verification, and conservation."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from fedledger.chain import Checkpoint
from fedledger.contract import BrokerInfo
from fedledger.crypto import sha256
from fedledger.eventlog import replay_log
from fedledger.nodes import CommitNotice, InterSubmit, InterSubmitAck
from fedledger import protocol, runner
from fedledger.powchain import FEE, M_CONFIG_PUB, M_CONFIG_SUB, M_TRANSFER, ChainState, signed_inter_tx
from fedledger.protocol import (
    MAX_CONFIG_RETRIES,
    CrossVerifyReq,
    DelegationAck,
    DelegationDeny,
    DelegationReq,
    Phase,
    PhaseDone,
    PhaseReq,
    Ping,
    ReplaceReq,
    SessionFail,
)
from fedledger.runner import build, finalize, run
from fedledger.scenario import (
    DomainSpec,
    InterSpec,
    ProtocolSpec,
    Scenario,
    ValidationError,
    WorkloadSpec,
)
from fedledger.sim import Node


def fast_session_scenario(seed=7, sessions=1, contracts=3, delegates=2, faults=None, **kw):
    return Scenario(
        name="proto", seed=seed, duration_ms=kw.pop("duration_ms", 180_000),
        domains=[DomainSpec(zone_id=1, validators=4, delegates=delegates),
                 DomainSpec(zone_id=2, validators=4, delegates=delegates)],
        inter=InterSpec(miners=3, mean_block_interval_ms=800, confirmation_depth=2,
                        contracts=contracts),
        workload=WorkloadSpec(sessions=sessions, deposit_units=10_000,
                              payload_bytes=256, **kw),
        protocol=ProtocolSpec(op_timeout_ms=25_000),
        faults=faults or [],
    )


def outcomes(report):
    return {(s["sid"], s["side"]): s["outcome"] for s in report.sessions}


class TestHappyPath:
    def test_session_settles_both_sides(self):
        report, h = run(fast_session_scenario())
        assert outcomes(report) == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}
        assert report.safety_violations == 0
        assert report.conservation_delta == 0

    def test_phase_monotonicity_in_event_log(self):
        report, h = run(fast_session_scenario())
        per_actor: dict = {}
        for e in h.log.events:
            if e["kind"] == "session" and e.get("event") == "phase":
                seq = per_actor.setdefault((e["sid"], e["side"]), [])
                seq.append((e["at"], e["phase"]))
        for key, seq in per_actor.items():
            phases = [p for _, p in seq]
            ranks = [Phase(p).rank for p in phases]
            assert ranks == sorted(ranks), key
            assert "FAILED" not in phases

    def test_report_phases_are_the_client_phase_times(self):
        report, h = run(fast_session_scenario())
        logged: dict = {}
        for e in h.log.events:
            if e["kind"] == "session" and e.get("event") == "phase":
                logged.setdefault((e["sid"], e["side"]), {})[e["phase"]] = e["at"]
        assert len(report.sessions) == 2
        for s in report.sessions:
            client = h.clients[(s["sid"], s["side"])]
            assert s["phases"] == {p: round(t / 1000.0, 6) for p, t in client.phase_times.items()}
            assert list(s["phases"]) == list(logged[(s["sid"], s["side"])])
            assert "SETTLED" in s["phases"]

    def test_seller_paid_on_intra_ledger(self):
        report, h = run(fast_session_scenario())
        seller = h.clients[(1, "pub")]
        cid = seller.contract_id
        book = h.validators[1][0].core.book
        payments = [t for t in replay_log(h.log.events).transfers
                    if t["to"] == seller.key.address.hex() and t["memo"] == cid]
        assert [(t["zone"], t["amount"]) for t in payments] == [(1, 10_000)]
        assert (seller.key.address, cid) in book.paid
        assert book.balance(seller.key.address) == 100_000 + 10_000

    def test_escrow_released_exactly_once(self):
        report, h = run(fast_session_scenario())
        st = h.miners[0].inter.tip_state()
        cid = h.clients[(1, "pub")].contract_id
        info = st.contracts[cid]
        assert info.broker_status.name == "PAID" and info.escrow == 0
        inter = h.miners[0].inter
        settles = {tx.digest() for bd in inter.canonical[1:] for tx in inter.blocks[bd].txs
                   if tx.method == "settle_payment"
                   and inter.canonical_receipts[tx.digest()][1] == "ok"}
        assert len(settles) == 1


SID = (1).to_bytes(8, "big")
CP = Checkpoint(2, b"\x11" * 32, 3, b"\x22" * 32)
CP_BYTES = (2).to_bytes(4, "big") + b"\x11" * 32 + (3).to_bytes(8, "big") + b"\x22" * 32

# Messages and their exact wire bytes. A reply goes to the message's
# sender, so no return address is on the wire.
GOLDEN_WIRE = [
    (PhaseReq(1, Phase.CONFIGURED), b"preq" + SID + b"configure"),
    (PhaseReq(1, Phase.COMMITTED), b"preq" + SID + b"commit"),
    (PhaseDone(1, Phase.SETTLED, 5), b"pdon" + SID + b"settle" + (5).to_bytes(8, "big")),
    (DelegationReq(1, "pub", 1, b"\xaa" * 20, CP, b"\x33" * 32, 10_000),
     b"dreq" + SID + b"pub" + (1).to_bytes(4, "big") + b"\xaa" * 20 + CP_BYTES
     + b"\x33" * 32 + (10_000).to_bytes(8, "big")),
    (ReplaceReq(4, "sub", b"\xaa" * 20, b"\xbb" * 20),
     b"rreq" + (4).to_bytes(8, "big") + b"sub" + b"\xaa" * 20 + b"\xbb" * 20),
    (Ping(1, 7), b"ping" + SID + (7).to_bytes(8, "big")),
    (CrossVerifyReq(2, CP), b"xvq" + (2).to_bytes(8, "big") + CP_BYTES),
    (CommitNotice(5, b"\x22" * 32, b"\x44" * 32), b"notice" + b"\x22" * 32 + b"\x44" * 32),
]


class TestPhaseMessages:
    def test_phase_messages_put_the_step_word_on_the_wire(self):
        for msg, wire in GOLDEN_WIRE:
            assert msg.wire_bytes() == wire, msg

    def test_phases_rank_in_ladder_order_and_equal_their_logged_names(self):
        ladder = ["IDLE", "DELEGATED", "CONFIGURED", "COMMITTED", "SETTLED", "FAILED"]
        assert [p.rank for p in map(Phase, ladder)] == list(range(6))
        assert all(Phase(name) == name and f"{Phase(name)}" == name for name in ladder)


class TestDelegationChecks:
    def _handles_after_commit(self):
        scn = fast_session_scenario()
        report, h = run(scn)
        return h

    def test_forged_checkpoint_denied(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        seller = h.clients[(1, "pub")]
        cp = seller.checkpoint
        forged = replace(cp, tx_ref=bytes([cp.tx_ref[0] ^ 1]) + cp.tx_ref[1:])
        req = DelegationReq(99, "pub", 1, seller.key.address, forged, seller.service, 0)
        assert dlg._verify_request(req) == "BadCheckpoint"

    def test_unknown_requester_denied(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        stranger = h.keyring.new_account()
        cp = h.clients[(1, "pub")].checkpoint
        req = DelegationReq(99, "pub", 1, stranger.address, cp, b"\x00" * 32, 0)
        assert dlg._verify_request(req) == "UnknownIdentity"

    def test_cross_zone_requester_denied(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        buyer = h.clients[(1, "sub")]  # zone-2 member
        req = DelegationReq(99, "sub", 2, buyer.key.address, buyer.checkpoint, buyer.service, 0)
        assert dlg._verify_request(req) == "UnknownIdentity"

    def test_valid_request_acked(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        seller = h.clients[(1, "pub")]
        req = DelegationReq(99, "pub", 1, seller.key.address, seller.checkpoint,
                            seller.service, 0)
        assert dlg._verify_request(req) is None


class TestFailover:
    def test_failover_at_each_stage(self):
        for crash_at in (1_000, 5_000, 30_000):
            scn = fast_session_scenario(
                seed=13, delegates=3,
                faults=[{"at_ms": crash_at, "fault": "crash", "node": "dlg:1:0"}],
            )
            report, h = run(scn)
            assert outcomes(report)[(1, "pub")] == "SETTLED", crash_at
            assert report.conservation_delta == 0
            assert report.safety_violations == 0

    def test_all_delegates_down_fails_with_no_delegates(self):
        scn = fast_session_scenario(
            seed=14, delegates=2, duration_ms=240_000,
            faults=[{"at_ms": 500, "fault": "crash", "node": "dlg:1:0"},
                    {"at_ms": 500, "fault": "crash", "node": "dlg:1:1"}],
        )
        report, h = run(scn)
        assert outcomes(report)[(1, "pub")] == "FAILED:NoDelegates"

    def test_intra_timeout_when_validators_down(self):
        scn = fast_session_scenario(
            seed=15, duration_ms=60_000,
            faults=[{"at_ms": 0, "fault": "crash", "node": f"val:1:{i}"} for i in range(4)],
        )
        report, h = run(scn)
        assert outcomes(report)[(1, "pub")] == "FAILED:IntraTimeout"


class TestContractRace:
    def test_two_sessions_one_contract_exactly_one_wins(self):
        # Both sessions target the single deployed contract concurrently;
        # the loser must fail with NoContract, the winner settles.
        scn = fast_session_scenario(seed=21, sessions=2, contracts=1,
                                    duration_ms=300_000)
        report, h = run(scn)
        out = outcomes(report)
        settled = [sid for sid in (1, 2) if out[(sid, "pub")] == "SETTLED"]
        failed = [sid for sid in (1, 2) if out[(sid, "pub")].startswith("FAILED")]
        assert len(settled) == 1 and len(failed) == 1, out
        assert "NoContract" in out[(failed[0], "pub")]
        assert report.conservation_delta == 0

    def test_deposit_exceeding_delegate_funds_fails(self, monkeypatch):
        scn = fast_session_scenario(seed=22)
        monkeypatch.setattr(runner, "DELEGATE_INTER_UNITS", 5_000)  # below the 10k deposit
        report, h = run(scn)
        out = outcomes(report)
        assert out[(1, "sub")] == "FAILED:InsufficientFunds"
        assert report.conservation_delta == 0

    def test_zero_deposit_rejected_before_the_run(self):
        # Accepted, the buyer ended FAILED:NoContract (configure_subscriber
        # refuses an empty escrow) and the seller sat in CONFIGURED.
        scn = fast_session_scenario(seed=7)
        scn.workload.deposit_units = 0
        with pytest.raises(ValidationError, match=r"workload\.deposit_tokens"):
            run(scn)

    def test_same_zone_pair_rejected_before_the_run(self):
        # Accepted, both sides shared one broker session (sessions are keyed
        # by id) and hung in DELEGATED and CONFIGURED with no violation.
        with pytest.raises(ValidationError, match=r"workload pair \(1,1\)"):
            run(fast_session_scenario(seed=7, pairs=[[1, 1]]))


class TestSessionPairs:
    def test_default_pairs_chain_the_domains(self):
        # Without workload.pairs each domain pairs with the next, and
        # sessions take the pairs round-robin.
        scn = fast_session_scenario(sessions=3)
        scn.domains.append(DomainSpec(zone_id=3, validators=4, delegates=2))
        h = build(scn)
        zones = [(h.clients[(sid, "pub")].cfg.zone_id, h.clients[(sid, "sub")].cfg.zone_id)
                 for sid in (1, 2, 3)]
        assert zones == [(1, 2), (2, 3), (1, 2)]


class Probe(Node):
    """A zone-1 node that records every message it receives as (time, src, msg)."""

    def __init__(self, node_id="probe"):
        super().__init__(node_id, 1)
        self.received = []

    def on_message(self, sim, src, msg):
        self.received.append((sim.now, src, msg))


class TestCrossVerify:
    def test_recorded_vs_unknown_vs_mutated(self):
        scn = fast_session_scenario(seed=23)
        report, h = run(scn)
        sim = h.sim
        probe = sim.add_node(Probe())
        # A checkpoint actually recorded on the inter ledger (the buyer's,
        # queried from the seller's zone: cross-domain verification).
        recorded = h.clients[(1, "sub")].checkpoint
        dlg = h.delegates[1][0]
        sim.send("probe", dlg.node_id, CrossVerifyReq(1, recorded))
        never = Checkpoint(2, b"\x11" * 32, 3, b"\x22" * 32)
        sim.send("probe", dlg.node_id, CrossVerifyReq(2, never))
        mutated = replace(recorded, ledger_head=bytes([recorded.ledger_head[0] ^ 1])
                          + recorded.ledger_head[1:])
        sim.send("probe", dlg.node_id, CrossVerifyReq(3, mutated))
        sim.run_until(sim.now + 10_000)
        got = {m.query_id: m.found for _t, _src, m in probe.received}
        assert got == {1: True, 2: False, 3: False}


class TestConservationOracle:
    def test_ledger_sum_matches_event_log_replay(self):
        scn = fast_session_scenario(seed=31, sessions=2, contracts=4)
        report, h = run(scn)
        from fedledger.eventlog import check_conservation, replay_log
        delta, violations = check_conservation(replay_log(h.log.events))
        assert delta == 0 and not violations
        assert report.conservation_delta == 0


class TestCommitmentGate:
    def test_unready_buyer_stalls_seller_at_configured(self):
        # Only the seller reaches readiness; the buyer never signals, so
        # the contract must sit at CONFIGURED with escrow intact and no
        # payment anywhere.
        from fedledger.runner import build
        scn = fast_session_scenario(seed=33, duration_ms=120_000)
        h = build(scn)
        h.clients[(1, "sub")].cfg.deliver_after_ms = 10 ** 9  # never ready
        for node in list(h.sim.nodes.values()):
            start = getattr(node, "start", None)
            if start is not None:
                start(h.sim)
        h.sim.run_until(scn.duration_ms)
        seller = h.clients[(1, "pub")]
        buyer = h.clients[(1, "sub")]
        assert seller.phase == "CONFIGURED"
        assert buyer.phase == "CONFIGURED"
        st = h.miners[0].inter.tip_state()
        info = st.contracts[seller.contract_id]
        assert info.broker_status.name == "CONFIGURED"
        assert info.pub_committed and not info.sub_committed
        assert info.escrow == 10_000  # deposit locked, never paid out
        book = h.validators[1][0].core.book
        assert not any(memo for _to, memo in book.paid)  # no contract payment memo


# -- broker paths the scenario suites do not reach ----------------------------------------
#
# Each test runs a real harness and intervenes from outside: it records
# every message sent, injects messages from a probe node, or stands in for
# one broker's view of the inter-ledger. Assertions are on messages sent
# and on session outcomes.

def started(scn, before_start=None):
    """A built harness with every node started and every message sent
    recorded as (time, src, dst, msg), one entry per destination. Every
    send, unicast or fan-out, goes through ``Simulator.multicast``."""
    h = build(scn)
    if before_start is not None:
        before_start(h)
    sent = []
    multicast = h.sim.multicast

    def recording_multicast(src, dsts, msg):
        sent.extend((h.sim.now, src, dst, msg) for dst in dsts)
        multicast(src, dsts, msg)

    h.sim.multicast = recording_multicast
    for node in list(h.sim.nodes.values()):
        start = getattr(node, "start", None)
        if start is not None:
            start(h.sim)
    return h, sent


def run_while(h, cond, step_ms=50.0):
    t = h.sim.now
    while cond():
        assert t < h.scenario.duration_ms, "condition never changed"
        t += step_ms
        h.sim.run_until(t)


def finish(h):
    h.sim.run_until(h.scenario.duration_ms)
    return outcomes(finalize(h))


def submits_from(sent, node_id, method):
    """Distinct inter-ledger txs ``node_id`` submitted with ``method``, in order."""
    txs = {}
    for _t, src, _dst, m in sent:
        if src == node_id and isinstance(m, InterSubmit) and m.tx.method == method:
            txs.setdefault(m.tx.digest(), m.tx)
    return list(txs.values())


class FailingInterView:
    """A broker's view of the inter-ledger in which every tx it submits
    fails on chain, and the record the tx targeted is taken by another
    subscriber meanwhile."""

    def __init__(self, real, contracts):
        self.confirmed_height = 100  # every receipt it hands out (height 1) is confirmed
        self.state = ChainState(dict(real.tip_state().balances), contracts)
        self.canonical_receipts = {}

    def fail(self, tx):
        if tx.digest() in self.canonical_receipts:
            return
        self.canonical_receipts[tx.digest()] = (1, "InvalidState")
        info = self.state.contracts[tx.contract_id]
        self.state.contracts[tx.contract_id] = replace(
            info, subscriber_id=b"\x01" * 20, sub_status=1, sub_service=b"\x02" * 32)

    def tip_state(self):
        return self.state

    def confirmed_state(self):
        return self.state

    def on_block(self, block):
        return SimpleNamespace(tip_changed=True)


class TestBrokerPaths:
    def test_split_session_publisher_abandons_its_half_and_rejoins(self):
        # The seller's broker binds the publisher side of one record; the
        # buyer's side then appears on a later record. The publisher (which
        # holds no escrow) abandons its half, skips it from then on, and
        # both sides settle on the later record.
        def late_buyer(h):
            h.clients[(1, "sub")].cfg.start_ms = 30_000.0
        h, sent = started(fast_session_scenario(seed=51, contracts=6), late_buyer)
        probe = h.sim.add_node(Probe())
        seller = h.clients[(1, "pub")]
        miner = h.miners[0].inter

        def pub_record():
            for cid, info in sorted(miner.tip_state().contracts.items()):
                if info.pub_status == 1 and info.pub_service == seller.service:
                    return cid
            return None
        run_while(h, lambda: pub_record() is None)
        first = pub_record()
        later = max(miner.tip_state().contracts)
        assert first < later
        dlg2 = h.delegates[2][0]
        tx = signed_inter_tx(dlg2.key, later, M_CONFIG_SUB, args=seller.service,
                             attached=10_000, fee=FEE,
                             checkpoint=Checkpoint(2, b"\x11" * 32, 1, b"\x22" * 32))
        for m in h.miners:
            h.sim.send(probe.node_id, m.node_id, InterSubmit(tx))
        out = finish(h)

        configs = submits_from(sent, "dlg:1:0", M_CONFIG_PUB)
        assert [t.contract_id for t in configs] == [first, later]
        assert out == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}
        paid = [t for t in replay_log(h.log.events).transfers
                if t["to"] == seller.key.address.hex() and t["memo"]]
        assert [(t["amount"], t["memo"]) for t in paid] == [(10_000, later)]
        assert (seller.key.address, later) in h.validators[1][0].core.book.paid

    def test_config_retries_exhausted_fails_with_no_contract(self):
        # Every configure the seller's broker submits fails on chain and its
        # record is taken meanwhile, so each retry picks a fresh record.
        # After MAX_CONFIG_RETRIES failed configures it gives up, although
        # unused records remain.
        contracts = {cid: BrokerInfo(contract_id=cid, admin=bytes(20), delegation_list=())
                     for cid in range(1, 41)}
        h, sent = started(fast_session_scenario(seed=52))
        dlg = h.delegates[1][0]
        view = FailingInterView(dlg.inter, contracts)
        dlg.inter = view
        forward = h.sim.multicast

        def intercept(src, dsts, msg):
            if src == dlg.node_id and isinstance(msg, InterSubmit):
                sent.extend((h.sim.now, src, dst, msg) for dst in dsts)
                view.fail(msg.tx)
                return
            forward(src, dsts, msg)
        h.sim.multicast = intercept
        out = finish(h)

        configs = submits_from(sent, "dlg:1:0", M_CONFIG_PUB)
        assert len(configs) == MAX_CONFIG_RETRIES + 1
        assert len({t.contract_id for t in configs}) == len(configs)
        assert any(info.is_unused() for info in view.state.contracts.values())
        fails = [(dst, m.session_id, m.reason) for _t, src, dst, m in sent
                 if src == "dlg:1:0" and isinstance(m, SessionFail)]
        assert fails == [("seller:1", 1, "NoContract")]
        assert out[(1, "pub")] == "FAILED:NoContract"

    def test_tx_rejected_by_every_miner_fails_the_session_with_that_reason(self, monkeypatch):
        def wrong_fee(h):
            # dlg:1:0 signs every tx with one unit too many: every miner refuses it, BadFee.
            key = h.delegates[1][0].key

            def sign(k, *args, fee, **kw):
                return signed_inter_tx(k, *args, fee=fee + (k is key), **kw)
            monkeypatch.setattr(protocol, "signed_inter_tx", sign)
        h, sent = started(fast_session_scenario(seed=53), wrong_fee)
        out = finish(h)
        refusals = [m.reason for _t, src, dst, m in sent
                    if dst == "dlg:1:0" and isinstance(m, InterSubmitAck) and not m.accepted]
        assert refusals == ["BadFee"] * 3
        fails = [(dst, m.session_id, m.reason) for _t, src, dst, m in sent
                 if isinstance(m, SessionFail)]
        assert fails == [("seller:1", 1, "BadFee")]
        assert out[(1, "pub")] == "FAILED:BadFee"

    def test_tx_rejected_as_duplicate_does_not_fail_the_session(self):
        # The probe submits the seller broker's first configure before the
        # broker does, so every miner refuses the broker's copy as a
        # duplicate; the tx still lands and the session settles.
        h, sent = started(fast_session_scenario(seed=54, contracts=4))
        probe = h.sim.add_node(Probe())
        seller = h.clients[(1, "pub")]
        run_while(h, lambda: seller.checkpoint is None, step_ms=10.0)
        dlg = h.delegates[1][0]
        target = min(range(1, 5), key=lambda cid: sha256(seller.service + cid.to_bytes(8, "big")))
        tx = signed_inter_tx(dlg.key, target, M_CONFIG_PUB, args=seller.service,
                             fee=FEE, checkpoint=seller.checkpoint)
        for m in h.miners:
            h.sim.send(probe.node_id, m.node_id, InterSubmit(tx))
        out = finish(h)
        assert [t.digest() for t in submits_from(sent, "dlg:1:0", M_CONFIG_PUB)] == [tx.digest()]
        acks = [m.reason for _t, src, dst, m in sent
                if dst == "dlg:1:0" and isinstance(m, InterSubmitAck) and m.tx_digest == tx.digest()]
        assert acks == ["Duplicate"] * 3
        assert not any(isinstance(m, SessionFail) for _t, _s, _d, m in sent)
        assert out == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}

    def test_delegation_deny_fails_the_client_with_its_reason(self):
        def unregister_seller(h):
            h.delegates[1][0].registry.discard(h.clients[(1, "pub")].key.address)
        h, sent = started(fast_session_scenario(seed=55), unregister_seller)
        out = finish(h)
        denies = [(src, dst, m.reason) for _t, src, dst, m in sent if isinstance(m, DelegationDeny)]
        assert denies == [("dlg:1:0", "seller:1", "UnknownIdentity")]
        assert sum(1 for _t, src, _d, m in sent
                   if src == "seller:1" and isinstance(m, DelegationReq)) == 1
        assert out[(1, "pub")] == "FAILED:UnknownIdentity"

    def test_redelegation_moves_the_session_reply_target(self):
        # A second delegation for a session the broker already serves
        # redirects every later report to the new requester node.
        h, sent = started(fast_session_scenario(seed=56))
        probe = h.sim.add_node(Probe())
        seller = h.clients[(1, "pub")]
        run_while(h, lambda: seller.phase != "CONFIGURED")
        moved_at = h.sim.now
        h.sim.send(probe.node_id, "dlg:1:0", DelegationReq(
            1, "pub", 1, seller.key.address, seller.checkpoint, seller.service, 10_000))
        out = finish(h)
        assert [type(m) for _t, _s, m in probe.received][:1] == [DelegationAck]
        later = [dst for t, src, dst, m in sent
                 if src == "dlg:1:0" and isinstance(m, PhaseDone) and t > moved_at]
        assert later and set(later) == {probe.node_id}
        assert out[(1, "pub")] == "CONFIGURED"
        assert out[(1, "sub")] == "SETTLED"

    def test_lagging_broker_holds_a_delegation_until_its_replica_catches_up(self):
        # A delegation whose checkpoint is two heights above the broker's
        # replica waits through the DECISION one height short, then is
        # checked (and here denied: the checkpoint is forged).
        h, sent = started(fast_session_scenario(seed=57))
        probe = h.sim.add_node(Probe())
        dlg = h.delegates[1][0]
        run_while(h, lambda: dlg.follower.ledger.height < 2)
        target = dlg.follower.ledger.height + 2
        seen = []  # (replica height, denied yet) after each message the broker handles
        deliver = dlg.on_message

        def watch(sim, src, msg):
            deliver(sim, src, msg)
            seen.append((dlg.follower.ledger.height,
                         any(isinstance(m, DelegationDeny) for _t, _s, _d, m in sent)))
        dlg.on_message = watch
        seller = h.clients[(1, "pub")]
        forged = Checkpoint(1, b"\x11" * 32, target, b"\x22" * 32)
        h.sim.send(probe.node_id, dlg.node_id, DelegationReq(
            7, "pub", 1, seller.key.address, forged, b"\x00" * 32, 0))
        run_while(h, lambda: not probe.received)
        assert [(src, type(m), m.reason) for _t, src, m in probe.received] == [
            (dlg.node_id, DelegationDeny, "BadCheckpoint")]
        assert (target - 1, False) in seen  # held across the DECISION one short
        assert next(height for height, denied in seen if denied) == target


class TestClientGoal:
    def test_late_deliver_timer_keeps_the_goal_at_settled(self):
        # Each PhaseDone(CONFIGURED) arms a deliver timer, one per broker
        # after a failover, so one may fire after SETTLED was requested.
        h, _sent = started(fast_session_scenario())
        seller = h.clients[(1, "pub")]
        run_while(h, lambda: seller.goal != Phase.SETTLED)
        seller.on_timer(h.sim, ("deliver", 0))
        assert seller.goal == Phase.SETTLED
        assert finish(h) == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}


class TestLightClient:
    def test_commit_notices_count_only_from_the_committee(self):
        # Two zone-1 nodes outside the committee, f+1 of them, report the
        # seller's request tx committed at height 5 under a block of their
        # own making. Counted, they had the seller delegate a checkpoint no
        # broker could verify, and the seller ended FAILED:NoDelegates.
        h, _sent = started(fast_session_scenario(seed=7))
        seller = h.clients[(1, "pub")]
        run_while(h, lambda: seller._req_tx is None, step_ms=1.0)
        forged = CommitNotice(5, b"\x22" * 32, seller._req_tx.digest())
        for name in ("probe:0", "probe:1"):
            h.sim.send(h.sim.add_node(Probe(name)).node_id, seller.node_id, forged)
        assert finish(h) == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}
        assert seller.checkpoint.ledger_head != b"\x22" * 32


class TestUndecodableCall:
    def test_transfer_without_an_address_fails_on_chain(self):
        # A signed transfer whose 2-byte args hold no address. Decoding it
        # aborted the run ("truncated encoding"); it fails on chain like
        # any failed call instead, and the log replay refunds it too.
        h, _sent = started(fast_session_scenario(seed=7))
        probe = h.sim.add_node(Probe())
        tx = signed_inter_tx(h.admin.key, 0, M_TRANSFER, args=b"\x01\x02", attached=500,
                             fee=FEE)
        for m in h.miners:
            h.sim.send(probe.node_id, m.node_id, InterSubmit(tx))
        h.sim.run_until(h.scenario.duration_ms)
        report = finalize(h)
        assert outcomes(report) == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}
        assert report.safety_violations == 0 and report.conservation_delta == 0
        observer = h.miners[0].inter
        assert observer.canonical_receipts[tx.digest()][1] == "BadArgs"
        replayed = replay_log(h.log.events).inter_balances
        live = {a.hex(): v for a, v in observer.tip_state().balances.items()}
        assert {a: v for a, v in replayed.items() if v} == {a: v for a, v in live.items() if v}
