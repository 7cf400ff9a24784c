"""End-to-end protocol sessions: happy path, delegation checks, failover,
contract races, and conservation."""

import functools
import itertools
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from fedledger.chain import Block, Checkpoint, PowSeal
from fedledger.contract import BrokerInfo, Side
from fedledger.crypto import sha256
from fedledger.eventlog import replay_log
from fedledger.nodes import BlockMsg, CommitNotice, InterSubmit, InterSubmitAck
from fedledger import protocol, runner
from fedledger.powchain import (FEE, M_COMMIT, M_CONFIG_PUB, M_CONFIG_SUB, M_REPLACE, M_TRANSFER, ChainState,
                               InterNode, InterTx, signed_inter_tx)
from fedledger.protocol import (
    MAX_CONFIG_RETRIES,
    DelegationReq,
    Phase,
    PhaseDone,
    ReplaceDone,
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
    load_scenario,
)
from fedledger.sim import Node

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
            if e.kind == "session" and e.fields["event"] == "phase":
                seq = per_actor.setdefault((e.fields["sid"], e.fields["side"]), [])
                seq.append((e.fields["at"], e.fields["phase"]))
        for key, seq in per_actor.items():
            phases = [p for _, p in seq]
            ranks = [Phase(p).rank for p in phases]
            assert ranks == sorted(ranks), key
            assert "FAILED" not in phases

    def test_report_phases_are_the_client_phase_times(self):
        report, h = run(fast_session_scenario())
        logged: dict = {}
        for e in h.log.events:
            if e.kind == "session" and e.fields["event"] == "phase":
                logged.setdefault((e.fields["sid"], e.fields["side"]), {})[e.fields["phase"]] = e.fields["at"]
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
        payments = [(zone, t) for zone, t in replay_log(h.log.events).transfers
                    if t.to == seller.key.address and t.memo == cid]
        assert [(zone, t.amount) for zone, t in payments] == [(1, 10_000)]
        assert (seller.key.address, cid) in book.paid
        assert book.balances[seller.key.address] == 100_000 + 10_000

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


TX = InterTx(b"\xaa" * 20, 4, M_COMMIT, b"", 0, FEE, None, b"\x55" * 64)
TX_BYTES = (b"\xaa" * 20 + (4).to_bytes(8, "big") + len(M_COMMIT).to_bytes(4, "big") + M_COMMIT.encode()
            + (0).to_bytes(4, "big") + (0).to_bytes(8, "big") + FEE.to_bytes(8, "big") + b"\x00"
            + (64).to_bytes(4, "big") + b"\x55" * 64)
POW_ESSENCE = b"pow" + b"\xcc" * 20 + (9).to_bytes(8, "big") + b"\xff" * 32
BLOCK = Block(b"\x22" * 32, 7, 1_500, PowSeal(b"\xcc" * 20, 9, 2 ** 256 - 1), (TX,))

# Messages and their exact wire bytes. A reply goes to the message's
# sender, so no return address is on the wire.
GOLDEN_WIRE = [
    (ReplaceReq(4, "sub", b"\xaa" * 20, b"\xbb" * 20),
     b"rreq" + (4).to_bytes(8, "big") + b"sub" + b"\xaa" * 20 + b"\xbb" * 20),
    (ReplaceDone(4, b"\x00" * 20, b"\xbb" * 20, True),
     b"rdon" + (4).to_bytes(8, "big") + b"\x00" * 20 + b"\xbb" * 20 + b"\x01"),
    (ReplaceDone(4, b"\xaa" * 20, b"\xbb" * 20, False),
     b"rdon" + (4).to_bytes(8, "big") + b"\xaa" * 20 + b"\xbb" * 20 + b"\x00"),
    (InterSubmit(TX), b"intersub" + TX_BYTES),
    (InterSubmitAck(b"\x44" * 32, True), b"interack" + b"\x44" * 32 + b"\x01"),
    (InterSubmitAck(b"\x44" * 32, False, "Duplicate"), b"interack" + b"\x44" * 32 + b"\x00" + b"Duplicate"),
    (BlockMsg(BLOCK),
     b"\x22" * 32 + (7).to_bytes(8, "big") + sha256(sha256(TX_BYTES)) + (1_500).to_bytes(8, "big")
     + POW_ESSENCE + POW_ESSENCE  # in the header, then again as the seal body
     + (1).to_bytes(4, "big") + len(TX_BYTES).to_bytes(4, "big") + TX_BYTES),
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
        buyer = h.clients[(1, "sub")]
        on_timer = buyer.on_timer

        def never_ready(sim, key):
            if key[0] != "deliver":
                on_timer(sim, key)
        buyer.on_timer = never_ready
        for node in list(h.sim.nodes.values()):
            start = getattr(node, "start", None)
            if start is not None:
                start(h.sim)
        h.sim.run_until(scn.duration_ms)
        seller = h.clients[(1, "pub")]
        assert seller.phase == "CONFIGURED"
        assert buyer.phase == "CONFIGURED"
        st = h.miners[0].inter.tip_state()
        info = st.contracts[seller.contract_id]
        assert info.broker_status.name == "CONFIGURED"
        assert info.pub.committed and not info.sub.committed
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
    recorded as (time, src, dst, msg), one entry per destination. A
    unicast goes through ``Simulator.send`` and a fan-out through
    ``Simulator.multicast``; both are recorded."""
    h = build(scn)
    if before_start is not None:
        before_start(h)
    sent = []
    send, multicast = h.sim.send, h.sim.multicast

    def recording_send(src, dst, msg):
        sent.append((h.sim.now, src, dst, msg))
        send(src, dst, msg)

    def recording_multicast(src, dsts, msg):
        sent.extend((h.sim.now, src, dst, msg) for dst in dsts)
        multicast(src, dsts, msg)

    h.sim.send, h.sim.multicast = recording_send, recording_multicast
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
        self.state = ChainState(dict(real.tip_state().balances), contracts)
        self.receipts = {}  # every receipt it hands out is confirmed

    def fail(self, tx):
        if tx.digest() in self.receipts:
            return
        self.receipts[tx.digest()] = "InvalidState"
        info = self.state.contracts[tx.contract_id]
        self.state.contracts[tx.contract_id] = replace(
            info, sub=Side(delegate=b"\x01" * 20, status=1, service=b"\x02" * 32))

    def confirmed_receipt(self, tx_digest):
        return self.receipts.get(tx_digest)

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
                if info.pub.status == 1 and info.pub.service == seller.service:
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
        paid = [t for _zone, t in replay_log(h.log.events).transfers
                if t.to == seller.key.address and t.memo]
        assert [(t.amount, t.memo) for t in paid] == [(10_000, later)]
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
        forward_send, forward_multicast = h.sim.send, h.sim.multicast

        def dropped(src, dsts, msg):
            # Records and fails the broker's submissions instead of sending them.
            if src == dlg.node_id and isinstance(msg, InterSubmit):
                sent.extend((h.sim.now, src, dst, msg) for dst in dsts)
                view.fail(msg.tx)
                return True
            return False

        def intercept_send(src, dst, msg):
            if not dropped(src, (dst,), msg):
                forward_send(src, dst, msg)

        def intercept_multicast(src, dsts, msg):
            if not dropped(src, dsts, msg):
                forward_multicast(src, dsts, msg)
        h.sim.send, h.sim.multicast = intercept_send, intercept_multicast
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
        denies = [(src, dst, m.reason) for _t, src, dst, m in sent if isinstance(m, SessionFail)]
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
        assert [m for _t, _s, m in probe.received][:1] == [PhaseDone(1, Phase.DELEGATED)]
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
                         any(isinstance(m, SessionFail) and m.session_id == 7
                             for _t, _s, _d, m in sent)))
        dlg.on_message = watch
        seller = h.clients[(1, "pub")]
        forged = Checkpoint(1, b"\x11" * 32, target, b"\x22" * 32)
        h.sim.send(probe.node_id, dlg.node_id, DelegationReq(
            7, "pub", 1, seller.key.address, forged, b"\x00" * 32, 0))
        run_while(h, lambda: not probe.received)
        assert [(src, type(m), m.reason) for _t, src, m in probe.received] == [
            (dlg.node_id, SessionFail, "BadCheckpoint")]
        assert (target - 1, False) in seen  # held across the DECISION one short
        assert next(height for height, denied in seen if denied) == target

    def test_admin_refuses_a_rebind_that_is_not_a_forward_step(self):
        # The contract rebinds only to the next entry of the delegation
        # list, so a request to move the buyer's binding back to an earlier
        # entry is answered at once with ok=False and nothing is submitted.
        h, sent = started(fast_session_scenario(seed=58))
        probe = h.sim.add_node(Probe())
        buyer = h.clients[(1, "sub")]
        run_while(h, lambda: buyer.phase != "CONFIGURED")
        cid = buyer.contract_id
        cur, back = h.delegates[2][0].key.address, h.delegates[1][0].key.address
        lst = h.admin.inter.tip_state().contracts[cid].delegation_list
        assert lst.index(back) < lst.index(cur)
        h.sim.send(probe.node_id, h.admin.node_id, ReplaceReq(cid, "sub", cur, back))
        out = finish(h)
        assert [(src, m) for _t, src, m in probe.received] == [
            (h.admin.node_id, ReplaceDone(cid, cur, back, False))]
        assert submits_from(sent, h.admin.node_id, M_REPLACE) == []
        assert out == {(1, "pub"): "SETTLED", (1, "sub"): "SETTLED"}

    def test_admin_resubmits_a_rebind_that_every_miner_refused(self, monkeypatch):
        # failover.json's broker crash makes a successor ask for a rebind.
        # Every miner refuses the admin's first rebind tx, so it never gets
        # a receipt; the admin submits the step again with a fresh salt.
        refused = []
        submit_tx = InterNode.submit_tx

        def refuse_first_rebind(node, tx):
            if tx.method == M_REPLACE and refused in ([], [tx.digest()]):
                refused[:] = [tx.digest()]
                return False, "BadFee"
            return submit_tx(node, tx)
        monkeypatch.setattr(InterNode, "submit_tx", refuse_first_rebind)
        h, sent = started(load_scenario(str(SCENARIOS / "failover.json")))
        out = finish(h)
        rebinds = [t.digest() for t in submits_from(sent, h.admin.node_id, M_REPLACE)]
        assert len(rebinds) >= 2 and rebinds[0] == refused[0]
        assert set(out.values()) == {"SETTLED"} and len(out) == 4
        assert not h.admin._watches and not h.admin._step_sent


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


class TestCheckpointlessConfigure:
    def test_replay_refunds_a_configure_call_the_ledger_refused(self):
        # A delegate's configure_subscriber with 700 units attached and no
        # checkpoint fails on chain with InvalidState and is refunded. The
        # log replay must run the same rule: binding the delegate and
        # escrowing the deposit would leave contract 3 and the delegate's
        # balance differing from the chain's.
        h, _sent = started(fast_session_scenario(seed=7))
        probe = h.sim.add_node(Probe())
        tx = signed_inter_tx(h.delegates[2][1].key, 3, M_CONFIG_SUB, args=b"\x05" * 32,
                             attached=700, fee=FEE)
        for m in h.miners:
            h.sim.send(probe.node_id, m.node_id, InterSubmit(tx))
        h.sim.run_until(h.scenario.duration_ms)
        report = finalize(h)
        assert report.safety_violations == 0 and report.conservation_delta == 0
        observer = h.miners[0].inter
        assert observer.canonical_receipts[tx.digest()][1] == "InvalidState"
        replayed = replay_log(h.log.events)
        state = observer.tip_state()
        assert replayed.inter_balances == {a.hex(): v for a, v in state.balances.items()}
        assert replayed.contracts[3] == state.contracts[3]


# -- ROADMAP item 1's repros: sessions that never end ------------------------------------
#
# Both runs leave sellers of zone 1 hanging, and the checkers report no
# violation. The buyer side of one session fails with InsufficientFunds and
# its seller stays CONFIGURED; 99 sellers stay COMMITTED because dlg:1:0's
# zone account ran dry and the zone book refused their payouts. The
# digest pins record this behaviour; item 1's fix moves them on purpose.

def funding_repro():
    return Scenario(
        name="funding-repro", seed=7100, duration_ms=600_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=3),
                 DomainSpec(zone_id=2, validators=4, delegates=3)],
        inter=InterSpec(miners=3, mean_block_interval_ms=2500, confirmation_depth=4,
                        contracts=440),
        workload=WorkloadSpec(sessions=200, deposit_units=10_000, payload_bytes=64,
                              session_interval_ms=300),
        protocol=ProtocolSpec(op_timeout_ms=40_000),
        log_payloads=False,
    )


def strand_repro():
    return Scenario(
        name="strand-repro", seed=11, duration_ms=600_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=2),
                 DomainSpec(zone_id=2, validators=4, delegates=2)],
        inter=InterSpec(contracts=210),
        workload=WorkloadSpec(sessions=200, session_interval_ms=20),
    )


REPROS = {
    "funding": (funding_repro, "1fd382a8cdaf44a9574186d95058d46ee8973071e622f9b4a32495bee0ee306a"),
    "strand": (strand_repro, "3e196de2459fedbeaf95aa67cb65ab4cd676bc18112977ca1b6703fdeadfbcda"),
}


@functools.cache
def repro_run(name):
    return run(REPROS[name][0]())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sessions hang without a reason")
@pytest.mark.parametrize("name", sorted(REPROS))
def test_repro_every_side_terminates(name):
    report, _h = repro_run(name)
    hanging = [(s["sid"], s["side"], s["outcome"]) for s in report.sessions
               if s["outcome"] != "SETTLED" and not s["outcome"].startswith("FAILED:")]
    assert hanging == []


@pytest.mark.parametrize("name", sorted(REPROS))
def test_repro_digest_and_hanging_sessions(name):
    report, h = repro_run(name)
    assert report.event_log_digest == REPROS[name][1]
    assert report.violations == []
    ends = Counter((s["side"], s["outcome"]) for s in report.sessions)
    assert ends == {("pub", "SETTLED"): 100, ("sub", "SETTLED"): 199,
                    ("sub", "FAILED:InsufficientFunds"): 1,
                    ("pub", "COMMITTED"): 99, ("pub", "CONFIGURED"): 1}
    assert len(h.validators[1][0].core.book.failed) == 99  # refused payouts
    open_sessions = {d.node_id: [s for s in d.sessions.values()
                                 if s.reported not in (Phase.SETTLED, Phase.FAILED)]
                     for dlgs in h.delegates.values() for d in dlgs}
    assert {k: len(v) for k, v in open_sessions.items() if v} == {"dlg:1:0": 100}
    dlg = h.delegates[1][0]
    rows = Counter((protocol.match(protocol.Facts(dlg, s)).name, s.req.side, s.reported, s.goal)
                   for s in open_sessions["dlg:1:0"])
    assert rows == {("await-payout", "pub", Phase.COMMITTED, Phase.SETTLED): 99,
                    ("await-counterpart", "pub", Phase.CONFIGURED, Phase.COMMITTED): 1}


# -- the broker's table ------------------------------------------------------------------
#
# Every value each fact of protocol.Facts can take that a row reads; the
# derived facts (due, owed, rebind) are computed from these by Facts itself.

D, C, M, S, F = Phase.DELEGATED, Phase.CONFIGURED, Phase.COMMITTED, Phase.SETTLED, Phase.FAILED
FACT_VALUES = {
    "reported": (D, C, M, S, F),
    "goal": (D, C, M, S),
    "receipt": ("none", "pending", "ok", "failed"),
    "bound": ("none", "split", "tip"),
    "target": (False, True),
    "confirmed": (D, C, M, S),
    "tip": ("alone", "joined", "ours", "committed", "paid"),
    "holder": (False, True),
    "payout": ("none", "submitted", "paid"),
    "replacing": (False, True),
}
# The highest rung each tip value backs. The confirmed state is an
# ancestor of the tip, so it backs no more than the tip does. The ladders
# themselves encode that PAID implies committed implies configured.
TIP_BACKS = {"alone": C, "joined": C, "ours": C, "committed": M, "paid": S}
# The exits the protocol bounds.
BOUNDED_EXITS = {protocol.RECEIPT, protocol.DEPTH, protocol.REPLACED, protocol.CLIENT}
ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


def fact_combinations():
    for values in itertools.product(*FACT_VALUES.values()):
        facts = dict(zip(FACT_VALUES, values))
        if facts["confirmed"].rank <= TIP_BACKS[facts["tip"]].rank:
            yield facts


class TestBrokerTable:
    def test_exactly_one_row_holds_for_every_combination_of_facts(self):
        seen = 0
        for known in fact_combinations():
            facts = protocol.Facts(**known)
            rows = [row.name for row in protocol.ROWS
                    if all(facts[f] in allowed for f, allowed in row.when.items())]
            assert len(rows) == 1, (known, rows)
            assert protocol.match(facts).name == rows[0]
            seen += 1
        assert seen == 74_880
        assert len({row.name for row in protocol.ROWS}) == len(protocol.ROWS)

    @pytest.mark.parametrize("row", [
        pytest.param(row, id=row.name,
                     marks=ITEM_1 if row.name in ("await-payout", "await-counterpart") else ())
        for row in protocol.ROWS])
    def test_every_row_ends_acts_or_waits_for_a_bounded_exit(self, row):
        if row.name in ("failed", "settled"):
            assert row.action == () and row.exit is None  # terminal
        elif row.action:
            assert row.exit is None  # the action itself moves the session on
        else:
            assert row.exit in BOUNDED_EXITS

    def test_a_settled_session_is_not_evaluated_again(self, monkeypatch):
        # After both sides settle, the run goes on for 60 s of chain
        # updates. The brokers send nothing more, and neither evaluates the
        # settled session again.
        evaluated = []
        advance = protocol.DelegateNode._advance

        def recording_advance(node, sim, s):
            evaluated.append((sim.now, node.node_id, s.reported))
            advance(node, sim, s)
        monkeypatch.setattr(protocol.DelegateNode, "_advance", recording_advance)
        h, sent = started(fast_session_scenario())
        seller, buyer = h.clients[(1, "pub")], h.clients[(1, "sub")]
        run_while(h, lambda: seller.phase != S or buyer.phase != S)
        settled_at = h.sim.now
        assert settled_at + 60_000 <= h.scenario.duration_ms
        h.sim.run_until(settled_at + 60_000)
        brokers = {d.node_id for dlgs in h.delegates.values() for d in dlgs}
        assert [m for t, src, _d, m in sent if t > settled_at and src in brokers] == []
        assert [e for e in evaluated if e[0] > settled_at] == []
        assert {e[2] for e in evaluated} <= {D, C, M}
