"""End-to-end protocol sessions: happy path, delegation checks, failover,
contract races, cross-domain verification, and conservation."""

from dataclasses import replace

from fedledger.chain import Checkpoint
from fedledger.protocol import (
    PHASE_ORDER,
    CrossVerifyReq,
    CrossVerifyResp,
    DelegationReq,
)
from fedledger.runner import run
from fedledger.scenario import (
    DomainSpec,
    FundingSpec,
    InterSpec,
    ProtocolSpec,
    Scenario,
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
            ranks = [PHASE_ORDER[p] for p in phases if p in PHASE_ORDER]
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
        payments = [t for t in book.transfers if t[1] == seller.key.address and t[3] == cid]
        assert len(payments) == 1
        assert payments[0][2] == 10_000
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
        req = DelegationReq(99, "pub", 1, seller.key.address, forged,
                            seller.service, 0, "seller:1")
        assert dlg._verify_request(req) == "BadCheckpoint"

    def test_unknown_requester_denied(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        stranger = h.keyring.new_account()
        cp = h.clients[(1, "pub")].checkpoint
        req = DelegationReq(99, "pub", 1, stranger.address, cp, b"\x00" * 32, 0, "x")
        assert dlg._verify_request(req) == "UnknownIdentity"

    def test_cross_zone_requester_denied(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        buyer = h.clients[(1, "sub")]  # zone-2 member
        req = DelegationReq(99, "sub", 2, buyer.key.address,
                            buyer.checkpoint, buyer.service, 0, "buyer:1")
        assert dlg._verify_request(req) == "UnknownIdentity"

    def test_valid_request_acked(self):
        h = self._handles_after_commit()
        dlg = h.delegates[1][0]
        seller = h.clients[(1, "pub")]
        req = DelegationReq(99, "pub", 1, seller.key.address, seller.checkpoint,
                            seller.service, 0, "seller:1")
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

    def test_deposit_exceeding_delegate_funds_fails(self):
        scn = fast_session_scenario(seed=22)
        scn.funding = FundingSpec(delegate_inter_units=5_000)  # below the 10k deposit
        report, h = run(scn)
        out = outcomes(report)
        assert out[(1, "sub")] == "FAILED:InsufficientFunds"
        assert report.conservation_delta == 0


class Probe(Node):
    def __init__(self):
        super().__init__("probe", 1)
        self.responses = []

    def on_message(self, sim, src, msg):
        if isinstance(msg, CrossVerifyResp):
            self.responses.append(msg)


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
        sim.send("probe", dlg.node_id, CrossVerifyReq(1, recorded, "probe"))
        never = Checkpoint(2, b"\x11" * 32, 3, b"\x22" * 32)
        sim.send("probe", dlg.node_id, CrossVerifyReq(2, never, "probe"))
        mutated = replace(recorded, ledger_head=bytes([recorded.ledger_head[0] ^ 1])
                          + recorded.ledger_head[1:])
        sim.send("probe", dlg.node_id, CrossVerifyReq(3, mutated, "probe"))
        sim.run_until(sim.now + 10_000)
        got = {r.query_id: r.found for r in probe.responses}
        assert got == {1: True, 2: False, 3: False}


class TestConservationOracle:
    def test_ledger_sum_matches_event_log_replay(self):
        scn = fast_session_scenario(seed=31, sessions=2, contracts=4)
        report, h = run(scn)
        from fedledger.eventlog import check_conservation, replay_log
        delta, violations = check_conservation(replay_log(h.log.events))
        assert delta == 0 and not violations
        assert report.conservation_delta == 0

    def test_conservation_holds_with_block_rewards_enabled(self):
        scn = fast_session_scenario(seed=32)
        scn.inter.block_reward_units = 2_000  # 2-token subsidy per block
        report, h = run(scn)
        assert report.conservation_delta == 0
        assert h.miners[0].inter.tip_state().minted_total > 0
        assert report.safety_violations == 0


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
        assert not any(t[3] for t in book.transfers)  # no contract payment memo
