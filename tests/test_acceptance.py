"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s` or on failure).
Scenario seeds are pinned; determinism (criterion 10) makes every number
here reproducible bit for bit.
"""

import time
from pathlib import Path

import pytest

from fedledger.analysis import double_spend_experiment
from fedledger.eventlog import check_privacy, parse_events, payload_windows, replay_log, run_all_checkers
from fedledger.harness import batch
from fedledger.runner import run
from fedledger.scenario import (
    DomainSpec,
    InterSpec,
    ProtocolSpec,
    Scenario,
    ValidationError,
    WorkloadSpec,
    load_scenario,
)

ROOT = Path(__file__).resolve().parent.parent

_REPORTS = []  # every report produced here; criterion 6 sweeps them


def run_tracked(scn):
    report, handles = run(scn)
    _REPORTS.append((scn.name, report))
    return report, handles


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


# -- 1. throughput reproduction ------------------------------------------------

def test_c01_throughput_reproduction():
    t0 = time.monotonic()
    intra = Scenario(
        name="c1-intra", seed=101, duration_ms=60_000, log_payloads=False,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=1,
                            block_capacity=1000, block_interval_ms=1600)],
        inter=InterSpec(miners=1, contracts=1),
        workload=WorkloadSpec(intra_rate_per_s=800, intra_payload_bytes=64),
    )
    report, _ = run_tracked(intra)
    intra_wall = time.monotonic() - t0
    tput = report.ledgers["zone:1"].tx_throughput
    assert 562 <= tput <= 688, tput  # 625 +/- 10%
    assert intra_wall < 60, intra_wall
    assert report.event_log_digest == "8f9a9ccac70611a8bab4f7f5f0c636fa18c3ccbee26669330436bf84501dff2e"

    t0 = time.monotonic()
    inter = Scenario(
        name="c1-inter", seed=202, duration_ms=1_500_000, log_payloads=False,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
        inter=InterSpec(miners=3, mean_block_interval_ms=4500, block_capacity=571,
                        confirmation_depth=6, contracts=1),
        workload=WorkloadSpec(inter_rate_per_s=135),
    )
    report, _ = run_tracked(inter)
    inter_wall = time.monotonic() - t0
    itput = report.ledgers["inter"].tx_throughput
    assert 107 <= itput <= 145, itput  # 126 +/- 15%
    assert inter_wall < 60, inter_wall
    assert report.event_log_digest == "db031436e333baf961463f8732e14d8db98999cca3c04a2fa34c83289b183d31"
    ok(f"1 throughput: intra {tput:.1f} tx/s in [562,688], "
       f"inter {itput:.1f} tx/s in [107,145], walls {intra_wall:.1f}s/{inter_wall:.1f}s")


# -- 2. latency distribution shape ------------------------------------------------

def test_c02_latency_shape():
    intra = Scenario(
        name="c2-intra", seed=300, duration_ms=8_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=1, round_timeout_ms=300)],
        inter=InterSpec(miners=1, contracts=1),
        workload=WorkloadSpec(intra_probe_times_ms=[1900.0]),
    )
    agg = batch(intra, 100)
    stats = agg["per_ledger"]["zone:1"]["pooled_latency"]
    intra_ratio = stats["std"] / stats["mean"]
    assert stats["count"] == 100
    assert intra_ratio < 0.15, (stats["mean"], stats["std"])
    assert 1.4 <= stats["mean"] <= 1.9  # near the configured 1.6 s commit interval

    inter = Scenario(
        name="c2-inter", seed=400, duration_ms=90_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
        inter=InterSpec(miners=3, mean_block_interval_ms=4500, confirmation_depth=1,
                        contracts=1),
        workload=WorkloadSpec(inter_probe_times_ms=[1000.0]),
    )
    agg = batch(inter, 100)
    istats = agg["per_ledger"]["inter"]["pooled_latency"]
    inter_ratio = istats["std"] / istats["mean"]
    assert istats["count"] == 100
    assert inter_ratio > 0.4, (istats["mean"], istats["std"])
    assert 3.5 <= istats["mean"] <= 6.5  # near the configured 4.5 s block interval
    ok(f"2 latency shape: intra std/mean {intra_ratio:.3f} < 0.15 "
       f"(mean {stats['mean']:.2f}s), inter {inter_ratio:.3f} > 0.4 "
       f"(mean {istats['mean']:.2f}s)")


# -- 3. BFT safety under equivocation ------------------------------------------------

def test_c03_bft_safety_500_randomized_runs():
    conflicts = 0
    for seed in range(500):
        scn = Scenario(
            name="c3", seed=seed, duration_ms=4_000, log_payloads=False,
            domains=[DomainSpec(zone_id=1, validators=4, byzantine=1, delegates=1)],
            inter=InterSpec(miners=1, contracts=1),
            workload=WorkloadSpec(intra_rate_per_s=25, intra_until_ms=3_000,
                                  intra_payload_bytes=16),
            faults=[{"at_ms": 0, "fault": "byzantine", "node": "val:1:3",
                     "behavior": "equivocate"}],
        )
        report, h = run(scn)
        honest = [n.core.ledger for i, n in enumerate(h.validators[1]) if i != 3]
        max_h = max(l.height for l in honest)
        for height in range(1, max_h + 1):
            digests = {l.blocks[height].digest() for l in honest if l.height >= height}
            if len(digests) > 1:
                conflicts += 1
        if report.safety_violations:
            conflicts += report.safety_violations
    assert conflicts == 0

    # Negative control: two byzantine validators of four must be rejected.
    with pytest.raises(ValidationError):
        Scenario(domains=[DomainSpec(zone_id=1, validators=4, byzantine=2)]).validate()
    ok("3 BFT safety: 0 conflicting commits over 500 equivocation runs; "
       "n=4,f=2 scenario rejected")


# -- 4. BFT liveness under synchrony ------------------------------------------------

def test_c04_bft_liveness():
    scn = Scenario(
        name="c4", seed=44, duration_ms=240_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=2),
                 DomainSpec(zone_id=2, validators=4, delegates=2)],
        inter=InterSpec(miners=2, mean_block_interval_ms=1000, confirmation_depth=2,
                        contracts=3),
        workload=WorkloadSpec(sessions=2, deposit_units=10_000, payload_bytes=256,
                              intra_rate_per_s=100, intra_until_ms=150_000,
                              intra_payload_bytes=32),
        protocol=ProtocolSpec(op_timeout_ms=30_000),
        faults=[{"at_ms": 0, "fault": "crash", "node": "val:1:3"},
                {"at_ms": 0, "fault": "crash", "node": "val:2:3"}],
        log_payloads=False,
    )
    report, h = run(scn)
    for z in (1, 2):
        m = report.ledgers[f"zone:{z}"]
        assert m.submitted > 0 and m.committed == m.submitted, (z, m.submitted, m.committed)
    for s in report.sessions:
        assert s["outcome"] == "SETTLED", s
    assert report.safety_violations == 0
    ok(f"4 liveness: {report.ledgers['zone:1'].submitted + report.ledgers['zone:2'].submitted} "
       "submitted txs all committed with f crashed validators per zone; no session stalls")


# -- 5. double-spend resistance ------------------------------------------------

def test_c05_double_spend_resistance():
    res = double_spend_experiment(attempts=200, attacker_share=0.30,
                                  confirmations=6, seed=1717)
    assert res.attempts == 200
    assert res.rate < 0.05, res.rate
    assert abs(res.rate - res.analytic) <= 0.03, (res.rate, res.analytic)
    ok(f"5 double spend: {res.successes}/200 attempts ({res.rate:.1%}) < 5%; "
       f"analytic race {res.analytic:.2%} within 3pp")


# -- 6. escrow/token conservation ------------------------------------------------

def test_c06_conservation_everywhere():
    # Dedicated stress: fast blocks force frequent reorgs while a delegate
    # crash forces failover mid-session.
    scn = Scenario(
        name="c6-stress", seed=66, duration_ms=300_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=3),
                 DomainSpec(zone_id=2, validators=4, delegates=3)],
        inter=InterSpec(miners=4, mean_block_interval_ms=250, confirmation_depth=4,
                        contracts=4),
        workload=WorkloadSpec(sessions=2, deposit_units=10_000, payload_bytes=256,
                              session_interval_ms=2_000),
        protocol=ProtocolSpec(op_timeout_ms=25_000),
        faults=[{"at_ms": 10_000, "fault": "crash", "node": "dlg:1:0"}],
    )
    report, h = run_tracked(scn)
    reorgs = sum(1 for e in h.log.events if e.kind == "inter_reorg")
    assert reorgs > 0, "stress scenario must actually exercise reorgs"
    assert report.conservation_delta == 0
    assert report.safety_violations == 0
    for s in report.sessions:
        assert s["outcome"] == "SETTLED", s

    # And every report produced by this suite so far.
    nonzero = [(name, r.conservation_delta) for name, r in _REPORTS
               if r.conservation_delta != 0]
    assert nonzero == []
    ok(f"6 conservation: delta 0 in all {len(_REPORTS)} tracked runs incl. "
       f"reorg+failover stress ({reorgs} reorgs)")


# -- 7. payment safety over randomized sessions ------------------------------------------------

# Event-log digests of the ten runs, in run order (seeds 7100-7109).
C07_DIGESTS = [
    "24d58e45a32311d70ca9d430d41d87c44f6cbcf23b7072e9f53dad5f4ed67968",
    "63f0cc6dfbb2a6ee3db1007f6ec6565bec5e8c9bb42b99bea9805c2f18e7e0f4",
    "4403f6978ac17dfb1b18111aefdb41398f074de50a97e900d063d26d59cc9a0b",
    "e196fe693c9dd3814b4db3028278c1b0ac3455601910555d52932e15cd163ada",
    "a959867efa483db3749a78fc8d29537bd6471c1f06b28b94907467d433b2e34e",
    "71bc38707f9d413ac075680c4f00e80b3d612afc890705317985d88da9615f2c",
    "4304ae39bee77f12169c31d7b55fe74f6637ff2c08952f283cbedd022c89e93e",
    "5c34fce6fad818cd7226e19fa76865f5a9a5cb7ea589cc775cca02a92cd6103c",
    # Seed 7108: a client's goal no longer falls back from SETTLED to
    # COMMITTED on a late deliver timer, so its op watchdog re-requests
    # SETTLED instead of the lower rung.
    "ebee9c13b4a5176a4ee5a61e012fc66f687dc5b84944230ba1984627323b1ab0",
    "1319aebdf8f32b26de6357464186bf7f350d77ce78212257c588b59ebf11cbd6",
]


def c07_scenario(name, seed):
    import random as _random
    rnd = _random.Random(seed - 100)
    faults = []
    for zone in (1, 2):
        # Crash up to 2 of 3 delegates per zone: at least one survives.
        for i in range(rnd.randint(0, 2)):
            faults.append({"at_ms": rnd.uniform(5_000, 90_000),
                           "fault": "crash", "node": f"dlg:{zone}:{i}"})
    return Scenario(
        name=name, seed=seed, duration_ms=600_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=3),
                 DomainSpec(zone_id=2, validators=4, delegates=3)],
        inter=InterSpec(miners=3, mean_block_interval_ms=2500, confirmation_depth=4,
                        contracts=110),
        workload=WorkloadSpec(sessions=50, deposit_units=10_000, payload_bytes=64,
                              session_interval_ms=300),
        protocol=ProtocolSpec(op_timeout_ms=40_000),
        faults=faults,
        log_payloads=False,
    )


def test_c07_payment_safety_1000_sessions():
    total_sessions = 0
    for run_idx in range(10):
        scn = c07_scenario(f"c7-{run_idx}", 7100 + run_idx)
        report, h = run_tracked(scn)
        assert report.event_log_digest == C07_DIGESTS[run_idx], run_idx
        assert report.conservation_delta == 0, run_idx
        assert report.safety_violations == 0, (run_idx, report.violations)

        # The bidirectional implication, session by session.
        st = h.miners[0].inter.tip_state()
        paid_by_contract = {}
        for zone, t in replay_log(h.log.events).transfers:
            if zone == 1 and t.memo:  # memo = contract id
                paid_by_contract[t.memo] = paid_by_contract.get(t.memo, 0) + 1
        for sid in range(1, 51):
            total_sessions += 1
            seller = h.clients[(sid, "pub")]
            assert seller.phase == "SETTLED", (run_idx, sid, seller.phase, seller.fail_reason)
            cid = seller.contract_id
            info = st.contracts[cid]
            paid = info.broker_status.name == "PAID"
            dual = info.pub.committed and info.sub.committed
            seller_paid = paid_by_contract.get(cid, 0)
            assert paid and dual and seller_paid == 1, (run_idx, sid, paid, dual, seller_paid)
        assert all(v == 1 for v in paid_by_contract.values())  # zero double payouts
    assert total_sessions == 500  # sellers; buyers mirror them
    buyers_settled = sum(1 for name, r in _REPORTS if name.startswith("c7-")
                         for s in r.sessions if s["side"] == "sub" and s["outcome"] == "SETTLED")
    assert buyers_settled == 500
    ok("7 payment safety: 1000/1000 randomized-crash sessions settled; "
       "seller paid <=> PAID <=> dual commit; double payouts 0")


@pytest.mark.parametrize("seed", [862410140, 1347302294])
def test_c07_shape_settles_after_a_failed_commit(seed):
    # At these seeds a buyer broker's commit_service fails on chain
    # (InvalidState at 862410140, Unauthorized at 1347302294). An unsalted
    # retry repeats its bytes, every miner refuses it as a duplicate, and
    # the session used to sit in CONFIGURED for the rest of the run.
    report, _ = run(c07_scenario("sessions-50", seed))
    assert report.safety_violations == 0, report.violations
    assert report.conservation_delta == 0
    assert {s["outcome"] for s in report.sessions} == {"SETTLED"}
    assert len(report.sessions) == 100


def test_c07_shape_pays_each_seller_once_across_a_broker_takeover():
    # At seed 7150 dlg:1:0 crashes with payouts in flight; they commit after
    # its successor, whose replica did not hold them yet, submitted its own.
    # The zone ledger refuses each second payout for (seller, contract 16,
    # 21, 33, 40, 66): the log still records it, and its digest is unchanged.
    report, h = run(c07_scenario("sessions-50", 7150))
    assert report.event_log_digest == "f795363f079a91c8f31ef22829ce631988b6e7f45f6c7d81e705fad932c4b201"
    assert report.violations == [], report.violations
    assert report.conservation_delta == 0
    assert {s["outcome"] for s in report.sessions} == {"SETTLED"}
    assert len(report.sessions) == 100
    refused = h.validators[1][0].core.book.failed
    assert len(refused) == 5


@pytest.mark.parametrize("make", [
    lambda: load_scenario(str(ROOT / "scenarios" / "failover.json")),
    lambda: load_scenario(str(ROOT / "scenarios" / "demo.json")),
    lambda: c07_scenario("sessions-50", 7150),
], ids=["failover", "demo", "c07-takeover-7150"])
def test_checkers_read_held_and_parsed_records_alike(tmp_path, make):
    # The run checks the records it holds, some built when read; verify-log
    # checks the lines parsed from the file. Both must give one verdict and
    # replay one state: inter balances, contracts (the demo's configure
    # calls carry checkpoints, which the contracts keep), settlement facts,
    # applied transfers and zone books.
    lp = tmp_path / "e.log"
    _, h = run(make(), str(lp))
    with open(lp, "rb") as f:
        parsed = parse_events(f)
    assert run_all_checkers(h.log.events) == run_all_checkers(parsed) == (0, [])
    held, replayed = replay_log(h.log.events), replay_log(parsed)
    assert held.inter_balances == replayed.inter_balances
    assert held.contracts == replayed.contracts
    assert held.facts == replayed.facts
    assert held.transfers == replayed.transfers
    assert held.intra_books == replayed.intra_books
    # The replay refuses each payout the zone book refused: at 7150, the
    # second payouts across the broker takeover.
    logged = sum(len(e.transfers) for e in parsed if e.kind == "intra_block")
    refused = sum(len(vals[0].core.book.failed) for vals in h.validators.values())
    assert len(held.transfers) == logged - refused


# -- 8. failover availability and latency bound ------------------------------------------------

def _failover_scenario(seed, faults, op_timeout):
    return Scenario(
        name="c8", seed=seed, duration_ms=420_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=3),
                 DomainSpec(zone_id=2, validators=4, delegates=3)],
        inter=InterSpec(miners=3, mean_block_interval_ms=800, confirmation_depth=2,
                        contracts=3),
        workload=WorkloadSpec(sessions=1, deposit_units=10_000, payload_bytes=128),
        protocol=ProtocolSpec(op_timeout_ms=op_timeout),
        faults=faults,
    )


def test_c08_failover_every_phase():
    op_timeout = 25_000.0
    base_report, _ = run_tracked(_failover_scenario(88, [], op_timeout))
    base = {s["side"]: s["phases"] for s in base_report.sessions}
    assert base_report.sessions[0]["outcome"] == "SETTLED"
    base_settle = max(base["pub"]["SETTLED"], base["sub"]["SETTLED"])

    # Crash the active DP inside each protocol phase, boundaries from the
    # deterministic baseline timeline.
    pub = base["pub"]
    crash_points = {
        "delegation": pub["DELEGATED"] * 1000 - 500,
        "configuration": (pub["DELEGATED"] * 1000 + pub["CONFIGURED"] * 1000) / 2,
        "commitment": (pub["CONFIGURED"] * 1000 + pub["COMMITTED"] * 1000) / 2,
        "payment": (pub["COMMITTED"] * 1000 + pub["SETTLED"] * 1000) / 2,
    }
    for phase, at in crash_points.items():
        faults = [{"at_ms": max(at, 1.0), "fault": "crash", "node": "dlg:1:0"}]
        report, h = run_tracked(_failover_scenario(88, faults, op_timeout))
        sess = {s["side"]: s for s in report.sessions}
        assert sess["pub"]["outcome"] == "SETTLED", (phase, sess["pub"])
        assert sess["sub"]["outcome"] == "SETTLED", (phase, sess["sub"])
        crashes = sess["pub"]["failovers"] + sess["sub"]["failovers"]
        assert crashes >= 1, phase
        settle = max(sess["pub"]["phases"]["SETTLED"], sess["sub"]["phases"]["SETTLED"])
        added_ms = settle * 1000 - base_settle * 1000
        assert added_ms <= crashes * op_timeout, (phase, added_ms, crashes)
        assert report.conservation_delta == 0

    # Two successive crashes: bound scales linearly while a delegate remains.
    faults = [{"at_ms": 1_000, "fault": "crash", "node": "dlg:1:0"},
              {"at_ms": 40_000, "fault": "crash", "node": "dlg:1:1"}]
    report, _ = run_tracked(_failover_scenario(88, faults, op_timeout))
    sess = {s["side"]: s for s in report.sessions}
    assert sess["pub"]["outcome"] == "SETTLED"
    crashes = sess["pub"]["failovers"] + sess["sub"]["failovers"]
    settle = max(sess["pub"]["phases"]["SETTLED"], sess["sub"]["phases"]["SETTLED"])
    added_ms = settle * 1000 - base_settle * 1000
    assert added_ms <= crashes * op_timeout, (added_ms, crashes)
    ok("8 failover: sessions complete via next delegate at every crash phase; "
       f"added latency within crashes x {op_timeout/1000:.0f}s")


# -- 9. privacy of cross-domain bytes ------------------------------------------------

def test_c09_privacy_scan_100_sessions():
    scn = Scenario(
        name="c9", seed=99, duration_ms=600_000, log_payloads=True,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=2),
                 DomainSpec(zone_id=2, validators=4, delegates=2)],
        inter=InterSpec(miners=3, mean_block_interval_ms=2500, confirmation_depth=4,
                        contracts=110),
        workload=WorkloadSpec(sessions=100, deposit_units=10_000, payload_bytes=1024,
                              session_interval_ms=250),
        protocol=ProtocolSpec(op_timeout_ms=40_000),
    )
    report, h = run_tracked(scn)
    for s in report.sessions:
        assert s["outcome"] == "SETTLED", s
    events = h.log.events
    windows = payload_windows(events)
    assert len(windows) >= 100_000  # 100 x 1KB high-entropy payloads
    block_bytes = sum(len(e.bytes) for e in events if e.kind == "inter_block")
    msg_bytes = sum(len(e.bytes) for e in events if e.kind == "xdom")
    assert block_bytes > 50_000 and msg_bytes > 50_000  # scan is not vacuous
    violations = check_privacy(events)
    assert violations == []
    assert report.safety_violations == 0
    ok(f"9 privacy: 0 payload leaks across {block_bytes} inter-ledger block bytes "
       f"and {msg_bytes} cross-domain message bytes ({len(windows)} payload windows)")


# -- 10. determinism ------------------------------------------------

def test_c10_determinism():
    def scenario():
        return Scenario(
            name="c10", seed=1010, duration_ms=150_000,
            domains=[DomainSpec(zone_id=1, validators=4, delegates=2),
                     DomainSpec(zone_id=2, validators=4, delegates=2)],
            inter=InterSpec(miners=3, mean_block_interval_ms=700, confirmation_depth=2,
                            contracts=3),
            workload=WorkloadSpec(sessions=2, deposit_units=10_000, payload_bytes=512,
                                  intra_rate_per_s=10, intra_until_ms=60_000),
            protocol=ProtocolSpec(op_timeout_ms=25_000),
            faults=[{"at_ms": 8_000, "fault": "crash", "node": "dlg:1:0"}],
        )

    r1, h1 = run(scenario())
    r2, h2 = run(scenario())
    assert h1.log.serialize() == h2.log.serialize()
    assert r1.to_json() == r2.to_json()
    assert r1.event_log_digest == r2.event_log_digest
    ok("10 determinism: byte-identical event logs and reports across two executions")
