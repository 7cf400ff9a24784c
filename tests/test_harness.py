"""Harness surface: reports, reproducibility, batches, log verification, CLI."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from fedledger import runner
from fedledger.eventlog import EventLog, check_payment_safety, check_privacy, parse_events, replay_log
from fedledger.harness import LOG_CHUNK_BYTES, batch, run_scenario, verify_log
from fedledger.runner import build, finalize, run
from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec, load_scenario

ROOT = Path(__file__).resolve().parent.parent
# A genesis record with every field the checkers read, and nothing to replay.
GENESIS = b'{"contracts":[],"inter_balances":{},"intra_balances":{},"kind":"genesis","total_supply":0}\n'


def small_scenario(seed=9, **workload):
    workload.setdefault("intra_rate_per_s", 20)
    workload.setdefault("intra_until_ms", 10_000)
    return Scenario(
        name="harness", seed=seed, duration_ms=15_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
        inter=InterSpec(miners=2, mean_block_interval_ms=1500, confirmation_depth=2,
                        contracts=1),
        workload=WorkloadSpec(**workload),
    )


def session_scenario(seed=77):
    return Scenario(
        name="sessions", seed=seed, duration_ms=150_000,
        domains=[DomainSpec(zone_id=1, validators=4, delegates=2),
                 DomainSpec(zone_id=2, validators=4, delegates=2)],
        inter=InterSpec(miners=2, mean_block_interval_ms=800, confirmation_depth=2,
                        contracts=2),
        workload=WorkloadSpec(sessions=1, deposit_units=10_000, payload_bytes=128),
    )


class TestReports:
    def test_report_reproducible_byte_for_byte(self):
        scn = small_scenario()
        r1, h1 = run(scn)
        r2, h2 = run(scn)
        assert r1.to_json() == r2.to_json()
        assert h1.log.serialize() == h2.log.serialize()

    def test_serialized_log_equals_joined_json_lines(self):
        _, h = run(load_scenario(str(ROOT / "scenarios" / "demo.json")))
        lines = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in h.log.events]
        assert h.log.serialize() == ("\n".join(lines) + "\n").encode()
        assert EventLog().serialize() == b"\n"

    def test_digest_and_log_file_are_the_serialized_log(self, tmp_path):
        lp = tmp_path / "e.log"
        report, h = run(small_scenario(), str(lp))
        data = h.log.serialize()
        assert lp.read_bytes() == data
        assert report.event_log_digest == hashlib.sha256(data).hexdigest() == h.log.digest()
        # An empty log is one newline, streamed or joined.
        empty = tmp_path / "empty.log"
        assert EventLog().digest(str(empty)) == hashlib.sha256(b"\n").hexdigest()
        assert empty.read_bytes() == EventLog().serialize() == b"\n"

    def test_finalize_never_holds_the_whole_encoded_log(self):
        scn = load_scenario(str(ROOT / "scenarios" / "intra-throughput.json"))
        scn.duration_ms = 10_000
        h = build(scn)
        for node in list(h.sim.nodes.values()):
            if hasattr(node, "start"):
                node.start(h.sim)
        h.sim.run_until(scn.duration_ms)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            finalize(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < len(h.log.serialize()) / 2

    def test_throughput_identity(self):
        scn = small_scenario()
        report, _ = run(scn)
        m = report.ledgers["zone:1"]
        assert m.tx_throughput == pytest.approx(m.committed / (scn.duration_ms / 1000.0))

    def test_zero_workload_zeroes(self):
        scn = small_scenario(intra_rate_per_s=0)
        report, _ = run(scn)
        m = report.ledgers["zone:1"]
        assert m.committed == 0 and m.tx_throughput == 0.0
        assert m.commit_latency.count == 0
        assert report.sessions == []
        assert report.conservation_delta == 0

    def test_csv_export(self):
        report, _ = run(small_scenario())
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("ledger,tx_throughput")
        assert any(line.startswith("zone:1,") for line in lines)
        assert any(line.startswith("inter,") for line in lines)


class TestSharedReplicaFacts:
    """What every replica derives is kept once: per zone, and per simulation."""

    def test_one_index_per_zone_and_one_memo_per_simulation(self):
        h = build(session_scenario())
        indexes = {}
        for z in h.validators:
            replicas = [v.core for v in h.validators[z]] + [d.follower for d in h.delegates[z]]
            assert len({id(r.ledger.index) for r in replicas}) == 1
            indexes[z] = replicas[0].ledger.index
        assert len({id(i) for i in indexes.values()}) == len(h.validators) == 2
        inter = [m.inter for m in h.miners] + [h.admin.inter] + \
            [d.inter for z in h.delegates for d in h.delegates[z]]
        assert len({id(n.executions) for n in inter}) == 1

    def test_log_records_share_one_string_per_address_and_tx(self):
        _, h = run(session_scenario())
        events = h.log.events
        submitted = {e["tx"]: e for e in events if e["kind"] == "intra_submit"}
        blocks = [e for e in events if e["kind"] == "intra_block"]
        assert any(b["transfers"] for b in blocks)
        for b in blocks:
            assert all(d is submitted[d]["tx"] for d in b["txs"])
            for t in b["transfers"]:
                assert t["tx"] is submitted[t["tx"]]["tx"]
                assert t["frm"] is submitted[t["tx"]]["sender"]
        # Equal senders are one object: as many ids as distinct values.
        senders = [e["sender"] for e in submitted.values()]
        assert len(set(senders)) < len(senders)
        assert len({id(s) for s in senders}) == len(set(senders))

    def test_every_replica_sees_its_own_chain(self):
        _, h = run(small_scenario())
        replicas = [v.core for v in h.validators[1]] + [d.follower for d in h.delegates[1]]
        for r in replicas:
            digests = [tx.digest() for b in r.ledger.blocks for tx in b.txs]
            assert digests
            assert all(r.ledger.contains_tx(d) for d in digests)
        index = replicas[0].ledger.index
        assert index.blocks == {b.digest() for r in replicas for b in r.ledger.blocks[1:]}

    def test_committed_is_counted_on_the_first_live_validator(self):
        scn = small_scenario()
        scn.faults = [{"at_ms": 2_000, "fault": "crash", "node": "val:1:0"}]
        report, h = run(scn)

        def distinct_txs(node):
            return len({tx.digest() for b in node.core.ledger.blocks for tx in b.txs})

        crashed, first_live = h.validators[1][:2]
        assert crashed.node_id in h.sim.crashed and first_live.node_id not in h.sim.crashed
        assert report.ledgers["zone:1"].committed == distinct_txs(first_live)
        assert distinct_txs(crashed) < distinct_txs(first_live)


class TestBatch:
    def test_single_run_batch_matches_run(self):
        scn = small_scenario()
        report, h = run(scn)
        agg = batch(scn, 1)
        zone = agg["per_ledger"]["zone:1"]
        assert zone["pooled_latency"]["count"] == report.ledgers["zone:1"].commit_latency.count
        assert zone["pooled_latency"]["mean"] == report.ledgers["zone:1"].commit_latency.mean
        assert zone["throughput"]["mean"] == pytest.approx(report.ledgers["zone:1"].tx_throughput)

    def test_batch_pools_across_seeds(self):
        scn = small_scenario(intra_rate_per_s=0, intra_probe_times_ms=[2000.0])
        agg = batch(scn, 5)
        assert agg["seeds"] == [scn.seed + i for i in range(5)]
        assert agg["per_ledger"]["zone:1"]["pooled_latency"]["count"] == 5

    def test_each_run_is_freed_before_the_next_builds(self, monkeypatch):
        handles = []

        def build_after_free(scn):
            assert all(ref() is None for ref in handles)
            h = build(scn)
            handles.append(weakref.ref(h))
            return h

        monkeypatch.setattr(runner, "build", build_after_free)
        batch(small_scenario(intra_rate_per_s=5), 3)
        assert len(handles) == 3

    def test_reference_echoed(self):
        scn = small_scenario()
        scn.reference = {"intra_latency_mean_s": 1.6}
        agg = batch(scn, 1)
        assert agg["reference"] == {"intra_latency_mean_s": 1.6}


class TestVerifyLog:
    def test_untouched_log_passes(self, tmp_path):
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        ok, failures = verify_log(rp, lp)
        assert ok, failures

    def test_log_serialized_once_and_written_as_hashed(self, tmp_path, monkeypatch):
        calls = []
        lines = EventLog.lines

        def counted(log):
            calls.append(log)
            return lines(log)

        monkeypatch.setattr(EventLog, "lines", counted)
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        report = run_scenario(load_scenario(str(ROOT / "scenarios" / "demo.json")),
                              report_path=rp, log_path=lp)
        assert len(calls) == 1
        assert hashlib.sha256(Path(lp).read_bytes()).hexdigest() == report.event_log_digest
        ok, failures = verify_log(rp, lp)
        assert ok, failures

    def test_log_larger_than_one_chunk(self, tmp_path):
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(small_scenario(), report_path=rp, log_path=lp)
        data = Path(lp).read_bytes()
        assert len(data) > LOG_CHUNK_BYTES + 1
        ok, failures = verify_log(rp, lp)
        assert ok, failures
        # An edit past the first chunk is caught before the log is parsed.
        edited = bytearray(data)
        edited[LOG_CHUNK_BYTES + 1] ^= 1
        Path(lp).write_bytes(bytes(edited))
        ok, failures = verify_log(rp, lp)
        assert not ok and failures == ["TamperedLog: event log digest does not match the report"]

    def test_one_byte_edit_detected(self, tmp_path):
        scn = small_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        data = bytearray(open(lp, "rb").read())
        data[len(data) // 2] ^= 1
        open(lp, "wb").write(bytes(data))
        ok, failures = verify_log(rp, lp)
        assert not ok and "TamperedLog" in failures[0]

    def test_injected_unauthorized_payout_detected(self, tmp_path):
        # An attacker controlling both files can keep the digest consistent;
        # the payment checker still reconstructs contract state and flags the
        # payout that no settled contract justifies.
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        events = parse_events(Path(lp).read_bytes().splitlines())
        forged = None
        for e in events:
            if e["kind"] == "intra_block" and e["zone"] == 1 and e["transfers"]:
                t = dict(e["transfers"][0])
                t["memo"] = 999  # contract 999 never existed, let alone PAID
                forged = dict(e)
                forged["transfers"] = e["transfers"] + [t]
                break
        assert forged is not None
        new_lines = []
        for e in events:
            if e is not None and e.get("kind") == "intra_block" and e.get("block") == forged["block"]:
                new_lines.append(forged)
            else:
                new_lines.append(e)
        violations = check_payment_safety(replay_log(new_lines))
        assert any("without a settled" in v for v in violations)

    def test_privacy_checker_catches_planted_leak(self, tmp_path):
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        events = parse_events(Path(lp).read_bytes().splitlines())
        payload = next(e["payload"] for e in events
                       if e["kind"] == "intra_submit" and "payload" in e)
        leak = {"kind": "xdom", "src": "x", "dst": "y", "bytes": payload[:32]}
        violations = check_privacy(events + [leak])
        assert violations and "leaked" in violations[0]

    def test_clean_log_has_no_planted_violations(self, tmp_path):
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        events = parse_events(Path(lp).read_bytes().splitlines())
        assert check_payment_safety(replay_log(events)) == []
        assert check_privacy(events) == []


class TestCli:
    def run_cli(self, *args):
        # pytest's pythonpath setting does not reach a subprocess.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "fedledger.cli", *args],
                              capture_output=True, text=True, env=env)

    def test_validate_and_run_and_verify(self, tmp_path):
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps({
            "name": "cli", "seed": 2, "duration_ms": 10_000,
            "domains": [{"zone_id": 1, "validators": 4, "delegates": 1}],
            "inter": {"miners": 1, "contracts": 1},
            "workload": {"intra_rate_per_s": 10},
        }))
        assert self.run_cli("validate", "--scenario", str(scn_path)).returncode == 0
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        res = self.run_cli("run", "--scenario", str(scn_path), "--out", rp, "--log", lp)
        assert res.returncode == 0, res.stderr
        report = json.loads(open(rp).read())
        assert report["safety_violations"] == 0
        res = self.run_cli("verify-log", "--report", rp, "--log", lp)
        assert res.returncode == 0 and "pass" in res.stdout

    @pytest.mark.parametrize("report, log, named", [
        (b"not json", b"\n", ""),
        (None, b"not json lines\n", ""),
        (None, b"", ""),
        (None, b'{"kind":"final"}\n', ""),
        (b'{"conservation_delta":"0"}', GENESIS, "integer conservation_delta"),
        (None, b'{"kind":"genesis"}\n', "record 1 (genesis) has no field 'total_supply'"),
        (None, GENESIS + b'{"block":"00","kind":"intra_commit","zone":1}\n',
         "record 2 (intra_commit) has no field 'height'"),
        (None, GENESIS.replace(b'"inter_balances":{}', b'"inter_balances":5'),
         "record 1 (genesis) has field 'inter_balances' that is not an object"),
        (None, GENESIS + b'{"block":"aa","kind":"inter_block","miner":"bb","txs":[{}]}\n'
         b'{"blocks":["aa"],"kind":"inter_canonical"}\n',
         "record 2 (inter_block) has no field 'txs[0].sender'"),
        (None, GENESIS.replace(b'"contracts":[]', b'"contracts":[{"admin":"zz","cid":1,"delegation":[]}]'),
         "record 1 (genesis) has field 'contracts[0].admin' that is not a hex string"),
        (None, GENESIS + b'{"block":"aa","height":1,"kind":"intra_block","zone":1,'
         b'"transfers":[{"amount":"5","frm":"a","memo":0,"to":"b"}]}\n',
         "record 2 (intra_block) has field 'transfers[0].amount' that is not an integer"),
    ], ids=["report-not-json", "log-not-json", "log-empty", "log-without-genesis",
            "report-delta-not-an-integer", "genesis-without-fields", "commit-without-height",
            "balances-not-an-object", "inter-tx-without-sender", "contract-admin-not-hex",
            "transfer-amount-not-an-integer"])
    def test_verify_log_bad_input_exit_code(self, tmp_path, report, log, named):
        # A report pinning the log's digest, so the log is parsed.
        if report is None:
            report = json.dumps({"event_log_digest": hashlib.sha256(log).hexdigest()}).encode()
        rp, lp = tmp_path / "r.json", tmp_path / "e.log"
        rp.write_bytes(report)
        lp.write_bytes(log)
        res = self.run_cli("verify-log", "--report", str(rp), "--log", str(lp))
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr and "Traceback" not in res.stderr
        assert named in res.stderr

    def test_batch_needs_a_run(self, tmp_path):
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps({"domains": [{"zone_id": 1}]}))
        res = self.run_cli("batch", "--scenario", str(scn_path), "--runs", "0")
        assert res.returncode == 2
        assert "error:" in res.stderr and "Traceback" not in res.stderr

    def test_invalid_scenario_exit_code(self, tmp_path):
        scn_path = tmp_path / "bad.json"
        scn_path.write_text(json.dumps({"domains": [{"zone_id": 1, "byzantine": 3}]}))
        res = self.run_cli("validate", "--scenario", str(scn_path))
        assert res.returncode == 2
        assert "n >= 3f+1" in res.stderr

    @pytest.mark.parametrize("cmd", ["validate", "run"])
    def test_fault_on_an_unbuilt_node_exit_code(self, tmp_path, cmd):
        scn_path = tmp_path / "bad.json"
        scn_path.write_text(json.dumps({"duration_ms": 1_000, "domains": [{"zone_id": 1}],
                                        "faults": [{"at_ms": 10, "fault": "crash", "node": "dlg:9:0"}]}))
        res = self.run_cli(cmd, "--scenario", str(scn_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "faults[0]: crash node 'dlg:9:0'" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("raw, key", [
        ({"funding": {}}, "funding"),
        ({"inter": {"fee_tokens": 0.001}}, "fee_tokens"),
        ({"inter": {"block_reward_tokens": 0}}, "block_reward_tokens"),
        ({"inter": {"median_delay_ms": 200}}, "median_delay_ms"),
        ({"inter": {"sigma": 1.0}}, "sigma"),
        ({"domains": [{"zone_id": 1, "delay_min_ms": 10}]}, "delay_min_ms"),
        ({"domains": [{"zone_id": 1, "delay_max_ms": 200}]}, "delay_max_ms"),
    ])
    def test_removed_key_exit_code(self, tmp_path, raw, key):
        scn_path = tmp_path / "old.json"
        scn_path.write_text(json.dumps(raw))
        res = self.run_cli("validate", "--scenario", str(scn_path))
        assert res.returncode == 2
        assert f"unknown key '{key}'" in res.stderr and "Traceback" not in res.stderr
