"""Harness surface: reports, reproducibility, batches, log verification, CLI."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger import runner
from fedledger.bft import Evidence
from fedledger.chain import MAX_TARGET, Checkpoint, IntraTx, PowSeal, build_block
from fedledger.crypto import Keyring
from fedledger.eventlog import (
    _LINE_ENCODER,
    RECORDS,
    BadRecord,
    EventLog,
    InterBlock,
    InterRevertConfirmed,
    IntraSubmit,
    IntraSubmitWithPayload,
    LoggedInterTx,
    check_payment_safety,
    check_privacy,
    evidence_event,
    parse_events,
    replay_log,
    run_all_checkers,
)
from fedledger.harness import LOG_CHUNK_BYTES, batch, run_scenario, verify_log
from fedledger.powchain import signed_inter_tx
from fedledger.runner import build, finalize, run
from fedledger.scenario import DomainSpec, InterSpec, ParseError, Scenario, WorkloadSpec, load_scenario

ROOT = Path(__file__).resolve().parent.parent
# A genesis record with every field the checkers read, and nothing to replay.
GENESIS = b'{"contracts":[],"inter_balances":{},"intra_balances":{},"kind":"genesis","total_supply":0}\n'
# A logged inter tx without checkpoint fields or its closing brace.
INTER_TX = b'{"args":"","attached":0,"cid":0,"digest":"cc","fee":1,"method":"noop","sender":"dd"'
# Valid JSON nested 100,000 deep, past the parser's recursion limit.
DEEP = b'{"a":' * 100_000 + b"0" + b"}" * 100_000


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

    # Every committed scenario's log, intra-throughput cut to 10 s: demo
    # logs payloads, latency-intra's probe time is an integer, and
    # intra-throughput logs no payloads.
    @pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "scenarios").glob("*.json")))
    def test_every_record_round_trips(self, tmp_path, name):
        # Each record the run holds writes the file's line, and the record
        # parsed from that line writes it again, byte for byte.
        scn = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
        if name == "intra-throughput":
            scn.duration_ms = 10_000
        lp = tmp_path / "e.log"
        _, h = run(scn, str(lp))
        data = lp.read_bytes()
        assert h.log.serialize() == data
        lines = data.splitlines(keepends=True)
        with open(lp, "rb") as f:
            parsed = parse_events(f)
        assert len(h.log.events) == len(lines) == len(parsed)
        for held, line, read in zip(h.log.events, lines, parsed):
            assert held.line() == line == read.line()
        assert EventLog().serialize() == b"\n"

    def test_kinds_no_scenario_writes_round_trip(self):
        # No committed scenario reverts a confirmed inter tx or holds
        # evidence of an equivocation; one record of each, built as the
        # run builds it, parses back to its own line.
        log = EventLog()
        log.emit(InterRevertConfirmed(12.3456, (bytes(32), b"\x0a" * 32)))
        log.emit(evidence_event(2, b"\xaa" * 20, Evidence(b"\xbb" * 20, 7, 1, "prevote",
                                                         (bytes(32), b"\x01" * 32))))
        for held, read in zip(log.events, parse_events(log.lines())):
            assert type(read) is type(held) and read.line() == held.line()
        assert log.events[0].line() == (b'{"at":12.346,"kind":"inter_revert_confirmed","txs":["'
                                        + b"00" * 32 + b'","' + b"0a" * 32 + b'"]}\n')

    @pytest.mark.parametrize("record", [IntraSubmit, IntraSubmitWithPayload])
    @settings(max_examples=200, deadline=None)
    @given(at=st.one_of(
               st.integers(0, 10**16), st.just(0.0),
               # 17 significant digits, the most a float's repr holds
               st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(10**16, 10**17 - 1),
                         st.integers(-19, 0)),
               st.floats(0, 1e16)),
           zone=st.integers(0, 2**32 - 1), sender=st.binary(min_size=20, max_size=20),
           payload=st.binary(max_size=64), nonce=st.integers(0, 2**64 - 1))
    def test_intra_submit_line_is_its_json_encoding(self, record, at, zone, sender, payload, nonce):
        tx = IntraTx(sender, zone, payload, nonce, b"s" * 64)
        fields = {"kind": "intra_submit", "zone": zone, "tx": tx.digest().hex(),
                  "sender": sender.hex(), "at": round(at, 3)}
        if record is IntraSubmitWithPayload:
            r = record(zone, tx.digest(), sender, at, payload)
            fields["payload"] = payload.hex()
        else:
            r = record(zone, tx.digest(), sender, at)
        expected = json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n"
        assert r.line() == expected.encode()
        (read,) = parse_events([r.line()])
        assert type(read) is record and read.line() == r.line()

    @settings(max_examples=150, deadline=None)
    @given(txs=st.lists(st.tuples(
               st.one_of(st.sampled_from(["noop", 'a"b\\c\n\u00e9\U0001f600\x7f']), st.text(max_size=8)),
               st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=40),
               st.one_of(st.none(), st.builds(Checkpoint, st.integers(0, 2**32 - 1),
                                              st.binary(min_size=32, max_size=32),
                                              st.integers(0, 2**64 - 1),
                                              st.binary(min_size=32, max_size=32)))),
               max_size=4),
           at=st.one_of(st.integers(0, 10**9), st.floats(0, 1e9)), with_bytes=st.booleans())
    def test_inter_block_line_is_its_json_encoding(self, txs, at, with_bytes):
        # Held and parsed, with and without checkpoints and payload bytes, and
        # empty: the written-out line is the generic encoder's.
        key = Keyring(random.Random(0)).new_account()
        block = build_block(bytes(32), 3, [signed_inter_tx(key, cid, method, args, value, fee=1, checkpoint=cp)
                                           for method, cid, value, args, cp in txs],
                            7, PowSeal(key.address, 1, MAX_TARGET))
        bare = InterBlock(block.digest(), key.address, block.txs, None, None, None, None)
        for held in (InterBlock.of(block, at, with_bytes), bare):
            (parsed,) = parse_events([held.line()])
            for rec in (held, parsed):
                assert rec.line() == (_LINE_ENCODER.encode({**rec.to_json(), "kind": rec.kind}) + "\n").encode()
            assert parsed.line() == held.line()

    def test_inter_block_records_hold_their_blocks_txs(self, tmp_path):
        # A run's inter_block record holds its block's own tx tuple; the
        # parsed record holds an InterTx per logged tx, with the logged
        # digest and fields, so the replay reads alike objects from both.
        lp = tmp_path / "e.log"
        _, h = run(load_scenario(str(ROOT / "scenarios" / "demo.json")), str(lp))
        held = [e for e in h.log.events if e.kind == "inter_block"]
        with open(lp, "rb") as f:
            parsed = [e for e in parse_events(f) if e.kind == "inter_block"]
        assert len(held) == len(parsed)
        blocks = h.miners[0].inter.blocks
        # The demo's configure calls carry checkpoints: every optional field is read.
        assert any(tx.checkpoint is not None for e in parsed for tx in e.txs)
        for e, p in zip(held, parsed):
            assert e.txs is blocks[e.block].txs
            assert [tx.digest() for tx in p.txs] == [tx.digest() for tx in e.txs]
            # Every field but the signature, which the log does not hold.
            assert list(p.txs) == [replace(tx, signature=b"") for tx in e.txs]

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
        assert len({id(n.index) for n in inter}) == 1
        assert all(inter[0].index is not i for i in indexes.values())

    def test_inter_nodes_keep_per_tx_state_only_in_pending(self):
        # Confirmation is a rule over the canonical chain, not a set of txs.
        _, h = run(session_scenario())
        inter = [m.inter for m in h.miners] + [h.admin.inter] + \
            [d.inter for z in h.delegates for d in h.delegates[z]]
        txs = {tx.digest() for n in inter for b in n.blocks.values() for tx in b.txs}
        assert txs and txs <= inter[0].index.txs.keys()
        for n in inter:
            assert any(n.confirmed_receipt(d) for d in txs)
            for name, value in vars(n).items():
                if name != "pending" and isinstance(value, (dict, set, list, tuple)):
                    assert not txs & set(value), name

    @pytest.mark.parametrize("make", [
        lambda: load_scenario(str(ROOT / "scenarios" / "demo.json")),
        session_scenario,
    ], ids=["demo", "sessions"])
    def test_intra_records_hold_binary_values(self, tmp_path, make):
        # A zone tx's and a zone block's record hold digests, addresses and
        # payloads as bytes and the rest as ints, never a hex string; the
        # record parsed from a line is of the same class.
        scn = make()
        assert scn.log_payloads
        lp = tmp_path / "e.log"
        _, h = run(scn, str(lp))
        with open(lp, "rb") as f:
            parsed = parse_events(f)
        assert len(parsed) == len(h.log.events)
        read = {"intra_submit": 0, "intra_block": 0}
        for e, p in zip(h.log.events, parsed):
            if p.kind not in read:
                continue
            read[p.kind] += 1
            assert type(e) is type(p) and not hasattr(e, "__dict__")
            held = [getattr(e, name) for cls in type(e).__mro__
                    for name in getattr(cls, "__slots__", ())]
            assert not any(isinstance(v, (dict, list, str)) for v in held), held
            assert e.line() == p.line()
        assert read["intra_submit"] and read["intra_block"]
        # Payloads and transfers are logged here, so both are read.
        assert all(type(p) is IntraSubmitWithPayload for p in parsed if p.kind == "intra_submit")
        assert any(p.transfers for p in parsed if p.kind == "intra_block")

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
        # The set-free count, on the lagging replica too.
        assert all(v.core.ledger.distinct_txs() == distinct_txs(v) for v in h.validators[1])


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

    @pytest.mark.parametrize("field", ["sender", "args", "digest", "cp_ref", "cp_head"])
    def test_inter_tx_field_that_is_not_hex_is_named(self, tmp_path, field):
        # Each hex field of a logged inter tx is decoded once, into the
        # InterTx; one that is not hex is named as the field check names it,
        # with or without a later bad "bytes" field in the record.
        tx = {"args": "ab", "attached": 0, "cid": 0, "digest": "cc", "fee": 1, "method": "noop",
              "sender": "dd", "cp_zone": 1, "cp_ref": "ee", "cp_height": 2, "cp_head": "ff"}
        block = {"block": "aa", "kind": "inter_block", "miner": "bb", "txs": [tx]}
        (read,) = parse_events([json.dumps(block).encode()])[0].txs
        assert (read.sender, read.args, read.digest(), read.checkpoint.tx_ref,
                read.checkpoint.ledger_head) == tuple(map(bytes.fromhex, ("dd", "ab", "cc", "ee", "ff")))
        block = {**block, "txs": [tx, {**tx, field: "zz"}]}
        for later in ({}, {"bytes": "no"}):
            log = GENESIS + json.dumps({**block, **later}).encode() + b"\n"
            rp, lp = tmp_path / "r.json", tmp_path / "e.log"
            rp.write_text(json.dumps({"event_log_digest": hashlib.sha256(log).hexdigest()}))
            lp.write_bytes(log)
            with pytest.raises(ParseError, match=rf"e\.log: record 2 \(inter_block\) has field "
                                                 rf"'txs\[1\]\.{field}' that is not a hex string$"):
                verify_log(str(rp), str(lp))

    @pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\u0085"], ids=["U+2028", "U+2029", "U+0085"])
    def test_line_break_inside_a_string_stays_in_its_record(self, tmp_path, brk):
        # JSON lets these stand raw inside a string, and str.splitlines
        # breaks at each; a log's records end at "\n" alone.
        record = json.dumps({"kind": "session", "reason": f"a{brk}b"}, ensure_ascii=False).encode()
        log = GENESIS + record + b"\n"
        rp, lp = tmp_path / "r.json", tmp_path / "e.log"
        rp.write_text(json.dumps({"event_log_digest": hashlib.sha256(log).hexdigest()}))
        lp.write_bytes(log)
        with open(lp, "rb") as f:
            events = parse_events(f)
        assert [e.kind for e in events] == ["genesis", "session"]
        assert events[1].fields["reason"] == f"a{brk}b"
        assert verify_log(str(rp), str(lp)) == (True, [])

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
        lines = Path(lp).read_bytes().splitlines()
        for i, line in enumerate(lines):
            e = json.loads(line)
            if e["kind"] == "intra_block" and e["zone"] == 1 and e["transfers"]:
                # contract 999 never existed, let alone PAID
                e["transfers"].append({**e["transfers"][0], "memo": 999})
                lines[i] = json.dumps(e).encode()
                break
        else:
            pytest.fail("no zone-1 block with a transfer")
        violations = check_payment_safety(replay_log(parse_events(lines)))
        assert any("without a settled" in v for v in violations)

    def test_replay_refuses_a_second_payout_per_seller_and_contract(self):
        # The replay applies BalanceBook's rules: of three logged payouts to
        # one seller for contract 3, only the first moves value; memo-0
        # funding repeats, and the same payout in another zone applies.
        def transfer(memo, amount=10):
            return {"frm": "aa", "to": "bb", "amount": amount, "memo": memo}
        events = [
            {"kind": "genesis", "total_supply": 200, "inter_balances": {}, "contracts": [],
             "intra_balances": {"1": {"aa": 100}, "2": {"aa": 100}}},
            {"kind": "intra_block", "zone": 1, "height": 1, "block": "b1",
             "transfers": [transfer(0, 5), transfer(3), transfer(0, 5), transfer(3)]},
            {"kind": "intra_block", "zone": 1, "height": 2, "block": "b2", "transfers": [transfer(3)]},
            {"kind": "intra_block", "zone": 2, "height": 1, "block": "b3", "transfers": [transfer(3)]},
        ]
        rp = replay_log(parse_events(json.dumps(e).encode() for e in events))
        assert rp.intra_books == {"1": {"aa": 80, "bb": 20}, "2": {"aa": 90, "bb": 10}}
        assert [(zone, t.memo) for zone, t in rp.transfers] == [(1, 0), (1, 3), (1, 0), (2, 3)]
        assert check_payment_safety(rp) == [
            "payment for contract 3 without a settled (PAID) contract",
            "double payout for contract 3: 2 payments",
        ]

    def test_privacy_checker_catches_planted_leak(self, tmp_path):
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        events = parse_events(Path(lp).read_bytes().splitlines())
        payload = next(e.payload for e in events if type(e) is IntraSubmitWithPayload)
        leak = {"kind": "xdom", "src": "x", "dst": "y", "bytes": payload[:16].hex()}
        violations = check_privacy(events + parse_events([json.dumps(leak).encode()]))
        assert violations and "leaked" in violations[0]

    def test_planted_violations_of_three_checkers_in_log_order(self):
        # Conflicting commits (safety), a payout no PAID contract justifies
        # (payment) and one payload leaked in a message and an inter block
        # (privacy), interleaved with the records each checker skips.
        payload = bytes(range(100, 116)).hex()
        events = [
            {"kind": "genesis", "total_supply": 150, "inter_balances": {"dd": 100},
             "contracts": [], "intra_balances": {"1": {"aa": 50}}},
            {"kind": "intra_submit", "zone": 1, "tx": "01", "sender": "aa", "at": 1, "payload": payload},
            {"kind": "intra_commit", "zone": 1, "height": 1, "block": "b2"},
            {"kind": "xdom", "src": "dlg:1:0", "dst": "dlg:2:0", "bytes": "0000" + payload[:16]},
            {"kind": "intra_commit", "zone": 1, "height": 1, "block": "b1"},
            {"kind": "intra_block", "zone": 1, "height": 1, "block": "b1",
             "transfers": [{"frm": "aa", "to": "bb", "amount": 10, "memo": 5}]},
            {"kind": "inter_block", "block": "c1", "miner": "dd", "txs": [],
             "bytes": "ff" + payload[8:24]},
            {"kind": "inter_revert_confirmed", "at": 7.5, "txs": ["0a"]},
            {"kind": "xdom", "src": "dlg:2:0", "dst": "dlg:1:0", "bytes": "00" * 16},
            {"kind": "inter_canonical", "blocks": ["c1"]},
            {"kind": "xdom", "src": "dlg:2:1", "dst": "dlg:1:1", "bytes": payload},
        ]
        expected = (0, [
            "confirmed inter tx reverted at 7.5: ['0a']",
            "conflicting commits in zone 1 at height 1: ['b1', 'b2']",
            "payment for contract 5 without a settled (PAID) contract",
            "private payload bytes leaked in message dlg:1:0->dlg:2:0 at offset 2",
            "private payload bytes leaked in inter block c1 at offset 1",
            "private payload bytes leaked in message dlg:2:1->dlg:1:1 at offset 0",
        ])
        parsed = parse_events(json.dumps(e).encode() for e in events)
        assert run_all_checkers(parsed) == expected
        log = EventLog()
        log.events = parsed
        assert run_all_checkers(parse_events(log.lines())) == expected

    def test_clean_log_has_no_planted_violations(self, tmp_path):
        scn = session_scenario()
        rp, lp = str(tmp_path / "r.json"), str(tmp_path / "e.log")
        run_scenario(scn, report_path=rp, log_path=lp)
        events = parse_events(Path(lp).read_bytes().splitlines())
        assert check_payment_safety(replay_log(events)) == []
        assert check_privacy(events) == []


def mismatch_reference(value, shape):
    """The field check of a log record, written out: (path, the kind
    expected there, None if absent) at the first part of ``value`` that
    breaks the declared ``shape``, or None."""
    names = {int: "an integer", float: "a number", str: "a string", bytes: "a hex string",
             list: "a list", dict: "an object"}
    shape = getattr(shape, "SHAPE", shape)
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if kind is bytes:
        try:
            bytes.fromhex(value)
            return None
        except (TypeError, ValueError):
            return "", names[bytes]
    number = kind is float and isinstance(value, int)
    if not (isinstance(value, kind) or number) or (kind in (int, float) and isinstance(value, bool)):
        return "", names[kind]
    if isinstance(shape, list):
        parts = [(f"[{i}]", v, shape[0]) for i, v in enumerate(value)]
    elif isinstance(shape, dict) and (str in shape or bytes in shape):
        ((key, sub),) = shape.items()
        # A hex key is checked before its value.
        parts = [part for k, v in value.items()
                 for part in ([(f"[{k}]", k, bytes)] if key is bytes else []) + [(f"[{k}]", v, sub)]]
    elif isinstance(shape, dict):
        # "?": may be absent; "??": all of the object's "??" fields or none.
        # The fields are checked in declaration order, each for presence
        # and then for its shape.
        fields = [(name.rstrip("?"), name.endswith("?"), name.endswith("??"), sub)
                  for name, sub in shape.items()]
        grouped = any(group and key in value for key, _, group, _ in fields)
        parts = []
        for key, optional, group, sub in fields:
            if key in value:
                parts.append((f".{key}", value[key], sub))
            elif not optional or (group and grouped):
                parts.append((f".{key}", None, None))
    else:
        return None
    for path, v, sub in parts:
        bad = ("", None) if sub is None else mismatch_reference(v, sub)
        if bad is not None:
            return path + bad[0], bad[1]
    return None


def bad_field_reference(record):
    kind = record.get("kind")
    shape = {"kind": str} if not isinstance(kind, str) else RECORDS[kind].SHAPE if kind in RECORDS else {}
    bad = mismatch_reference(record, shape)
    if bad is None:
        return None
    path, expected = bad[0].lstrip("."), bad[1]
    return f"has no field {path!r}" if expected is None else f"has field {path!r} that is not {expected}"


def parse_problem(record):
    """What ``parse_events`` refuses ``record`` for, as one line; None if
    it reads it."""
    try:
        assert len(parse_events([json.dumps(record).encode()])) == 1
    except BadRecord as e:
        return str(e)
    return None


def nested_shapes(shape):
    """``shape`` and every shape of a field inside it."""
    shape = getattr(shape, "SHAPE", shape)
    if isinstance(shape, list):
        return nested_shapes(shape[0])
    if not isinstance(shape, dict):
        return []
    if str in shape or bytes in shape:
        return nested_shapes(next(iter(shape.values())))
    return [shape] + [s for sub in shape.values() for s in nested_shapes(sub)]


# Any JSON value, with the strings a hex field reads as valid and invalid. JSON has no
# NaN or Infinity (json.dumps would write them, and parse_events refuses them).
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 2 ** 70)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from(["", "ab", "0F", " ab ", "a", "zz", "kind"]) | st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
HEX_TX_FIELDS = {name.rstrip("?") for name, sub in LoggedInterTx.SHAPE.items() if sub is bytes}
FIELD_NAMES = sorted({name.rstrip("?") for cls in RECORDS.values() for shape in nested_shapes(cls)
                      for name in shape})


def conforming(shape):
    """Values that pass ``shape``: each "?" field present or not, and
    every "??" field of an object present or none."""
    shape = getattr(shape, "SHAPE", shape)
    if shape is int:
        return st.integers(-2 ** 70, 2 ** 70)
    if shape is float:
        return st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=False, allow_infinity=False)
    if shape is str:
        return st.text(max_size=3)
    if shape is bytes:
        return st.binary(max_size=3).map(bytes.hex)
    if isinstance(shape, list):
        return st.lists(conforming(shape[0]), min_size=1, max_size=3)
    if str in shape or bytes in shape:
        ((key, sub),) = shape.items()
        return st.dictionaries(conforming(key), conforming(sub), min_size=1, max_size=3)
    required = {n: conforming(sub) for n, sub in shape.items() if not n.endswith("?")}
    alone = {n.rstrip("?"): conforming(sub) for n, sub in shape.items()
             if n.endswith("?") and not n.endswith("??")}
    group = {n.rstrip("?"): conforming(sub) for n, sub in shape.items() if n.endswith("??")}
    return st.builds(lambda fields, grouped: {**fields, **grouped},
                     st.fixed_dictionaries(required, optional=alone),
                     st.just({}) | st.fixed_dictionaries(group))


@st.composite
def mutated(draw, value):
    """``value`` with one part, at any depth, replaced, dropped or added."""
    action = draw(st.sampled_from(["replace", "descend", "descend", "descend", "drop", "add"]))
    if action == "replace":
        return draw(JSON_VALUES)
    if isinstance(value, dict):
        if action == "add":
            return {**value, draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=3)): draw(JSON_VALUES)}
        if value and action in ("descend", "drop"):
            key = draw(st.sampled_from(sorted(value)))
            if action == "drop":
                return {k: v for k, v in value.items() if k != key}
            return {**value, key: draw(mutated(value[key]))}
    if isinstance(value, list) and value and action == "descend":
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [draw(mutated(value[i]))] + value[i + 1:]
    return value


class TestBadField:
    @pytest.mark.parametrize("kind", sorted(RECORDS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_names_what_the_written_out_check_names(self, kind, data):
        # A record of the shape its class declares parses; one with parts
        # replaced, dropped or added is refused for the field the
        # written-out check names, or read if that check finds none.
        record = {"kind": kind, **data.draw(conforming(RECORDS[kind]))}
        assert parse_problem(record) is None and bad_field_reference(record) is None
        for _ in range(data.draw(st.integers(1, 3))):
            record = data.draw(mutated(record))
        if isinstance(record, dict):
            expected = bad_field_reference(record)
            assert parse_problem(record) == (expected and f"record 1 ({record.get('kind')}) {expected}")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parse_names_what_the_written_out_check_names(self, data):
        # parse_events reads each hex field of an inter block's txs once,
        # into the InterTx; what it refuses, and the field it names, are
        # what the written-out check names.
        record = {"kind": "inter_block", **data.draw(conforming(RECORDS["inter_block"]))}
        if data.draw(st.booleans()):  # one tx hex field that is not hex
            tx = data.draw(st.sampled_from(record["txs"]))
            field = data.draw(st.sampled_from(sorted(k for k in tx if k in HEX_TX_FIELDS)))
            tx[field] = data.draw(st.sampled_from(["a", "zz", "0g", "abc", 5, None, ["ab"]]))
        for _ in range(data.draw(st.integers(0, 3))):
            record = data.draw(mutated(record))
        line = json.dumps(record).encode()
        expected = bad_field_reference(record) if isinstance(record, dict) else "not a JSON object"
        if expected is None:
            assert len(parse_events([line])) == 1
        else:
            with pytest.raises(BadRecord) as caught:
                parse_events([line])
            assert str(caught.value).endswith(expected)


class TestCli:
    def run_cli(self, *args, timeout=None):
        # pytest's pythonpath setting does not reach a subprocess.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        return subprocess.run([sys.executable, "-m", "fedledger.cli", *args],
                              capture_output=True, text=True, env=env, timeout=timeout)

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
        (None, GENESIS + b'{"block":"aa","kind":"inter_block","miner":"bb","txs":[' + INTER_TX
         + b',"cp_zone":1}]}\n',
         "record 2 (inter_block) has no field 'txs[0].cp_ref'"),
        (None, GENESIS + b'{"block":"aa","kind":"inter_block","miner":"bb","txs":['
         + INTER_TX.replace(b'"digest":"cc",', b"") + b"}]}\n",
         "record 2 (inter_block) has no field 'txs[0].digest'"),
        (DEEP, GENESIS, "r.json: not a JSON report"),
        (None, GENESIS + DEEP + b"\n", "e.log: not a JSON-lines event log: record 2"),
        (None, GENESIS + b'{"at":Infinity,"kind":"intra_submit","sender":"aa","tx":"bb","zone":1}\n',
         "e.log: not a JSON-lines event log: record 2: Infinity is not a JSON value"),
        (None, GENESIS + b'{"kind":"final","x":-Infinity}\n', "record 2: -Infinity is not a JSON value"),
        (None, GENESIS + b'{"kind":"session","x":[NaN]}\n', "record 2: NaN is not a JSON value"),
    ], ids=["report-not-json", "log-not-json", "log-empty", "log-without-genesis",
            "report-delta-not-an-integer", "genesis-without-fields", "commit-without-height",
            "balances-not-an-object", "inter-tx-without-sender", "contract-admin-not-hex",
            "transfer-amount-not-an-integer", "inter-tx-with-part-of-a-checkpoint",
            "inter-tx-without-digest", "report-nested-too-deeply", "log-nested-too-deeply",
            "log-at-infinity", "log-minus-infinity", "log-nan"])
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

    @pytest.mark.parametrize("cmd", [["validate"], ["run"], ["batch", "--runs", "1"]],
                             ids=["validate", "run", "batch"])
    def test_scenario_not_utf8_exit_code(self, tmp_path, cmd):
        scn_path = tmp_path / "bad.json"
        scn_path.write_bytes(b"\xff\xfe{}")
        res = self.run_cli(cmd[0], "--scenario", str(scn_path), *cmd[1:])
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"{scn_path}: not UTF-8 text" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("cmd", ["validate", "run"])
    def test_scenario_nested_too_deeply_exit_code(self, tmp_path, cmd):
        scn_path = tmp_path / "deep.json"
        scn_path.write_bytes(DEEP)
        res = self.run_cli(cmd, "--scenario", str(scn_path))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"{scn_path}: nested too deeply to parse" in res.stderr and res.stdout == ""

    # The cases seen to hang a run, end it with NaN in its report, or in a
    # traceback; json.loads accepts each of these words.
    @pytest.mark.parametrize("cmd", ["validate", "run"])
    @pytest.mark.parametrize("text, key", [
        ('{"duration_ms": Infinity}', "scenario.duration_ms"),
        ('{"duration_ms": NaN}', "scenario.duration_ms"),
        ('{"workload": {"deposit_tokens": Infinity}}', "workload.deposit_tokens"),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, cmd, text, key):
        scn_path = tmp_path / "bad.json"
        scn_path.write_text(text)
        res = self.run_cli(cmd, "--scenario", str(scn_path), timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"{key}: expected a finite number" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("cmd", ["validate", "run"])
    def test_token_amount_above_u64_exit_code(self, tmp_path, cmd):
        # Above the u64 the wire holds: refused before any node runs.
        raw = json.loads((ROOT / "scenarios" / "demo.json").read_text())
        raw["duration_ms"] = 5_000
        raw["workload"] |= {"sessions": 1, "deposit_tokens": 10 ** 29}
        scn_path = tmp_path / "huge.json"
        scn_path.write_text(json.dumps(raw))
        res = self.run_cli(cmd, "--scenario", str(scn_path), timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "workload.deposit_tokens: token amount" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("cmd", ["validate", "run"])
    def test_zone_id_above_u32_exit_code(self, tmp_path, cmd):
        # An IntraTx's signing bytes and a Checkpoint hold the zone id in a
        # u32: refused before any node runs, where it broke the run at the
        # first intra tx.
        raw = json.loads((ROOT / "scenarios" / "latency-intra.json").read_text())
        raw["duration_ms"] = 2_000
        raw["domains"][0]["zone_id"] = 2 ** 32
        scn_path = tmp_path / "wide.json"
        scn_path.write_text(json.dumps(raw))
        res = self.run_cli(cmd, "--scenario", str(scn_path), timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "domains[0].zone_id 4294967296" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("cmd", ["validate", "run"])
    @pytest.mark.parametrize("name, section, key, value", [
        ("demo", "domains", "round_timeout_ms", 1e-300),
        ("demo", "protocol", "op_timeout_ms", 1e-300),
        ("demo", "inter", "mean_block_interval_ms", 1e-300),
        ("intra-throughput", "workload", "intra_rate_per_s", 1e20),
        ("inter-throughput", "workload", "inter_rate_per_s", 1e20),
    ])
    def test_period_under_the_clock_step_exit_code(self, tmp_path, cmd, name, section, key, value):
        # Positive, but at 5 s now + period == now: the timer or the load
        # would re-arm at one virtual instant for ever. Refused before any
        # node runs.
        raw = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
        raw["duration_ms"] = 5_000
        if section == "domains":
            raw["domains"][0][key] = value
            section = "domains[0]"
        else:
            raw.setdefault(section, {})[key] = value
        scn_path = tmp_path / "still.json"
        scn_path.write_text(json.dumps(raw))
        res = self.run_cli(cmd, "--scenario", str(scn_path), timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert f"{section}.{key}" in res.stderr and "the clock's step" in res.stderr
        assert res.stdout == ""

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
