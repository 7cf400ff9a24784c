"""Consensus state machine: proposer rotation, quorum rules, timeouts,
equivocation evidence, decision sync, and randomized safety runs."""

from dataclasses import replace

import pytest

from fedledger.bft import (
    Broadcast,
    Committed,
    ConsensusMsg,
    Deadline,
    MsgKind,
    Validator,
    ZoneFollower,
)
from fedledger.chain import IntraTx, PowSeal, signed_intra_tx
from fedledger.crypto import Keyring
from fedledger.runner import run
from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec


def committee_of(keyring, n=4):
    keys = [keyring.new_account() for _ in range(n)]
    addrs = [k.address for k in keys]
    return keys, addrs


def make_validator(keyring, keys, addrs, idx, **kw):
    kw.setdefault("block_interval_ms", 0.0)
    return Validator(keys[idx], addrs, 1, keyring, **kw)


def vote(keyring, key, kind, height, round_, digest):
    msg = ConsensusMsg(kind, height, round_, digest, key.address)
    return ConsensusMsg(kind, height, round_, digest, key.address,
                        Keyring.sign(key, msg.signing_bytes()))


def take(effects, kind):
    return [e for e in effects if isinstance(e, kind)]


def signed_tx(keyring, key, payload, nonce):
    return signed_intra_tx(key, 1, payload, nonce)


class TestProposer:
    def test_rotation_formula(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0)
        assert v.proposer(1, 0) == addrs[1]
        assert v.proposer(1, 1) == addrs[2]
        assert v.proposer(2, 0) == addrs[2]
        assert v.proposer(5, 3) == addrs[(5 + 3) % 4]

    def test_block_capacity_cap(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 1, block_capacity=1000)
        client = keyring.new_account()
        for i in range(1500):
            assert v.submit_tx(signed_tx(keyring, client, b"p%d" % i, i))
        effects = v.on_propose_timer(0.0, 1)
        proposal = take(effects, Broadcast)[0].msg
        assert proposal.kind == MsgKind.PROPOSAL
        assert len(proposal.block.txs) == 1000

    def test_empty_mempool_still_proposes(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 1)
        effects = v.on_propose_timer(0.0, 1)
        proposal = take(effects, Broadcast)[0].msg
        assert proposal.kind == MsgKind.PROPOSAL
        assert proposal.block.txs == ()

    def test_mempool_rejects_bad_and_duplicate(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0)
        client = keyring.new_account()
        tx = signed_tx(keyring, client, b"x", 0)
        assert v.submit_tx(tx)
        assert not v.submit_tx(tx)  # duplicate
        bad = replace(tx, signature=b"\x00" * 32)
        assert not v.submit_tx(bad)
        other_zone = IntraTx(client.address, 9, b"x", 1)
        assert not v.submit_tx(other_zone)


def drive_to_proposal(keyring, keys, addrs, observer_idx=0):
    """Height-1 round-0 proposal from the correct proposer (index 1)."""
    proposer = make_validator(keyring, keys, addrs, 1)
    client = keyring.new_account()
    proposer.submit_tx(signed_tx(keyring, client, b"payload", 0))
    effects = proposer.on_propose_timer(0.0, 1)
    proposal = take(effects, Broadcast)[0].msg
    v = make_validator(keyring, keys, addrs, observer_idx)
    return v, proposal


class TestQuorumPath:
    def test_three_matching_precommits_commit(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        d = proposal.block_digest
        out = v.on_msg(1.0, proposal)
        prevotes = [b.msg for b in take(out, Broadcast) if b.msg.kind == MsgKind.PREVOTE]
        assert prevotes and prevotes[0].block_digest == d
        # Two more prevotes complete the quorum (own + 2 == 2f+1 == 3).
        out = v.on_msg(2.0, vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, d))
        assert not take(out, Committed)
        out = v.on_msg(3.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, d))
        precommits = [b.msg for b in take(out, Broadcast) if b.msg.kind == MsgKind.PRECOMMIT]
        assert precommits and precommits[0].block_digest == d
        assert v.locked_digest == d
        # Two more precommits commit the block.
        v.on_msg(4.0, vote(keyring, keys[1], MsgKind.PRECOMMIT, 1, 0, d))
        out = v.on_msg(5.0, vote(keyring, keys[2], MsgKind.PRECOMMIT, 1, 0, d))
        committed = take(out, Committed)
        assert committed and committed[0].block.digest() == d
        assert v.ledger.height == 1 and v.height == 2
        seal = committed[0].block.seal
        assert len(seal.quorum_signatures) >= 3
        decisions = [b.msg for b in take(out, Broadcast) if b.msg.kind == MsgKind.DECISION]
        assert decisions

    def test_two_precommits_then_timeout_no_commit(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        v.on_msg(2.0, vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, d))
        out = v.on_msg(3.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, d))
        # Quorum of prevotes reached; only one peer precommit arrives (own + 1 = 2 < 3).
        out = v.on_msg(4.0, vote(keyring, keys[1], MsgKind.PRECOMMIT, 1, 0, d))
        assert not take(out, Committed)
        assert v.round == 0
        out = v.on_deadline(300.0, v.deadline_epoch)
        assert v.round == 1
        assert v.ledger.height == 0
        assert v.locked_digest == d  # stays locked across rounds

    def test_messages_from_outsiders_dropped(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        stranger = keyring.new_account()
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        for k in (keys[1],):
            v.on_msg(2.0, vote(keyring, k, MsgKind.PREVOTE, 1, 0, d))
        out = v.on_msg(3.0, vote(keyring, stranger, MsgKind.PREVOTE, 1, 0, d))
        assert v.round not in v.precommitted  # stranger vote cannot finish a quorum

    def test_tampered_signature_dropped(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        good = vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, d)
        v.on_msg(2.0, good)
        forged = ConsensusMsg(good.kind, good.height, good.round, good.block_digest,
                              keys[2].address, good.signature)
        v.on_msg(3.0, forged)
        assert len(v.prevotes.get(0, {})) == 2  # own + keys[1]; forgery dropped


class TestTimeouts:
    def test_nil_prevote_on_silent_proposer(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0)
        start = v.start(0.0)
        deadline = take(start, Deadline)[0]
        assert deadline.at == pytest.approx(200.0)  # delta_base * (0+1)
        out = v.on_deadline(deadline.at, deadline.epoch)
        nils = [b.msg for b in take(out, Broadcast) if b.msg.kind == MsgKind.PREVOTE]
        assert nils and nils[0].block_digest is None

    def test_round_advance_rotates_proposer(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 2)  # proposer of (1, 1)
        v.start(0.0)
        for _ in range(3):  # propose -> prevote -> precommit deadlines
            out = v.on_deadline(0.0, v.deadline_epoch)
        assert v.round == 1
        proposals = [b.msg for b in take(out, Broadcast) if b.msg.kind == MsgKind.PROPOSAL]
        assert proposals and proposals[0].sender == addrs[2]

    def test_deadline_grows_with_round(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0, round_timeout_ms=200)
        v.start(0.0)
        v.on_deadline(200.0, v.deadline_epoch)  # propose step
        v.on_deadline(400.0, v.deadline_epoch)  # prevote step
        out = v.on_deadline(600.0, v.deadline_epoch)  # precommit step: round 1
        assert v.round == 1
        deadline = take(out, Deadline)[0]
        # Round 1 phases use delta_base * 2.
        assert deadline.at == pytest.approx(600.0 + 400.0)

    def test_stale_epoch_ignored(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        old_epoch = v.deadline_epoch
        v.on_msg(1.0, proposal)  # advances step, bumps epoch
        assert v.on_deadline(200.0, old_epoch) == []


class TestEquivocation:
    def test_conflicting_votes_recorded_once(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        v.on_msg(2.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, d))
        other = bytes(32)
        v.on_msg(3.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, other))
        assert len(v.evidence) == 1
        ev = v.evidence[0]
        assert ev.sender == addrs[2] and ev.step == "prevote"
        assert v.prevotes[0][addrs[2]] == d  # first vote kept


class TestDecisionSync:
    def commit_one(self, keyring, keys, addrs):
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        v.on_msg(2.0, vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, d))
        v.on_msg(3.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, d))
        v.on_msg(4.0, vote(keyring, keys[1], MsgKind.PRECOMMIT, 1, 0, d))
        out = v.on_msg(5.0, vote(keyring, keys[2], MsgKind.PRECOMMIT, 1, 0, d))
        return v, take(out, Committed)[0].block

    def test_laggard_adopts_sealed_decision(self, keyring):
        keys, addrs = committee_of(keyring)
        v, sealed = self.commit_one(keyring, keys, addrs)
        lag = make_validator(keyring, keys, addrs, 3)
        decision = vote(keyring, keys[0], MsgKind.DECISION, 1, 0, sealed.digest())
        decision = replace(decision, block=sealed)
        out = lag.on_msg(9.0, decision)
        assert take(out, Committed)
        assert lag.ledger.head_digest() == sealed.digest()

    def test_bad_seal_rejected(self, keyring):
        keys, addrs = committee_of(keyring)
        v, sealed = self.commit_one(keyring, keys, addrs)
        # Strip signatures below quorum.
        weak = sealed.with_seal(replace(sealed.seal, quorum_signatures=sealed.seal.quorum_signatures[:2]))
        lag = make_validator(keyring, keys, addrs, 3)
        assert not lag.verify_sealed(weak)
        decision = vote(keyring, keys[0], MsgKind.DECISION, 1, 0, weak.digest())
        decision = replace(decision, block=weak)
        assert lag.on_msg(9.0, decision) == []
        assert lag.ledger.height == 0

    @pytest.mark.parametrize("replica", ["validator", "follower"])
    def test_seal_check(self, keyring, replica):
        keys, addrs = committee_of(keyring)
        _v, sealed = self.commit_one(keyring, keys, addrs)
        if replica == "validator":
            checker = make_validator(keyring, keys, addrs, 3)
        else:
            checker = ZoneFollower(1, addrs, keyring)
        sigs = sealed.seal.quorum_signatures
        assert len(sigs) == checker.quorum == 3

        def with_sigs(quorum_signatures):
            return sealed.with_seal(replace(sealed.seal, quorum_signatures=quorum_signatures))

        stranger = keyring.new_account()
        outsider_sig = vote(keyring, stranger, MsgKind.PRECOMMIT, sealed.height,
                            sealed.seal.round, sealed.digest()).signature
        assert checker.verify_sealed(sealed)
        assert not checker.verify_sealed(with_sigs(sigs[:2]))  # below quorum
        assert not checker.verify_sealed(with_sigs(sigs[:2] + sigs[:1]))  # repeat counted once
        assert not checker.verify_sealed(with_sigs(sigs[:2] + ((stranger.address, outsider_sig),)))
        assert not checker.verify_sealed(sealed.with_seal(PowSeal(addrs[0], 0, 2 ** 256 - 1)))

    def test_follower_buffers_out_of_order(self, keyring):
        keys, addrs = committee_of(keyring)
        v, sealed1 = self.commit_one(keyring, keys, addrs)
        follower = ZoneFollower(1, addrs, keyring)
        assert follower.on_decision(sealed1) == [sealed1]
        assert follower.ledger.height == 1


class TestRandomizedSafety:
    def test_equivocating_validator_cannot_split_honest_commits(self):
        # Short full-stack runs with one equivocating validator of four:
        # honest replicas must agree at every height (sampled; the full
        # 500-run sweep lives in the acceptance suite).
        for seed in range(8):
            scn = Scenario(
                name="byz", seed=seed, duration_ms=6_000,
                domains=[DomainSpec(zone_id=1, validators=4, byzantine=1, delegates=1)],
                inter=InterSpec(miners=1, contracts=1),
                workload=WorkloadSpec(intra_rate_per_s=40, intra_until_ms=4_000,
                                      intra_payload_bytes=16),
                faults=[{"at_ms": 0, "fault": "byzantine", "node": "val:1:3",
                         "behavior": "equivocate"}],
                log_payloads=False,
            )
            report, h = run(scn)
            honest = [n.core.ledger for i, n in enumerate(h.validators[1]) if i != 3]
            min_h = min(l.height for l in honest)
            for height in range(1, min_h + 1):
                digests = {l.block_digest(height) for l in honest}
                assert len(digests) == 1, f"seed {seed} height {height}"
            assert report.safety_violations == 0

    def test_round_bound_under_crash_fault_sweep(self):
        # Delays below the synchrony bound and at most f crash faults:
        # every committed height settles within f+1 rounds, whichever
        # validator is faulted.
        for victim in range(4):
            scn = Scenario(
                name="sweep", seed=40 + victim, duration_ms=10_000,
                domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
                inter=InterSpec(miners=1, contracts=1),
                workload=WorkloadSpec(intra_rate_per_s=20, intra_payload_bytes=16),
                faults=[{"at_ms": 0, "fault": "crash", "node": f"val:1:{victim}"}],
                log_payloads=False,
            )
            _, h = run(scn)
            observer = next(n for i, n in enumerate(h.validators[1]) if i != victim)
            ledger = observer.core.ledger
            assert ledger.height >= 3
            for block in ledger.blocks[1:]:
                assert block.seal.round <= 2, (victim, block.height, block.seal.round)

    def test_identical_seed_identical_ledgers(self):
        scn = Scenario(
            name="det", seed=5, duration_ms=8_000,
            domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
            inter=InterSpec(miners=1, contracts=1),
            workload=WorkloadSpec(intra_rate_per_s=25, intra_payload_bytes=16),
            log_payloads=False,
        )
        _, h1 = run(scn)
        _, h2 = run(scn)
        b1 = [b.serialize() for b in h1.validators[1][0].core.ledger.blocks]
        b2 = [b.serialize() for b in h2.validators[1][0].core.ledger.blocks]
        assert b1 == b2
