"""Consensus state machine: proposer rotation, quorum rules, timeouts,
equivocation evidence, decision sync, seal checks that reuse verified
precommits, vote tallies and their quorum flags, the signature memo, and
randomized safety runs."""

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedledger.bft import (
    Broadcast,
    Committed,
    Committee,
    CommitteeReplica,
    ConsensusMsg,
    Deadline,
    MsgKind,
    ProposeAt,
    Validator,
    ZoneFollower,
)
from fedledger.chain import IntraTx, PowSeal, build_block, signed_intra_tx, transfer_payload
from fedledger.crypto import Keyring
from fedledger.nodes import ValidatorNode
from fedledger.runner import run
from fedledger.scenario import DomainSpec, InterSpec, Scenario, WorkloadSpec


def committee_of(keyring, n=4):
    keys = [keyring.new_account() for _ in range(n)]
    addrs = [k.address for k in keys]
    return keys, addrs


def make_validator(keyring, keys, addrs, idx, **kw):
    """Validator ``idx`` of a zone-1 committee with the scenario's domain
    defaults; proposals are due at once unless ``kw`` sets an interval."""
    spec = DomainSpec(zone_id=1)
    kw = {"block_capacity": spec.block_capacity, "round_timeout_ms": spec.round_timeout_ms,
          "block_interval_ms": 0.0, **kw}
    return Validator(keys[idx], Committee.of(addrs), 1, keyring, **kw)


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
        assert v.locked_block.digest() == d
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
        assert v.locked_block.digest() == d  # stays locked across rounds

    def test_messages_from_outsiders_dropped(self, keyring):
        keys, addrs = committee_of(keyring)
        v, proposal = drive_to_proposal(keyring, keys, addrs)
        stranger = keyring.new_account()
        d = proposal.block_digest
        v.on_msg(1.0, proposal)
        for k in (keys[1],):
            v.on_msg(2.0, vote(keyring, k, MsgKind.PREVOTE, 1, 0, d))
        out = v.on_msg(3.0, vote(keyring, stranger, MsgKind.PREVOTE, 1, 0, d))
        assert v.validator_id not in v.precommits.get(v.round, {})  # stranger vote cannot finish a quorum
        assert v.prevote_tally[0][d] == 2

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
        # The memo of the verified genuine vote carries over to no other
        # object: with one signature byte flipped, or another digest under
        # the genuine signature (which would be equivocation evidence), it
        # is dropped, like the forgery under another sender above.
        flipped = replace(good, signature=bytes([good.signature[0] ^ 1]) + good.signature[1:])
        assert not keyring.verify_signed(flipped)
        v.on_msg(4.0, flipped)
        v.on_msg(5.0, replace(good, block_digest=bytes(32)))
        assert v.evidence == []
        assert len(v.prevotes[0]) == 2


class TestTimeouts:
    def test_nil_prevote_on_silent_proposer(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0)
        start = v.start(0.0)
        deadline = take(start, Deadline)[0]
        assert deadline.at == pytest.approx(v.round_timeout_ms)  # delta_base * (0+1)
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

    def test_nil_prevote_is_a_prior_vote(self, keyring):
        keys, addrs = committee_of(keyring)
        v = make_validator(keyring, keys, addrs, 0)
        v.on_msg(1.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, None))
        v.on_msg(2.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, None))
        assert v.prevote_tally == {0: {None: 1}}  # a repeated nil vote counts once
        d = bytes(32)
        v.on_msg(3.0, vote(keyring, keys[2], MsgKind.PREVOTE, 1, 0, d))
        assert v.prevotes[0] == {addrs[2]: None}  # first vote kept
        assert [(e.step, e.digests) for e in v.evidence] == [("prevote", (None, d))]


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
            checker = ZoneFollower(Committee.of(addrs), keyring)
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
        follower = ZoneFollower(Committee.of(addrs), keyring)
        assert follower.on_decision(sealed1) == [sealed1]
        assert follower.ledger.height == 1


class TestSealReuse:
    """A validator counts a seal entry without hashing only when it equals
    the precommit it verified on arrival, for the same sender, height and
    round; any other entry is hashed as by a follower."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        verify = Keyring.verify

        def counting(self, *args):
            calls.append(args)
            return verify(self, *args)

        monkeypatch.setattr(Keyring, "verify", counting)
        return calls

    def lagging(self, keyring, keys, addrs, height, round_, digest):
        """Validator 3, at height 1 without the proposal, holding the
        precommits of validators 0-2 for (height, round_, digest)."""
        lag = make_validator(keyring, keys, addrs, 3)
        for i in range(3):
            lag.on_msg(float(i), vote(keyring, keys[i], MsgKind.PRECOMMIT, height, round_, digest))
        assert lag.ledger.height == 0
        return lag

    def test_recorded_precommits_are_not_hashed_again(self, keyring, verify_calls):
        keys, addrs = committee_of(keyring)
        _v, sealed = TestDecisionSync().commit_one(keyring, keys, addrs)
        lag = self.lagging(keyring, keys, addrs, 1, 0, sealed.digest())
        verify_calls.clear()
        assert lag.verify_sealed(sealed)
        assert verify_calls == []
        assert make_validator(keyring, keys, addrs, 3).verify_sealed(sealed)
        assert ZoneFollower(Committee.of(addrs), keyring).verify_sealed(sealed)
        assert len(verify_calls) == 2 * 3  # a fresh validator and a follower hash every entry

    @pytest.mark.parametrize("other", ["round", "digest", "height"])
    def test_precommit_of_another_vote_is_not_reused(self, keyring, verify_calls, other):
        # The lagging validator holds genuine precommits for one vote. The
        # seal carries the same signatures for a vote that differs in one
        # of height, round and digest, so each entry is hashed and fails.
        keys, addrs = committee_of(keyring)
        _v, sealed = TestDecisionSync().commit_one(keyring, keys, addrs)
        d = sealed.digest()
        later = build_block(d, 2, (), 0, sealed.seal)
        block, recorded = {
            "round": (sealed, (1, 1, d)),
            "digest": (replace(sealed, timestamp=sealed.timestamp + 1), (1, 0, d)),
            "height": (later, (1, 0, later.digest())),
        }[other]
        signed = tuple((k.address, vote(keyring, k, MsgKind.PRECOMMIT, *recorded).signature)
                       for k in keys[:3])
        forged = block.with_seal(replace(sealed.seal, quorum_signatures=signed))
        lag = self.lagging(keyring, keys, addrs, *recorded)
        verify_calls.clear()
        assert not lag.verify_sealed(forged)
        assert len(verify_calls) == 3

    def test_differing_signature_is_hashed(self, keyring, verify_calls):
        keys, addrs = committee_of(keyring)
        _v, sealed = TestDecisionSync().commit_one(keyring, keys, addrs)
        lag = self.lagging(keyring, keys, addrs, 1, 0, sealed.digest())
        (addr, _sig), *rest = sealed.seal.quorum_signatures
        forged = sealed.with_seal(replace(sealed.seal, quorum_signatures=((addr, bytes(32)), *rest)))
        verify_calls.clear()
        assert not lag.verify_sealed(forged)
        assert [args[0] for args in verify_calls] == [addr]


CHAIN_HEIGHTS = 6
CLIENT_FUNDS = 100


@lru_cache(maxsize=None)
def sealed_chain(n):
    """Heights 1..CHAIN_HEIGHTS of a committee of n run in lockstep.

    Every message is delivered in send order and no timer fires. Returns
    the keyring, keys, addresses, client and, per height, each sealed
    version of the block (validators that seal it themselves collect
    different signature sets). Transfers spend the client's funds, and
    the later ones fail, so the books differ from height to height.
    """
    keyring = Keyring(random.Random(n))
    keys, addrs = committee_of(keyring, n)
    client = keyring.new_account()
    txs = [signed_intra_tx(client, 1, transfer_payload(addrs[i % n], 30), i) for i in range(8)]
    vals = [make_validator(keyring, keys, addrs, i, block_capacity=2,
                           balances={client.address: CLIENT_FUNDS}) for i in range(n)]
    queue, versions = [], {}

    def apply(i, effects):
        for e in effects:
            if isinstance(e, Broadcast):
                queue.extend((j, e.msg) for j in range(n) if j != i)
            elif isinstance(e, ProposeAt):
                queue.append((i, e.height))
            elif isinstance(e, Committed):
                seen = versions.setdefault(e.block.height, [])
                if all(b.seal != e.block.seal for b in seen):
                    seen.append(e.block)

    for i, v in enumerate(vals):
        for tx in txs:
            assert v.submit_tx(tx)
        apply(i, v.start(0.0))
    for step in range(100_000):
        if min(v.ledger.height for v in vals) >= CHAIN_HEIGHTS:
            break
        i, item = queue.pop(0)
        v = vals[i]
        apply(i, v.on_propose_timer(float(step), item) if isinstance(item, int)
              else v.on_msg(float(step), item))
    chain = [versions[h] for h in range(1, CHAIN_HEIGHTS + 1)]
    return keyring, keys, addrs, client, chain


def replica_state(replica):
    book = replica.book
    return ([b.digest() for b in replica.ledger.blocks], book.balances, book.paid, book.failed)


class TestDecisionOrder:
    @pytest.mark.parametrize("n", [4, 7])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_delivery_order_adopts_the_same_chain(self, n, data):
        keyring, keys, addrs, client, chain = sealed_chain(n)
        funds = {client.address: CLIENT_FUNDS}
        heights = list(range(len(chain)))
        repeats = data.draw(st.lists(st.sampled_from(heights), max_size=2 * len(chain)))
        order = data.draw(st.permutations(heights + repeats))

        def deliveries(order):
            for h in order:
                sealed = chain[h][data.draw(st.integers(0, len(chain[h]) - 1))]
                sender = keys[data.draw(st.integers(0, n - 2))]
                yield sealed, vote(keyring, sender, MsgKind.DECISION, sealed.height,
                                   sealed.seal.round, sealed.digest())

        def replay(order):
            follower = ZoneFollower(Committee.of(addrs), keyring, balances=funds)
            lag = make_validator(keyring, keys, addrs, n - 1, balances=funds)
            lag.start(0.0)
            appended = []
            for t, (sealed, decision) in enumerate(deliveries(order)):
                appended += follower.on_decision(sealed)
                out = lag.on_msg(float(t), replace(decision, block=sealed))
                assert not [e for e in out if isinstance(e, Broadcast)]  # adopted, not announced
            assert [b.height for b in appended] == list(range(1, len(chain) + 1))
            assert lag.height == lag.ledger.height + 1
            return replica_state(follower), replica_state(lag)

        in_order = replay(heights)
        assert in_order[0] == in_order[1]
        assert in_order[0][2] and in_order[0][3]  # some transfers applied, some failed
        assert replay(order) == in_order


class TestTamperedProposal:
    def test_swapped_transactions_dropped(self, keyring):
        keys, addrs = committee_of(keyring)
        proposer = make_validator(keyring, keys, addrs, 1)
        client = keyring.new_account()
        for i in range(3):
            proposer.submit_tx(signed_tx(keyring, client, b"p%d" % i, i))
        proposal = take(proposer.on_propose_timer(0.0, 1), Broadcast)[0].msg
        # The signature covers the digest, not the body: the relayed copy
        # still verifies, but its block no longer hashes to that digest.
        swapped = replace(proposal, block=replace(proposal.block, txs=proposal.block.txs[::-1]))
        assert keyring.verify_signed(swapped)
        assert swapped.block.digest() != proposal.block_digest
        v = make_validator(keyring, keys, addrs, 0)
        assert v.on_msg(1.0, swapped) == []
        assert v.proposals == {}
        out = v.on_msg(2.0, proposal)  # the genuine one still counts
        assert [b.msg.block_digest for b in take(out, Broadcast)] == [proposal.block_digest]

    def test_run_with_a_swapping_relay_completes(self, monkeypatch):
        # val:1:1 sends its own proposals with their transactions reversed
        # to two of its three peers. Those peers drop them; the run goes on
        # and every replica commits the same blocks, none of them swapped.
        swapped = []
        fanout = ValidatorNode._fanout

        def swapping(self, sim, msg):
            if self.node_id == "val:1:1" and msg.kind == MsgKind.PROPOSAL and len(msg.block.txs) > 1:
                bad = replace(msg, block=replace(msg.block, txs=msg.block.txs[::-1]))
                swapped.append(bad)
                for t in self.peers[1:]:
                    sim.send(self.node_id, t, bad)
                for t in self.peers[:1]:
                    sim.send(self.node_id, t, msg)
                return
            fanout(self, sim, msg)

        monkeypatch.setattr(ValidatorNode, "_fanout", swapping)
        scn = Scenario(
            name="swap", seed=11, duration_ms=12_000,
            domains=[DomainSpec(zone_id=1, validators=4, delegates=1)],
            inter=InterSpec(miners=1, contracts=1),
            workload=WorkloadSpec(intra_rate_per_s=40, intra_payload_bytes=16),
            log_payloads=False,
        )
        report, h = run(scn)
        assert swapped
        ledgers = [n.core.ledger for n in h.validators[1]]
        low = min(l.height for l in ledgers)
        assert low >= 3
        for height in range(1, low + 1):
            assert len({l.blocks[height].digest() for l in ledgers}) == 1
        committed = {b.digest() for l in ledgers for b in l.blocks}
        assert not committed & {s.block.digest() for s in swapped}
        assert report.safety_violations == 0


def recount(table, step):
    """Tallies rebuilt from a vote table, in first-seen order, as ordered lists."""
    out = []
    for r, votes in table.items():
        counts: dict = {}
        for value in votes.values():
            d = value if step == "prevote" else value[0]
            counts[d] = counts.get(d, 0) + 1
        out.append((r, list(counts.items())))
    return out


def as_lists(tally):
    return [(r, list(counts.items())) for r, counts in tally.items()]


class TestVoteTallies:
    @pytest.mark.parametrize("n", [4, 7])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tallies_match_recount(self, n, data):
        keyring = Keyring(random.Random(n))
        keys, addrs = committee_of(keyring, n)
        v = make_validator(keyring, keys, addrs, 0)
        v.start(0.0)
        digests = [None, b"\x01" * 32, b"\x02" * 32]
        steps = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from([MsgKind.PREVOTE, MsgKind.PRECOMMIT]),
                      st.integers(0, 3), st.sampled_from(digests)),
            max_size=60))
        for t, (idx, kind, round_, digest) in enumerate(steps):
            v.on_msg(float(t), vote(keyring, keys[idx], kind, 1, round_, digest))
            assert v.height == 1
            assert as_lists(v.prevote_tally) == recount(v.prevotes, "prevote")
            assert as_lists(v.precommit_tally) == recount(v.precommits, "precommit")

    def test_tallies_cleared_on_commit(self, keyring):
        keys, addrs = committee_of(keyring)
        v, sealed = TestDecisionSync().commit_one(keyring, keys, addrs)
        assert v.height == 2
        assert v.prevotes == v.precommits == v.prevote_tally == v.precommit_tally == {}


class TestQuorumFlags:
    """_maybe_progress skips a tally until some count reaches the quorum.
    Under every fault kind a run's log equals that of the same run with
    both flags always set, so that every scan runs."""

    @staticmethod
    def faults(kind, node):
        if kind == "crash-recover":
            return [{"at_ms": 1500, "fault": "crash", "node": node},
                    {"at_ms": 4000, "fault": "recover", "node": node}]
        return [{"at_ms": 0, "fault": "byzantine", "node": node, "behavior": kind}]

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("kind", ["equivocate", "silent", "delay", "crash-recover"])
    def test_log_equals_a_run_that_always_scans(self, monkeypatch, n, kind):
        new_height = Validator._new_height

        def always_scanning(self):
            new_height(self)
            self.prevote_quorum = self.precommit_quorum = True

        heights = []
        for seed in (1, 2, 3):
            scn = Scenario(
                name="flags", seed=seed, duration_ms=8_000,
                domains=[DomainSpec(zone_id=1, validators=n, byzantine=1, delegates=1)],
                inter=InterSpec(miners=1, contracts=1),
                workload=WorkloadSpec(intra_rate_per_s=30, intra_payload_bytes=16),
                faults=self.faults(kind, f"val:1:{seed}"),
                log_payloads=False,
            )
            report, h = run(scn)
            heights.append(h.validators[1][0].core.ledger.height)
            with monkeypatch.context() as m:
                m.setattr(Validator, "_new_height", always_scanning)
                always, _ = run(scn)
            assert report.event_log_digest == always.event_log_digest, (kind, n, seed)
        # Some runs stall (an equivocator can stop a 4-validator zone), not all.
        assert max(heights) >= 3


class TestSignatureMemo:
    def test_other_keyring_checks_again(self, keyring):
        keys, _addrs = committee_of(keyring)
        msg = vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, bytes(32))
        assert keyring.verify_signed(msg)
        stranger_ring = Keyring(random.Random(7))  # does not know the signer
        assert not stranger_ring.verify_signed(msg)
        assert not stranger_ring.verify_signed(msg)
        assert keyring.verify_signed(msg)

    def test_other_keyring_validator_drops_verified_vote(self, keyring):
        keys, addrs = committee_of(keyring)
        msg = vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, bytes(32))
        assert keyring.verify_signed(msg)
        v = make_validator(Keyring(random.Random(7)), keys, addrs, 0)
        v.on_msg(1.0, msg)
        assert v.prevotes == {}

    def test_failure_not_remembered(self, keyring, monkeypatch):
        keys, _addrs = committee_of(keyring)
        good = vote(keyring, keys[1], MsgKind.PREVOTE, 1, 0, bytes(32))
        bad = replace(good, signature=bytes(32))
        calls = []
        verify = Keyring.verify

        def counting(self, *args):
            calls.append(args)
            return verify(self, *args)

        monkeypatch.setattr(Keyring, "verify", counting)
        assert not keyring.verify_signed(bad)
        assert not keyring.verify_signed(bad)
        assert len(calls) == 2  # each failed check hashes again
        assert keyring.verify_signed(good) and keyring.verify_signed(good)
        assert len(calls) == 3  # a success is hashed once

    def test_verify_calls_once_per_signed_object(self, monkeypatch):
        # Counts in a deterministic run, so they repeat exactly: every
        # Keyring.verify call is either a seal probe or the first check of
        # one signed object.
        verified: dict = {}  # id -> object, kept alive so ids stay unique
        counts = {"signed": 0, "verify": 0, "probe": 0}
        in_seal = []
        verify, verify_signed, verify_sealed = (
            Keyring.verify, Keyring.verify_signed, CommitteeReplica.verify_sealed)

        def counting_verify(self, *args):
            counts["probe" if in_seal else "verify"] += 1
            return verify(self, *args)

        def counting_signed(self, obj):
            counts["signed"] += 1
            verified[id(obj)] = obj
            return verify_signed(self, obj)

        def counting_sealed(self, block):
            in_seal.append(block)
            try:
                return verify_sealed(self, block)
            finally:
                in_seal.pop()

        monkeypatch.setattr(Keyring, "verify", counting_verify)
        monkeypatch.setattr(Keyring, "verify_signed", counting_signed)
        monkeypatch.setattr(CommitteeReplica, "verify_sealed", counting_sealed)
        scn = Scenario(
            name="memo", seed=3, duration_ms=4_000,
            domains=[DomainSpec(zone_id=1, validators=16, delegates=1)],
            inter=InterSpec(miners=1, contracts=1),
            workload=WorkloadSpec(intra_rate_per_s=20, intra_payload_bytes=16),
            log_payloads=False,
        )
        _, h = run(scn)
        assert h.validators[1][0].core.ledger.height >= 2
        assert counts["verify"] == len(verified)
        assert counts["signed"] >= 10 * counts["verify"]


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
                digests = {l.blocks[height].digest() for l in honest}
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
