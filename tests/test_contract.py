"""Broker contract state machine: transitions, guards, and conservation."""

import itertools
import random
from dataclasses import replace

import pytest

from fedledger.chain import Checkpoint
from fedledger.contract import (
    BrokerInfo,
    BrokerStatus,
    InsufficientEscrow,
    InvalidDelegate,
    InvalidState,
    Unauthorized,
    commit_service,
    configure_publisher,
    configure_subscriber,
    replace_delegate,
    settle_payment,
)
from fedledger.crypto import sha256


def cp(zone=1):
    return Checkpoint(zone, sha256(b"tx%d" % zone), 3, sha256(b"head%d" % zone))


@pytest.fixture
def parties(keyring):
    admin = keyring.new_account().address
    dp0, dp1, ds0, ds1 = (keyring.new_account().address for _ in range(4))
    info = BrokerInfo(contract_id=1, admin=admin, delegation_list=(dp0, dp1, ds0, ds1))
    return admin, dp0, dp1, ds0, ds1, info


SERVICE = sha256(b"service")


class TestConfigure:
    def test_publisher_first_transition(self, parties):
        _, dp0, _, _, _, info = parties
        out = configure_publisher(info, dp0, cp(1), SERVICE)
        assert out.pub.status == 1 and out.pub.delegate == dp0
        assert out.broker_status == BrokerStatus.EMPTY
        assert out.tx_refs == (cp(1),)

    def test_unauthorized_caller_rejected(self, parties, keyring):
        *_, info = parties
        mallory = keyring.new_account().address
        with pytest.raises(Unauthorized):
            configure_publisher(info, mallory, cp(1), SERVICE)

    def test_both_sides_configured(self, parties):
        _, dp0, _, ds0, _, info = parties
        out = configure_publisher(info, dp0, cp(1), SERVICE)
        out = configure_subscriber(out, ds0, cp(2), SERVICE, 10_000)
        assert out.broker_status == BrokerStatus.CONFIGURED
        assert out.escrow == 10_000 and out.sub.status == 1 and out.sub.delegate == ds0

    def test_zero_deposit_rejected(self, parties):
        _, _, _, ds0, _, info = parties
        with pytest.raises(InsufficientEscrow):
            configure_subscriber(info, ds0, cp(2), SERVICE, 0)

    def test_double_configure_same_side_rejected(self, parties):
        _, dp0, dp1, _, _, info = parties
        out = configure_publisher(info, dp0, cp(1), SERVICE)
        with pytest.raises(InvalidState):
            configure_publisher(out, dp1, cp(1), SERVICE)

    def test_order_independence(self, parties):
        # Both configuration orders end in the same record, field for field.
        _, dp0, _, ds0, _, info = parties
        a = configure_subscriber(configure_publisher(info, dp0, cp(1), SERVICE),
                                 ds0, cp(2), SERVICE, 500)
        b = configure_publisher(configure_subscriber(info, ds0, cp(2), SERVICE, 500),
                                dp0, cp(1), SERVICE)
        assert a == b or (a.tx_refs != b.tx_refs)  # tx_refs order differs
        for f in ("pub", "sub", "broker_status", "escrow"):
            assert getattr(a, f) == getattr(b, f), f
        assert set(a.tx_refs) == set(b.tx_refs)

    def test_publisher_with_another_service_rejected(self, parties):
        # Joining a record whose subscriber asked for another service would
        # pair two unrelated sessions on one contract.
        _, dp0, _, ds0, _, info = parties
        out = configure_subscriber(info, ds0, cp(2), SERVICE, 10_000)
        with pytest.raises(InvalidState, match="service digest"):
            configure_publisher(out, dp0, cp(1), sha256(b"another service"))


def configured(parties, deposit=10_000):
    _, dp0, _, ds0, _, info = parties
    out = configure_publisher(info, dp0, cp(1), SERVICE)
    return configure_subscriber(out, ds0, cp(2), SERVICE, deposit)


class TestCommit:
    def test_both_calls_reach_committed(self, parties):
        _, dp0, _, ds0, _, _ = parties
        out = configured(parties)
        out = commit_service(out, dp0)
        assert out.broker_status == BrokerStatus.CONFIGURED and out.pub.committed
        out = commit_service(out, ds0)
        assert out.broker_status == BrokerStatus.COMMITTED and out.sub.committed

    def test_single_call_stays_configured(self, parties):
        _, dp0, _, _, _, _ = parties
        out = commit_service(configured(parties), dp0)
        assert out.broker_status == BrokerStatus.CONFIGURED

    def test_commit_without_subscriber_invalid(self, parties):
        _, dp0, _, _, _, info = parties
        half = configure_publisher(info, dp0, cp(1), SERVICE)
        with pytest.raises(InvalidState):
            commit_service(half, dp0)

    def test_commit_by_outsider_rejected(self, parties, keyring):
        out = configured(parties)
        with pytest.raises(Unauthorized):
            commit_service(out, keyring.new_account().address)


class TestSettle:
    def test_payout_flow(self, parties):
        _, dp0, _, ds0, _, _ = parties
        out = commit_service(commit_service(configured(parties), dp0), ds0)
        out, payee, amount = settle_payment(out, dp0)
        assert payee == dp0 and amount == 10_000
        assert out.escrow == 0 and out.broker_status == BrokerStatus.PAID

    def test_replay_guard(self, parties):
        _, dp0, _, ds0, _, _ = parties
        out = commit_service(commit_service(configured(parties), dp0), ds0)
        out, _, _ = settle_payment(out, dp0)
        with pytest.raises(InvalidState):
            settle_payment(out, dp0)

    def test_settle_before_commit_invalid(self, parties):
        _, dp0, _, _, _, _ = parties
        with pytest.raises(InvalidState):
            settle_payment(configured(parties), dp0)

    def test_either_party_may_trigger(self, parties):
        _, dp0, _, ds0, _, _ = parties
        out = commit_service(commit_service(configured(parties), dp0), ds0)
        _, payee, _ = settle_payment(out, ds0)
        assert payee == dp0  # escrow always lands with the publisher


class TestReplaceDelegate:
    def test_failover_rebind_preserves_state(self, parties):
        admin, dp0, dp1, ds0, _, _ = parties
        out = configured(parties)
        new = replace_delegate(out, admin, dp0, dp1)
        assert new.pub.delegate == dp1
        assert new == replace(out, pub=replace(out.pub, delegate=dp1))

    def test_non_admin_rejected(self, parties):
        _, dp0, dp1, _, _, _ = parties
        out = configured(parties)
        with pytest.raises(Unauthorized):
            replace_delegate(out, dp0, dp0, dp1)

    def test_skip_ahead_rejected(self, parties):
        admin, dp0, _, ds0, _, _ = parties
        out = configured(parties)
        with pytest.raises(InvalidDelegate):
            replace_delegate(out, admin, dp0, ds0)  # ds0 is two entries ahead

    def test_old_delegate_outside_the_list_rejected(self, parties, keyring):
        admin, dp0, _, _, _, _ = parties
        out = configured(parties)
        with pytest.raises(InvalidDelegate, match="not in the delegation list"):
            replace_delegate(out, admin, keyring.new_account().address, dp0)

    def test_unbound_old_delegate_rejected(self, parties):
        admin, dp0, dp1, _, _, info = parties
        with pytest.raises(InvalidState):
            replace_delegate(info, admin, dp0, dp1)  # nothing bound yet


class TestTotalityAndConservation:
    def test_every_state_method_caller_is_defined(self, parties):
        # Exhaustive enumeration over reachable statuses x methods x caller
        # classes: every combination either transitions or raises a typed
        # ContractError; nothing else may escape.
        admin, dp0, dp1, ds0, ds1, empty = parties
        states = {
            "empty": empty,
            "pub_only": configure_publisher(empty, dp0, cp(1), SERVICE),
            "sub_only": configure_subscriber(empty, ds0, cp(2), SERVICE, 5),
            "configured": configured(parties, 5),
            "half_committed": commit_service(configured(parties, 5), dp0),
            "committed": commit_service(commit_service(configured(parties, 5), dp0), ds0),
            "paid": settle_payment(
                commit_service(commit_service(configured(parties, 5), dp0), ds0), dp0)[0],
        }
        callers = [admin, dp0, dp1, ds0, ds1]
        ops = [
            lambda s, c: configure_publisher(s, c, cp(1), SERVICE),
            lambda s, c: configure_subscriber(s, c, cp(2), SERVICE, 5),
            lambda s, c: commit_service(s, c),
            lambda s, c: settle_payment(s, c),
            lambda s, c: replace_delegate(s, c, dp0, dp1),
        ]
        checked = 0
        for (name, state), op, caller in itertools.product(states.items(), ops, callers):
            try:
                op(state, caller)
            except (Unauthorized, InvalidState, InsufficientEscrow, InvalidDelegate):
                pass
            checked += 1
        assert checked == len(states) * len(ops) * len(callers)

    def test_escrow_conservation_over_random_sequences(self, parties):
        # deposits - payouts == current escrow after any op sequence.
        admin, dp0, dp1, ds0, ds1, empty = parties
        rnd = random.Random(77)
        for _ in range(300):
            info = empty
            deposits = payouts = 0
            for _ in range(rnd.randint(1, 12)):
                op = rnd.randrange(5)
                caller = rnd.choice([admin, dp0, dp1, ds0, ds1])
                try:
                    if op == 0:
                        info = configure_publisher(info, caller, cp(1), SERVICE)
                    elif op == 1:
                        amount = rnd.randint(1, 50)
                        info = configure_subscriber(info, caller, cp(2), SERVICE, amount)
                        deposits += amount
                    elif op == 2:
                        info = commit_service(info, caller)
                    elif op == 3:
                        info, _, amount = settle_payment(info, caller)
                        payouts += amount
                    else:
                        info = replace_delegate(info, caller, dp0, dp1)
                except (Unauthorized, InvalidState, InsufficientEscrow, InvalidDelegate):
                    continue
            assert deposits - payouts == info.escrow
            if info.broker_status == BrokerStatus.PAID:
                assert info.escrow == 0
            if info.broker_status == BrokerStatus.COMMITTED:
                assert info.pub.status == 1 and info.sub.status == 1
