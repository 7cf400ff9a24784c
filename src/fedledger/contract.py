"""Data-service-exchange broker contract.

A deterministic state machine holding participant bindings, checkpoint
audit data, escrowed funds, and the commitment/payment rules. Executed
only by inter-ledger block execution, in block order.

Lifecycle: EMPTY -> CONFIGURED (both sides bound) -> COMMITTED (both
sides committed) -> PAID (escrow released to the publisher). Checkpoints
stored in tx_refs are audit data only; verifying them against the
private ledgers is the delegates' off-chain duty.

Every method either returns the successor record (plus a payout for
settlement) or raises a typed ContractError; state is never partially
updated. Broker records are immutable values, so chain states can share
them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

from .chain import Checkpoint
from .crypto import ZERO_ADDRESS, ZERO_DIGEST


class ContractError(Exception):
    code = "ContractError"


class Unauthorized(ContractError):
    code = "Unauthorized"


class InvalidState(ContractError):
    code = "InvalidState"


class InsufficientEscrow(ContractError):
    code = "InsufficientEscrow"


class InvalidDelegate(ContractError):
    code = "InvalidDelegate"


class BadArgs(ContractError):
    code = "BadArgs"


class BrokerStatus(IntEnum):
    EMPTY = 0
    CONFIGURED = 1
    COMMITTED = 2
    PAID = 3


@dataclass(frozen=True)
class BrokerInfo:
    contract_id: int
    admin: bytes
    delegation_list: tuple  # ordered authorized miner addresses, zone-contiguous
    publisher_id: bytes = ZERO_ADDRESS
    subscriber_id: bytes = ZERO_ADDRESS
    pub_zid: int = 0
    sub_zid: int = 0
    pub_status: int = 0
    sub_status: int = 0
    pub_service: bytes = ZERO_DIGEST  # digest of the offered requirements payload
    sub_service: bytes = ZERO_DIGEST
    pub_committed: bool = False
    sub_committed: bool = False
    broker_status: BrokerStatus = BrokerStatus.EMPTY
    tx_refs: tuple = ()  # stored Checkpoints, audit data only
    escrow: int = 0

    def is_unused(self) -> bool:
        return (
            self.broker_status == BrokerStatus.EMPTY
            and self.publisher_id == ZERO_ADDRESS
            and self.subscriber_id == ZERO_ADDRESS
        )


def _require_delegate(info: BrokerInfo, caller: bytes) -> None:
    if caller not in info.delegation_list:
        raise Unauthorized(f"caller not in delegation list of contract {info.contract_id}")


def _configured_status(pub_status: int, sub_status: int) -> BrokerStatus:
    if pub_status == 1 and sub_status == 1:
        return BrokerStatus.CONFIGURED
    return BrokerStatus.EMPTY


def configure_publisher(info: BrokerInfo, caller: bytes, cp: Checkpoint, service: bytes) -> BrokerInfo:
    _require_delegate(info, caller)
    if info.broker_status not in (BrokerStatus.EMPTY, BrokerStatus.CONFIGURED):
        raise InvalidState("publisher configuration after commitment")
    if info.pub_status == 1:
        raise InvalidState("publisher side already configured")
    if info.sub_status == 1 and info.sub_service != service:
        # Joining an occupied record requires the same service digest;
        # otherwise two unrelated sessions could cross-pair on one record.
        raise InvalidState("service digest does not match the subscriber side")
    return replace(
        info,
        publisher_id=caller,
        pub_zid=cp.zone_id,
        pub_status=1,
        pub_service=service,
        tx_refs=info.tx_refs + (cp,),
        broker_status=_configured_status(1, info.sub_status),
    )


def configure_subscriber(info: BrokerInfo, caller: bytes, cp: Checkpoint, service: bytes, deposit: int) -> BrokerInfo:
    _require_delegate(info, caller)
    if info.broker_status not in (BrokerStatus.EMPTY, BrokerStatus.CONFIGURED):
        raise InvalidState("subscriber configuration after commitment")
    if info.sub_status == 1:
        raise InvalidState("subscriber side already configured")
    if info.pub_status == 1 and info.pub_service != service:
        raise InvalidState("service digest does not match the publisher side")
    if deposit <= 0:
        raise InsufficientEscrow("subscriber must escrow a positive deposit")
    return replace(
        info,
        subscriber_id=caller,
        sub_zid=cp.zone_id,
        sub_status=1,
        sub_service=service,
        tx_refs=info.tx_refs + (cp,),
        escrow=info.escrow + deposit,
        broker_status=_configured_status(info.pub_status, 1),
    )


def commit_service(info: BrokerInfo, caller: bytes) -> BrokerInfo:
    if caller not in (info.publisher_id, info.subscriber_id):
        raise Unauthorized("only bound publisher or subscriber may commit")
    if info.pub_status != 1 or info.sub_status != 1:
        raise InvalidState("both sides must be configured before commitment")
    if info.broker_status not in (BrokerStatus.CONFIGURED, BrokerStatus.COMMITTED):
        raise InvalidState(f"cannot commit in status {info.broker_status.name}")
    pub_c = info.pub_committed or caller == info.publisher_id
    sub_c = info.sub_committed or caller == info.subscriber_id
    status = BrokerStatus.COMMITTED if (pub_c and sub_c) else info.broker_status
    return replace(info, pub_committed=pub_c, sub_committed=sub_c, broker_status=status)


def settle_payment(info: BrokerInfo, caller: bytes) -> tuple[BrokerInfo, bytes, int]:
    """Atomically release escrow to the publisher; returns (info', payee, amount)."""
    if caller not in (info.publisher_id, info.subscriber_id):
        raise Unauthorized("only bound publisher or subscriber may settle")
    if info.broker_status != BrokerStatus.COMMITTED:
        raise InvalidState(f"cannot settle in status {info.broker_status.name}")
    amount = info.escrow
    new = replace(info, escrow=0, broker_status=BrokerStatus.PAID)
    return new, info.publisher_id, amount


def replace_delegate(info: BrokerInfo, caller: bytes, old: bytes, new: bytes) -> BrokerInfo:
    if caller != info.admin:
        raise Unauthorized("only the contract admin may replace a delegate")
    try:
        idx = info.delegation_list.index(old)
    except ValueError:
        raise InvalidDelegate("old delegate is not in the delegation list") from None
    if idx + 1 >= len(info.delegation_list) or info.delegation_list[idx + 1] != new:
        raise InvalidDelegate("replacement must be the next entry in the delegation list")
    if old == info.publisher_id:
        return replace(info, publisher_id=new)
    if old == info.subscriber_id:
        return replace(info, subscriber_id=new)
    raise InvalidState("old delegate is not bound to this contract")
