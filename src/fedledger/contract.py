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


PUB = "pub"
SUB = "sub"
OTHER_SIDE = {PUB: SUB, SUB: PUB}
_PARTY = {PUB: "publisher", SUB: "subscriber"}


@dataclass(frozen=True)
class Side:
    """One party's binding on a contract record."""

    delegate: bytes = ZERO_ADDRESS  # the broker bound there
    status: int = 0  # 1 once configured
    service: bytes = ZERO_DIGEST  # digest of the offered requirements payload
    committed: bool = False


@dataclass(frozen=True)
class BrokerInfo:
    contract_id: int
    admin: bytes
    delegation_list: tuple  # ordered authorized miner addresses, zone-contiguous
    pub: Side = Side()
    sub: Side = Side()
    broker_status: BrokerStatus = BrokerStatus.EMPTY
    tx_refs: tuple = ()  # stored Checkpoints, audit data only
    escrow: int = 0

    def is_unused(self) -> bool:
        return (
            self.broker_status == BrokerStatus.EMPTY
            and self.pub.delegate == ZERO_ADDRESS
            and self.sub.delegate == ZERO_ADDRESS
        )


def _require_delegate(info: BrokerInfo, caller: bytes) -> None:
    if caller not in info.delegation_list:
        raise Unauthorized(f"caller not in delegation list of contract {info.contract_id}")


def _configure(info: BrokerInfo, side: str, caller: bytes, cp: Checkpoint, service: bytes,
               deposit: int) -> BrokerInfo:
    """Bind ``caller`` to ``side``; a record with both sides bound is CONFIGURED."""
    _require_delegate(info, caller)
    if info.broker_status not in (BrokerStatus.EMPTY, BrokerStatus.CONFIGURED):
        raise InvalidState(f"{_PARTY[side]} configuration after commitment")
    mine, theirs = getattr(info, side), getattr(info, OTHER_SIDE[side])
    if mine.status == 1:
        raise InvalidState(f"{_PARTY[side]} side already configured")
    if theirs.status == 1 and theirs.service != service:
        # Joining an occupied record requires the same service digest;
        # otherwise two unrelated sessions could cross-pair on one record.
        raise InvalidState(f"service digest does not match the {_PARTY[OTHER_SIDE[side]]} side")
    if side == SUB and deposit <= 0:
        raise InsufficientEscrow("subscriber must escrow a positive deposit")
    return replace(
        info,
        **{side: replace(mine, delegate=caller, status=1, service=service)},
        tx_refs=info.tx_refs + (cp,),
        escrow=info.escrow + deposit,
        broker_status=BrokerStatus.CONFIGURED if theirs.status == 1 else BrokerStatus.EMPTY,
    )


def configure_publisher(info: BrokerInfo, caller: bytes, cp: Checkpoint, service: bytes) -> BrokerInfo:
    return _configure(info, PUB, caller, cp, service, 0)


def configure_subscriber(info: BrokerInfo, caller: bytes, cp: Checkpoint, service: bytes, deposit: int) -> BrokerInfo:
    return _configure(info, SUB, caller, cp, service, deposit)


def commit_service(info: BrokerInfo, caller: bytes) -> BrokerInfo:
    if caller not in (info.pub.delegate, info.sub.delegate):
        raise Unauthorized("only bound publisher or subscriber may commit")
    if info.pub.status != 1 or info.sub.status != 1:
        raise InvalidState("both sides must be configured before commitment")
    if info.broker_status not in (BrokerStatus.CONFIGURED, BrokerStatus.COMMITTED):
        raise InvalidState(f"cannot commit in status {info.broker_status.name}")
    pub = replace(info.pub, committed=True) if caller == info.pub.delegate else info.pub
    sub = replace(info.sub, committed=True) if caller == info.sub.delegate else info.sub
    status = BrokerStatus.COMMITTED if (pub.committed and sub.committed) else info.broker_status
    return replace(info, pub=pub, sub=sub, broker_status=status)


def settle_payment(info: BrokerInfo, caller: bytes) -> tuple[BrokerInfo, bytes, int]:
    """Atomically release escrow to the publisher; returns (info', payee, amount)."""
    if caller not in (info.pub.delegate, info.sub.delegate):
        raise Unauthorized("only bound publisher or subscriber may settle")
    if info.broker_status != BrokerStatus.COMMITTED:
        raise InvalidState(f"cannot settle in status {info.broker_status.name}")
    amount = info.escrow
    new = replace(info, escrow=0, broker_status=BrokerStatus.PAID)
    return new, info.pub.delegate, amount


def replace_delegate(info: BrokerInfo, caller: bytes, old: bytes, new: bytes) -> BrokerInfo:
    if caller != info.admin:
        raise Unauthorized("only the contract admin may replace a delegate")
    try:
        idx = info.delegation_list.index(old)
    except ValueError:
        raise InvalidDelegate("old delegate is not in the delegation list") from None
    if idx + 1 >= len(info.delegation_list) or info.delegation_list[idx + 1] != new:
        raise InvalidDelegate("replacement must be the next entry in the delegation list")
    for side in (PUB, SUB):
        if getattr(info, side).delegate == old:
            return replace(info, **{side: replace(getattr(info, side), delegate=new)})
    raise InvalidState("old delegate is not bound to this contract")
