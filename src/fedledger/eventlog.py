"""Structured event log and the independent invariant checkers.

Every run appends protocol messages and state transitions as JSON-line
records (virtual timestamp, actor, event kind, digests). The log is the
input to the checkers below, which reconstruct ledger and contract state
from the logged transactions alone — independent of the runner's
in-memory objects — and to the tamper check (the report pins the log's
SHA-256).

Checkers:
  safety        no two validators commit different blocks at one height;
                no depth-k-confirmed inter tx leaves the canonical chain.
  conservation  replaying every logged value movement ends at exactly the
                genesis total supply.
  payment       a seller payment exists iff its contract replayed to PAID
                iff both commit calls precede the settlement; one payout
                per contract.
  privacy       no 8-byte substring of any private payload appears in
                inter-ledger block bytes or cross-domain message bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import contract as sc
from .contract import BrokerStatus


_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class EventLog:
    def __init__(self):
        self.events: list[dict] = []

    def emit(self, kind: str, **fields) -> None:
        rec = {"kind": kind}
        rec.update(fields)
        self.events.append(rec)

    def lines(self) -> Iterator[bytes]:
        """Each record as one compact, key-sorted JSON line ending in a
        newline, encoded as it is reached; an empty log is one newline.

        Streaming these into a hash or a file never holds more than one
        encoded line on top of the records themselves.
        """
        if not self.events:
            yield b"\n"
            return
        encode = _LINE_ENCODER.encode
        for e in self.events:
            yield (encode(e) + "\n").encode()

    def serialize(self) -> bytes:
        """The whole log as bytes: the join of ``lines()``."""
        return b"".join(self.lines())

    def digest(self, path: str | None = None) -> str:
        """The SHA-256 hex of ``serialize()``, hashed a line at a time; each
        line is also written to ``path`` when one is given."""
        sha = hashlib.sha256()
        with (open(path, "wb") if path else contextlib.nullcontext()) as f:
            for line in self.lines():
                sha.update(line)
                if f is not None:
                    f.write(line)
        return sha.hexdigest()


def parse_events(chunks: Iterable[bytes]) -> list[dict]:
    """The records of a serialized log, in order, from byte chunks that
    each end at a line break or at the end of the log: the lines of a file
    opened "rb", or ``data.splitlines()``."""
    return [json.loads(line) for chunk in chunks for line in chunk.decode().splitlines() if line]


# The fields the checkers read, per record kind, and the shape of each
# value; every record needs a string "kind", and other kinds are read for
# it alone. A shape is a JSON type (int: never true/false; bytes: a hex
# string; object: anything), [shape] for a list, {str: shape} for an
# object of entries, or a dict of fields (a name ending in "?" may be absent).
_INTER_TX = {"sender": bytes, "fee": int, "attached": int, "method": str, "cid": int,
             "args": bytes, "cp_zone?": int, "cp_ref?": bytes, "cp_height?": int, "cp_head?": bytes}
CHECKED_FIELDS: dict[str, dict] = {
    "genesis": {"total_supply": int, "inter_balances": {str: int},
                "intra_balances": {str: {str: int}},
                "contracts": [{"cid": int, "admin": bytes, "delegation": [bytes]}]},
    "intra_submit": {"payload?": bytes},
    "intra_commit": {"zone": int, "height": int, "block": str},
    "intra_block": {"zone": int, "height": int, "block": str,
                    "transfers?": [{"frm": str, "to": str, "amount": int, "memo": int}]},
    "inter_block": {"block": str, "miner": str, "txs": [_INTER_TX], "bytes?": bytes},
    "inter_canonical": {"blocks": [str]},
    "inter_revert_confirmed": {"at": object, "txs": object},
    "xdom": {"src": object, "dst": object, "bytes": bytes},
}
_NAMES = {int: "an integer", str: "a string", bytes: "a hex string", list: "a list", dict: "an object"}


def _mismatch(value, shape) -> tuple[str, str | None] | None:
    """(path, the kind expected there, None if absent) at the first part of
    ``value`` that breaks ``shape``, or None if it all conforms."""
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if kind is bytes:
        try:
            bytes.fromhex(value)
            return None
        except (TypeError, ValueError):
            return "", _NAMES[bytes]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        return "", _NAMES[kind]
    if isinstance(shape, list):
        parts = [(f"[{i}]", v, shape[0]) for i, v in enumerate(value)]
    elif isinstance(shape, dict) and str in shape:
        parts = [(f"[{k}]", v, shape[str]) for k, v in value.items()]
    elif isinstance(shape, dict):
        missing = [name for name in shape if not name.endswith("?") and name not in value]
        if missing:
            return f".{missing[0]}", None
        fields = ((name.rstrip("?"), sub) for name, sub in shape.items())
        parts = [(f".{key}", value[key], sub) for key, sub in fields if key in value]
    else:
        return None
    for path, v, sub in parts:
        bad = _mismatch(v, sub)
        if bad is not None:
            return path + bad[0], bad[1]
    return None


def bad_field(record: dict) -> str | None:
    """What is wrong with the first field of ``CHECKED_FIELDS`` that
    ``record`` lacks or holds in the wrong shape, or None."""
    kind = record.get("kind")
    bad = _mismatch(record, CHECKED_FIELDS.get(kind, {}) if isinstance(kind, str) else {"kind": str})
    if bad is None:
        return None
    path, expected = bad[0].lstrip("."), bad[1]
    return f"has no field {path!r}" if expected is None else f"has field {path!r} that is not {expected}"


# -- checkers ----------------------------------------------------------------

def check_safety(events: list[dict]) -> list[str]:
    violations = []
    commits: dict[tuple, set] = {}
    for e in events:
        if e["kind"] == "intra_commit":
            commits.setdefault((e["zone"], e["height"]), set()).add(e["block"])
        elif e["kind"] == "inter_revert_confirmed":
            violations.append(f"confirmed inter tx reverted at {e['at']}: {e['txs']}")
    for (zone, height), blocks in sorted(commits.items()):
        if len(blocks) > 1:
            violations.append(f"conflicting commits in zone {zone} at height {height}: {sorted(blocks)}")
    return violations


def _logged_checkpoint(tx: dict):
    from .chain import Checkpoint
    return Checkpoint(tx.get("cp_zone", 0), bytes.fromhex(tx.get("cp_ref", "00" * 32)),
                      tx.get("cp_height", 0), bytes.fromhex(tx.get("cp_head", "00" * 32)))


@dataclass
class Replay:
    """Ledger state rebuilt from the event log alone, shared by the checkers.

    facts[cid] = {"settles": n, "paid": bool, "dual_commit_at_settle": bool}
    """

    initial_supply: int
    inter_balances: dict[str, int]
    contracts: dict[int, sc.BrokerInfo]
    facts: dict[int, dict]
    intra_books: dict[str, dict[str, int]]
    transfers: list[dict]  # applied zone transfers, in log order


def replay_log(events: list[dict]) -> Replay:
    """Replay the logged inter-ledger chain and zone transfers once."""
    genesis = next(e for e in events if e["kind"] == "genesis")
    balances, contracts, facts = _replay_inter(events, genesis)
    books, transfers = _replay_intra(events, genesis)
    return Replay(genesis["total_supply"], balances, contracts, facts, books, transfers)


def _replay_inter(events: list[dict], genesis: dict):
    """Re-execute the logged canonical chain; returns (balances, contracts, facts)."""
    balances: dict[str, int] = dict(genesis["inter_balances"])
    contracts: dict[int, sc.BrokerInfo] = {}
    for c in genesis["contracts"]:
        contracts[c["cid"]] = sc.BrokerInfo(
            contract_id=c["cid"],
            admin=bytes.fromhex(c["admin"]),
            delegation_list=tuple(bytes.fromhex(a) for a in c["delegation"]),
        )
    blocks_by_digest = {e["block"]: e for e in events if e["kind"] == "inter_block"}
    canonical = next((e for e in events if e["kind"] == "inter_canonical"), None)
    order = canonical["blocks"] if canonical else []
    facts: dict[int, dict] = {}

    def bal(a: str) -> int:
        return balances.get(a, 0)

    for bd in order:
        be = blocks_by_digest.get(bd)
        if be is None:
            continue  # genesis
        miner = be["miner"]
        for tx in be["txs"]:
            sender, fee, attached = tx["sender"], tx["fee"], tx["attached"]
            if bal(sender) < fee + attached:
                continue
            balances[sender] = bal(sender) - fee - attached
            balances[miner] = bal(miner) + fee
            method, cid = tx["method"], tx["cid"]
            caller = bytes.fromhex(sender)
            try:
                if method == "transfer":
                    to = tx["args"][:40]
                    if len(to) < 40:  # args hold no address: BadArgs, refunded
                        to = sender
                    balances[to] = bal(to) + attached
                elif method == "noop":
                    balances[sender] = bal(sender) + attached
                elif method in ("configure_publisher", "configure_subscriber",
                                "commit_service", "settle_payment", "replace_delegate"):
                    info = contracts.get(cid)
                    if info is None:
                        balances[sender] = bal(sender) + attached
                        continue
                    if method == "configure_publisher":
                        cp = _logged_checkpoint(tx)
                        contracts[cid] = sc.configure_publisher(info, caller, cp, bytes.fromhex(tx["args"]))
                        balances[sender] = bal(sender) + attached
                    elif method == "configure_subscriber":
                        cp = _logged_checkpoint(tx)
                        contracts[cid] = sc.configure_subscriber(info, caller, cp, bytes.fromhex(tx["args"]), attached)
                    elif method == "commit_service":
                        contracts[cid] = sc.commit_service(info, caller)
                        balances[sender] = bal(sender) + attached
                    elif method == "settle_payment":
                        dual = info.pub_committed and info.sub_committed
                        new, payee, amount = sc.settle_payment(info, caller)
                        contracts[cid] = new
                        payee_hex = payee.hex()
                        balances[payee_hex] = bal(payee_hex) + amount
                        balances[sender] = bal(sender) + attached
                        f = facts.setdefault(cid, {"settles": 0})
                        f["settles"] += 1
                        f["paid"] = True
                        f["dual_commit_at_settle"] = dual
                    else:
                        args = bytes.fromhex(tx["args"])
                        contracts[cid] = sc.replace_delegate(info, caller, args[:20], args[20:40])
                        balances[sender] = bal(sender) + attached
                else:
                    balances[sender] = bal(sender) + attached
            except sc.ContractError:
                balances[sender] = bal(sender) + attached
    return balances, contracts, facts


def _replay_intra(events: list[dict], genesis: dict):
    """Re-apply logged zone transfers; returns (books, applied transfers)."""
    books = {zone: dict(b) for zone, b in genesis["intra_balances"].items()}
    applied: list[dict] = []
    seen_blocks = set()
    for e in events:
        if e["kind"] != "intra_block":
            continue
        key = (e["zone"], e["height"], e["block"])
        if key in seen_blocks:
            continue
        seen_blocks.add(key)
        book = books.setdefault(str(e["zone"]), {})
        for t in e.get("transfers", []):
            frm, to, amount = t["frm"], t["to"], t["amount"]
            if book.get(frm, 0) < amount:
                continue
            book[frm] = book.get(frm, 0) - amount
            book[to] = book.get(to, 0) + amount
            applied.append({"zone": e["zone"], **t})
    return books, applied


def check_conservation(rp: Replay) -> tuple[int, list[str]]:
    initial = rp.initial_supply
    total = sum(rp.inter_balances.values())
    total += sum(c.escrow for c in rp.contracts.values())
    for book in rp.intra_books.values():
        total += sum(book.values())
    delta = total - initial
    violations = []
    if delta != 0:
        violations.append(f"conservation delta {delta} (replayed {total} vs initial {initial})")
    for a, v in rp.inter_balances.items():
        if v < 0:
            violations.append(f"negative inter balance for {a}: {v}")
    return delta, violations


def check_payment_safety(rp: Replay) -> list[str]:
    violations = []
    # Seller payments are transfers tagged with the contract id (memo != 0).
    payments: dict[int, list[dict]] = {}
    for t in rp.transfers:
        if t["memo"]:
            payments.setdefault(t["memo"], []).append(t)
    for cid, plist in sorted(payments.items()):
        f = rp.facts.get(cid, {})
        if not f.get("paid"):
            violations.append(f"payment for contract {cid} without a settled (PAID) contract")
        if len(plist) > 1:
            violations.append(f"double payout for contract {cid}: {len(plist)} payments")
        if not f.get("dual_commit_at_settle", True):
            violations.append(f"contract {cid} settled without dual commitment")
    for cid, f in sorted(rp.facts.items()):
        if f.get("settles", 0) > 1:
            violations.append(f"contract {cid} settled {f['settles']} times")
    for cid, info in sorted(rp.contracts.items()):
        if info.broker_status == BrokerStatus.PAID and info.escrow != 0:
            violations.append(f"contract {cid} PAID with nonzero escrow {info.escrow}")
        if info.broker_status == BrokerStatus.COMMITTED and not (info.pub_committed and info.sub_committed):
            violations.append(f"contract {cid} COMMITTED without both commit flags")
    return violations


PRIVACY_WINDOW = 8  # bytes: a shared run this long counts as a leak


def payload_windows(events: list[dict]) -> set:
    """PRIVACY_WINDOW-byte windows of every logged private payload.

    Structured transfer payloads are excluded: they embed public account
    identifiers (which legitimately appear on the inter ledger), not
    private service data.
    """
    from .chain import parse_transfer
    windows = set()
    for e in events:
        if e["kind"] == "intra_submit" and "payload" in e:
            p = bytes.fromhex(e["payload"])
            if parse_transfer(p) is not None:
                continue
            for i in range(len(p) - PRIVACY_WINDOW + 1):
                windows.add(p[i:i + PRIVACY_WINDOW])
    return windows


def check_privacy(events: list[dict]) -> list[str]:
    windows = payload_windows(events)
    if not windows:
        return []
    violations = []
    for e in events:
        blob_hex = None
        where = None
        if e["kind"] == "inter_block" and "bytes" in e:
            blob_hex, where = e["bytes"], f"inter block {e['block'][:16]}"
        elif e["kind"] == "xdom":
            blob_hex, where = e["bytes"], f"message {e['src']}->{e['dst']}"
        if blob_hex is None:
            continue
        blob = bytes.fromhex(blob_hex)
        for i in range(len(blob) - PRIVACY_WINDOW + 1):
            if blob[i:i + PRIVACY_WINDOW] in windows:
                violations.append(f"private payload bytes leaked in {where} at offset {i}")
                break
    return violations


def run_all_checkers(events: list[dict]) -> tuple[int, list[str]]:
    violations = list(check_safety(events))
    rp = replay_log(events)
    delta, cons = check_conservation(rp)
    violations += cons
    violations += check_payment_safety(rp)
    violations += check_privacy(events)
    return delta, violations
