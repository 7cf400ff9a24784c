"""Structured event log and the independent invariant checkers.

Every run appends protocol messages and state transitions as JSON-line
records (virtual timestamp, actor, event kind, digests). The log is the
input to the checkers below, which rebuild ledger and contract state
from the logged transactions alone under the ledgers' own rules
(``powchain.apply_tx``, ``BalanceBook.transfer``), and to the tamper
check (the report pins the log's SHA-256). The log holds no signatures,
so the replay takes every logged tx as signed.

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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter

from . import contract as sc
from .chain import BalanceBook, Checkpoint, parse_transfer
from .contract import BrokerStatus
from .powchain import M_SETTLE, ChainState, InterTx, apply_tx


class BuiltRecord:
    """A log record that holds the run's own (frozen) objects and builds
    each field from them when it is read; no field value is stored.

    It reads like the dict a parsed log line holds: ``r[key]``, ``key in
    r`` and ``r.get(key)``. Each reading builds only the field it names,
    and reading "kind", which the checkers do once for every record,
    builds nothing. ``record()`` builds the whole record from ``FIELDS``,
    the one definition of each value, and ``line()`` is its log line."""

    __slots__ = ()
    kind: str
    FIELDS: dict[str, Callable]  # field name -> builds its value from the record

    def __getitem__(self, key: str):
        if key == "kind":
            return self.kind
        return self.FIELDS[key](self)

    def __contains__(self, key) -> bool:
        return key in self.FIELDS

    def get(self, key: str, default=None):
        build = self.FIELDS.get(key)
        return default if build is None else build(self)

    def record(self) -> dict:
        return {key: build(self) for key, build in self.FIELDS.items()}

    def line(self) -> bytes:
        """The record as one compact, key-sorted JSON line ending in a
        newline; a subclass may write it out, byte for byte the same."""
        return (_LINE_ENCODER.encode(self.record()) + "\n").encode()


_kind = attrgetter("kind")
_zone = attrgetter("zone")


def _at(r) -> float:
    return round(r.at, 3)


class IntraSubmit(BuiltRecord):
    """An ``intra_submit`` record: a zone tx, its zone and the virtual time
    (ms) its client submitted it."""

    __slots__ = ("zone", "tx", "at")
    kind = "intra_submit"
    FIELDS = {
        "kind": _kind,
        "zone": _zone,
        "tx": lambda r: r.tx.digest().hex(),
        "sender": lambda r: r.tx.sender.hex(),
        "at": _at,
    }

    def __init__(self, zone: int, tx, at: float):
        self.zone = zone
        self.tx = tx
        self.at = at

    def line(self) -> bytes:
        # Written out: the log holds one of these per zone tx, and this
        # takes under half the time of the JSON encoder. Every value is an
        # int, a hex string or the repr of a finite float, as JSON writes
        # it; the time keeps its type, so an integer time stays an integer.
        tx = self.tx
        return ('{"at":%r,"kind":"intra_submit","sender":"%s","tx":"%s","zone":%d}\n'
                % (round(self.at, 3), tx.sender.hex(), tx.digest().hex(), self.zone)).encode()


class IntraSubmitWithPayload(IntraSubmit):
    """An ``intra_submit`` record of a run that logs payloads."""

    __slots__ = ()
    FIELDS = {**IntraSubmit.FIELDS, "payload": lambda r: r.tx.payload.hex()}

    def line(self) -> bytes:
        tx = self.tx
        return ('{"at":%r,"kind":"intra_submit","payload":"%s","sender":"%s","tx":"%s","zone":%d}\n'
                % (round(self.at, 3), tx.payload.hex(), tx.sender.hex(), tx.digest().hex(),
                   self.zone)).encode()


def _transfer_records(block) -> list[dict]:
    return [{"frm": tx.sender.hex(), "to": to.hex(), "amount": amount, "memo": memo,
             "tx": tx.digest().hex()} for tx, to, amount, memo in block.transfers()]


class IntraBlock(BuiltRecord):
    """An ``intra_block`` record: a zone block at its first commit, and the
    virtual time (ms) of that commit. ``txs`` and ``transfers`` are built
    from the block's own tx tuple."""

    __slots__ = ("zone", "block", "at")
    kind = "intra_block"
    FIELDS = {
        "kind": _kind,
        "zone": _zone,
        "height": lambda r: r.block.height,
        "block": lambda r: r.block.digest().hex(),
        "txs": lambda r: [tx.digest().hex() for tx in r.block.txs],
        "transfers": lambda r: _transfer_records(r.block),
        "at": _at,
    }

    def __init__(self, zone: int, block, at: float):
        self.zone = zone
        self.block = block
        self.at = at


def _inter_tx_record(tx: InterTx) -> dict:
    """The logged fields of an inter tx: all but its signature."""
    rec = {"digest": tx.digest().hex(), "sender": tx.sender.hex(), "method": tx.method,
           "cid": tx.contract_id, "attached": tx.attached_value, "fee": tx.fee,
           "args": tx.args.hex()}
    cp = tx.checkpoint
    if cp is not None:
        rec["cp_zone"] = cp.zone_id
        rec["cp_ref"] = cp.tx_ref.hex()
        rec["cp_height"] = cp.block_height
        rec["cp_head"] = cp.ledger_head.hex()
    return rec


def _read_inter_tx(rec: dict) -> InterTx:
    """The inter tx of a logged record, without a signature; the logged
    digest fills its digest cache."""
    cp = None
    if "cp_zone" in rec:
        cp = Checkpoint(rec["cp_zone"], bytes.fromhex(rec["cp_ref"]), rec["cp_height"],
                        bytes.fromhex(rec["cp_head"]))
    tx = InterTx(bytes.fromhex(rec["sender"]), rec["cid"], rec["method"], bytes.fromhex(rec["args"]),
                 rec["attached"], rec["fee"], cp)
    object.__setattr__(tx, "_digest", bytes.fromhex(rec["digest"]))
    return tx


def encode_default(o):
    """The JSON value of a record, or a record value, that is built when
    read: the dict of a ``BuiltRecord``, or the logged fields of an
    ``InterTx`` in an ``inter_block`` record's ``txs``."""
    if type(o) is InterTx:
        return _inter_tx_record(o)
    if isinstance(o, BuiltRecord):
        return o.record()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=encode_default)


class EventLog:
    def __init__(self):
        self.events: list[dict | BuiltRecord] = []

    def emit(self, kind: str | BuiltRecord, /, **fields) -> None:
        """Append one record: ``fields`` under ``kind``, or, when ``kind``
        is a ``BuiltRecord`` (which names its own kind), that record."""
        if type(kind) is str:
            # The keyword dict is the caller's own, built for this call;
            # lines are key-sorted, so adding "kind" last changes no byte.
            fields["kind"] = kind
            self.events.append(fields)
        else:
            self.events.append(kind)

    def lines(self) -> Iterator[bytes]:
        """Each record as one compact, key-sorted JSON line ending in a
        newline, encoded as it is reached; an empty log is one newline.

        Streaming these into a hash or a file never holds more than one
        encoded line on top of the records themselves: a record built
        when read (a ``BuiltRecord``, or an inter block's tx fields) is built
        for its own line and dropped with it. A ``BuiltRecord`` writes its
        own line; the JSON encoder writes the dict records.
        """
        if not self.events:
            yield b"\n"
            return
        encode = _LINE_ENCODER.encode
        for e in self.events:
            if type(e) is dict:
                yield (encode(e) + "\n").encode()
            else:
                yield e.line()

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


class BadRecord(ValueError):
    """A log record that the checkers cannot read."""


def parse_events(chunks: Iterable[bytes]) -> list[dict]:
    """The records of a serialized log, in order, from byte chunks that
    each end at a line break or at the end of the log: the lines of a file
    opened "rb", or ``data.splitlines()``. Each record is checked against
    ``CHECKED_FIELDS`` (``BadRecord`` names the first bad field), and each
    logged inter tx is read into an ``InterTx``, as a run's record holds."""
    events = []
    for chunk in chunks:
        for line in chunk.decode().splitlines():
            if not line:
                continue
            n = len(events) + 1
            try:
                e = json.loads(line)
            except RecursionError:
                raise ValueError(f"record {n} is nested too deeply to parse") from None
            if not isinstance(e, dict):
                raise BadRecord(f"record {n} is not a JSON object")
            if e.get("kind") == "inter_block" and _mismatch(e, _INTER_BLOCK_READ) is None:
                # Each tx's hex fields are checked as they are decoded, once.
                try:
                    e["txs"] = [_read_inter_tx(tx) for tx in e["txs"]]
                except ValueError:
                    raise BadRecord(f"record {n} (inter_block) {bad_field(e)}") from None
            else:
                problem = bad_field(e)
                if problem is not None:
                    raise BadRecord(f"record {n} ({e.get('kind')}) {problem}")
            events.append(e)
    return events


# The fields the checkers read, per record kind, and the shape of each
# value; every record needs a string "kind", and other kinds are read for
# it alone. A shape is a JSON type (int: never true/false; bytes: a hex
# string; object: anything), [shape] for a list, {str: shape} for an
# object of entries, or a dict of fields. A field whose name ends in "?"
# may be absent, but the "?" fields of one object are all present or all
# absent: an inter tx's four checkpoint fields are one checkpoint.
_INTER_TX = {"sender": bytes, "fee": int, "attached": int, "method": str, "cid": int,
             "args": bytes, "digest": bytes,
             "cp_zone?": int, "cp_ref?": bytes, "cp_height?": int, "cp_head?": bytes}
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
_LIST, _MAP, _FIELDS = "list", "map", "fields"


def _compile(shape):
    """``shape`` as ``_mismatch`` walks it, built once per shape: a leaf
    type as it is, [sub] as (_LIST, sub), {str: sub} as (_MAP, sub), and a
    dict of fields as (_FIELDS, required, every, the optional keys), where
    ``required`` and ``every`` each pair the (key, sub) list, in
    declaration order, with its set of keys; each sub is compiled."""
    if isinstance(shape, list):
        return _LIST, _compile(shape[0])
    if isinstance(shape, dict):
        if str in shape:
            return _MAP, _compile(shape[str])
        every = tuple((name.rstrip("?"), _compile(sub)) for name, sub in shape.items())
        required = tuple(pair for pair, name in zip(every, shape) if not name.endswith("?"))
        optional = frozenset(key for key, _ in every) - {key for key, _ in required}
        return (_FIELDS, (required, frozenset(key for key, _ in required)),
                (every, frozenset(key for key, _ in every)), optional)
    return shape


def _mismatch(value, node) -> tuple[str, str | None] | None:
    """(path, the kind expected there, None if absent) at the first part of
    ``value`` that breaks the compiled shape ``node``, or None if it all
    conforms. An int or str of the exact type, an object leaf, and a
    field's hex string pass without a call; a path is built only on the
    way out of a mismatch."""
    if type(node) is not tuple:  # a leaf
        if node is bytes:
            try:
                bytes.fromhex(value)
                return None
            except (TypeError, ValueError):
                return "", _NAMES[bytes]
        if isinstance(value, node) and not (node is int and isinstance(value, bool)):
            return None
        return "", _NAMES[node]
    tag = node[0]
    if tag is _FIELDS:
        if not isinstance(value, dict):
            return "", _NAMES[dict]
        # The optional fields are checked, all of them, if any is present.
        fields, keys = node[1] if value.keys().isdisjoint(node[3]) else node[2]
        if not value.keys() >= keys:
            for key, _ in fields:
                if key not in value:
                    return f".{key}", None
        for key, sub in fields:
            v = value[key]
            if type(v) is sub or sub is object:
                continue
            if sub is bytes:
                try:
                    bytes.fromhex(v)
                    continue
                except (TypeError, ValueError):
                    return f".{key}", _NAMES[bytes]
            bad = _mismatch(v, sub)
            if bad is not None:
                return f".{key}{bad[0]}", bad[1]
        return None
    kind = list if tag is _LIST else dict
    if not isinstance(value, kind):
        return "", _NAMES[kind]
    sub = node[1]
    for k, v in (enumerate(value) if kind is list else value.items()):
        if type(v) is sub or sub is object:
            continue
        bad = _mismatch(v, sub)
        if bad is not None:
            return f"[{k}]{bad[0]}", bad[1]
    return None


_COMPILED = {kind: _compile(shape) for kind, shape in CHECKED_FIELDS.items()}
# An inter_block record's shape with its txs' hex fields taken as strings:
# a record that passes it and whose txs decode passes the full check, and
# one that fails either is named by bad_field.
_INTER_BLOCK_READ = _compile({**CHECKED_FIELDS["inter_block"],
                              "txs": [{name: str if sub is bytes else sub
                                       for name, sub in _INTER_TX.items()}]})
_NO_FIELDS, _KIND_FIELD = _compile({}), _compile({"kind": str})


def bad_field(record: dict) -> str | None:
    """What is wrong with the first field of ``CHECKED_FIELDS`` that
    ``record`` lacks or holds in the wrong shape, or None."""
    kind = record.get("kind")
    bad = _mismatch(record, _COMPILED.get(kind, _NO_FIELDS) if isinstance(kind, str) else _KIND_FIELD)
    if bad is None:
        return None
    path, expected = bad[0].lstrip("."), bad[1]
    return f"has no field {path!r}" if expected is None else f"has field {path!r} that is not {expected}"


# -- checkers ----------------------------------------------------------------

def check_safety(events: list[dict]) -> list[str]:
    violations = []
    commits: dict[tuple, set] = {}
    for e in events:
        kind = e["kind"]
        if kind == "intra_commit":
            commits.setdefault((e["zone"], e["height"]), set()).add(e["block"])
        elif kind == "inter_revert_confirmed":
            violations.append(f"confirmed inter tx reverted at {e['at']}: {e['txs']}")
    for (zone, height), blocks in sorted(commits.items()):
        if len(blocks) > 1:
            violations.append(f"conflicting commits in zone {zone} at height {height}: {sorted(blocks)}")
    return violations


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
    """Re-execute the logged canonical chain with ``apply_tx``, each tx taken
    as signed; returns (balances, contracts, facts)."""
    state = ChainState({bytes.fromhex(a): v for a, v in genesis["inter_balances"].items()},
                       {c["cid"]: sc.BrokerInfo(contract_id=c["cid"], admin=bytes.fromhex(c["admin"]),
                                                delegation_list=tuple(bytes.fromhex(a) for a in c["delegation"]))
                        for c in genesis["contracts"]})
    blocks_by_digest = {}
    canonical = None
    for e in events:
        kind = e["kind"]
        if kind == "inter_block":
            blocks_by_digest[e["block"]] = e
        elif kind == "inter_canonical" and canonical is None:
            canonical = e
    facts: dict[int, dict] = {}
    for bd in canonical["blocks"] if canonical else ():
        be = blocks_by_digest.get(bd)
        if be is None:
            continue  # genesis
        miner = bytes.fromhex(be["miner"])
        for tx in be["txs"]:
            info = state.contracts.get(tx.contract_id)
            if apply_tx(state, tx, miner) == "ok" and tx.method == M_SETTLE:
                f = facts.setdefault(tx.contract_id, {"settles": 0})
                f["settles"] += 1
                f["paid"] = True
                f["dual_commit_at_settle"] = info.pub.committed and info.sub.committed
    return {a.hex(): v for a, v in state.balances.items()}, state.contracts, facts


def _replay_intra(events: list[dict], genesis: dict):
    """Re-apply logged zone transfers through one ``BalanceBook`` per zone;
    returns (balances per zone, applied transfers)."""
    books = {zone: BalanceBook(b) for zone, b in genesis["intra_balances"].items()}
    applied: list[dict] = []
    seen_blocks = set()
    for e in events:
        if e["kind"] != "intra_block":
            continue
        key = (e["zone"], e["height"], e["block"])
        if key in seen_blocks:
            continue
        seen_blocks.add(key)
        book = books.get(str(e["zone"])) or books.setdefault(str(e["zone"]), BalanceBook())
        for t in e.get("transfers", []):
            if book.transfer(t["frm"], t["to"], t["amount"], t["memo"]):
                applied.append({"zone": e["zone"], **t})
    return {zone: book.balances for zone, book in books.items()}, applied


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
        if info.broker_status == BrokerStatus.COMMITTED and not (info.pub.committed and info.sub.committed):
            violations.append(f"contract {cid} COMMITTED without both commit flags")
    return violations


PRIVACY_WINDOW = 8  # bytes: a shared run this long counts as a leak


def payload_windows(events: list[dict]) -> set:
    """PRIVACY_WINDOW-byte windows of every logged private payload.

    Structured transfer payloads are excluded: they embed public account
    identifiers (which legitimately appear on the inter ledger), not
    private service data.
    """
    windows = set()
    for e in events:
        # "payload" first: most records lack one, and on a held record
        # each reading is a call.
        if "payload" in e and e["kind"] == "intra_submit":
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


# The record kinds that check_safety, replay_log and check_privacy read;
# run_all_checkers hands each of them only the records of its kinds.
_SAFETY_KINDS = ("intra_commit", "inter_revert_confirmed")
_REPLAY_KINDS = ("genesis", "inter_block", "inter_canonical", "intra_block")
_PRIVACY_KINDS = ("intra_submit", "inter_block", "xdom")


def run_all_checkers(events: list[dict]) -> tuple[int, list[str]]:
    """Every checker over one log. One pass reads the kind of each record
    once and hands the record to each checker that reads its kind, so each
    checker sees the records of its kinds in log order."""
    safety, replay, privacy = [], [], []
    routes: dict[str, list[list]] = {}  # kind -> the inputs of the checkers that read it
    for kinds, checked in ((_SAFETY_KINDS, safety), (_REPLAY_KINDS, replay), (_PRIVACY_KINDS, privacy)):
        for kind in kinds:
            routes.setdefault(kind, []).append(checked)
    for e in events:
        for checked in routes.get(e["kind"], ()):
            checked.append(e)
    violations = list(check_safety(safety))
    rp = replay_log(replay)
    delta, cons = check_conservation(rp)
    violations += cons
    violations += check_payment_safety(rp)
    violations += check_privacy(privacy)
    return delta, violations
