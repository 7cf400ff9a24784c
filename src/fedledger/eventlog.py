"""Structured event log and the independent invariant checkers.

Every run appends protocol messages and state transitions as JSON-line
records (virtual timestamp, actor, event kind, digests). The log is the
input to the checkers below, which rebuild ledger and contract state
from the logged transactions alone under the ledgers' own rules
(``powchain.apply_tx``, ``BalanceBook.transfer``), and to the tamper
check (the report pins the log's SHA-256). The log holds no signatures,
so the replay takes every logged tx as signed.

Each kind a checker reads is one slotted ``Record`` class: a run emits
records that hold its own values, ``parse_events`` builds records of the
same classes from a log's lines, and the checkers read attributes.

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
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import contract as sc
from .chain import BalanceBook, Checkpoint, parse_transfer
from .contract import BrokerStatus
from .powchain import M_SETTLE, ChainState, InterTx, apply_tx

_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_json_string = json.encoder.encode_basestring_ascii  # a str as _LINE_ENCODER writes it
_NAMES = {int: "an integer", float: "a number", str: "a string", bytes: "a hex string",
          list: "a list", dict: "an object"}
RECORDS: dict[str, type] = {}  # kind -> the class of each kind a checker reads


class _Bad(ValueError):
    """A value that breaks its shape: (path to the bad part, kind expected there or None if absent)."""

    def __str__(self) -> str:
        path, expected = self.args[0].lstrip("."), self.args[1]
        return f"has no field {path!r}" if expected is None else f"has field {path!r} that is not {expected}"


def _slots(shape) -> tuple:
    return tuple(name.rstrip("?") for name in shape)


class Record:
    """A log record, or an object in one. ``SHAPE`` declares each JSON field
    once, as name -> shape, in the order parse checks them: a JSON type (int:
    never true or false; float: a number, the time in ms, written rounded to
    3 places; bytes: a hex string, held decoded), [shape] (held as a tuple),
    {str or bytes: shape} for an object of entries, or a ``Record`` class. A
    "?" field may be absent (held as None, not written); an object's "??"
    fields are all present or none, as an inter tx's checkpoint. Each field
    is the attribute of its name, in order, unless the class builds its own."""

    __slots__ = ()
    kind: str | None = None  # None for an object inside a record
    SHAPE: dict = {}
    _attrs: tuple = ()  # the slots the constructor fills, in order: its bases' first

    def __init_subclass__(cls, kind: str | None = None):
        if kind is not None:
            cls.kind, RECORDS[kind] = kind, cls
        cls._attrs += cls.__dict__.get("__slots__", ())
        names = cls.SHAPE
        cls._fields = tuple(zip(_slots(names), names.values()))
        cls._required = frozenset(_slots(n for n in names if not n.endswith("?")))
        cls._group = frozenset(_slots(n for n in names if n.endswith("??")))
        cls._bare = tuple(field for field in cls._fields if field[0] not in cls._group)

    def __init__(self, *values):
        for name, value in zip(self._attrs, values):
            setattr(self, name, value)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(getattr(self, n) == getattr(other, n) for n in self._attrs)

    @classmethod
    def build(cls, values: list):
        """The object of a parsed object's field values; absent "??" fields are left out."""
        return cls(*values)

    @classmethod
    def parse(cls, obj):
        """The object of a parsed JSON object; ``_Bad`` at the first field, in
        declaration order, that is missing or breaks its shape."""
        if type(obj) is not dict:
            raise _Bad("", _NAMES[dict])
        grouped = cls._group and not obj.keys().isdisjoint(cls._group)
        values = []
        for key, shape in cls._fields if grouped else cls._bare:
            value = obj.get(key)  # None if absent; no shape takes a JSON null
            if type(value) is not shape:
                if value is None and key not in obj:
                    if key in cls._required or grouped and key in cls._group:
                        raise _Bad("." + key, None)
                else:
                    try:
                        value = bytes.fromhex(value) if shape is bytes else _read(value, shape)
                    except (TypeError, ValueError) as bad:
                        raise _under(f".{key}", bad) from None
            values.append(value)
        return cls.build(values)

    def to_json(self) -> dict:
        return {name: _to_json(value, shape) for name, shape in self._fields
                if (value := getattr(self, name)) is not None}

    def line(self) -> bytes:
        """The record as one compact, key-sorted JSON line ending in a newline."""
        return (_LINE_ENCODER.encode({**self.to_json(), "kind": self.kind}) + "\n").encode()


def _under(step: str, bad: Exception) -> _Bad:
    """``bad``, raised at ``step`` in a value, as the value's; a hex decode's error means "not hex"."""
    path, expected = bad.args if type(bad) is _Bad else ("", _NAMES[bytes])
    return _Bad(step + path, expected)


def _read(value, shape):
    """A parsed JSON value as ``shape`` holds it (see ``Record``), or ``_under``'s input."""
    if shape is bytes:
        return bytes.fromhex(value)
    if type(shape) is list:
        if type(value) is not list:
            raise _Bad("", _NAMES[list])
        sub = shape[0]
        read = getattr(sub, "parse", None) or (bytes.fromhex if sub is bytes else lambda v: _read(v, sub))
        try:
            return tuple(map(read, value))
        except (TypeError, ValueError):
            for i, v in enumerate(value):  # the first item that fails
                try:
                    read(v)
                except (TypeError, ValueError) as bad:
                    raise _under(f"[{i}]", bad) from None
            raise
    if type(shape) is dict:
        if type(value) is not dict:
            raise _Bad("", _NAMES[dict])
        ((key, sub),) = shape.items()
        out = {}
        for k, v in value.items():
            try:
                held = bytes.fromhex(k) if key is bytes else k  # the key before its value
                out[held] = v if type(v) is sub else _read(v, sub)
            except (TypeError, ValueError) as bad:
                raise _under(f"[{k}]", bad) from None
        return out
    if type(value) is shape or (shape is float and type(value) is int):
        return value
    raise _Bad("", _NAMES[shape])


def _to_json(value, shape):
    """A held value as its line writes it: the inverse of ``_read``."""
    if shape is int or shape is str:
        return value
    if shape is bytes:
        return value.hex()
    if shape is float:
        return round(value, 3)
    if type(shape) is list:
        sub = shape[0]
        return [v.hex() for v in value] if sub is bytes else [_to_json(v, sub) for v in value]
    if type(shape) is dict:
        ((key, sub),) = shape.items()
        return {k.hex() if key is bytes else k: _to_json(v, sub) for k, v in value.items()}
    if isinstance(shape, type) and issubclass(shape, Record):
        return shape.to_json(value)
    return value


class IntraSubmit(Record, kind="intra_submit"):
    """A zone tx's digest, sender and zone, and the virtual time (ms) its
    client submitted it; ``IntraSubmitWithPayload`` holds its payload too."""

    SHAPE = {"zone": int, "tx": bytes, "sender": bytes, "at": float, "payload?": bytes}
    __slots__ = ("zone", "tx", "sender", "at")

    def __init__(self, zone: int, tx: bytes, sender: bytes, at: float):
        # Written out, as the generic one takes three times as long.
        self.zone = zone
        self.tx = tx
        self.sender = sender
        self.at = at

    @classmethod
    def build(cls, values: list):
        return IntraSubmit(*values[:4]) if values[4] is None else IntraSubmitWithPayload(*values)

    def line(self) -> bytes:
        # Written out, in under half the JSON encoder's time. Each value is an
        # int, a hex string or a finite float's repr, as JSON writes it.
        payload = '"payload":"%s",' % self.payload.hex() if type(self) is IntraSubmitWithPayload else ""
        return ('{"at":%r,"kind":"intra_submit",%s"sender":"%s","tx":"%s","zone":%d}\n'
                % (round(self.at, 3), payload, self.sender.hex(), self.tx.hex(), self.zone)).encode()


class IntraSubmitWithPayload(IntraSubmit):
    """An ``intra_submit`` record of a run that logs payloads."""

    __slots__ = ("payload",)
    __init__ = Record.__init__


class IntraCommit(Record, kind="intra_commit"):
    """One validator's commit of a zone block."""

    SHAPE = {"zone": int, "height": int, "block": bytes, "validator?": bytes, "at?": float}
    __slots__ = _slots(SHAPE)


class Transfer(Record):
    """A value transfer in a zone block: tx ``tx`` moves ``amount`` from ``frm`` to ``to``."""

    SHAPE = {"amount": int, "frm": bytes, "memo": int, "to": bytes, "tx?": bytes}
    __slots__ = _slots(SHAPE)


class IntraBlock(Record, kind="intra_block"):
    """A zone block at its first commit, and the virtual time (ms) of it."""

    SHAPE = {"zone": int, "height": int, "block": bytes, "transfers?": [Transfer],
             "txs?": [bytes], "at?": float}
    __slots__ = _slots(SHAPE)

    @classmethod
    def of(cls, zone: int, block, at: float) -> IntraBlock:
        return cls(zone, block.height, block.digest(),
                   tuple(Transfer(amount, tx.sender, memo, to, tx.digest())
                         for tx, to, amount, memo in block.transfers()),
                   tuple(tx.digest() for tx in block.txs), at)


class LoggedInterTx(Record):
    """The logged fields of an inter tx, all but its signature: it parses into an
    ``InterTx`` with the logged digest cached, so an inter block holds its txs."""

    __slots__ = ()
    SHAPE = {"sender": bytes, "cid": int, "method": str, "args": bytes, "attached": int, "fee": int,
             "digest": bytes, "cp_zone??": int, "cp_ref??": bytes, "cp_height??": int, "cp_head??": bytes}

    @staticmethod
    def build(values: list) -> InterTx:
        # The first six fields are InterTx's own, in its order.
        tx = InterTx(*values[:6], Checkpoint(*values[7:]) if len(values) > 7 else None)
        InterTx._digest.__set__(tx, values[6])  # the crypto.SignedTx cache slot
        return tx

    @staticmethod
    def to_json(tx: InterTx) -> dict:
        cp = tx.checkpoint
        return {"digest": tx.digest().hex(), "sender": tx.sender.hex(), "method": tx.method,
                "cid": tx.contract_id, "attached": tx.attached_value, "fee": tx.fee, "args": tx.args.hex(),
                **({} if cp is None else {"cp_zone": cp.zone_id, "cp_ref": cp.tx_ref.hex(),
                                          "cp_height": cp.block_height, "cp_head": cp.ledger_head.hex()})}

    @staticmethod
    def json_text(tx: InterTx) -> str:
        """``to_json(tx)`` as its line writes it, key-sorted, without building the object."""
        cp = tx.checkpoint
        return ('{"args":"%s","attached":%d,"cid":%d,%s"digest":"%s","fee":%d,"method":%s,"sender":"%s"}'
                % (tx.args.hex(), tx.attached_value, tx.contract_id,
                   "" if cp is None else '"cp_head":"%s","cp_height":%d,"cp_ref":"%s","cp_zone":%d,'
                   % (cp.ledger_head.hex(), cp.block_height, cp.tx_ref.hex(), cp.zone_id),
                   tx.digest().hex(), tx.fee, _json_string(tx.method), tx.sender.hex()))


class InterBlock(Record, kind="inter_block"):
    """A block the observer miner adopted, and its bytes if payloads are logged."""

    SHAPE = {"block": bytes, "miner": bytes, "txs": [LoggedInterTx], "bytes?": bytes,
             "parent?": bytes, "height?": int, "at?": float}
    __slots__ = _slots(SHAPE)

    @classmethod
    def of(cls, block, at: float, with_bytes: bool) -> InterBlock:
        return cls(block.digest(), block.seal.miner, block.txs,
                   block.serialize() if with_bytes else None, block.parent, block.height, at)

    def line(self) -> bytes:
        # Written out, as ``IntraSubmit.line`` is, and a tx at a time: "txs" sorts
        # last among the keys, so no tx's JSON object is built.
        at, data, height, parent = self.at, self.bytes, self.height, self.parent
        head = ('{%s"block":"%s",%s%s"kind":"inter_block","miner":"%s",%s"txs":['
                % ("" if at is None else '"at":%r,' % round(at, 3), self.block.hex(),
                   "" if data is None else '"bytes":"%s",' % data.hex(),
                   "" if height is None else '"height":%d,' % height, self.miner.hex(),
                   "" if parent is None else '"parent":"%s",' % parent.hex()))
        return (head + ",".join(map(LoggedInterTx.json_text, self.txs)) + "]}\n").encode()


class InterCanonical(Record, kind="inter_canonical"):
    """The observer miner's canonical chain at the end of the run."""

    SHAPE = {"blocks": [bytes]}
    __slots__ = _slots(SHAPE)


class InterRevertConfirmed(Record, kind="inter_revert_confirmed"):
    """Depth-k-confirmed inter txs that a reorg took off the canonical chain."""

    SHAPE = {"at": float, "txs": [bytes]}
    __slots__ = _slots(SHAPE)


class Xdom(Record, kind="xdom"):
    """The wire bytes of one message sent on a link that crosses a zone."""

    SHAPE = {"src": str, "dst": str, "bytes": bytes}
    __slots__ = _slots(SHAPE)


class Contract(Record):
    """A broker contract at genesis: its id, admin and delegation list."""

    SHAPE = {"cid": int, "admin": bytes, "delegation": [bytes]}
    __slots__ = _slots(SHAPE)


class Genesis(Record, kind="genesis"):
    """Total supply, balances (a zone's under its id as a string) and contracts.
    ``fee`` and ``block_reward`` (no subsidy) are fixed, but stay so every pinned digest holds."""

    SHAPE = {"total_supply": int, "inter_balances": {bytes: int},
             "intra_balances": {str: {bytes: int}}, "contracts": [Contract],
             "seed?": int, "fee?": int, "block_reward?": int, "k?": int}
    __slots__ = _slots(SHAPE)


class Event:
    """A record of a kind no checker reads (``session``, ``inter_reorg``,
    ``final``, ``byz_evidence``): its JSON object, kind included."""

    __slots__ = ("kind", "fields")

    def __init__(self, fields: dict):
        self.kind = fields["kind"]
        self.fields = fields

    def line(self) -> bytes:
        return (_LINE_ENCODER.encode(self.fields) + "\n").encode()


def phase_event(sid: int, side: str, phase: str, at: float, cid: int | None, reason: str | None) -> Event:
    return Event({"kind": "session", "sid": sid, "side": side, "event": "phase", "phase": phase,
                  "at": round(at, 3), **{k: v for k, v in (("cid", cid), ("reason", reason)) if v is not None}})


def failover_event(sid: int, side: str, delegate_index: int, at: float) -> Event:
    return Event({"kind": "session", "sid": sid, "side": side, "event": "failover",
                  "delegate_index": delegate_index, "at": round(at, 3)})


def reorg_event(at: float, depth: int) -> Event:
    return Event({"kind": "inter_reorg", "at": round(at, 3), "depth": depth})


def final_event(at: float, delta: int, intra_totals: dict, inter_total: int) -> Event:
    # Nothing is minted; "minted" stays in the log so its bytes hold.
    return Event({"kind": "final", "at": round(at, 3), "conservation_delta": delta,
                  "intra_totals": intra_totals, "inter_total": inter_total, "minted": 0})


def evidence_event(zone: int, observer: bytes, ev) -> Event:
    return Event({"kind": "byz_evidence", "zone": zone, "observer": observer.hex(),
                  "sender": ev.sender.hex(), "height": ev.height, "round": ev.round, "step": ev.step})


class EventLog:
    def __init__(self):
        self.events: list[Record | Event] = []

    def emit(self, record: Record | Event) -> None:
        """Append one record; it is encoded only when the log is."""
        self.events.append(record)

    def lines(self) -> Iterator[bytes]:
        """Each record's ``line()``, written when reached, so a stream of them holds
        one encoded line at a time; an empty log is one newline."""
        if not self.events:
            yield b"\n"
        for e in self.events:
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


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON value")


def parse_events(chunks: Iterable[bytes]) -> list[Record | Event]:
    """The records of a log, in order, from byte chunks that each end at a line break or the
    log's end (a file opened "rb", or ``data.splitlines()``). A record ends at "\\n" alone, as
    a JSON string may hold other line breaks. ``BadRecord`` names the first bad field."""
    events = []
    decode = json.JSONDecoder(parse_constant=_not_json).raw_decode  # NaN and Infinity are not JSON
    for chunk in chunks:
        for line in chunk.decode().split("\n"):
            if not line:
                continue
            n = len(events) + 1
            try:
                line = line.strip(" \t\r")  # JSON's white space; "\n" ended the line
                e, end = decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except (RecursionError, ValueError) as err:  # RecursionError: nested too deeply
                raise ValueError(f"record {n}: {err}") from None
            if not isinstance(e, dict):
                raise BadRecord(f"record {n} is not a JSON object")
            kind = e.get("kind")
            try:
                if type(kind) is not str:
                    raise _Bad(".kind", None if "kind" not in e else _NAMES[str])
                cls = RECORDS.get(kind)
                events.append(Event(e) if cls is None else cls.parse(e))
            except ValueError as bad:
                raise BadRecord(f"record {n} ({kind}) {bad}") from None
    return events


# -- checkers ----------------------------------------------------------------

def check_safety(events: list) -> list[str]:
    violations = []
    commits: dict[tuple, set] = {}
    for e in events:
        if e.kind == "intra_commit":
            commits.setdefault((e.zone, e.height), set()).add(e.block.hex())
        elif e.kind == "inter_revert_confirmed":
            violations.append(f"confirmed inter tx reverted at {round(e.at, 3)}: {[t.hex() for t in e.txs]}")
    for (zone, height), blocks in sorted(commits.items()):
        if len(blocks) > 1:
            violations.append(f"conflicting commits in zone {zone} at height {height}: {sorted(blocks)}")
    return violations


@dataclass
class Replay:
    """Ledger state rebuilt from the log alone (balances by hex address, zone books by zone
    id as a string), shared by the checkers; facts[cid] = {"settles", "paid", "dual_commit_at_settle"}."""

    initial_supply: int
    inter_balances: dict[str, int]
    contracts: dict[int, sc.BrokerInfo]
    facts: dict[int, dict]
    intra_books: dict[str, dict[str, int]]
    transfers: list[tuple[int, Transfer]]  # (zone, transfer) of each applied one, in log order


def replay_log(events: list) -> Replay:
    """Replay the log once: the logged canonical inter chain through
    ``apply_tx``, each tx taken as signed, and each zone block's transfers,
    once per block, through one ``BalanceBook`` per zone."""
    genesis = next(e for e in events if e.kind == "genesis")
    state = ChainState(dict(genesis.inter_balances),
                       {c.cid: sc.BrokerInfo(contract_id=c.cid, admin=c.admin, delegation_list=c.delegation)
                        for c in genesis.contracts})
    books = {zone: BalanceBook(b) for zone, b in genesis.intra_balances.items()}
    blocks_by_digest, canonical, applied, seen_blocks = {}, None, [], set()
    for e in events:
        kind = e.kind
        if kind == "inter_block":
            blocks_by_digest[e.block] = e
        elif kind == "inter_canonical" and canonical is None:
            canonical = e
        elif kind == "intra_block" and (e.zone, e.height, e.block) not in seen_blocks:
            seen_blocks.add((e.zone, e.height, e.block))
            book = books.get(str(e.zone)) or books.setdefault(str(e.zone), BalanceBook())
            for t in e.transfers or ():
                if book.transfer(t.frm, t.to, t.amount, t.memo):
                    applied.append((e.zone, t))
    facts: dict[int, dict] = {}
    for bd in canonical.blocks if canonical else ():
        be = blocks_by_digest.get(bd)
        if be is None:
            continue  # genesis
        for tx in be.txs:
            info = state.contracts.get(tx.contract_id)
            if apply_tx(state, tx, be.miner) == "ok" and tx.method == M_SETTLE:
                f = facts.setdefault(tx.contract_id, {"settles": 0})
                f["settles"] += 1
                f["paid"] = True
                f["dual_commit_at_settle"] = info.pub.committed and info.sub.committed
    return Replay(genesis.total_supply, {a.hex(): v for a, v in state.balances.items()}, state.contracts,
                  facts, {zone: {a.hex(): v for a, v in b.balances.items()} for zone, b in books.items()}, applied)


def check_conservation(rp: Replay) -> tuple[int, list[str]]:
    initial = rp.initial_supply
    total = (sum(rp.inter_balances.values()) + sum(c.escrow for c in rp.contracts.values())
             + sum(sum(book.values()) for book in rp.intra_books.values()))
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
    payments = Counter(t.memo for _zone, t in rp.transfers if t.memo)
    for cid, count in sorted(payments.items()):
        f = rp.facts.get(cid, {})
        if not f.get("paid"):
            violations.append(f"payment for contract {cid} without a settled (PAID) contract")
        if count > 1:
            violations.append(f"double payout for contract {cid}: {count} payments")
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


def payload_windows(events: list) -> set:
    """PRIVACY_WINDOW-byte windows of every logged private payload but transfers, whose
    public account identifiers legitimately appear on the inter ledger."""
    windows = set()
    for e in events:
        if type(e) is IntraSubmitWithPayload and parse_transfer(p := e.payload) is None:
            windows.update(p[i:i + PRIVACY_WINDOW] for i in range(len(p) - PRIVACY_WINDOW + 1))
    return windows


def check_privacy(events: list) -> list[str]:
    windows = payload_windows(events)
    if not windows:
        return []
    violations = []
    for e in events:
        if e.kind == "inter_block" and e.bytes is not None:
            blob, where = e.bytes, f"inter block {e.block.hex()[:16]}"
        elif e.kind == "xdom":
            blob, where = e.bytes, f"message {e.src}->{e.dst}"
        else:
            continue
        for i in range(len(blob) - PRIVACY_WINDOW + 1):
            if blob[i:i + PRIVACY_WINDOW] in windows:
                violations.append(f"private payload bytes leaked in {where} at offset {i}")
                break
    return violations


# The inputs that each record kind goes to: 0 is check_safety's, 1
# replay_log's and 2 check_privacy's.
_ROUTES = {"intra_commit": (0,), "inter_revert_confirmed": (0,), "genesis": (1,), "intra_block": (1,),
           "inter_canonical": (1,), "inter_block": (1, 2), "intra_submit": (2,), "xdom": (2,)}


def run_all_checkers(events: list) -> tuple[int, list[str]]:
    """Every checker over one log. One pass hands each record to each checker
    that reads its kind, so each checker sees its records in log order."""
    safety, replay, privacy = inputs = ([], [], [])
    for e in events:
        for i in _ROUTES.get(e.kind, ()):
            inputs[i].append(e)
    violations = check_safety(safety)
    rp = replay_log(replay)
    delta, cons = check_conservation(rp)
    violations += cons
    violations += check_payment_safety(rp)
    violations += check_privacy(privacy)
    return delta, violations
