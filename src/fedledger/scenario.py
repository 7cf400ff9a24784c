"""Scenario files: schema, validation, and defaults.

Scenarios are JSON. Unknown keys are rejected by name; committees must
satisfy n >= 3f+1 for the declared byzantine count, and a fault schedule
may make at most that many validators of a zone byzantine. A crash or
recover fault names a node the run builds, a byzantine one a validator.
Values a run cannot survive are refused with their key named (the bounds
below). A timer period, and the spacing 1000 / rate of a positive load
rate, is at least one ulp of duration_ms, written ">= ulp" below: a
shorter one cannot move the clock. A number is finite: JSON's NaN and
Infinity are refused. Token amounts are decimal token values and must
be exact multiples of 0.001 (one millitoken, the fee unit). Session s
starts at (s - 1) x session_interval_ms; rate-driven load starts at
0 ms, and inter load runs to duration_ms.

Schema (defaults in parentheses):

{
  "name": str ("scenario"),
  "seed": int (1),
  "duration_ms": number (60000, >= 0),
  "log_payloads": bool (true),        # payload hex + block/message bytes in the log
  "domains": [
    {"zone_id": int, "validators": int (4), "byzantine": int (0),
     "block_capacity": int (1000, >= 1), "round_timeout_ms": number (200, >= ulp),
     "block_interval_ms": number (1600), "delegates": int (2, >= 1)}
  ],
  "inter": {
    "miners": int (3, >= 1; miner 0 observes),
    "mean_block_interval_ms": number (4500, >= ulp), "block_capacity": int (571, >= 1),
    "confirmation_depth": int (6, >= 1), "contracts": int (4)
  },
  "workload": {
    "sessions": int (0), "deposit_tokens": number (10, >= 0.001 with sessions),
    "session_interval_ms": number (0), "payload_bytes": int (1024, 0..1024; 64..1024 with sessions),
    "pairs": [[seller_zone, buyer_zone], ...] ([[z1, z2], [z2, z3], ...]; round-robin; zones differ),
    "intra_rate_per_s": number (0; 1000 / rate >= ulp), "intra_until_ms": number (duration),
    "intra_payload_bytes": int (64, 0..1024), "intra_probe_times_ms": [numbers] ([]),
    "inter_rate_per_s": number (0; 1000 / rate >= ulp), "inter_probe_times_ms": [numbers] ([])
  },
  "protocol": {
    "op_timeout_ms": number (120000, >= ulp)
  },
  "faults": [
    {"at_ms": number, "fault": "crash"|"recover", "node": str} |
    {"at_ms": number, "fault": "byzantine", "node": "val:<zone>:<i>",
     "behavior": "equivocate"|"silent"|"delay"} |
    {"at_ms": number, "fault": "partition", "groups": [[node...], [node...]]} |
    {"at_ms": number, "fault": "heal"}
  ],
  "reference": {...}   # optional expected values echoed into batch reports
}

Node names: "val:<zone>:<i>", "dlg:<zone>:<i>", "miner:<i>", "admin",
"seller:<sid>", "buyer:<sid>", "load:<zone>", "load:inter".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .chain import MAX_INTRA_PAYLOAD, MIN_REQUIREMENT_PAYLOAD


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


# The wire encodes a token amount as a u64 count of units (0.001 token).
MAX_UNITS = 2 ** 64 - 1
# ... and a zone id as a u32 (an IntraTx's signing bytes, a Checkpoint).
MAX_ZONE_ID = 2 ** 32 - 1


def _tokens_to_units(value, where: str) -> int:
    units = _parse_number(value) * 1000
    if not units <= MAX_UNITS:  # an infinite float product too
        raise ValueError(f"token amount {value} is too large: at most {MAX_UNITS} units of 0.001 fit a u64")
    if abs(units - round(units)) > 1e-6:
        raise ValidationError(f"{where}: token amount {value} is not a multiple of 0.001")
    return int(round(units))


def _check_keys(d: dict, allowed: set, where: str) -> None:
    for k in d:
        if k not in allowed:
            raise ParseError(f"unknown key {k!r} in {where}")


@dataclass
class DomainSpec:
    zone_id: int
    validators: int = 4
    byzantine: int = 0
    block_capacity: int = 1000
    round_timeout_ms: float = 200.0
    block_interval_ms: float = 1600.0
    delegates: int = 2


@dataclass
class InterSpec:
    miners: int = 3
    mean_block_interval_ms: float = 4500.0
    block_capacity: int = 571
    confirmation_depth: int = 6
    contracts: int = 4


@dataclass
class WorkloadSpec:
    sessions: int = 0
    deposit_units: int = 10_000
    session_interval_ms: float = 0.0
    payload_bytes: int = 1024
    pairs: list[list[int]] = field(default_factory=list)
    intra_rate_per_s: float = 0.0
    intra_until_ms: float | None = None
    intra_payload_bytes: int = 64
    intra_probe_times_ms: list[float] = field(default_factory=list)
    inter_rate_per_s: float = 0.0
    inter_probe_times_ms: list[float] = field(default_factory=list)


@dataclass
class ProtocolSpec:
    op_timeout_ms: float = 120_000.0


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 1
    duration_ms: float = 60_000.0
    log_payloads: bool = True
    domains: list = field(default_factory=lambda: [DomainSpec(zone_id=1)])
    inter: InterSpec = field(default_factory=InterSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    faults: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def node_ids(self) -> set[str]:
        """The id of every node a run of this scenario builds."""
        w = self.workload
        ids = {"admin", *(f"miner:{i}" for i in range(self.inter.miners))}
        for d in self.domains:
            ids.update(f"val:{d.zone_id}:{i}" for i in range(d.validators))
            ids.update(f"dlg:{d.zone_id}:{i}" for i in range(d.delegates))
            if w.intra_rate_per_s > 0 or w.intra_probe_times_ms:
                ids.add(f"load:{d.zone_id}")
        for sid in range(1, w.sessions + 1):
            ids.update((f"seller:{sid}", f"buyer:{sid}"))
        if w.inter_rate_per_s > 0 or w.inter_probe_times_ms:
            ids.add("load:inter")
        return ids

    def validate(self) -> None:
        # Values the simulation cannot run: some hang it, the others crash
        # it. An infinite run never ends; under NaN no event is ever due.
        if not math.isfinite(self.duration_ms) or self.duration_ms < 0:
            raise ValidationError(f"duration_ms must be finite and not negative, got {self.duration_ms}")
        # A timer period, or a load spacing, under one ulp of duration_ms
        # cannot move the clock (now + period == now), so it re-arms at one
        # virtual instant for ever, as a zero or negative one does.
        step = math.ulp(self.duration_ms)
        periods = [(f"domains[{i}].round_timeout_ms", d.round_timeout_ms)
                   for i, d in enumerate(self.domains)]
        periods += [("protocol.op_timeout_ms", self.protocol.op_timeout_ms),
                    ("inter.mean_block_interval_ms", self.inter.mean_block_interval_ms)]
        for key, value in periods:
            if not value > 0:  # NaN too: a NaN timer never fires
                raise ValidationError(f"{key} must be positive, got {value}")
            if value < step:
                raise ValidationError(
                    f"{key} must be at least {step!r} ms (the clock's step at duration_ms), got {value}")
        for key in ("intra_rate_per_s", "inter_rate_per_s"):
            rate = getattr(self.workload, key)
            if rate > 0 and not 1000.0 / rate >= step:
                raise ValidationError(
                    f"workload.{key} {rate} spaces loads {1000.0 / rate!r} ms apart, under the "
                    f"clock's step at duration_ms ({step!r} ms)")
        for key in ("payload_bytes", "intra_payload_bytes"):
            value = getattr(self.workload, key)
            if not 0 <= value <= MAX_INTRA_PAYLOAD:
                raise ValidationError(
                    f"workload.{key} must be between 0 and {MAX_INTRA_PAYLOAD}, got {value}")
        if self.inter.miners < 1:
            # Miner 0 observes the inter ledger for the report.
            raise ValidationError(f"inter.miners must be at least 1, got {self.inter.miners}")
        zones = set()
        for i, d in enumerate(self.domains):
            if d.zone_id > MAX_ZONE_ID:
                raise ValidationError(
                    f"domains[{i}].zone_id {d.zone_id} is too large: at most {MAX_ZONE_ID} fits a u32")
            if d.zone_id in zones or d.zone_id < 1:
                raise ValidationError(f"bad or duplicate zone_id {d.zone_id}")
            zones.add(d.zone_id)
        # A crash, recover or partition names only nodes the run builds.
        # Only a validator has byzantine behaviours; on any other node they
        # do nothing.
        node_ids = self.node_ids()
        byz_nodes: dict[int, set] = {}
        for i, f in enumerate(self.faults):
            fault, node = f.get("fault"), f.get("node")
            named = [node] if fault in ("crash", "recover") else []
            if fault == "partition":
                named = [n for group in f.get("groups", ()) for n in group]
            for n in named:
                if n not in node_ids:
                    raise ValidationError(f"faults[{i}]: {fault} node {n!r} is not a node of this run")
            if fault == "byzantine":
                if node not in node_ids or not node.startswith("val:"):
                    raise ValidationError(
                        f"faults[{i}]: byzantine node {node!r} is not a validator of a declared zone")
                byz_nodes.setdefault(int(node.split(":")[1]), set()).add(node)
        for d in self.domains:
            if d.validators < 3 * d.byzantine + 1:
                raise ValidationError(
                    f"zone {d.zone_id}: {d.validators} validators cannot tolerate "
                    f"{d.byzantine} byzantine (need n >= 3f+1)")
            injected = len(byz_nodes.get(d.zone_id, ()))
            if injected > d.byzantine:
                raise ValidationError(
                    f"zone {d.zone_id}: fault schedule injects {injected} byzantine "
                    f"validators but the domain declares at most {d.byzantine}")
            if d.delegates < 1 or d.block_capacity < 1:
                raise ValidationError(f"zone {d.zone_id}: needs a delegate and a block capacity of 1 or more")
        if self.inter.confirmation_depth < 1 or self.inter.block_capacity < 1:
            raise ValidationError("confirmation_depth and block_capacity must be >= 1")
        for sz, bz in self.workload.pairs:
            if sz not in zones or bz not in zones:
                raise ValidationError(f"workload pair ({sz},{bz}) names an unknown zone")
            if sz == bz:
                # A broker keys its sessions by id, so both sides of a
                # same-zone session would share one broker session.
                raise ValidationError(
                    f"workload pair ({sz},{bz}): seller and buyer zones must differ "
                    "(sessions are cross-domain)")
        if self.workload.sessions and len(self.domains) < 2 and not self.workload.pairs:
            raise ValidationError("cross-domain sessions need at least two domains")
        if self.workload.sessions and self.workload.deposit_units < 1:
            # configure_subscriber refuses an empty escrow, so no session could settle.
            raise ValidationError("workload.deposit_tokens must be at least 0.001 with sessions")
        if self.workload.sessions and self.workload.payload_bytes < MIN_REQUIREMENT_PAYLOAD:
            # Sessions meet on a contract keyed by the payload digest, so empty
            # payloads put every session on one contract; and a requirement
            # blob must never parse as a transfer (see chain.TRANSFER_TAG).
            raise ValidationError(
                f"workload.payload_bytes must be at least {MIN_REQUIREMENT_PAYLOAD} with sessions, "
                f"got {self.workload.payload_bytes}")


_SECTIONS = {"inter": InterSpec, "workload": WorkloadSpec, "protocol": ProtocolSpec}
_NESTED = {"domains", "faults", *_SECTIONS}


def _expect(kinds: tuple, what: str):
    """A parser that passes a value of one of ``kinds`` through unchanged.

    JSON true/false load as Python bools, a subclass of int; only a bool
    parser accepts them.
    """
    def parse(v):
        if not isinstance(v, kinds) or (isinstance(v, bool) and bool not in kinds):
            raise ValueError(f"expected {what}, got {v!r}")
        return v
    return parse


_parse_bool = _expect((bool,), "true or false")
_parse_int = _expect((int,), "an integer")
_parse_str = _expect((str,), "a string")
_int_or_float = _expect((int, float), "a number")


def _parse_number(v):
    """An int or a finite float, unchanged. JSON text may hold NaN and
    Infinity, and no scenario number can be either."""
    v = _int_or_float(v)
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return v


def _parse_float(v) -> float:
    return float(_parse_number(v))


def _parse_list(v, item) -> list:
    if not isinstance(v, list):
        raise ValueError(f"expected a list, got {v!r}")
    out = []
    for i, x in enumerate(v):
        try:
            out.append(item(x))
        except ValueError as e:
            raise ValueError(f"item {i}: {e}") from None
    return out


def _parse_pair(v) -> list:
    if not isinstance(v, list) or len(v) != 2:
        raise ValueError(f"expected a pair [seller_zone, buyer_zone], got {v!r}")
    return [_parse_int(v[0]), _parse_int(v[1])]


def _one_of(allowed: tuple):
    def parse(v):
        if v not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {v!r}")
        return v
    return parse


# Parsers by field annotation. A "*_units" field is read from the file key
# "*_tokens" as a decimal token amount. Times in a list keep their JSON type:
# an integer probe time stays an integer in the event log.
_PARSE = {"int": _parse_int, "float": _parse_float, "float | None": _parse_float,
          "bool": _parse_bool, "str": _parse_str, "dict": dict,
          "list[float]": lambda v: _parse_list(v, _parse_number),
          "list[list[int]]": lambda v: _parse_list(v, _parse_pair)}

# Parsers of the keys of one fault entry, and the keys each fault needs.
_FAULT_PARSE = {
    "at_ms": _parse_number,
    "fault": _one_of(("crash", "recover", "byzantine", "partition", "heal")),
    "node": _parse_str,
    "behavior": _one_of(("equivocate", "silent", "delay")),
    "groups": lambda v: _parse_list(v, lambda g: _parse_list(g, _parse_str)),
}
_FAULT_NEEDS = {"crash": ("node",), "recover": ("node",), "byzantine": ("node", "behavior"),
                "partition": ("groups",), "heal": ()}


def _file_key(name: str) -> str:
    return name[:-len("_units")] + "_tokens" if name.endswith("_units") else name


def _file_keys(cls) -> set:
    return {_file_key(f.name) for f in fields(cls)}


def _present_fields(cls, d: dict, where: str, skip=frozenset()) -> dict:
    """Parsed values of the fields of ``cls`` that ``d`` sets; an absent key
    keeps the field's dataclass default, the only copy of each default."""
    out = {}
    for f in fields(cls):
        key = _file_key(f.name)
        if f.name in skip or key not in d:
            continue
        try:
            if key != f.name:
                out[f.name] = _tokens_to_units(d[key], f"{where}.{key}")
            else:
                out[f.name] = _PARSE[f.type](d[key])
        except (TypeError, ValueError) as e:
            raise ParseError(f"{where}.{key}: {e}") from None
    return out


def scenario_from_dict(raw: dict) -> Scenario:
    """Parse and validate a scenario; a malformed value raises ParseError."""
    try:
        return _scenario_from_dict(raw)
    except (TypeError, ValueError) as e:
        raise ParseError(str(e)) from None


def _scenario_from_dict(raw: dict) -> Scenario:
    _check_keys(raw, _file_keys(Scenario), "scenario")
    sc = Scenario(**_present_fields(Scenario, raw, "scenario", skip=_NESTED))
    if "domains" in raw:
        sc.domains = []
        for i, d in enumerate(raw["domains"]):
            where = f"domains[{i}]"
            _check_keys(d, _file_keys(DomainSpec), where)
            if "zone_id" not in d:
                raise ParseError(f"{where}: missing zone_id")
            sc.domains.append(DomainSpec(**_present_fields(DomainSpec, d, where)))
    for name, cls in _SECTIONS.items():
        if name in raw:
            _check_keys(raw[name], _file_keys(cls), name)
            setattr(sc, name, cls(**_present_fields(cls, raw[name], name)))
    for i, f in enumerate(raw.get("faults", [])):
        sc.faults.append(_parse_fault(f, f"faults[{i}]"))
    sc.validate()
    return sc


def _parse_fault(f, where: str) -> dict:
    if not isinstance(f, dict):
        raise ParseError(f"{where}: expected an object, got {f!r}")
    _check_keys(f, _FAULT_PARSE.keys(), where)
    if "fault" not in f or "at_ms" not in f:
        raise ParseError(f"{where}: needs at_ms and fault")
    for key, value in f.items():
        try:
            _FAULT_PARSE[key](value)
        except ValueError as e:
            raise ParseError(f"{where}.{key}: {e}") from None
    for key in _FAULT_NEEDS[f["fault"]]:
        if key not in f:
            raise ParseError(f"{where}: a {f['fault']} fault needs {key}")
    return dict(f)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    try:
        return scenario_from_dict(raw)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
