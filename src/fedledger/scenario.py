"""Scenario files: schema, validation, and defaults.

Scenarios are JSON. Unknown keys are rejected by name; committees must
satisfy n >= 3f+1 for the declared byzantine count when safety
assertions are enabled. Token amounts are decimal token values and must
be exact multiples of 0.001 (one millitoken, the fee unit).

Schema (defaults in parentheses):

{
  "name": str ("scenario"),
  "seed": int (1),
  "duration_ms": number (60000),
  "safety_assertions": bool (true),
  "log_payloads": bool (true),        # payload hex + block/message bytes in the log
  "domains": [
    {"zone_id": int, "validators": int (4), "byzantine": int (0),
     "block_capacity": int (1000), "round_timeout_ms": number (200),
     "block_interval_ms": number (1600), "delegates": int (2),
     "delay_min_ms": number (10), "delay_max_ms": number (200)}
  ],
  "inter": {
    "miners": int (3), "mode": "virtual"|"puzzle" ("virtual"),
    "mean_block_interval_ms": number (4500), "block_capacity": int (571),
    "confirmation_depth": int (6), "fee_tokens": number (0.001),
    "contracts": int (4), "target_bits": int (236, puzzle mode),
    "median_delay_ms": number (200), "sigma": number (1.0)
  },
  "workload": {
    "sessions": int (0), "deposit_tokens": number (10),
    "session_interval_ms": number (0), "session_start_ms": number (0),
    "payload_bytes": int (1024), "deliver_after_ms": number (0),
    "pairs": [[seller_zone, buyer_zone], ...] (round-robin over domains),
    "intra_rate_per_s": number (0), "intra_offset_ms": number (0),
    "intra_until_ms": number (duration), "intra_payload_bytes": int (64),
    "intra_probe_times_ms": [numbers] ([]),
    "inter_rate_per_s": number (0), "inter_offset_ms": number (0),
    "inter_until_ms": number (duration)
  },
  "protocol": {
    "ack_timeout_ms": number (5x mean inter one-way delay),
    "op_timeout_ms": number (120000), "intra_timeout_ms": number (20000)
  },
  "funding": {
    "member_tokens": number (100), "delegate_intra_tokens": number (1000),
    "delegate_inter_tokens": number (2000), "miner_tokens": number (100),
    "admin_tokens": number (100), "loadgen_tokens": number (1000)
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


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


def _tokens_to_units(value, where: str) -> int:
    units = _parse_number(value) * 1000
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
    delay_min_ms: float = 10.0
    delay_max_ms: float = 200.0


@dataclass
class InterSpec:
    miners: int = 3
    mode: str = "virtual"
    mean_block_interval_ms: float = 4500.0
    block_capacity: int = 571
    confirmation_depth: int = 6
    fee_units: int = 1
    contracts: int = 4
    target_bits: int = 236
    median_delay_ms: float = 200.0
    sigma: float = 1.0
    block_reward_units: int = 0  # subsidy minted per block; 0 keeps supply exact

    def mean_delay_ms(self) -> float:
        return self.median_delay_ms * math.exp(self.sigma ** 2 / 2.0)


@dataclass
class WorkloadSpec:
    sessions: int = 0
    deposit_units: int = 10_000
    session_interval_ms: float = 0.0
    session_start_ms: float = 0.0
    payload_bytes: int = 1024
    deliver_after_ms: float = 0.0
    pairs: list[list[int]] = field(default_factory=list)
    intra_rate_per_s: float = 0.0
    intra_offset_ms: float = 0.0
    intra_until_ms: float | None = None
    intra_payload_bytes: int = 64
    intra_probe_times_ms: list[float] = field(default_factory=list)
    inter_rate_per_s: float = 0.0
    inter_offset_ms: float = 0.0
    inter_until_ms: float | None = None
    inter_probe_times_ms: list[float] = field(default_factory=list)


@dataclass
class ProtocolSpec:
    ack_timeout_ms: float | None = None  # default derived from link model
    op_timeout_ms: float = 120_000.0
    intra_timeout_ms: float = 20_000.0


@dataclass
class FundingSpec:
    member_units: int = 100_000
    delegate_intra_units: int = 1_000_000
    delegate_inter_units: int = 2_000_000
    miner_units: int = 100_000
    admin_units: int = 100_000
    loadgen_units: int = 1_000_000


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 1
    duration_ms: float = 60_000.0
    safety_assertions: bool = True
    log_payloads: bool = True
    domains: list = field(default_factory=lambda: [DomainSpec(zone_id=1)])
    inter: InterSpec = field(default_factory=InterSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    protocol: ProtocolSpec = field(default_factory=ProtocolSpec)
    funding: FundingSpec = field(default_factory=FundingSpec)
    faults: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)

    def ack_timeout_ms(self) -> float:
        if self.protocol.ack_timeout_ms is not None:
            return self.protocol.ack_timeout_ms
        return 5.0 * self.inter.mean_delay_ms()

    def validate(self) -> None:
        zones = set()
        for d in self.domains:
            if d.zone_id in zones or d.zone_id < 1:
                raise ValidationError(f"bad or duplicate zone_id {d.zone_id}")
            zones.add(d.zone_id)
        # Only a validator has byzantine behaviours; on any other node they do nothing.
        validators = {f"val:{d.zone_id}:{i}" for d in self.domains for i in range(d.validators)}
        byz_nodes: dict[int, set] = {}
        for i, f in enumerate(self.faults):
            if f.get("fault") == "byzantine":
                node = f.get("node")
                if node not in validators:
                    raise ValidationError(
                        f"faults[{i}]: byzantine node {node!r} is not a validator of a declared zone")
                byz_nodes.setdefault(int(node.split(":")[1]), set()).add(node)
        for d in self.domains:
            if self.safety_assertions and d.validators < 3 * d.byzantine + 1:
                raise ValidationError(
                    f"zone {d.zone_id}: {d.validators} validators cannot tolerate "
                    f"{d.byzantine} byzantine (need n >= 3f+1)")
            injected = len(byz_nodes.get(d.zone_id, ()))
            if self.safety_assertions and injected > d.byzantine:
                raise ValidationError(
                    f"zone {d.zone_id}: fault schedule injects {injected} byzantine "
                    f"validators but the domain declares at most {d.byzantine}")
            if d.delegates < 1 or d.block_capacity < 1:
                raise ValidationError(f"zone {d.zone_id}: needs a delegate and a block capacity of 1 or more")
        if self.inter.mode not in ("virtual", "puzzle"):
            raise ValidationError(f"unknown inter mode {self.inter.mode!r}")
        if self.inter.confirmation_depth < 1 or self.inter.block_capacity < 1:
            raise ValidationError("confirmation_depth and block_capacity must be >= 1")
        for sz, bz in self.workload.pairs:
            if sz not in zones or bz not in zones:
                raise ValidationError(f"workload pair ({sz},{bz}) names an unknown zone")
        if self.workload.sessions and len(self.domains) < 2 and not self.workload.pairs:
            raise ValidationError("cross-domain sessions need at least two domains")


_SECTIONS = {"inter": InterSpec, "workload": WorkloadSpec, "protocol": ProtocolSpec,
             "funding": FundingSpec}
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
_parse_number = _expect((int, float), "a number")
_parse_str = _expect((str,), "a string")


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
    with open(path) as f:
        text = f.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: scenario must be a JSON object")
    try:
        return scenario_from_dict(raw)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
