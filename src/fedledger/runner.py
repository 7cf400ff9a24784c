"""Experiment runner: builds a simulation from a scenario, executes it,
and produces the metrics report plus the structured event log.

One designated observer per tier supplies the canonical view for
metrics: the first validator of each zone (first non-crashed one for
end-of-run totals) and the first miner for the inter ledger. Agreement
across replicas is checked separately by the safety checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bft import Committee, Validator, ZoneFollower
from .chain import TxIndex, parse_transfer
from .crypto import Keyring
from .eventlog import EventLog, run_all_checkers
from .metrics import LatencyStats, LedgerMetrics, MetricsReport
from .nodes import IntraLoadNode, InterLoadNode, MinerNode, ValidatorNode
from .powchain import FEE, ChainState, InterNode
from .protocol import (
    PUB,
    SUB,
    AdminNode,
    ClientNode,
    DelegateNode,
    SessionConfig,
)
from .contract import BrokerInfo
from .scenario import Scenario
from .sim import FaultEntry, Simulator

# Genesis funding, in millitokens: each session member's zone account, each
# delegate's zone and inter accounts, each miner, the contract admin, and
# each load generator (a zone's and the inter one).
MEMBER_UNITS = 100_000
DELEGATE_INTRA_UNITS = 1_000_000
DELEGATE_INTER_UNITS = 2_000_000
MINER_UNITS = 100_000
ADMIN_UNITS = 100_000
LOADGEN_UNITS = 1_000_000


class Collector:
    """Receives node callbacks; feeds the event log and the metrics. A tx is
    ``inflight`` from its submission to its first commit in a zone or first
    depth-k confirmation on the observer miner, when its latency is kept.
    Only the observer miner reports inter blocks.

    Each address is hex-encoded once, and a zone tx's digest hex is made at
    submission and carried until the tx lands, so every record that names
    them shares one string."""

    def __init__(self, log: EventLog, log_payloads: bool):
        self.log = log
        self.log_payloads = log_payloads
        # tx digest -> (submit time (ms), its digest hex for a zone tx)
        self.inflight: dict[bytes, tuple[float, str | None]] = {}
        self.submitted: dict[str, int] = {}  # ledger -> txs submitted
        self.latencies: dict[str, list[float]] = {}  # ledger -> latencies (s)
        self.intra_blocks_logged: set[tuple] = set()  # (zone, height)
        self._hex: dict[bytes, str] = {}  # address -> its hex

    def _addr_hex(self, addr: bytes) -> str:
        h = self._hex.get(addr)
        if h is None:
            h = self._hex[addr] = addr.hex()
        return h

    def _submitted(self, ledger: str, d: bytes, at: float, dhex: str | None = None) -> None:
        self.inflight[d] = (at, dhex)
        self.submitted[ledger] = self.submitted.get(ledger, 0) + 1

    def _landed(self, ledger: str, d: bytes, at: float) -> str | None:
        """Keep the latency of an inflight tx; returns its digest hex, if kept."""
        entry = self.inflight.pop(d, None)
        if entry is None:
            return None
        self.latencies.setdefault(ledger, []).append((at - entry[0]) / 1000.0)
        return entry[1]

    # -- intra ---------------------------------------------------------------

    def intra_submit(self, zone: int, tx, at: float) -> None:
        d = tx.digest()
        dhex = d.hex()
        self._submitted(f"zone:{zone}", d, at, dhex)
        rec = {"zone": zone, "tx": dhex, "sender": self._addr_hex(tx.sender), "at": round(at, 3)}
        if self.log_payloads:
            rec["payload"] = tx.payload.hex()
        self.log.emit("intra_submit", **rec)

    def intra_commit(self, zone: int, validator: bytes, block, at: float) -> None:
        bd = block.digest().hex()
        self.log.emit("intra_commit", zone=zone, validator=self._addr_hex(validator),
                      height=block.height, block=bd, at=round(at, 3))
        key = (zone, block.height)
        if key in self.intra_blocks_logged:
            return
        self.intra_blocks_logged.add(key)
        ledger = f"zone:{zone}"
        transfers = []
        txds = []
        for tx in block.txs:
            d = tx.digest()
            dhex = self._landed(ledger, d, at) or d.hex()
            txds.append(dhex)
            parsed = parse_transfer(tx.payload)
            if parsed:
                to, amount, memo = parsed
                transfers.append({"frm": self._addr_hex(tx.sender), "to": self._addr_hex(to),
                                  "amount": amount, "memo": memo, "tx": dhex})
        self.log.emit("intra_block", zone=zone, height=block.height, block=bd,
                      txs=txds, transfers=transfers, at=round(at, 3))

    # -- inter ----------------------------------------------------------------

    def inter_submit(self, tx, at: float) -> None:
        self._submitted("inter", tx.digest(), at)

    def inter_block(self, res, at: float) -> None:
        for d in res.confirmed:
            self._landed("inter", d, at)
        for adopted in res.adopted_blocks:
            self._log_inter_block(adopted, at)
        if res.reorg_depth:
            self.log.emit("inter_reorg", at=round(at, 3), depth=res.reorg_depth)
        if res.reverted_confirmed:
            self.log.emit("inter_revert_confirmed", at=round(at, 3),
                          txs=[t.hex() for t in res.reverted_confirmed])

    def _log_inter_block(self, block, at: float) -> None:
        txs = []
        for tx in block.txs:
            rec = {"digest": tx.digest().hex(), "sender": self._addr_hex(tx.sender),
                   "method": tx.method, "cid": tx.contract_id,
                   "attached": tx.attached_value, "fee": tx.fee, "args": tx.args.hex()}
            if tx.checkpoint is not None:
                rec["cp_zone"] = tx.checkpoint.zone_id
                rec["cp_ref"] = tx.checkpoint.tx_ref.hex()
                rec["cp_height"] = tx.checkpoint.block_height
                rec["cp_head"] = tx.checkpoint.ledger_head.hex()
            txs.append(rec)
        rec = {"block": block.digest().hex(), "parent": block.parent.hex(),
               "height": block.height, "miner": self._addr_hex(block.seal.miner),
               "at": round(at, 3), "txs": txs}
        if self.log_payloads:
            rec["bytes"] = block.serialize().hex()
        self.log.emit("inter_block", **rec)

    # -- sessions ---------------------------------------------------------------

    def session_phase(self, sid: int, side: str, phase: str, at: float,
                      cid: int | None, reason: str | None) -> None:
        rec = {"sid": sid, "side": side, "event": "phase", "phase": phase, "at": round(at, 3)}
        if cid is not None:
            rec["cid"] = cid
        if reason is not None:
            rec["reason"] = reason
        self.log.emit("session", **rec)

    def session_failover(self, sid: int, side: str, idx: int, at: float) -> None:
        self.log.emit("session", sid=sid, side=side, event="failover",
                      delegate_index=idx, at=round(at, 3))


@dataclass
class RunHandles:
    """Everything the tests may want to poke after (or during) a run."""

    sim: Simulator
    scenario: Scenario
    keyring: Keyring
    collector: Collector
    log: EventLog
    validators: dict = field(default_factory=dict)  # zone -> [ValidatorNode]
    delegates: dict = field(default_factory=dict)  # zone -> [DelegateNode]
    miners: list = field(default_factory=list)
    admin: AdminNode | None = None
    clients: dict = field(default_factory=dict)  # (sid, side) -> ClientNode
    initial_supply: int = 0


def build(scn: Scenario) -> RunHandles:
    rng_keys = random.Random(scn.seed ^ 0x6B657973)
    rng_payload = random.Random(scn.seed ^ 0x70617973)
    keyring = Keyring(rng_keys)

    sim = Simulator(scn.seed, transcript=scn.log_payloads)

    log = EventLog()
    collector = Collector(log, scn.log_payloads)
    h = RunHandles(sim=sim, scenario=scn, keyring=keyring, collector=collector, log=log)

    # -- accounts -------------------------------------------------------------
    val_keys = {d.zone_id: [keyring.new_account() for _ in range(d.validators)] for d in scn.domains}
    dlg_keys = {d.zone_id: [keyring.new_account() for _ in range(d.delegates)] for d in scn.domains}
    val_ids = {d.zone_id: [f"val:{d.zone_id}:{i}" for i in range(d.validators)] for d in scn.domains}
    dlg_ids = {d.zone_id: [f"dlg:{d.zone_id}:{i}" for i in range(d.delegates)] for d in scn.domains}
    miner_keys = [keyring.new_account() for _ in range(scn.inter.miners)]
    admin_key = keyring.new_account()
    zone_load_keys = {d.zone_id: keyring.new_account() for d in scn.domains}
    inter_load_key = keyring.new_account()

    zones = [d.zone_id for d in scn.domains]
    pairs = scn.workload.pairs or [[a, b] for a, b in zip(zones, zones[1:])]
    session_keys = {}
    session_payloads = {}
    session_zones = {}  # sid -> [seller zone, buyer zone]
    for sid in range(1, scn.workload.sessions + 1):
        session_keys[(sid, PUB)] = keyring.new_account()
        session_keys[(sid, SUB)] = keyring.new_account()
        session_payloads[sid] = rng_payload.randbytes(scn.workload.payload_bytes)
        session_zones[sid] = pairs[(sid - 1) % len(pairs)]

    # -- intra initial balances -----------------------------------------------
    intra_books: dict[int, dict[bytes, int]] = {d.zone_id: {} for d in scn.domains}
    for sid, (sz, bz) in session_zones.items():
        intra_books[sz][session_keys[(sid, PUB)].address] = MEMBER_UNITS
        intra_books[bz][session_keys[(sid, SUB)].address] = MEMBER_UNITS
    for d in scn.domains:
        for k in dlg_keys[d.zone_id]:
            intra_books[d.zone_id][k.address] = DELEGATE_INTRA_UNITS
        intra_books[d.zone_id][zone_load_keys[d.zone_id].address] = LOADGEN_UNITS

    # -- inter genesis state -----------------------------------------------------
    inter_balances: dict[bytes, int] = {}
    for k in miner_keys:
        inter_balances[k.address] = MINER_UNITS
    for d in scn.domains:
        for k in dlg_keys[d.zone_id]:
            inter_balances[k.address] = DELEGATE_INTER_UNITS
    inter_balances[admin_key.address] = ADMIN_UNITS
    inter_balances[inter_load_key.address] = LOADGEN_UNITS

    delegation_all = tuple(k.address for d in scn.domains for k in dlg_keys[d.zone_id])
    contracts = {cid: BrokerInfo(contract_id=cid, admin=admin_key.address,
                                 delegation_list=delegation_all)
                 for cid in range(1, scn.inter.contracts + 1)}
    genesis_state = ChainState(dict(inter_balances), dict(contracts))

    # -- inter nodes -------------------------------------------------------------
    miner_node_ids = [f"miner:{i}" for i in range(scn.inter.miners)]
    all_inter_ids = miner_node_ids + ["admin"] + [n for d in scn.domains for n in dlg_ids[d.zone_id]]
    # One execution per block for the whole simulation: every inter node has
    # the same keyring and genesis state.
    executions: dict = {}

    def new_inter_node(addr: bytes):
        return InterNode(addr, keyring, genesis_state,
                         confirmation_depth=scn.inter.confirmation_depth,
                         block_capacity=scn.inter.block_capacity, executions=executions)

    for i, mk in enumerate(miner_keys):
        inter = new_inter_node(mk.address)
        node = MinerNode(miner_node_ids[i], inter, random.Random(scn.seed ^ (0x6D696E65 + i)),
                         mean_interval_ms=scn.inter.mean_block_interval_ms,
                         share=1.0 / scn.inter.miners, collector=collector if i == 0 else None)
        node.peers = [p for p in all_inter_ids if p != node.node_id]
        sim.add_node(node)
        h.miners.append(node)

    admin = AdminNode("admin", admin_key, new_inter_node(admin_key.address), miner_node_ids)
    sim.add_node(admin)
    h.admin = admin

    # -- zones ----------------------------------------------------------------------
    registry_by_zone: dict[int, set] = {}
    for d in scn.domains:
        z = d.zone_id
        members = set(intra_books[z].keys())
        members.update(k.address for k in val_keys[z])
        registry_by_zone[z] = members

    for d in scn.domains:
        z = d.zone_id
        committee = Committee.of(k.address for k in val_keys[z])
        # One committed-tx index per zone, shared by its validators and followers.
        index = TxIndex()
        vnodes = []
        for node_id, vk in zip(val_ids[z], val_keys[z]):
            core = Validator(vk, committee, z, keyring,
                             block_capacity=d.block_capacity,
                             round_timeout_ms=d.round_timeout_ms,
                             block_interval_ms=d.block_interval_ms,
                             balances=intra_books[z], tx_index=index)
            node = ValidatorNode(node_id, core, collector, val_ids[z], dlg_ids[z])
            sim.add_node(node)
            vnodes.append(node)
        h.validators[z] = vnodes

        dnodes = []
        for node_id, dk in zip(dlg_ids[z], dlg_keys[z]):
            follower = ZoneFollower(committee, keyring, balances=intra_books[z], tx_index=index)
            inter = new_inter_node(dk.address)
            node = DelegateNode(node_id, z, dk, follower, inter,
                                miner_node_ids, "admin", registry_by_zone[z], collector=collector)
            node.zone_validators = val_ids[z]
            sim.add_node(node)
            dnodes.append(node)
        h.delegates[z] = dnodes

    # -- session clients ---------------------------------------------------------------
    for sid, (sz, bz) in session_zones.items():
        # A float even for an int interval: the first event of the session
        # happens at this time, and the log records it.
        start = float((sid - 1) * scn.workload.session_interval_ms)
        for side, zone in ((PUB, sz), (SUB, bz)):
            cfg = SessionConfig(
                session_id=sid, side=side, zone_id=zone, start_ms=start,
                payload=session_payloads[sid], deposit=scn.workload.deposit_units,
                op_timeout_ms=scn.protocol.op_timeout_ms,
            )
            name = ("seller" if side == PUB else "buyer") + f":{sid}"
            node = ClientNode(
                name, session_keys[(sid, side)], cfg, validators=val_ids[zone],
                delegates=list(zip(dlg_ids[zone], (k.address for k in dlg_keys[zone]))),
                collector=collector,
            )
            sim.add_node(node)
            h.clients[(sid, side)] = node
            for vn in h.validators[zone]:
                vn.subscribers[node.key.address] = name

    # -- workload generators ----------------------------------------------------------------
    until = scn.workload.intra_until_ms if scn.workload.intra_until_ms is not None else scn.duration_ms
    for d in scn.domains:
        z = d.zone_id
        if scn.workload.intra_rate_per_s > 0 or scn.workload.intra_probe_times_ms:
            node = IntraLoadNode(
                f"load:{z}", z, zone_load_keys[z], random.Random(scn.seed ^ (0x6C7A << 8) ^ z),
                val_ids[z], scn.workload.intra_rate_per_s, until,
                payload_bytes=scn.workload.intra_payload_bytes, collector=collector,
                times=(scn.workload.intra_probe_times_ms or None),
            )
            sim.add_node(node)
    if scn.workload.inter_rate_per_s > 0 or scn.workload.inter_probe_times_ms:
        node = InterLoadNode("load:inter", inter_load_key, miner_node_ids,
                             scn.workload.inter_rate_per_s, scn.duration_ms, collector=collector,
                             times=(scn.workload.inter_probe_times_ms or None))
        sim.add_node(node)

    # -- faults ------------------------------------------------------------------------
    for f in scn.faults:
        sim.inject_fault(FaultEntry(
            at_ms=float(f["at_ms"]), node=f.get("node", ""), fault=f["fault"],
            behavior=f.get("behavior", ""), groups=tuple(tuple(g) for g in f.get("groups", ())),
        ))

    # -- genesis bookkeeping --------------------------------------------------------------
    h.initial_supply = sum(sum(b.values()) for b in intra_books.values()) + sum(inter_balances.values())
    log.emit(
        "genesis",
        seed=scn.seed,
        total_supply=h.initial_supply,
        # The fee and the absent block subsidy are fixed, but stay in the
        # log so its bytes, and every pinned digest, hold.
        fee=FEE,
        block_reward=0,
        k=scn.inter.confirmation_depth,
        intra_balances={str(z): {a.hex(): v for a, v in sorted(b.items())}
                        for z, b in intra_books.items()},
        inter_balances={a.hex(): v for a, v in sorted(inter_balances.items())},
        contracts=[{"cid": cid, "admin": c.admin.hex(),
                    "delegation": [a.hex() for a in c.delegation_list]}
                   for cid, c in sorted(contracts.items())],
    )
    return h


def _first_live_validator(h: RunHandles, zone: int):
    for node in h.validators[zone]:
        if node.node_id not in h.sim.crashed:
            return node
    return h.validators[zone][0]


def raw_latencies(h: RunHandles) -> dict[str, list[float]]:
    """Per-ledger commit/confirmation latencies in seconds, for aggregation."""
    ledgers = [f"zone:{z}" for z in sorted(h.validators)] + ["inter"]
    return {name: h.collector.latencies.get(name, []) for name in ledgers}


def finalize(h: RunHandles, log_path: str | None = None) -> MetricsReport:
    """Close the log, check it, and report; the log is encoded once, a line
    at a time, into its digest and into ``log_path`` when one is given."""
    scn = h.scenario
    sim = h.sim
    log = h.log
    duration_s = scn.duration_ms / 1000.0

    observer = h.miners[0].inter
    zone_observers = {z: _first_live_validator(h, z) for z in sorted(h.validators)}

    if scn.log_payloads:
        for src, dst, data in sim.transcript:
            log.emit("xdom", src=src, dst=dst, bytes=data.hex())
    log.emit("inter_canonical", blocks=[d.hex() for d in observer.canonical])

    # Conservation: observer tip state + one live validator book per zone.
    total = 0
    intra_totals = {}
    for z, node in zone_observers.items():
        book = node.core.book
        intra_totals[str(z)] = book.total()
        total += book.total()
    inter_total = observer.tip_state().total_supply()
    total += inter_total
    delta = total - h.initial_supply
    # Nothing is minted; "minted" stays in the log so its bytes hold.
    log.emit("final", at=round(sim.now, 3), conservation_delta=delta,
             intra_totals=intra_totals, inter_total=inter_total, minted=0)

    # Byzantine evidence is logged, never punished (no slashing).
    for z in sorted(h.validators):
        for node in h.validators[z]:
            for ev in node.core.evidence:
                log.emit("byz_evidence", zone=z, observer=node.core.validator_id.hex(),
                         sender=ev.sender.hex(), height=ev.height, round=ev.round,
                         step=ev.step)

    # Independent checkers over the event log.
    _replay_delta, violations = run_all_checkers(log.events)

    report = MetricsReport(scenario=scn.name, seed=scn.seed, duration_ms=scn.duration_ms)
    report.conservation_delta = delta
    if delta != 0:
        violations.append(f"live conservation delta {delta}")

    # Per-ledger metrics: committed counts the distinct txs of the observer's chain.
    lats = raw_latencies(h)
    for z, node in zone_observers.items():
        ledger = node.core.ledger
        committed = len({tx.digest() for b in ledger.blocks for tx in b.txs})
        report.ledgers[f"zone:{z}"] = LedgerMetrics(
            tx_throughput=committed / duration_s if duration_s else 0.0,
            commit_latency=LatencyStats.from_values(lats[f"zone:{z}"]),
            block_count=ledger.height,
            submitted=h.collector.submitted.get(f"zone:{z}", 0),
            committed=committed,
        )
    committed = len(observer.canonical_receipts)
    report.ledgers["inter"] = LedgerMetrics(
        tx_throughput=committed / duration_s if duration_s else 0.0,
        commit_latency=LatencyStats.from_values(lats["inter"]),
        block_count=observer.tip_height,
        submitted=h.collector.submitted.get("inter", 0),
        committed=committed,
    )

    # Sessions.
    for (sid, side) in sorted(h.clients):
        client = h.clients[(sid, side)]
        outcome = client.phase
        if client.phase == "FAILED" and client.fail_reason:
            outcome = f"FAILED:{client.fail_reason}"
        report.sessions.append({
            "sid": sid, "side": side, "outcome": outcome,
            "phases": {p: round(t / 1000.0, 6) for p, t in client.phase_times.items()},
            "failovers": client.failovers,
            "cid": client.contract_id or 0,
        })

    report.violations = sorted(violations)
    report.safety_violations = len(report.violations)
    report.event_log_digest = log.digest(log_path)
    return report


def run(scn: Scenario, log_path: str | None = None) -> tuple[MetricsReport, RunHandles]:
    """Build and execute a scenario to its configured duration; the event
    log goes to ``log_path`` when one is given."""
    scn.validate()
    h = build(scn)
    for node in list(h.sim.nodes.values()):
        start = getattr(node, "start", None)
        if start is not None:
            start(h.sim)
    h.sim.run_until(scn.duration_ms)
    report = finalize(h, log_path)
    return report, h
