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

from .bft import Validator, ZoneFollower
from .chain import parse_transfer
from .crypto import Keyring
from .eventlog import EventLog, run_all_checkers
from .metrics import LatencyStats, LedgerMetrics, MetricsReport
from .nodes import IntraLoadNode, InterLoadNode, MinerNode, ValidatorNode
from .powchain import ChainState, InterNode
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
from .sim import FaultEntry, LinkModel, Simulator


class Collector:
    """Receives node callbacks; feeds the event log and the metrics."""

    def __init__(self, log: EventLog, log_payloads: bool, observer_miner: str):
        self.log = log
        self.log_payloads = log_payloads
        self.observer_miner = observer_miner
        self.intra_submits: dict[bytes, tuple[int, float]] = {}
        self.intra_commits: dict[bytes, float] = {}
        self.intra_first_commit: dict[tuple, float] = {}  # (zone, height) -> at
        self.inter_submits: dict[bytes, float] = {}

    # -- intra ---------------------------------------------------------------

    def intra_submit(self, zone: int, tx, at: float) -> None:
        d = tx.digest()
        self.intra_submits[d] = (zone, at)
        rec = {"zone": zone, "tx": d.hex(), "sender": tx.sender.hex(), "at": round(at, 3)}
        if self.log_payloads:
            rec["payload"] = tx.payload.hex()
        self.log.emit("intra_submit", **rec)

    def intra_commit(self, zone: int, validator: bytes, block, at: float) -> None:
        bd = block.digest().hex()
        self.log.emit("intra_commit", zone=zone, validator=validator.hex(),
                      height=block.height, block=bd, at=round(at, 3))
        key = (zone, block.height)
        if key in self.intra_first_commit:
            return
        self.intra_first_commit[key] = at
        transfers = []
        txds = []
        for tx in block.txs:
            d = tx.digest()
            txds.append(d.hex())
            if d not in self.intra_commits:
                self.intra_commits[d] = at
            parsed = parse_transfer(tx.payload)
            if parsed:
                to, amount, memo = parsed
                transfers.append({"frm": tx.sender.hex(), "to": to.hex(),
                                  "amount": amount, "memo": memo, "tx": d.hex()})
        self.log.emit("intra_block", zone=zone, height=block.height, block=bd,
                      txs=txds, transfers=transfers, at=round(at, 3))

    # -- inter ----------------------------------------------------------------

    def inter_submit(self, tx, at: float) -> None:
        self.inter_submits[tx.digest()] = at

    def inter_block(self, node_id: str, block, res, at: float) -> None:
        if node_id != self.observer_miner:
            return
        for adopted in res.adopted_blocks:
            self._log_inter_block(adopted, at)
        if res.reorged:
            self.log.emit("inter_reorg", at=round(at, 3), depth=res.reorg_depth)
        if res.reverted_confirmed:
            self.log.emit("inter_revert_confirmed", at=round(at, 3),
                          txs=[t.hex() for t in res.reverted_confirmed])

    def _log_inter_block(self, block, at: float) -> None:
        txs = []
        for tx in block.txs:
            rec = {"digest": tx.digest().hex(), "sender": tx.sender.hex(),
                   "method": tx.method, "cid": tx.contract_id,
                   "attached": tx.attached_value, "fee": tx.fee, "args": tx.args.hex()}
            if tx.checkpoint is not None:
                rec["cp_zone"] = tx.checkpoint.zone_id
                rec["cp_ref"] = tx.checkpoint.tx_ref.hex()
                rec["cp_height"] = tx.checkpoint.block_height
                rec["cp_head"] = tx.checkpoint.ledger_head.hex()
            txs.append(rec)
        rec = {"block": block.digest().hex(), "parent": block.parent.hex(),
               "height": block.height, "miner": block.seal.miner.hex(),
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
    intra_books_initial: dict = field(default_factory=dict)


def build(scn: Scenario) -> RunHandles:
    rng_keys = random.Random(scn.seed ^ 0x6B657973)
    rng_payload = random.Random(scn.seed ^ 0x70617973)
    keyring = Keyring(rng_keys)

    link = LinkModel(
        inter_median_ms=scn.inter.median_delay_ms,
        inter_sigma=scn.inter.sigma,
        zone_ranges={d.zone_id: (d.delay_min_ms, d.delay_max_ms) for d in scn.domains},
    )
    sim = Simulator(scn.seed, link, transcript=scn.log_payloads)

    log = EventLog()
    observer_miner = "miner:0"
    collector = Collector(log, scn.log_payloads, observer_miner)
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

    pairs = scn.workload.pairs
    if not pairs and scn.workload.sessions:
        zones = [d.zone_id for d in scn.domains]
        pairs = [[zones[0], zones[1 % len(zones)]]]
    session_keys = {}
    session_payloads = {}
    for sid in range(1, scn.workload.sessions + 1):
        session_keys[(sid, PUB)] = keyring.new_account()
        session_keys[(sid, SUB)] = keyring.new_account()
        session_payloads[sid] = rng_payload.randbytes(scn.workload.payload_bytes)

    # -- intra initial balances -----------------------------------------------
    intra_books: dict[int, dict[bytes, int]] = {d.zone_id: {} for d in scn.domains}
    for sid in range(1, scn.workload.sessions + 1):
        sz, bz = pairs[(sid - 1) % len(pairs)]
        intra_books[sz][session_keys[(sid, PUB)].address] = scn.funding.member_units
        intra_books[bz][session_keys[(sid, SUB)].address] = scn.funding.member_units
    for d in scn.domains:
        for k in dlg_keys[d.zone_id]:
            intra_books[d.zone_id][k.address] = scn.funding.delegate_intra_units
        intra_books[d.zone_id][zone_load_keys[d.zone_id].address] = scn.funding.loadgen_units

    # -- inter genesis state -----------------------------------------------------
    inter_balances: dict[bytes, int] = {}
    for k in miner_keys:
        inter_balances[k.address] = scn.funding.miner_units
    for d in scn.domains:
        for k in dlg_keys[d.zone_id]:
            inter_balances[k.address] = scn.funding.delegate_inter_units
    inter_balances[admin_key.address] = scn.funding.admin_units
    inter_balances[inter_load_key.address] = scn.funding.loadgen_units

    delegation_all = tuple(k.address for d in scn.domains for k in dlg_keys[d.zone_id])
    contracts = {cid: BrokerInfo(contract_id=cid, admin=admin_key.address,
                                 delegation_list=delegation_all)
                 for cid in range(1, scn.inter.contracts + 1)}
    genesis_state = ChainState(dict(inter_balances), dict(contracts))

    target = (1 << scn.inter.target_bits) - 1 if scn.inter.mode == "puzzle" else (1 << 256) - 1

    # -- inter nodes -------------------------------------------------------------
    miner_node_ids = [f"miner:{i}" for i in range(scn.inter.miners)]
    all_inter_ids = miner_node_ids + ["admin"] + [n for d in scn.domains for n in dlg_ids[d.zone_id]]

    def new_inter_node(addr: bytes):
        return InterNode(addr, keyring, genesis_state, target,
                         confirmation_depth=scn.inter.confirmation_depth,
                         block_capacity=scn.inter.block_capacity, fee=scn.inter.fee_units,
                         block_reward=scn.inter.block_reward_units)

    for i, mk in enumerate(miner_keys):
        inter = new_inter_node(mk.address)
        node = MinerNode(miner_node_ids[i], inter, random.Random(scn.seed ^ (0x6D696E65 + i)),
                         mode=scn.inter.mode, mean_interval_ms=scn.inter.mean_block_interval_ms,
                         share=1.0 / scn.inter.miners, collector=collector)
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
        committee = [k.address for k in val_keys[z]]
        vnodes = []
        for node_id, vk in zip(val_ids[z], val_keys[z]):
            core = Validator(vk, committee, z, keyring,
                             block_capacity=d.block_capacity,
                             round_timeout_ms=d.round_timeout_ms,
                             block_interval_ms=d.block_interval_ms,
                             balances=intra_books[z])
            node = ValidatorNode(node_id, core, collector)
            node.committee_nodes = val_ids[z]
            node.fullnode_targets = dlg_ids[z]
            sim.add_node(node)
            vnodes.append(node)
        h.validators[z] = vnodes

        dnodes = []
        for node_id, dk in zip(dlg_ids[z], dlg_keys[z]):
            follower = ZoneFollower(committee, keyring, balances=intra_books[z])
            inter = new_inter_node(dk.address)
            node = DelegateNode(node_id, z, dk, follower, inter,
                                miner_node_ids, "admin", registry_by_zone[z], collector=collector)
            node.zone_validators = val_ids[z]
            sim.add_node(node)
            dnodes.append(node)
        h.delegates[z] = dnodes

    # -- session clients ---------------------------------------------------------------
    for sid in range(1, scn.workload.sessions + 1):
        sz, bz = pairs[(sid - 1) % len(pairs)]
        start = scn.workload.session_start_ms + (sid - 1) * scn.workload.session_interval_ms
        for side, zone in ((PUB, sz), (SUB, bz)):
            cfg = SessionConfig(
                session_id=sid, side=side, zone_id=zone, start_ms=start,
                payload=session_payloads[sid], deposit=scn.workload.deposit_units,
                deliver_after_ms=scn.workload.deliver_after_ms,
                intra_timeout_ms=scn.protocol.intra_timeout_ms,
                ack_timeout_ms=scn.ack_timeout_ms(),
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
                val_ids[z], scn.workload.intra_rate_per_s, scn.workload.intra_offset_ms, until,
                payload_bytes=scn.workload.intra_payload_bytes, collector=collector,
                times=(scn.workload.intra_probe_times_ms or None),
            )
            sim.add_node(node)
    inter_until = scn.workload.inter_until_ms if scn.workload.inter_until_ms is not None else scn.duration_ms
    if scn.workload.inter_rate_per_s > 0 or scn.workload.inter_probe_times_ms:
        node = InterLoadNode("load:inter", inter_load_key, miner_node_ids, scn.inter.fee_units,
                             scn.workload.inter_rate_per_s, scn.workload.inter_offset_ms,
                             inter_until, collector=collector,
                             times=(scn.workload.inter_probe_times_ms or None))
        sim.add_node(node)

    # -- faults ------------------------------------------------------------------------
    for f in scn.faults:
        sim.inject_fault(FaultEntry(
            at_ms=float(f["at_ms"]), node=f.get("node", ""), fault=f["fault"],
            behavior=f.get("behavior", ""), groups=tuple(tuple(g) for g in f.get("groups", ())),
        ))

    # -- genesis bookkeeping --------------------------------------------------------------
    h.intra_books_initial = {z: dict(b) for z, b in intra_books.items()}
    h.initial_supply = sum(sum(b.values()) for b in intra_books.values()) + sum(inter_balances.values())
    log.emit(
        "genesis",
        seed=scn.seed,
        total_supply=h.initial_supply,
        fee=scn.inter.fee_units,
        block_reward=scn.inter.block_reward_units,
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
    out: dict[str, list[float]] = {}
    for z in sorted(h.validators):
        vals = []
        for d, (zone_of, t_sub) in h.collector.intra_submits.items():
            if zone_of != z:
                continue
            t_commit = h.collector.intra_commits.get(d)
            if t_commit is not None:
                vals.append((t_commit - t_sub) / 1000.0)
        out[f"zone:{z}"] = vals
    if h.miners:
        observer = h.miners[0].inter
        vals = []
        for d, t_sub in h.collector.inter_submits.items():
            t_conf = observer.confirm_times.get(d)
            if t_conf is not None:
                vals.append((t_conf - t_sub) / 1000.0)
        out["inter"] = vals
    return out


def finalize(h: RunHandles) -> MetricsReport:
    scn = h.scenario
    sim = h.sim
    log = h.log
    duration_s = scn.duration_ms / 1000.0

    observer = h.miners[0].inter if h.miners else None

    if scn.log_payloads:
        for src, dst, data in sim.transcript:
            log.emit("xdom", src=src, dst=dst, bytes=data.hex())
    if observer is not None:
        log.emit("inter_canonical", blocks=[d.hex() for d in observer.canonical])

    # Conservation: observer tip state + one live validator book per zone.
    total = 0
    intra_totals = {}
    for z in sorted(h.validators):
        book = _first_live_validator(h, z).core.book
        intra_totals[str(z)] = book.total()
        total += book.total()
    inter_total = 0
    minted = 0
    if observer is not None:
        st = observer.tip_state()
        inter_total = st.total_supply()
        minted = st.minted_total
        total += inter_total
    delta = total - h.initial_supply - minted
    log.emit("final", at=round(sim.now, 3), conservation_delta=delta,
             intra_totals=intra_totals, inter_total=inter_total, minted=minted)

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

    # Per-ledger metrics.
    lats = raw_latencies(h)
    for z in sorted(h.validators):
        node = _first_live_validator(h, z)
        ledger = node.core.ledger
        committed = len(ledger.tx_index)
        submitted = sum(1 for (zz, _t) in h.collector.intra_submits.values() if zz == z)
        report.ledgers[f"zone:{z}"] = LedgerMetrics(
            tx_throughput=committed / duration_s if duration_s else 0.0,
            commit_latency=LatencyStats.from_values(lats[f"zone:{z}"]),
            block_count=ledger.height,
            submitted=submitted,
            committed=committed,
        )
    if observer is not None:
        committed = len(observer.canonical_receipts)
        report.ledgers["inter"] = LedgerMetrics(
            tx_throughput=committed / duration_s if duration_s else 0.0,
            commit_latency=LatencyStats.from_values(lats.get("inter", [])),
            block_count=observer.tip_height,
            submitted=len(h.collector.inter_submits),
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
    report.event_log_digest = log.digest_hex()
    return report


def run(scn: Scenario) -> tuple[MetricsReport, RunHandles]:
    """Build and execute a scenario to its configured duration."""
    scn.validate()
    h = build(scn)
    for node in list(h.sim.nodes.values()):
        start = getattr(node, "start", None)
        if start is not None:
            start(h.sim)
    h.sim.run_until(scn.duration_ms)
    report = finalize(h)
    return report, h
