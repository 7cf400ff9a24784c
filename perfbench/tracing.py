"""Traced mode: per-layer spans recorded from outside the simulator.

``Tracer.install`` replaces the public entry points of every fedledger
layer with timed wrappers, patching each name where the caller looks it
up at call time: methods on their class (``Keyring.sign`` stays a
``staticmethod``), ``powchain.execute_block`` and ``execute_tx`` as
module globals of ``powchain``, the contract functions on the
``contract`` module that ``powchain`` and the checkers both call through,
the checkers as globals of ``eventlog``, and ``run_all_checkers`` as the
name ``runner`` bound at import. ``sha256`` is imported by name into
several modules, so it is timed through its callers instead. No file
under ``src/`` changes.

Spans are aggregated in memory as they close: calls, total and self time
per span name, and calls and time per (parent, child) edge. Self time is
a span's duration minus the time of the child spans it contains, kept
with a span stack. Raw spans are not stored: a run makes millions.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

from fedledger import bft, chain, contract, crypto, eventlog, nodes, powchain, protocol, runner, sim
from stats import percentile

NODE_HANDLERS = ("start", "on_message", "on_timer")
CONTRACT_METHODS = ("configure_publisher", "configure_subscriber", "commit_service",
                    "settle_payment", "replace_delegate")
CHECKERS = ("check_safety", "check_conservation", "check_payment_safety", "check_privacy")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, child) -> [calls, total_s]
        self.durations: dict[str, array] = {}  # span name -> every duration in s
        self.counts: Counter = Counter()
        self.depths: dict[str, list] = {"bft.mempool": [], "powchain.pending": []}
        self.distinct: dict[str, set] = {"crypto.verify": set(), "powchain.execute_block": set()}
        self._stack: list[list] = [["root", 0.0]]  # frames: [span name, child time]

    # -- wrapping -------------------------------------------------------------

    def _timed(self, fn, name: str, keep_durations: bool):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, array("d")) if keep_durations else None
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                parent[1] += dur
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if durations is not None:
                    durations.append(dur)

        return traced

    def wrap(self, owner, attr: str, name: str | None = None, hook=None,
             keep_durations: bool = False) -> None:
        """Replace ``owner.attr`` by a span ``name`` and, outside it, ``hook(fn)``."""
        is_static = isinstance(owner.__dict__.get(attr), staticmethod)
        fn = getattr(owner, attr)
        if name is not None:
            fn = self._timed(fn, name, keep_durations)
        if hook is not None:
            fn = hook(fn)
        setattr(owner, attr, staticmethod(fn) if is_static else fn)

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root-level span, one stage of the run."""
        return self._timed(fn, name, False)(*args)

    # -- hooks that count outside the spans ---------------------------------------

    def _distinct(self, key: str, of):
        seen = self.distinct[key]

        def hook(fn):
            def counted(*args, **kwargs):
                seen.add(of(args))
                return fn(*args, **kwargs)
            return counted
        return hook

    def _depth(self, key: str, of):
        depths = self.depths[key]

        def hook(fn):
            def sampled(self_, *args, **kwargs):
                depths.append(len(of(self_)))
                return fn(self_, *args, **kwargs)
            return sampled
        return hook

    def _count(self, key: str, when=lambda result: True):
        counts = self.counts

        def hook(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if when(result):
                    counts[key] += 1
                return result
            return counted
        return hook

    def _queue_hwm(self, fn):
        counts = self.counts

        def pushed(self_, *args):
            fn(self_, *args)
            if len(self_._queue) > counts["sim.queue_hwm"]:
                counts["sim.queue_hwm"] = len(self_._queue)
        return pushed

    def _contract_errors(self, fn):
        counts = self.counts
        stack = self._stack

        def called(*args):
            try:
                return fn(*args)
            except contract.ContractError:
                if stack[-1][0] == "powchain.execute_tx":
                    counts["contract.errors"] += 1
                raise
        return called

    def _log_bytes(self, fn):
        counts = self.counts

        def serialized(self_):
            data = fn(self_)
            counts["eventlog.log_bytes"] = len(data)
            return data
        return serialized

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        w = self.wrap
        # sim
        w(sim.Simulator, "send", "sim.send")
        w(sim.LinkModel, "sample", "sim.link_sample")
        w(sim.Simulator, "_push", hook=self._queue_hwm)
        # nodes and protocol: every event handler, aggregated per class
        for module, classes in ((nodes, ("ValidatorNode", "MinerNode", "IntraLoadNode", "InterLoadNode")),
                                (protocol, ("DelegateNode", "ClientNode", "AdminNode"))):
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for handler in NODE_HANDLERS:
                    if hasattr(cls, handler):
                        w(cls, handler, f"{module.__name__.rsplit('.', 1)[1]}.{cls_name}")
        # crypto
        w(crypto.Keyring, "verify", "crypto.verify",
          hook=self._distinct("crypto.verify", lambda a: (a[1], a[2], a[3])))
        w(crypto.Keyring, "sign", "crypto.sign")
        # chain
        w(chain.IntraTx, "signing_bytes", "chain.intra_signing_bytes")
        w(chain.Ledger, "append", "chain.ledger_append")
        w(chain.BalanceBook, "apply_block", "chain.apply_block")
        # bft
        w(bft.Validator, "on_msg", "bft.on_msg", keep_durations=True)
        w(bft.Validator, "submit_tx", "bft.submit_tx")
        w(bft.Validator, "_propose", hook=self._depth("bft.mempool", lambda v: v.mempool))
        w(bft.ZoneFollower, "on_decision", "bft.follower_on_decision")
        # powchain
        w(powchain.InterNode, "on_block", "powchain.on_block")
        w(powchain, "execute_block", "powchain.execute_block",
          hook=self._distinct("powchain.execute_block", lambda a: a[1].digest()))
        w(powchain, "execute_tx", "powchain.execute_tx")
        w(powchain.InterNode, "submit_tx", "powchain.submit_tx",
          hook=self._count("powchain.submit_rejected", lambda res: not res[0]))
        w(powchain.InterNode, "_reorg", hook=self._count("powchain.reorgs"))
        w(powchain.InterNode, "build_block", hook=self._depth("powchain.pending", lambda n: n.pending))
        # contract: one span name for every method; errors counted for block execution only
        for method in CONTRACT_METHODS:
            w(contract, method, "contract.call", hook=self._contract_errors)
        # eventlog
        w(eventlog.EventLog, "emit", "eventlog.emit")
        w(eventlog.EventLog, "serialize", "eventlog.serialize", hook=self._log_bytes)
        for checker in CHECKERS:
            w(eventlog, checker, f"eventlog.{checker}")
        w(runner, "run_all_checkers", "eventlog.run_all_checkers")
        # runner
        w(runner, "build", "runner.build")
        w(runner, "finalize", "runner.finalize")

    # -- results ------------------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def _self(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_metrics(self, h) -> dict[str, float]:
        """Per-layer metrics of one traced run; ``h`` is the run's handles."""
        verify_calls = self._calls("crypto.verify")
        execute_calls = self._calls("powchain.execute_block")
        on_msg_us = [d * 1e6 for d in self.durations.get("bft.on_msg", ())]
        observers = [runner._first_live_validator(h, z) for z in sorted(h.validators)]
        inter_nodes = [m.inter for m in h.miners] + ([h.admin.inter] if h.admin else []) + \
            [d.inter for z in sorted(h.delegates) for d in h.delegates[z]]
        clients = list(h.clients.values())
        m = {
            "sim.events": h.sim.processed,
            "sim.send_calls": self._calls("sim.send"),
            "sim.send_self_s": self._self("sim.send"),
            "sim.link_sample_calls": self._calls("sim.link_sample"),
            "sim.link_sample_s": self._total("sim.link_sample"),
            "sim.queue_hwm": self.counts["sim.queue_hwm"],
            "crypto.verify_calls": verify_calls,
            "crypto.verify_s": self._total("crypto.verify"),
            "crypto.verify_distinct_ratio": _ratio(len(self.distinct["crypto.verify"]), verify_calls),
            "crypto.sign_calls": self._calls("crypto.sign"),
            "crypto.sign_s": self._total("crypto.sign"),
            "chain.intra_signing_bytes_calls": self._calls("chain.intra_signing_bytes"),
            "chain.intra_signing_bytes_s": self._total("chain.intra_signing_bytes"),
            "chain.ledger_append_calls": self._calls("chain.ledger_append"),
            "chain.ledger_append_s": self._total("chain.ledger_append"),
            "chain.apply_block_s": self._total("chain.apply_block"),
            "bft.on_msg_calls": self._calls("bft.on_msg"),
            "bft.on_msg_self_s": self._self("bft.on_msg"),
            "bft.on_msg_p50_us": percentile(on_msg_us, 50) if on_msg_us else 0.0,
            "bft.on_msg_p99_us": percentile(on_msg_us, 99) if on_msg_us else 0.0,
            "bft.submit_tx_calls": self._calls("bft.submit_tx"),
            "bft.submit_tx_s": self._total("bft.submit_tx"),
            "bft.follower_on_decision_s": self._total("bft.follower_on_decision"),
            "bft.heights": sum(v.core.ledger.height for v in observers),
            "bft.rounds_above_0": sum(1 for v in observers for b in v.core.ledger.blocks[1:]
                                      if b.seal.round > 0),
            "bft.mempool_depth_p50": _median(self.depths["bft.mempool"]),
            "powchain.on_block_calls": self._calls("powchain.on_block"),
            "powchain.on_block_self_s": self._self("powchain.on_block"),
            "powchain.execute_block_calls": execute_calls,
            "powchain.execute_tx_calls": self._calls("powchain.execute_tx"),
            "powchain.execute_useful_ratio": _ratio(len(self.distinct["powchain.execute_block"]),
                                                    execute_calls),
            "powchain.submit_tx_calls": self._calls("powchain.submit_tx"),
            "powchain.submit_rejected": self.counts["powchain.submit_rejected"],
            "powchain.states_retained": sum(len(n.states) for n in inter_nodes),
            "powchain.receipts_retained": sum(sum(len(r) for r in n.block_receipts.values())
                                              + len(n.canonical_receipts) for n in inter_nodes),
            "powchain.reorgs": self.counts["powchain.reorgs"],
            "powchain.pending_depth_p50": _median(self.depths["powchain.pending"]),
            "contract.calls": self.edges.get(("powchain.execute_tx", "contract.call"), [0])[0],
            "contract.errors": self.counts["contract.errors"],
            "protocol.sessions_settled": sum(1 for c in clients if c.phase == protocol.SETTLED),
            "protocol.failovers": sum(c.failovers for c in clients),
            "eventlog.emit_calls": self._calls("eventlog.emit"),
            "eventlog.emit_s": self._total("eventlog.emit"),
            "eventlog.serialize_s": self._total("eventlog.serialize"),
            "eventlog.log_bytes": self.counts["eventlog.log_bytes"],
            "runner.build_s": self._total("runner.build"),
            "runner.finalize_s": self._total("runner.finalize"),
        }
        for cls_name in ("ValidatorNode", "MinerNode", "IntraLoadNode", "InterLoadNode"):
            m[f"nodes.{cls_name}.self_s"] = self._self(f"nodes.{cls_name}")
        for cls_name in ("DelegateNode", "ClientNode", "AdminNode"):
            m[f"protocol.{cls_name}.self_s"] = self._self(f"protocol.{cls_name}")
        for checker in CHECKERS:
            m[f"eventlog.{checker}_s"] = self._total(f"eventlog.{checker}")
        return m

    def span_table(self) -> dict:
        """The aggregated spans, for the run's detail file."""
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": n, "total_s": t}
                      for (p, c), (n, t) in sorted(self.edges.items())],
        }


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _median(values: list) -> float:
    return float(percentile(values, 50)) if values else 0.0
