"""Adversary experiments and statistical oracles.

The double-spend experiment drives the real fork-choice machinery: an
attacker forks the chain just below a depth-k confirmed transaction and
mines privately, releasing only once strictly longer. Block production
follows the same competing-exponentials model as virtual-time mining.

The analytic oracle matching the experiment is the catch-up race
(gambler's ruin, attacker starting z behind at confirmation time).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .chain import MAX_TARGET, PowSeal, build_block
from .crypto import Keyring
from .powchain import M_TRANSFER, ChainState, InterNode, signed_inter_tx


def catchup_probability(attacker_share: float, deficit: int) -> float:
    """P(private fork ever reaches a tie) from ``deficit`` blocks behind.

    The classic catch-up bound; treats a tie as success."""
    q = attacker_share
    p = 1.0 - q
    if q <= 0:
        return 0.0
    if q >= p:
        return 1.0
    return (q / p) ** deficit


def overtake_probability(attacker_share: float, deficit: int) -> float:
    """P(private fork ever becomes strictly longer) from ``deficit`` behind.

    Longest-chain ties keep the incumbent, so a real reorg needs one net
    win beyond the tie: (q/p)^(deficit+1). This is the oracle for the
    simulated attack below."""
    return catchup_probability(attacker_share, deficit + 1)


def ks_exponential(samples: list[float], mean: float) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic against Exp(mean) and the alpha=0.01
    asymptotic critical value c(0.01)/sqrt(n), c(0.01) = 1.628."""
    n = len(samples)
    xs = sorted(samples)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = 1.0 - math.exp(-x / mean)
        d = max(d, abs((i + 1) / n - cdf), abs(cdf - i / n))
    return d, 1.628 / math.sqrt(n)


@dataclass
class DoubleSpendResult:
    attempts: int
    successes: int
    give_ups: int
    analytic: float

    @property
    def rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


def double_spend_experiment(
    attempts: int,
    attacker_share: float,
    confirmations: int,
    seed: int,
    mean_interval_ms: float = 4500.0,
    give_up_deficit: int = 40,
) -> DoubleSpendResult:
    """Monte-Carlo private-fork attack against a depth-k confirmed payment.

    Per attempt: the victim tx lands in the first block; the honest chain
    grows to depth k (the victim pays out); the attacker, forked from the
    block below the tx, then races the honest majority. Success means the
    victim node reorganizes onto the attacker branch, dropping the
    confirmed tx. The attacker abandons once ``give_up_deficit`` behind.
    """
    q = attacker_share
    successes = 0
    give_ups = 0
    for attempt in range(attempts):
        rng = random.Random(seed * 1_000_003 + attempt)
        keyring = Keyring(rng)
        victim_key = keyring.new_account()
        payee = keyring.new_account()
        attacker = keyring.new_account()
        state = ChainState({victim_key.address: 10_000})
        victim = InterNode(victim_key.address, keyring, state, MAX_TARGET,
                           confirmation_depth=confirmations, fee=1)
        tx = signed_inter_tx(victim_key, 0, M_TRANSFER,
                             args=payee.address + attempt.to_bytes(8, "big"),
                             attached=1000, fee=1)
        victim.submit_tx(tx)
        now = 0.0

        def mine_honest():
            nonlocal now
            now += rng.expovariate(1.0 / mean_interval_ms)
            block = victim.build_block(now, nonce=victim.tip_height)
            victim.on_block(block, now)

        # Victim tx included at height 1, then confirmed at depth k.
        mine_honest()
        fork_parent = victim.canonical[0]
        fork_parent_height = 0
        while victim.tip_height < confirmations:
            mine_honest()
        assert tx.digest() in victim.confirmed

        # Private race from the fork parent (attacker starts k behind).
        attacker_chain: list = []
        att_parent = fork_parent
        att_height = fork_parent_height
        honest_len = victim.tip_height - fork_parent_height
        nonce = 0
        while len(attacker_chain) <= honest_len:
            if honest_len - len(attacker_chain) >= give_up_deficit:
                give_ups += 1
                break
            now += rng.expovariate(1.0 / mean_interval_ms)
            if rng.random() < q:
                block = build_block(att_parent, att_height + 1, [], int(now),
                                    PowSeal(attacker.address, nonce, MAX_TARGET))
                nonce += 1
                attacker_chain.append(block)
                att_parent = block.digest()
                att_height += 1
            else:
                mine_honest()
                honest_len = victim.tip_height - fork_parent_height
        if len(attacker_chain) > honest_len:
            for b in attacker_chain:
                victim.on_block(b, now)
            if tx.digest() not in victim.canonical_receipts:
                successes += 1
    return DoubleSpendResult(attempts, successes, give_ups,
                             overtake_probability(q, confirmations))
