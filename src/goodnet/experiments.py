"""Reproducible experiment harnesses behind the `demo` CLI command,
and the paired-run dominance experiments they build on.

Each demo returns a small result object with a `passed` flag and the
measurements that justify it, so tests and the CLI share one
implementation.  All randomness is seeded.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .engine import apply_event, assignment_of, initial_registers, perturb, pointer_snapshot, run
from .fixtures import chain2i, illegal_ring, random_network, ring6
from .network import Network
from .oracle import brute_force_optima, greedy_cutset, tree_conditioned_max
from .rules import Legality, legality_map
from .schedulers import CentralRoundRobin, FairExclusion, SynchronousAll
from .weights import Weight

DOMINANCE_MAX_PASSES = 300  # pass budget of each run in a dominance pair


@dataclass
class DemoResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    inconclusive: bool = False


@dataclass(frozen=True)
class DominancePair:
    """Paired stable goodness values plus whether the pair is comparable
    (both stable and agreeing on the reference node set)."""

    g_better: Weight
    g_base: Weight
    comparable: bool
    reference_nodes: frozenset[int]


def non_tree_nodes(net: Network, regs: Sequence) -> frozenset[int]:
    """Nodes left outside any directed tree: the ILLEGAL class of
    `legality_map`, i.e. two or more non-pointing neighbors."""
    lmap = legality_map(net, pointer_snapshot(regs))
    return frozenset(i for i, v in lmap.items() if v is Legality.ILLEGAL)


def _paired_runs(
    net: Network, seed: int, scheduler_factory, base_rule: str, better_rule: str, reference, cutset=None
) -> DominancePair:
    """`better_rule` vs `base_rule` from one shared random start.

    Comparable means both runs went stable and agree on every node of
    `reference(better_run)`.
    """
    start = dict(init="random", seed=seed, max_passes=DOMINANCE_MAX_PASSES)
    base = run(net, base_rule, scheduler_factory(), **start)
    better = run(net, better_rule, scheduler_factory(), cutset=cutset, **start)
    ref = reference(better)
    comparable = base.stable and better.stable and all(base.assignment[i - 1] == better.assignment[i - 1] for i in ref)
    return DominancePair(better.goodness_final, base.goodness_final, comparable, ref)


def dominance_experiment(net: Network, seed: int, scheduler_factory) -> DominancePair:
    """Tree rule vs threshold rule from one shared random start.

    Comparable means both runs went stable and agree on every node the
    tree rule left outside its trees; for such pairs the tree rule's
    goodness is guaranteed to be at least the threshold rule's.
    """
    return _paired_runs(
        net, seed, scheduler_factory, "hopfield", "activate", lambda tree: non_tree_nodes(net, tree.registers)
    )


def cutset_dominance_experiment(net: Network, members: frozenset[int], seed: int, scheduler_factory) -> DominancePair:
    """Cutset-conditioned rule vs plain tree rule on matched cutset values."""
    return _paired_runs(
        net, seed, scheduler_factory, "activate", "activate-with-cutset", lambda _: members, cutset=members
    )


def _tree_steps(net: Network, regs: list, sched, events: int):
    """Apply `events` tree-rule events to `regs` in place, yielding each
    step index once its event is committed."""
    for step in range(events):
        apply_event(net, regs, sched.next_set(net.n), "activate")
        yield step


def symmetry_lock_demo() -> DemoResult:
    """Synchronous scheduler on mirror-symmetric chains: the two middle
    units stay equal at every step, yet every exact optimum splits them,
    so no step ever reaches an optimum."""
    steps = 10_000
    lines = []
    passed = True
    for i in (3, 4, 5):
        net = chain2i(i)
        report = brute_force_optima(net)
        optima_split = all(a[i - 1] != a[i] for a in report.argmax)
        regs = initial_registers(net, "zeros")
        locked = all(regs[i].x == regs[i + 1].x for _ in _tree_steps(net, regs, SynchronousAll(), steps))
        ok = locked and optima_split
        passed = passed and ok
        lines.append(
            f"chain2i({i}): middle pair equal for {steps} steps={locked}, "
            f"all {len(report.argmax)} optima split the pair={optima_split}"
        )
    return DemoResult("thm41", passed, lines)


def ring_schedule_demo() -> DemoResult:
    """Central scheduler on the 6-ring with the order 1,4,2,5,3,6: opposite
    units stay equal forever and the two alternating optima never occur.

    The order activates opposite units back to back; both see identical
    inputs, so equality is asserted after each completed pair (the state
    is invariant under rotation by three at every even step)."""
    events = 10_000
    net = ring6()
    report = brute_force_optima(net)
    optima = set(report.argmax)
    regs = initial_registers(net, "zeros")
    pairs_equal = True
    optimum_seen = False
    for step in _tree_steps(net, regs, CentralRoundRobin((1, 4, 2, 5, 3, 6)), events):
        a = assignment_of(regs)
        if a in optima:
            optimum_seen = True
            break
        if step % 2 == 1 and not (a[0] == a[3] and a[1] == a[4] and a[2] == a[5]):
            pairs_equal = False
            break
    passed = pairs_equal and not optimum_seen
    lines = [
        f"ring6 scripted 1,4,2,5,3,6: opposite pairs equal after each of "
        f"{events // 2} completed pairs={pairs_equal}, "
        f"optimum visited={optimum_seen} (optima goodness {report.gmax})"
    ]
    return DemoResult("thm42", passed, lines)


def stuck_ring_demo() -> DemoResult:
    """A ring whose pointers already chase each other clockwise is a fixed
    point of uniform tree directing: without the initialization step the
    bogus pointer state survives indefinitely."""
    n, passes = 6, 1_000
    net, pointers = illegal_ring(n)
    regs = initial_registers(net, "preset", preset=pointers)
    steps = _tree_steps(net, regs, CentralRoundRobin(), passes * n)
    unchanged = all(pointer_snapshot(regs) == pointers for _ in steps)
    lines = [f"illegal_ring({n}): pointer state unchanged over {passes} passes={unchanged}"]
    return DemoResult("fig9", unchanged, lines)


def self_stabilization_demo(trials: int = 100, seed: int = 0) -> DemoResult:
    """Fully randomized registers on random trees, fair-exclusion schedule,
    no initialization: every run must still end at the exact optimum."""
    rng = random.Random(seed)
    lines = []
    successes = 0
    for t in range(trials):
        n = rng.randint(2, 12)
        net = random_network("tree", n, seed=rng.randrange(2**32))
        regs = perturb(net, initial_registers(net, "zeros"), seed=rng.randrange(2**32))
        result = run(
            net,
            "activate",
            FairExclusion(rng.randrange(2**32)),
            init="preset",
            preset=regs,
            max_passes=400,
        )
        gmax = brute_force_optima(net).gmax
        ok = result.stable and result.goodness_final == gmax
        successes += ok
        if not ok:
            lines.append(
                f"trial {t}: n={n} stable={result.stable} "
                f"goodness={result.goodness_final} gmax={gmax}"
            )
    lines.append(f"{successes}/{trials} perturbed tree runs reached the exact optimum")
    return DemoResult("selfstab", successes == trials, lines)


def dominance_demo(trials: int = 100, seed: int = 0) -> DemoResult:
    """Paired runs from shared random starts on sparse nets: the tree rule
    never loses to the threshold rule on comparable pairs, and the cutset
    rule never loses to the tree rule on matched cutset values."""
    rng = random.Random(seed)
    comparable, violations = Counter(), Counter()
    lines = []
    for t in range(trials):
        n = rng.randint(4, 14)
        m = rng.randint(0, 3)
        net = random_network("sparse", n, m=m, seed=rng.randrange(2**32))
        pair_seed = rng.randrange(2**32)
        pairs = (
            ("tree", dominance_experiment(net, pair_seed, CentralRoundRobin)),
            ("cutset", cutset_dominance_experiment(net, greedy_cutset(net).members, pair_seed, CentralRoundRobin)),
        )
        for label, pair in pairs:
            if pair.comparable:
                comparable[label] += 1
                if pair.g_better < pair.g_base:
                    violations[label] += 1
                    lines.append(f"trial {t}: {label} rule lost ({pair.g_better} < {pair.g_base})")
    lines.append(
        f"tree vs threshold: {comparable['tree']} comparable, {violations['tree']} violations; "
        f"cutset vs tree: {comparable['cutset']} comparable, {violations['cutset']} violations"
    )
    inconclusive = not (comparable["tree"] and comparable["cutset"])
    return DemoResult("dominance", not violations and not inconclusive, lines, inconclusive)


def uniform_chain(n: int) -> Network:
    w1 = Weight.from_int(1)
    return Network(n, [(v, v + 1, w1) for v in range(1, n)], {v: w1 for v in range(1, n + 1)})


def linear_time_demo() -> DemoResult:
    """Events-to-stability on chains under the central round robin grows
    linearly: every doubling of the chain multiplies the event count by
    2.0 within 25%."""
    lengths = (100, 200, 400, 800, 1600, 3200)
    events = []
    lines = []
    passed = True
    for n in lengths:
        net = uniform_chain(n)
        result = run(net, "activate", CentralRoundRobin(), init="zeros", max_passes=12)
        gmax, _ = tree_conditioned_max(net, {})
        to_stability = result.last_change_step + 1
        events.append(to_stability)
        ok = result.stable and result.goodness_final == gmax
        passed = passed and ok
        lines.append(f"n={n}: events-to-stability={to_stability} stable={result.stable} optimal={ok}")
    for prev, cur, n in zip(events, events[1:], lengths[1:]):
        ratio = cur / prev
        ok = 1.5 <= ratio <= 2.5
        passed = passed and ok
        lines.append(f"doubling to n={n}: ratio={ratio:.3f} within 2.0 +/- 25%={ok}")
    return DemoResult("linear", passed, lines)


DEMOS = {
    "thm41": symmetry_lock_demo,
    "thm42": ring_schedule_demo,
    "fig9": stuck_ring_demo,
    "selfstab": self_stabilization_demo,
    "dominance": dominance_demo,
    "linear": linear_time_demo,
}
