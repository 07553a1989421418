"""Exhaustive ground truth and exact cutset-conditioned optimization.

Everything here works on immutable Networks and is deliberately
independent of the distributed simulator: one brute-force scan
enumerates raw assignments, and the conditioned solver runs plain
dynamic programming on the forest left after fixing the cutset.  The
scan is vectorized with numpy on int64 micro-units.  It refuses any
network whose sum |w| + sum |theta| reaches 2**62 micros, which bounds
every partial sum it forms, so an accepted scan never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import Network
from .weights import Weight

_CHUNK = 1 << 18

BRUTE_FORCE_MAX_NODES = 26
CUTSET_MAX_SIZE = 20
INT64_SCAN_MAX_MICROS = 1 << 62


@dataclass(frozen=True)
class OptimumReport:
    """Exact maximum goodness, the assignments attaining it, and scan size.

    A cutset optimization also fills `conditionings`: one
    (cutset bits in ascending node order, conditioned maximum) row per
    conditioning, in enumeration order.
    """

    gmax: Weight
    argmax: tuple[tuple[int, ...], ...]
    states_scanned: int
    conditionings: tuple[tuple[tuple[int, ...], Weight], ...] = ()


@dataclass(frozen=True)
class CutsetPlan:
    """A designated node set meant to break every cycle.  Whether it does
    is checked by the forest walk of each conditioning."""

    members: frozenset[int]


# ---------------------------------------------------------------------------
# exhaustive scan


def _check_int64_safe(net: Network) -> None:
    if net.magnitude_micros() >= INT64_SCAN_MAX_MICROS:
        raise ValueError("weights too large for an exact int64 scan (sum |w| + sum |theta| >= 2**62 micros)")


def _bit_matrix(ks: np.ndarray, n: int) -> np.ndarray:
    """0/1 matrix (len(ks) x n); row k holds k's bits, node 1 most significant."""
    bits = np.zeros((len(ks), n), dtype=np.int8)
    for idx in range(n):
        bits[:, idx] = (ks >> (n - 1 - idx)) & 1
    return bits


def _goodness_column(net: Network, bits: np.ndarray) -> np.ndarray:
    g = np.zeros(len(bits), dtype=np.int64)
    for i in net.nodes():
        b = net.bias(i).micros
        if b:
            g += b * bits[:, i - 1].astype(np.int64)
    for i, j, w in net.edges():
        g += w.micros * (bits[:, i - 1] & bits[:, j - 1]).astype(np.int64)
    return g


def brute_force_optima(net: Network) -> OptimumReport:
    """Exact maximum and complete argmax set over all 2**n assignments."""
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {net.n}")
    _check_int64_safe(net)
    total = 1 << net.n
    best = None
    best_rows: list[tuple[int, ...]] = []
    for start in range(0, total, _CHUNK):
        ks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        bits = _bit_matrix(ks, net.n)
        g = _goodness_column(net, bits)
        chunk_best = int(g.max())
        if best is None or chunk_best > best:
            best = chunk_best
            best_rows = []
        if chunk_best == best:
            for row in bits[g == best]:
                best_rows.append(tuple(int(v) for v in row))
    return OptimumReport(Weight(best), tuple(sorted(best_rows)), total)


# ---------------------------------------------------------------------------
# cutset construction and validation


def _forest_walk(net: Network, skip: frozenset[int]) -> list[tuple[list[int], dict[int, int]]]:
    """BFS (order, parent) of each tree left after deleting `skip`, rooted at
    its lowest id; `parent` (0 at a root) is shared by all trees.  Raises
    ValueError when a cycle survives the deletion."""
    parent: dict[int, int] = {}
    trees = []
    for root in net.nodes():
        if root in skip or root in parent:
            continue
        parent[root] = 0
        order = [root]
        for v in order:  # grows while iterated: breadth-first
            for j, _ in net.neighbors(v):
                if j in skip or j == parent[v]:
                    continue
                if j in parent:
                    raise ValueError("fixed set does not cut all cycles")
                parent[j] = v
                order.append(j)
        trees.append((order, parent))
    return trees


def is_acyclic_without(net: Network, members: frozenset[int] | set[int]) -> bool:
    """True iff deleting the given nodes leaves a forest."""
    try:
        _forest_walk(net, frozenset(members))
    except ValueError:
        return False
    return True


def greedy_cutset(net: Network) -> CutsetPlan:
    """Deterministic small cutset: strip degree-<=1 nodes, then repeatedly
    take the highest-degree remaining node (lowest id on ties)."""
    alive = set(net.nodes())
    deg = {i: net.degree(i) for i in alive}

    def strip() -> None:
        queue = [i for i in alive if deg[i] <= 1]
        while queue:
            v = queue.pop()
            if v not in alive:
                continue
            alive.discard(v)
            for j, _ in net.neighbors(v):
                if j in alive:
                    deg[j] -= 1
                    if deg[j] <= 1:
                        queue.append(j)

    members: set[int] = set()
    strip()
    while alive:
        pick = max(alive, key=lambda i: (deg[i], -i))
        members.add(pick)
        alive.discard(pick)
        for j, _ in net.neighbors(pick):
            if j in alive:
                deg[j] -= 1
        strip()
    return CutsetPlan(frozenset(members))


def plan_from_members(net: Network, members) -> CutsetPlan:
    return CutsetPlan(net.check_cutset(members))


# ---------------------------------------------------------------------------
# exact conditioned tree optimization (nonserial dynamic programming)


def tree_conditioned_max(net: Network, y: Mapping[int, int]) -> tuple[Weight, tuple[int, ...]]:
    """Exact max goodness given fixed values y, via DP on the remaining forest.

    Conditioning folds each fixed neighbor's contribution into an
    effective bias; terms entirely inside the fixed set are a constant.
    The remaining graph must be a forest.  Ties prefer the unit on,
    matching the >= convention of the threshold rules.
    """
    skip = frozenset(y)
    trees = _forest_walk(net, skip)
    const = sum(net.bias(i).micros * y[i] for i in skip)
    for i, j, w in net.edges():
        if i in skip and j in skip:
            const += w.micros * y[i] * y[j]

    eff_bias = {}
    for v in net.nodes():
        if v in skip:
            continue
        b = net.bias(v).micros
        for j, w in net.neighbors(v):
            if j in skip:
                b += w.micros * y[j]
        eff_bias[v] = b

    assign = {i: int(y[i]) for i in skip}
    total = const
    for order, parent in trees:
        root = order[0]
        s0 = {v: 0 for v in order}
        s1 = {v: 0 for v in order}
        g0 = {}
        g1 = {}
        for v in reversed(order):
            b = eff_bias[v]
            g0[v] = max(s0[v], s1[v] + b)
            if v != root:
                w = net.weight(v, parent[v]).micros
                g1[v] = max(s0[v], s1[v] + b + w)
                s0[parent[v]] += g0[v]
                s1[parent[v]] += g1[v]
        total += g0[root]
        assign[root] = 1 if s1[root] + eff_bias[root] >= s0[root] else 0
        for v in order[1:]:
            link = net.weight(v, parent[v]).micros * assign[parent[v]]
            assign[v] = 1 if s1[v] + eff_bias[v] + link >= s0[v] else 0
    witness = tuple(assign[i] for i in net.nodes())
    return Weight(total), witness


def cutset_exact_optimize(net: Network, plan: CutsetPlan) -> OptimumReport:
    """Exact global optimum by enumerating cutset conditionings.

    Each of the 2**|Y| fixed assignments to the cutset is solved exactly
    by forest DP; the best conditioning(s) win.  Matches brute force in
    gmax, with one witness assignment per optimal conditioning, and
    reports every conditioning's maximum in `conditionings`.  A plan that
    leaves a cycle raises ValueError from the first conditioning.
    """
    if len(plan.members) > CUTSET_MAX_SIZE:
        raise ValueError(f"cutset enumeration capped at {CUTSET_MAX_SIZE} members")
    members = sorted(plan.members)
    k = len(members)
    best: Weight | None = None
    witnesses: list[tuple[int, ...]] = []
    rows = []
    for code in range(1 << k):
        bits = tuple((code >> (k - 1 - idx)) & 1 for idx in range(k))
        value, witness = tree_conditioned_max(net, dict(zip(members, bits)))
        rows.append((bits, value))
        if best is None or value > best:
            best = value
            witnesses = [witness]
        elif value == best:
            witnesses.append(witness)
    return OptimumReport(best, tuple(sorted(set(witnesses))), 1 << k, tuple(rows))
