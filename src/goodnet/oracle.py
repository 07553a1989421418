"""Exhaustive ground truth and exact cutset-conditioned optimization.

Everything here works on immutable Networks and is deliberately
independent of the distributed simulator.  Each solver enumerates the
codes of a fixed node set (first node most significant) as numpy columns.
`brute_force_optima` builds the goodness column of the last log2(_CHUNK)
nodes once; per code of the nodes before them it adds that code's own
goodness, and its coupling on strided views of the low nodes' on codes.
`cutset_exact_optimize` walks the forest left without the cutset once and
runs the leaf-to-root DP on columns over the cutset codes;
`tree_conditioned_max` is its one-code case.  Every partial sum is bounded
by sum |w| + sum |theta|: the scan refuses a network where that reaches
2**62 micros, and the DP runs the same code with dtype=object there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import Network
from .weights import Weight

_CHUNK = 1 << 18  # states per scan column
_CODE_CHUNK = 1 << 12  # cutset codes per conditioning-DP column

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
    """A designated node set meant to break every cycle; the forest walk checks it."""

    members: frozenset[int]


def _bits(codes: np.ndarray, size: int) -> np.ndarray:
    """0/1 matrix, one row per code, most significant bit first."""
    return (codes[:, None] >> np.arange(size - 1, -1, -1)) & 1


# ---------------------------------------------------------------------------
# exhaustive scan


def _on(column: np.ndarray, bit: int) -> np.ndarray:
    return column.reshape(-1, 2, 1 << bit)[:, 1]  # view of the entries whose code has `bit` set


def _subnet_column(net: Network, nodes: range) -> np.ndarray:
    """Goodness of the subnet on `nodes` over all its codes.  The column
    doubles once per node, last node first: the codes with the node on add
    its bias, and each edge to a placed node its weight where that node is on."""
    adjacency = net.micros_adjacency()
    last = nodes.stop - 1
    g = np.zeros(1 << len(nodes), dtype=np.int64)
    for v in reversed(nodes):
        bias, nbs = adjacency[v]
        half = 1 << (last - v)
        upper = g[half:2 * half]
        np.add(g[:half], bias, out=upper)
        for j, w in nbs:
            if v < j <= last:
                _on(upper, last - j)[...] += w
    return g


def brute_force_optima(net: Network) -> OptimumReport:
    """Exact maximum and complete argmax set over all 2**n assignments."""
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {net.n}")
    if net.magnitude_micros() >= INT64_SCAN_MAX_MICROS:
        raise ValueError("weights too large for an exact int64 scan (sum |w| + sum |theta| >= 2**62 micros)")
    split = max(0, net.n - (_CHUNK.bit_length() - 1))  # nodes 1..split are high, the rest low
    high_g = _subnet_column(net, range(1, split + 1))
    low_g = _subnet_column(net, range(split + 1, net.n + 1))
    high_bits = _bits(np.arange(len(high_g)), split).tolist()
    # each low node's bit, and its (high bit index, weight) links
    adjacency = net.micros_adjacency()
    boundary = [(net.n - v, [(j - 1, w) for j, w in adjacency[v][1] if j <= split]) for v in range(split + 1, net.n + 1)]
    g, best, best_rows = np.empty_like(low_g), None, []  # one chunk buffer, refilled per high code
    for h, base in enumerate(high_g.tolist()):
        np.add(low_g, base, out=g)
        for bit, links in boundary:
            if coupling := sum(w for j, w in links if high_bits[h][j]):
                _on(g, bit)[...] += coupling
        chunk_best = int(g.max())
        if best is None or chunk_best > best:
            best, best_rows = chunk_best, []
        if chunk_best == best:
            best_rows += [tuple(high_bits[h] + low) for low in _bits(np.flatnonzero(g == best), net.n - split).tolist()]
    return OptimumReport(Weight(best), tuple(sorted(best_rows)), 1 << net.n)


# ---------------------------------------------------------------------------
# cutset construction and validation


def _forest_walk(net: Network, skip: frozenset[int]) -> list[tuple[list[int], dict[int, int]]]:
    """BFS (order, parent) of each tree left after deleting `skip`, rooted at
    its lowest id; `parent` (0 at a root) is shared by all trees.  Raises
    ValueError when a cycle survives the deletion."""
    adjacency = net.micros_adjacency()
    parent: dict[int, int] = {}
    trees = []
    for root in net.nodes():
        if root in skip or root in parent:
            continue
        parent[root] = 0
        order = [root]
        for v in order:  # grows while iterated: breadth-first
            for j, _ in adjacency[v][1]:
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
    adjacency = net.micros_adjacency()
    alive = set(net.nodes())
    deg = {i: len(adjacency[i][1]) for i in alive}

    def strip() -> None:
        queue = [i for i in alive if deg[i] <= 1]
        while queue:
            v = queue.pop()
            if v not in alive:
                continue
            alive.discard(v)
            for j, _ in adjacency[v][1]:
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
        for j, _ in adjacency[pick][1]:
            if j in alive:
                deg[j] -= 1
        strip()
    return CutsetPlan(frozenset(members))


def plan_from_members(net: Network, members) -> CutsetPlan:
    return CutsetPlan(net.check_cutset(members))


# ---------------------------------------------------------------------------
# exact conditioned tree optimization (nonserial dynamic programming)


def _conditioned_chunk(net: Network, trees, members: list[int], ybits: np.ndarray):
    """Conditioned maxima of a chunk of cutset codes (`ybits`: one row per
    code, one column per member), and a function giving the witness rows
    of the codes whose maximum equals a given value.  Fixed neighbors fold
    into a free node's bias; ties prefer the unit on, as in the >= rules."""
    dtype = object if net.magnitude_micros() >= INT64_SCAN_MAX_MICROS else np.int64
    adjacency = net.micros_adjacency()
    y = dict(zip(members, ybits.T.astype(dtype)))
    zero = np.zeros(len(ybits), dtype=dtype)
    total = zero + sum(adjacency[i][0] * y[i] for i in members)
    total = total + sum(w.micros * y[i] * y[j] for i, j, w in net.edges() if i in y and j in y)
    acc0, acc1 = {}, {}  # node -> sum of its children's best with it off, with it on
    choice = {}  # free node -> its best bit with its parent off, with it on
    for order, parent in trees:
        for v in reversed(order):  # a root's parent is node 0, which stays off
            bias, nbs = adjacency[v]
            off = acc0.pop(v, zero)
            on = acc1.pop(v, zero) + bias + sum(w * y[j] for j, w in nbs if j in y)
            p = parent[v]
            on_up = on + net.weight(v, p).micros if p else on
            choice[v] = (on >= off, on_up >= off)
            acc0[p] = acc0.get(p, zero) + np.maximum(off, on)
            acc1[p] = acc1.get(p, zero) + np.maximum(off, on_up)
    total = total + acc0.get(0, zero)

    def witnesses(value: int) -> list[tuple[int, ...]]:
        rows = np.empty((len(ybits), net.n), dtype=np.int8)
        for i in members:
            rows[:, i - 1] = y[i]
        bit = {0: zero != zero}
        for order, parent in trees:
            for v in order:
                bit[v] = np.where(bit[parent[v]], choice[v][1], choice[v][0])
                rows[:, v - 1] = bit[v]
        return list(map(tuple, rows[total == value].tolist()))

    return total, witnesses


def tree_conditioned_max(net: Network, y: Mapping[int, int]) -> tuple[Weight, tuple[int, ...]]:
    """Exact max goodness given fixed values y, via DP on the remaining
    forest, and its witness: the one-code case of `cutset_exact_optimize`."""
    members = sorted(y)
    ybits = np.array([[y[i] for i in members]], dtype=np.int64)
    total, witnesses = _conditioned_chunk(net, _forest_walk(net, frozenset(members)), members, ybits)
    value = int(total[0])
    return Weight(value), witnesses(value)[0]


def cutset_exact_optimize(net: Network, plan: CutsetPlan) -> OptimumReport:
    """Exact global optimum by enumerating cutset conditionings.

    Each of the 2**|Y| fixed assignments to the cutset is solved exactly
    by forest DP; the best conditioning(s) win.  Matches brute force in
    gmax, with one witness assignment per optimal conditioning, and
    reports every conditioning's maximum in `conditionings`.  A plan that
    leaves a cycle raises ValueError from the forest walk.
    """
    if len(plan.members) > CUTSET_MAX_SIZE:
        raise ValueError(f"cutset enumeration capped at {CUTSET_MAX_SIZE} members")
    members = sorted(plan.members)
    trees = _forest_walk(net, frozenset(members))
    codes = 1 << len(members)
    values, best, witnesses = [], None, []
    for start in range(0, codes, _CODE_CHUNK):
        ybits = _bits(np.arange(start, min(start + _CODE_CHUNK, codes)), len(members))
        total, chunk_witnesses = _conditioned_chunk(net, trees, members, ybits)
        values += total.tolist()
        chunk_best = int(total.max())
        if best is None or chunk_best > best:
            best, witnesses = chunk_best, []
        if chunk_best == best:
            witnesses += chunk_witnesses(best)
    rows = tuple(zip(itertools.product((0, 1), repeat=len(members)), map(Weight, values)))
    return OptimumReport(Weight(best), tuple(sorted(witnesses)), codes, rows)
