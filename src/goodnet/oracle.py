"""Exhaustive ground truth and exact cutset-conditioned optimization.

Everything here works on immutable Networks and is deliberately
independent of the distributed simulator.  Each solver enumerates the
codes of a fixed node set (first node most significant) as numpy columns.
`brute_force_optima` builds the goodness column of the last nodes, as
many as fill a 128 KB column, and bounds each code of the nodes before
them (the high codes) by its own goodness, the column's max and its on
nodes' positive weights to the column's nodes.  It visits the code of
largest bound first, then the others in Gray order from it, skipping each
whose bound is below the best found so far (a bound equal to it is
visited, so ties are kept); the running column moves between visited
codes by adding or subtracting one contiguous coupling column per high
node that differs, each built on first use.  A skipped code's states are
decided without being evaluated, so `states_scanned` stays 2**n.
`cutset_exact_optimize` walks the forest left without the cutset once and
runs the leaf-to-root DP over the cutset codes, with columns over the
codes only in the sums that a fixed unit reaches; `tree_conditioned_max`
is its one-code case.  Every partial sum, the scan's running column after
a subtraction and its bounds included, sums a subset of the net's terms,
so it is bounded by sum |w| + sum |theta|: the scan's columns are int32
while that stays below `INT32_SCAN_MAX_MICROS` (2**31) and int64 up to
`INT64_SCAN_MAX_MICROS` (2**62), where the scan refuses the network and
the DP runs the same code with dtype=object columns.  Both read only the
net's int micros (`Network.micros_adjacency`); `Weight` wraps what they
report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .network import INT64_SCAN_MAX_MICROS, Network
from .weights import Weight

_CHUNK_BYTES = 1 << 17  # bytes per scan column: it and the coupling column it adds stay in cache
INT32_SCAN_MAX_MICROS = 1 << 31  # the scan's sums fit int32 while magnitude_micros() stays below
_CODE_CHUNK = 1 << 12  # cutset codes per conditioning-DP column
_SLICE_MIN_ENTRIES = 1 << 12  # `_add_on` adds through slices from this column length

BRUTE_FORCE_MAX_NODES = 26
CUTSET_MAX_SIZE = 20


@dataclass(frozen=True)
class OptimumReport:
    """Exact maximum goodness, the assignments attaining it, and scan size.

    A cutset optimization also fills `conditioning_micros`: each
    conditioning's maximum in int micros, in code order (first member
    most significant), so 2**|Y| values; `conditionings` pairs them with
    their cutset bits as Weights when it is read.
    """

    gmax: Weight
    argmax: tuple[tuple[int, ...], ...]
    states_scanned: int
    conditioning_micros: tuple[int, ...] = ()

    @property
    def conditionings(self) -> tuple[tuple[tuple[int, ...], Weight], ...]:
        """(cutset bits in ascending node order, conditioned maximum) per conditioning, in code order."""
        values = self.conditioning_micros
        size = len(values).bit_length() - 1  # 2**size values
        return tuple(zip(itertools.product((0, 1), repeat=size), map(Weight, values))) if values else ()


@dataclass(frozen=True)
class CutsetPlan:
    """A designated node set meant to break every cycle; the forest walk checks it."""

    members: frozenset[int]


def _bits(codes: np.ndarray, size: int) -> np.ndarray:
    """0/1 matrix, one row per code, most significant bit first."""
    return (codes[:, None] >> np.arange(size - 1, -1, -1)) & 1


# ---------------------------------------------------------------------------
# exhaustive scan


def _add_on(column: np.ndarray, bit: int, w: int) -> None:
    """Add w to the entries whose code has `bit` set.  At bits 0-2 of a
    long column those entries form many rows 1-4 wide, which numpy walks
    several times slower than the 1-4 strided slices that hold them; a
    short column keeps the one view, which costs one call."""
    width = 1 << bit
    if bit < 3 and len(column) >= _SLICE_MIN_ENTRIES:
        for k in range(width, 2 * width):
            column[k :: 2 * width] += w
    else:
        column.reshape(-1, 2, width)[:, 1] += w


def _scan_dtype(net: Network) -> type:
    """int32 while every partial sum of the net's terms fits it, else int64;
    refuses a net past the int64 bound."""
    magnitude = net.magnitude_micros()
    if magnitude >= INT64_SCAN_MAX_MICROS:
        raise ValueError("weights too large for an exact int64 scan (sum |w| + sum |theta| >= 2**62 micros)")
    return np.int32 if magnitude < INT32_SCAN_MAX_MICROS else np.int64


def _subnet_column(net: Network, nodes: range) -> np.ndarray:
    """Goodness of the subnet on `nodes` over all its codes, in the net's
    scan dtype.  The column doubles once per node, last node first: the
    codes with the node on add its bias, and each edge to a placed node its
    weight where that node is on."""
    adjacency = net.micros_adjacency()
    last = nodes.stop - 1
    g = np.zeros(1 << len(nodes), dtype=_scan_dtype(net))
    for v in reversed(nodes):
        bias, nbs = adjacency[v]
        half = 1 << (last - v)
        upper = g[half:2 * half]
        np.add(g[:half], bias, out=upper)
        for j, w in nbs:
            if v < j <= last:
                _add_on(upper, last - j, w)
    return g


def brute_force_optima(net: Network) -> OptimumReport:
    """Exact maximum and complete argmax set over all 2**n assignments.
    Columns are int32 while sum |w| + sum |theta| < 2**31 micros and int64
    below 2**62, where the scan refuses the net; each spans `_CHUNK_BYTES`
    (128 KB), so it holds 2**15 int32 or 2**14 int64 codes.

    The nodes the column holds are low and the ones before them high.
    High code h bounds its states by UB(h) = the goodness of the high
    nodes' subnet at h + the low column's max + the positive weights from
    each high node on in h to low nodes.  A state's goodness sums the
    first term, a low column entry and each on high node's coupling to
    the low nodes on, none above its term of UB, so no state of h exceeds
    UB(h).  The walk visits the code of largest UB first, then the others
    in Gray order from it, skipping each whose UB is below the best found
    so far.  A code whose UB equals the best is visited, so ties are kept.
    A skipped code's states are decided, not evaluated, so
    `states_scanned` stays 2**n."""
    if net.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {net.n}")
    dtype = _scan_dtype(net)
    chunk_bits = (_CHUNK_BYTES // np.dtype(dtype).itemsize).bit_length() - 1
    split = max(0, net.n - chunk_bits)  # nodes 1..split are high, the rest low
    high_g = _subnet_column(net, range(1, split + 1))
    g = _subnet_column(net, range(split + 1, net.n + 1))  # running: low goodness plus the coupling of the high nodes on in h
    adjacency = net.micros_adjacency()
    low_edges = [[(net.n - v, w) for v, w in adjacency[j][1] if v > split] for j in range(1, split + 1)]  # (low bit, weight)
    # row j - 1: high node j's weights to its low neighbours that are on,
    # built when the walk first moves j; np.zeros leaves a row never built unwritten
    coupling, built = np.zeros((split, len(g)), dtype=g.dtype), [False] * split
    reach = [sum(w for _, w in edges if w > 0) for edges in low_edges]  # the most high node j's coupling adds to a state
    order, bound = [0], None  # one code, always visited, when there is no high node
    if split:
        codes = np.arange(1 << split)
        bound = (high_g + (int(g.max()) + _bits(codes, split) @ np.array(reach, dtype=np.int64))).tolist()
        start = bound.index(max(bound))
        order = (start ^ codes ^ codes >> 1).tolist()  # Gray order from `start`: each step turns one high node on or off
    high_g = high_g.tolist()
    best, best_rows, h = None, [], 0
    for code in order:
        if best is not None and bound[code] < best:
            continue
        flip, h = h ^ code, code
        while flip:  # move the running column from the last visited code
            bit = (flip & -flip).bit_length() - 1
            flip ^= 1 << bit
            k = split - 1 - bit  # high node k + 1
            if not built[k]:
                built[k] = True
                for low_bit, w in low_edges[k]:
                    _add_on(coupling[k], low_bit, w)
            (np.add if h >> bit & 1 else np.subtract)(g, coupling[k], out=g)
        chunk_best = int(g.max()) + high_g[h]
        if best is None or chunk_best > best:
            best, best_rows = chunk_best, []
        if chunk_best == best:
            high = [h >> (split - 1 - k) & 1 for k in range(split)]
            best_rows += [tuple(high + low) for low in _bits(np.flatnonzero(g == best - high_g[h]), net.n - split).tolist()]
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
    into a free node's bias; ties prefer the unit on, as in the >= rules.

    A free node whose subtree no fixed unit reaches has the same sums for
    every code, so they stay Python ints and its >= choices Python bools;
    they become columns over the codes (dtype=object past the int64 bound)
    only once a fixed neighbor's term enters them, and numpy broadcasting
    mixes the two forms.  `witnesses` backtracks only the codes it returns."""
    dtype = object if net.magnitude_micros() >= INT64_SCAN_MAX_MICROS else np.int64
    adjacency = net.micros_adjacency()
    y = dict(zip(members, ybits.T.astype(dtype)))
    total = sum(adjacency[i][0] * y[i] for i in members)
    total = total + sum(w * y[i] * y[j] for i in members for j, w in adjacency[i][1] if i < j and j in y)
    acc0, acc1 = {}, {}  # node -> sum of its children's best with it off, with it on
    choice = {}  # free node -> its best bit with its parent off, with it on
    for order, parent in trees:
        for v in reversed(order):  # a root's parent is node 0, which stays off
            field, nbs = adjacency[v]  # grows into v's bias plus its fixed neighbours' terms
            p = parent[v]
            up = 0  # v's weight to its parent, 0 at a root
            for j, w in nbs:
                if j in y:
                    field = field + w * y[j]
                elif j == p:
                    up = w
            off = acc0.pop(v, 0)
            on = acc1.pop(v, 0) + field
            on_up = on + up if up else on
            c0, c1 = choice[v] = (on >= off, on_up >= off)
            if isinstance(c0, bool):  # no fixed unit reaches v's subtree: both sums are ints
                best0, best1 = on if c0 else off, on_up if c1 else off
            else:
                best0, best1 = np.maximum(off, on), np.maximum(off, on_up)
            acc0[p], acc1[p] = (acc0[p] + best0, acc1[p] + best1) if p in acc0 else (best0, best1)
    total = np.zeros(len(ybits), dtype=dtype) + (total + acc0.get(0, 0))

    def witnesses(value: int) -> list[tuple[int, ...]]:
        rows = []
        for k in np.flatnonzero(total == value).tolist():
            bit = [0] * (net.n + 1)  # bit[0] is the roots' parent, off
            for i, b in zip(members, ybits[k].tolist()):
                bit[i] = b
            for order, parent in trees:
                for v in order:
                    c = choice[v][bit[parent[v]]]
                    bit[v] = int(c if isinstance(c, bool) else c[k])
            rows.append(tuple(bit[1:]))
        return rows

    return total, witnesses


def tree_conditioned_max(net: Network, y: Mapping[int, int]) -> tuple[Weight, tuple[int, ...]]:
    """Exact max goodness given fixed values y, via DP on the remaining
    forest, and its witness: the one-code case of `cutset_exact_optimize`.
    Nodes that no fixed unit reaches (all of them when y is empty) run on
    Python ints alone.  A node outside 1..n or a value other than 0/1
    raises ValueError naming the entry."""
    members = sorted(y)
    for i in members:
        if not 1 <= i <= net.n:
            raise ValueError(f"fixed node {i} outside 1..{net.n}")
        if y[i] not in (0, 1):
            raise ValueError(f"fixed node {i} has value {y[i]!r}, expected 0 or 1")
    ybits = np.array([[y[i] for i in members]], dtype=np.int64)
    total, witnesses = _conditioned_chunk(net, _forest_walk(net, frozenset(members)), members, ybits)
    value = int(total[0])
    return Weight(value), witnesses(value)[0]


def cutset_exact_optimize(net: Network, plan: CutsetPlan) -> OptimumReport:
    """Exact global optimum by enumerating cutset conditionings.

    Each of the 2**|Y| fixed assignments to the cutset is solved exactly
    by forest DP; the best conditioning(s) win.  Matches brute force in
    gmax, with one witness assignment per optimal conditioning, and
    reports every conditioning's maximum in `conditionings`.  A plan with
    a member outside 1..n, or one that leaves a cycle, raises ValueError.
    """
    if len(plan.members) > CUTSET_MAX_SIZE:
        raise ValueError(f"cutset enumeration capped at {CUTSET_MAX_SIZE} members")
    members = sorted(net.check_cutset(plan.members))
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
    return OptimumReport(Weight(best), tuple(sorted(witnesses)), codes, tuple(values))
