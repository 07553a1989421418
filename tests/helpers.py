"""Shared test utilities, kept deliberately dumb.

The enumeration oracle here is the ground truth the library is judged
against: plain itertools over all assignments, no vectorization, no
shortcuts.
"""

import itertools

from goodnet import Legality, Network, Weight
from goodnet.oracle import _forest_walk


def enumerate_optima(net: Network):
    """(gmax, sorted argmax list) by scanning every assignment."""
    return conditioned_optimum(net, {})


def conditioned_optimum(net: Network, y):
    """(gmax, sorted argmax list) over every assignment that agrees with
    the partial assignment ``y`` (node -> bit)."""
    best = None
    arg = []
    for bits in itertools.product((0, 1), repeat=net.n):
        if any(bits[i - 1] != v for i, v in y.items()):
            continue
        g = net.goodness(bits)
        if best is None or g > best:
            best, arg = g, [bits]
        elif g == best:
            arg.append(bits)
    return best, sorted(arg)


def tree_conditioned_max_reference(net: Network, y):
    """(max goodness, witness) given fixed values y: scalar dict DP on the
    forest left after deleting y's nodes, one conditioning at a time.

    Each fixed neighbor folds into an effective bias; terms entirely
    inside the fixed set are a constant.  Ties prefer the unit on.
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


def cutset_optimize_reference(net: Network, members):
    """(gmax, sorted witnesses, COND rows): one scalar DP per cutset code,
    codes in ascending order with the lowest member most significant."""
    members = sorted(members)
    best, witnesses, rows = None, [], []
    for bits in itertools.product((0, 1), repeat=len(members)):
        value, witness = tree_conditioned_max_reference(net, dict(zip(members, bits)))
        rows.append((bits, value))
        if best is None or value > best:
            best, witnesses = value, [witness]
        elif value == best:
            witnesses.append(witness)
    return best, tuple(sorted(witnesses)), tuple(rows)


def local_field(net: Network, i: int, a) -> int:
    """Weighted sum of active neighbors, sum_j w_ij * X_j, in micros."""
    return sum(w.micros for j, w in net.neighbors(i) if a[j - 1])


def is_hopfield_stable(net: Network, a) -> bool:
    """True iff no unit would flip under the threshold rule (ties choose 1)."""
    return all(
        a[i - 1] == (1 if local_field(net, i, a) >= -net.bias(i).micros else 0)
        for i in net.nodes()
    )


def enumerate_hopfield_stable(net: Network):
    """All threshold-rule fixed points, by first principles."""
    return sorted(
        bits for bits in itertools.product((0, 1), repeat=net.n) if is_hopfield_stable(net, bits)
    )


def is_forest_without(net: Network, members) -> bool:
    """Forest test by counting: |E'| == |V'| - #components after deleting members."""
    alive = [i for i in net.nodes() if i not in members]
    edges = [(i, j) for i, j, _ in net.edges() if i not in members and j not in members]
    label = {i: i for i in alive}
    for i, j in edges:
        old, new = label[j], label[i]
        if old != new:
            for v in alive:
                if label[v] == old:
                    label[v] = new
    return len(edges) == len(alive) - len(set(label.values()))


def legality_map_fixpoint(net: Network, pointers) -> dict:
    """Reference legality classification: sweep all nodes until no new one turns legal."""
    legal: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i in net.nodes():
            if i in legal:
                continue
            own = pointers.get(i, frozenset())
            nbs = [j for j, _ in net.neighbors(i)]
            if len(own) == 0:
                ok = all(i in pointers.get(j, frozenset()) and j in legal for j in nbs)
            elif len(own) == 1 and next(iter(own)) in nbs:
                parent = next(iter(own))
                ok = all(
                    i in pointers.get(j, frozenset()) and j in legal
                    for j in nbs
                    if j != parent
                )
            else:
                ok = False
            if ok:
                legal.add(i)
                changed = True
    result = {}
    for i in net.nodes():
        if i in legal:
            result[i] = Legality.LEGAL
        else:
            pointing = sum(1 for j, _ in net.neighbors(i) if i in pointers.get(j, frozenset()))
            non_pointing = net.degree(i) - pointing
            result[i] = Legality.CANDIDATE if non_pointing <= 1 else Legality.ILLEGAL
    return result


def non_tree_nodes_reference(net: Network, regs) -> frozenset[int]:
    """Nodes left outside any directed tree: two or more non-pointing neighbors."""
    out = set()
    for i in net.nodes():
        non_pointing = sum(1 for j, _ in net.neighbors(i) if i not in regs[j].points_to)
        if non_pointing >= 2:
            out.add(i)
    return frozenset(out)

def W(x: int) -> Weight:
    return Weight.from_int(x)


def D(text: str) -> Weight:
    return Weight.from_decimal(text)


def M(value: int | str) -> int:
    """Integer micros of a whole number or a decimal literal: M(2), M("-0.1")."""
    return Weight.from_decimal(str(value)).micros
