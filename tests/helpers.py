"""Shared test utilities, kept deliberately dumb.

The enumeration oracle here is the ground truth the library is judged
against: plain itertools over all assignments, no vectorization, no
shortcuts.
"""

import itertools

from goodnet import Legality, Network, Weight


def enumerate_optima(net: Network):
    """(gmax, sorted argmax list) by scanning every assignment."""
    best = None
    arg = []
    for bits in itertools.product((0, 1), repeat=net.n):
        g = net.goodness(bits)
        if best is None or g > best:
            best, arg = g, [bits]
        elif g == best:
            arg.append(bits)
    return best, sorted(arg)


def enumerate_hopfield_stable(net: Network):
    """All threshold-rule fixed points, by first principles."""
    stable = []
    for bits in itertools.product((0, 1), repeat=net.n):
        ok = True
        for i in net.nodes():
            field = sum(
                (w.micros if bits[j - 1] else 0) for j, w in net.neighbors(i)
            )
            want = 1 if field >= -net.bias(i).micros else 0
            if bits[i - 1] != want:
                ok = False
                break
        if ok:
            stable.append(bits)
    return sorted(stable)


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
