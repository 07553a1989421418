"""Per-unit update rules over shared activation registers.

Each unit owns one register that everyone may read but only the unit
itself writes.  The register holds the activation bit, a pair of
conditional goodness values, and one parent-pointer bit per neighbor.
Units designated as cycle-cutset members publish a separate goodness
pair per neighbor instead of the single (g0, g1) pair, and always
update their activation by the plain threshold rule.

Every function here is pure: it maps a unit's local view (its bias,
its cutset designation and its neighbors' published registers) to the
new field values.  A step that also depends on the unit's own parent
pointers or activation bit takes them as an argument.  Registers and
views (:class:`ActivationRegister`, :class:`LocalView`) are named
tuples, a view's neighbors are plain ``(id, weight, register)``
triples, and each step reads the neighbors in a single pass by
position.  Committing writes, scheduling and snapshot semantics are
the simulation engine's business.

The tree protocol, in one paragraph: a unit that sees exactly one
neighbor not pointing at it adopts that neighbor as its parent; with
zero non-pointing neighbors it is a root, with two or more it is off
the tree (on a cycle) and falls back to the threshold rule.  Goodness
pairs flow from leaves toward the root -- g0/g1 are the best achievable
subtree goodness given the parent off/on -- and activation values flow
back down, so a settled tree carries its exact conditional optimum.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple

from .network import Network


class ActivationRegister(NamedTuple):
    """One unit's shared state: activation bit, goodness pair, pointers.

    Goodness values are integer micros (millionths, as in
    :class:`~goodnet.weights.Weight`).  ``points_to`` holds the ids of
    neighbors this unit sees as parents (at most one for a settled
    non-cutset unit).  ``cutset_g1`` is the per-neighbor conditional
    goodness published by designated cutset units, and None everywhere
    else.  A named tuple: immutable, so a register object shared by
    several units or kept by the engine's register columns never changes
    under them, and equal to the plain 5-tuple of its field values.
    """

    x: int = 0
    g0: int = 0
    g1: int = 0
    points_to: frozenset[int] = frozenset()
    cutset_g1: tuple[tuple[int, int], ...] | None = None

    def g1_toward(self, reader: int) -> int:
        """Goodness-if-reader-on as published to a particular neighbor."""
        if self.cutset_g1 is None:
            return self.g1
        for j, value in self.cutset_g1:
            if j == reader:
                return value
        return 0


ZERO_REGISTER = ActivationRegister()
ONE_REGISTER = ActivationRegister(x=1)  # shared by the non-cutset units a random start sets


def zero_register(net: Network, i: int, cutset: frozenset[int]) -> ActivationRegister:
    """Unit i's cleared register: the one shared ZERO_REGISTER outside
    the cutset, zero pairs toward every neighbor inside it."""
    if i in cutset:
        pairs = tuple((j, 0) for j, _ in net.micros_adjacency()[i][1])
        return ActivationRegister(cutset_g1=pairs)
    return ZERO_REGISTER


class LocalView(NamedTuple):
    """What unit ``node`` reads in one activation besides its own
    register: its bias in micros, whether it is a cutset unit, and one
    plain ``(id, weight, register)`` triple per neighbor, with the link
    weight in micros and the neighbor's published register.  A named
    tuple, immutable like the registers it holds; any triple-shaped
    neighbor (a named tuple too) reads the same."""

    node: int
    bias: int
    is_cutset: bool
    neighbors: tuple[tuple[int, int, ActivationRegister], ...]


# ---------------------------------------------------------------------------
# tree directing


def tree_direct_step(view: LocalView) -> frozenset[int]:
    """New pointer set: adopt the unique non-pointing neighbor as parent.

    Cutset units instead point at every neighbor that is not pointing
    at them, so they can serve several trees as a shared leaf.
    """
    node = view.node
    if view.is_cutset:
        return frozenset([j for j, _, reg in view.neighbors if node not in reg.points_to])
    parent = None
    for j, _, reg in view.neighbors:
        if node not in reg.points_to:
            if parent is not None:
                return frozenset()  # a second non-pointing neighbor: off the tree
            parent = j
    return frozenset() if parent is None else frozenset((parent,))


# ---------------------------------------------------------------------------
# goodness propagation


def goodness_step(view: LocalView, points_to: frozenset[int]) -> tuple[int, int]:
    """Recompute (g0, g1) from pointing neighbors; meaningful on tree units.

    ``points_to`` is the unit's new parent set from
    :func:`tree_direct_step`; g1 adds the weight toward it.  With no
    pointing neighbors this degenerates to the leaf values (max(0, theta)
    and max(0, w + theta)).  Pointing cutset neighbors contribute their
    per-neighbor published pair.
    """
    node = view.node
    s0 = s1 = parent_w = 0
    for j, w, reg in view.neighbors:
        if node in reg.points_to:
            s0 += reg.g0
            s1 += reg.g1 if reg.cutset_g1 is None else reg.g1_toward(node)
        if j in points_to:
            parent_w += w
    s1 += view.bias
    s2 = s1 + parent_w
    return (s1 if s1 > s0 else s0), (s2 if s2 > s0 else s0)  # max() costs more here, once per activation


def cutset_goodness_step(view: LocalView, x: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Cutset units publish fixed-activation goodness for activation bit
    ``x``: g0 = x*theta and, toward each neighbor j, x*(theta + w_ij)."""
    bias = view.bias
    return x * bias, tuple([(j, x * (bias + w)) for j, w, _ in view.neighbors])


# ---------------------------------------------------------------------------
# activation


def hopfield_step(view: LocalView) -> int:
    """Threshold rule: on iff the weighted input meets -theta (ties on)."""
    field = sum([w * reg.x for _, w, reg in view.neighbors])
    return 1 if field >= -view.bias else 0


def activation_step(view: LocalView, points_to: frozenset[int]) -> int:
    """Tree units combine children's goodness gaps with the link to their
    new parents ``points_to``; cutset units and units on cycles use the
    plain threshold rule.

    The combined inequality

        sum_j ((g1_j - g0_j) * P_j_i  +  w_ij * x_j * P_i_j)  >=  -theta_i

    specializes to the root rule (all neighbors pointing), the internal
    rule (children plus one parent) and, for leaves, the threshold rule
    itself.
    """
    if view.is_cutset:
        return hopfield_step(view)
    node = view.node
    s = non_pointing = 0
    for j, w, reg in view.neighbors:
        if node in reg.points_to:
            s += (reg.g1 if reg.cutset_g1 is None else reg.g1_toward(node)) - reg.g0
        else:
            non_pointing += 1
            if non_pointing > 1:  # off the tree
                return hopfield_step(view)
        if j in points_to:
            s += w * reg.x
    return 1 if s >= -view.bias else 0


def boltzmann_step(view: LocalView, temperature, rng) -> int:
    """Stochastic rule: on with probability sigmoid((field + theta) / T).

    The only rule allowed to leave exact arithmetic; the sigmoid is
    evaluated in binary floating point against a uniform draw, one per
    call.  It saturates to 0 once -(field + theta) / T passes 709, where
    the exponential would overflow a float (far below, it rounds to 1).
    ``temperature`` is anything ``float()`` accepts, such as a Weight.
    """
    t = float(temperature)
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    field = sum([w * reg.x for _, w, reg in view.neighbors])
    z = -((field + view.bias) / 1e6) / t
    p = 0.0 if z > 709 else 1.0 / (1.0 + math.exp(z))
    return 1 if rng.random() < p else 0


# ---------------------------------------------------------------------------
# legality


def _derive_legal(net: Network, pointers: Mapping[int, frozenset[int]], legal: set[int], nodes: Iterable[int]) -> None:
    """Grow ``legal`` to the least fixed point of the legality condition.

    A node may turn legal when it has at most one pointer, aimed at a
    neighbor (its parent), and every other neighbor (a child) points
    back at it; it does turn legal once every child is legal.  Each of
    ``nodes`` (none of them in ``legal``) is examined, and so is the
    parent of every node that turns legal; an eligible node waits for
    its children from the leaves up, so mutually-supporting pointer
    rings never enter.  Nodes left out of ``nodes`` and never reached
    keep their current membership, so the result is the least fixed
    point only if every node that can still turn legal is reachable.
    """
    none: frozenset[int] = frozenset()
    adjacency = net.micros_adjacency()
    waiting: dict[int, int] = {}  # eligible node -> children not yet legal
    seen: set[int] = set()
    ready: list[int] = []

    def examine(i: int) -> None:
        seen.add(i)
        own = pointers.get(i, none)
        if len(own) > 1:
            return
        nbs = adjacency[i][1]
        children = missing = 0
        for j, _ in nbs:
            if j not in own:
                if i not in pointers.get(j, none):
                    return
                children += 1
                missing += j not in legal
        if children + len(own) == len(nbs):
            waiting[i] = missing
            if not missing:
                ready.append(i)

    for i in nodes:
        examine(i)
    while ready:
        v = ready.pop()
        legal.add(v)
        for p in pointers.get(v, none):  # at most one: v's parent
            if p in legal or v in pointers.get(p, none):
                continue
            if p in waiting:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)
            elif p not in seen:
                examine(p)


def update_legal(net: Network, pointers: Mapping[int, frozenset[int]], legal: set[int], moved: Iterable[int]) -> None:
    """Carry ``legal``, the least fixed point before the nodes ``moved``
    changed their pointers, over to the fixed point of ``pointers``.

    Only the moved nodes and their neighbors see their own condition
    change, so legality can flip only on them and on the legal chains
    above them.  Those are cleared, walking up the pointers while the
    nodes are still legal, and derived again from the leaves up; the
    walk keeps a pointer ring closed by the move out of the fixed point.
    """
    adjacency = net.micros_adjacency()
    seeds = set(moved)
    for v in moved:
        seeds.update([j for j, _ in adjacency[v][1]])
    cleared = list(seeds)
    stack = [v for v in seeds if v in legal]
    legal.difference_update(seeds)
    while stack:
        for p in pointers.get(stack.pop(), ()):
            if p in legal:
                legal.discard(p)
                cleared.append(p)
                stack.append(p)
    _derive_legal(net, pointers, legal, cleared)


def legality_map(net: Network, pointers: Mapping[int, frozenset[int]]) -> set[int]:
    """The legal nodes of a pointer snapshot, in O(n + m) time.

    A node is legal if it is a root (points at nobody, every neighbor
    points at it and is legal) or an intermediate (points at exactly one
    neighbor, every other neighbor points at it and is legal).  The set
    is the least fixed point of that condition (see :func:`_derive_legal`,
    run here from every node with nothing legal yet), so mutually
    supporting pointer rings do not count.
    """
    legal: set[int] = set()
    _derive_legal(net, pointers, legal, net.nodes())
    return legal
