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
pointers or activation bit takes them as an argument.  Committing
writes, scheduling and snapshot semantics are the simulation engine's
business.

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
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .network import Network


@dataclass(frozen=True)
class ActivationRegister:
    """One unit's shared state: activation bit, goodness pair, pointers.

    Goodness values are integer micros (millionths, as in
    :class:`~goodnet.weights.Weight`).  ``points_to`` holds the ids of
    neighbors this unit sees as parents (at most one for a settled
    non-cutset unit).  ``cutset_g1`` is the per-neighbor conditional
    goodness published by designated cutset units, and None everywhere
    else.
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


def zero_register(net: Network, i: int, cutset: frozenset[int]) -> ActivationRegister:
    if i in cutset:
        pairs = tuple((j, 0) for j, _ in net.neighbors(i))
        return ActivationRegister(cutset_g1=pairs)
    return ActivationRegister()


@dataclass(frozen=True)
class NeighborView:
    id: int
    weight: int  # micros
    reg: ActivationRegister


@dataclass(frozen=True)
class LocalView:
    """What unit ``node`` reads in one activation besides its own
    register: its bias and neighbor weights in micros, whether it is a
    cutset unit, and each neighbor's published register."""

    node: int
    bias: int
    is_cutset: bool
    neighbors: tuple[NeighborView, ...]

    def points_at_me(self, nb: NeighborView) -> bool:
        return self.node in nb.reg.points_to

    def non_pointing(self) -> list[NeighborView]:
        return [nb for nb in self.neighbors if not self.points_at_me(nb)]


class Legality(Enum):
    LEGAL = "legal"
    CANDIDATE = "candidate"
    ILLEGAL = "illegal"


# ---------------------------------------------------------------------------
# tree directing


def tree_direct_step(view: LocalView) -> frozenset[int]:
    """New pointer set: adopt the unique non-pointing neighbor as parent.

    Cutset units instead point at every neighbor that is not pointing
    at them, so they can serve several trees as a shared leaf.
    """
    non_pointing = view.non_pointing()
    if view.is_cutset:
        return frozenset(nb.id for nb in non_pointing)
    if len(non_pointing) == 1:
        return frozenset({non_pointing[0].id})
    return frozenset()


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
    s0 = 0
    s1 = 0
    for nb in view.neighbors:
        if view.points_at_me(nb):
            s0 += nb.reg.g0
            s1 += nb.reg.g1_toward(view.node)
    parent_w = sum(nb.weight for nb in view.neighbors if nb.id in points_to)
    return max(s0, s1 + view.bias), max(s0, s1 + view.bias + parent_w)


def cutset_goodness_step(view: LocalView, x: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Cutset units publish fixed-activation goodness for activation bit
    ``x``: g0 = x*theta and, toward each neighbor j, x*(theta + w_ij)."""
    pairs = tuple((nb.id, x * (view.bias + nb.weight)) for nb in view.neighbors)
    return x * view.bias, pairs


# ---------------------------------------------------------------------------
# activation


def hopfield_step(view: LocalView) -> int:
    """Threshold rule: on iff the weighted input meets -theta (ties on)."""
    field = sum(nb.weight * nb.reg.x for nb in view.neighbors)
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
    if view.is_cutset or len(view.non_pointing()) > 1:
        return hopfield_step(view)
    s = 0
    for nb in view.neighbors:
        if view.points_at_me(nb):
            s += nb.reg.g1_toward(view.node) - nb.reg.g0
        if nb.id in points_to:
            s += nb.weight * nb.reg.x
    return 1 if s >= -view.bias else 0


def boltzmann_step(view: LocalView, temperature, rng) -> int:
    """Stochastic rule: on with probability sigmoid((field + theta) / T).

    The only rule allowed to leave exact arithmetic; the sigmoid is
    evaluated in binary floating point against a uniform draw.
    ``temperature`` is anything ``float()`` accepts, such as a Weight.
    """
    t = float(temperature)
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    field = sum(nb.weight * nb.reg.x for nb in view.neighbors)
    s = (field + view.bias) / 1e6
    p = 1.0 / (1.0 + math.exp(-s / t))
    return 1 if rng.random() < p else 0


# ---------------------------------------------------------------------------
# legality


def legality_map(net: Network, pointers: Mapping[int, frozenset[int]]) -> dict[int, Legality]:
    """Classify every node as legal / candidate / illegal for a pointer snapshot.

    A node is legal if it is a root (points at nobody, every neighbor
    points at it and is legal) or an intermediate (points at exactly one
    neighbor, every other neighbor points at it and is legal).  Legality
    is taken as the least fixed point, i.e. it must be derivable from
    the leaves up; mutually-supporting pointer rings do not count.  A
    candidate is an illegal node with at most one non-pointing neighbor.
    The whole map takes O(n + m) time.
    """
    none: frozenset[int] = frozenset()
    # One scan of every node's neighbors counts who points at it, and
    # finds the nodes that may turn legal: at most one pointer, aimed at
    # a neighbor, with every child (other neighbor) pointing back.  Such
    # a node waits for each child to turn legal, from the leaves up.
    pointed_by: dict[int, int] = {}
    waiting: dict[int, int] = {}
    ready: list[int] = []
    for i in net.nodes():
        own = pointers.get(i, none)
        nbs = net.neighbors(i)
        pointing = children = pointing_children = 0
        for j, _ in nbs:
            points = i in pointers.get(j, none)
            pointing += points
            if j not in own:
                children += 1
                pointing_children += points
        pointed_by[i] = pointing
        if len(own) <= 1 and children + len(own) == len(nbs) and pointing_children == children:
            waiting[i] = children
            if not children:
                ready.append(i)
    legal: set[int] = set()
    while ready:
        v = ready.pop()
        legal.add(v)
        for i, _ in net.neighbors(v):
            if i in waiting and v not in pointers.get(i, none):
                waiting[i] -= 1
                if waiting[i] == 0:
                    ready.append(i)
    result = {}
    for i in net.nodes():
        if i in legal:
            result[i] = Legality.LEGAL
        else:
            non_pointing = net.degree(i) - pointed_by[i]
            result[i] = Legality.CANDIDATE if non_pointing <= 1 else Legality.ILLEGAL
    return result
