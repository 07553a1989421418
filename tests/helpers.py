"""Shared test utilities, kept deliberately dumb.

The enumeration oracle here is the ground truth the library is judged
against: plain itertools over all assignments, no vectorization, no
shortcuts.
"""

import itertools
import random
import re
from typing import NamedTuple

from goodnet import FairExclusion, Network, Weight, apply_event
from goodnet.oracle import _forest_walk
from goodnet.rules import (
    ActivationRegister,
    LocalView,
    boltzmann_step,
    cutset_goodness_step,
    hopfield_step,
)
from goodnet.schedulers import Scheduler
from goodnet.weights import SCALE


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


class IndependentFairExclusion(FairExclusion):
    """FairExclusion whose random subsets are thinned to independent sets
    of `net`, so two neighbors never run in the same event.

    Sequential activations can never produce mutual parent pointers (a
    unit never adopts a neighbor that already points at it), so this
    regime keeps the pointer protocol's legality invariants intact;
    co-executing neighbors can transiently break them.  The subsets are
    drawn as FairExclusion(seed) draws them and thinned in draw order.
    """

    def __init__(self, seed: int, net: Network):
        super().__init__(seed)
        self._net = net

    def next_set(self, n: int) -> frozenset[int]:
        if self._step % 2 == 1:
            return super().next_set(n)
        self._step += 1
        size = self._rng.randint(1, n)
        picked: set[int] = set()
        for i in self._rng.sample(range(1, n + 1), size):
            if not any(j in picked for j, _ in self._net.neighbors(i)):
                picked.add(i)
        return frozenset(picked)


class NeverSkipped(Scheduler):
    """Hands out `inner`'s sets but keeps the base class's `period` of
    None, so `run` replays every event under it: the reference for runs
    that skip repeated register cycles."""

    def __init__(self, inner: Scheduler):
        self.inner = inner

    def next_set(self, n: int) -> frozenset[int]:
        return self.inner.next_set(n)


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


def legality_map_fixpoint(net: Network, pointers) -> set[int]:
    """Reference legal set: sweep all nodes until no new one turns legal."""
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
    return legal


def non_tree_nodes_reference(net: Network, regs) -> frozenset[int]:
    """Nodes left outside any directed tree: two or more non-pointing neighbors."""
    out = set()
    for i in net.nodes():
        non_pointing = sum(1 for j, _ in net.neighbors(i) if i not in regs[j].points_to)
        if non_pointing >= 2:
            out.add(i)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The per-unit path in its plain form: rule steps that scan the neighbors
# once per question, views that convert Weights to micros on every call, and
# whole registers compared and diffed field by field.  The one-pass steps of
# goodnet.rules and the engine's per-unit and array updates are pinned to it.


class NeighborView(NamedTuple):
    """One neighbor as a unit reads it, by name: the engine's views hold
    plain (id, weight, register) triples, which this tuple also is, so
    the rule steps read either form."""

    id: int
    weight: int  # micros
    reg: ActivationRegister


def points_at_me(view: LocalView, nb: NeighborView) -> bool:
    return view.node in nb.reg.points_to


def non_pointing(view: LocalView) -> list:
    return [nb for nb in view.neighbors if not points_at_me(view, nb)]


def tree_direct_step_reference(view: LocalView) -> frozenset:
    """`rules.tree_direct_step`: adopt the unique non-pointing neighbor as
    parent; cutset units point at every non-pointing neighbor."""
    nonp = non_pointing(view)
    if view.is_cutset:
        return frozenset(nb.id for nb in nonp)
    if len(nonp) == 1:
        return frozenset({nonp[0].id})
    return frozenset()


def goodness_step_reference(view: LocalView, points_to: frozenset) -> tuple:
    """`rules.goodness_step`: (g0, g1) from the pointing neighbors, g1 plus
    the weight toward every id in ``points_to``."""
    s0 = 0
    s1 = 0
    for nb in view.neighbors:
        if points_at_me(view, nb):
            s0 += nb.reg.g0
            s1 += nb.reg.g1_toward(view.node)
    parent_w = sum(nb.weight for nb in view.neighbors if nb.id in points_to)
    return max(s0, s1 + view.bias), max(s0, s1 + view.bias + parent_w)


def activation_step_reference(view: LocalView, points_to: frozenset) -> int:
    """`rules.activation_step`: the combined tree inequality, or the
    threshold rule on cutset units and units with two or more
    non-pointing neighbors."""
    if view.is_cutset or len(non_pointing(view)) > 1:
        return hopfield_step(view)
    s = 0
    for nb in view.neighbors:
        if points_at_me(view, nb):
            s += nb.reg.g1_toward(view.node) - nb.reg.g0
        if nb.id in points_to:
            s += nb.weight * nb.reg.x
    return 1 if s >= -view.bias else 0


def build_view_reference(net: Network, regs, i: int, cutset) -> LocalView:
    nbs = tuple(NeighborView(j, w.micros, regs[j]) for j, w in net.neighbors(i))
    return LocalView(i, net.bias(i).micros, i in cutset, nbs)


def unit_update_reference(net: Network, regs, i: int, rule: str, cutset, rng, temperature) -> ActivationRegister:
    """Unit i's new register under `rule`, read from the snapshot `regs`."""
    view = build_view_reference(net, regs, i, cutset)
    if rule == "hopfield":
        return regs[i]._replace(x=hopfield_step(view))
    if rule == "boltzmann":
        return regs[i]._replace(x=boltzmann_step(view, temperature, rng))
    new_points = tree_direct_step_reference(view)
    x = activation_step_reference(view, new_points)
    if view.is_cutset:
        # a cutset unit publishes goodness for the bit it sets
        g0, pairs = cutset_goodness_step(view, x)
        return ActivationRegister(x=x, g0=g0, g1=0, points_to=new_points, cutset_g1=pairs)
    g0, g1 = goodness_step_reference(view, new_points)
    return ActivationRegister(x=x, g0=g0, g1=g1, points_to=new_points, cutset_g1=None)


def apply_event_per_unit(net: Network, regs, ids, rule: str, cutset=frozenset(), rng=None, temperature=None):
    """`engine.apply_event` as one reference update per unit: every
    activated unit reads the pre-event snapshot, then all commit; returns
    the field-level deltas in node, then field order.  A register is
    replaced only when it differs from the old one."""
    updates = {i: unit_update_reference(net, regs, i, rule, cutset, rng, temperature) for i in sorted(ids)}
    deltas = []
    for i, new in updates.items():
        old = regs[i]
        if new != old:
            for field in ("x", "g0", "g1", "points_to", "cutset_g1"):
                if getattr(new, field) != getattr(old, field):
                    deltas.append((i, field, getattr(new, field)))
            regs[i] = new
    return tuple(deltas)


def steps_in_full(net: Network, regs, rule: str, scheduler: Scheduler, cutset=frozenset(), rng=None, temperature=None):
    """`engine.steps` without its skip of clean units: every scheduled
    event runs in full through `apply_event`."""
    while True:
        ids = scheduler.next_set(net.n)
        yield ids, apply_event(net, regs, ids, rule, cutset, rng, temperature)


def replay_deltas(initial_regs, trace) -> list:
    """Reconstruct the final registers from the initial ones plus a
    trace's field-level deltas."""
    regs = list(initial_regs)
    for ev in trace:
        for node, field, value in ev.deltas:
            regs[node] = regs[node]._replace(**{field: value})
    return regs


_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d+))?$", re.ASCII)


def decimal_micros_reference(text: str) -> int:
    """`Weight.from_decimal(text).micros` by a regex whose digits are ASCII,
    raising ValueError with the same message on the same strings."""
    m = _DECIMAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed number: {text!r}")
    sign, whole, frac = m.groups()
    frac = frac or ""
    if len(whole) > 18:
        raise ValueError(f"whole part of {len(whole)} digits, more than 18")
    if len(frac) > 6:
        raise ValueError(f"more than 6 fractional digits: {text!r}")
    micros = int(whole) * SCALE + int(frac.ljust(6, "0") or "0")
    return -micros if sign == "-" else micros


def from_decimal_reference(text: str) -> Weight:
    """`Weight.from_decimal` as it was before decimals became ASCII-only,
    with the later cap of 18 whole digits: its own partition-based reader,
    building the Weight itself.  It reads
    any Unicode decimal digit, so it agrees with `weights.parse_micros`
    exactly on text that is ASCII once stripped."""
    whole, point, frac = text.strip().partition(".")
    sign = whole[:1]
    if sign == "-" or sign == "+":
        whole = whole[1:]
    if not whole.isdecimal() or (point and not frac.isdecimal()):
        raise ValueError(f"malformed number: {text!r}")
    if len(whole) > 18:
        raise ValueError(f"whole part of {len(whole)} digits, more than 18")
    if len(frac) > 6:
        raise ValueError(f"more than 6 fractional digits: {text!r}")
    micros = int(whole) * SCALE + (int(frac.ljust(6, "0")) if point else 0)
    return Weight(-micros if sign == "-" else micros)


def micros_text_reference(micros: int) -> str:
    """`format_micros(micros)` from the sign, whole part and zero-padded fraction."""
    sign = "-" if micros < 0 else ""
    whole, frac = divmod(abs(micros), SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(6).rstrip('0')}"


def W(x: int) -> Weight:
    return Weight.from_int(x)


def D(text: str) -> Weight:
    return Weight.from_decimal(text)


def M(value: int | str) -> int:
    """Integer micros of a whole number or a decimal literal: M(2), M("-0.1")."""
    return Weight.from_decimal(str(value)).micros


def sparse_network_reference(n: int, m: int, seed: int) -> Network:
    """`fixtures.random_network("sparse", n, m, seed)` drawing its extra
    edges from the full list of absent node pairs, in lexicographic order."""
    rng = random.Random(seed)

    def rw() -> Weight:
        return W(rng.randint(-5, 5))

    edges = [(rng.randint(1, v - 1), v, rw()) for v in range(2, n + 1)]
    if m:
        present = {(min(i, j), max(i, j)) for i, j, _ in edges}
        missing = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in present]
        if m > len(missing):
            raise ValueError(f"cannot add {m} extra edges to {n} nodes")
        for i, j in rng.sample(missing, m):
            edges.append((i, j, rw()))
    biases = {i: rw() for i in range(1, n + 1)}
    return Network(n, edges, biases)
