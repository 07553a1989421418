"""Executes a unit rule over a network under a scheduler.

Registers follow the multi-reader single-writer discipline: within one
scheduled event every activated unit reads the pre-event snapshot and
computes its whole update (pointer step, then goodness, then
activation); all writes commit together afterwards.  A singleton event
therefore behaves exactly like one sequential activation.

An event computes the same deltas one of two ways.  An activate event
with an empty cutset and at least ARRAY_MIN_UNITS + n // 12 units runs as
one pass of int64 segment sums over the network's CSR half-edges
(`Network.half_edges`), which differential tests pin to the per-unit
steps.  Every other event (small, boltzmann, hopfield or cutset, or on
registers the pass does not load) runs the rule steps of
:mod:`goodnet.rules`, the executable specification, once per unit.  Both
read int micros from the net's one adjacency (`Network.micros_adjacency`),
the steps through views of (id, weight, register) triples, the array
pass through CSR arrays built from it.  The per-unit steps hand each
unit's new field values to one commit: one tuple compare with the
register, and on a difference a delta per changed field and a new
register.  The array pass keeps the run's registers as columns
(`_Columns`, made by `steps`), reads again only the registers that are
not the objects of the list they describe, and commits from them: its
new columns compared with the kept ones give each unit's changed fields,
so a delta per changed field and a new register per changed unit.  The
network holds no run's state, so any number of runs and threads may
share one.

`steps` is the one loop that turns a scheduler into events; `run` and the
negative-result demos consume it, and only a traced run attaches `_traced`.
It keeps a dirty flag per unit, and an event of two or more units that
runs the rule steps activates only its dirty units: a unit is clean once
it ran and no neighbor changed since, so running it again could change
nothing (Dijkstra's unprivileged state).  Array-pass events, boltzmann
events and singletons run every scheduled unit.  Singletons could skip
too, but the benchmark's self-test pins the `apply_event` and rule-step
calls of a central-rr run.

A run is declared stable after a full quiet window: no register
changed for 2n consecutive events and every unit was re-activated on
the final state at least once.  The boltzmann rule skips that stop: its
units flip with positive probability on any state, so a quiet window
is chance, and a boltzmann run exhausts its pass budget and reports
stable=False.

An untraced run under central-rr or sync-all and a rule other than
boltzmann that enters a register cycle skips whole cycles up to its
pass budget (see `run`), with the result the replayed events give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .network import INT64_SCAN_MAX_MICROS, Network
from .rules import (
    ONE_REGISTER,
    ActivationRegister,
    LocalView,
    activation_step,
    boltzmann_step,
    cutset_goodness_step,
    goodness_step,
    hopfield_step,
    legality_map,
    tree_direct_step,
    update_legal,
    zero_register,
)
from .schedulers import Scheduler, seeded_rng
from .weights import Weight

RULES = ("hopfield", "boltzmann", "activate", "activate-with-cutset")
_tuple_new = tuple.__new__  # builds a named tuple from its fields without the generated Python __new__


class TraceEvent(NamedTuple):
    """One scheduled event (immutable): who ran, what changed, running measurements."""

    step: int
    pass_idx: int
    ids: frozenset[int]
    goodness: Weight
    illegal: int
    deltas: tuple[tuple[int, str, object], ...]


@dataclass
class RunResult:
    assignment: tuple[int, ...]
    stable: bool
    passes_used: int
    goodness_final: Weight
    events: int
    last_change_step: int
    registers: list


def build_view(net: Network, regs: Sequence[ActivationRegister], i: int, cutset: frozenset[int]) -> LocalView:
    bias, nbs = net.micros_adjacency()[i]
    return _tuple_new(LocalView, (i, bias, i in cutset, tuple([(j, w, regs[j]) for j, w in nbs])))


def _unit_update(
    net: Network,
    regs: Sequence[ActivationRegister],
    i: int,
    rule: str,
    cutset: frozenset[int],
    rng: random.Random | None,
    temperature,
) -> tuple:
    """Unit i's new field values (x, g0, g1, points_to, cutset_g1) from the rule steps."""
    view = build_view(net, regs, i, cutset)
    old = regs[i]
    if rule == "hopfield":
        return hopfield_step(view), old.g0, old.g1, old.points_to, old.cutset_g1
    if rule == "boltzmann":
        return boltzmann_step(view, temperature, rng), old.g0, old.g1, old.points_to, old.cutset_g1
    # tree-optimizing rule: pointer step feeds the goodness and activation steps
    new_points = tree_direct_step(view)
    x = activation_step(view, new_points)
    if view.is_cutset:
        # a cutset unit publishes goodness for the bit it sets
        g0, pairs = cutset_goodness_step(view, x)
        return x, g0, 0, new_points, pairs
    g0, g1 = goodness_step(view, new_points)
    return x, g0, g1, new_points, None


# An event takes the array pass when it activates at least
# ARRAY_MIN_UNITS + n // 12 units.  Measured on sparse nets of 40 to 2,560
# nodes (random registers, best of 300, Python 3.11 and numpy 2.4 on a
# shared 2-core Xeon): a 33-unit event of per-unit updates costs 2.5-2.9
# us per unit, and an array event of 16 + n // 12 random units that finds
# its register columns kept from the previous one 38 us plus 0.11 us per
# node, so the array pass wins from about 14 + n/25 units, and the cutoff
# leaves large nets' mid-sized events on the per-unit path.  A run's
# first array event reads every register, at about 2 us per node; after
# per-unit events one reads again only the registers they changed.  The
# floor of 16 keeps every net under 16 nodes on the per-unit path.
ARRAY_MIN_UNITS = 16


def _takes_array_pass(net: Network, rule: str, cutset: frozenset[int], ids: frozenset[int]) -> bool:
    """Whether `apply_event` hands the event to `_array_event`."""
    return rule == "activate" and not cutset and len(ids) >= ARRAY_MIN_UNITS + net.n // 12


def _commit(regs: list, i: int, new: tuple, deltas: list) -> None:
    """Write unit i's new field values (x, g0, g1, points_to, cutset_g1)
    from the per-unit rule steps: one delta per changed field, in that
    order, and a new register only when some field changed.  The array
    pass commits from its column compares instead."""
    old = regs[i]
    if new == old:  # one tuple compare: the register equals its field values
        return
    x, g0, g1, points_to, cutset_g1 = new
    if x != old.x:
        deltas.append((i, "x", x))
    if g0 != old.g0:
        deltas.append((i, "g0", g0))
    if g1 != old.g1:
        deltas.append((i, "g1", g1))
    if points_to != old.points_to:
        deltas.append((i, "points_to", points_to))
    if cutset_g1 != old.cutset_g1:
        deltas.append((i, "cutset_g1", cutset_g1))
    regs[i] = _tuple_new(ActivationRegister, new)


@dataclass(slots=True, eq=False)
class _Columns:
    """One run's registers as int64 arrays, empty (every field None) until
    its first array event: `x` per node, `g0` and `g1` as the two rows of
    `g`, and per half-edge i -> j the `pointer` bit (j in regs[i].points_to).
    `regs` is a copy of the list they describe, [None] * (n + 1) before the
    first load; `act` sorts the ids of the last array event, `ids`."""

    regs: list | None = None
    x: np.ndarray | None = None
    g: np.ndarray | None = None
    pointer: np.ndarray | None = None
    ids: frozenset | None = None
    act: np.ndarray | None = None


def _load_rows(net: Network, cols: _Columns, regs: list, rows: list) -> bool:
    """Read the registers regs[i], i in `rows` (ascending and not empty),
    into their entries of the columns at an event's start: the one place a
    register becomes column entries.  Returns False, having written
    nothing, when one of them holds per-neighbor pairs, a pointer off its
    node's neighbors or a value past int64."""
    adjacency = net.micros_adjacency()
    units = [regs[i] for i in rows]
    pointer = [j in r.points_to for i, r in zip(rows, units) for j, _ in adjacency[i][1]]
    # a pointer bit per neighbor in points_to, so fewer bits than ids means one aims off the neighbors
    if any(r.cutset_g1 is not None for r in units) or sum(pointer) != sum(len(r.points_to) for r in units):
        return False
    try:
        fields = np.array([(r.x, r.g0, r.g1) for r in units], dtype=np.int64).T
    except OverflowError:
        return False
    loaded = np.zeros(net.n + 1, dtype=bool)
    loaded[rows] = True
    cols.pointer[loaded[net.half_edges().src]] = pointer  # masks take values in ascending order
    cols.x[rows], cols.g[:, rows] = fields[0], fields[1:]
    return True


def _in_units(order, n: int):
    """An event's sorted ids `order`, or ValueError when an end lies outside 1..n."""
    if len(order) and (order[0] < 1 or order[-1] > n):
        raise ValueError(f"event names node {int(order[0] if order[0] < 1 else order[-1])}, outside the units 1..{n}")
    return order


def _array_event(net: Network, regs: list, ids: frozenset[int], cols: _Columns) -> tuple | None:
    """`apply_event` for the activate rule with an empty cutset, computed
    as int64 segment sums over the net's CSR half-edges.

    Reads the same snapshot and yields the same deltas and registers as
    the per-unit rule steps of :mod:`goodnet.rules`, which stay the
    specification.  The registers that are not the objects of the list
    the run's columns `cols` last described (every one on the run's first
    array event) are read into them (`_load_rows`).  The commit diffs columns:
    `new_x != x`, `new_g0 != g0`, `new_g1 != g1` and the rows whose
    pointer bits moved name each active unit's changed fields, turned
    into Python lists once, and a moved unit's new `points_to` is its
    entry of one parent vector (`tree_direct_step` gives a unit at most
    one new pointer; 0 stands for none).  No register is compared, and
    the changed units are written back from the event's own columns.
    Every array value is bounded by 2*(maxdeg+1)*max|g| +
    2*magnitude*max|x| micros, checked on the columns on every event.  It
    returns None, and the event runs per unit, when that bound reaches
    `INT64_SCAN_MAX_MICROS` (2**62) or a register does not load: one with
    per-neighbor pairs, a pointer off its neighbors or a value past int64.
    A net whose 2*magnitude alone reaches it returns None before any
    array or column is built.
    """
    if 2 * (magnitude := net.magnitude_micros()) >= INT64_SCAN_MAX_MICROS:
        return None
    he = net.half_edges()
    n = net.n
    if cols.regs is None:  # the run's first array event: no register is kept, so the load below reads every one
        cols.regs, cols.x, cols.g = [None] * (n + 1), np.zeros(n + 1, dtype=np.int64), np.zeros((2, n + 1), dtype=np.int64)
        cols.pointer = np.zeros(len(he.dst), dtype=bool)
    if cols.regs != regs:
        if not _load_rows(net, cols, regs, [i for i, (kept, r) in enumerate(zip(cols.regs, regs)) if kept is not r]):
            return None  # the rows keep their old objects in cols.regs, so the next load reads them again
        cols.regs[:] = regs
    x, g, pointer = cols.x, cols.g, cols.pointer
    g0, g1 = g
    g_max = max(int(g.max()), -int(g.min()))
    x_max = max(1, int(x.max()), -int(x.min()))
    if 2 * (he.max_degree + 1) * g_max + 2 * magnitude * x_max >= INT64_SCAN_MAX_MICROS:
        return None
    w, bias, src, dst, rev = he.w, he.bias, he.src, he.dst, he.rev
    if ids is not cols.ids:  # sync-all hands out one frozenset per run, so its events sort once
        cols.ids, cols.act = ids, _in_units(np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids))), n)
    act = cols.act

    points_at_me = pointer[rev]
    non_pointing = he.degree - he.row_sums(points_at_me)
    # tree_direct_step: point at the only non-pointing neighbor, so a unit
    # has at most one new pointer: its parent, 0 for none
    new_pointer = ~points_at_me & (non_pointing == 1)[src]
    child = src[new_pointer]
    parent, parent_w = np.zeros((2, n + 1), dtype=np.int64)
    parent[child], parent_w[child] = dst[new_pointer], w[new_pointer]
    # goodness_step
    s0 = he.row_sums(np.where(points_at_me, g0[dst], 0))
    s1 = he.row_sums(np.where(points_at_me, g1[dst], 0)) + bias
    new_g0 = np.maximum(s0, s1)
    new_g1 = np.maximum(s0, s1 + parent_w)
    # activation_step: the threshold rule on units off the tree
    threshold = he.row_sums(w * x[dst]) + bias >= 0
    tree = s1 - s0 + parent_w * x[parent] >= 0
    new_x = np.where(non_pointing > 1, threshold, tree).astype(np.int64)

    # the commit: the columns hold the registers' fields, so their compares are the deltas
    dx, dg0, dg1 = new_x != x, new_g0 != g0, new_g1 != g1
    moved = he.row_sums(new_pointer != pointer) > 0
    changed = act[(dx | dg0 | dg1 | moved)[act]]
    deltas: list = []
    for i, xi, g0i, g1i, p, cx, c0, c1, mv in zip(
        changed.tolist(),
        new_x[changed].tolist(),
        new_g0[changed].tolist(),
        new_g1[changed].tolist(),
        parent[changed].tolist(),
        dx[changed].tolist(),
        dg0[changed].tolist(),
        dg1[changed].tolist(),
        moved[changed].tolist(),
    ):
        if cx:
            deltas.append((i, "x", xi))
        if c0:
            deltas.append((i, "g0", g0i))
        if c1:
            deltas.append((i, "g1", g1i))
        if mv:
            points_to = frozenset((p,)) if p else frozenset()
            deltas.append((i, "points_to", points_to))
        else:
            points_to = regs[i].points_to
        regs[i] = _tuple_new(ActivationRegister, (xi, g0i, g1i, points_to, None))

    # write the changed units back from the event's columns
    written = np.zeros(n + 1, dtype=bool)
    written[changed] = True
    np.copyto(x, new_x, where=written)
    np.copyto(g0, new_g0, where=written)
    np.copyto(g1, new_g1, where=written)
    np.copyto(pointer, new_pointer, where=written[src])
    cols.regs[:] = regs
    return tuple(deltas)


def apply_event(
    net: Network,
    regs: list,
    ids: frozenset[int],
    rule: str,
    cutset: frozenset[int] = frozenset(),
    rng: random.Random | None = None,
    temperature=None,
    *,
    columns: _Columns | None = None,
) -> tuple[tuple[int, str, object], ...]:
    """Activate `ids` synchronously against the current snapshot.

    Mutates the register list in place (only at the activated indices
    whose fields changed; every other register stays the same object)
    and returns the field-level deltas, ordered by node id and then by
    field (x, g0, g1, points_to, cutset_g1).  An id outside 1..n raises
    ValueError before any register changes.

    An activate event with an empty cutset and at least ARRAY_MIN_UNITS
    + n // 12 units runs as one array pass (`_array_event`) on `columns`,
    the run's register columns from `steps` (else its own; they change no
    result), whose fixed cost outweighs the per-unit updates only on
    large events.  Every other event, and one on registers the array pass
    does not load, runs the rule steps of :mod:`goodnet.rules` one unit at
    a time; boltzmann's per-unit random draws keep their order.  Of an
    event of two or more units on the per-unit path, under any rule but
    boltzmann, `steps` hands over only the dirty units.
    """
    deltas: list = []
    if len(ids) == 1:
        (i,) = ids
        if 1 <= i <= net.n:  # a singleton outside 1..n goes on, to be refused below
            _commit(regs, i, _unit_update(net, regs, i, rule, cutset, rng, temperature), deltas)
            return tuple(deltas)
    if _takes_array_pass(net, rule, cutset, ids):
        if (array := _array_event(net, regs, ids, _Columns() if columns is None else columns)) is not None:
            return array
    updates = {i: _unit_update(net, regs, i, rule, cutset, rng, temperature) for i in _in_units(sorted(ids), net.n)}
    for i, new in updates.items():
        _commit(regs, i, new, deltas)
    return tuple(deltas)


def initial_registers(
    net: Network,
    init: str | Sequence = "zeros",
    cutset: frozenset[int] = frozenset(),
    seed: int | None = None,
) -> list:
    """Build the starting register list (index 0 unused).

    init 'zeros' clears everything (the explicit initialization step);
    'random' randomizes only the activation bits and needs a seed; a
    register list (n + 1 entries, an ActivationRegister at every index
    1..n) is copied once checked: x is the int 0 or 1, points_to is a
    frozenset, cutset_g1 is None or a tuple of pairs, g0, g1 and every
    cutset_g1 value are ints (no bool, no float), and every pointer aims
    at a neighbor of its node.
    """
    if not isinstance(init, str):
        if len(init) != net.n + 1:
            raise ValueError(f"a start register list needs n + 1 = {net.n + 1} entries (index 0 unused), got {len(init)}")
        adjacency = net.micros_adjacency()
        for i in net.nodes():
            reg = init[i]
            if not isinstance(reg, ActivationRegister):
                raise ValueError(f"start register {i} is {type(reg).__name__}, not an ActivationRegister")
            if type(reg.x) is not int or reg.x not in (0, 1):
                raise ValueError(f"start register {i} has x={reg.x!r}, not the int 0 or 1")
            if type(reg.points_to) is not frozenset:
                raise ValueError(f"start register {i} has points_to={reg.points_to!r}, not a frozenset")
            pairs = reg.cutset_g1
            if pairs is not None and (type(pairs) is not tuple or any(type(p) is not tuple or len(p) != 2 for p in pairs)):
                raise ValueError(f"start register {i} has cutset_g1={pairs!r}, not None or a tuple of pairs")
            for field, value in [("g0", reg.g0), ("g1", reg.g1)] + [("cutset_g1", v) for _, v in pairs or ()]:
                if type(value) is not int:
                    raise ValueError(f"start register {i} has {field}={value!r}, not an int")
            nbs = {j for j, _ in adjacency[i][1]}
            for j in reg.points_to:
                if j not in nbs:
                    raise ValueError(f"start pointer {i} -> {j!r} does not aim at a neighbor of node {i}")
        return list(init)
    regs: list = [None] + [zero_register(net, i, cutset) for i in net.nodes()]
    if init == "zeros":
        return regs
    if init == "random":
        rng = seeded_rng(seed, "init='random'")
        for i in net.nodes():
            if rng.randint(0, 1):
                pairs = regs[i].cutset_g1
                regs[i] = ONE_REGISTER if pairs is None else ActivationRegister(x=1, cutset_g1=pairs)
        return regs
    raise ValueError(f"unknown init mode {init!r}")


def perturb(net: Network, regs: Sequence, seed: int) -> list:
    """Randomize every register field; deterministic per seed.

    Goodness values are drawn from the attainable envelope
    [-(sum|w| + sum|theta|), +(sum|w| + sum|theta|)].
    """
    rng = seeded_rng(seed, "perturb")
    m = net.magnitude_micros()
    adjacency = net.micros_adjacency()
    out: list = [None]
    for i in net.nodes():
        old = regs[i]
        nbs = adjacency[i][1]
        x = rng.randint(0, 1)
        g0 = rng.randint(-m, m)
        g1 = rng.randint(-m, m)
        points = frozenset(j for j, _ in nbs if rng.random() < 0.5)
        cutset_g1 = None
        if old.cutset_g1 is not None:
            cutset_g1 = tuple((j, rng.randint(-m, m)) for j, _ in nbs)
        out.append(ActivationRegister(x=x, g0=g0, g1=g1, points_to=points, cutset_g1=cutset_g1))
    return out


def pointer_snapshot(regs: Sequence) -> dict[int, frozenset[int]]:
    return {i: regs[i].points_to for i in range(1, len(regs))}


def illegal_count(net: Network, regs: Sequence) -> int:
    """Number of nodes outside the least-fixed-point legal set of the registers' pointers."""
    return net.n - len(legality_map(net, pointer_snapshot(regs)))


def assignment_of(regs: Sequence) -> tuple[int, ...]:
    return tuple(regs[i].x for i in range(1, len(regs)))


def steps(net: Network, regs: list, rule: str, scheduler: Scheduler, cutset=frozenset(), rng=None, temperature=None) -> Iterator:
    """Apply `scheduler`'s events to `regs` in place, without end, yielding each
    `(ids, deltas)`; an empty event or one outside 1..n raises ValueError first.

    `regs` may change only through these events, since a per-unit flag
    records which units are dirty.  Every unit starts dirty; running a unit
    makes it clean, and a unit whose register changed makes its neighbors
    dirty (a unit's update reads only its neighbors' registers).  A clean
    unit's register is what running it would give.  So an event of
    two or more units that runs the rule steps hands `apply_event` only
    its dirty units, and yields () without a call when none is.  An event
    that takes the array pass (on the run's own columns, made here), or a
    boltzmann event of two or more units, runs all its units and leaves
    every unit dirty: the pass computes every node anyway, and boltzmann's
    random draws keep their order.  A singleton runs its unit.  The yielded
    `ids` are the scheduled ones, and the deltas those of the whole event."""
    n = net.n
    columns = _Columns()
    units = frozenset(net.nodes())
    adjacency = net.micros_adjacency()
    dirty = [True] * (n + 1)  # dirty[i]: unit i is not clean
    all_dirty = dirty[:]
    while True:
        ids = scheduler.next_set(n)
        if not ids or not ids <= units:
            raise ValueError(f"scheduler produced the event {sorted(ids)}, not a non-empty set of units in 1..{n}")
        if len(ids) == 1:
            deltas = apply_event(net, regs, ids, rule, cutset, rng, temperature)
            changed = ids
            (i,) = ids
            dirty[i] = False
        elif rule == "boltzmann" or _takes_array_pass(net, rule, cutset, ids):
            deltas = apply_event(net, regs, ids, rule, cutset, rng, temperature, columns=columns)
            dirty[:] = all_dirty
            yield ids, deltas
            continue
        else:
            active = [i for i in ids if dirty[i]]
            if not active:
                yield ids, ()
                continue
            for i in active:
                dirty[i] = False
            deltas = apply_event(net, regs, frozenset(active), rule, cutset, rng, temperature)
            changed = {i for i, _, _ in deltas}
        if deltas:
            for i in changed:
                for j, _ in adjacency[i][1]:
                    dirty[j] = True
        yield ids, deltas


def _traced(net: Network, regs: list, events: Iterator, emit: Callable[[TraceEvent], object]) -> Iterator:
    """Pass `events` (`steps` over `regs`) through, handing `emit` (the
    `collect_trace` callable of `run`) a TraceEvent per event as it
    happens.  Its goodness moves by each flip's gain; its illegal count
    (nodes outside the least-fixed-point legal set) comes from the set
    `legality_map` returns at the start, re-derived after each pointer
    move on the moved nodes, their neighbors and the legal chains above
    them (`update_legal`)."""
    n = net.n
    pointers = pointer_snapshot(regs)
    legal = legality_map(net, pointers)
    xs = [0, *assignment_of(regs)]
    goodness = net.goodness(xs[1:])
    g = goodness.micros
    adjacency = net.micros_adjacency()
    for step, (ids, deltas) in enumerate(events):
        moved = []
        for i, field, value in deltas:
            if field == "x":
                bias, nbs = adjacency[i]
                gain = bias + sum([w for j, w in nbs if xs[j]])
                xs[i] = value
                g += gain if value else -gain
                goodness = Weight(g)
            elif field == "points_to":
                pointers[i] = value
                moved.append(i)
        if moved:
            update_legal(net, pointers, legal, moved)
        emit(_tuple_new(TraceEvent, (step, step // n + 1, ids, goodness, n - len(legal), deltas)))
        yield ids, deltas


def run(
    net: Network,
    rule: str,
    scheduler: Scheduler,
    init: str | Sequence = "zeros",
    *,
    max_passes: int = 100,
    seed: int | None = None,
    temperature=None,
    cutset: frozenset[int] | None = None,
    collect_trace: Callable[[TraceEvent], object] | None = None,
) -> RunResult:
    """Consume `steps` (through `_traced` for a trace) until a quiet window or the pass budget.

    `collect_trace`, a callable, receives each `TraceEvent` as the event
    happens: a list's `append` keeps the trace, a writer streams it out.
    Every argument is checked before the first event, so a refused run
    emits nothing.

    `init` alone says where the run starts: 'zeros', 'random' (drawn
    from `seed`) or a register list, checked by `initial_registers`.
    `cutset` defaults to the network's declared cutset for the
    activate-with-cutset rule and to the empty set otherwise; no other
    rule accepts a non-empty one.  Only the boltzmann rule takes a
    `temperature`, and it needs one.

    A run stops once no register changed for 2n events and every unit is
    in `seen`, the units activated on unchanged registers since then.  A
    boltzmann run never stops before its budget.

    An untraced run under a scheduler with a `period` (central-rr,
    sync-all) and a rule other than boltzmann compares its registers,
    at the ends of scheduler periods, with a copy saved at the first and
    again after 1, 2, 4, 8 ... more periods (Brent's cycle test).  A
    match after some register changed is a cycle of that many events.
    No run stops inside it (a stop needs every unit activated on
    unchanged registers, which makes them a fixed point), so the run
    moves the event count and the last change on by as many whole cycles
    as fit in the budget; `seen` is the same after each cycle.  Every
    field of the result is the one the replayed events would give.  A
    trace switches the skip off: each event reaches `collect_trace`.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")
    if rule == "boltzmann" and temperature is None:
        raise ValueError("boltzmann rule needs a temperature")
    if rule != "boltzmann" and temperature is not None:
        raise ValueError(f"a temperature is only meaningful with the boltzmann rule, not {rule!r}")
    if collect_trace is not None and not callable(collect_trace):
        raise TypeError(f"collect_trace must be a callable or None, got {collect_trace!r}")
    rng = seeded_rng(seed, "boltzmann rule") if rule == "boltzmann" else None
    if cutset is None:
        cutset = net.cutset if rule == "activate-with-cutset" else frozenset()
    else:
        cutset = net.check_cutset(cutset)
        if cutset and rule != "activate-with-cutset":
            raise ValueError(f"a cutset is only meaningful with the activate-with-cutset rule, not {rule!r}")
    n = net.n
    window = 2 * n  # quiet events that end a stable run
    regs = initial_registers(net, init, cutset, seed)

    events = steps(net, regs, rule, scheduler, cutset, rng, temperature)
    if collect_trace is not None:
        events = _traced(net, regs, events, collect_trace)
    last_change = -1
    seen: set[int] = set()  # units activated on unchanged registers since the last change
    stable = False

    max_events = max_passes * n
    # Brent's cycle test at the ends of scheduler periods: `saved` is the
    # register list `saved_at` events in, copied again after `span` more.
    # The first copy waits for the first period end, so a run whose
    # registers stop changing in its first period keeps no old ones alive.
    period = None if collect_trace is not None or rule == "boltzmann" else scheduler.period(n)
    check_at = period or -1  # the next event count that ends a period
    saved, saved_at, span = None, 0, period
    done = 0
    while done < max_events:
        step = done
        ids, deltas = next(events)
        if deltas:
            last_change = step
            seen.clear()
        else:
            seen.update(ids)
        done = step + 1
        if step - last_change >= window and len(seen) == n and rule != "boltzmann":
            stable = True
            break
        if done == check_at:
            check_at = done + period
            if last_change >= saved_at and regs == saved:  # a cycle: skip as many whole ones as fit
                skip = (max_events - done) // (done - saved_at) * (done - saved_at)
                done, last_change, check_at = done + skip, last_change + skip, -1
            elif done - saved_at == span:
                saved, saved_at, span = regs.copy(), done, 2 * span

    assignment = assignment_of(regs)
    return RunResult(
        assignment=assignment,
        stable=stable,
        passes_used=(done + n - 1) // n,
        goodness_final=net.goodness(assignment),
        events=done,
        last_change_step=last_change,
        registers=regs,
    )
