"""Executes a unit rule over a network under a scheduler.

Registers follow the multi-reader single-writer discipline: within one
scheduled event every activated unit reads the pre-event snapshot and
computes its whole update (pointer step, then goodness, then
activation); all writes commit together afterwards.  A singleton event
therefore behaves exactly like one sequential activation.

An event computes the same deltas one of two ways.  Singletons, other
small events and every boltzmann event run the rule steps of
:mod:`goodnet.rules`, the executable specification, once per unit; a
per-unit update costs less than the array pass's fixed set-up, and
boltzmann's per-unit random draws must keep their order.  An event of
at least ARRAY_MIN_UNITS + n // 12 units under hopfield, activate or
activate-with-cutset runs as one pass of int64 segment sums over the
network's CSR half-edges (`Network.half_edges`), which differential
tests pin to the per-unit steps.  Both read int micros from the net's
one adjacency (`Network.micros_adjacency`), the array pass through the
CSR arrays built from it, and both hand each unit's new field values to one
commit, which emits a delta per changed field and rebuilds the unit's
register only when some field changed.  The array pass keeps the
registers as columns on the network, with a copy of the register list
they describe: an event reads again only the registers that are not the
objects in that copy (every one on the net's first array event or on
another list), and writes its own changes into the columns.  A network
must therefore not be driven by two threads at once.

A run is declared stable after a full quiet window: no register
changed for 2n consecutive events and every unit was re-activated on
the final state at least once.  Stochastic rules simply exhaust their
pass budget and report stable=False.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .network import Network
from .rules import (
    ActivationRegister,
    Legality,
    LocalView,
    NeighborView,
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
from .schedulers import Scheduler
from .weights import Weight

RULES = ("hopfield", "boltzmann", "activate", "activate-with-cutset")


@dataclass(frozen=True)
class TraceEvent:
    """One scheduled event: who ran, what changed, running measurements."""

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
    trace: list[TraceEvent] | None = None


def build_view(net: Network, regs: Sequence[ActivationRegister], i: int, cutset: frozenset[int]) -> LocalView:
    bias, nbs = net.micros_adjacency()[i]
    return LocalView(i, bias, i in cutset, tuple([NeighborView(j, w, regs[j]) for j, w in nbs]))


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
    if view.is_cutset:
        # a cutset unit publishes goodness for its pre-event bit
        g0, pairs = cutset_goodness_step(view, old.x)
        x = activation_step(view, new_points)
        return x, g0, 0, new_points, pairs
    g0, g1 = goodness_step(view, new_points)
    x = activation_step(view, new_points)
    return x, g0, g1, new_points, None


# An event takes the array pass when it activates at least
# ARRAY_MIN_UNITS + n // 12 units.  Measured on sparse nets of 10 to 2,560
# nodes: a per-unit update costs 16-19 us and an array event 90-120 us
# plus 1.0-1.7 us per node, so the array pass wins from about 5-8 + n/11-16
# units.  An array event that finds its register columns kept from the
# previous one costs 110-130 us plus 0.6-0.9 us per node; after per-unit
# events it reads again only the registers they changed, and only an event
# on another register list pays the first cost.  The floor of 16 keeps
# every net under 16 nodes on the per-unit path.
ARRAY_MIN_UNITS = 16
_INT64_LIMIT = 1 << 62  # array values stay below this, or the pass runs on Python ints


def _commit(regs: list, i: int, new: tuple, deltas: list) -> None:
    """Write unit i's new field values (x, g0, g1, points_to, cutset_g1):
    one delta per changed field, in that order, and a new register only
    when some field changed."""
    old = regs[i]
    x, g0, g1, points_to, cutset_g1 = new
    before = len(deltas)
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
    if len(deltas) != before:
        regs[i] = ActivationRegister(x, g0, g1, points_to, cutset_g1)


@dataclass(slots=True, eq=False)
class _Columns:
    """The registers of one register list as arrays: `x`, `g0` and `g1` per
    node, and per half-edge i -> j the `pointer` bit (j in regs[i].points_to)
    and the value i publishes toward j (`pub`: regs[i].g1_toward(j));
    `paired` marks the registers with a cutset_g1 and `dropped` those with
    fewer pointer bits than pointer ids (one aims at a non-neighbor, at
    itself or outside 1..n, and their update drops it).  `regs` is a copy
    of the list they describe, [None] * (n + 1) before the first load.
    `act` holds the sorted ids of the last event's unit set `ids`, kept by
    reference so that only that same frozenset, never a recycled one,
    reuses it."""

    regs: list
    x: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    pointer: np.ndarray
    pub: np.ndarray
    paired: np.ndarray
    dropped: np.ndarray
    ids: frozenset | None = None
    act: np.ndarray | None = None


def _load_rows(net: Network, cols: _Columns, regs: list, rows: list) -> None:
    """Read the registers regs[i], i in `rows` (ascending), into their
    entries of the columns, which turn to Python ints (dtype=object) when a
    value does not fit int64.  The one place a register becomes column
    entries."""
    if not rows:
        return
    he = net.half_edges()
    adjacency = net.micros_adjacency()
    units = [regs[i] for i in rows]
    loaded = np.zeros(net.n + 1, dtype=bool)
    loaded[rows] = True
    edges = loaded[he.src]  # the rows' half-edges; masks take values in ascending order
    cols.pointer[edges] = [j in r.points_to for i, r in zip(rows, units) for j, _ in adjacency[i][1]]
    cols.dropped[loaded] = he.row_sums(cols.pointer)[loaded] != [len(r.points_to) for r in units]
    cols.paired[loaded] = [r.cutset_g1 is not None for r in units]
    published = [r.g1_toward(j) for i, r in zip(rows, units) if r.cutset_g1 is not None for j, _ in adjacency[i][1]]
    x, g0, g1 = [r.x for r in units], [r.g0 for r in units], [r.g1 for r in units]

    def store():
        cols.x[loaded], cols.g0[loaded], cols.g1[loaded] = x, g0, g1
        cols.pub[edges] = cols.g1[he.src[edges]]
        cols.pub[edges & cols.paired[he.src]] = published

    try:
        store()
    except OverflowError:  # a value past int64
        cols.x, cols.g0, cols.g1, cols.pub = (c.astype(object) for c in (cols.x, cols.g0, cols.g1, cols.pub))
        store()


def _array_event(net: Network, regs: list, ids: frozenset[int], rule: str, cutset: frozenset[int]) -> tuple:
    """`apply_event` for the hopfield, activate and activate-with-cutset
    rules, computed as segment sums over the net's CSR half-edges.

    Reads the same snapshot and yields the same deltas and registers as
    the per-unit rule steps of :mod:`goodnet.rules`, which stay the
    specification.  The registers are read (`_load_rows`) into columns
    (`_Columns`) that the net keeps across events: every register on the
    net's first array event, and then only those that are not the objects
    of the list the columns last described.  After the event the changed
    tree units are written back from the new columns and the changed
    cutset, paired and dropped units read again.  Every array value is
    bounded by 2*(maxdeg+1)*max|g| + 2*magnitude*max|x| micros, checked
    on the columns on every event; when that reaches 2**62 the same code
    runs on Python ints (dtype=object).
    """
    he = net.half_edges()
    adjacency = net.micros_adjacency()
    n = net.n
    cols = net._register_columns
    if cols is None:  # no register is kept, so the load below reads every one
        m = len(he.dst)
        cols = _Columns(
            [None] * (n + 1),
            np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64),
            np.zeros(m, dtype=bool), np.zeros(m, dtype=np.int64), np.zeros(n + 1, dtype=bool), np.zeros(n + 1, dtype=bool),
        )
        object.__setattr__(net, "_register_columns", cols)
    if cols.regs != regs:
        _load_rows(net, cols, regs, [i for i, (kept, r) in enumerate(zip(cols.regs, regs)) if kept is not r])
    g = np.concatenate((cols.g0, cols.g1, cols.pub))
    g_max = max(int(g.max()), -int(g.min()))
    x_max = max(1, int(cols.x.max()), -int(cols.x.min()))
    dtype = np.int64 if 2 * (he.max_degree + 1) * g_max + 2 * he.magnitude * x_max < _INT64_LIMIT else object
    if cols.x.dtype != dtype:
        cols.x, cols.g0, cols.g1, cols.pub = (c.astype(dtype) for c in (cols.x, cols.g0, cols.g1, cols.pub))
    x, g0, g1, pub, pointer = cols.x, cols.g0, cols.g1, cols.pub, cols.pointer
    w, bias = he.w.astype(dtype, copy=False), he.bias.astype(dtype, copy=False)
    src, dst, rev = he.src, he.dst, he.rev
    first = he.indptr.tolist()
    if cols.ids is not ids:
        cols.ids, cols.act = ids, np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))
    act = cols.act

    # hopfield_step
    threshold = (he.row_sums(w * x[dst]) >= -bias).astype(np.int64)
    deltas: list = []
    if rule == "hopfield":
        flipped = act[threshold[act] != x[act]]
        for i in flipped.tolist():
            old = regs[i]
            _commit(regs, i, (int(threshold[i]), old.g0, old.g1, old.points_to, old.cutset_g1), deltas)
        x[flipped] = threshold[flipped]
        cols.regs[:] = regs
        return tuple(deltas)

    points_at_me = pointer[rev]
    non_pointing = he.degree - he.row_sums(points_at_me)
    cut = np.zeros(n + 1, dtype=bool)
    cut[[i for i in cutset if 1 <= i <= n]] = True
    # tree_direct_step: cutset units point at every non-pointing neighbor, others at the only one
    new_pointer = ~points_at_me & (cut | (non_pointing == 1))[src]
    # goodness_step on tree units (cutset units get cutset_goodness_step below)
    read_g0 = np.where(points_at_me, g0[dst], 0)
    read_g1 = np.where(points_at_me, pub[rev], 0)
    s0 = he.row_sums(read_g0)
    s1 = he.row_sums(read_g1) + bias
    new_g0 = np.maximum(s0, s1)
    new_g1 = np.maximum(s0, s1 + he.row_sums(np.where(new_pointer, w, 0)))
    # activation_step: the threshold rule on cutset units and units off the tree
    tree_sum = he.row_sums(read_g1 - read_g0 + np.where(new_pointer, w * x[dst], 0))
    new_x = np.where(cut | (non_pointing > 1), threshold, (tree_sum >= -bias).astype(np.int64))

    moved = (he.row_sums(new_pointer != pointer) > 0) | cols.dropped
    special = cut | cols.paired | cols.dropped
    maybe = (new_x != x) | (new_g0 != g0) | (new_g1 != g1) | moved | special
    changed = act[maybe[act]]
    for i, xi, g0i, g1i in zip(changed.tolist(), new_x[changed].tolist(), new_g0[changed].tolist(), new_g1[changed].tolist()):
        old = regs[i]
        points_to = old.points_to
        if moved[i]:
            row = slice(first[i], first[i + 1])
            points_to = frozenset(dst[row][new_pointer[row]].tolist())
        if cut[i]:
            b, nbs = adjacency[i]
            new = (xi, old.x * b, 0, points_to, tuple((j, old.x * (b + w)) for j, w in nbs))
        else:
            new = (xi, g0i, g1i, points_to, None)
        _commit(regs, i, new, deltas)

    # write the changed units back: tree units from the new columns, the rest from their registers
    tree = np.zeros(n + 1, dtype=bool)
    tree[changed] = True
    reload = np.flatnonzero(tree & special).tolist()
    tree &= ~special
    x[tree], g0[tree], g1[tree] = new_x[tree], new_g0[tree], new_g1[tree]
    tree_rows = tree[src]
    pointer[tree_rows] = new_pointer[tree_rows]
    pub[tree_rows] = new_g1[src[tree_rows]]
    _load_rows(net, cols, regs, reload)  # last: a cast to Python ints replaces the arrays held above
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
) -> tuple[tuple[int, str, object], ...]:
    """Activate `ids` synchronously against the current snapshot.

    Mutates the register list in place (only at the activated indices
    whose fields changed; every other register stays the same object)
    and returns the field-level deltas, ordered by node id and then by
    field (x, g0, g1, points_to, cutset_g1).

    An event of at least ARRAY_MIN_UNITS + n // 12 units under a rule
    other than boltzmann runs as one array pass (`_array_event`), whose
    fixed cost outweighs the per-unit updates only on large events.
    Smaller events, singletons among them, and boltzmann events, whose
    per-unit random draws keep their order, run the rule steps of
    :mod:`goodnet.rules` one unit at a time.
    """
    if rule != "boltzmann" and len(ids) >= ARRAY_MIN_UNITS + net.n // 12:
        return _array_event(net, regs, ids, rule, cutset)
    deltas: list = []
    if len(ids) == 1:
        (i,) = ids
        _commit(regs, i, _unit_update(net, regs, i, rule, cutset, rng, temperature), deltas)
        return tuple(deltas)
    updates = {i: _unit_update(net, regs, i, rule, cutset, rng, temperature) for i in sorted(ids)}
    for i, new in updates.items():
        _commit(regs, i, new, deltas)
    return tuple(deltas)


def initial_registers(
    net: Network,
    init: str = "zeros",
    cutset: frozenset[int] = frozenset(),
    seed: int | None = None,
    preset=None,
) -> list:
    """Build the starting register list (index 0 unused).

    init 'zeros' clears everything (the explicit initialization step);
    'random' randomizes only the activation bits and needs a seed;
    'preset' takes either a full register list (n + 1 entries, an
    ActivationRegister at every index 1..n) or a mapping node ->
    pointer set over nodes 1..n; in both forms every pointer must aim
    at a neighbor of its node.
    """
    regs: list = [None] + [zero_register(net, i, cutset) for i in net.nodes()]
    if init == "zeros":
        return regs
    if init == "random":
        if seed is None:
            raise ValueError("init='random' needs a seed")
        rng = random.Random(seed)
        for i in net.nodes():
            regs[i] = replace(regs[i], x=rng.randint(0, 1))
        return regs
    if init == "preset":
        if preset is None:
            raise ValueError("init='preset' requires a preset")
        if isinstance(preset, Mapping):
            for i in preset:
                if i not in net.nodes():
                    raise ValueError(f"preset references node {i!r} outside 1..{net.n}")
            for i in net.nodes():
                regs[i] = replace(regs[i], points_to=frozenset(preset.get(i, frozenset())))
        else:
            if len(preset) != net.n + 1:
                raise ValueError(f"a preset register list needs n + 1 = {net.n + 1} entries (index 0 unused), got {len(preset)}")
            for i in net.nodes():
                if not isinstance(preset[i], ActivationRegister):
                    raise ValueError(f"preset entry {i} is {type(preset[i]).__name__}, not an ActivationRegister")
            regs = list(preset)
        adjacency = net.micros_adjacency()
        for i in net.nodes():
            nbs = {j for j, _ in adjacency[i][1]}
            for j in regs[i].points_to:
                if j not in nbs:
                    raise ValueError(f"preset pointer {i} -> {j!r} does not aim at a neighbor of node {i}")
        return regs
    raise ValueError(f"unknown init mode {init!r}")


def perturb(net: Network, regs: Sequence, seed: int) -> list:
    """Randomize every register field; deterministic per seed.

    Goodness values are drawn from the attainable envelope
    [-(sum|w| + sum|theta|), +(sum|w| + sum|theta|)].
    """
    rng = random.Random(seed)
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
    """Number of nodes whose pointer-state classification is not legal."""
    lmap = legality_map(net, pointer_snapshot(regs))
    return sum(1 for v in lmap.values() if v is not Legality.LEGAL)


def assignment_of(regs: Sequence) -> tuple[int, ...]:
    return tuple(regs[i].x for i in range(1, len(regs)))


def run(
    net: Network,
    rule: str,
    scheduler: Scheduler,
    init: str = "zeros",
    *,
    max_passes: int = 100,
    seed: int | None = None,
    temperature=None,
    cutset: frozenset[int] | None = None,
    preset=None,
    collect_trace: bool = False,
) -> RunResult:
    """Iterate scheduler events until a quiet window or the pass budget.

    `cutset` defaults to the network's declared cutset for the
    activate-with-cutset rule and to the empty set otherwise; no other
    rule accepts a non-empty one.  Only the boltzmann rule takes a
    `temperature`, and it needs one.

    A collected trace carries the running goodness and illegal count
    (nodes outside the least legal fixed point, candidates included).
    Both are kept incrementally: goodness moves by each flip's gain,
    and the legal set, classified once by `legality_map` at the start,
    is re-derived after each pointer move only on the moved nodes, their
    neighbors and the legal chains above them (`update_legal`).  An
    untraced run does neither.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, got {max_passes}")
    if rule == "boltzmann" and temperature is None:
        raise ValueError("boltzmann rule needs a temperature")
    if rule != "boltzmann" and temperature is not None:
        raise ValueError(f"a temperature is only meaningful with the boltzmann rule, not {rule!r}")
    if rule == "boltzmann" and seed is None:
        raise ValueError("boltzmann rule needs a seed")
    if cutset is None:
        cutset = net.cutset if rule == "activate-with-cutset" else frozenset()
    else:
        cutset = net.check_cutset(cutset)
        if cutset and rule != "activate-with-cutset":
            raise ValueError(f"a cutset is only meaningful with the activate-with-cutset rule, not {rule!r}")
    n = net.n
    window = 2 * n  # quiet events that end a stable run
    regs = initial_registers(net, init, cutset, seed, preset)
    rng = random.Random(seed)

    trace: list[TraceEvent] | None = [] if collect_trace else None
    last_change = -1
    last_activated = [-1] * (n + 1)
    fresh = 0  # distinct units activated after the last change
    stable = False
    step = -1
    if trace is not None:
        # running legal set, carried across pointer moves by update_legal
        pointers = pointer_snapshot(regs)
        legal = {i for i, c in legality_map(net, pointers).items() if c is Legality.LEGAL}
        # running goodness, updated by each flip's O(degree) gain
        xs = [0, *assignment_of(regs)]
        g = net.goodness(xs[1:]).micros
        adjacency = net.micros_adjacency()

    max_events = max_passes * n
    for step in range(max_events):
        ids = scheduler.next_set(n)
        if not ids:
            raise ValueError("scheduler produced an empty event")
        deltas = apply_event(net, regs, ids, rule, cutset, rng, temperature)
        if deltas:
            last_change = step
            fresh = 0
            for i in ids:
                last_activated[i] = step
        else:
            for i in ids:
                if last_activated[i] <= last_change:
                    fresh += 1
                last_activated[i] = step
        if trace is not None:
            moved = []
            for i, field, value in deltas:
                if field == "x":
                    bias, nbs = adjacency[i]
                    gain = bias + sum(w for j, w in nbs if xs[j])
                    xs[i] = value
                    g += gain if value else -gain
                elif field == "points_to":
                    pointers[i] = value
                    moved.append(i)
            if moved:
                update_legal(net, pointers, legal, moved)
            trace.append(
                TraceEvent(
                    step=step,
                    pass_idx=step // n + 1,
                    ids=ids,
                    goodness=Weight(g),
                    illegal=n - len(legal),
                    deltas=deltas,
                )
            )
        if step - last_change >= window and fresh == n:
            stable = True
            break

    events = step + 1
    assignment = assignment_of(regs)
    return RunResult(
        assignment=assignment,
        stable=stable,
        passes_used=(events + n - 1) // n,
        goodness_final=net.goodness(assignment),
        events=events,
        last_change_step=last_change,
        registers=regs,
        trace=trace,
    )
