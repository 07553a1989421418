"""Executes a unit rule over a network under a scheduler.

Registers follow the multi-reader single-writer discipline: within one
scheduled event every activated unit reads the pre-event snapshot and
computes its whole update (pointer step, then goodness, then
activation); all writes commit together afterwards.  A singleton event
therefore behaves exactly like one sequential activation.

A run is declared stable after a full quiet window: no register
changed for 2n consecutive events and every unit was re-activated on
the final state at least once.  Stochastic rules simply exhaust their
pass budget and report stable=False.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

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
    converged_pass: int
    registers: list
    trace: list[TraceEvent] | None = None


def build_view(net: Network, regs: Sequence[ActivationRegister], i: int, cutset: frozenset[int]) -> LocalView:
    nbs = tuple(NeighborView(j, w.micros, regs[j]) for j, w in net.neighbors(i))
    return LocalView(i, net.bias(i).micros, i in cutset, nbs)


def _unit_update(
    net: Network,
    regs: Sequence[ActivationRegister],
    i: int,
    rule: str,
    cutset: frozenset[int],
    rng: random.Random | None,
    temperature,
) -> ActivationRegister:
    view = build_view(net, regs, i, cutset)
    if rule == "hopfield":
        return replace(regs[i], x=hopfield_step(view))
    if rule == "boltzmann":
        return replace(regs[i], x=boltzmann_step(view, temperature, rng))
    # tree-optimizing rule: pointer step feeds the goodness and activation steps
    new_points = tree_direct_step(view)
    if view.is_cutset:
        # a cutset unit publishes goodness for its pre-event bit
        g0, pairs = cutset_goodness_step(view, regs[i].x)
        x = activation_step(view, new_points)
        return ActivationRegister(x=x, g0=g0, g1=0, points_to=new_points, cutset_g1=pairs)
    g0, g1 = goodness_step(view, new_points)
    x = activation_step(view, new_points)
    return ActivationRegister(x=x, g0=g0, g1=g1, points_to=new_points, cutset_g1=None)


_DELTA_FIELDS = ("x", "g0", "g1", "points_to", "cutset_g1")


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

    Mutates the register list in place (only at the activated indices)
    and returns the field-level deltas.
    """
    updates = {i: _unit_update(net, regs, i, rule, cutset, rng, temperature) for i in sorted(ids)}
    deltas = []
    for i, new in updates.items():
        old = regs[i]
        if new != old:
            for field in _DELTA_FIELDS:
                if getattr(new, field) != getattr(old, field):
                    deltas.append((i, field, getattr(new, field)))
            regs[i] = new
    return tuple(deltas)


def replay_deltas(initial_regs: Sequence, trace: Sequence[TraceEvent]) -> list:
    """Reconstruct the final registers from the initial ones plus deltas."""
    regs = list(initial_regs)
    for ev in trace:
        for node, field, value in ev.deltas:
            regs[node] = replace(regs[node], **{field: value})
    return regs


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
    pointer set over nodes 1..n.
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
            return regs
        if len(preset) != net.n + 1:
            raise ValueError(f"a preset register list needs n + 1 = {net.n + 1} entries (index 0 unused), got {len(preset)}")
        for i in net.nodes():
            if not isinstance(preset[i], ActivationRegister):
                raise ValueError(f"preset entry {i} is {type(preset[i]).__name__}, not an ActivationRegister")
        return list(preset)
    raise ValueError(f"unknown init mode {init!r}")


def perturb(net: Network, regs: Sequence, seed: int) -> list:
    """Randomize every register field; deterministic per seed.

    Goodness values are drawn from the attainable envelope
    [-(sum|w| + sum|theta|), +(sum|w| + sum|theta|)].
    """
    rng = random.Random(seed)
    m = net.magnitude_micros()
    out: list = [None]
    for i in net.nodes():
        old = regs[i]
        x = rng.randint(0, 1)
        g0 = rng.randint(-m, m)
        g1 = rng.randint(-m, m)
        points = frozenset(j for j, _ in net.neighbors(i) if rng.random() < 0.5)
        cutset_g1 = None
        if old.cutset_g1 is not None:
            cutset_g1 = tuple((j, rng.randint(-m, m)) for j, _ in net.neighbors(i))
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
    `temperature`, and it needs one.  A collected trace carries the
    running goodness and illegal count.
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
        illegal = illegal_count(net, regs)
        # running goodness, updated by each flip's O(degree) gain
        xs = [0, *assignment_of(regs)]
        g = net.goodness(xs[1:]).micros

    max_events = max_passes * n
    for step in range(max_events):
        ids = scheduler.next_set(n)
        if not ids:
            raise ValueError("scheduler produced an empty event")
        deltas = apply_event(net, regs, ids, rule, cutset, rng, temperature)
        if deltas:
            last_change = step
            fresh = 0
        else:
            fresh += sum(1 for i in ids if last_activated[i] <= last_change)
        for i in ids:
            last_activated[i] = step
        if trace is not None:
            for i, field, value in deltas:
                if field == "x":
                    gain = net.bias(i).micros + sum(w.micros for j, w in net.neighbors(i) if xs[j])
                    xs[i] = value
                    g += gain if value else -gain
            if any(f == "points_to" for _, f, _ in deltas):
                illegal = illegal_count(net, regs)
            trace.append(
                TraceEvent(
                    step=step,
                    pass_idx=step // n + 1,
                    ids=ids,
                    goodness=Weight(g),
                    illegal=illegal,
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
        converged_pass=(last_change // n + 1) if last_change >= 0 else 0,
        registers=regs,
        trace=trace,
    )
