"""Activation-set policies and trace-level fairness checks.

A scheduler produces, per step, the set of units activated together.
Central schedulers emit singletons; the synchronous scheduler fires
everyone at once; the fair-exclusion scheduler emits random subsets
interleaved with round-robin singletons so that, within any window of
2n steps, every unit runs at least once and every ordered neighbor
pair (i without j) occurs at least once.

Infinite-schedule notions ("activated infinitely often") are made
falsifiable on finite traces by sliding-window obligations; the window
is a parameter, conventionally 2n.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .network import Network, parse_node_ids


class Scheduler:
    def next_set(self, n: int) -> frozenset[int]:
        raise NotImplementedError


class CentralRoundRobin(Scheduler):
    """Singletons cycling through a fixed order (ascending ids by default).

    A custom order must name every unit 1..n (repeats allowed): one that
    skips a unit could never let a run stabilize.  The order is checked
    once per `n`, on the first call with that `n`.
    """

    def __init__(self, order: Sequence[int] | None = None):
        self.order = tuple(order) if order is not None else None
        self._cursor = 0
        self._checked_n: int | None = None

    def _check(self, n: int) -> None:
        if self.order is None:
            return
        for i in self.order:
            if not 1 <= i <= n:
                raise ValueError(f"round-robin order references node {i} outside 1..{n}")
        missing = set(range(1, n + 1)).difference(self.order)
        if missing:
            raise ValueError(f"round-robin order never schedules node {min(missing)} of 1..{n}")

    def next_set(self, n: int) -> frozenset[int]:
        if n != self._checked_n:
            self._check(n)
            self._checked_n = n
        if self.order is None:
            pick = self._cursor % n + 1
        else:
            pick = self.order[self._cursor % len(self.order)]
        self._cursor += 1
        return frozenset((pick,))


class CentralRandom(Scheduler):
    """Uniform random singletons."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def next_set(self, n: int) -> frozenset[int]:
        return frozenset({self._rng.randint(1, n)})


class SynchronousAll(Scheduler):
    """Every unit, every step."""

    def next_set(self, n: int) -> frozenset[int]:
        return frozenset(range(1, n + 1))


class FairExclusion(Scheduler):
    """Random nonempty subsets alternating with round-robin singletons.

    Odd steps are forced singletons from an ascending cycle, so any 2n
    consecutive steps contain a full pass of solo activations; even
    steps are uniform random nonempty subsets.  This yields both
    fairness and fair exclusion with window 2n by construction.

    With `exclude_adjacent_in` set, random subsets are thinned to
    independent sets of that network, so two neighbors never run in
    the same event.  Sequential activations can never produce mutual
    parent pointers (a unit never adopts a neighbor that already
    points at it), so this regime keeps the pointer protocol's
    legality invariants intact; co-executing neighbors can transiently
    break them.
    """

    def __init__(self, seed: int, exclude_adjacent_in: Network | None = None):
        self._rng = random.Random(seed)
        self._step = 0
        self._cursor = 0
        self._net = exclude_adjacent_in

    def next_set(self, n: int) -> frozenset[int]:
        forced = self._step % 2 == 1
        self._step += 1
        if forced:
            pick = self._cursor % n + 1
            self._cursor += 1
            return frozenset({pick})
        size = self._rng.randint(1, n)
        chosen = self._rng.sample(range(1, n + 1), size)
        if self._net is None:
            return frozenset(chosen)
        picked: set[int] = set()
        for i in chosen:
            if not any(j in picked for j, _ in self._net.neighbors(i)):
                picked.add(i)
        return frozenset(picked)


def parse_scheduler(text: str, seed: int = 0) -> Scheduler:
    """Build a scheduler from its CLI name.

    Accepted: ``central-rr``, ``central-rr:<ids>``, ``central-random``,
    ``sync-all``, ``fair-excl``, ``scripted:<ids>`` with ids comma-separated
    (`parse_node_ids`; an empty list such as ``central-rr:`` is refused).
    ``scripted:<ids>`` is the round robin ``central-rr:<ids>``.  The other
    names take no argument and refuse one.
    """
    name, colon, arg = text.partition(":")
    if name == "scripted" and not arg:
        raise ValueError("scripted scheduler needs ids, e.g. scripted:1,4,2")
    if name in ("central-rr", "scripted"):
        return CentralRoundRobin(parse_node_ids(arg, f"scheduler {text!r}") if colon else None)
    if colon and name in ("central-random", "sync-all", "fair-excl"):
        raise ValueError(f"scheduler {name!r} takes no argument, got {text!r}")
    if name == "central-random":
        return CentralRandom(seed)
    if name == "sync-all":
        return SynchronousAll()
    if name == "fair-excl":
        return FairExclusion(seed)
    raise ValueError(f"unknown scheduler {text!r}")


# ---------------------------------------------------------------------------
# fairness checks on finite traces


def _every_window_hits(flags: list[bool], window: int) -> bool:
    """True iff every length-`window` contiguous span contains a True."""
    if window <= 0:
        raise ValueError("window must be positive")
    if len(flags) < window:
        return any(flags)
    last_hit = -1
    for t, f in enumerate(flags):
        if f:
            last_hit = t
        if t >= window - 1 and last_hit <= t - window:
            return False
    return True


def check_fairness(trace: Iterable, window: int, n: int) -> bool:
    """Every node 1..n appears in every length-`window` span of the trace."""
    events = [frozenset(e) for e in trace]
    if not events:
        raise ValueError("trace is empty")
    for i in range(1, n + 1):
        if not _every_window_hits([i in ids for ids in events], window):
            return False
    return True


def check_fair_exclusion(trace: Iterable, net: Network, window: int) -> bool:
    """For every edge {i,j}, both 'i without j' and 'j without i' occur in
    every length-`window` span."""
    events = [frozenset(e) for e in trace]
    if not events:
        raise ValueError("trace is empty")
    for i, j, _ in net.edges():
        solo_i = [i in ids and j not in ids for ids in events]
        solo_j = [j in ids and i not in ids for ids in events]
        if not _every_window_hits(solo_i, window) or not _every_window_hits(solo_j, window):
            return False
    return True
