"""Activation-set policies.

A scheduler produces, per step, the set of units activated together.
Central schedulers emit singletons; the synchronous scheduler fires
everyone at once; the fair-exclusion scheduler emits random subsets
interleaved with round-robin singletons so that, within any window of
2n steps, every unit runs at least once and every ordered neighbor
pair (i without j) occurs at least once.
"""

from __future__ import annotations

import random
from typing import Sequence

from .network import parse_node_ids


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
    """Every unit, every step: one set per `n`, handed out again."""

    def __init__(self):
        self._all: frozenset[int] = frozenset()

    def next_set(self, n: int) -> frozenset[int]:
        if len(self._all) != n:
            self._all = frozenset(range(1, n + 1))
        return self._all


class FairExclusion(Scheduler):
    """Random nonempty subsets alternating with round-robin singletons.

    Odd steps are forced singletons from an ascending cycle, so any 2n
    consecutive steps contain a full pass of solo activations; even
    steps are uniform random nonempty subsets.  This yields both
    fairness and fair exclusion with window 2n by construction.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._step = 0
        self._cursor = 0

    def next_set(self, n: int) -> frozenset[int]:
        forced = self._step % 2 == 1
        self._step += 1
        if forced:
            pick = self._cursor % n + 1
            self._cursor += 1
            return frozenset({pick})
        size = self._rng.randint(1, n)
        return frozenset(self._rng.sample(range(1, n + 1), size))


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
