"""Named benchmark networks and seeded random instance generators.

The fixed fixtures are small nets whose exact optima are known (and
re-verified by the brute-force solver in the test suite):

* ``fig1``       -- 5-node tree with a unique optimum (1,0,0,0,1) at goodness 3.
* ``example51``  -- two triangles sharing node 1; Hopfield dynamics has three
                    nested local optima, the global one at all-ones, 250.7.
                    Ships with node 1 designated as the cycle cutset.
* ``ring6``      -- 6-cycle, weight -3 edges, unit biases; optima are the two
                    alternating patterns at goodness 3.
* ``chain2i(i)`` -- chain of 2i units, unit weights and biases except a -4
                    middle edge; exactly two mirror-image optima.
                    2 <= i <= MAX_NODES / 2.
* ``illegal_ring(n)`` -- n-cycle plus a pointer set per unit, each aimed at
                    the unit's clockwise neighbor: a stable but
                    meaningless pointer state that uniform tree directing
                    cannot escape.  3 <= n <= MAX_NODES.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Sequence

from .network import MAX_NODES, Network
from .schedulers import seeded_rng
from .weights import MAX_DIGITS, SCALE, Weight, is_ascii_digits

W = Weight.from_int


def fig1() -> Network:
    return Network(
        5,
        [(2, 3, W(3)), (1, 3, W(-1)), (3, 4, W(2)), (4, 5, W(-2))],
        {1: W(2), 2: W(-1), 3: W(-3), 4: W(0), 5: W(1)},
    )


def example51() -> Network:
    """Two triangles (1,2,3) and (1,4,5) sharing node 1 (the cutset)."""
    d = Weight.from_decimal
    return Network(
        5,
        [
            (1, 2, W(-50)),
            (2, 3, W(200)),
            (1, 3, W(100)),
            (1, 4, W(3)),
            (4, 5, W(3)),
            (1, 5, W(3)),
        ],
        {1: d("-0.1"), 2: d("-0.1"), 3: d("-0.1"), 4: W(-4), 5: W(-4)},
        cutset={1},
    )


def ring6() -> Network:
    edges = [(i, i % 6 + 1, W(-3)) for i in range(1, 7)]
    return Network(6, edges, {i: W(1) for i in range(1, 7)})


def chain2i(i: int) -> Network:
    """Mirror-symmetric chain of 2i units; middle edge weight -4, rest 1."""
    if not 2 <= i <= MAX_NODES // 2:
        raise ValueError(f"chain2i needs 2 <= i <= {MAX_NODES // 2} (at most {MAX_NODES} nodes), got {i}")
    n = 2 * i
    edges = []
    for a in range(1, n):
        w = W(-4) if a == i else W(1)
        edges.append((a, a + 1, w))
    return Network(n, edges, {v: W(1) for v in range(1, n + 1)})


def illegal_ring(n: int) -> tuple[Network, dict[int, frozenset[int]]]:
    """n-cycle plus the clockwise pointers that tree directing keeps."""
    if not 3 <= n <= MAX_NODES:
        raise ValueError(f"illegal_ring needs 3 <= n <= {MAX_NODES}, got {n}")
    edges = [(i, i % n + 1, W(-3)) for i in range(1, n + 1)]
    net = Network(n, edges, {i: W(1) for i in range(1, n + 1)})
    pointers = {i: frozenset({i % n + 1}) for i in range(1, n + 1)}
    return net, pointers


FIXED_FIXTURES = {
    "fig1": fig1,
    "example51": example51,
    "ring6": ring6,
}


def fixture(name: str) -> Network:
    """Look up a fixture by name; parametrized ones use 'name:arg' syntax,
    with arg in at most `MAX_DIGITS` ASCII digits."""
    if name in FIXED_FIXTURES:
        return FIXED_FIXTURES[name]()
    if ":" in name:
        base, arg = name.split(":", 1)
        if base in ("chain2i", "illegal_ring"):
            if not is_ascii_digits(arg):
                raise ValueError(f"fixture {name!r}: bad argument {arg!r}, expected an integer")
            if len(arg) > MAX_DIGITS:
                raise ValueError(f"fixture {base}: argument of {len(arg)} digits, more than {MAX_DIGITS}")
        if base == "chain2i":
            return chain2i(int(arg))
        if base == "illegal_ring":
            return illegal_ring(int(arg))[0]
    raise ValueError(f"unknown fixture {name!r}")


class _AbsentPairs(Sequence):
    """The node pairs (i, j), i < j, that are not tree edges, in
    lexicographic order, indexed without being listed.

    Row i holds the pairs (i, j) for j > i except i's tree children; an
    index is found by bisecting the running row lengths, then stepping
    over the row's children that lie at or below the candidate j.
    """

    def __init__(self, n: int, tree_edges: Iterable[tuple[int, int]]):
        children: list[list[int]] = [[] for _ in range(n + 1)]
        for parent, child in tree_edges:
            children[parent].append(child)
        self._children = [sorted(c) for c in children]
        self._ends = list(itertools.accumulate(n - i - len(self._children[i]) for i in range(1, n + 1)))

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self):
            raise IndexError(k)
        row = bisect.bisect_right(self._ends, k)
        i = row + 1
        j = i + 1 + k - (self._ends[row - 1] if row else 0)
        for child in self._children[i]:
            if child > j:
                break
            j += 1
        return i, j


def random_network(kind: str, n: int, m: int = 0, seed: int = 0) -> Network:
    """Seeded random instance whose weights and biases are integers drawn
    uniformly from -5..5 (both ends included).

    kind 'tree' is a uniform random recursive tree and 'sparse' a tree
    plus m extra edges (so any cycle cutset needs at most m nodes); a
    'tree' with m != 0 and any other kind raise ValueError.  A 'tree'
    is the 'sparse' net with m=0 for the same seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind not in ("tree", "sparse"):
        raise ValueError(f"unknown network kind {kind!r}")
    if kind == "tree" and m != 0:
        raise ValueError(f"a tree takes no extra edges, got m={m}")
    rng = seeded_rng(seed, "random_network")

    def rw() -> int:
        return rng.randint(-5, 5) * SCALE

    # each tree edge (parent, v), parent < v, draws its parent, then its weight
    edges = {(rng.randint(1, v - 1), v): rw() for v in range(2, n + 1)}
    if m:
        missing = _AbsentPairs(n, edges)
        if m > len(missing):
            raise ValueError(f"cannot add {m} extra edges to {n} nodes")
        for key in rng.sample(missing, m):
            edges[key] = rw()
    bias = [0] + [rw() for _ in range(n)]
    return Network._from_micros(n, edges, bias)
