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
* ``illegal_ring(n)`` -- n-cycle plus a pointer preset in which every unit
                    already points at its clockwise neighbor: a stable but
                    meaningless pointer state that uniform tree directing
                    cannot escape.
"""

from __future__ import annotations

import random

from .network import Network
from .weights import Weight

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
    if i < 2:
        raise ValueError(f"chain2i needs i >= 2, got {i}")
    n = 2 * i
    edges = []
    for a in range(1, n):
        w = W(-4) if a == i else W(1)
        edges.append((a, a + 1, w))
    return Network(n, edges, {v: W(1) for v in range(1, n + 1)})


def illegal_ring(n: int) -> tuple[Network, dict[int, frozenset[int]]]:
    """n-cycle plus the clockwise pointer preset that tree directing keeps."""
    if n < 3:
        raise ValueError(f"illegal_ring needs n >= 3, got {n}")
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
    """Look up a fixture by name; parametrized ones use 'name:arg' syntax."""
    if name in FIXED_FIXTURES:
        return FIXED_FIXTURES[name]()
    if ":" in name:
        base, arg = name.split(":", 1)
        if base == "chain2i":
            return chain2i(int(arg))
        if base == "illegal_ring":
            return illegal_ring(int(arg))[0]
    raise ValueError(f"unknown fixture {name!r}")


def random_network(kind: str, n: int, m: int = 0, seed: int = 0) -> Network:
    """Seeded random instance whose weights and biases are integers drawn
    uniformly from -5..5 (both ends included).

    kind 'tree' is a uniform random recursive tree and 'sparse' a tree
    plus m extra edges (so any cycle cutset needs at most m nodes); any
    other kind raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)

    def rw() -> Weight:
        return W(rng.randint(-5, 5))

    edges: list[tuple[int, int, Weight]] = []
    if kind == "tree":
        for v in range(2, n + 1):
            edges.append((rng.randint(1, v - 1), v, rw()))
    elif kind == "sparse":
        for v in range(2, n + 1):
            edges.append((rng.randint(1, v - 1), v, rw()))
        present = {(min(i, j), max(i, j)) for i, j, _ in edges}
        missing = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) not in present
        ]
        if m > len(missing):
            raise ValueError(f"cannot add {m} extra edges to {n} nodes")
        for i, j in rng.sample(missing, m):
            edges.append((i, j, rw()))
    else:
        raise ValueError(f"unknown network kind {kind!r}")

    biases = {i: rw() for i in range(1, n + 1)}
    return Network(n, edges, biases)
