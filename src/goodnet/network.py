"""Symmetric weighted networks over 0/1 units.

A network is a set of nodes 1..n, an undirected edge set with exact
weights, and a per-node bias.  The objective ("goodness") of an
assignment X is

    sum_{i<j} w_ij * X_i * X_j  +  sum_i theta_i * X_i

and the energy is its negation; the network's task is to maximize
goodness, equivalently minimize energy.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .weights import Weight


class ParseError(ValueError):
    """Raised on a malformed network file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Network:
    """Immutable symmetric network: nodes 1..n, weighted edges, biases.

    An optional designated cutset (node ids) may ride along; it is
    ignored by everything except cutset-aware rules and solvers.
    """

    __slots__ = ("n", "_edges", "_adj", "_bias", "cutset")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, Weight]] = (),
        biases: Mapping[int, Weight] | None = None,
        cutset: Iterable[int] = (),
    ):
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        edge_map: dict[tuple[int, int], Weight] = {}
        for i, j, w in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) references node outside 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            key = (i, j) if i < j else (j, i)
            if key in edge_map:
                raise ValueError(f"duplicate edge {key}")
            edge_map[key] = w
        bias_list = [Weight(0)] * (n + 1)
        for i, b in (biases or {}).items():
            if not 1 <= i <= n:
                raise ValueError(f"bias references node {i} outside 1..{n}")
            bias_list[i] = b
        object.__setattr__(self, "n", n)
        cutset_set = self.check_cutset(cutset)
        adj: list[list[tuple[int, Weight]]] = [[] for _ in range(n + 1)]
        for (i, j), w in edge_map.items():
            adj[i].append((j, w))
            adj[j].append((i, w))
        object.__setattr__(self, "_edges", dict(sorted(edge_map.items())))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))
        object.__setattr__(self, "_bias", tuple(bias_list))
        object.__setattr__(self, "cutset", cutset_set)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    # -- structure ---------------------------------------------------------

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int, Weight]]:
        return [(i, j, w) for (i, j), w in self._edges.items()]

    def neighbors(self, i: int) -> tuple[tuple[int, Weight], ...]:
        return self._adj[i]

    def check_cutset(self, members: Iterable[int]) -> frozenset[int]:
        """The members as a frozenset; ValueError if one lies outside 1..n."""
        members = frozenset(members)
        for i in sorted(members):
            if not 1 <= i <= self.n:
                raise ValueError(f"cutset references node {i} outside 1..{self.n}")
        return members

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def weight(self, i: int, j: int) -> Weight:
        key = (i, j) if i < j else (j, i)
        return self._edges[key]

    def bias(self, i: int) -> Weight:
        return self._bias[i]

    def magnitude_micros(self) -> int:
        """sum |w| + sum |theta| in micros: a bound on |goodness| of any assignment."""
        return sum(abs(w.micros) for w in self._edges.values()) + sum(abs(b.micros) for b in self._bias)

    # -- objective ---------------------------------------------------------

    def check_assignment(self, a: Sequence[int]) -> None:
        if len(a) != self.n:
            raise ValueError(f"assignment length {len(a)} != node count {self.n}")

    def goodness(self, a: Sequence[int]) -> Weight:
        """Exact goodness of an assignment (indexing is a[i-1] for node i)."""
        self.check_assignment(a)
        total = 0
        for (i, j), w in self._edges.items():
            if a[i - 1] and a[j - 1]:
                total += w.micros
        for i in self.nodes():
            if a[i - 1]:
                total += self._bias[i].micros
        return Weight(total)

    def energy(self, a: Sequence[int]) -> Weight:
        return -self.goodness(a)

    # -- misc ----------------------------------------------------------------

    def relabeled(self, perm: Mapping[int, int]) -> "Network":
        """Copy with node i renamed perm[i]; perm must be a bijection on 1..n."""
        if sorted(perm) != list(self.nodes()) or sorted(perm.values()) != list(self.nodes()):
            raise ValueError("perm must be a bijection on node ids")
        return Network(
            self.n,
            [(perm[i], perm[j], w) for (i, j), w in self._edges.items()],
            {perm[i]: self._bias[i] for i in self.nodes()},
            {perm[i] for i in self.cutset},
        )

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.n == other.n
            and self._edges == other._edges
            and self._bias == other._bias
            and self.cutset == other.cutset
        )

    def __hash__(self):
        return hash((self.n, tuple(self._edges.items()), self._bias, self.cutset))

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self._edges)}, cutset={sorted(self.cutset)})"


def parse_network(text: str) -> Network:
    """Parse the line-oriented network file format.

    Directives (whitespace-separated, '#' starts a comment):

        nodes <n>
        bias <i> <decimal>
        edge <i> <j> <decimal>
        cutset <i> [<i> ...]
    """
    n = None
    edges: list[tuple[int, int, Weight]] = []
    seen_edges: set[tuple[int, int]] = set()
    biases: dict[int, Weight] = {}
    cutset: set[int] = set()

    def parse_id(tok: str, lineno: int) -> int:
        try:
            i = int(tok)
        except ValueError:
            raise ParseError(lineno, f"bad node id {tok!r}") from None
        if n is None:
            raise ParseError(lineno, "directive before 'nodes'")
        if not 1 <= i <= n:
            raise ParseError(lineno, f"node id {i} out of range 1..{n}")
        return i

    def parse_weight(tok: str, lineno: int) -> Weight:
        try:
            return Weight.from_decimal(tok)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "nodes":
            if n is not None:
                raise ParseError(lineno, "repeated 'nodes' directive")
            if len(args) != 1:
                raise ParseError(lineno, "'nodes' takes exactly one argument")
            try:
                n = int(args[0])
            except ValueError:
                raise ParseError(lineno, f"bad node count {args[0]!r}") from None
            if n < 1:
                raise ParseError(lineno, f"node count must be >= 1, got {n}")
        elif kind == "bias":
            if len(args) != 2:
                raise ParseError(lineno, "'bias' takes node id and value")
            i = parse_id(args[0], lineno)
            if i in biases:
                raise ParseError(lineno, f"repeated bias for node {i}")
            biases[i] = parse_weight(args[1], lineno)
        elif kind == "edge":
            if len(args) != 3:
                raise ParseError(lineno, "'edge' takes two node ids and a weight")
            i = parse_id(args[0], lineno)
            j = parse_id(args[1], lineno)
            if i == j:
                raise ParseError(lineno, f"self-loop at node {i}")
            key = (i, j) if i < j else (j, i)
            if key in seen_edges:
                raise ParseError(lineno, f"duplicate edge {key}")
            seen_edges.add(key)
            edges.append((i, j, parse_weight(args[2], lineno)))
        elif kind == "cutset":
            if not args:
                raise ParseError(lineno, "'cutset' needs at least one node id")
            for tok in args:
                cutset.add(parse_id(tok, lineno))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    if n is None:
        raise ParseError(1, "missing 'nodes' directive")
    return Network(n, edges, biases, cutset)


def serialize_network(net: Network) -> str:
    """Canonical text form; parse(serialize(net)) == net."""
    lines = [f"nodes {net.n}"]
    for i in net.nodes():
        lines.append(f"bias {i} {net.bias(i)}")
    for i, j, w in net.edges():
        lines.append(f"edge {i} {j} {w}")
    if net.cutset:
        lines.append("cutset " + " ".join(str(i) for i in sorted(net.cutset)))
    return "\n".join(lines) + "\n"


def parse_node_ids(text: str, source: str) -> list[int]:
    """Comma-separated node ids such as ``3,2,1``, repeats kept.  An empty list,
    an empty entry or anything but ASCII digits (``1_0``, `` 3``, ``+3``)
    raises ValueError naming `source` and the token."""
    tokens = text.split(",")
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"{source}: bad node id {token!r}, expected comma-separated integers")
    return [int(token) for token in tokens]
