"""Symmetric weighted networks over 0/1 units.

A network is a set of nodes 1..n, an undirected edge set with exact
weights, and a per-node bias, each stored once in int micros
(`Network.micros_adjacency`); `Weight`s wrap them only on the way out.
The public constructor takes `Weight`s and unwraps each once; the file
parser (`parse_network`) and the seeded generators hand int micros
straight to the same builder through `Network._from_micros`, so no
`Weight` is built on the way in.

The objective ("goodness") of an assignment X is

    sum_{i<j} w_ij * X_i * X_j  +  sum_i theta_i * X_i

and the energy is its negation; the network's task is to maximize
goodness, equivalently minimize energy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .weights import Weight, format_micros, parse_digits, parse_micros

INT64_SCAN_MAX_MICROS = 1 << 62  # numpy sums of a net's terms run in int64 only while magnitude_micros() stays below

# The largest net a network file or a parametrized fixture builds: a larger
# one is refused before any per-node list is built, since a net lives in
# memory at some hundreds of bytes per node and every run or scan of it is
# Python work per node.
MAX_NODES = 100_000


class ParseError(ValueError):
    """Raised on a malformed network file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class HalfEdges:
    """The edges as CSR half-edges, one per direction, rows indexed by node id.

    Row i (row 0 is empty) holds the ``degree[i]`` half-edges out of i,
    to its neighbors in ascending id order, as in `Network.micros_adjacency`:
    half-edge e runs ``src[e] -> dst[e]`` with weight ``w[e]`` in micros.
    ``bias`` holds the node biases in micros.  Every array is int64 and
    read-only.  The array pass keeps a unit's pointer as one parent per
    node, so half-edge e leads to a unit that points back at ``src[e]``
    when ``parent[dst[e]] == src[e]``.
    """

    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    bias: np.ndarray
    degree: np.ndarray
    max_degree: int
    _nonempty: np.ndarray
    _starts: np.ndarray

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-node int64 sum of a per-half-edge array (0 on isolated nodes)."""
        starts = self._starts
        if len(starts) == len(self.degree) - 1:  # no node 1..n is isolated: row 0 is the only empty one
            out = np.empty(len(self.degree), dtype=np.int64)
            out[0] = 0
            np.add.reduceat(values, starts, out=out[1:], dtype=np.int64)
            return out
        out = np.zeros(len(self.degree), dtype=np.int64)
        if len(values):
            out[self._nonempty] = np.add.reduceat(values, starts, dtype=np.int64)
        return out


class Network:
    """Immutable symmetric network: nodes 1..n, weighted edges, biases.

    An optional designated cutset (node ids) may ride along; it is
    ignored by everything except cutset-aware rules and solvers.  A net
    holds no run's state, so any number of runs and threads may share
    one; a register list and a scheduler belong to one run.
    """

    __slots__ = ("n", "cutset", "_adjacency", "_magnitude", "_half_edges")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, Weight]] = (),
        biases: Mapping[int, Weight] | None = None,
        cutset: Iterable[int] = (),
    ):
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        edge_micros: dict[tuple[int, int], int] = {}
        for i, j, w in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) references node outside 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            key = (i, j) if i < j else (j, i)
            if key in edge_micros:
                raise ValueError(f"duplicate edge {key}")
            try:
                edge_micros[key] = w.micros
            except AttributeError:
                raise TypeError(f"edge ({key[0]},{key[1]}) has weight {w!r}, not a Weight") from None
        bias_micros = [0] * (n + 1)
        for i, b in (biases or {}).items():
            if not 1 <= i <= n:
                raise ValueError(f"bias references node {i} outside 1..{n}")
            try:
                bias_micros[i] = b.micros
            except AttributeError:
                raise TypeError(f"node {i} has bias {b!r}, not a Weight") from None
        self._fill(n, edge_micros, bias_micros, cutset)

    @classmethod
    def _from_micros(
        cls, n: int, edges: Mapping[tuple[int, int], int], bias: list[int], cutset: Iterable[int] = ()
    ) -> Network:
        """The net of checked micros, with no `Weight` built: `edges` maps each
        (i, j), i < j, both in 1..n, to its weight, `bias` lists the n + 1
        biases (entry 0 is 0).  The node count and the cutset are checked here."""
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        net = cls.__new__(cls)
        net._fill(n, edges, bias, cutset)
        return net

    def _fill(self, n: int, edges: Mapping[tuple[int, int], int], bias: list[int], cutset: Iterable[int]) -> None:
        # the one builder of the adjacency, for __init__ and _from_micros only,
        # each of which has checked n and the edges and biases
        object.__setattr__(self, "n", n)
        cutset_set = self.check_cutset(cutset)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        magnitude = sum(map(abs, bias))
        for (i, j), w in sorted(edges.items()):  # ascending keys fill every row in ascending id order
            rows[i].append((j, w))
            rows[j].append((i, w))
            magnitude += abs(w)
        object.__setattr__(self, "cutset", cutset_set)
        object.__setattr__(self, "_adjacency", tuple(zip(bias, map(tuple, rows))))
        object.__setattr__(self, "_magnitude", magnitude)
        object.__setattr__(self, "_half_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __reduce__(self):
        # copies and pickles go through __init__, which builds the adjacency again, without half-edges
        return Network, (self.n, self.edges(), {i: self.bias(i) for i in self.nodes()}, self.cutset)

    # -- structure ---------------------------------------------------------

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int, Weight]]:
        return [(i, j, Weight(w)) for i, (_, row) in enumerate(self._adjacency) for j, w in row if i < j]

    def neighbors(self, i: int) -> tuple[tuple[int, Weight], ...]:
        """Node i's ``(j, w_ij)`` pairs in ascending id order."""
        return tuple([(j, Weight(w)) for j, w in self._adjacency[self._node(i)][1]])

    def micros_adjacency(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Per node id, ``(bias, ((j, w_ij), ...))`` in int micros with the
        neighbors in ascending id order (entry 0 is ``(0, ())``): the net's
        one adjacency, built with the net."""
        return self._adjacency

    def half_edges(self) -> HalfEdges:
        """The CSR half-edge arrays, built on first use and kept read-only;
        int64, so a net with a value past int64 raises OverflowError."""
        if self._half_edges is None:
            adj = self._adjacency
            n = self.n
            degree = np.array([len(a) for _, a in adj], dtype=np.int64)
            indptr = np.zeros(n + 2, dtype=np.int64)
            np.cumsum(degree, out=indptr[1:])
            arrays = dict(
                src=np.repeat(np.arange(n + 1, dtype=np.int64), degree),
                dst=np.array([j for _, a in adj for j, _ in a], dtype=np.int64),
                w=np.array([w for _, a in adj for _, w in a], dtype=np.int64),
                bias=np.array([b for b, _ in adj], dtype=np.int64),
                degree=degree,
                _nonempty=degree > 0,
                _starts=indptr[:-1][degree > 0],
            )
            for array in arrays.values():
                array.setflags(write=False)
            object.__setattr__(self, "_half_edges", HalfEdges(**arrays, max_degree=int(degree.max())))
        return self._half_edges

    def check_cutset(self, members: Iterable[int]) -> frozenset[int]:
        """The members as a frozenset; ValueError if one lies outside 1..n."""
        members = frozenset(members)
        for i in sorted(members):
            if not 1 <= i <= self.n:
                raise ValueError(f"cutset references node {i} outside 1..{self.n}")
        return members

    def weight(self, i: int, j: int) -> Weight:
        for k, w in self._adjacency[i][1] if 0 <= i <= self.n else ():
            if k == j:
                return Weight(w)
        raise KeyError((i, j) if i < j else (j, i))

    def bias(self, i: int) -> Weight:
        return Weight(self._adjacency[self._node(i)][0])

    def _node(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"node {i} outside 1..{self.n}")
        return i

    def magnitude_micros(self) -> int:
        """sum |w| + sum |theta| in micros, summed with the net: a bound on |goodness| of any assignment."""
        return self._magnitude

    # -- objective ---------------------------------------------------------

    def check_assignment(self, a: Sequence[int]) -> None:
        if len(a) != self.n:
            raise ValueError(f"assignment length {len(a)} != node count {self.n}")

    def goodness(self, a: Sequence[int]) -> Weight:
        """Exact goodness of an assignment (indexing is a[i-1] for node i)."""
        self.check_assignment(a)
        xs = (0, *a)
        total = pairs = 0  # an edge between two on nodes adds to pairs from both ends
        for (bias, row), x in zip(self._adjacency, xs):
            if x:
                total += bias
                for j, w in row:
                    if xs[j]:
                        pairs += w
        return Weight(total + pairs // 2)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return self.n == other.n and self._adjacency == other._adjacency and self.cutset == other.cutset

    def __hash__(self):
        return hash((self.n, self._adjacency, self.cutset))

    def __repr__(self):
        edges = sum([len(row) for _, row in self._adjacency]) // 2
        return f"Network(n={self.n}, edges={edges}, cutset={sorted(self.cutset)})"


def _node_id(token: str, n: int) -> int:
    """`token` as a node id of the file's net of n nodes (n is 0 before its
    'nodes' line); ValueError names the first check it fails."""
    i = parse_digits(token, "node id")
    if not n:
        raise ValueError("directive before 'nodes'")
    if not 1 <= i <= n:
        raise ValueError(f"node id {i} out of range 1..{n}")
    return i


def parse_network(text: str) -> Network:
    """Parse the line-oriented network file format.

    Directives (whitespace-separated, '#' starts a comment):

        nodes <n>
        bias <i> <decimal>
        edge <i> <j> <decimal>
        cutset <i> [<i> ...]

    'nodes' comes first and once, with a count of at most `MAX_NODES`.
    Node ids and the node count are read by `weights.parse_digits` (ASCII
    digits, at most 18 of them); each decimal is read by
    `weights.parse_micros` (ASCII digits, at most six fractional digits)
    straight into the net's int micros, with no `Weight` built.  A repeated bias, a self-loop or a
    duplicate edge is refused.  Each check raises a ParseError naming its line.
    A line ends only at LF, CR LF or CR, the newlines `open()` reads; any
    other character `str.splitlines` breaks at is whitespace within a line.
    """
    n = 0
    edges: dict[tuple[int, int], int] = {}
    biases: dict[int, int] = {}
    cutset: set[int] = set()
    # each id names an edge end, a bias or a cutset member, so a file repeats
    # its id tokens and each is read once; a refused token raises on every
    # line it appears on
    node_id = functools.cache(lambda token: _node_id(token, n))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        kind = tokens[0]
        try:  # every refusal below is a ValueError, raised again with its line
            if kind == "edge":
                if len(tokens) != 4:
                    raise ValueError("'edge' takes two node ids and a weight")
                _, a, b, value = tokens
                i = node_id(a)
                j = node_id(b)
                if i == j:
                    raise ValueError(f"self-loop at node {i}")
                key = (i, j) if i < j else (j, i)
                if key in edges:
                    raise ValueError(f"duplicate edge {key}")
                edges[key] = parse_micros(value)
            elif kind == "bias":
                if len(tokens) != 3:
                    raise ValueError("'bias' takes node id and value")
                _, a, value = tokens
                i = node_id(a)
                if i in biases:
                    raise ValueError(f"repeated bias for node {i}")
                biases[i] = parse_micros(value)
            elif kind == "nodes":
                if n:
                    raise ValueError("repeated 'nodes' directive")
                if len(tokens) != 2:
                    raise ValueError("'nodes' takes exactly one argument")
                n = parse_digits(tokens[1], "node count")
                if n < 1:
                    raise ValueError(f"node count must be >= 1, got {n}")
                if n > MAX_NODES:
                    raise ValueError(f"node count {n} is more than {MAX_NODES}")
            elif kind == "cutset":
                if len(tokens) == 1:
                    raise ValueError("'cutset' needs at least one node id")
                cutset.update([node_id(tok) for tok in tokens[1:]])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if not n:
        raise ParseError(1, "missing 'nodes' directive")
    bias = [0] * (n + 1)
    for i, value in biases.items():
        bias[i] = value
    return Network._from_micros(n, edges, bias, cutset)


def serialize_network(net: Network) -> str:
    """Canonical text form; parse(serialize(net)) == net."""
    adjacency = net.micros_adjacency()
    lines = [f"nodes {net.n}"]
    lines += [f"bias {i} {format_micros(adjacency[i][0])}" for i in net.nodes()]
    lines += [f"edge {i} {j} {format_micros(w)}" for i in net.nodes() for j, w in adjacency[i][1] if i < j]
    if net.cutset:
        lines.append("cutset " + " ".join(str(i) for i in sorted(net.cutset)))
    return "\n".join(lines) + "\n"


def parse_node_ids(text: str, source: str) -> list[int]:
    """Comma-separated node ids such as ``3,2,1``, repeats kept, each read by
    `weights.parse_digits`: an empty list, an empty entry, anything but ASCII
    digits (``1_0``, `` 3``, ``+3``) or an id of more than 18 digits raises
    its ValueError naming `source`."""
    try:
        return [parse_digits(token, "node id") for token in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None
