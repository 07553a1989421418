"""Symmetric weighted networks over 0/1 units.

A network is a set of nodes 1..n, an undirected edge set with exact
weights, and a per-node bias.  The objective ("goodness") of an
assignment X is

    sum_{i<j} w_ij * X_i * X_j  +  sum_i theta_i * X_i

and the energy is its negation; the network's task is to maximize
goodness, equivalently minimize energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .weights import Weight


class ParseError(ValueError):
    """Raised on a malformed network file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _micros_array(values: list[int]) -> np.ndarray:
    """int64 when every value fits, Python ints (dtype=object) otherwise."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class HalfEdges:
    """The edges as CSR half-edges, one per direction, rows indexed by node id.

    Row i (row 0 is empty) spans ``indptr[i]:indptr[i+1]`` and lists i's
    neighbors in ascending id order, as in `Network.micros_adjacency`:
    half-edge e runs ``src[e] -> dst[e]`` with weight ``w[e]`` in micros
    and ``rev[e]`` is the half-edge ``dst[e] -> src[e]``.  ``bias`` holds
    the node biases in micros.
    """

    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    rev: np.ndarray
    bias: np.ndarray
    degree: np.ndarray
    max_degree: int
    magnitude: int  # Network.magnitude_micros()
    _nonempty: np.ndarray
    _starts: np.ndarray

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-node sum of a per-half-edge array (0 on isolated nodes),
        in the values' dtype; bools are counted in int64."""
        dtype = np.int64 if values.dtype == bool else values.dtype
        out = np.zeros(len(self.degree), dtype=dtype)
        if len(values):
            out[self._nonempty] = np.add.reduceat(values, self._starts, dtype=dtype)
        return out


class Network:
    """Immutable symmetric network: nodes 1..n, weighted edges, biases.

    An optional designated cutset (node ids) may ride along; it is
    ignored by everything except cutset-aware rules and solvers.
    """

    # _register_columns belongs to the engine: its array pass keeps the
    # register columns of the last register list it ran on there
    __slots__ = ("n", "_edges", "_bias", "cutset", "_adjacency", "_half_edges", "_register_columns")

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
        edge_map = dict(sorted(edge_map.items()))
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        for (i, j), w in edge_map.items():  # ascending keys fill every row in ascending id order
            try:
                w = w.micros
            except AttributeError:
                raise TypeError(f"edge ({i},{j}) has weight {w!r}, not a Weight") from None
            rows[i].append((j, w))
            rows[j].append((i, w))
        adjacency = []
        for i, (b, row) in enumerate(zip(bias_list, rows)):
            try:
                adjacency.append((b.micros, tuple(row)))
            except AttributeError:
                raise TypeError(f"node {i} has bias {b!r}, not a Weight") from None
        object.__setattr__(self, "_edges", edge_map)
        object.__setattr__(self, "_bias", tuple(bias_list))
        object.__setattr__(self, "cutset", cutset_set)
        object.__setattr__(self, "_adjacency", tuple(adjacency))
        object.__setattr__(self, "_half_edges", None)
        object.__setattr__(self, "_register_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __reduce__(self):
        # copies and pickles go through __init__, which builds the adjacency
        # again and starts without half-edges or register columns
        return Network, (self.n, self.edges(), dict(enumerate(self._bias[1:], 1)), self.cutset)

    # -- structure ---------------------------------------------------------

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int, Weight]]:
        return [(i, j, w) for (i, j), w in self._edges.items()]

    def neighbors(self, i: int) -> tuple[tuple[int, Weight], ...]:
        """Node i's ``(j, w_ij)`` pairs in ascending id order."""
        return tuple([(j, self.weight(i, j)) for j, _ in self._adjacency[i][1]])

    def micros_adjacency(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Per node id, ``(bias, ((j, w_ij), ...))`` in int micros with the
        neighbors in ascending id order (entry 0 is ``(0, ())``): the net's
        one adjacency, built with the net."""
        return self._adjacency

    def half_edges(self) -> HalfEdges:
        """The CSR half-edge arrays, built on first use and kept."""
        if self._half_edges is None:
            adj = self._adjacency
            n = self.n
            degree = np.array([len(a) for _, a in adj], dtype=np.int64)
            indptr = np.zeros(n + 2, dtype=np.int64)
            np.cumsum(degree, out=indptr[1:])
            src = np.repeat(np.arange(n + 1, dtype=np.int64), degree)
            dst = np.array([j for _, a in adj for j, _ in a], dtype=np.int64)
            # (src, dst) keys ascend along the half-edges, so each reverse is one search
            rev = np.searchsorted(src * (n + 1) + dst, dst * (n + 1) + src)
            half_edges = HalfEdges(
                indptr=indptr,
                src=src,
                dst=dst,
                w=_micros_array([w for _, a in adj for _, w in a]),
                rev=rev,
                bias=_micros_array([b for b, _ in adj]),
                degree=degree,
                max_degree=int(degree.max()),
                magnitude=self.magnitude_micros(),
                _nonempty=degree > 0,
                _starts=indptr[:-1][degree > 0],
            )
            object.__setattr__(self, "_half_edges", half_edges)
        return self._half_edges

    def check_cutset(self, members: Iterable[int]) -> frozenset[int]:
        """The members as a frozenset; ValueError if one lies outside 1..n."""
        members = frozenset(members)
        for i in sorted(members):
            if not 1 <= i <= self.n:
                raise ValueError(f"cutset references node {i} outside 1..{self.n}")
        return members

    def degree(self, i: int) -> int:
        return len(self._adjacency[i][1])

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

    # -- misc ----------------------------------------------------------------

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
