"""Symmetric weighted networks over 0/1 units.

A network is a set of nodes 1..n, an undirected edge set with exact
weights, and a per-node bias, each stored once in int micros
(`Network.micros_adjacency`); `Weight`s wrap them only on the way out.
The objective ("goodness") of an assignment X is

    sum_{i<j} w_ij * X_i * X_j  +  sum_i theta_i * X_i

and the energy is its negation; the network's task is to maximize
goodness, equivalently minimize energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .weights import Weight, format_micros

INT64_SCAN_MAX_MICROS = 1 << 62  # numpy sums of a net's terms run in int64 only while magnitude_micros() stays below


class ParseError(ValueError):
    """Raised on a malformed network file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class HalfEdges:
    """The edges as CSR half-edges, one per direction, rows indexed by node id.

    Row i (row 0 is empty) spans ``indptr[i]:indptr[i+1]`` and lists i's
    neighbors in ascending id order, as in `Network.micros_adjacency`:
    half-edge e runs ``src[e] -> dst[e]`` with weight ``w[e]`` in micros
    and ``rev[e]`` is the half-edge ``dst[e] -> src[e]``.  ``bias`` holds
    the node biases in micros.  Every array is int64.
    """

    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    rev: np.ndarray
    bias: np.ndarray
    degree: np.ndarray
    max_degree: int
    _nonempty: np.ndarray
    _starts: np.ndarray

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-node int64 sum of a per-half-edge array (0 on isolated nodes)."""
        out = np.zeros(len(self.degree), dtype=np.int64)
        if len(values):
            out[self._nonempty] = np.add.reduceat(values, self._starts, dtype=np.int64)
        return out


class Network:
    """Immutable symmetric network: nodes 1..n, weighted edges, biases.

    An optional designated cutset (node ids) may ride along; it is
    ignored by everything except cutset-aware rules and solvers.
    """

    # _register_columns belongs to the engine: its array pass keeps the
    # register columns of the last register list it ran on there
    __slots__ = ("n", "cutset", "_adjacency", "_magnitude", "_half_edges", "_register_columns")

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
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
        magnitude = 0
        for (i, j), w in sorted(edge_map.items()):  # ascending keys fill every row in ascending id order
            try:
                w = w.micros
            except AttributeError:
                raise TypeError(f"edge ({i},{j}) has weight {w!r}, not a Weight") from None
            rows[i].append((j, w))
            rows[j].append((i, w))
            magnitude += abs(w)
        bias_micros = []
        for i, b in enumerate(bias_list):
            try:
                bias_micros.append(b.micros)
            except AttributeError:
                raise TypeError(f"node {i} has bias {b!r}, not a Weight") from None
        object.__setattr__(self, "cutset", cutset_set)
        object.__setattr__(self, "_adjacency", tuple(zip(bias_micros, map(tuple, rows))))
        object.__setattr__(self, "_magnitude", magnitude + sum(map(abs, bias_micros)))
        object.__setattr__(self, "_half_edges", None)
        object.__setattr__(self, "_register_columns", None)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __reduce__(self):
        # copies and pickles go through __init__, which builds the adjacency
        # again and starts without half-edges or register columns
        return Network, (self.n, self.edges(), {i: self.bias(i) for i in self.nodes()}, self.cutset)

    # -- structure ---------------------------------------------------------

    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int, Weight]]:
        return [(i, j, Weight(w)) for i, (_, row) in enumerate(self._adjacency) for j, w in row if i < j]

    def neighbors(self, i: int) -> tuple[tuple[int, Weight], ...]:
        """Node i's ``(j, w_ij)`` pairs in ascending id order."""
        return tuple([(j, Weight(w)) for j, w in self._adjacency[i][1]])

    def micros_adjacency(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Per node id, ``(bias, ((j, w_ij), ...))`` in int micros with the
        neighbors in ascending id order (entry 0 is ``(0, ())``): the net's
        one adjacency, built with the net."""
        return self._adjacency

    def half_edges(self) -> HalfEdges:
        """The CSR half-edge arrays, built on first use and kept; int64, so
        a net with a value past int64 raises OverflowError."""
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
                w=np.array([w for _, a in adj for _, w in a], dtype=np.int64),
                rev=rev,
                bias=np.array([b for b, _ in adj], dtype=np.int64),
                degree=degree,
                max_degree=int(degree.max()),
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

    def weight(self, i: int, j: int) -> Weight:
        for k, w in self._adjacency[i][1] if 0 <= i <= self.n else ():
            if k == j:
                return Weight(w)
        raise KeyError((i, j) if i < j else (j, i))

    def bias(self, i: int) -> Weight:
        return Weight(self._adjacency[i][0])

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


def _is_ascii_digits(token: str) -> bool:
    """The one spelling of a node id or count: ASCII digits only, so
    ``1_0``, ``+3`` and non-ASCII digits are refused although `int` reads them."""
    return token.isascii() and token.isdigit()


def parse_network(text: str) -> Network:
    """Parse the line-oriented network file format.

    Directives (whitespace-separated, '#' starts a comment):

        nodes <n>
        bias <i> <decimal>
        edge <i> <j> <decimal>
        cutset <i> [<i> ...]

    Node ids and the node count are ASCII digit strings.
    """
    n = None
    edges: list[tuple[int, int, Weight]] = []
    seen_edges: set[tuple[int, int]] = set()
    biases: dict[int, Weight] = {}
    cutset: set[int] = set()

    def parse_id(tok: str, lineno: int) -> int:
        if not _is_ascii_digits(tok):
            raise ParseError(lineno, f"bad node id {tok!r}")
        i = int(tok)
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
            if not _is_ascii_digits(args[0]):
                raise ParseError(lineno, f"bad node count {args[0]!r}")
            n = int(args[0])
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
    adjacency = net.micros_adjacency()
    lines = [f"nodes {net.n}"]
    lines += [f"bias {i} {format_micros(adjacency[i][0])}" for i in net.nodes()]
    lines += [f"edge {i} {j} {format_micros(w)}" for i in net.nodes() for j, w in adjacency[i][1] if i < j]
    if net.cutset:
        lines.append("cutset " + " ".join(str(i) for i in sorted(net.cutset)))
    return "\n".join(lines) + "\n"


def parse_node_ids(text: str, source: str) -> list[int]:
    """Comma-separated node ids such as ``3,2,1``, repeats kept.  An empty list,
    an empty entry or anything but ASCII digits (``1_0``, `` 3``, ``+3``)
    raises ValueError naming `source` and the token."""
    tokens = text.split(",")
    for token in tokens:
        if not _is_ascii_digits(token):
            raise ValueError(f"{source}: bad node id {token!r}, expected comma-separated integers")
    return [int(token) for token in tokens]
