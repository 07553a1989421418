import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from goodnet import (
    Network,
    ParseError,
    Weight,
    example51,
    fig1,
    parse_network,
    random_network,
    serialize_network,
)

from helpers import D, W


def test_goodness_hand_checked_values():
    net = fig1()
    # theta_1 + theta_5 with every edge term inactive
    assert net.goodness((1, 0, 0, 0, 1)) == W(3)
    assert net.goodness((0, 0, 0, 0, 0)) == Weight(0)
    assert net.goodness((1, 1, 1, 1, 1)) == W(1)

    e51 = example51()
    assert e51.goodness((1,) * 5) == D("250.7")
    assert -e51.goodness((1,) * 5) == D("-250.7")
    assert -e51.goodness((1, 1, 1, 0, 0)) == D("-249.7")
    assert -e51.goodness((0, 1, 1, 0, 0)) == D("-199.8")
    assert -e51.goodness((0, 0, 0, 0, 0)) == Weight(0)


def test_goodness_dimension_error():
    with pytest.raises(ValueError):
        fig1().goodness((1, 0))


@given(st.integers(0, 2**32 - 1))
def test_goodness_invariant_under_relabeling(seed):
    import random

    net = random_network("sparse", 6, m=2, seed=seed)
    rng = random.Random(seed)
    ids = list(net.nodes())
    shuffled = ids[:]
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    relabeled = Network(
        net.n,
        [(perm[i], perm[j], w) for i, j, w in net.edges()],
        {perm[i]: net.bias(i) for i in ids},
        {perm[i] for i in net.cutset},
    )
    a = tuple(rng.randint(0, 1) for _ in ids)
    b = [0] * net.n
    for i in ids:
        b[perm[i] - 1] = a[i - 1]
    assert net.goodness(a) == relabeled.goodness(tuple(b))


def test_network_validation():
    with pytest.raises(ValueError):
        Network(2, [(1, 1, W(1))])
    with pytest.raises(ValueError):
        Network(2, [(1, 2, W(1)), (2, 1, W(2))])
    with pytest.raises(ValueError):
        Network(2, [(1, 3, W(1))])
    with pytest.raises(ValueError):
        Network(0)


@pytest.mark.parametrize(
    "edges,biases,named",
    [
        ([(1, 2, 5)], {}, r"edge \(1,2\)"),
        ([(3, 1, 0.5)], {}, r"edge \(1,3\)"),
        ([(1, 2, W(1)), (2, 3, "1")], {}, r"edge \(2,3\)"),
        ([], {2: 1}, "node 2"),
        ([(1, 2, W(1))], {1: W(1), 3: None}, "node 3"),
    ],
)
def test_network_rejects_non_weight_values(edges, biases, named):
    # a plain number would serialize as text that parses back to another net
    with pytest.raises(TypeError, match=named):
        Network(3, edges, biases)


def test_parse_minimal():
    net = parse_network("nodes 2\nedge 1 2 1.5")
    assert net.n == 2
    assert net.weight(1, 2) == D("1.5")
    assert net.bias(1) == Weight(0) and net.bias(2) == Weight(0)

    single = parse_network("nodes 1\nbias 1 -3")
    assert single.bias(1) == W(-3)


def test_parse_comments_and_cutset():
    text = """
    # a triangle
    nodes 3
    edge 1 2 1   # inline comment
    edge 2 3 -0.25
    edge 1 3 2
    cutset 2
    """
    net = parse_network(text)
    assert net.cutset == frozenset({2})
    assert net.weight(2, 3) == D("-0.25")


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("nodes 2\nedge 1 1 1.0", 2),
        ("nodes 2\nedge 1 2 1\nedge 2 1 3", 3),
        ("nodes 2\nedge 1 3 1", 2),
        ("nodes 2\nedge 1 2 1.2345678", 2),
        ("nodes 2\nbias 1 abc", 2),
        ("edge 1 2 1", 1),
        ("nodes 2\nwobble 1", 2),
        ("nodes 2\nbias 1 1\nbias 1 2", 3),
        ("nodes 2\nbias x 1", 2),
        ("nodes 2\nnodes 2", 2),
        ("nodes 2 3", 1),
        ("nodes x", 1),
        ("nodes 0", 1),
        ("nodes 2\nbias 1", 2),
        ("nodes 2\nedge 1 2", 2),
        ("nodes 2\ncutset", 2),
        ("", 1),
    ],
)
def test_parse_errors_name_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, pickle_round_trip], ids=["copy", "deepcopy", "pickle"])
def test_network_copies_and_pickles(clone):
    net = example51()  # declares a cutset
    adjacency, half_edges = net.micros_adjacency(), net.half_edges()
    twin = clone(net)
    assert twin == net and twin is not net
    assert serialize_network(twin) == serialize_network(net)
    # the caches are derived again, not shared
    assert twin.micros_adjacency() == adjacency and twin.micros_adjacency() is not adjacency
    twin_half_edges = twin.half_edges()
    assert twin_half_edges is not half_edges
    assert twin_half_edges.rev.tolist() == half_edges.rev.tolist()
    assert twin_half_edges.dst.tolist() == half_edges.dst.tolist()


def test_micros_adjacency_is_built_once_from_the_weights():
    net = random_network("sparse", 12, m=3, seed=4)
    adjacency = net.micros_adjacency()
    assert net.micros_adjacency() is adjacency
    assert adjacency[0] == (0, ())
    rows = {i: [] for i in net.nodes()}
    for i, j, w in net.edges():
        rows[i].append((j, w.micros))
        rows[j].append((i, w.micros))
    for i in net.nodes():
        assert adjacency[i] == (net.bias(i).micros, tuple(sorted(rows[i])))
        ids = sorted(j for j, _ in rows[i])
        assert net.neighbors(i) == tuple((j, net.weight(i, j)) for j in ids)
        assert net.degree(i) == len(ids)


def test_serialize_round_trip_fixtures():
    for net in (fig1(), example51()):
        assert parse_network(serialize_network(net)) == net


def test_serialize_empty_edge_net():
    net = Network(3)
    text = serialize_network(net)
    assert text.splitlines()[0] == "nodes 3"
    assert "bias 1 0" in text
    assert "edge" not in text
    assert parse_network(text) == net


@given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(0, 3))
def test_serialize_round_trip_random(seed, n, m):
    m = min(m, (n * (n - 1)) // 2 - (n - 1))
    net = random_network("sparse", n, m=m, seed=seed)
    assert parse_network(serialize_network(net)) == net
