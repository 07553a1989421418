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

from goodnet.network import MAX_NODES

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


def test_non_weight_values_are_refused_with_the_messages_they_always_had():
    cases = [
        ([(1, 2, 5)], {}, "edge (1,2) has weight 5, not a Weight"),
        ([(3, 1, 0.5)], {}, "edge (1,3) has weight 0.5, not a Weight"),
        ([(1, 2, W(1)), (2, 3, "1")], {}, "edge (2,3) has weight '1', not a Weight"),
        ([], {2: 1}, "node 2 has bias 1, not a Weight"),
        ([(1, 2, W(1))], {1: W(1), 3: None}, "node 3 has bias None, not a Weight"),
    ]
    for edges, biases, message in cases:
        with pytest.raises(TypeError) as err:
            Network(3, edges, biases)
        assert str(err.value) == message


def test_parse_minimal():
    net = parse_network("nodes 2\nedge 1 2 1.5")
    assert net.n == 2
    assert net.weight(1, 2) == D("1.5") and net.weight(2, 1) == D("1.5")
    assert net.bias(1) == Weight(0) and net.bias(2) == Weight(0)
    for i, j in ((1, 1), (3, 1), (-1, 1), (0, 2)):
        with pytest.raises(KeyError):
            net.weight(i, j)

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
        # node ids and counts are ASCII digits, as in the CLI's id lists, though `int` reads these
        ("nodes 20\nedge 1_0 2 1", 2),
        ("nodes 3\nbias \u0661 1", 2),
        ("nodes 3\nedge 1 +2 1", 2),
        ("nodes 1_0", 1),
        ("nodes \u0663", 1),
        ("nodes +3", 1),
        ("nodes 2\nnodes 2", 2),
        ("nodes 2 3", 1),
        ("nodes x", 1),
        ("nodes 0", 1),
        ("nodes 2\nbias 1", 2),
        ("nodes 2\nedge 1 2", 2),
        ("nodes 2\ncutset", 2),
        ("", 1),
        # decimals take ASCII digits only, as node ids do
        ("nodes 2\nbias 1 \u0661\nedge 1 2 3", 2),
        ("nodes 2\nbias 1 1\nedge 1 2 \u0663.\u0665", 3),
        ("nodes 2\nedge 1 2 1.\u0665", 2),
    ],
)
def test_parse_errors_name_line(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("nodes " + "1" * 5000, 1, "node count of 5000 digits, more than 18"),
        ("nodes " + "1" * 19, 1, "node count of 19 digits, more than 18"),
        ("nodes 3\nedge 1 " + "2" * 5000 + " 1", 2, "node id of 5000 digits, more than 18"),
        ("nodes 3\n\ncutset 1 " + "9" * 19, 3, "node id of 19 digits, more than 18"),
    ],
    ids=["count-5000", "count-19", "edge-id-5000", "cutset-id-19"],
)
def test_digit_runs_too_long_for_int_are_refused_by_length_with_their_line(text, lineno, message):
    # `int` would raise its own bare ValueError past 4,300 digits, with no line
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert (err.value.line, str(err.value)) == (lineno, f"line {lineno}: {message}")


@pytest.mark.parametrize("count", ["100001", "99999999999"])
def test_a_node_count_past_the_cap_is_refused_with_its_line_before_the_next_line(count):
    # the edge on line 3 is out of range for any count, so reading it would raise at line 3
    assert MAX_NODES == 100_000
    with pytest.raises(ParseError) as err:
        parse_network(f"# too many\nnodes {count}\nedge 1 0 1\n")
    assert (err.value.line, str(err.value)) == (2, f"line 2: node count {count} is more than 100000")


def test_a_node_count_at_the_cap_is_read(monkeypatch):
    built = []
    monkeypatch.setattr(Network, "_from_micros", lambda n, edges, bias, cutset: built.append((n, edges, len(bias))))
    parse_network("nodes 100000\nedge 1 100000 1\n")
    assert built == [(100_000, {(1, 100_000): 1_000_000}, 100_001)]


_MICROS = st.one_of(
    st.integers(-3 * 10**6, 3 * 10**6),  # negative fractions and zero among them
    st.integers(-(2**70), 2**70),  # magnitudes past the 2**62 scan bound
    st.sampled_from([0, -1, 1, -(2**62), 2**62, 2**62 + 1]),
)


@st.composite
def micros_networks(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(*(pair[::-1] if draw(st.booleans()) else pair), Weight(draw(_MICROS))) for pair in chosen]  # either end first
    biases = {i: Weight(draw(_MICROS)) for i in draw(st.sets(st.integers(1, n)))}
    return Network(n, edges, biases, draw(st.sets(st.integers(1, n))))


@given(micros_networks())
def test_parse_serialize_round_trip_over_arbitrary_micros(net):
    text = serialize_network(net)
    twin = parse_network(text)
    assert twin == net and hash(twin) == hash(net)
    assert twin.magnitude_micros() == net.magnitude_micros()
    assert serialize_network(twin) == text


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


def test_networks_from_reordered_inputs_are_equal():
    # equality, hashing and the text form see the weights, biases and
    # cutset, not the order they came in (an omitted bias is a zero one)
    edges = [(1, 2, W(1)), (3, 2, D("-0.5")), (1, 4, W(2)), (3, 4, W(0))]
    biases = {4: D("0.25"), 1: W(1)}
    net = Network(4, edges, biases, {2})
    twin = Network(4, [(j, i, w) for i, j, w in reversed(edges)], {1: W(1), 2: W(0), 4: D("0.25")}, [2, 2])
    assert twin == net and hash(twin) == hash(net)
    assert serialize_network(twin) == serialize_network(net)
    for other in (
        Network(4, edges[:3] + [(3, 4, D("0.000001"))], biases, {2}),  # one weight
        Network(4, edges[:3], biases, {2}),  # a zero weight is still an edge
        Network(4, edges, {**biases, 3: D("-0.000001")}, {2}),  # one bias
        Network(4, edges, biases, {2, 3}),  # the cutset
        Network(4, edges, biases),
    ):
        assert other != net and serialize_network(other) != serialize_network(net)


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
        assert net.half_edges().degree[i] == len(ids)


@pytest.mark.parametrize("net", [random_network("sparse", 12, m=3, seed=4), Network(3)], ids=["sparse", "edgeless"])
def test_every_half_edge_array_refuses_a_write(net):
    # every run on a net reads its half-edges, so none may write them
    half_edges = net.half_edges()
    arrays = {name: value for name, value in vars(half_edges).items() if name != "max_degree"}
    assert len(arrays) == 8
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert net.half_edges() is half_edges


@pytest.mark.parametrize("i", [-1, 0, 6])
def test_bias_and_neighbors_refuse_an_id_outside_the_nodes(i):
    net = fig1()  # n = 5; -1 used to read node 5 and 0 the empty row
    for method in (net.bias, net.neighbors):
        with pytest.raises(ValueError, match=rf"node {i} outside 1\.\.5"):
            method(i)


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
