import pytest

from goodnet import (
    ActivationRegister,
    Network,
    build_view,
    chain2i,
    example51,
    fig1,
    fixture,
    illegal_ring,
    random_network,
    ring6,
    tree_direct_step,
)

from goodnet.experiments import uniform_chain
from goodnet import fixtures
from goodnet.fixtures import _AbsentPairs
from goodnet.network import MAX_NODES

from helpers import D, W, enumerate_optima, sparse_network_reference


def test_random_network_needs_a_seed():
    with pytest.raises(ValueError, match="random_network needs a seed"):
        random_network("tree", 30, seed=None)
    assert random_network("tree", 30) == random_network("tree", 30, seed=0)


def test_fig1_shape():
    net = fig1()
    assert net.n == 5
    assert net.weight(2, 3) == W(3)
    assert net.weight(1, 3) == W(-1)
    assert net.weight(3, 4) == W(2)
    assert net.weight(4, 5) == W(-2)
    assert [net.bias(i) for i in net.nodes()] == [W(2), W(-1), W(-3), W(0), W(1)]


def test_fig1_optimum():
    gmax, argmax = enumerate_optima(fig1())
    assert gmax == W(3)
    assert argmax == [(1, 0, 0, 0, 1)]


def test_example51_optimum_and_cutset():
    net = example51()
    assert net.cutset == frozenset({1})
    gmax, argmax = enumerate_optima(net)
    assert gmax == D("250.7")
    assert argmax == [(1, 1, 1, 1, 1)]


def test_chain2i_exactly_two_mirror_optima():
    gmax, argmax = enumerate_optima(chain2i(3))
    assert gmax == W(8)
    assert argmax == [(1, 1, 0, 1, 1, 1), (1, 1, 1, 0, 1, 1)]
    for i in (2, 4):
        _, argmax = enumerate_optima(chain2i(i))
        n = 2 * i
        assert len(argmax) == 2
        for a in argmax:
            assert a[i - 1] != a[i]
            assert tuple(reversed(a)) in argmax


def test_ring6_two_alternating_optima():
    gmax, argmax = enumerate_optima(ring6())
    assert gmax == W(3)
    assert argmax == [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)]


def test_illegal_ring_is_tree_directing_fixed_point():
    net, pointers = illegal_ring(6)
    regs = [None] + [ActivationRegister(points_to=pointers[i]) for i in net.nodes()]
    for i in net.nodes():
        view = build_view(net, regs, i, frozenset())
        assert tree_direct_step(view) == pointers[i]


def test_fixture_arguments_validated():
    with pytest.raises(ValueError):
        chain2i(1)
    with pytest.raises(ValueError):
        illegal_ring(2)


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (chain2i, 50_001, "chain2i needs 2 <= i <= 50000 (at most 100000 nodes), got 50001"),
        (chain2i, 99_999_999_999, "chain2i needs 2 <= i <= 50000 (at most 100000 nodes), got 99999999999"),
        (illegal_ring, 100_001, "illegal_ring needs 3 <= n <= 100000, got 100001"),
    ],
    ids=["chain2i-cap+1", "chain2i-huge", "illegal_ring-cap+1"],
)
def test_fixture_node_caps_refuse_before_building(monkeypatch, build, arg, message):
    assert MAX_NODES == 100_000
    monkeypatch.setattr(fixtures, "Network", lambda *args, **kwargs: pytest.fail("a net was built"))
    monkeypatch.setattr(fixtures, "W", lambda value: pytest.fail("a weight was built"))
    with pytest.raises(ValueError) as err:
        build(arg)
    assert str(err.value) == message


def test_fixture_node_caps_admit_the_cap(monkeypatch):
    # the nets at the cap reach the constructor (not built here: each would take 100,000 nodes)
    sizes = []
    monkeypatch.setattr(fixtures, "Network", lambda n, edges, biases: sizes.append((n, len(edges))))
    chain2i(MAX_NODES // 2)
    illegal_ring(MAX_NODES)
    assert sizes == [(100_000, 99_999), (100_000, 100_000)]


def test_random_network_determinism_and_counts():
    a = random_network("tree", 8, seed=1)
    b = random_network("tree", 8, seed=1)
    assert a == b
    assert a != random_network("tree", 8, seed=2)
    assert len(a.edges()) == 7

    sparse = random_network("sparse", 10, m=2, seed=3)
    assert len(sparse.edges()) == 11
    # cyclomatic number: edges - nodes + components (connected here)
    assert len(sparse.edges()) - sparse.n + 1 == 2


def test_random_tree_is_sparse_without_extra_edges():
    for n in range(1, 40):
        for seed in range(30):
            assert random_network("tree", n, seed=seed) == random_network("sparse", n, m=0, seed=seed)


def test_sparse_extra_edges_are_drawn_as_from_the_listed_absent_pairs():
    # rng.sample lists a population of at most 21 + 4**ceil(log4(3m))
    # items (21 for m <= 5) and indexes a larger one: both branches appear
    cases = [(n, m, seed) for n in range(1, 41) for m in (0, 1, 5, 6, 20) for seed in range(2) if m <= (n - 1) * (n - 2) // 2]
    cases += [(n, (n - 1) * (n - 2) // 2, 0) for n in range(3, 12)]  # every absent pair
    cases += [(300, 8, seed) for seed in range(3)] + [(120, 40, 1)]
    for n, m, seed in cases:
        assert random_network("sparse", n, m=m, seed=seed) == sparse_network_reference(n, m, seed), (n, m, seed)


def test_uniform_chain_is_the_chain_of_unit_weights_and_biases():
    # built from micros, it equals the net the public constructor builds from Weights
    for n in (1, 2, 7):
        expected = Network(n, [(v, v + 1, W(1)) for v in range(1, n)], {v: W(1) for v in range(1, n + 1)})
        net = uniform_chain(n)
        assert net == expected and net.magnitude_micros() == expected.magnitude_micros() == (2 * n - 1) * 10**6
    # the micros builder refuses a bad size as the public constructor does
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"node count must be >= 1, got {n}"):
            uniform_chain(n)


def test_absent_pairs_index_the_lexicographic_complement_of_the_tree():
    for seed in range(5):
        tree = random_network("tree", 9, seed=seed)
        edges = {(i, j) for i, j, _ in tree.edges()}
        expected = [(i, j) for i in range(1, 10) for j in range(i + 1, 10) if (i, j) not in edges]
        pairs = _AbsentPairs(9, edges)
        assert len(pairs) == len(expected) and list(pairs) == expected
        with pytest.raises(IndexError):
            pairs[len(pairs)]


def test_random_network_infeasible():
    with pytest.raises(ValueError):
        random_network("sparse", 4, m=10, seed=0)
    with pytest.raises(ValueError):
        random_network("blob", 4, seed=0)
    with pytest.raises(ValueError, match="no extra edges"):
        random_network("tree", 6, m=3, seed=0)
    for kind in ("tree", "sparse"):
        with pytest.raises(ValueError, match="n must be >= 1"):
            random_network(kind, 0, seed=0)


def test_fixture_lookup():
    assert fixture("fig1") == fig1()
    assert fixture("chain2i:3") == chain2i(3)
    assert fixture("illegal_ring:5") == illegal_ring(5)[0]
    with pytest.raises(ValueError):
        fixture("nope")


def test_weights_in_requested_range():
    # weights and biases are whole numbers in -5..5, and both ends occur
    values = []
    for seed in range(5):
        net = random_network("sparse", 20, m=3, seed=seed)
        values += [w for _, _, w in net.edges()] + [net.bias(i) for i in net.nodes()]
    assert all(w.micros % 10**6 == 0 for w in values)
    assert {w.micros // 10**6 for w in values} == set(range(-5, 6))
