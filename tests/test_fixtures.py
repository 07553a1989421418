import pytest

from goodnet import (
    build_view,
    chain2i,
    example51,
    fig1,
    fixture,
    illegal_ring,
    initial_registers,
    random_network,
    ring6,
    tree_direct_step,
)

from helpers import D, W, enumerate_optima


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
    regs = initial_registers(net, "preset", preset=pointers)
    for i in net.nodes():
        view = build_view(net, regs, i, frozenset())
        assert tree_direct_step(view) == pointers[i]


def test_fixture_arguments_validated():
    with pytest.raises(ValueError):
        chain2i(1)
    with pytest.raises(ValueError):
        illegal_ring(2)


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


def test_random_network_infeasible():
    with pytest.raises(ValueError):
        random_network("sparse", 4, m=10, seed=0)
    with pytest.raises(ValueError):
        random_network("blob", 4, seed=0)


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
