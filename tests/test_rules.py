import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from goodnet import (
    ActivationRegister,
    LocalView,
    Network,
    activation_step,
    boltzmann_step,
    build_view,
    cutset_goodness_step,
    example51,
    goodness_step,
    hopfield_step,
    illegal_ring,
    initial_registers,
    legality_map,
    random_network,
    run,
    tree_direct_step,
    CentralRoundRobin,
    Weight,
)
from goodnet.rules import update_legal

from helpers import (
    D,
    M,
    NeighborView,
    W,
    activation_step_reference,
    goodness_step_reference,
    legality_map_fixpoint,
    tree_direct_step_reference,
)

ZERO_REG = ActivationRegister()


def reg(x=0, g0=0, g1=0, points=(), cutset_g1=None):
    """A register; goodness values in micros."""
    return ActivationRegister(x=x, g0=g0, g1=g1, points_to=frozenset(points), cutset_g1=cutset_g1)


def view(node, bias, neighbors, cutset=False):
    """A local view; bias and (id, weight, register) neighbor weights in micros."""
    nbs = tuple(NeighborView(j, w, r) for j, w, r in neighbors)
    return LocalView(node, bias, cutset, nbs)


# ---------------------------------------------------------------------------
# tree directing


def test_direct_leaf_points_at_silent_neighbor():
    v = view(1, 0, [(2, M(1), ZERO_REG)])
    assert tree_direct_step(v) == frozenset({2})


def test_direct_center_clears_when_all_point():
    both_point = reg(points={2})
    v = view(2, 0, [(1, M(1), both_point), (3, M(1), both_point)])
    assert tree_direct_step(v) == frozenset()


def test_direct_ring_node_stays_out():
    v = view(1, 0, [(2, M(1), ZERO_REG), (3, M(1), ZERO_REG)])
    assert tree_direct_step(v) == frozenset()


def test_direct_adopts_unique_silent_neighbor():
    v = view(2, 0, [(1, M(1), reg(points={2})), (3, M(1), ZERO_REG)])
    assert tree_direct_step(v) == frozenset({3})


def test_direct_cutset_points_at_every_silent_neighbor():
    v = view(
        1,
        0,
        [(2, M(1), ZERO_REG), (3, M(1), reg(points={1})), (4, M(1), ZERO_REG)],
        cutset=True,
    )
    assert tree_direct_step(v) == frozenset({2, 4})


def test_direct_triangle_with_pendants():
    # two leaves hang off node 5; nodes 5,6,7 close a triangle.  Without a
    # cutset no triangle node may point; designating 7 directs everything:
    # 7 points at both, 6 joins, 5 becomes the root of all arcs.
    net = Network(
        7,
        [
            (1, 5, W(1)),
            (2, 5, W(1)),
            (5, 6, W(1)),
            (5, 7, W(1)),
            (6, 7, W(1)),
        ],
    )
    regs = initial_registers(net, "zeros")
    for leaf in (1, 2):
        regs[leaf] = reg(points={5})
    for i in (5, 6, 7):
        assert tree_direct_step(build_view(net, regs, i, frozenset())) == frozenset()

    cutset = frozenset({7})
    regs7 = initial_registers(net, "zeros", cutset=cutset)
    for leaf in (1, 2):
        regs7[leaf] = reg(points={5})
    assert tree_direct_step(build_view(net, regs7, 7, cutset)) == frozenset({5, 6})
    regs7[7] = reg(points={5, 6}, cutset_g1=((5, 0), (6, 0)))
    assert tree_direct_step(build_view(net, regs7, 6, cutset)) == frozenset({5})
    regs7[6] = reg(points={5})
    assert tree_direct_step(build_view(net, regs7, 5, cutset)) == frozenset()


# ---------------------------------------------------------------------------
# goodness propagation (values hand-checked on the fig1 tree)


def test_goodness_fig1_leaves():
    v1 = view(1, M(2), [(3, M(-1), ZERO_REG)])
    assert goodness_step(v1, frozenset({3})) == (M(2), M(1))
    v2 = view(2, M(-1), [(3, M(3), ZERO_REG)])
    assert goodness_step(v2, frozenset({3})) == (0, M(2))


def test_goodness_fig1_internal_node():
    child1 = reg(g0=M(2), g1=M(1), points={3})
    child2 = reg(g0=0, g1=M(2), points={3})
    v = view(3, M(-3), [(1, M(-1), child1), (2, M(3), child2), (4, M(2), ZERO_REG)])
    assert goodness_step(v, frozenset({4})) == (M(2), M(2))


def test_goodness_leaf_empty_sums():
    v = view(1, M(-2), [(2, M(5), ZERO_REG)])
    assert goodness_step(v, frozenset({2})) == (0, M(3))


def test_goodness_reads_cutset_pair():
    cut = reg(x=1, cutset_g1=((2, M("-50.1")), (3, M("99.9"))), g0=M("-0.1"), points={2})
    v = view(2, M("-0.1"), [(1, M(-50), cut), (3, M(200), ZERO_REG)])
    g0, g1 = goodness_step(v, frozenset({3}))
    assert g0 == max(M("-0.1"), M("-50.1") + M("-0.1"))
    assert g1 == max(M("-0.1"), M("-50.1") + M(200) + M("-0.1"))


def test_cutset_goodness_step():
    net = example51()
    regs = initial_registers(net, "zeros", cutset=frozenset({1}))
    v = build_view(net, regs, 1, frozenset({1}))
    g0, pairs = cutset_goodness_step(v, 0)
    assert g0 == 0
    assert all(g == 0 for _, g in pairs)

    g0, pairs = cutset_goodness_step(v, 1)
    assert g0 == M("-0.1")
    assert dict(pairs) == {2: M("-50.1"), 3: M("99.9"), 4: M("2.9"), 5: M("2.9")}


def test_cutset_run_registers_hold_int_micros():
    result = run(example51(), "activate-with-cutset", CentralRoundRobin(), init="zeros")
    assert result.stable
    for r in result.registers[1:]:
        assert type(r.g0) is int and type(r.g1) is int
        assert all(type(g) is int for _, g in r.cutset_g1 or ())
    cut = result.registers[1]
    assert cut.g0 == M("-0.1")
    assert cut.cutset_g1 == ((2, M("-50.1")), (3, M("99.9")), (4, M("2.9")), (5, M("2.9")))


# ---------------------------------------------------------------------------
# activation (values from the fig1 walkthrough)


def test_activation_fig1_root():
    child3 = reg(g0=M(2), g1=M(2), points={4})
    child5 = reg(g0=M(1), g1=0, points={4})
    v = view(4, 0, [(3, M(2), child3), (5, M(-2), child5)])
    assert activation_step(v, frozenset()) == 0


def test_activation_fig1_leaf():
    parent4 = reg(x=0)
    v = view(5, M(1), [(4, M(-2), parent4)])
    assert activation_step(v, frozenset({4})) == 1


def test_activation_fig1_internal():
    child1 = reg(g0=M(2), g1=M(1), points={3})
    child2 = reg(g0=0, g1=M(2), points={3})
    parent4 = reg(x=0)
    v = view(3, M(-3), [(1, M(-1), child1), (2, M(3), child2), (4, M(2), parent4)])
    assert activation_step(v, frozenset({4})) == 0


def test_activation_off_tree_falls_back_to_threshold():
    v = view(1, 0, [(2, M(-3), reg(x=1)), (3, M(-3), ZERO_REG)])
    assert activation_step(v, frozenset()) == hopfield_step(v) == 0


def test_activation_cutset_always_threshold():
    # even with all neighbors pointing, a designated cutset unit stays
    # on the threshold rule (its own registers are not tree values)
    pointing = reg(x=1, g0=0, g1=M(100), points={1})
    v = view(1, 0, [(2, M(-1), pointing)], cutset=True)
    assert activation_step(v, frozenset()) == 0  # field -1 < 0
    assert hopfield_step(v) == 0


def test_combined_formula_specializes_to_root_internal_leaf():
    rng = random.Random(7)
    for _ in range(500):
        n_children = rng.randint(0, 3)
        has_parent = rng.random() < 0.5
        if not has_parent and n_children == 0:
            continue
        bias = M(rng.randint(-5, 5))
        neighbors = []
        expected_lhs = 0
        for c in range(n_children):
            g0, g1 = rng.randint(-9, 9), rng.randint(-9, 9)
            neighbors.append((10 + c, M(rng.randint(-5, 5)), reg(g0=M(g0), g1=M(g1), points={1})))
            expected_lhs += g1 - g0
        points_to = frozenset()
        if has_parent:
            w = rng.randint(-5, 5)
            xk = rng.randint(0, 1)
            neighbors.append((99, M(w), reg(x=xk)))
            points_to = frozenset({99})
            expected_lhs += w * xk
        v = view(1, bias, neighbors)
        want = 1 if M(expected_lhs) >= -v.bias else 0
        assert activation_step(v, points_to) == want


# ---------------------------------------------------------------------------
# the one-pass steps against their plain references

# Ids from a pool of seven, so neighbors repeat, pointers are mutual and
# pointer sets (the unit's own and its neighbors') hold the unit itself,
# pointing neighbors and non-neighbors; cutset pair lists repeat or lack
# the reader; values reach 2**62.
ANY_ID = st.integers(0, 6)
ANY_VALUE = st.integers(-5 * 10**6, 5 * 10**6) | st.integers(-(2**62), 2**62)
ANY_REGISTER = st.builds(
    ActivationRegister,
    x=st.integers(0, 1),
    g0=ANY_VALUE,
    g1=ANY_VALUE,
    points_to=st.frozensets(ANY_ID, max_size=4),
    cutset_g1=st.none() | st.lists(st.tuples(ANY_ID, ANY_VALUE), max_size=4).map(tuple),
)
ANY_VIEW = st.builds(
    LocalView,
    node=ANY_ID,
    bias=ANY_VALUE,
    is_cutset=st.booleans(),
    neighbors=st.lists(st.builds(NeighborView, id=ANY_ID, weight=ANY_VALUE, reg=ANY_REGISTER), max_size=5).map(tuple),
)


@settings(max_examples=200, deadline=None)
@given(ANY_VIEW, st.frozensets(ANY_ID, max_size=4))
@example(view(1, 0, [(2, M(5), reg(g0=M(1), g1=M(2), points={1}))]), frozenset({2}))  # a mutual parent
def test_rule_steps_match_references_on_any_view(v, points_to):
    assert tree_direct_step(v) == tree_direct_step_reference(v)
    assert goodness_step(v, points_to) == goodness_step_reference(v, points_to)
    assert activation_step(v, points_to) == activation_step_reference(v, points_to)


# ---------------------------------------------------------------------------
# threshold and stochastic rules


def test_hopfield_step_basic():
    v = view(1, M("-0.1"), [(2, M(-50), reg(x=1)), (3, M(100), reg(x=1)), (4, M(3), ZERO_REG), (5, M(3), ZERO_REG)])
    assert hopfield_step(v) == 1  # net input +50
    assert hopfield_step(view(1, 0, [])) == 1  # tie: 0 >= 0
    assert hopfield_step(view(1, M(-1), [])) == 0


def test_hopfield_monotone_in_neighbor_activity():
    rng = random.Random(3)
    for _ in range(200):
        ws = [rng.randint(0, 5) for _ in range(3)]
        bias = rng.randint(-5, 5)
        for xs in itertools.product((0, 1), repeat=3):
            base = hopfield_step(view(1, M(bias), [(j + 2, M(ws[j]), reg(x=xs[j])) for j in range(3)]))
            for k in range(3):
                if xs[k] == 0:
                    raised = list(xs)
                    raised[k] = 1
                    more = hopfield_step(
                        view(1, M(bias), [(j + 2, M(ws[j]), reg(x=raised[j])) for j in range(3)])
                    )
                    assert more >= base


def test_boltzmann_rejects_bad_temperature():
    with pytest.raises(ValueError):
        boltzmann_step(view(1, 0, []), 0, random.Random(0))
    with pytest.raises(ValueError):
        boltzmann_step(view(1, 0, []), W(-1), random.Random(0))


def test_boltzmann_zero_input_is_fair_coin():
    rng = random.Random(12)
    v = view(1, 0, [])
    draws = sum(boltzmann_step(v, W(1), rng) for _ in range(20000))
    assert abs(draws / 20000 - 0.5) < 0.02


def test_boltzmann_saturates():
    rng = random.Random(5)
    v = view(1, M(100), [])
    assert all(boltzmann_step(v, D("0.01"), rng) == 1 for _ in range(1000))
    assert 1.0 - 1.0 / (1.0 + math.exp(-100 / 0.01)) < 1e-9


def test_boltzmann_saturates_without_overflow_at_one_micro():
    # at T = 1 micro a field of +-1000 puts (field + theta) / T at +-1e9, far
    # past where exp overflows a float; each call still draws exactly once
    rng, draws = random.Random(7), random.Random(7)
    for w, expected in ((M(1000), 1), (M(-1000), 0)):
        v = view(1, M(1), [(2, w, reg(x=1)), (3, M(-1), ZERO_REG)])
        assert [boltzmann_step(v, Weight(1), rng) for _ in range(100)] == [expected] * 100
    for _ in range(200):
        draws.random()
    assert rng.getstate() == draws.getstate()


def test_boltzmann_deterministic_under_seed():
    a = [boltzmann_step(view(1, M(1), []), W(1), random.Random(99)) for _ in range(50)]
    b = [boltzmann_step(view(1, M(1), []), W(1), random.Random(99)) for _ in range(50)]
    assert a == b


# ---------------------------------------------------------------------------
# the legal set


def path3(pointers):
    net = Network(3, [(1, 2, W(1)), (2, 3, W(1))])
    return net, {i: frozenset(pointers.get(i, ())) for i in net.nodes()}


def test_legality_directed_path_is_legal():
    net, ptrs = path3({1: {2}, 3: {2}})
    assert legality_map(net, ptrs) == {1, 2, 3}


def test_legality_clear_path():
    net, ptrs = path3({})
    assert legality_map(net, ptrs) == set()


def test_legality_illegal_ring_all_candidates():
    # every unit has exactly one pointing neighbor, so each is a
    # (never-resolving) candidate for legality by the letter of the
    # definitions, and none is legal
    net, pointers = illegal_ring(5)
    assert legality_map(net, pointers) == set()


def test_legality_pointer_rings_are_not_legal():
    # mutually-supporting claims must not bootstrap themselves legal
    net = Network(2, [(1, 2, W(1))])
    # each points at the other, with no other neighbors; resolved by the next step
    assert legality_map(net, {1: frozenset({2}), 2: frozenset({1})}) == {1, 2}
    ring, ptrs = illegal_ring(3)
    assert legality_map(ring, ptrs) == set()


def pointers_toward(net, root):
    """Parent pointers of a BFS tree of root's component, aimed at root."""
    parent = {root: frozenset()}
    order = [root]
    for v in order:
        for j, _ in net.neighbors(v):
            if j not in parent:
                parent[j] = frozenset({v})
                order.append(j)
    return parent


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_legality_worklist_matches_fixpoint_reference(data):
    kind = data.draw(st.sampled_from(["sparse", "ring", "tree"]))
    n = data.draw(st.integers(3 if kind == "ring" else 1, 12))
    m = data.draw(st.integers(0, min(5, (n - 1) * (n - 2) // 2))) if kind == "sparse" else 0
    if kind == "ring":  # legality reads only the topology and the pointers
        net = illegal_ring(n)[0]
    else:
        net = random_network(kind, n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    # Start from pointers toward one root, so legal subtrees occur, then
    # disturb some nodes: clear, re-aim at a neighbor or a non-neighbor,
    # point at several, drop the entry, or form a mutual pair.
    pointers = pointers_toward(net, data.draw(st.integers(1, n)))
    if kind == "ring" and data.draw(st.booleans()):
        pointers = {i: frozenset({i % n + 1}) for i in net.nodes()}  # one-way ring
    before = dict(pointers)
    for i in net.nodes():
        nbs = [j for j, _ in net.neighbors(i)]
        move = data.draw(st.sampled_from(["keep", "keep", "clear", "neighbor", "stranger", "several", "drop", "mutual"]))
        if move == "clear":
            pointers[i] = frozenset()
        elif move == "neighbor" and nbs:
            pointers[i] = frozenset({data.draw(st.sampled_from(nbs))})
        elif move == "stranger":
            pointers[i] = frozenset({data.draw(st.integers(1, n))})
        elif move == "several":
            pool = nbs if len(nbs) > 1 and data.draw(st.booleans()) else list(net.nodes())
            pointers[i] = data.draw(st.frozensets(st.sampled_from(pool), min_size=2)) if n > 1 else frozenset()
        elif move == "drop":
            pointers.pop(i, None)
        elif move == "mutual" and nbs:
            j = data.draw(st.sampled_from(nbs))
            pointers[i], pointers[j] = frozenset({j}), frozenset({i})
    reference = legality_map_fixpoint(net, pointers)
    assert legality_map(net, pointers) == reference
    # the incremental update carries the undisturbed legal set to the same place
    legal = legality_map(net, before)
    update_legal(net, pointers, legal, [i for i in net.nodes() if pointers.get(i) != before.get(i)])
    assert legal == reference


# ---------------------------------------------------------------------------
# goodness soundness: converged registers hold exact subtree optima


def subtree_nodes(pointers, root, n):
    children = {i: [] for i in range(1, n + 1)}
    for i, targets in pointers.items():
        for t in targets:
            children[t].append(i)
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(children[v])
    return out


def test_goodness_registers_match_subtree_enumeration():
    for seed in range(12):
        net = random_network("tree", 9, seed=seed + 200)
        result = run(net, "activate", CentralRoundRobin(), init="zeros", max_passes=60)
        assert result.stable
        pointers = {i: result.registers[i].points_to for i in net.nodes()}
        for i in net.nodes():
            if not pointers[i]:
                continue  # the root publishes no parent-conditioned pair
            parent = next(iter(pointers[i]))
            sub = subtree_nodes(pointers, i, net.n)
            w_link = net.weight(i, parent).micros
            for b in (0, 1):
                best = None
                for bits in itertools.product((0, 1), repeat=len(sub)):
                    val = dict(zip(sub, bits))
                    g = sum(
                        net.weight(u, v).micros for u in sub for v, _ in net.neighbors(u)
                        if v in val and u < v and val[u] and val[v]
                    )
                    g += sum(net.bias(u).micros * val[u] for u in sub)
                    g += w_link * val[i] * b
                    if best is None or g > best:
                        best = g
                want = result.registers[i].g0 if b == 0 else result.registers[i].g1
                assert want == best, (seed, i, b)
