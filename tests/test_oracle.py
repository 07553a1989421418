import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from goodnet import oracle
from goodnet import (
    CutsetPlan,
    Network,
    Weight,
    brute_force_optima,
    cutset_exact_optimize,
    example51,
    fig1,
    greedy_cutset,
    is_acyclic_without,
    parse_network,
    plan_from_members,
    random_network,
    ring6,
    tree_conditioned_max,
)

from helpers import (
    D,
    W,
    conditioned_optimum,
    cutset_optimize_reference,
    enumerate_hopfield_stable,
    enumerate_optima,
    is_forest_without,
    is_hopfield_stable,
    local_field,
    tree_conditioned_max_reference,
)


@st.composite
def sparse_nets(draw, max_n):
    """Sparse nets with drawn weights, or -1/0/1 weights (many ties), or all
    zeros (every assignment ties), or multiples of 3e12 (past int64 sums)."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, min(6, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([None, 1, 0, 3_000_000_000_000]))
    if scale is None:
        return net

    def pick():
        return W(draw(st.integers(-1, 1)) * scale)

    return Network(n, [(i, j, pick()) for i, j, _ in net.edges()], {i: pick() for i in net.nodes()})


def test_brute_force_fig1():
    report = brute_force_optima(fig1())
    assert report.gmax == W(3)
    assert report.argmax == ((1, 0, 0, 0, 1),)
    assert report.states_scanned == 32


def test_brute_force_single_negative_node():
    report = brute_force_optima(Network(1, biases={1: W(-1)}))
    assert report.gmax == Weight(0)
    assert report.argmax == ((0,),)


def test_brute_force_example51():
    report = brute_force_optima(example51())
    assert report.gmax == D("250.7")
    assert report.argmax == ((1, 1, 1, 1, 1),)


def test_brute_force_matches_plain_enumeration():
    for seed in range(10):
        net = random_network("sparse", 8, m=3, seed=seed)
        report = brute_force_optima(net)
        gmax, argmax = enumerate_optima(net)
        assert report.gmax == gmax
        assert list(report.argmax) == argmax


def test_int64_scans_refuse_wrapping_weights():
    # sum |w| + sum |theta| is 1.8e19 micros: an int64 scan would wrap
    net = parse_network("nodes 3\nedge 1 2 9000000000000\nedge 2 3 9000000000000\nbias 1 1\n")
    with pytest.raises(ValueError, match="int64"):
        brute_force_optima(net)
    report = cutset_exact_optimize(net, plan_from_members(net, set()))
    assert report.gmax == D("18000000000001")
    assert report.argmax == ((1, 1, 1),)


def test_int64_scan_limit_is_exact():
    assert brute_force_optima(Network(1, biases={1: Weight((1 << 62) - 1)})).gmax == Weight((1 << 62) - 1)
    with pytest.raises(ValueError, match="int64"):
        brute_force_optima(Network(1, biases={1: Weight(1 << 62)}))


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_optima(Network(27))


def test_hopfield_stability_examples():
    net = example51()
    assert is_hopfield_stable(net, (0, 0, 0, 0, 0))
    assert is_hopfield_stable(net, (1, 1, 1, 0, 0))
    assert is_hopfield_stable(net, (1, 1, 1, 1, 1))
    # unit 1 sees +50 and flips on, so this state is not stable
    assert not is_hopfield_stable(net, (0, 1, 1, 0, 0))


def test_hopfield_tie_convention():
    lone = Network(1, biases={1: Weight(0)})
    assert is_hopfield_stable(lone, (1,))
    assert not is_hopfield_stable(lone, (0,))


def test_hopfield_local_optima_example51():
    # the three nested local optima, the global one at all-ones
    assert enumerate_hopfield_stable(example51()) == [(0, 0, 0, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1)]


def test_hopfield_local_optima_small_cases():
    assert enumerate_hopfield_stable(Network(1, biases={1: W(1)})) == [(1,)]
    # w=0, theta=0: the >= rule outputs 1 on zero input, so only all-ones is a fixed point
    two = Network(2, [(1, 2, Weight(0))])
    assert enumerate_hopfield_stable(two) == [(1, 1)]


def test_global_optima_are_hopfield_stable_up_to_ties():
    # a global argmax can only violate the >= rule at an exact threshold
    # tie held at 0; that flip is goodness-neutral, so it lands on another
    # argmax. In particular at least one argmax is a true fixed point.
    for seed in range(8):
        net = random_network("sparse", 7, m=2, seed=seed + 50)
        report = brute_force_optima(net)
        argmax = set(report.argmax)
        assert any(is_hopfield_stable(net, a) for a in argmax)
        for a in argmax:
            for i in net.nodes():
                want = 1 if local_field(net, i, a) >= -net.bias(i).micros else 0
                if a[i - 1] == want:
                    continue
                assert a[i - 1] == 0 and want == 1
                assert local_field(net, i, a) == -net.bias(i).micros
                flipped = list(a)
                flipped[i - 1] = 1
                assert tuple(flipped) in argmax


def test_conditioned_optimum_example51():
    net = example51()
    assert conditioned_optimum(net, {1: 0}) == (D("199.8"), [(0, 1, 1, 0, 0)])
    assert conditioned_optimum(net, {1: 1}) == (D("250.7"), [(1, 1, 1, 1, 1)])


def test_conditioned_optimum_all_fixed():
    net = fig1()
    y = {1: 1, 2: 0, 3: 0, 4: 0, 5: 1}
    assert conditioned_optimum(net, y) == (net.goodness((1, 0, 0, 0, 1)), [(1, 0, 0, 0, 1)])


def test_greedy_cutset_examples():
    assert greedy_cutset(random_network("tree", 9, seed=3)).members == frozenset()
    assert greedy_cutset(ring6()).members == frozenset({1})
    assert greedy_cutset(example51()).members == frozenset({1})


def test_greedy_cutset_always_verifies():
    for seed in range(20):
        net = random_network("sparse", 10, m=seed % 4, seed=seed)
        plan = greedy_cutset(net)
        assert is_acyclic_without(net, plan.members)
        assert len(plan.members) <= seed % 4


def test_cutset_exact_examples():
    assert cutset_exact_optimize(example51(), plan_from_members(example51(), {1})).gmax == D("250.7")
    assert cutset_exact_optimize(fig1(), plan_from_members(fig1(), set())).gmax == W(3)
    assert cutset_exact_optimize(ring6(), plan_from_members(ring6(), {1})).gmax == W(3)


def test_cutset_exact_rejects_bad_plan():
    with pytest.raises(ValueError, match="does not cut all cycles"):
        cutset_exact_optimize(ring6(), CutsetPlan(frozenset()))
    with pytest.raises(ValueError, match="does not cut all cycles"):
        cutset_exact_optimize(example51(), plan_from_members(example51(), {2}))


def test_cutset_exact_matches_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(4, 16)
        m = rng.randint(0, 4)
        net = random_network("sparse", n, m=m, seed=rng.randrange(2**32))
        plan = greedy_cutset(net)
        report = cutset_exact_optimize(net, plan)
        brute = brute_force_optima(net)
        assert report.gmax == brute.gmax, (n, m)
        for witness in report.argmax:
            assert net.goodness(witness) == brute.gmax


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_forest_walk_matches_edge_count_reference(data):
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(0, min(6, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    skip = data.draw(st.frozensets(st.integers(1, n)))
    y = {i: data.draw(st.integers(0, 1)) for i in sorted(skip)}
    forest = is_forest_without(net, skip)
    assert is_acyclic_without(net, skip) == forest
    if not forest:
        with pytest.raises(ValueError, match="does not cut all cycles"):
            tree_conditioned_max(net, y)
        return
    value, witness = tree_conditioned_max(net, y)
    assert value == conditioned_optimum(net, y)[0]
    assert net.goodness(witness) == value
    assert all(witness[i - 1] == y[i] for i in skip)


def test_cutset_conditionings_table():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network("sparse", rng.randint(4, 30), m=rng.randint(0, 5), seed=rng.randrange(2**32))
        plan = greedy_cutset(net)
        members = sorted(plan.members)
        report = cutset_exact_optimize(net, plan)
        assert [bits for bits, _ in report.conditionings] == list(itertools.product((0, 1), repeat=len(members)))
        for bits, value in report.conditionings:
            assert value == tree_conditioned_max(net, dict(zip(members, bits)))[0]
        assert max(value for _, value in report.conditionings) == report.gmax
    assert brute_force_optima(fig1()).conditionings == ()


def test_tree_conditioned_max_against_enumeration():
    net = example51()
    for y1 in (0, 1):
        value, witness = tree_conditioned_max(net, {1: y1})
        best = max(
            net.goodness((y1,) + rest)
            for rest in itertools.product((0, 1), repeat=4)
        )
        assert value == best
        assert net.goodness(witness) == best
        assert witness[0] == y1


def test_argmax_is_lexicographically_sorted():
    two = Network(2, [(1, 2, Weight(0))], biases={1: Weight(0), 2: Weight(0)})
    report = brute_force_optima(two)
    assert report.gmax == Weight(0)
    assert list(report.argmax) == sorted(report.argmax)
    assert report.argmax == ((0, 0), (0, 1), (1, 0), (1, 1))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_conditioning_dp_matches_scalar_reference(data):
    net = data.draw(sparse_nets(30))
    members = greedy_cutset(net).members | data.draw(st.frozensets(st.integers(1, net.n), max_size=3))
    gmax, argmax, rows = cutset_optimize_reference(net, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CODE_CHUNK", data.draw(st.sampled_from([1, 4])))
        report = cutset_exact_optimize(net, plan_from_members(net, members))
    assert (report.gmax, report.argmax, report.conditionings) == (gmax, argmax, rows)
    assert report.states_scanned == 2 ** len(members)
    y = {i: data.draw(st.integers(0, 1)) for i in sorted(members)}
    assert tree_conditioned_max(net, y) == tree_conditioned_max_reference(net, y)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brute_force_scan_matches_plain_enumeration(data):
    net = data.draw(sparse_nets(12))
    if net.magnitude_micros() >= oracle.INT64_SCAN_MAX_MICROS:
        with pytest.raises(ValueError, match="int64"):
            brute_force_optima(net)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", 1 << 3)
        report = brute_force_optima(net)
    gmax, argmax = enumerate_optima(net)
    assert (report.gmax, list(report.argmax), report.states_scanned) == (gmax, argmax, 2**net.n)


def test_conditioning_dp_is_exact_past_int64():
    # each weight is about 9e18 micros, so two of them overflow int64; the
    # pendant path 7-8 never meets the cutset, so its sums start unmixed
    ring = "".join(f"edge {i} {i % 6 + 1} {(-1) ** i * (9_000_000_000_000 + 1000 * i)}\n" for i in range(1, 7))
    pendant = "edge 3 7 9000000000000\nedge 7 8 9000000000000\n"
    net = parse_network("nodes 8\n" + ring + pendant + "bias 1 5\nbias 3 -7\nbias 4 0.5\n")
    assert net.magnitude_micros() >= oracle.INT64_SCAN_MAX_MICROS
    with pytest.raises(ValueError, match="int64"):
        brute_force_optima(net)
    report = cutset_exact_optimize(net, plan_from_members(net, {1}))
    assert (report.gmax, report.argmax, report.conditionings) == cutset_optimize_reference(net, {1})
    assert report.gmax == net.goodness(report.argmax[0])
