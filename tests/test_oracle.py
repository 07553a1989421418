import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodnet import oracle
from goodnet.weights import SCALE
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
    zeros (every assignment ties), or multiples of 3e12 (past int64 sums),
    or whole multiples of 2**31 / 12 to 2**31 / 4 micros, whose
    sum |w| + sum |theta| falls on either side of the scan's int32 bound."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, min(6, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([None, 1, 0, 3_000_000_000_000, "int32"]))
    if scale == "int32":
        scale = draw(st.integers(oracle.INT32_SCAN_MAX_MICROS // 12 // SCALE, oracle.INT32_SCAN_MAX_MICROS // 4 // SCALE))
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


def expected_scan_dtype(net):
    return np.int32 if net.magnitude_micros() < oracle.INT32_SCAN_MAX_MICROS else np.int64


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brute_force_scan_matches_plain_enumeration(data):
    net = data.draw(sparse_nets(12))
    if net.magnitude_micros() >= oracle.INT64_SCAN_MAX_MICROS:
        with pytest.raises(ValueError, match="int64"):
            brute_force_optima(net)
        return
    assert oracle._scan_dtype(net) == expected_scan_dtype(net)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_BYTES", 1 << 5)  # 8 int32 or 4 int64 codes
        report = brute_force_optima(net)
    gmax, argmax = enumerate_optima(net)
    assert (report.gmax, list(report.argmax), report.states_scanned) == (gmax, argmax, 2**net.n)


def assert_subnet_column(net, nodes):
    """`_subnet_column` against goodness with every node off the range off,
    so that edges leaving the range add nothing."""
    column = oracle._subnet_column(net, nodes)
    assert column.dtype == expected_scan_dtype(net) and len(column) == 2 ** len(nodes)
    for code, value in enumerate(column.tolist()):
        a = [0] * net.n
        for k, v in enumerate(nodes):
            a[v - 1] = (code >> (len(nodes) - 1 - k)) & 1
        assert value == net.goodness(a).micros


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subnet_column_matches_per_code_goodness(data):
    net = data.draw(sparse_nets(10))
    if net.magnitude_micros() < oracle.INT64_SCAN_MAX_MICROS:
        start = data.draw(st.integers(1, net.n + 1))
        assert_subnet_column(net, range(start, data.draw(st.integers(start, net.n + 1))))


@pytest.mark.parametrize("nodes", [range(3, 9), range(4, 4), range(5, 6), range(1, 11)])
def test_subnet_column_on_fixed_ranges(nodes):
    assert_subnet_column(random_network("sparse", 10, m=5, seed=4), nodes)


def scaled(net, factor):
    """`net` with every weight and bias times `factor`: the same argmax."""
    return Network(net.n, [(i, j, Weight(w.micros * factor)) for i, j, w in net.edges()], {i: Weight(net.bias(i).micros * factor) for i in net.nodes()})


def test_brute_force_scan_at_full_chunk_size():
    # 128 KB columns: n=20 leaves 5 high nodes over 2**15 int32 codes, and
    # 6 over 2**14 int64 codes once the weights pass 2**31 micros; the
    # argmax spans three high codes either way
    net = random_network("sparse", 20, m=4, seed=9)
    big = scaled(net, oracle.INT32_SCAN_MAX_MICROS // net.magnitude_micros() + 1)
    assert oracle._CHUNK_BYTES == 1 << 17
    assert (oracle._scan_dtype(net), oracle._scan_dtype(big)) == (np.int32, np.int64)
    for each, high in ((net, 5), (big, 6)):
        report = brute_force_optima(each)
        assert len({row[:high] for row in report.argmax}) == 3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK_BYTES", 1 << 6)  # 16 int32 or 8 int64 codes
            small = brute_force_optima(each)
        assert (report.gmax, report.argmax, report.states_scanned) == (small.gmax, small.argmax, 2**20)
        assert report.gmax == cutset_exact_optimize(each, greedy_cutset(each)).gmax
        assert all(each.goodness(row) == report.gmax for row in report.argmax)
    assert brute_force_optima(big).argmax == brute_force_optima(net).argmax


def test_brute_force_scan_at_its_node_cap():
    net = random_network("sparse", oracle.BRUTE_FORCE_MAX_NODES, m=6, seed=3)
    report = brute_force_optima(net)
    assert report.states_scanned == 2**26 and report.argmax
    assert report.gmax == cutset_exact_optimize(net, greedy_cutset(net)).gmax
    assert all(net.goodness(row) == report.gmax for row in report.argmax)


def test_brute_force_scan_collects_ties_over_every_gray_step():
    # 4 high codes of one full chunk each, and every state of an all-zero
    # net is an argmax; for int64, the last node's bias of -2**31 micros
    # widens the columns, and every other state with that node off ties
    for dtype in (np.int32, np.int64):
        n = (oracle._CHUNK_BYTES // np.dtype(dtype).itemsize).bit_length() - 1 + 2
        net = Network(n) if dtype is np.int32 else Network(n, biases={n: Weight(-oracle.INT32_SCAN_MAX_MICROS)})
        free = n if dtype is np.int32 else n - 1
        assert oracle._scan_dtype(net) == dtype
        report = brute_force_optima(net)
        assert report.gmax == Weight(0) and report.states_scanned == 2**n
        assert report.argmax == tuple(row + (0,) * (n - free) for row in itertools.product((0, 1), repeat=free))


def tied_at_the_bound(magnitude):
    """6 nodes whose terms sum to `magnitude` in absolute value.  High node 1
    links to low node 4 by half of it and node 4's bias holds the rest but
    2 micros; high nodes 2 and 3 link to low nodes 5 and 6 by -1 micro, so
    the optimum, magnitude - 2, holds nodes 1 and 4 on and at most one node
    of each pair 2-5 and 3-6 (`TIED_ARGMAX`).  Over 8-code columns (3 high
    nodes) the bound of codes 100, 101, 110 and 111 is that optimum, so the
    walk visits them in Gray order from 100: it adds node 3's coupling
    column, then node 2's, then subtracts node 3's with the running column
    at magnitude - 2.  No subtraction meets a running column at `magnitude`
    itself: that needs every term positive, and then the bound of every
    high code but all-on is below the best."""
    a = magnitude // 2
    return Network(6, [(1, 4, Weight(a)), (2, 5, Weight(-1)), (3, 6, Weight(-1))], {4: Weight(magnitude - 2 - a)})


TIED_ARGMAX = sorted((1, b2, b3, 1, b5, b6) for b2, b3, b5, b6 in itertools.product((0, 1), repeat=4) if not b2 & b5 | b3 & b6)


def scan_recording_subtractions(net):
    """`brute_force_optima` over 8-code columns (3 high nodes), and the
    running column's max at each coupling subtraction, read through a
    stand-in for the numpy module `oracle` calls."""
    subtracted_at = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def subtract(self, column, coupling, out):
            subtracted_at.append(int(column.max()))
            return np.subtract(column, coupling, out=out)

    itemsize = np.dtype(oracle._scan_dtype(net)).itemsize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_BYTES", 8 * itemsize)
        mp.setattr(oracle, "np", Numpy())
        report = brute_force_optima(net)
    return report, subtracted_at


def test_brute_force_scan_subtractions_stay_exact_at_the_int64_limit():
    # sum |w| + sum |theta| is 2**62 - 1 micros, and the walk subtracts a
    # coupling column from a running column at 2**62 - 3, a sum that needs
    # all 62 bits
    magnitude = (1 << 62) - 1
    net = tied_at_the_bound(magnitude)
    assert net.magnitude_micros() == magnitude and oracle._scan_dtype(net) == np.int64
    report, subtracted_at = scan_recording_subtractions(net)
    assert magnitude - 2 in subtracted_at
    assert (report.gmax, list(report.argmax)) == enumerate_optima(net) == (Weight(magnitude - 2), TIED_ARGMAX)


@pytest.mark.parametrize("magnitude, dtype", [((1 << 31) - 1, np.int32), (1 << 31, np.int64)])
def test_brute_force_scan_subtractions_stay_exact_at_the_int32_bound(magnitude, dtype):
    # every term of `net` is positive and the terms sum to `magnitude`, so
    # the all-on state reaches it: the int32 maximum just below the bound,
    # one past it at the bound.  Each high node 1-3 links to low node 3 + j
    # by about magnitude / 3, so the bound of every other high code is
    # below it and the walk visits all-on alone; `tied_at_the_bound`, with
    # two terms of -1 micro, makes the walk subtract a coupling column
    # from a running column 2 micros below `magnitude`
    a = (magnitude - 3) // 3
    edges = [(1, 4, a), (2, 5, a), (3, 6, a), (4, 5, 1), (5, 6, 1)]
    net = Network(6, [(i, j, Weight(w)) for i, j, w in edges], {4: Weight(magnitude - 2 - 3 * a)})
    assert net.magnitude_micros() == magnitude and oracle._scan_dtype(net) == dtype
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK_BYTES", 8 * np.dtype(dtype).itemsize)  # 8 codes: 3 high nodes
        report = brute_force_optima(net)
    assert (report.gmax, list(report.argmax)) == enumerate_optima(net) == (Weight(magnitude), [(1,) * 6])
    columns = oracle._subnet_column(net, range(4, 7)), oracle._subnet_column(net, range(1, 7))
    assert all(column.dtype == dtype for column in columns) and int(columns[1][-1]) == magnitude
    tied = tied_at_the_bound(magnitude)
    assert tied.magnitude_micros() == magnitude and oracle._scan_dtype(tied) == dtype
    report, subtracted_at = scan_recording_subtractions(tied)
    assert magnitude - 2 in subtracted_at
    assert (report.gmax, list(report.argmax)) == enumerate_optima(tied) == (Weight(magnitude - 2), TIED_ARGMAX)


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


@pytest.mark.parametrize(
    "y,message",
    [
        ({1: 2}, "fixed node 1 has value 2, expected 0 or 1"),
        ({1: -1}, "fixed node 1 has value -1, expected 0 or 1"),
        ({2: 0, 99: 0}, "fixed node 99 outside 1..5"),
        ({0: 1}, "fixed node 0 outside 1..5"),
    ],
)
def test_tree_conditioned_max_rejects_bad_entries(y, message):
    with pytest.raises(ValueError) as err:
        tree_conditioned_max(fig1(), y)
    assert str(err.value) == message


def test_conditioning_dp_on_a_long_chain_with_nothing_fixed():
    # no fixed unit reaches any node, so every sum and choice stays a Python int
    rng = random.Random(3)
    n = 1500
    edges = [(v, v + 1, W(rng.randint(-2, 2))) for v in range(1, n)]
    net = Network(n, edges, {v: W(rng.randint(-2, 2)) for v in range(1, n + 1)})
    assert tree_conditioned_max(net, {}) == tree_conditioned_max_reference(net, {})
    report = cutset_exact_optimize(net, plan_from_members(net, set()))
    gmax, argmax, rows = cutset_optimize_reference(net, set())
    assert (report.gmax, report.argmax, report.conditionings) == (gmax, argmax, rows)


def fixed_everywhere_net(seed: int, scale: int = 1) -> Network:
    """Members 1-3 and a path 4..12 whose every node also links to one
    member, so each free node's sums are columns over the codes."""
    rng = random.Random(seed)
    edges = [(v, v + 1, W(rng.randint(-1, 1) * scale)) for v in range(4, 12)]
    edges += [(1 + v % 3, v, W(rng.randint(-2, 2) * scale)) for v in range(4, 13)]
    edges += [(1, 2, W(rng.randint(-1, 1) * scale))]
    return Network(12, edges, {v: W(rng.randint(-1, 1) * scale) for v in range(1, 13)})


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("chunk", [1, 2, 8])
def test_conditioning_dp_with_a_fixed_neighbour_at_every_free_node(seed, chunk):
    net = fixed_everywhere_net(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CODE_CHUNK", chunk)
        report = cutset_exact_optimize(net, plan_from_members(net, {1, 2, 3}))
    assert (report.gmax, report.argmax, report.conditionings) == cutset_optimize_reference(net, {1, 2, 3})
    for bits in itertools.product((0, 1), repeat=3):
        y = dict(zip((1, 2, 3), bits))
        assert tree_conditioned_max(net, y) == tree_conditioned_max_reference(net, y)


def test_conditioning_witnesses_follow_code_order_across_chunks():
    # a zero-weight ring on 1..6 plus a free path: every code of the cutset
    # {1, 3, 5} ties, and each of them has its own witness row
    ring = [(i, i % 6 + 1, Weight(0)) for i in range(1, 7)]
    net = Network(9, ring + [(2, 7, W(1)), (7, 8, W(-1)), (8, 9, W(2))], {7: W(-1), 9: W(-1)})
    members = [1, 3, 5]
    gmax, argmax, rows = cutset_optimize_reference(net, members)
    assert all(value == gmax for _, value in rows)
    trees = oracle._forest_walk(net, frozenset(members))
    ybits = oracle._bits(np.arange(8), 3)
    total, witnesses = oracle._conditioned_chunk(net, trees, members, ybits)
    assert total.tolist() == [gmax.micros] * 8
    expected = [tree_conditioned_max_reference(net, dict(zip(members, bits)))[1] for bits in itertools.product((0, 1), repeat=3)]
    assert witnesses(gmax.micros) == expected
    assert [row[0] for row in expected] == [0, 0, 0, 0, 1, 1, 1, 1]  # code order, first member most significant
    assert witnesses(gmax.micros + 1) == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CODE_CHUNK", 3)
        report = cutset_exact_optimize(net, plan_from_members(net, members))
    assert (report.gmax, report.argmax, report.conditionings) == (gmax, argmax, rows)
    assert len(report.argmax) == 8


def test_conditioning_dp_past_int64_with_an_unreached_subtree():
    # weights of about 9e18 micros force dtype=object; nodes 13-16 form a
    # tree that no member touches, so its sums stay Python ints
    big = 9_000_000_000_000
    base = fixed_everywhere_net(4, scale=big)
    far = [(13, 14, W(big)), (14, 15, W(-big)), (14, 16, W(3 * big))]
    net = Network(16, [*base.edges(), *far], {**{v: base.bias(v) for v in base.nodes()}, 15: W(big), 16: W(-2 * big)})
    assert net.magnitude_micros() >= oracle.INT64_SCAN_MAX_MICROS
    trees = oracle._forest_walk(net, frozenset({1, 2, 3}))
    total, _ = oracle._conditioned_chunk(net, trees, [1, 2, 3], oracle._bits(np.arange(8), 3))
    assert total.dtype == object
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CODE_CHUNK", 2)
        report = cutset_exact_optimize(net, plan_from_members(net, {1, 2, 3}))
    assert (report.gmax, report.argmax, report.conditionings) == cutset_optimize_reference(net, {1, 2, 3})
    assert tree_conditioned_max(net, {1: 1, 2: 0, 3: 1}) == tree_conditioned_max_reference(net, {1: 1, 2: 0, 3: 1})
