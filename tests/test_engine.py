import copy
import random
import threading
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodnet import (
    ActivationRegister,
    CentralRandom,
    CentralRoundRobin,
    FairExclusion,
    Network,
    SynchronousAll,
    Weight,
    apply_event,
    assignment_of,
    brute_force_optima,
    chain2i,
    cutset_dominance_experiment,
    dominance_experiment,
    example51,
    fig1,
    fixture,
    greedy_cutset,
    illegal_count,
    illegal_ring,
    initial_registers,
    non_tree_nodes,
    perturb,
    random_network,
    result_line,
    run,
    trace_line,
)

from goodnet import engine
from goodnet.engine import RULES, _array_event, _Columns, _load_rows, pointer_snapshot, steps
from goodnet.oracle import tree_conditioned_max
from goodnet.rules import ZERO_REGISTER
from goodnet.schedulers import Scheduler, parse_scheduler

from helpers import (
    D,
    IndependentFairExclusion,
    M,
    NeverSkipped,
    W,
    apply_event_per_unit,
    legality_map_fixpoint,
    local_field,
    non_tree_nodes_reference,
    replay_deltas,
    steps_in_full,
)


def path3():
    return Network(3, [(1, 2, W(1)), (2, 3, W(1))])


def test_synchronous_event_reads_pre_event_snapshot():
    net = path3()
    regs = initial_registers(net, "zeros")
    apply_event(net, regs, frozenset({1, 2, 3}), "activate")
    assert regs[1].points_to == {2}
    assert regs[3].points_to == {2}
    assert regs[2].points_to == frozenset()  # read zeros, stayed clear


def test_sequential_events_direct_the_center():
    net = path3()
    regs = initial_registers(net, "zeros")
    for ids in ({1}, {3}, {2}):
        apply_event(net, regs, frozenset(ids), "activate")
    assert regs[2].points_to == frozenset()  # both neighbors point at 2: root
    assert regs[1].points_to == {2} and regs[3].points_to == {2}


def test_apply_event_writes_only_activated_units():
    net = path3()
    regs = initial_registers(net, "zeros")
    before = list(regs)
    deltas = apply_event(net, regs, frozenset({1}), "activate")
    assert {node for node, _, _ in deltas} == {1}
    assert regs[2] is before[2] and regs[3] is before[3]


def test_hopfield_singleton_goodness_never_decreases():
    for seed in range(100):
        net = random_network("sparse", 8, m=2, seed=seed)
        trace = []
        result = run(
            net, "hopfield", CentralRoundRobin(), init="random", seed=seed,
            max_passes=40, collect_trace=trace.append,
        )
        values = [ev.goodness for ev in trace]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert result.stable


def test_fig1_run_matches_walkthrough_registers():
    net = fig1()
    result = run(net, "activate", CentralRoundRobin((1, 2, 3, 5, 4)), init="zeros")
    assert result.stable
    assert result.assignment == (1, 0, 0, 0, 1)
    assert result.goodness_final == W(3)
    regs = result.registers
    assert (regs[1].g0, regs[1].g1) == (M(2), M(1))
    assert (regs[2].g0, regs[2].g1) == (0, M(2))
    assert (regs[3].g0, regs[3].g1) == (M(2), M(2))
    assert (regs[5].g0, regs[5].g1) == (M(1), 0)
    assert regs[4].points_to == frozenset()
    assert regs[3].points_to == {4} and regs[5].points_to == {4}


def test_fig1_default_order_same_optimum():
    result = run(fig1(), "activate", CentralRoundRobin(), init="zeros")
    assert result.stable and result.assignment == (1, 0, 0, 0, 1)


def test_example51_cutset_run_reaches_global_optimum():
    net = example51()
    for order in (None, (3, 2, 1, 4, 5)):
        result = run(net, "activate-with-cutset", CentralRoundRobin(order), init="zeros")
        assert result.stable
        assert result.assignment == (1, 1, 1, 1, 1)
        assert result.goodness_final == D("250.7")


def test_plain_hopfield_stalls_on_example51():
    # from zeros the threshold rule is already stuck at the empty state
    result = run(example51(), "hopfield", CentralRoundRobin(), init="zeros")
    assert result.stable
    assert result.assignment == (0, 0, 0, 0, 0)


def test_chain_sync_all_symmetry_lock():
    net = chain2i(3)
    regs = initial_registers(net, "zeros")
    for _ in islice(steps(net, regs, "activate", SynchronousAll()), 300):
        a = assignment_of(regs)
        assert a[:3] == tuple(reversed(a[3:]))  # mirror pairs stay equal


def test_run_is_deterministic():
    net = random_network("sparse", 9, m=2, seed=5)
    def go():
        trace = []
        result = run(
            net, "activate", FairExclusion(3), init="random", seed=8,
            max_passes=60, collect_trace=trace.append,
        )
        return result, trace
    (a, a_trace), (b, b_trace) = go(), go()
    assert a.assignment == b.assignment
    assert [ev.deltas for ev in a_trace] == [ev.deltas for ev in b_trace]
    assert [sorted(ev.ids) for ev in a_trace] == [sorted(ev.ids) for ev in b_trace]


def test_perturb_deterministic_and_in_envelope():
    net = fig1()
    zero = initial_registers(net, "zeros")
    a = perturb(net, zero, seed=4)
    b = perturb(net, zero, seed=4)
    assert a[1:] == b[1:]
    c = perturb(net, zero, seed=5)
    assert a[1:] != c[1:]
    envelope = sum(abs(w.micros) for _, _, w in net.edges()) + sum(
        abs(net.bias(i).micros) for i in net.nodes()
    )
    for i in net.nodes():
        assert abs(a[i].g0) <= envelope
        assert abs(a[i].g1) <= envelope
        assert a[i].points_to <= {j for j, _ in net.neighbors(i)}


def test_perturbed_tree_recovers_exact_optimum():
    net = random_network("tree", 10, seed=77)
    regs = perturb(net, initial_registers(net, "zeros"), seed=78)
    result = run(
        net, "activate", IndependentFairExclusion(79, net),
        init=regs, max_passes=200,
    )
    assert result.stable
    assert result.goodness_final == brute_force_optima(net).gmax


def test_illegal_count_cases():
    net = path3()
    toward_2 = ActivationRegister(points_to=frozenset({2}))
    assert illegal_count(net, [None, toward_2, ActivationRegister(), toward_2]) == 0
    star = Network(4, [(1, 2, W(1)), (1, 3, W(1)), (1, 4, W(1))])
    assert illegal_count(star, initial_registers(star, "zeros")) == 4
    result = run(net, "activate", CentralRoundRobin(), init="zeros")
    assert illegal_count(net, result.registers) == 0


def test_stuck_ring_keeps_pointers_and_stays_illegal():
    net, pointers = illegal_ring(6)
    start = [None] + [ActivationRegister(points_to=pointers[i]) for i in net.nodes()]
    result = run(net, "activate", CentralRoundRobin(), init=start, max_passes=50)
    for i in net.nodes():
        assert result.registers[i].points_to == pointers[i]
    assert illegal_count(net, result.registers) == net.n


def test_trace_replay_reconstructs_final_registers():
    net = example51()
    initial = initial_registers(net, "zeros", cutset=net.cutset)
    trace = []
    result = run(net, "activate-with-cutset", CentralRoundRobin(), init="zeros",
                 collect_trace=trace.append)
    rebuilt = replay_deltas(initial, trace)
    assert rebuilt[1:] == result.registers[1:]


def test_trace_and_result_lines_format():
    trace = []
    result = run(fig1(), "activate", CentralRoundRobin(), init="zeros",
                 collect_trace=trace.append)
    assert result_line(result) == (
        f"RESULT stable=1 passes={result.passes_used} goodness=3 assignment=10001"
    )
    line = trace_line(trace[0])
    parts = line.split("\t")
    assert len(parts) == 6
    assert parts[0] == "0" and parts[1] == "1" and parts[2] == "1"
    assert parts[3:] == ["2", "4", "1:x=1,1:g0=2,1:g1=1,1:p=3"]  # goodness, illegal count, deltas


def test_trace_events_are_immutable_and_print_as_before():
    trace = []
    run(fig1(), "activate", CentralRoundRobin(), collect_trace=trace.append)
    ev = trace[0]
    with pytest.raises(AttributeError):
        ev.illegal = 0
    assert type(ev.goodness) is Weight
    assert repr(ev) == (
        "TraceEvent(step=0, pass_idx=1, ids=frozenset({1}), goodness=Weight(2), illegal=4, "
        "deltas=((1, 'x', 1), (1, 'g0', 2000000), (1, 'g1', 1000000), (1, 'points_to', frozenset({3}))))"
    )


def test_a_boltzmann_run_goes_through_a_quiet_window_to_its_budget():
    # at T=1 every unit flips with positive probability on any state, so a
    # quiet window is chance: this run has one in pass 17 and runs on to 50
    trace = []
    result = run(fixture("ring6"), "boltzmann", CentralRoundRobin(), temperature=W(1), seed=7, max_passes=50, collect_trace=trace.append)
    assert naive_stop(trace, 6, 12) == (100, 100)  # where the quiet-window stop would end it
    assert naive_stop(trace, 6, 12, "boltzmann") == (None, 100)
    assert not result.stable and result.events == 300 and result.passes_used == 50


def test_budget_exhaustion_is_not_an_error():
    result = run(fig1(), "boltzmann", CentralRoundRobin(), init="zeros",
                 temperature=W(1), max_passes=3, seed=1)
    assert not result.stable
    assert result.passes_used == 3


def test_boltzmann_requires_a_seed():
    with pytest.raises(ValueError, match="seed"):
        run(fig1(), "boltzmann", CentralRoundRobin(), temperature=W(1))
    seeded = run(fig1(), "boltzmann", CentralRoundRobin(), temperature=W(1), max_passes=1, seed=0)
    assert seeded.events == 5


def test_boltzmann_requires_temperature():
    with pytest.raises(ValueError):
        run(fig1(), "boltzmann", CentralRoundRobin())
    with pytest.raises(ValueError):
        run(fig1(), "unknown-rule", CentralRoundRobin())
    # and only boltzmann takes one
    for rule in ("hopfield", "activate", "activate-with-cutset"):
        with pytest.raises(ValueError, match=f"temperature is only meaningful with the boltzmann rule, not '{rule}'"):
            run(example51(), rule, CentralRoundRobin(), temperature=W(3))


def test_dominance_on_trees_is_always_comparable_and_optimal():
    for seed in range(15):
        net = random_network("tree", 9, seed=seed + 900)
        pair = dominance_experiment(net, seed, CentralRoundRobin)
        assert pair.comparable
        assert pair.reference_nodes == frozenset()
        assert pair.g_better == brute_force_optima(net).gmax
        assert pair.g_better >= pair.g_base


def test_cutset_dominance_example51():
    pair = cutset_dominance_experiment(example51(), frozenset({1}), 3, CentralRoundRobin)
    assert pair.comparable
    assert pair.g_better >= pair.g_base
    assert pair.g_better == D("250.7")


def test_non_tree_nodes_on_ring_with_pendant():
    net = Network(4, [(1, 2, W(1)), (2, 3, W(1)), (1, 3, W(1)), (3, 4, W(1))])
    result = run(net, "activate", CentralRoundRobin(), init="zeros")
    assert result.stable
    assert non_tree_nodes(net, result.registers) == {1, 2, 3}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_non_tree_nodes_match_non_pointing_count_reference(data):
    kind = data.draw(st.sampled_from(["sparse", "ring", "tree"]))
    n = data.draw(st.integers(3 if kind == "ring" else 1, 10))
    m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2))) if kind == "sparse" else 0
    if kind == "ring":  # pointers and legality never read a weight
        net = illegal_ring(n)[0]
    else:
        net = random_network(kind, n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    seed = data.draw(st.integers(0, 2**16))
    # perturbed registers, optionally run for a while under some scheduler,
    # then a few pointer sets re-aimed anywhere (non-neighbors included)
    regs = perturb(net, initial_registers(net, "zeros"), seed)
    if data.draw(st.booleans()):
        scheduler = SCHEDULERS[data.draw(st.sampled_from(sorted(SCHEDULERS)))](seed)
        max_passes = data.draw(st.integers(1, 20))
        regs = run(net, "activate", scheduler, init=regs, max_passes=max_passes).registers
    for i in net.nodes():
        if data.draw(st.integers(0, 3)) == 0:
            regs[i] = regs[i]._replace(points_to=data.draw(st.frozensets(st.integers(1, n), max_size=3)))
    assert non_tree_nodes(net, regs) == non_tree_nodes_reference(net, regs)


def test_run_rejects_a_cutset_for_other_rules():
    with pytest.raises(ValueError, match="activate-with-cutset"):
        run(example51(), "activate", CentralRoundRobin(), cutset={1})
    with pytest.raises(ValueError, match="activate-with-cutset"):
        run(example51(), "hopfield", CentralRoundRobin(), cutset=frozenset({1, 3}))
    # an empty cutset is no cutset: the plain rule runs as without one
    assert run(example51(), "activate", CentralRoundRobin(), cutset=frozenset()) == run(
        example51(), "activate", CentralRoundRobin()
    )


def test_perturb_needs_a_seed():
    regs = initial_registers(fig1(), "zeros")
    with pytest.raises(ValueError, match="perturb needs a seed"):
        perturb(fig1(), regs, None)
    assert perturb(fig1(), regs, 0) == perturb(fig1(), regs, 0)


def test_random_init_needs_a_seed():
    with pytest.raises(ValueError, match="needs a seed"):
        initial_registers(fig1(), "random")
    with pytest.raises(ValueError, match="needs a seed"):
        run(fig1(), "activate", CentralRoundRobin(), init="random")
    assert run(fig1(), "activate", CentralRoundRobin(), init="random", seed=0).stable
    with pytest.raises(ValueError, match="unknown init mode 'ones'"):
        initial_registers(fig1(), "ones")


@pytest.mark.parametrize("length", [3, 7])
def test_preset_register_list_of_wrong_length_is_rejected(length):
    net = fig1()
    start = [None] + [ActivationRegister()] * (length - 1)
    with pytest.raises(ValueError, match="n \\+ 1 = 6 entries"):
        initial_registers(net, start)
    with pytest.raises(ValueError, match="n \\+ 1 = 6 entries"):
        run(net, "activate", CentralRoundRobin(), init=start)


@pytest.mark.parametrize(
    "pointers, message",
    [
        ({1: {99}, 2: {1, 2}}, "start pointer 1 -> 99 does not aim at a neighbor of node 1"),
        ({2: {2}}, "start pointer 2 -> 2 does not aim at a neighbor of node 2"),
        ({1: {"a"}}, "start pointer 1 -> 'a' does not aim at a neighbor of node 1"),
    ],
    ids=["missing-node", "self", "str"],
)
def test_preset_pointer_mapping_aimed_off_the_neighbors_is_rejected(pointers, message):
    start = initial_registers(fig1(), "zeros")
    for i, aims in pointers.items():
        start[i] = start[i]._replace(points_to=frozenset(aims))
    with pytest.raises(ValueError, match=message):
        run(fig1(), "activate", CentralRoundRobin(), init=start)


def test_preset_register_list_aimed_off_the_neighbors_is_rejected():
    regs = initial_registers(fig1(), "zeros")
    regs[4] = regs[4]._replace(points_to=frozenset({1}))  # 4's neighbors are 3 and 5
    with pytest.raises(ValueError, match="start pointer 4 -> 1 does not aim at a neighbor of node 4"):
        run(fig1(), "activate", CentralRoundRobin(), init=regs)


def test_preset_register_list_needs_a_register_at_every_node():
    start = [None] * 6
    with pytest.raises(ValueError, match="start register 1 is NoneType, not an ActivationRegister"):
        initial_registers(fig1(), start)
    start = [None] + [ActivationRegister()] * 4 + [{"x": 1}]
    with pytest.raises(ValueError, match="start register 5 is dict"):
        run(fig1(), "activate", CentralRoundRobin(), init=start)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("x", 2, "x=2, not the int 0 or 1"),
        ("x", True, "x=True, not the int 0 or 1"),
        ("x", 1.0, "x=1.0, not the int 0 or 1"),
        ("g0", 0.5, "g0=0.5, not an int"),
        ("g0", False, "g0=False, not an int"),
        ("g1", 2.0, "g1=2.0, not an int"),
        ("g1", True, "g1=True, not an int"),
        ("cutset_g1", ((4, 0), (1, 0.5)), "cutset_g1=0.5, not an int"),
        ("cutset_g1", ((4, True), (1, 0)), "cutset_g1=True, not an int"),
        ("points_to", [4], r"points_to=\[4\], not a frozenset"),
        ("points_to", {4}, r"points_to=\{4\}, not a frozenset"),
        ("cutset_g1", [(4, 0), (1, 0)], r"cutset_g1=\[\(4, 0\), \(1, 0\)\], not None or a tuple of pairs"),
        ("cutset_g1", ([4, 0], (1, 0)), r"cutset_g1=\(\[4, 0\], \(1, 0\)\), not None or a tuple of pairs"),
    ],
    ids=["x-2", "x-bool", "x-float", "g0-float", "g0-bool", "g1-float", "g1-bool", "cutset_g1-float", "cutset_g1-bool",
         "points_to-list", "points_to-set", "cutset_g1-list", "cutset_g1-pair-list"],
)
def test_start_register_with_a_malformed_field_is_rejected(field, value, message):
    # an x of 2 would run and print it in the assignment, and the array
    # pass's int64 load would truncate a float g0 or g1 without a word
    net = fig1()
    start = initial_registers(net, "zeros", frozenset({5}))
    start[5] = start[5]._replace(**{field: value})
    with pytest.raises(ValueError, match=f"start register 5 has {message}"):
        initial_registers(net, start)
    with pytest.raises(ValueError, match=f"start register 5 has {message}"):
        run(net, "activate-with-cutset", CentralRandom(2), init=start, cutset=frozenset({5}), max_passes=1)


def test_cutset_run_is_conditionally_optimal_at_stability():
    # at stability the non-cutset part is the exact optimum given the
    # cutset values, and every cutset unit satisfies the threshold rule
    from goodnet import greedy_cutset, tree_conditioned_max

    rng = random.Random(60)
    checked = 0
    for _ in range(25):
        n = rng.randint(4, 12)
        net = random_network("sparse", n, m=rng.randint(0, 3), seed=rng.randrange(2**32))
        members = greedy_cutset(net).members
        result = run(net, "activate-with-cutset", CentralRoundRobin(), init="random",
                     seed=rng.randrange(2**32), cutset=members, max_passes=300)
        if not result.stable:
            continue
        checked += 1
        y = {i: result.assignment[i - 1] for i in members}
        best_given_y, _ = tree_conditioned_max(net, y)
        assert result.goodness_final == best_given_y
        for i in members:
            field = local_field(net, i, result.assignment)
            want = 1 if field >= -net.bias(i).micros else 0
            assert result.assignment[i - 1] == want
    assert checked >= 20


def test_scripted_run_example51_escapes_both_local_optima():
    trace = []
    result = run(
        example51(), "activate-with-cutset", CentralRoundRobin((3, 2, 1, 4, 5)),
        init="zeros", collect_trace=trace.append,
    )
    levels = []
    for ev in trace:
        if not levels or levels[-1] != ev.goodness:
            levels.append(ev.goodness)
    wanted = [Weight(0), D("199.8"), D("249.7"), D("250.7")]
    it = iter(levels)
    assert all(any(lv == w for lv in it) for w in wanted)
    assert result.assignment == (1, 1, 1, 1, 1)


def naive_stop(trace, n, window, rule="activate"):
    """(stop step or None, first step with a quiet window) recomputed from a trace.

    A run stops at the first step that ends a quiet window of `window`
    events and by which every unit has run since the last change, unless
    its rule is boltzmann, which never stops before its budget.
    """
    last_change = -1
    ran = set()
    window_open = None
    for ev in trace:
        if ev.deltas:
            last_change = ev.step
            ran = set()
        else:
            ran |= ev.ids
        if ev.step - last_change >= window:
            if window_open is None:
                window_open = ev.step
            if len(ran) == n and rule != "boltzmann":
                return ev.step, window_open
    return None, window_open


SCHEDULERS = {
    "central-rr": lambda seed: CentralRoundRobin(),
    "central-random": CentralRandom,
    "sync-all": lambda seed: SynchronousAll(),
    "fair-excl": FairExclusion,
}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_traced_goodness_and_stop_rule_match_naive_recomputation(data):
    n = data.draw(st.integers(1, 9))
    m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    rule = data.draw(st.sampled_from(["activate", "activate-with-cutset", "hopfield", "boltzmann"]))
    seed = data.draw(st.integers(0, 2**16))
    scheduler = SCHEDULERS[data.draw(st.sampled_from(sorted(SCHEDULERS)))](seed)
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    init = data.draw(st.sampled_from(["zeros", "random", "perturbed"]))
    if init == "perturbed":
        init = perturb(net, initial_registers(net, "zeros", cutset), seed)
    max_passes = data.draw(st.integers(1, 30))
    trace = []
    result = run(
        net, rule, scheduler, init=init, seed=seed, cutset=cutset,
        temperature=W(1) if rule == "boltzmann" else None,
        max_passes=max_passes, collect_trace=trace.append,
    )
    regs = initial_registers(net, init, cutset, seed)
    for ev in trace:
        regs = replay_deltas(regs, [ev])
        assert ev.goodness == net.goodness(assignment_of(regs))
    stop, _ = naive_stop(trace, n, 2 * n, rule)
    changes = [ev.step for ev in trace if ev.deltas]
    assert result.stable == (stop is not None)
    assert result.events == len(trace) == (stop + 1 if stop is not None else max_passes * n)
    assert result.last_change_step == (changes[-1] if changes else -1)


def test_central_random_run_stops_after_its_quiet_window_opens():
    # node coverage, not the window, ends this run: 36 quiet events pass
    # before every unit has run again on the final state
    trace = []
    result = run(fig1(), "activate", CentralRandom(4), collect_trace=trace.append)
    stop, window_open = naive_stop(trace, 5, 10)
    assert result.stable and result.events == stop + 1 == 60
    assert window_open == 23


def test_the_last_changing_unit_must_run_again_before_a_stop():
    # unit 3 makes the last change at step 2; the window is over at step
    # 10 and units 1, 2 and 4 ran quietly by step 8, but 3 runs again only
    # at step 16, where the run stops
    net = random_network("sparse", 4, m=2, seed=1)
    trace = []
    result = run(net, "activate", CentralRandom(1), init="random", seed=1, max_passes=30, collect_trace=trace.append)
    assert [ev.step for ev in trace if ev.deltas] == [2] and trace[2].ids == {3}
    assert [ev.step for ev in trace if 3 in ev.ids] == [2, 16]
    assert naive_stop(trace, 4, 8) == (16, 10)
    assert result.stable and result.events == 17
    assert run(net, "activate", CentralRandom(1), init="random", seed=1, max_passes=30) == result


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_traced_illegal_count_matches_fixpoint_reference(data):
    # Starts: zeros or random registers, perturbed registers, or a
    # pointer ring (illegal_ring) with some units let go; nets up to
    # n = 40, so the clear-up walks along legal chains get long.
    start = data.draw(st.sampled_from(["zeros", "random", "perturbed", "ring"]))
    seed = data.draw(st.integers(0, 2**16))
    n = data.draw(st.one_of(st.integers(3, 9), st.integers(30, 40)))
    if start == "ring":
        net, ring = illegal_ring(n)
        released = data.draw(st.frozensets(st.integers(1, n), max_size=3))
    else:
        m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2)))
        net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    rule = data.draw(st.sampled_from(["activate", "activate-with-cutset"]))
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    init = start if start in ("zeros", "random") else initial_registers(net, "zeros", cutset)
    if start == "ring":
        for i in ring.keys() - released:
            init[i] = init[i]._replace(points_to=ring[i])
    elif start == "perturbed":
        init = perturb(net, init, seed)
    scheduler = SCHEDULERS[data.draw(st.sampled_from(sorted(SCHEDULERS)))](seed)
    trace = []
    run(
        net, rule, scheduler, init=init, seed=seed, cutset=cutset,
        max_passes=data.draw(st.integers(1, 6)), collect_trace=trace.append,
    )
    pointers = pointer_snapshot(initial_registers(net, init, cutset, seed))
    expected = None
    for ev in trace:
        moves = [(node, value) for node, field, value in ev.deltas if field == "points_to"]
        pointers.update(moves)
        if moves or expected is None:
            expected = net.n - len(legality_map_fixpoint(net, pointers))
        assert ev.illegal == expected, ev.step


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("rule", ["hopfield", "boltzmann", "activate", "activate-with-cutset"])
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_tracing_changes_nothing_but_the_trace(rule, scheduler, data):
    # an untraced run decides its stop (and under central-rr and sync-all
    # its cycle skips) without the trace; both must give the same result
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    seed = data.draw(st.integers(0, 2**16))
    max_passes = data.draw(st.integers(1, 20))

    def go(collect_trace):
        return run(
            net, rule, SCHEDULERS[scheduler](seed), init="random", seed=seed,
            cutset=greedy_cutset(net).members if rule == "activate-with-cutset" else None,
            temperature=W(1) if rule == "boltzmann" else None,
            max_passes=max_passes, collect_trace=collect_trace,
        )
    trace = []
    traced, plain = go(trace.append), go(None)
    assert trace and traced == plain


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("rule", RULES)
def test_steps_are_the_hand_driven_events_a_traced_run_records(rule, scheduler):
    # 40 nodes: activate's sync-all events take the array pass, the others run per unit
    net = random_network("sparse", 40, m=5, seed=11)
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    temperature = W(1) if rule == "boltzmann" else None
    start = initial_registers(net, "random", cutset, seed=3)
    regs, hand = list(start), list(start)
    stepped = list(islice(steps(net, regs, rule, SCHEDULERS[scheduler](5), cutset, random.Random(3), temperature), 120))
    sched, rng = SCHEDULERS[scheduler](5), random.Random(3)
    expected = []
    for _ in range(120):
        ids = sched.next_set(net.n)
        expected.append((ids, apply_event(net, hand, ids, rule, cutset, rng, temperature)))
    assert stepped == expected and regs == hand

    trace = []
    result = run(
        net, rule, SCHEDULERS[scheduler](5), init="random", seed=3, cutset=cutset,
        temperature=temperature, max_passes=5, collect_trace=trace.append,
    )
    regs = list(start)
    stepped = list(islice(steps(net, regs, rule, SCHEDULERS[scheduler](5), cutset, random.Random(3), temperature), result.events))
    assert [(ev.ids, ev.deltas) for ev in trace] == stepped
    assert regs == result.registers


class Always(Scheduler):
    """Hands out the same unit set on every call."""

    def __init__(self, ids):
        self.ids = frozenset(ids)

    def next_set(self, n: int) -> frozenset[int]:
        return self.ids


@pytest.mark.parametrize("ids", [(-1,), (0,), (6,), (), (1, 6)])
def test_events_outside_the_units_are_refused_before_any_register_changes(ids, monkeypatch):
    net = fig1()  # n = 5, so 6 is n + 1
    with pytest.raises(ValueError, match=r"1\.\.5"):
        run(net, "activate", Always(ids))
    regs = initial_registers(net, "random", seed=1)
    start = list(regs)
    with pytest.raises(ValueError, match=r"1\.\.5"):
        next(steps(net, regs, "activate", Always(ids)))
    assert all(new is old for new, old in zip(regs, start, strict=True))
    outside = [i for i in ids if not 1 <= i <= 5]
    if not outside:
        return
    # apply_event itself: a singleton, the per-unit path, and on 48 nodes
    # an all-units event that reaches the array pass, with n + 1 for 6
    for event in (frozenset(ids), frozenset(ids) | {1, 2}):
        for rule in RULES:
            with pytest.raises(ValueError, match=rf"node {outside[0]}, outside the units 1\.\.5"):
                apply_event(net, regs, event, rule, temperature=W(1) if rule == "boltzmann" else None, rng=random.Random(1))
            assert all(new is old for new, old in zip(regs, start, strict=True))
    big = random_network("sparse", 48, m=6, seed=5)
    regs = initial_registers(big, "random", seed=2)
    start = list(regs)
    bad = [49 if i == 6 else i for i in outside]
    event = frozenset(big.nodes()) | set(bad)
    raised = []
    real = engine._array_event

    def array_event(*args):
        try:
            return real(*args)
        except ValueError:
            raised.append(args[2])
            raise

    monkeypatch.setattr(engine, "_array_event", array_event)
    with pytest.raises(ValueError, match=rf"node {bad[0]}, outside the units 1\.\.48"):
        apply_event(big, regs, event, "activate")
    assert raised == [event]
    assert all(new is old for new, old in zip(regs, start, strict=True))


def test_cutset_rule_settles_under_central_round_robin():
    # the cutset rule promises the trees' best given the cutset bits it ends
    # on (COND[y]: 10 for y=0, 7 for y=1), not the global optimum.  Before a
    # cutset unit published its goodness for the bit it sets, central-rr
    # cycled here every 16 events with goodness 7, 10 and 6
    net = random_network("sparse", 8, m=1, seed=155376646)
    result = run(
        net, "activate-with-cutset", CentralRoundRobin(), init="random", seed=3,
        cutset=frozenset({1}), max_passes=400,
    )
    assert result.stable
    assert result.goodness_final == tree_conditioned_max(net, {1: result.assignment[0]})[0] == W(7)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the residual case; the cutset rule still cycles under central-rr on this net")
def test_cutset_rule_settles_on_a_ring_that_hangs_one_tree_off_the_cutset_unit_twice():
    # unit 1's ring 1-2-9-10-5-4-1 hangs the tree 2-9-10-5-4 off it at both
    # ends; COND ties at 15 for y=0 and y=1, and the run repeats every 20
    # events, with unit 1 flipping each half-period on tree bits that have
    # not reached COND[y] (goodness 11 and 10)
    net = random_network("sparse", 10, m=1, seed=2681976643)
    result = run(
        net, "activate-with-cutset", CentralRoundRobin(), init="random", seed=0,
        cutset=frozenset({1}), max_passes=400,
    )
    assert result.stable


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 20),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["central-rr", "central-random", "fair-excl"]),
    st.integers(0, 2**16),
)
def test_a_stable_cutset_run_sits_at_cond_of_its_cutset_bits(n, m, net_seed, sched, seed):
    # what activate-with-cutset promises (ROADMAP item 14's first claim):
    # a stable run's trees are optimal given its final cutset bits y, and
    # each cutset bit is its threshold rule's answer on its final
    # neighbours, so no one cutset-bit flip with the trees held fixed gains
    net = random_network("sparse", n, m=m, seed=net_seed)
    members = greedy_cutset(net).members
    result = run(
        net, "activate-with-cutset", parse_scheduler(sched, seed=seed), init="random", seed=seed,
        cutset=members, max_passes=200,
    )
    if not result.stable:
        return
    x = result.assignment
    assert result.goodness_final == tree_conditioned_max(net, {i: x[i - 1] for i in members})[0]
    adjacency = net.micros_adjacency()
    for i in members:
        bias, nbs = adjacency[i]
        field = bias + sum(w for j, w in nbs if x[j - 1])
        assert x[i - 1] == (field >= 0)
        flipped = list(x)
        flipped[i - 1] = 1 - x[i - 1]
        assert net.goodness(flipped) <= result.goodness_final


TREE_RULES = ["hopfield", "activate", "activate-with-cutset"]


def takes_array_pass(rule, cutset):
    """Whether `apply_event` hands an array-sized event to `_array_event`."""
    return rule == "activate" and not cutset


def assert_same_event(net, regs, ids, rule, cutset, cols):
    """`apply_event`, the per-unit loop and, for an activate event without
    a cutset, the array pass on the columns `cols` wherever it loads the
    registers give equal deltas and registers from copies of `regs`;
    returns `apply_event`'s registers."""
    fast, slow, array = list(regs), list(regs), list(regs)
    deltas = apply_event(net, fast, frozenset(ids), rule, cutset)
    assert deltas == apply_event_per_unit(net, slow, ids, rule, cutset)
    assert fast == slow
    if takes_array_pass(rule, cutset) and (array_deltas := _array_event(net, array, frozenset(ids), cols)) is not None:
        assert array_deltas == deltas and array == slow
        changed = {i for i, _, _ in array_deltas}
        for i in net.nodes():
            if i not in changed:
                assert array[i] is regs[i]
                continue
            # register equality cannot tell np.int64(3) from 3, so check the types
            x, g0, g1, points_to, cutset_g1 = array[i]
            assert type(x) is type(g0) is type(g1) is int and cutset_g1 is None
            assert type(points_to) is frozenset and all(type(j) is int for j in points_to)
        for _, field, value in array_deltas:
            if field in ("x", "g0", "g1"):
                assert type(value) is int  # not a numpy scalar
            elif field == "points_to":
                assert len(value) <= 1  # tree_direct_step moves a unit to at most one parent
    return fast


@st.composite
def odd_registers(draw, net):
    """Registers `initial_registers` would refuse: pointers at any id in
    0..n+2, and, on half the lists, goodness pairs per neighbor on any
    unit, with repeated, missing and unknown readers."""
    ids = st.integers(0, net.n + 2)
    values = st.integers(-(10**9), 10**9)
    paired = draw(st.booleans())  # a list without pairs reaches the array pass's pointer check
    regs = [None]
    for _ in net.nodes():
        pairs = draw(st.none() | st.lists(st.tuples(ids, values), max_size=4).map(tuple)) if paired else None
        regs.append(ActivationRegister(
            x=draw(st.integers(0, 1)), g0=draw(values), g1=draw(values),
            points_to=draw(st.frozensets(ids, max_size=3)), cutset_g1=pairs,
        ))
    return regs


def draw_event_case(data, rules):
    """(net, rule, cutset, registers, seed): a net of 1-9 nodes, isolated
    nodes and edgeless nets included, a rule from `rules`, a cutset for the
    tree rules, and registers from zeros, random, perturbed or odd starts."""
    n = data.draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    micros = st.integers(-5 * 10**6, 5 * 10**6)
    net = Network(n, [(i, j, Weight(data.draw(micros))) for i, j in chosen], {i: Weight(data.draw(micros)) for i in range(1, n + 1)})
    rule = data.draw(st.sampled_from(rules))
    cutsets = st.frozensets(st.integers(1, n), max_size=3)
    if rule == "activate":  # half the activate events go without a cutset, as the array pass needs
        cutsets = st.just(frozenset()) | cutsets
    cutset = data.draw(cutsets) if rule in ("activate", "activate-with-cutset") else frozenset()
    seed = data.draw(st.integers(0, 2**16))
    start = data.draw(st.sampled_from(["zeros", "random", "perturbed", "odd"]))
    if start == "odd":
        regs = data.draw(odd_registers(net))
    else:
        regs = initial_registers(net, "random" if start == "random" else "zeros", cutset, seed)
        if start == "perturbed":
            regs = perturb(net, regs, seed)
    return net, rule, cutset, regs, seed


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_pass_matches_per_unit_updates(data):
    # any event size, 1 included
    net, rule, cutset, regs, _ = draw_event_case(data, TREE_RULES)
    cols = _Columns()  # kept across the events, as a run keeps them
    for _ in range(data.draw(st.integers(1, 4))):
        ids = data.draw(st.frozensets(st.integers(1, net.n), min_size=1))
        regs = assert_same_event(net, regs, ids, rule, cutset, cols)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_per_unit_events_match_reference_updates(data):
    # singletons and other events below the array cutoff (n <= 9), every
    # rule; boltzmann draws from two generators seeded alike
    net, rule, cutset, regs, seed = draw_event_case(data, engine.RULES)
    temperature = data.draw(st.sampled_from([D("0.5"), W(1), W(3)])) if rule == "boltzmann" else None
    rng, rng_reference = random.Random(seed), random.Random(seed)
    units = st.integers(1, net.n)
    for _ in range(data.draw(st.integers(1, 4))):
        ids = data.draw(st.frozensets(units, min_size=1, max_size=1) | st.frozensets(units, min_size=1))
        new, reference = list(regs), list(regs)
        deltas = apply_event(net, new, ids, rule, cutset, rng, temperature)
        assert deltas == apply_event_per_unit(net, reference, ids, rule, cutset, rng_reference, temperature)
        assert new == reference
        changed = {i for i, _, _ in deltas}
        assert all(new[i] is regs[i] for i in net.nodes() if i not in changed)
        regs = new
    assert rng.getstate() == rng_reference.getstate()


@pytest.mark.parametrize("rule", TREE_RULES)
@pytest.mark.parametrize("n", [1, 4])
def test_array_pass_on_a_net_without_edges(rule, n):
    net = Network(n, [], {i: W(2 - i) for i in range(1, n + 1)})
    cutset = frozenset({1}) if rule == "activate-with-cutset" else frozenset()
    regs = perturb(net, initial_registers(net, "zeros", cutset), 5)
    assert len(net.half_edges().dst) == 0
    cols = _Columns()
    for ids in ([1], range(1, n + 1)):
        regs = assert_same_event(net, regs, ids, rule, cutset, cols)


def test_public_apply_event_repairs_registers_initial_registers_refuses(monkeypatch):
    # settled tree registers, then three units off what initial_registers allows;
    # one synchronous event over all 20 units, a cutset event, runs per unit
    net = random_network("tree", 20, seed=8)
    regs = run(net, "activate", CentralRoundRobin()).registers
    parent = {i: next(iter(regs[i].points_to)) for i in net.nodes() if regs[i].points_to}
    b = min(parent)
    p = parent[b]
    a, c = [i for i in net.nodes() if i not in (b, p)][:2]
    stray = next(j for j in net.nodes() if j != a and j not in dict(net.neighbors(a)))
    regs[a] = regs[a]._replace(points_to=regs[a].points_to | {stray})  # aims at a non-neighbor
    g1 = regs[b].g1
    regs[b] = regs[b]._replace(cutset_g1=((p, g1 + 10**9), (p, g1 + 2 * 10**9)))  # pairs outside the cutset; p reads the first
    assert regs[c].cutset_g1 is None  # c joins the cutset without pairs
    calls = []
    monkeypatch.setattr(engine, "_array_event", lambda *args: calls.append(args[2]) or _array_event(*args))
    expected = list(regs)
    ids = frozenset(net.nodes())
    deltas = apply_event(net, regs, ids, "activate-with-cutset", frozenset({c}))
    assert calls == []
    assert deltas == apply_event_per_unit(net, expected, ids, "activate-with-cutset", frozenset({c}))
    assert regs == expected
    fields = {(i, field): value for i, field, value in deltas}
    assert {i for i, _ in fields} == {a, b, p, c}
    assert fields[(a, "points_to")] == frozenset({parent[a]} if a in parent else ())
    assert [f for i, f in fields if i == b] == ["cutset_g1"] and fields[(b, "cutset_g1")] is None
    assert [j for j, _ in fields[(c, "cutset_g1")]] == [j for j, _ in net.neighbors(c)]


def assert_event_matches_reference(net, regs, ids, rule, cutset, cols=None):
    """`apply_event` on `regs`, on the columns `cols` when given, gives the
    deltas and registers of the per-unit reference on a copy."""
    reference = list(regs)
    deltas = apply_event(net, regs, frozenset(ids), rule, cutset, columns=cols)
    assert deltas == apply_event_per_unit(net, reference, ids, rule, cutset)
    assert regs == reference


def assert_columns_describe_their_list(net, cols):
    """The columns `cols` are int64 and hold the registers of the list
    they name, `cols.regs`, field for field (None names no register yet);
    none of those registers has per-neighbor pairs."""
    regs, he = cols.regs, net.half_edges()
    assert all(c.dtype == np.int64 for c in (cols.x, cols.g))
    for i in net.nodes():
        if regs[i] is not None:
            assert (cols.x[i], cols.g[0, i], cols.g[1, i], regs[i].cutset_g1) == (regs[i].x, regs[i].g0, regs[i].g1, None)
    for e, (i, j) in enumerate(zip(he.src.tolist(), he.dst.tolist())):
        if regs[i] is not None:
            assert cols.pointer[e] == (j in regs[i].points_to)


def array_events_run(monkeypatch) -> list:
    """Patch engine._array_event to log, per call, whether the array pass
    ran the event (True) or returned None for the per-unit path (False)."""
    ran: list = []
    real = engine._array_event
    monkeypatch.setattr(engine, "_array_event", lambda *args: ran.append((deltas := real(*args)) is not None) or deltas)
    return ran


@pytest.mark.parametrize("rule", TREE_RULES)
def test_array_pass_sums_past_int64_stay_exact(rule, monkeypatch):
    # five links into node 1.  At scale 10**12 (3e12 links) every weight
    # fits in int64 but the sums pass 2**63: 2 * magnitude alone reaches
    # the bound, so every event runs per unit before the array pass builds
    # its CSR arrays or columns.  At scale 1 only the bounded registers
    # go per unit: the array pass runs again, on columns that stayed int64,
    # as the register lists alternate and as the bounded goodness settles.
    # Hopfield and cutset events never reach the array pass
    monkeypatch.setattr(engine, "ARRAY_MIN_UNITS", 0)  # every event on these 6 nodes tries the array pass
    ran = array_events_run(monkeypatch)
    for scale in (10**12, 1):
        net = Network(6, [(1, j, W(3 * scale)) for j in range(2, 7)], {i: W(-scale) for i in range(1, 7)})
        cutset = frozenset({2}) if rule == "activate-with-cutset" else frozenset()
        assert (2 * net.magnitude_micros() >= 2**62) == (scale > 1)
        rng = random.Random(1)
        perturbed = perturb(net, initial_registers(net, "zeros", cutset), 1)
        bounded = [None] + [
            r._replace(x=1, g0=rng.randint(-(2**62), 2**62), g1=rng.randint(-(2**62), 2**62)) for r in perturbed[1:]
        ]
        ran.clear()
        cols = _Columns()
        for regs, full_events in ((perturbed, 1), (bounded, 4), (perturbed, 1)):
            regs = list(regs)
            for ids in [[1, 2, 3]] + [range(1, 7)] * full_events:
                assert_event_matches_reference(net, regs, ids, rule, cutset, cols)
                if rule == "activate" and scale == 1:
                    assert_columns_describe_their_list(net, cols)
        if rule != "activate":
            assert ran == [] and cols.regs is None
        elif scale > 1:
            assert ran == [False] * 9 and net._half_edges is None and cols.regs is None
        else:
            assert net.half_edges().w.dtype == np.int64
            assert ran[:3] == [True, True, False] and ran[-2:] == [True, True]
            assert any(ran[3:7])


def test_weights_past_int64_run_per_unit_without_arrays(monkeypatch):
    # one weight of 2**63 micros does not fit int64, so the CSR arrays
    # could not hold it: every sync-all event on these 40 units is large
    # enough for the array pass, which hands it to the rule steps before
    # it builds any array
    n = 40
    rng = random.Random(2)
    edges = [(i, i + 1, W(rng.randint(-3, 3))) for i in range(1, n)] + [(1, n, Weight(1 << 63)), (5, 9, W(-2))]
    net = Network(n, edges, {i: W(rng.randint(-2, 2)) for i in range(1, n + 1)})
    ran = array_events_run(monkeypatch)
    regs = initial_registers(net, "random", seed=4)
    reference = list(regs)
    ids = frozenset(net.nodes())
    cols = _Columns()
    for _ in range(12):
        deltas = apply_event(net, regs, ids, "activate", columns=cols)
        assert deltas == apply_event_per_unit(net, reference, ids, "activate", frozenset())
        assert regs == reference
    assert ran == [False] * 12
    assert net._half_edges is None and cols.regs is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_events_over_two_register_lists_match_reference(data):
    # one set of columns keeps the register list its last array event
    # read: array events on two lists, per-unit events, outside replaces
    # and new cutsets in between must never leave an event reading stale
    # ones.  Events the array pass refuses (hopfield or cutset events, or
    # registers it does not load) run through `apply_event`
    net, rule, cutset, regs, seed = draw_event_case(data, TREE_RULES)
    lists = [regs, perturb(net, regs, seed)]
    references = [list(r) for r in lists]
    units = st.integers(1, net.n)
    cols = _Columns()
    for _ in range(data.draw(st.integers(2, 8))):
        k = data.draw(st.integers(0, 1))
        regs, reference = lists[k], references[k]
        ids = data.draw(st.frozensets(units, min_size=1))
        deltas = _array_event(net, regs, ids, cols) if takes_array_pass(rule, cutset) else None
        if deltas is None:
            deltas = apply_event(net, regs, ids, rule, cutset, columns=cols)
        assert deltas == apply_event_per_unit(net, reference, ids, rule, cutset)
        assert regs == reference
        k = data.draw(st.integers(0, 1))
        regs, reference = lists[k], references[k]
        between = data.draw(st.sampled_from(["nothing", "per-unit", "replace", "cutset"]))
        if between == "per-unit":
            ids = data.draw(st.frozensets(units, min_size=1))
            deltas = apply_event(net, regs, ids, rule, cutset, columns=cols)
            assert deltas == apply_event_per_unit(net, reference, ids, rule, cutset)
        elif between == "replace":
            i = data.draw(units)
            regs[i] = reference[i] = regs[i]._replace(x=1 - regs[i].x, g1=data.draw(st.integers(-(10**9), 10**9)))
        elif between == "cutset" and rule != "hopfield":
            cutset = data.draw(st.frozensets(units, max_size=3))
        assert regs == reference


@pytest.mark.parametrize("rule", TREE_RULES)
def test_sync_runs_sharing_a_net_match_runs_on_copies(rule, monkeypatch):
    # under activate every event of these runs takes the array pass, each
    # run on columns of its own that the net does not keep; hopfield and
    # cutset runs go per unit and fill none
    net = random_network("sparse", 40, m=6, seed=12)
    cutset = frozenset({1, 5, 9}) if rule == "activate-with-cutset" else None
    made = []
    monkeypatch.setattr(engine, "_Columns", lambda: made.append(cols := _Columns()) or cols)
    for seed in (1, 2, 3, 4):
        traces = [[], []]
        made.clear()
        results = [
            run(on, rule, SynchronousAll(), init="random", seed=seed, cutset=cutset, max_passes=2, collect_trace=trace.append)
            for on, trace in zip((net, copy.deepcopy(net)), traces)
        ]
        assert len(made) == 2 and all((cols.regs is not None) == (rule == "activate") for cols in made)
        assert results[0] == results[1] and traces[0] == traces[1]


def pause_first_load_off_the_main_thread(monkeypatch):
    """Patch engine._load_rows so that the first load outside the main
    thread, once it returns, sets `loaded` and waits for `resume`: that
    thread stops inside its array event, its columns loaded and not yet
    used.  Returns the two events."""
    loaded, resume = threading.Event(), threading.Event()
    real = engine._load_rows

    def load_rows(*args):
        done = real(*args)
        if threading.current_thread() is not threading.main_thread() and not loaded.is_set():
            loaded.set()
            assert resume.wait(30)
        return done

    monkeypatch.setattr(engine, "_load_rows", load_rows)
    return loaded, resume


def run_in_a_thread(fn) -> tuple[threading.Thread, dict]:
    """Start `fn` in a thread; the dict gets its "result" or its "error"."""
    out: dict = {}

    def target():
        try:
            out["result"] = fn()
        except Exception as exc:  # handed to the main thread
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    return thread, out


def join(thread: threading.Thread, out: dict):
    thread.join(30)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["result"]


def test_an_array_event_keeps_its_columns_while_another_thread_runs_one_on_the_same_net(monkeypatch):
    # thread A stops inside its array event right after its load; the main
    # thread runs a whole array event on another register list of the same
    # net.  A's event must still give the per-unit deltas and registers
    net = random_network("sparse", 60, m=6, seed=4)
    ids = frozenset(net.nodes())
    regs, other = initial_registers(net, "random", seed=1), initial_registers(net, "random", seed=2)
    reference, other_reference = list(regs), list(other)
    loaded, resume = pause_first_load_off_the_main_thread(monkeypatch)
    thread, out = run_in_a_thread(lambda: apply_event(net, regs, ids, "activate"))
    try:
        assert loaded.wait(30)
        assert apply_event(net, other, ids, "activate") == apply_event_per_unit(net, other_reference, ids, "activate")
    finally:
        resume.set()
    assert join(thread, out) == apply_event_per_unit(net, reference, ids, "activate")
    assert regs == reference and other == other_reference


def test_sync_runs_in_two_threads_on_one_net_match_runs_alone(monkeypatch):
    # the same pause in a whole run: thread A stops in its first array
    # event while the main thread runs another sync-all run on the net
    net = random_network("sparse", 60, m=6, seed=4)
    alone = [run(copy.deepcopy(net), "activate", SynchronousAll(), init="random", seed=seed, max_passes=3) for seed in (1, 2)]
    loaded, resume = pause_first_load_off_the_main_thread(monkeypatch)
    thread, out = run_in_a_thread(lambda: run(net, "activate", SynchronousAll(), init="random", seed=1, max_passes=3))
    try:
        assert loaded.wait(30)
        assert run(net, "activate", SynchronousAll(), init="random", seed=2, max_passes=3) == alone[1]
    finally:
        resume.set()
    assert join(thread, out) == alone[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columns_change_no_result(data):
    # the same events on kept columns, on fresh columns per event, on the
    # columns apply_event builds itself and by the per-unit reference
    n = data.draw(st.integers(17, 60))
    net = random_network("sparse", n, m=data.draw(st.integers(0, 6)), seed=data.draw(st.integers(0, 2**32 - 1)))
    seed = data.draw(st.integers(0, 2**16))
    start = initial_registers(net, "random", seed=seed)
    if data.draw(st.booleans()):
        start = perturb(net, start, seed)
    kept, fresh, built, reference = (list(start) for _ in range(4))
    cols = _Columns()
    units = st.integers(1, n)
    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            ids = frozenset(net.nodes()) - data.draw(st.frozensets(units, max_size=n - engine.ARRAY_MIN_UNITS - n // 12))
        else:
            ids = data.draw(st.frozensets(units, min_size=1, max_size=n))
        deltas = apply_event(net, kept, ids, "activate", columns=cols)
        assert deltas == apply_event(net, fresh, ids, "activate", columns=_Columns())
        assert deltas == apply_event(net, built, ids, "activate")
        assert deltas == apply_event_per_unit(net, reference, ids, "activate")
        assert kept == fresh == built == reference


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interleaved_runs_on_one_net_match_runs_stepped_alone(data):
    # two or three runs' steps on one net, advanced in a drawn order in
    # one thread: each run's registers are those of the same run stepped
    # alone for as many events, and those of its events run per unit
    n = data.draw(st.integers(17, 60))
    net = random_network("sparse", n, m=data.draw(st.integers(0, 6)), seed=data.draw(st.integers(0, 2**32 - 1)))
    make = SCHEDULERS[data.draw(st.sampled_from(["sync-all", "fair-excl"]))]
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=2, max_size=3))
    lists = [initial_registers(net, "random", seed=seed) for seed in seeds]
    runs = [steps(net, regs, "activate", make(seed)) for regs, seed in zip(lists, seeds)]
    counts = [0] * len(seeds)
    for k in data.draw(st.lists(st.integers(0, len(seeds) - 1), min_size=6, max_size=30)):
        next(runs[k])
        counts[k] += 1
    for regs, seed, count in zip(lists, seeds, counts):
        alone = initial_registers(net, "random", seed=seed)
        reference = list(alone)
        for ids, _ in islice(steps(copy.deepcopy(net), alone, "activate", make(seed)), count):
            apply_event_per_unit(net, reference, ids, "activate")
        assert regs == alone == reference


@pytest.mark.parametrize("rule", TREE_RULES)
def test_array_event_reads_again_only_the_registers_that_differ(rule, monkeypatch):
    # the first array event on a net reads every register; per-unit events
    # then change k of them, and the next array event reads those k only.
    # Hopfield and cutset events read none
    net = random_network("sparse", 40, m=6, seed=7)
    cutset = frozenset({4}) if rule == "activate-with-cutset" else frozenset()
    regs = initial_registers(net, "random", cutset, 2)
    reference = list(regs)
    loads = []
    monkeypatch.setattr(engine, "_load_rows", lambda net, cols, regs, rows: loads.append(list(rows)) or _load_rows(net, cols, regs, rows))
    sync = frozenset(net.nodes())
    cols = _Columns()
    deltas = apply_event(net, regs, sync, rule, cutset, columns=cols)
    assert deltas == apply_event_per_unit(net, reference, sync, rule, cutset)
    assert loads == ([list(net.nodes())] if rule == "activate" else [])
    changed = set()
    for i in (3, 8, 8, 21, 30, 31, 35, 37):
        deltas = apply_event(net, regs, frozenset({i}), rule, cutset, columns=cols)
        assert deltas == apply_event_per_unit(net, reference, {i}, rule, cutset)
        changed |= {j for j, _, _ in deltas}
    assert regs == reference and changed
    loads.clear()
    deltas = apply_event(net, regs, sync, rule, cutset, columns=cols)
    assert deltas == apply_event_per_unit(net, reference, sync, rule, cutset)
    assert regs == reference
    assert loads == ([sorted(changed)] if rule == "activate" else [])


@pytest.mark.parametrize("rule", TREE_RULES)
def test_a_register_past_int64_runs_its_event_per_unit(rule, monkeypatch):
    # registers past int64 do not load into the int64 columns: the array
    # pass writes none of them and hands the event to the per-unit path,
    # and the next list that fits takes the array pass again.  Hopfield and
    # cutset events never reach it
    net = random_network("sparse", 20, m=3, seed=4)
    cutset = frozenset({2}) if rule == "activate-with-cutset" else frozenset()
    ran = array_events_run(monkeypatch)
    fits = initial_registers(net, "random", cutset, 3)
    past = list(fits)
    j = net.micros_adjacency()[6][1][0][0]
    past[5] = past[5]._replace(x=1 - past[5].x, points_to=frozenset(), g0=2**70, g1=-(2**70))
    cols = _Columns()
    for regs in (fits, past, fits, past, fits):
        kept = None if cols.regs is None else list(cols.regs)
        assert_event_matches_reference(net, list(regs), net.nodes(), rule, cutset, cols)
        if rule == "activate":
            if regs is past:  # the columns still describe the list before
                assert all(a is b for a, b in zip(cols.regs, kept))
            assert_columns_describe_their_list(net, cols)
    assert ran == ([True, False, True, False, True] if rule == "activate" else [])


@pytest.mark.parametrize("case", ["hopfield", "activate-with-cutset", "cutset", "stray-pointer", "pairs", "past-int64"])
def test_only_activate_events_without_a_cutset_and_loadable_registers_take_the_array_pass(case, monkeypatch):
    # one synchronous event over 48 units, past the cutoff of 16 + 48 // 12:
    # hopfield and cutset-rule events, and activate events with a cutset,
    # never call the array pass; activate events on a register with a
    # pointer at a non-neighbor, with pairs outside the cutset or with a
    # value past int64 call it and get None.  Each runs per unit, and the
    # next activate event on registers a run produced takes the pass again
    net = random_network("sparse", 48, m=6, seed=5)
    rule = case if case in ("hopfield", "activate-with-cutset") else "activate"
    cutset = greedy_cutset(net).members if case in ("activate-with-cutset", "cutset") else frozenset()
    assert cutset or case not in ("activate-with-cutset", "cutset")
    regs = perturb(net, initial_registers(net, "zeros", cutset if rule == "activate-with-cutset" else frozenset()), 3)
    stray = next(j for j in net.nodes() if j != 7 and j not in dict(net.neighbors(7)))
    if case == "stray-pointer":
        regs[7] = regs[7]._replace(points_to=regs[7].points_to | {stray})
    elif case == "pairs":
        regs[7] = regs[7]._replace(cutset_g1=tuple((j, 5 * 10**6) for j, _ in net.neighbors(7)))
    elif case == "past-int64":
        regs[7] = regs[7]._replace(g1=2**70)
    ran = array_events_run(monkeypatch)
    ids = frozenset(net.nodes())
    assert len(ids) >= engine.ARRAY_MIN_UNITS + net.n // 12
    assert_event_matches_reference(net, regs, ids, rule, cutset)
    assert ran == ([False] if takes_array_pass(rule, cutset) else [])
    produced = run(net, "activate", CentralRoundRobin(), init="random", seed=4, max_passes=1).registers
    assert_event_matches_reference(net, produced, ids, "activate", frozenset())
    assert ran[-1] is True


def test_registers_are_immutable():
    reg = initial_registers(fig1(), "zeros")[1]
    with pytest.raises(AttributeError):
        reg.x = 1
    assert reg == ActivationRegister() and reg.x == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shared_register_objects_match_reference_over_mixed_events(data):
    # a zeros start holds the one ZERO_REGISTER at every unit outside the
    # cutset, and a start register list may hold one register at every unit.  The
    # array pass reads a row again only when its object is not the one it
    # last read, so two lists from that start, driven by singleton and
    # array-sized events in turn, must match the per-unit reference.  Under
    # activate it runs every array-sized event unless the shared register
    # has per-neighbor pairs; hopfield and cutset events never reach it
    n = data.draw(st.integers(18, 30))
    net = random_network("sparse", n, m=data.draw(st.integers(0, 4)), seed=data.draw(st.integers(0, 2**16)))
    rule = data.draw(st.sampled_from(TREE_RULES))
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    if data.draw(st.booleans()):
        start = initial_registers(net, "zeros", cutset)
        assert all(start[i] is ZERO_REGISTER for i in net.nodes() if i not in cutset)
    else:
        values = st.integers(-(10**9), 10**9)
        pairs = st.none() | st.lists(st.tuples(st.integers(0, n), values), max_size=3).map(tuple)
        shared = ActivationRegister(x=data.draw(st.integers(0, 1)), g0=data.draw(values), g1=data.draw(values), cutset_g1=data.draw(pairs))
        start = initial_registers(net, [None] + [shared] * n)
    lists, references = [list(start), list(start)], [list(start), list(start)]
    units = st.integers(1, n)
    array_sized = 0
    with pytest.MonkeyPatch.context() as mp:
        ran = array_events_run(mp)
        for _ in range(data.draw(st.integers(2, 8))):
            k = data.draw(st.integers(0, 1))
            regs, reference = lists[k], references[k]
            if data.draw(st.booleans()):
                ids = frozenset({data.draw(units)})
            else:
                ids = frozenset(net.nodes()) - data.draw(st.frozensets(units, max_size=n - engine.ARRAY_MIN_UNITS - n // 12))
                array_sized += 1
            before = list(regs)
            deltas = apply_event(net, regs, ids, rule, cutset)
            assert deltas == apply_event_per_unit(net, reference, ids, rule, cutset)
            assert regs == reference
            changed = {i for i, _, _ in deltas}
            assert all(regs[i] is before[i] for i in net.nodes() if i not in changed)
    if rule != "activate":
        assert ran == []
    elif start[1].cutset_g1 is None:
        assert ran == [True] * array_sized
    else:
        assert len(ran) == array_sized


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skipping_register_cycles_changes_no_result(data):
    # the same run under the scheduler and under NeverSkipped, which
    # replays every event: whole results equal, registers included, and
    # both schedulers go on handing out the same sets
    kind = data.draw(st.sampled_from(["sparse", "tree"]))
    n = data.draw(st.integers(2, 30))
    m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2))) if kind == "sparse" else 0
    net = random_network(kind, n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    rule = data.draw(st.sampled_from(["hopfield", "activate", "activate-with-cutset"]))
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    scheduler = data.draw(st.sampled_from(["central-rr", "central-rr:order", "sync-all"]))
    order = None
    if scheduler == "central-rr:order":  # every unit, some repeated, so the period is not n
        repeats = data.draw(st.lists(st.integers(1, n), max_size=n))
        order = tuple(data.draw(st.permutations([*range(1, n + 1), *repeats])))
    make = SynchronousAll if scheduler == "sync-all" else lambda: CentralRoundRobin(order)
    skipping, replaying = make(), make()
    start = dict(
        init=data.draw(st.sampled_from(["zeros", "random"])), seed=data.draw(st.integers(0, 2**16)),
        cutset=cutset, max_passes=data.draw(st.integers(1, 60)),
    )
    assert run(net, rule, skipping, **start) == run(net, rule, NeverSkipped(replaying), **start)
    assert [skipping.next_set(n) for _ in range(2 * n)] == [replaying.next_set(n) for _ in range(2 * n)]


def counted_events(monkeypatch, limit: int | None = None) -> list:
    """Patch engine.apply_event (which `run` looks up at call time) to log
    the unit set of each call, and to fail the test on a call past
    `limit`, so that a run which replays its whole budget fails fast."""
    calls: list = []
    real = engine.apply_event

    def apply_event(*args, **kwargs):
        calls.append(args[2])
        assert limit is None or len(calls) <= limit, f"more than {limit} events replayed"
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "apply_event", apply_event)
    return calls


def test_a_cycle_longer_than_the_quiet_window_is_skipped(monkeypatch):
    # the registers repeat every 24 events (3n), more than the 2n window;
    # the run skips at the first match of its saved copy
    net = random_network("sparse", 8, m=2, seed=3034658173)
    start = dict(init="random", seed=2351240810, cutset=frozenset({1}), max_passes=300)
    replayed = run(net, "activate-with-cutset", NeverSkipped(CentralRoundRobin()), **start)
    counted_events(monkeypatch, limit=48)
    result = run(net, "activate-with-cutset", CentralRoundRobin(), **start)
    assert result == replayed
    assert not result.stable and result.events == 2400 and result.last_change_step == 2399
    assert result.assignment == (1, 1, 0, 1, 1, 1, 0, 0)


def test_a_synchronous_run_on_a_large_sparse_net_is_skipped(monkeypatch):
    net = random_network("sparse", 220, m=22, seed=5)
    replayed = run(net, "activate", NeverSkipped(SynchronousAll()), init="random", seed=7, max_passes=1)
    counted_events(monkeypatch, limit=10)
    result = run(net, "activate", SynchronousAll(), init="random", seed=7, max_passes=1)
    assert result == replayed and result.events == 220


def test_an_oscillating_chain_runs_ten_million_passes_at_once(monkeypatch):
    # chain2i(5) locks into a period-2 oscillation under sync-all; the
    # same assignment and goodness show at 300 and 301 passes
    net = chain2i(5)
    replayed = [run(net, "activate", NeverSkipped(SynchronousAll()), max_passes=passes) for passes in (300, 301)]
    counted_events(monkeypatch, limit=10)
    result = run(net, "activate", SynchronousAll(), max_passes=10_000_000)
    assert (result.stable, result.events, result.last_change_step) == (False, 10**8, 10**8 - 1)
    assert result.assignment == (1,) * 10 and result.goodness_final == W(14)
    assert all((r.assignment, r.goodness_final) == (result.assignment, result.goodness_final) for r in replayed)


@pytest.mark.parametrize("sink", [True, False, [], "trace.tsv"], ids=["true", "false", "list", "path"])
def test_a_trace_sink_that_is_not_callable_is_refused_before_the_first_event(sink, monkeypatch):
    scheduler = CentralRoundRobin()
    monkeypatch.setattr(scheduler, "next_set", lambda n: pytest.fail("an event ran"))
    with pytest.raises(TypeError, match="^collect_trace must be a callable or None, got "):
        run(fig1(), "activate", scheduler, collect_trace=sink)


def test_a_callable_trace_sink_never_skips_a_cycle():
    # the oscillating chain would skip to its budget untraced; a sink gets
    # every event, and the result is the one the untraced run gives
    net = chain2i(5)
    events = []
    result = run(net, "activate", SynchronousAll(), max_passes=300, collect_trace=events.append)
    assert result.events == len(events) == 300 * net.n
    assert [ev.step for ev in events] == list(range(3000))
    assert run(net, "activate", SynchronousAll(), max_passes=300) == result


@pytest.mark.parametrize(
    "rule, scheduler, traced",
    [
        ("activate-with-cutset", "central-rr", True),
        ("activate", "sync-all", True),
        ("boltzmann", "central-rr", False),
        ("boltzmann", "sync-all", False),
        ("activate-with-cutset", "central-random", False),
        ("activate-with-cutset", "fair-excl", False),
    ],
)
def test_runs_that_may_not_skip_make_one_call_per_event(rule, scheduler, traced, monkeypatch):
    net = random_network("sparse", 8, m=2, seed=3034658173)
    sched = SCHEDULERS[scheduler](5)
    calls = []
    next_set = sched.next_set
    monkeypatch.setattr(sched, "next_set", lambda n: calls.append(n) or next_set(n))
    result = run(
        net, rule, sched, init="random", seed=2351240810, max_passes=40,
        cutset=frozenset({1}) if rule == "activate-with-cutset" else None,
        temperature=W(1) if rule == "boltzmann" else None, collect_trace=[].append if traced else None,
    )
    assert len(calls) == result.events


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_steps_run_only_units_that_are_not_clean_and_match_full_events(data):
    # n up to 40, so sync-all and the larger fair-excl sets of the activate
    # rule take the array pass between events that run the rule steps
    n = data.draw(st.one_of(st.integers(2, 12), st.integers(17, 40)))
    m = data.draw(st.integers(0, min(6, (n - 1) * (n - 2) // 2)))
    net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
    rule = data.draw(st.sampled_from(RULES))
    name = data.draw(st.sampled_from(sorted(SCHEDULERS)))
    seed = data.draw(st.integers(0, 2**16))
    cutset = frozenset()
    if rule == "activate-with-cutset":  # any members are allowed; more of them run the cutset steps more often
        cutset = greedy_cutset(net).members | data.draw(st.frozensets(st.integers(1, n), max_size=3))
    temperature = W(1) if rule == "boltzmann" else None
    regs = initial_registers(net, "random", cutset, seed)
    if data.draw(st.booleans()):
        regs = perturb(net, regs, seed)
    full_regs = list(regs)
    handed: list = []
    real = engine.apply_event

    def recorded(*args, **kwargs):
        handed.append(args[2])
        return real(*args, **kwargs)

    events = steps(net, regs, rule, SCHEDULERS[name](seed), cutset, random.Random(seed), temperature)
    full = steps_in_full(net, full_regs, rule, SCHEDULERS[name](seed), cutset, random.Random(seed), temperature)
    with mock.patch.object(engine, "apply_event", recorded):
        for step in range(4 * n):
            called = len(handed)
            ids, deltas = next(events)
            ran = handed[-1] if len(handed) > called else frozenset()
            assert (ids, deltas) == next(full), step
            assert ran <= ids and {i for i, _, _ in deltas} <= ran, step  # every unit left out yields no delta
            assert regs == full_regs, step

    start = dict(init=full_regs, seed=seed, cutset=cutset, temperature=temperature, max_passes=data.draw(st.integers(1, 8)))
    result = run(net, rule, SCHEDULERS[name](seed), **start)
    with mock.patch.object(engine, "steps", steps_in_full):
        assert run(net, rule, SCHEDULERS[name](seed), **start) == result


def test_a_fair_exclusion_run_activates_fewer_units_than_it_schedules(monkeypatch):
    # its larger sets take the array pass, the others skip clean units
    net = random_network("sparse", 30, m=4, seed=11)
    with mock.patch.object(engine, "steps", steps_in_full):
        replayed = run(net, "activate", FairExclusion(11), init="random", seed=11, collect_trace=[].append)
    calls = counted_events(monkeypatch)
    trace = []
    result = run(net, "activate", FairExclusion(11), init="random", seed=11, collect_trace=trace.append)
    assert result == replayed and result.stable
    assert sum(map(len, calls)) < sum(len(ev.ids) for ev in trace)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("rule", ["hopfield", "activate", "activate-with-cutset"])
def test_a_stable_stop_leaves_a_fixed_point(rule, scheduler):
    # every unit is clean at a quiet stop: one full per-unit event on all of
    # them changes nothing (a net on which all twelve runs stop quietly)
    net = random_network("sparse", 12, m=2, seed=20)
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    result = run(net, rule, SCHEDULERS[scheduler](3), init="random", seed=3, cutset=cutset)
    assert result.stable
    assert apply_event_per_unit(net, list(result.registers), frozenset(net.nodes()), rule, cutset) == ()
