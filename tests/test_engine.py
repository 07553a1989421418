import copy
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goodnet import (
    ActivationRegister,
    CentralRandom,
    CentralRoundRobin,
    FairExclusion,
    Legality,
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
from goodnet.engine import _array_event, _load_rows, pointer_snapshot

from helpers import (
    D,
    IndependentFairExclusion,
    M,
    W,
    apply_event_per_unit,
    legality_map_fixpoint,
    local_field,
    non_tree_nodes_reference,
    replay_deltas,
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
        result = run(
            net, "hopfield", CentralRoundRobin(), init="random", seed=seed,
            max_passes=40, collect_trace=True,
        )
        values = [ev.goodness for ev in result.trace]
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
    sched = SynchronousAll()
    for _ in range(300):
        apply_event(net, regs, sched.next_set(net.n), "activate")
        a = assignment_of(regs)
        assert a[:3] == tuple(reversed(a[3:]))  # mirror pairs stay equal


def test_run_is_deterministic():
    net = random_network("sparse", 9, m=2, seed=5)
    def go():
        return run(
            net, "activate", FairExclusion(3), init="random", seed=8,
            max_passes=60, collect_trace=True,
        )
    a, b = go(), go()
    assert a.assignment == b.assignment
    assert [ev.deltas for ev in a.trace] == [ev.deltas for ev in b.trace]
    assert [sorted(ev.ids) for ev in a.trace] == [sorted(ev.ids) for ev in b.trace]


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
        init="preset", preset=regs, max_passes=200,
    )
    assert result.stable
    assert result.goodness_final == brute_force_optima(net).gmax


def test_illegal_count_cases():
    net = path3()
    regs = initial_registers(net, "preset", preset={1: {2}, 3: {2}})
    assert illegal_count(net, regs) == 0
    star = Network(4, [(1, 2, W(1)), (1, 3, W(1)), (1, 4, W(1))])
    assert illegal_count(star, initial_registers(star, "zeros")) == 4
    result = run(net, "activate", CentralRoundRobin(), init="zeros")
    assert illegal_count(net, result.registers) == 0


def test_stuck_ring_keeps_pointers_and_stays_illegal():
    net, pointers = illegal_ring(6)
    result = run(net, "activate", CentralRoundRobin(), init="preset",
                 preset=pointers, max_passes=50)
    for i in net.nodes():
        assert result.registers[i].points_to == pointers[i]
    assert illegal_count(net, result.registers) == net.n


def test_trace_replay_reconstructs_final_registers():
    net = example51()
    initial = initial_registers(net, "zeros", cutset=net.cutset)
    result = run(net, "activate-with-cutset", CentralRoundRobin(), init="zeros",
                 collect_trace=True)
    rebuilt = replay_deltas(initial, result.trace)
    assert rebuilt[1:] == result.registers[1:]


def test_trace_and_result_lines_format():
    result = run(fig1(), "activate", CentralRoundRobin(), init="zeros",
                 collect_trace=True)
    assert result_line(result) == (
        f"RESULT stable=1 passes={result.passes_used} goodness=3 assignment=10001"
    )
    line = trace_line(result.trace[0])
    parts = line.split("\t")
    assert len(parts) == 6
    assert parts[0] == "0" and parts[1] == "1" and parts[2] == "1"
    assert parts[3:] == ["2", "4", "1:x=1,1:g0=2,1:g1=1,1:p=3"]  # goodness, illegal count, deltas


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
        regs = run(net, "activate", scheduler, init="preset", preset=regs, max_passes=max_passes).registers
    for i in net.nodes():
        if data.draw(st.integers(0, 3)) == 0:
            regs[i] = replace(regs[i], points_to=data.draw(st.frozensets(st.integers(1, n), max_size=3)))
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
    preset = [None] + [ActivationRegister()] * (length - 1)
    with pytest.raises(ValueError, match="n \\+ 1 = 6 entries"):
        initial_registers(net, "preset", preset=preset)
    with pytest.raises(ValueError, match="n \\+ 1 = 6 entries"):
        run(net, "activate", CentralRoundRobin(), init="preset", preset=preset)


@pytest.mark.parametrize(
    "preset, node", [({9: {1}, 0: {2}}, 9), ({0: {2}}, 0), ({"1": {3}}, "'1'")], ids=["9-and-0", "0", "str-1"]
)
def test_preset_pointers_for_unknown_nodes_are_rejected(preset, node):
    with pytest.raises(ValueError, match=f"preset references node {node} outside 1..5"):
        run(fig1(), "activate", CentralRoundRobin(), init="preset", preset=preset)


@pytest.mark.parametrize(
    "preset, message",
    [
        ({1: {99}, 2: {1, 2}}, "preset pointer 1 -> 99 does not aim at a neighbor of node 1"),
        ({2: {2}}, "preset pointer 2 -> 2 does not aim at a neighbor of node 2"),
        ({1: {"a"}}, "preset pointer 1 -> 'a' does not aim at a neighbor of node 1"),
    ],
    ids=["missing-node", "self", "str"],
)
def test_preset_pointer_mapping_aimed_off_the_neighbors_is_rejected(preset, message):
    with pytest.raises(ValueError, match=message):
        run(fig1(), "activate", CentralRoundRobin(), init="preset", preset=preset)


def test_preset_register_list_aimed_off_the_neighbors_is_rejected():
    regs = initial_registers(fig1(), "zeros")
    regs[4] = replace(regs[4], points_to=frozenset({1}))  # 4's neighbors are 3 and 5
    with pytest.raises(ValueError, match="preset pointer 4 -> 1 does not aim at a neighbor of node 4"):
        run(fig1(), "activate", CentralRoundRobin(), init="preset", preset=regs)


def test_preset_register_list_needs_a_register_at_every_node():
    with pytest.raises(ValueError, match="init='preset' requires a preset"):
        initial_registers(fig1(), "preset")
    preset = [None] * 6
    with pytest.raises(ValueError, match="preset entry 1 is NoneType, not an ActivationRegister"):
        initial_registers(fig1(), "preset", preset=preset)
    preset = [None] + [ActivationRegister()] * 4 + [{"x": 1}]
    with pytest.raises(ValueError, match="preset entry 5 is dict"):
        run(fig1(), "activate", CentralRoundRobin(), init="preset", preset=preset)


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
    result = run(
        example51(), "activate-with-cutset", CentralRoundRobin((3, 2, 1, 4, 5)),
        init="zeros", collect_trace=True,
    )
    levels = []
    for ev in result.trace:
        if not levels or levels[-1] != ev.goodness:
            levels.append(ev.goodness)
    wanted = [Weight(0), D("199.8"), D("249.7"), D("250.7")]
    it = iter(levels)
    assert all(any(lv == w for lv in it) for w in wanted)
    assert result.assignment == (1, 1, 1, 1, 1)


def naive_stop(trace, n, window):
    """(stop step or None, first step with a quiet window) recomputed from a trace.

    A run stops at the first step that ends a quiet window of `window`
    events and by which every unit has run since the last change.
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
            if len(ran) == n:
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
    init = data.draw(st.sampled_from(["zeros", "random", "preset"]))
    preset = perturb(net, initial_registers(net, "zeros", cutset), seed) if init == "preset" else None
    max_passes = data.draw(st.integers(1, 30))
    result = run(
        net, rule, scheduler, init=init, seed=seed, cutset=cutset, preset=preset,
        temperature=W(1) if rule == "boltzmann" else None,
        max_passes=max_passes, collect_trace=True,
    )
    regs = preset if preset is not None else initial_registers(net, init, cutset, seed)
    for ev in result.trace:
        regs = replay_deltas(regs, [ev])
        assert ev.goodness == net.goodness(assignment_of(regs))
    stop, _ = naive_stop(result.trace, n, 2 * n)
    changes = [ev.step for ev in result.trace if ev.deltas]
    assert result.stable == (stop is not None)
    assert result.events == len(result.trace) == (stop + 1 if stop is not None else max_passes * n)
    assert result.last_change_step == (changes[-1] if changes else -1)


def test_central_random_run_stops_after_its_quiet_window_opens():
    # node coverage, not the window, ends this run: 36 quiet events pass
    # before every unit has run again on the final state
    result = run(fig1(), "activate", CentralRandom(4), collect_trace=True)
    stop, window_open = naive_stop(result.trace, 5, 10)
    assert result.stable and result.events == stop + 1 == 60
    assert window_open == 23


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
        init, preset = "preset", {i: p for i, p in ring.items() if i not in released}
    else:
        m = data.draw(st.integers(0, min(4, (n - 1) * (n - 2) // 2)))
        net = random_network("sparse", n, m=m, seed=data.draw(st.integers(0, 2**32 - 1)))
        init, preset = ("random", None) if start == "random" else ("zeros", None)
    rule = data.draw(st.sampled_from(["activate", "activate-with-cutset"]))
    cutset = greedy_cutset(net).members if rule == "activate-with-cutset" else frozenset()
    if start == "perturbed":
        init, preset = "preset", perturb(net, initial_registers(net, "zeros", cutset), seed)
    scheduler = SCHEDULERS[data.draw(st.sampled_from(sorted(SCHEDULERS)))](seed)
    result = run(
        net, rule, scheduler, init=init, seed=seed, cutset=cutset, preset=preset,
        max_passes=data.draw(st.integers(1, 6)), collect_trace=True,
    )
    pointers = pointer_snapshot(initial_registers(net, init, cutset, seed, preset))
    expected = None
    for ev in result.trace:
        moves = [(node, value) for node, field, value in ev.deltas if field == "points_to"]
        pointers.update(moves)
        if moves or expected is None:
            lmap = legality_map_fixpoint(net, pointers)
            expected = sum(1 for c in lmap.values() if c is not Legality.LEGAL)
        assert ev.illegal == expected, ev.step


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("rule", ["hopfield", "boltzmann", "activate", "activate-with-cutset"])
def test_tracing_changes_nothing_but_the_trace(rule, scheduler):
    net = random_network("sparse", 9, m=3, seed=41)

    def go(collect_trace):
        return run(
            net, rule, SCHEDULERS[scheduler](7), init="random", seed=7,
            temperature=W(1) if rule == "boltzmann" else None,
            max_passes=40, collect_trace=collect_trace,
        )
    traced, plain = go(True), go(False)
    assert traced.trace and plain.trace is None
    assert replace(traced, trace=None) == plain


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the cutset rule cycles under central-rr on this net")
def test_cutset_rule_settles_under_central_round_robin():
    # CentralRandom(3) and FairExclusion(3) settle this start at the
    # optimum, 10, within 5 passes; central-rr repeats every 16 events
    # with goodness 7, 10 and 6
    net = random_network("sparse", 8, m=1, seed=155376646)
    result = run(
        net, "activate-with-cutset", CentralRoundRobin(), init="random", seed=3,
        cutset=frozenset({1}), max_passes=400,
    )
    assert result.stable
    assert result.goodness_final == W(10)


TREE_RULES = ["hopfield", "activate", "activate-with-cutset"]


def assert_same_event(net, regs, ids, rule, cutset):
    """The array pass and the per-unit loop give equal deltas and registers
    from copies of `regs`; returns the array pass's registers."""
    fast, slow = list(regs), list(regs)
    deltas = _array_event(net, fast, frozenset(ids), rule, cutset)
    assert deltas == apply_event_per_unit(net, slow, ids, rule, cutset)
    assert fast == slow
    for _, field, value in deltas:
        if field in ("x", "g0", "g1"):
            assert type(value) is int  # not a numpy scalar
    return fast


@st.composite
def odd_registers(draw, net):
    """Registers `initial_registers` would refuse: pointers at any id in
    0..n+2, and goodness pairs per neighbor on any unit, with repeated,
    missing and unknown readers."""
    ids = st.integers(0, net.n + 2)
    values = st.integers(-(10**9), 10**9)
    regs = [None]
    for _ in net.nodes():
        pairs = draw(st.none() | st.lists(st.tuples(ids, values), max_size=4).map(tuple))
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
    cutset = data.draw(st.frozensets(st.integers(1, n), max_size=3)) if rule in ("activate", "activate-with-cutset") else frozenset()
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
    for _ in range(data.draw(st.integers(1, 4))):
        ids = data.draw(st.frozensets(st.integers(1, net.n), min_size=1))
        regs = assert_same_event(net, regs, ids, rule, cutset)


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
    for ids in ([1], range(1, n + 1)):
        regs = assert_same_event(net, regs, ids, rule, cutset)


def test_public_apply_event_repairs_registers_initial_registers_refuses(monkeypatch):
    # settled tree registers, then three units off what initial_registers allows;
    # one synchronous event over all 20 units takes the array pass
    net = random_network("tree", 20, seed=8)
    regs = run(net, "activate", CentralRoundRobin()).registers
    parent = {i: next(iter(regs[i].points_to)) for i in net.nodes() if regs[i].points_to}
    b = min(parent)
    p = parent[b]
    a, c = [i for i in net.nodes() if i not in (b, p)][:2]
    stray = next(j for j in net.nodes() if j != a and j not in dict(net.neighbors(a)))
    regs[a] = replace(regs[a], points_to=regs[a].points_to | {stray})  # aims at a non-neighbor
    g1 = regs[b].g1
    regs[b] = replace(regs[b], cutset_g1=((p, g1 + 10**9), (p, g1 + 2 * 10**9)))  # pairs outside the cutset; p reads the first
    assert regs[c].cutset_g1 is None  # c joins the cutset without pairs
    calls = []
    monkeypatch.setattr(engine, "_array_event", lambda *args: calls.append(args[2]) or _array_event(*args))
    expected = list(regs)
    ids = frozenset(net.nodes())
    deltas = apply_event(net, regs, ids, "activate-with-cutset", frozenset({c}))
    assert calls == [ids]
    assert deltas == apply_event_per_unit(net, expected, ids, "activate-with-cutset", frozenset({c}))
    assert regs == expected
    fields = {(i, field): value for i, field, value in deltas}
    assert {i for i, _ in fields} == {a, b, p, c}
    assert fields[(a, "points_to")] == frozenset({parent[a]} if a in parent else ())
    assert [f for i, f in fields if i == b] == ["cutset_g1"] and fields[(b, "cutset_g1")] is None
    assert [j for j, _ in fields[(c, "cutset_g1")]] == [j for j, _ in net.neighbors(c)]


@pytest.mark.parametrize("rule", TREE_RULES)
def test_array_pass_sums_past_int64_stay_exact(rule):
    # five links into node 1.  At scale 10**12 (3e12 links) its sums pass
    # 2**63 though every weight and register value fits in int64, so only
    # the bound check sends the pass to Python ints.  At scale 1 only the
    # bounded registers need Python ints: the columns the net keeps go from
    # int64 to Python ints and back, as the register lists alternate and,
    # under the tree rules, as the bounded goodness settles
    for scale in (10**12, 1):
        net = Network(6, [(1, j, W(3 * scale)) for j in range(2, 7)], {i: W(-scale) for i in range(1, 7)})
        cutset = frozenset({2}) if rule == "activate-with-cutset" else frozenset()
        he = net.half_edges()
        assert he.w.dtype == np.int64 and (2 * he.magnitude >= 2**62) == (scale > 1)
        rng = random.Random(1)
        perturbed = perturb(net, initial_registers(net, "zeros", cutset), 1)
        bounded = [None] + [
            replace(r, x=1, g0=rng.randint(-(2**62), 2**62), g1=rng.randint(-(2**62), 2**62)) for r in perturbed[1:]
        ]
        dtypes = []
        for regs, full_events in ((perturbed, 1), (bounded, 4), (perturbed, 1)):
            for ids in [[1, 2, 3]] + [range(1, 7)] * full_events:
                regs = assert_same_event(net, regs, ids, rule, cutset)
                dtypes.append(net._register_columns.x.dtype)
        if scale > 1:
            assert dtypes == [object] * 9
        else:
            assert dtypes[:3] == [np.int64, np.int64, object] and dtypes[-2:] == [np.int64, np.int64]
            assert (np.int64 in dtypes[3:7]) == (rule != "hopfield")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_array_events_over_two_register_lists_match_reference(data):
    # the net keeps the columns of the register list its last array event
    # read: array events on two lists, per-unit events, outside replaces
    # and new cutsets in between must never leave an event reading stale ones
    net, rule, cutset, regs, seed = draw_event_case(data, TREE_RULES)
    lists = [regs, perturb(net, regs, seed)]
    references = [list(r) for r in lists]
    units = st.integers(1, net.n)
    for _ in range(data.draw(st.integers(2, 8))):
        k = data.draw(st.integers(0, 1))
        regs, reference = lists[k], references[k]
        ids = data.draw(st.frozensets(units, min_size=1))
        assert _array_event(net, regs, ids, rule, cutset) == apply_event_per_unit(net, reference, ids, rule, cutset)
        assert regs == reference
        k = data.draw(st.integers(0, 1))
        regs, reference = lists[k], references[k]
        between = data.draw(st.sampled_from(["nothing", "per-unit", "replace", "cutset"]))
        if between == "per-unit":
            ids = data.draw(st.frozensets(units, min_size=1))
            assert apply_event(net, regs, ids, rule, cutset) == apply_event_per_unit(net, reference, ids, rule, cutset)
        elif between == "replace":
            i = data.draw(units)
            regs[i] = reference[i] = replace(regs[i], x=1 - regs[i].x, g1=data.draw(st.integers(-(10**9), 10**9)))
        elif between == "cutset" and rule != "hopfield":
            cutset = data.draw(st.frozensets(units, max_size=3))
        assert regs == reference


@pytest.mark.parametrize("rule", TREE_RULES)
def test_sync_runs_sharing_a_net_match_runs_on_copies(rule):
    # every event of these runs takes the array pass, so each run meets
    # the columns the previous one left on the net
    net = random_network("sparse", 40, m=6, seed=12)
    cutset = frozenset({1, 5, 9}) if rule == "activate-with-cutset" else None
    for seed in (1, 2, 3, 4):
        results = [
            run(on, rule, SynchronousAll(), init="random", seed=seed, cutset=cutset, max_passes=2, collect_trace=True)
            for on in (net, copy.deepcopy(net))
        ]
        assert net._register_columns is not None
        assert results[0] == results[1]


@pytest.mark.parametrize("rule", TREE_RULES)
def test_array_events_reuse_sorted_ids_only_for_the_same_set(rule):
    # the columns keep the sorted ids of the last event's set: sync events
    # reuse them, and a different set of the same size must not
    net = random_network("sparse", 40, m=6, seed=5)
    cutset = frozenset({2, 7}) if rule != "hopfield" else frozenset()
    regs = initial_registers(net, "random", cutset, 3)
    reference = list(regs)
    sync = SynchronousAll().next_set(net.n)
    but_one, but_two = sync - {1}, sync - {2}
    for ids in (sync, sync, but_one, but_two, but_one, sync, frozenset(sync), sync):
        assert apply_event(net, regs, ids, rule, cutset) == apply_event_per_unit(net, reference, ids, rule, cutset)
        assert regs == reference
        assert net._register_columns.ids is ids


@pytest.mark.parametrize("rule", TREE_RULES)
def test_array_event_reads_again_only_the_registers_that_differ(rule, monkeypatch):
    # the first array event on a net reads every register; per-unit events
    # then change k of them, and the next array event reads those k only
    net = random_network("sparse", 40, m=6, seed=7)
    cutset = frozenset({4}) if rule == "activate-with-cutset" else frozenset()
    regs = initial_registers(net, "random", cutset, 2)
    reference = list(regs)
    loads = []
    monkeypatch.setattr(engine, "_load_rows", lambda net, cols, regs, rows: loads.append(list(rows)) or _load_rows(net, cols, regs, rows))
    sync = frozenset(net.nodes())
    assert apply_event(net, regs, sync, rule, cutset) == apply_event_per_unit(net, reference, sync, rule, cutset)
    assert loads[0] == list(net.nodes())
    changed = set()
    for i in (3, 8, 8, 21, 30, 31, 35, 37):
        deltas = apply_event(net, regs, frozenset({i}), rule, cutset)
        assert deltas == apply_event_per_unit(net, reference, {i}, rule, cutset)
        changed |= {j for j, _, _ in deltas}
    assert regs == reference and changed
    loads.clear()
    assert apply_event(net, regs, sync, rule, cutset) == apply_event_per_unit(net, reference, sync, rule, cutset)
    assert regs == reference
    assert loads[0] == sorted(changed)
    # afterwards only the changed cutset unit is read from its register
    assert [rows for rows in loads[1:] if rows] == ([[4]] if cutset else [])


@pytest.mark.parametrize("rule", TREE_RULES)
def test_a_register_past_int64_turns_the_kept_columns_to_python_ints(rule):
    net = random_network("sparse", 20, m=3, seed=4)
    cutset = frozenset({2}) if rule == "activate-with-cutset" else frozenset()
    regs = assert_same_event(net, initial_registers(net, "random", cutset, 3), net.nodes(), rule, cutset)
    cols = net._register_columns
    assert cols.x.dtype == np.int64
    nbs = net.micros_adjacency()[6][1]
    j = nbs[0][0]
    regs[5] = replace(regs[5], g0=2**70, g1=-(2**70))
    regs[6] = replace(regs[6], cutset_g1=((j, 2**65), (j, 1)))  # j reads the first entry, the others 0
    _load_rows(net, cols, regs, [5, 6])
    assert cols.x.dtype == cols.pub.dtype == object
    assert (cols.g0[5], cols.g1[5], cols.paired[6]) == (2**70, -(2**70), True)
    first = net.half_edges().indptr
    assert set(cols.pub[first[5] : first[6]].tolist()) == {-(2**70)}
    assert cols.pub[first[6] : first[7]].tolist() == [2**65 if i == j else 0 for i, _ in nbs]
    assert_same_event(net, regs, net.nodes(), rule, cutset)
