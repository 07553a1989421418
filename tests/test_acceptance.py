"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints an `ACCEPTANCE <k>: PASS` line on success (run pytest
with -s to see them).  Shared heavy artifacts (the 200-tree runs and
the dominance demo) are built once and reused.
"""

import math
import random
import time

import pytest

from goodnet import (
    CentralRoundRobin,
    LocalView,
    Weight,
    boltzmann_step,
    brute_force_optima,
    cutset_exact_optimize,
    example51,
    fig1,
    greedy_cutset,
    random_network,
    run,
)
from goodnet.experiments import DEMOS
from goodnet.rules import legality_map

from helpers import D, M, IndependentFairExclusion, W


def ok(k, msg):
    print(f"\nACCEPTANCE {k}: PASS - {msg}")


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_fig1_regression():
    t0 = time.time()
    net = fig1()
    # the order 1,2,3,5,4 roots the tree at node 4, reproducing the
    # worked register values; the default ascending order roots at 5
    # but must reach the same optimum.
    result = run(net, "activate", CentralRoundRobin((1, 2, 3, 5, 4)), init="zeros", max_passes=15)
    assert result.stable and result.passes_used <= 15
    assert result.assignment == (1, 0, 0, 0, 1)
    assert result.goodness_final == W(3)
    regs = result.registers
    assert (regs[1].g0, regs[1].g1) == (M(2), M(1))
    assert (regs[2].g0, regs[2].g1) == (0, M(2))
    assert (regs[3].g0, regs[3].g1) == (M(2), M(2))
    assert (regs[5].g0, regs[5].g1) == (M(1), 0)
    assert regs[4].x == 0 and regs[5].x == 1 and regs[3].x == 0

    default = run(net, "activate", CentralRoundRobin(), init="zeros", max_passes=15)
    assert default.stable and default.assignment == (1, 0, 0, 0, 1)
    assert default.goodness_final == W(3)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    ok(1, f"fig1 stabilizes at 10001, goodness 3, registers exact ({elapsed:.2f}s)")


# -- criteria 2 and 11 share the 200-tree suite ------------------------------


def make_tree(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 16)
    return random_network("tree", n, seed=rng.randrange(2**32))


@pytest.fixture(scope="session")
def tree_suite():
    runs = []
    t0 = time.time()
    for seed in range(200):
        net = make_tree(seed)
        gmax = brute_force_optima(net).gmax
        for kind in ("central-rr", "fair-excl"):
            if kind == "central-rr":
                sched = CentralRoundRobin()
            else:
                sched = IndependentFairExclusion(seed, net)
            trace = []
            result = run(net, "activate", sched, init="zeros",
                         max_passes=6 * net.n, collect_trace=trace.append)
            runs.append((seed, kind, net, gmax, result, trace))
    return runs, time.time() - t0


def test_criterion_02_tree_oracle_equivalence(tree_suite):
    runs, elapsed = tree_suite
    assert len(runs) == 400
    for seed, kind, net, gmax, result, _ in runs:
        assert result.stable, (seed, kind)
        assert result.goodness_final == gmax, (seed, kind)
        converged_pass = result.last_change_step // net.n + 1
        assert converged_pass <= 3 * net.n, (seed, kind, converged_pass)
    assert elapsed < 30.0
    ok(2, f"200 random trees x 2 schedulers hit the exact optimum within 3n passes ({elapsed:.1f}s)")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_self_stabilization():
    t0 = time.time()
    demo = DEMOS["selfstab"]()
    elapsed = time.time() - t0
    assert demo.passed
    assert demo.lines == ["100/100 perturbed tree runs reached the exact optimum"]
    assert elapsed < 30.0
    ok(3, f"100/100 fully perturbed trees recover the exact optimum under fair exclusion ({elapsed:.1f}s)")


# -- criteria 4, 5 and 6: the negative-result demos --------------------------


def test_criterion_04_synchronous_chain_never_optimal():
    demo = DEMOS["thm41"]()
    assert demo.passed
    assert demo.lines == [
        f"chain2i({i}): middle pair equal for 10000 steps=True, all 2 optima split the pair=True" for i in (3, 4, 5)
    ]
    ok(4, "chain2i(3..5) under sync-all: middle pair locked for 10^4 steps, optima all split it")


def test_criterion_05_ring_schedule_never_optimal():
    demo = DEMOS["thm42"]()
    assert demo.passed
    assert demo.lines == [
        "ring6 scripted 1,4,2,5,3,6: opposite pairs equal after each of 5000 completed pairs=True, "
        "optimum visited=False (optima goodness 3)"
    ]
    ok(5, "ring6 scripted 1,4,2,5,3,6: opposite pairs equal, optima never visited over 10^4 events")


def test_criterion_06_stuck_pointer_ring():
    demo = DEMOS["fig9"]()
    assert demo.passed
    assert demo.lines == ["illegal_ring(6): pointer state unchanged over 1000 passes=True"]
    ok(6, "illegal_ring(6): bogus pointer ring survives 10^3 full passes without initialization")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_example51_trajectory():
    net = example51()
    # ascending round robin reads node 3's flip at node 1 before node 2
    # ever sees it, skipping the -199.8 plateau; the cycle 3,2,1,4,5
    # realizes the narrative exactly.  Both must stabilize at all-ones.
    trace = []
    result = run(net, "activate-with-cutset", CentralRoundRobin((3, 2, 1, 4, 5)),
                 init="zeros", collect_trace=trace.append)
    assert result.stable
    levels = []
    for ev in trace:
        if not levels or levels[-1] != ev.goodness:
            levels.append(ev.goodness)
    wanted = [Weight(0), D("199.8"), D("249.7"), D("250.7")]
    it = iter(levels)
    assert all(any(lv == w for lv in it) for w in wanted), levels
    assert result.assignment == (1, 1, 1, 1, 1)
    assert result.goodness_final == D("250.7")
    assert -net.goodness(result.assignment) == D("-250.7")
    report = brute_force_optima(net)
    assert result.assignment in report.argmax

    plain = run(net, "activate-with-cutset", CentralRoundRobin(), init="zeros")
    assert plain.stable and plain.assignment == (1, 1, 1, 1, 1)
    ok(7, "example51 cutset run visits energies 0, -199.8, -249.7, stabilizes at -250.7 (exact sums)")


# -- criteria 8 and 9 --------------------------------------------------------


@pytest.fixture(scope="module")
def dominance_demo():
    return DEMOS["dominance"]()


def test_criterion_08_tree_rule_dominates_threshold_rule(dominance_demo):
    assert dominance_demo.passed
    assert dominance_demo.lines[-1].split("; ")[0] == "tree vs threshold: 100 comparable, 0 violations"
    ok(8, "tree rule >= threshold rule on all 100 comparable pairs of 100")


def test_criterion_09_cutset_rule_dominates_tree_rule(dominance_demo):
    # 3 of the 100 pairs (trials 9, 31 and 35) are not comparable: their
    # central-rr activate-with-cutset run never settles within 300 passes.
    assert dominance_demo.passed
    assert dominance_demo.lines[-1].split("; ")[1] == "cutset vs tree: 97 comparable, 0 violations"
    ok(9, "cutset rule >= tree rule on all 97 comparable pairs of 100")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_cutset_enumeration_equals_brute_force():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(4, 16)
        m = rng.randint(0, min(4, (n * (n - 1)) // 2 - (n - 1)))
        net = random_network("sparse", n, m=m, seed=rng.randrange(2**32))
        plan = greedy_cutset(net)
        assert len(plan.members) <= 4
        assert cutset_exact_optimize(net, plan).gmax == brute_force_optima(net).gmax
    ok(10, "cutset conditioning matches brute force exactly on 100 random nets")


# -- criterion 11 ------------------------------------------------------------


def legality_sequence(net, trace):
    pointers = {i: frozenset() for i in net.nodes()}
    legal = legality_map(net, pointers)
    seq = [legal]
    for ev in trace:
        changed = False
        for node, field, value in ev.deltas:
            if field == "points_to":
                pointers[node] = value
                changed = True
        if changed:
            legal = legality_map(net, pointers)
        seq.append(legal)
    return seq


def test_criterion_11_legality_invariants(tree_suite):
    runs, _ = tree_suite
    for seed, kind, net, _, _, trace in runs:
        seq = legality_sequence(net, trace)
        for before, after in zip(seq, seq[1:]):
            assert before <= after, (seed, kind, before - after)
        counts = [net.n - len(legal) for legal in seq]
        assert counts[-1] == 0, (seed, kind)
        if kind == "fair-excl":
            w = 2 * net.n
            t = 0
            while t + w < len(counts):
                if counts[t] > 0:
                    assert counts[t + w] < counts[t], (seed, t, counts[t], counts[t + w])
                t += w
    ok(11, "legality monotone, illegal counts reach 0, strict decrease per 2n window under fair exclusion")


# -- criterion 12 ------------------------------------------------------------


def test_criterion_12_linear_event_growth():
    t0 = time.time()
    demo = DEMOS["linear"]()
    elapsed = time.time() - t0
    assert demo.passed, demo.lines
    lengths = (100, 200, 400, 800, 1600, 3200)
    assert demo.lines == [
        *(f"n={n}: events-to-stability={n} stable=True optimal=True" for n in lengths),
        *(f"doubling to n={n}: ratio=2.000 within 2.0 +/- 25%=True" for n in lengths[1:]),
    ]
    assert elapsed < 60.0
    ok(12, f"chain event counts double with length, 2.0 within 25% ({elapsed:.1f}s)")


# -- criterion 13 ------------------------------------------------------------


def test_criterion_13_boltzmann_matches_sigmoid():
    draws = 100_000
    rng = random.Random(31337)
    for s in (-2, -1, 0, 1, 2):
        view = LocalView(1, M(s), False, ())
        hits = sum(boltzmann_step(view, W(1), rng) for _ in range(draws))
        expected = 1.0 / (1.0 + math.exp(-s))
        assert abs(hits / draws - expected) < 0.01, s
    ok(13, "empirical flip frequency within 0.01 of the sigmoid at inputs -2..2, T=1")
