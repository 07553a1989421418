import pytest

from goodnet import (
    CentralRandom,
    CentralRoundRobin,
    FairExclusion,
    SynchronousAll,
    parse_scheduler,
    random_network,
    ring6,
    run,
)

from helpers import IndependentFairExclusion


def collect(sched, n, steps):
    return [sched.next_set(n) for _ in range(steps)]


def test_central_rr_cycles_ascending():
    trace = collect(CentralRoundRobin(), 3, 7)
    assert trace == [frozenset({i}) for i in (1, 2, 3, 1, 2, 3, 1)]


def test_central_rr_custom_order():
    trace = collect(CentralRoundRobin((3, 2, 1, 4, 5)), 5, 5)
    assert [next(iter(s)) for s in trace] == [3, 2, 1, 4, 5]
    with pytest.raises(ValueError):
        CentralRoundRobin((9,)).next_set(3)
    # the order is checked again whenever the node count changes
    sched = CentralRoundRobin((2, 1))
    assert sched.next_set(2) == frozenset({2})
    with pytest.raises(ValueError):
        sched.next_set(3)
    assert sched.next_set(2) == frozenset({1})


def test_central_rr_rejects_orders_that_skip_a_unit():
    with pytest.raises(ValueError, match="never schedules node 4"):
        run(ring6(), "activate", CentralRoundRobin((1, 2, 3)))
    # repeats are fine as long as every unit is named
    assert run(ring6(), "activate", CentralRoundRobin((1, 2, 3, 4, 5, 6, 1))).stable


def test_scripted_replays_ring_order():
    # a scripted order is a round robin over the given ids, replayed cyclically
    trace = collect(parse_scheduler("scripted:1,4,2,5,3,6"), 6, 12)
    assert [next(iter(s)) for s in trace] == [1, 4, 2, 5, 3, 6] * 2
    with pytest.raises(ValueError):
        parse_scheduler("scripted:7").next_set(6)
    with pytest.raises(ValueError):
        CentralRoundRobin(()).next_set(6)


def test_sync_all_emits_everything():
    assert collect(SynchronousAll(), 5, 2) == [frozenset(range(1, 6))] * 2


def test_sync_all_builds_one_set_per_node_count():
    sched = SynchronousAll()
    first = sched.next_set(5)
    assert sched.next_set(5) is first
    assert sched.next_set(3) == frozenset({1, 2, 3})
    assert sched.next_set(5) == frozenset(range(1, 6))


def test_central_random_deterministic_singletons():
    a = collect(CentralRandom(5), 8, 100)
    b = collect(CentralRandom(5), 8, 100)
    assert a == b
    assert all(len(s) == 1 for s in a)
    assert a != collect(CentralRandom(6), 8, 100)


def test_fair_exclusion_contract():
    n = 7
    sched = FairExclusion(11)
    trace = collect(sched, n, 10 * n)
    assert all(trace)  # nonempty
    assert trace == collect(FairExclusion(11), n, 10 * n)
    # every odd step is the next round-robin singleton, so any 2n steps
    # run each unit alone: fairness and fair exclusion by construction
    assert trace[1::2] == [frozenset({k % n + 1}) for k in range(len(trace) // 2)]


def test_fair_exclusion_independent_subsets():
    net = random_network("sparse", 8, m=3, seed=2)
    sched = IndependentFairExclusion(4, net)
    for ids in collect(sched, 8, 200):
        assert ids
        for i in ids:
            assert not any(j in ids for j, _ in net.neighbors(i))


def test_parse_scheduler():
    assert isinstance(parse_scheduler("central-rr"), CentralRoundRobin)
    assert parse_scheduler("central-rr").order is None
    assert parse_scheduler("central-rr:3,2,1").order == (3, 2, 1)
    assert isinstance(parse_scheduler("central-random", seed=3), CentralRandom)
    assert isinstance(parse_scheduler("sync-all"), SynchronousAll)
    assert isinstance(parse_scheduler("fair-excl", seed=1), FairExclusion)
    scripted = parse_scheduler("scripted:1,4,2,5,3,6")
    assert isinstance(scripted, CentralRoundRobin)
    assert scripted.order == (1, 4, 2, 5, 3, 6)
    with pytest.raises(ValueError):
        parse_scheduler("scripted")
    with pytest.raises(ValueError):
        parse_scheduler("chaotic")
    for text in ("central-random:xyz", "sync-all:7", "fair-excl:1", "sync-all:"):
        with pytest.raises(ValueError, match="takes no argument"):
            parse_scheduler(text)
