"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import goodnet  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import SpanLog, Tracer, self_times, wrapped_targets  # noqa: E402
from workloads import ChainRR, CheckFailed, OracleScan, TracedCutset, illegal_count  # noqa: E402


def _add(log: SpanLog, name: str, parent: int, start: float, end: float, a: int = 0, b: int = 0) -> int:
    idx = len(log)
    log.name.append(log.name_id(name))
    log.parent.append(parent)
    log.start.append(start)
    log.end.append(end)
    log.a.append(a)
    log.b.append(b)
    return idx


def test_self_time_subtracts_direct_children_only():
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 3.0, 4.0, 1.0])
    assert self_times(parent, duration).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_layer_metrics_on_synthetic_span_tree():
    log = SpanLog()
    for _, _, name, _ in layers.targets():
        log.name_id(name)
    for offset in (0.0, 100.0):  # two identical iterations
        root = _add(log, layers.ITERATION, -1, offset + 0, offset + 10)
        run_span = _add(log, "engine.run", root, offset + 1, offset + 9)
        _add(log, "schedulers.next_set", run_span, offset + 1, offset + 2)
        event = _add(log, "engine.apply_event", run_span, offset + 2, offset + 6, a=1, b=1)
        _add(log, "engine.build_view", event, offset + 2.5, offset + 3)
        _add(log, "schedulers.next_set", run_span, offset + 6, offset + 7)
        _add(log, "engine.apply_event", run_span, offset + 7, offset + 8, a=1, b=0)
    metrics, mismatched = layers.layer_metrics(log, 4.0, 5.0)
    assert mismatched == 0
    assert metrics["engine.run_self_s"] == 1.0  # 8 - (1 + 4 + 1 + 1)
    assert metrics["engine.apply_event_self_s"] == 4.5  # (4 - 0.5) + 1
    assert metrics["engine.build_view_s"] == 0.5
    assert metrics["schedulers.next_set_s"] == 2.0
    assert metrics["schedulers.next_set_us"] == 1e6
    assert (metrics["engine.events"], metrics["engine.unit_updates"], metrics["engine.register_changes"]) == (2, 2, 1)
    assert metrics["engine.useful_update_ratio"] == 0.5
    assert metrics["engine.event_us_p50"] == 5e6  # next_set at 1 and 6 in one loop
    assert metrics["bench.trace_overhead_frac"] == 0.25
    assert metrics["engine.events_per_s"] == 0.5


def test_exact_count_that_differs_between_iterations_is_flagged():
    log = SpanLog()
    for _, _, name, _ in layers.targets():
        log.name_id(name)
    for calls in (1, 2):
        root = _add(log, layers.ITERATION, -1, 0, 1)
        for _ in range(calls):
            _add(log, "engine.apply_event", root, 0, 0.1, a=1)
    _, mismatched = layers.layer_metrics(log, 1.0, 1.0)
    assert mismatched == 1


def test_traced_run_restores_every_wrapped_name(tmp_path):
    targets = layers.targets()
    before = [(container, key, run_original(container, key)) for container, key, _, _ in targets]
    metrics, attempted, failed, _, log = run.run_workload(ChainRR(n=40), seed=1, seconds=0.01, trace=True, workdir=tmp_path)
    assert failed == 0 and attempted >= 4
    assert metrics["engine.events"] == 120 and metrics["rules.calls"] == 360
    assert len(log) > 0
    assert wrapped_targets(layers.targets()) == []
    assert all(run_original(container, key) is original for container, key, original in before)


def test_untraced_run_reports_scaled_end_to_end_metrics(tmp_path):
    metrics, attempted, failed, extra, log = run.run_workload(ChainRR(n=40), seed=1, seconds=0.01, trace=False, workdir=tmp_path)
    assert failed == 0 and attempted == run.MIN_ITERATIONS and log is None
    assert sorted(metrics) == sorted(name for name, _, _, _ in run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert any(line.startswith("reference loop CPU s, in order") for line in extra)


def test_tracer_restores_after_an_error():
    targets = layers.targets()
    with pytest.raises(RuntimeError):
        with Tracer(targets) as tracer:
            assert wrapped_targets(targets)
            goodnet.run(goodnet.fixture("fig1"), "activate", goodnet.CentralRoundRobin())
            assert len(tracer.log) > 0
            raise RuntimeError("boom")
    assert wrapped_targets(targets) == []


def run_original(container, key):
    return container[key] if isinstance(container, dict) else vars(container)[key]


def _small_traced_cutset():
    topology = goodnet.random_network("sparse", 30, m=3, seed=5)
    return TracedCutset(n=30, extra_edges=3, topology_seed=5, passes=2, cutset_size=len(goodnet.greedy_cutset(topology).members))


def test_flipped_tsv_goodness_is_a_failure(tmp_path):
    wl = _small_traced_cutset()
    inp = wl.setup(wl.draw(7), tmp_path)
    code, text = wl.iterate(inp)
    assert not run.failed(wl, inp, (code, text))
    lines = text.splitlines()
    cols = lines[10].split("\t")
    cols[3] = str(goodnet.Weight.from_decimal(cols[3]) + goodnet.Weight.from_int(1))
    lines[10] = "\t".join(cols)
    corrupted = (code, "\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="line 10: goodness"):
        wl.check(inp, corrupted)
    assert run.failed(wl, inp, corrupted)


def test_wrong_opt_line_is_a_failure(tmp_path):
    wl = OracleScan(scan_n=10, scan_extra=3, dp_n=30, dp_extra=4, cutset_size=2)
    inp = wl.setup(wl.draw(3), tmp_path)
    (scan, dp) = wl.iterate(inp)
    assert not run.failed(wl, inp, (scan, dp))
    code, text = dp
    head, rest = text.split("\n", 1)
    value = head.split()[1].removeprefix("goodness=")
    wrong = head.replace(f"goodness={value} ", f"goodness={goodnet.Weight.from_decimal(value) + goodnet.Weight.from_int(1)} ")
    assert run.failed(wl, inp, (scan, (code, wrong + "\n" + rest)))
    assert run.failed(wl, inp, RuntimeError("iteration raised"))


def test_reference_illegal_count_matches_the_library():
    rng = random.Random(11)
    for trial in range(40):
        net = goodnet.random_network("sparse", rng.randint(5, 25), m=rng.randint(0, 4), seed=trial)
        pointers = [frozenset()] + [
            frozenset(j for j, _ in net.neighbors(i) if rng.random() < 0.4) for i in net.nodes()
        ]
        regs = [None] + [goodnet.rules.ActivationRegister(points_to=pointers[i]) for i in net.nodes()]
        assert illegal_count(net, pointers) == goodnet.illegal_count(net, regs)
