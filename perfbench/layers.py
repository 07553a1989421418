"""Which goodnet functions the traced run wraps, and the per-layer metrics.

The library looks these names up as module globals (or class and dict
attributes) at call time, so wrapping them from outside sees every call
without changing anything under ``src/``.  ``weights`` gets no span: it
runs once per arithmetic operation, so a wrapper would mostly measure
itself; its cost lands in the self time of ``rules`` and ``oracle``.
"""

from __future__ import annotations

import statistics

import numpy as np

import goodnet
from goodnet import cli, engine, experiments, oracle, schedulers
from goodnet.network import Network

from tracing import SpanLog, self_times

ITERATION = "bench.iteration"

# (name, unit, better): the per-layer metrics a traced run reports.
PER_LAYER = [
    ("schedulers.next_set_s", "s", "lower"),
    ("schedulers.next_set_calls", "count", "lower"),
    ("schedulers.next_set_us", "us", "lower"),
    ("engine.run_self_s", "s", "lower"),
    ("engine.apply_event_self_s", "s", "lower"),
    ("engine.build_view_s", "s", "lower"),
    ("engine.build_view_calls", "count", "lower"),
    ("engine.initial_registers_s", "s", "lower"),
    ("engine.trace_line_s", "s", "lower"),
    ("rules.legality_s", "s", "lower"),
    ("rules.legality_calls", "count", "lower"),
    ("network.goodness_s", "s", "lower"),
    ("network.goodness_calls", "count", "lower"),
    ("engine.event_us_p50", "us", "lower"),
    ("engine.event_us_p99", "us", "lower"),
    ("rules.tree_direct_s", "s", "lower"),
    ("rules.goodness_s", "s", "lower"),
    ("rules.activation_s", "s", "lower"),
    ("rules.calls", "count", "lower"),
    ("network.parse_s", "s", "lower"),
    ("oracle.scan_s", "s", "lower"),
    ("oracle.scan_states", "count", "lower"),
    ("oracle.scan_states_per_s", "1/s", "higher"),
    ("oracle.cutset_opt_s", "s", "lower"),
    ("oracle.dp_s", "s", "lower"),
    ("oracle.dp_calls", "count", "lower"),
    ("oracle.acyclic_check_s", "s", "lower"),
    ("oracle.acyclic_check_calls", "count", "lower"),
    ("oracle.dp_redundant_ratio", "ratio", "lower"),
    ("oracle.greedy_cutset_s", "s", "lower"),
    ("fixtures.random_network_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.unit_updates", "count", "lower"),
    ("engine.register_changes", "count", "lower"),
    ("engine.useful_update_ratio", "ratio", "higher"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.unit_updates_per_s", "1/s", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
]

# Exact counts: identical on every traced iteration of one seed.
EXACT = [
    "schedulers.next_set_calls",
    "engine.build_view_calls",
    "rules.legality_calls",
    "network.goodness_calls",
    "rules.calls",
    "oracle.scan_states",
    "oracle.dp_calls",
    "oracle.acyclic_check_calls",
    "oracle.dp_redundant_ratio",
    "engine.events",
    "engine.unit_updates",
    "engine.register_changes",
    "engine.useful_update_ratio",
]


def _event_counts(args, deltas):
    """apply_event(net, regs, ids, ...): units activated, units whose register changed."""
    return len(args[2]), len({node for node, _, _ in deltas})


def _states_scanned(args, report):
    return report.states_scanned, 0


def targets() -> list[tuple]:
    """(container, key, span name, post hook) for every wrapped call site."""
    out = []

    def add(span, *sites, post=None):
        out.extend((container, key, span, post) for container, key in sites)

    scheduler_classes = [
        cls
        for cls in vars(schedulers).values()
        if isinstance(cls, type) and issubclass(cls, schedulers.Scheduler) and "next_set" in vars(cls)
        and cls is not schedulers.Scheduler
    ]
    add("cli.main", (cli, "main"))
    add("engine.run", (goodnet, "run"), (engine, "run"), (cli, "run"), (experiments, "run"))
    add("engine.apply_event", (engine, "apply_event"), (experiments, "apply_event"), post=_event_counts)
    add("engine.build_view", (engine, "build_view"))
    add("engine.initial_registers", (engine, "initial_registers"), (experiments, "initial_registers"))
    add("engine.perturb", (experiments, "perturb"))
    add("engine.trace_line", (cli, "trace_line"))
    add("rules.tree_direct", (engine, "tree_direct_step"))
    add("rules.goodness", (engine, "goodness_step"), (engine, "cutset_goodness_step"))
    add("rules.activation", (engine, "activation_step"), (engine, "hopfield_step"), (engine, "boltzmann_step"))
    add("rules.legality", (engine, "legality_map"))
    add("network.goodness", (Network, "goodness"))
    add("network.parse", (cli, "parse_network"))
    add("schedulers.next_set", *[(cls, "next_set") for cls in scheduler_classes])
    add("schedulers.parse", (cli, "parse_scheduler"))
    add("oracle.scan", (cli, "brute_force_optima"), (experiments, "brute_force_optima"), post=_states_scanned)
    add("oracle.cutset_opt", (cli, "cutset_exact_optimize"))
    add("oracle.dp", (oracle, "tree_conditioned_max"), (experiments, "tree_conditioned_max"))
    # The CLI's COND table re-solves conditionings the optimizer already solved.
    add("oracle.dp.cli", (cli, "tree_conditioned_max"))
    add("oracle.acyclic_check", (oracle, "is_acyclic_without"))
    add("oracle.greedy_cutset", (cli, "greedy_cutset"), (experiments, "greedy_cutset"))
    add("fixtures.random_network", (experiments, "random_network"))
    add("experiments.demo", *[(experiments.DEMOS, name) for name in experiments.DEMOS])
    add("experiments.pair", (experiments, "dominance_experiment"), (experiments, "cutset_dominance_experiment"))
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _iteration_metrics(total, own, calls, a, b, ids) -> dict:
    """One traced iteration's metrics from per-span-name sums.

    `total` sums span durations, `own` sums self times, `calls` counts
    spans and `a`/`b` sum the post-hook payloads, all indexed by name id.
    """

    def t(*names):
        return float(sum(total[ids[n]] for n in names))

    def s(*names):
        return float(sum(own[ids[n]] for n in names))

    def c(*names):
        return int(sum(calls[ids[n]] for n in names))

    next_set_s, next_set_calls = t("schedulers.next_set"), c("schedulers.next_set")
    scan_s = t("oracle.scan")
    dp_calls = c("oracle.dp", "oracle.dp.cli")
    updates, changed = int(a[ids["engine.apply_event"]]), int(b[ids["engine.apply_event"]])
    return {
        "schedulers.next_set_s": next_set_s,
        "schedulers.next_set_calls": next_set_calls,
        "schedulers.next_set_us": _ratio(next_set_s * 1e6, next_set_calls),
        "engine.run_self_s": s("engine.run"),
        "engine.apply_event_self_s": s("engine.apply_event"),
        "engine.build_view_s": t("engine.build_view"),
        "engine.build_view_calls": c("engine.build_view"),
        "engine.initial_registers_s": t("engine.initial_registers"),
        "engine.trace_line_s": t("engine.trace_line"),
        "rules.legality_s": t("rules.legality"),
        "rules.legality_calls": c("rules.legality"),
        "network.goodness_s": t("network.goodness"),
        "network.goodness_calls": c("network.goodness"),
        "rules.tree_direct_s": t("rules.tree_direct"),
        "rules.goodness_s": t("rules.goodness"),
        "rules.activation_s": t("rules.activation"),
        "rules.calls": c("rules.tree_direct", "rules.goodness", "rules.activation"),
        "network.parse_s": t("network.parse"),
        "oracle.scan_s": scan_s,
        "oracle.scan_states": int(a[ids["oracle.scan"]]),
        "oracle.scan_states_per_s": _ratio(int(a[ids["oracle.scan"]]), scan_s),
        "oracle.cutset_opt_s": t("oracle.cutset_opt"),
        "oracle.dp_s": t("oracle.dp", "oracle.dp.cli"),
        "oracle.dp_calls": dp_calls,
        "oracle.acyclic_check_s": t("oracle.acyclic_check"),
        "oracle.acyclic_check_calls": c("oracle.acyclic_check"),
        "oracle.dp_redundant_ratio": _ratio(c("oracle.dp.cli"), dp_calls),
        "oracle.greedy_cutset_s": t("oracle.greedy_cutset"),
        "fixtures.random_network_s": t("fixtures.random_network"),
        "experiments.self_s": s("experiments.demo", "experiments.pair"),
        "cli.self_s": s("cli.main"),
        "engine.events": c("engine.apply_event"),
        "engine.unit_updates": updates,
        "engine.register_changes": changed,
        "engine.useful_update_ratio": _ratio(changed, updates),
    }


def per_iteration(arr: dict, names: list[str]) -> list[dict]:
    """Metrics of each traced iteration (spans between consecutive iteration roots)."""
    name, parent = arr["name"], arr["parent"]
    duration = arr["end"] - arr["start"]
    own = self_times(parent, duration)
    ids = {n: i for i, n in enumerate(names)}
    width = len(names)
    roots = np.flatnonzero(name == ids[ITERATION])
    bounds = list(roots) + [len(name)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        sums = [
            np.bincount(name[lo:hi], weights=None if w is None else w[lo:hi], minlength=width)
            for w in (duration, own, None, arr["a"], arr["b"])
        ]
        out.append(_iteration_metrics(*sums, ids))
    return out


def event_latencies_us(arr: dict, names: list[str]) -> np.ndarray:
    """Host time of each scheduler event: start of one next_set call to the next
    one in the same loop (the last event of each loop has no successor)."""
    calls = np.flatnonzero(arr["name"] == names.index("schedulers.next_set"))
    same_loop = arr["parent"][calls[1:]] == arr["parent"][calls[:-1]]
    return ((arr["start"][calls[1:]] - arr["start"][calls[:-1]]) * 1e6)[same_loop]


def layer_metrics(log: SpanLog, plain_s: float, traced_s: float) -> tuple[dict, int]:
    """Every PER_LAYER metric, and how many traced iterations broke an exact count.

    Times are medians over traced iterations; exact counts come from the
    first traced iteration and must repeat on every other one.
    `plain_s` and `traced_s` are the untraced and traced median CPU
    seconds of one iteration.
    """
    arr = log.arrays()
    rows = per_iteration(arr, log.names)
    mismatched = sum(1 for row in rows[1:] if any(row[k] != rows[0][k] for k in EXACT))
    metrics = {k: (rows[0][k] if k in EXACT else statistics.median(r[k] for r in rows)) for k in rows[0]}
    latencies = event_latencies_us(arr, log.names)
    has_events = len(latencies) > 0
    metrics["engine.event_us_p50"] = float(np.percentile(latencies, 50)) if has_events else 0.0
    metrics["engine.event_us_p99"] = float(np.percentile(latencies, 99)) if has_events else 0.0
    metrics["engine.events_per_s"] = metrics["engine.events"] / plain_s
    metrics["engine.unit_updates_per_s"] = metrics["engine.unit_updates"] / plain_s
    metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1
    return metrics, mismatched
