"""Command-line front end.

Three subcommands, all deterministic given their flags:

* ``run``    -- simulate a rule over a network under a scheduler and
                print a RESULT line (exit 0 stable, 2 budget exhausted).
* ``oracle`` -- exact optima by brute force, optionally with the
                cutset-conditioning decomposition table.
* ``demo``   -- named reproducible experiments (PASS/FAIL verdict).

First output tokens are machine-parseable: RESULT / OPT / COND / PASS / FAIL.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys

from . import experiments
from .engine import RULES, RunResult, TraceEvent, run
from .fixtures import fixture
from .network import parse_network, parse_node_ids
from .oracle import (
    brute_force_optima,
    cutset_exact_optimize,
    greedy_cutset,
    plan_from_members,
    # Not called here: perfbench/layers.py resolves cli.tree_conditioned_max by name.
    tree_conditioned_max,
)
from .schedulers import parse_scheduler
from .weights import Weight


def _delta_text(node: int, field: str, value) -> str:
    """One register change; goodness values are micros, printed as decimals."""
    if field == "points_to":
        return f"{node}:p={'|'.join(str(j) for j in sorted(value)) or '-'}"
    if field == "cutset_g1":
        body = "|".join(f"{j}:{Weight(g)}" for j, g in value)
        return f"{node}:cg1={body}"
    if field in ("g0", "g1"):
        return f"{node}:{field}={Weight(value)}"
    return f"{node}:{field}={value}"


def trace_line(ev: TraceEvent) -> str:
    """One TSV line per event: step, pass, ids, goodness, illegal count, deltas."""
    ids = ",".join(str(i) for i in sorted(ev.ids))
    deltas = ",".join(_delta_text(*d) for d in ev.deltas)
    return f"{ev.step}\t{ev.pass_idx}\t{ids}\t{ev.goodness}\t{ev.illegal}\t{deltas}"


def result_line(result: RunResult) -> str:
    """The run's summary line: RESULT stable=.. passes=.. goodness=.. assignment=.."""
    bits = "".join(str(b) for b in result.assignment)
    return (
        f"RESULT stable={int(result.stable)} passes={result.passes_used} "
        f"goodness={result.goodness_final} assignment={bits}"
    )


def _load_network(args):
    if args.fixture:
        return fixture(args.fixture)
    with open(args.net, encoding="utf-8") as fh:
        return parse_network(fh.read())


def _parse_cutset(net, text):
    if text is None:
        return None
    if text == "auto":
        return greedy_cutset(net).members
    return frozenset(parse_node_ids(text, f"--cutset {text!r}"))


def cmd_run(args) -> int:
    net = _load_network(args)
    scheduler = parse_scheduler(args.sched, seed=args.seed)
    cutset = _parse_cutset(net, args.cutset)
    want_trace = args.format == "tsv" or args.trace is not None
    result = run(
        net,
        args.rule,
        scheduler,
        init=args.init,
        seed=args.seed,
        temperature=Weight.from_decimal(args.temp) if args.temp else None,
        cutset=cutset,
        max_passes=args.max_passes,
        collect_trace=want_trace,
    )
    lines = [trace_line(ev) for ev in result.trace] if want_trace else []
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.format == "tsv":
        for line in lines:
            print(line)
    print(result_line(result))
    return 0 if result.stable else 2


def cmd_oracle(args) -> int:
    net = _load_network(args)
    cutset = _parse_cutset(net, args.cutset)
    if cutset is None and net.cutset:
        cutset = net.cutset
    if cutset is not None:
        plan = plan_from_members(net, cutset)
        report = cutset_exact_optimize(net, plan)
    else:
        report = brute_force_optima(net)
    print(f"OPT goodness={report.gmax} count={len(report.argmax)}")
    for a in report.argmax:
        print("".join(str(b) for b in a))
    for bits, value in report.conditionings:
        print(f"COND y={''.join(str(b) for b in bits)} goodness={value}")
    return 0


def bind_demo(args):
    """The named demo bound to the flags given, which must be among its own
    parameters (omitted ones keep its defaults); runs nothing."""
    demo = experiments.DEMOS.get(args.name)
    if demo is None:
        raise ValueError(f"unknown demo {args.name!r}; choose from {sorted(experiments.DEMOS)}")
    kwargs = {key: value for key, value in (("trials", args.trials), ("seed", args.seed)) if value is not None}
    if not kwargs.keys() <= inspect.signature(demo).parameters.keys():
        raise ValueError(f"demo {args.name} takes neither --trials nor --seed")
    if kwargs.get("trials", 1) < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    return functools.partial(demo, **kwargs)


def cmd_demo(args) -> int:
    result = bind_demo(args)()
    for line in result.lines:
        print(line)
    if result.passed:
        print(f"PASS: demo {result.name}")
        return 0
    if result.inconclusive:
        print(f"FAIL: demo {result.name} (inconclusive)")
        return 2
    print(f"FAIL: demo {result.name}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="goodnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_net_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--net", help="network file path")
        group.add_argument("--fixture", help="named fixture (fig1, example51, ring6, chain2i:<i>, illegal_ring:<n>)")

    p_run = sub.add_parser("run", help="simulate a rule under a scheduler")
    add_net_args(p_run)
    p_run.add_argument("--rule", default="activate", choices=RULES)
    p_run.add_argument("--sched", default="central-rr", help="central-rr[:order] | central-random | sync-all | fair-excl | scripted:<ids>")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--init", default="zeros", choices=["zeros", "random"])
    p_run.add_argument("--temp", help="temperature for the boltzmann rule (decimal)")
    p_run.add_argument("--cutset", help="comma-separated node ids, or 'auto'")
    p_run.add_argument("--max-passes", type=int, default=100)
    p_run.add_argument("--trace", help="write the event trace (TSV) to this path")
    p_run.add_argument("--format", default="summary", choices=["summary", "tsv"])
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="exact optima by exhaustive scan or cutset conditioning")
    add_net_args(p_oracle)
    p_oracle.add_argument("--cutset", help="comma-separated node ids, or 'auto'")
    p_oracle.set_defaults(func=cmd_oracle)

    p_demo = sub.add_parser("demo", help="run a named experiment")
    p_demo.add_argument("name", help="thm41 | thm42 | fig9 | selfstab | dominance | linear")
    p_demo.add_argument("--trials", type=int, help="randomized demos only (default 100)")
    p_demo.add_argument("--seed", type=int, help="randomized demos only (default 0)")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
