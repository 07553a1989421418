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
import os
import stat
import sys
import tempfile
from typing import TextIO

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
from .weights import Weight, format_micros, parse_micros


def _delta_text(node: int, field: str, value) -> str:
    """One register change; goodness values are micros, printed as decimals."""
    if field == "points_to":
        return f"{node}:p={'|'.join(map(str, sorted(value))) or '-'}"
    if field == "cutset_g1":
        body = "|".join(f"{j}:{format_micros(g)}" for j, g in value)
        return f"{node}:cg1={body}"
    if field in ("g0", "g1"):
        return f"{node}:{field}={format_micros(value)}"
    return f"{node}:{field}={value}"


def trace_line(ev: TraceEvent) -> str:
    """One TSV line per event: step, pass, ids, goodness, illegal count, deltas."""
    step, pass_idx, ids, goodness, illegal, deltas = ev
    ids_text = str(next(iter(ids))) if len(ids) == 1 else ",".join(map(str, sorted(ids)))
    deltas_text = ",".join([_delta_text(*d) for d in deltas])
    return f"{step}\t{pass_idx}\t{ids_text}\t{format_micros(goodness.micros)}\t{illegal}\t{deltas_text}"


def result_line(result: RunResult) -> str:
    """The run's summary line: RESULT stable=.. passes=.. goodness=.. assignment=.."""
    bits = "".join(str(b) for b in result.assignment)
    return (
        f"RESULT stable={int(result.stable)} passes={result.passes_used} "
        f"goodness={result.goodness_final} assignment={bits}"
    )


def _load_network(args):
    if args.fixture is not None:
        return fixture(args.fixture)
    with open(args.net, encoding="utf-8") as fh:
        return parse_network(fh.read())


def _parse_cutset(net, text):
    if text is None:
        return None
    if text == "auto":
        return greedy_cutset(net).members
    return frozenset(parse_node_ids(text, f"--cutset {text!r}"))


def _parse_temp(text: str | None) -> Weight | None:
    """`--temp` as a positive Weight, None when not given; every refusal names the flag."""
    if text is None:
        return None
    try:
        micros = parse_micros(text)
    except ValueError as exc:
        raise ValueError(f"--temp: {exc}") from None
    if micros <= 0:
        raise ValueError(f"--temp: temperature must be positive, got {text!r}")
    return Weight(micros)


def _open_trace_path(path: str) -> bool:
    """Opens `path` for writing so that a bad path fails before the run;
    True iff this created the file."""
    try:
        open(path, "x").close()
        return True
    except FileExistsError:
        open(path, "a").close()
        return False


def _trace_stream(path: str) -> tuple[TextIO, str | None]:
    """The open file a `--trace` run streams into, and the temp path to move
    onto `path` once the run has returned: a new file beside the regular file
    `path` resolves to, so that a run that fails leaves `path` as it was.  A
    path that is not a regular file (the null device, a FIFO) is written
    directly, with no temp path."""
    if not os.path.isfile(path):
        return open(path, "w", encoding="utf-8"), None
    real = os.path.realpath(path)
    fd, temp = tempfile.mkstemp(prefix=f".{os.path.basename(real)}.", dir=os.path.dirname(real))
    return os.fdopen(fd, "w", encoding="utf-8"), temp


def cmd_run(args) -> int:
    if args.trace == "":
        raise ValueError("--trace needs a file path, got ''")
    net = _load_network(args)
    scheduler = parse_scheduler(args.sched, seed=args.seed)
    cutset = _parse_cutset(net, args.cutset)
    temperature = _parse_temp(args.temp)
    writes = [sys.stdout.write] if args.format == "tsv" else []

    def emit(ev: TraceEvent) -> None:
        line = trace_line(ev) + "\n"
        for write in writes:
            write(line)

    created = args.trace is not None and _open_trace_path(args.trace)
    fh = temp = None
    try:
        if args.trace is not None:
            fh, temp = _trace_stream(args.trace)
            writes.append(fh.write)
        result = run(
            net,
            args.rule,
            scheduler,
            init=args.init,
            seed=args.seed,
            temperature=temperature,
            cutset=cutset,
            max_passes=args.max_passes,
            collect_trace=emit if writes else None,
        )
        if fh is not None:
            fh.close()
        if temp is not None:  # mkstemp made the file 0600: give it the target's mode first
            os.chmod(temp, stat.S_IMODE(os.stat(args.trace).st_mode))
            os.replace(temp, os.path.realpath(args.trace))
    except BaseException:
        # a failed run, a closed stdout included, leaves the path as it was:
        # an existing file keeps its bytes, and one this command created goes
        if fh is not None:
            fh.close()
        if temp is not None:
            os.remove(temp)
        if created:
            os.remove(args.trace)
        raise
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
    lines = [f"OPT goodness={format_micros(report.gmax.micros)} count={len(report.argmax)}"]
    lines += ["".join(map(str, a)) for a in report.argmax]
    if report.conditioning_micros:  # in code order, so a row's cutset bits are its index in k binary digits
        k = len(plan.members)
        spec = f"0{k}b"
        lines += [f"COND y={format(code, spec) if k else ''} goodness={format_micros(value)}" for code, value in enumerate(report.conditioning_micros)]
    sys.stdout.write("\n".join(lines) + "\n")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use and kept, since
    parsing reads it without changing it."""
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: exit as SIGPIPE would (128 + 13), with stdout on devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
