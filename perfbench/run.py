"""Seeded benchmark of goodnet: five workloads, end to end and per layer.

Run one workload from the repository root:

    python3 perfbench/run.py --workload chain-rr --seed 1 --seconds 15 --trace 0

``--trace 0`` times iterations with nothing wrapped and reports the
end-to-end metrics, as CPU times scaled to a nominal host speed by a
reference loop timed between iterations (see Reference).  ``--trace 1``
first times a third of the budget untraced, then wraps the library's
layer entry points (see layers.py), times the rest, restores every
wrapped name, and reports the per-layer metrics; spans are written to
``.perfbench/spans-<workload>.npz``.
Every iteration's output is checked after the timed region.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.

``python3 perfbench/run.py --write-spec`` regenerates BENCHMARK.json
from the tables here and in workloads.py and layers.py.

The benchmark imports goodnet from ``src/`` next to this directory and
exits with status 2, printing no result, when that tree is missing.
"""

from __future__ import annotations

import os

# One thread: pin numpy's BLAS pool before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

RUN_SECONDS = 20
SETUP_REPEATS = 15
SETUP_MIN_SECONDS = 0.5
MIN_ITERATIONS = 3
REF_NOMINAL_S = 0.1

# (name, unit, better, bound): bound is the share of the parent's median
# by which a later change may worsen the metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("iteration_norm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


class Reference:
    """A fixed pure-Python loop, independent of goodnet, that gauges host speed.

    It does what the library's rules do most: threshold updates over
    adjacency lists with weights in a dict, 100 sweeps over 2000 nodes.
    Other tenants of a shared host move its speed by a fifth or more
    within minutes, and they slow this loop and the workload alike.  The
    untraced run times it around every timed phase and scales the phase's
    CPU time by REF_NOMINAL_S / (the loop's CPU time around it): seconds
    at the speed at which the loop takes REF_NOMINAL_S.
    """

    def __init__(self):
        rng = random.Random(7)
        n = 2000
        self.adj = [[rng.randrange(n) for _ in range(4)] for _ in range(n)]
        self.weight = {(i, j): rng.randint(-5, 5) for i in range(n) for j in self.adj[i]}
        self.x0 = [rng.randint(0, 1) for _ in range(n)]
        self.checksum = None

    def _sweep(self) -> int:
        adj, weight, x = self.adj, self.weight, list(self.x0)
        total = 0
        for _ in range(100):
            for i, nbs in enumerate(adj):
                net = 0
                for j in nbs:
                    if x[j]:
                        net += weight[(i, j)]
                x[i] = 1 if net > 0 else 0
                total += net
        return total

    def cpu_s(self) -> float:
        """CPU seconds of one run of the loop; every run must compute the same sum."""
        c0 = time.process_time()
        checksum = self._sweep()
        elapsed = time.process_time() - c0
        if self.checksum is None:
            self.checksum = checksum
        if checksum != self.checksum:
            raise RuntimeError("the reference loop computed a different sum")
        return elapsed


def _import_library():
    if not (SRC / "goodnet" / "__init__.py").is_file():
        print(f"error: no goodnet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import goodnet

    if Path(goodnet.__file__).resolve().parent != SRC / "goodnet":
        print(f"error: imported goodnet from {goodnet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure(workload, inputs, budget_s: float, min_iterations: int, after, log=None, root_name: str = ""):
    """Timed iterations until `budget_s` of wall time has passed and
    `min_iterations` ran.

    Returns each iteration's CPU seconds and wall seconds, as two lists.
    `after(output)` gets every output outside the timed region; an
    iteration that raised passes its exception as the output.
    """
    root_id = log.name_id(root_name) if log is not None else None
    cpus, walls = [], []
    deadline = time.perf_counter() + budget_s
    while len(walls) < min_iterations or time.perf_counter() < deadline:
        gc.collect()
        span = log.open(root_id) if log is not None else None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = workload.iterate(inputs)
        except Exception as exc:  # a failed iteration is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            output = exc
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if log is not None:
            log.close(span)
        after(output)
    return cpus, walls


def failed(workload, inputs, output) -> bool:
    """Check one iteration's output; True if it raised or failed the check."""
    if isinstance(output, Exception):
        return True
    try:
        workload.check(inputs, output)
    except Exception as exc:  # any error while checking an output is that output's failure
        print(f"check failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return True
    return False


def timed_setup(workload, seed: int, workdir: Path):
    """Median CPU time of identical setups (at least SETUP_REPEATS of them,
    for at least SETUP_MIN_SECONDS), and the last setup's inputs.  Drawing
    the sub-seeds is not timed: a redraw loop would make set-up depend on
    the seed."""
    drawn = workload.draw(seed)
    times = []
    deadline = time.perf_counter() + SETUP_MIN_SECONDS
    while len(times) < SETUP_REPEATS or time.perf_counter() < deadline:
        gc.collect()
        c0 = time.process_time()
        inputs = workload.setup(drawn, workdir)
        times.append(time.process_time() - c0)
    return statistics.median(times), inputs


def untraced_run(workload, seed: int, seconds: float, workdir: Path):
    """The end-to-end metrics, with nothing wrapped.

    The reference loop runs before and after the set-up and after every
    iteration.  Each CPU time is scaled by REF_NOMINAL_S over the mean
    of the loop's two runs around it, so it tracks the host's speed
    while that phase ran.
    """
    reference = Reference()
    refs = [reference.cpu_s()]
    setup_s, inputs = timed_setup(workload, seed, workdir)
    refs.append(reference.cpu_s())
    failures, work = [], []

    def after(output):
        if not work and not isinstance(output, Exception):
            work.append(workload.work(inputs, output))
        failures.append(failed(workload, inputs, output))
        refs.append(reference.cpu_s())

    cpus, walls = measure(workload, inputs, seconds, MIN_ITERATIONS, after)
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    metrics = {
        "setup_s": setup_s * REF_NOMINAL_S / around[0],
        "iteration_norm_s": REF_NOMINAL_S * statistics.median(cpu / ref for cpu, ref in zip(cpus, around[1:])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = [
        f"iterations {len(cpus)}; CPU median {statistics.median(cpus)!r} s, min {min(cpus)!r} s, max {max(cpus)!r} s",
        f"wall median {statistics.median(walls)!r} s; set-up CPU median {setup_s!r} s",
        f"reference loop CPU s, in order: {json.dumps(refs)}",
        f"iteration CPU s, in order: {json.dumps(cpus)}",
    ]
    if work and work[0] is not None:
        events, updates = work[0]
        extra.append(f"events_per_s = {events / metrics['iteration_norm_s']!r} 1/s")
        extra.append(f"unit_updates_per_s = {updates / metrics['iteration_norm_s']!r} 1/s")
    return metrics, len(cpus), sum(failures), extra, None


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Returns (metrics, attempted, failed, extra report lines, span log or None)."""
    import layers
    from tracing import SpanLog, Tracer, wrapped_targets

    if wrapped_targets(layers.targets()):
        raise RuntimeError("library functions are wrapped before an untraced phase")
    if not trace:
        return untraced_run(workload, seed, seconds, workdir)
    _, inputs = timed_setup(workload, seed, workdir)
    plain_failures, pending = [], []
    plain, _ = measure(workload, inputs, seconds / 3, 2, lambda out: plain_failures.append(failed(workload, inputs, out)))
    log = SpanLog()
    with Tracer(layers.targets(), log):
        traced, _ = measure(workload, inputs, seconds * 2 / 3, 2, pending.append, log, layers.ITERATION)
    if wrapped_targets(layers.targets()):
        raise RuntimeError("tracing wrappers survived the traced run")
    failures = sum(plain_failures) + sum(failed(workload, inputs, out) for out in pending)
    metrics, mismatched = layers.layer_metrics(log, statistics.median(plain), statistics.median(traced))
    extra = [f"untraced iterations {len(plain)}, traced iterations {len(traced)}, spans {len(log)}"]
    if mismatched:
        extra.append(f"{mismatched} traced iterations repeated an exact count differently")
    return metrics, len(plain) + len(traced), failures + mismatched, extra, log


def spec() -> dict:
    from layers import PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls().why} for name, cls in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    _import_library()
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, attempted, failed, extra, log = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if log is not None:
        spans_path = OUT / f"spans-{workload.name}.npz"
        log.save(spans_path)
        extra.append(f"spans written to {spans_path.relative_to(ROOT)}")

    table = PER_LAYER if args.trace else [row[:3] for row in END_TO_END]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.why}")
    for line in extra:
        print(line)
    print(f"failed_frac = {failed / attempted!r} ratio ({failed} of {attempted} iterations)")
    for name, unit, _ in table:
        print(f"{name} = {metrics[name]!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
